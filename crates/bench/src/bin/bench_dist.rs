//! Distributed-path benchmark: emits `BENCH_dist.json`.
//!
//! For each algorithm of §5.3 (`0c`, `cd-0`, `cd-r`) on a synthetic
//! graph:
//!
//! - measures per-epoch time with telemetry recording OFF and ON and
//!   reports the median-epoch recording overhead (acceptance bound:
//!   < 2%). Warmup epochs are excluded from the medians and each
//!   configuration runs `RUNS` times with the *minimum* median taken —
//!   min-of-N is robust against one-sided scheduler noise, which used
//!   to report nonsense negative overheads;
//! - reports the cluster-total phase breakdown of one recording run
//!   (Fig. 10/11 shape);
//! - checks the trained parameters are bit-identical with recording
//!   off and on.
//!
//! `--smoke` shrinks the dataset and epoch count for CI: the JSON is
//! still written (to a temp path unless `--out` is given), re-parsed,
//! and schema-validated, but the tight overhead gate is relaxed (tiny
//! epochs make percentages noise).

use distgnn_bench::{header, millis, print_table};
use distgnn_core::{build_metrics, DistConfig, DistMode, DistTrainer};
use distgnn_graph::{Dataset, ScaledConfig};
use distgnn_partition::{libra_partition, PartitionedGraph};
use distgnn_telemetry::{json, Phase, PhaseKind, TelemetryHub, PHASES};
use std::time::Duration;

/// Timed rounds per configuration; the reported median is the minimum
/// over these rounds, while the overhead gate compares the minimum
/// single-epoch time across all rounds (see `run_algo`).
const RUNS: usize = 5;
/// Leading epochs excluded from every median (page-cache / allocator /
/// rayon-pool warmup).
const WARMUP_EPOCHS: usize = 2;

struct BenchArgs {
    smoke: bool,
    scale: f64,
    epochs: usize,
    out: Option<String>,
}

fn parse_args() -> BenchArgs {
    let mut args = BenchArgs { smoke: false, scale: 0.3, epochs: 12, out: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => {
                args.smoke = true;
                args.scale = 0.05;
                args.epochs = 6;
            }
            "--scale" => args.scale = it.next().and_then(|v| v.parse().ok()).expect("--scale f64"),
            "--epochs" => {
                args.epochs = it.next().and_then(|v| v.parse().ok()).expect("--epochs usize")
            }
            "--out" => args.out = Some(it.next().expect("--out path")),
            other => panic!("unknown flag `{other}` (want --smoke/--scale/--epochs/--out)"),
        }
    }
    args
}

struct AlgoRow {
    name: String,
    median_off_ms: f64,
    median_on_ms: f64,
    overhead_pct: f64,
    params_identical: bool,
    /// Cluster-total exclusive phase time, ns, breakdown recording run.
    phase_ns: [u64; distgnn_telemetry::PHASE_COUNT],
    comm_bytes: u64,
    retries: u64,
}

/// Median epoch time in ms, excluding the warmup prefix.
fn median_ms(epochs: &[Duration]) -> f64 {
    let keep = if epochs.len() > WARMUP_EPOCHS { &epochs[WARMUP_EPOCHS..] } else { epochs };
    let mut ms: Vec<f64> = keep.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(|a, b| a.total_cmp(b));
    if ms.is_empty() {
        return 0.0;
    }
    let mid = ms.len() / 2;
    if ms.len() % 2 == 1 {
        ms[mid]
    } else {
        (ms[mid - 1] + ms[mid]) / 2.0
    }
}

/// Post-warmup epoch times in ms (the samples pooled for the
/// min-epoch overhead floor).
fn kept_ms(epochs: &[Duration]) -> Vec<f64> {
    let keep = if epochs.len() > WARMUP_EPOCHS { &epochs[WARMUP_EPOCHS..] } else { epochs };
    keep.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

fn cluster_phase_ns(
    cfg: &DistConfig,
    run: &distgnn_core::DistRunReport,
    hub: &TelemetryHub,
) -> ([u64; distgnn_telemetry::PHASE_COUNT], u64, u64) {
    let reg = build_metrics(cfg, run, hub);
    let k = hub.num_ranks();
    let mut phase_ns = [0u64; distgnn_telemetry::PHASE_COUNT];
    for r in 0..k {
        for (dst, src) in phase_ns.iter_mut().zip(reg.rank(r).phase_ns) {
            *dst += src;
        }
    }
    (
        phase_ns,
        reg.total(distgnn_telemetry::Metric::BytesSent),
        reg.total(distgnn_telemetry::Metric::RetriesAttempted),
    )
}

fn run_algo(ds: &Dataset, pg: &PartitionedGraph, mode: DistMode, epochs: usize) -> AlgoRow {
    let k = pg.num_parts();
    let cfg = {
        let mut c = DistConfig::new(ds, mode, k, epochs);
        c.kernel = distgnn_kernels::AggregationConfig::optimized(1);
        c
    };

    // Noise strategy, in two layers. (1) Reported medians are
    // min-of-N: the smallest median per configuration over RUNS
    // interleaved rounds, so one noisy round cannot inflate the
    // headline numbers. (2) The overhead gate compares *minimum
    // single-epoch times* pooled across all rounds. Scheduler noise
    // (CPU steal, preemption, cache pollution from a neighbor) is
    // strictly additive — it can only make an epoch slower, never
    // faster — so with RUNS×(epochs−warmup) samples per configuration
    // the pooled minimum converges on the noise-free floor of each
    // loop, and the off/on floors isolate the true recording cost.
    // Medians of ±5%-noisy samples cannot resolve a sub-1% effect;
    // floors can.
    let run_timed = |c: &DistConfig| -> (f64, Vec<f64>, Vec<Vec<f32>>) {
        let run = DistTrainer::try_run_on(ds, pg, c).expect("recording-off run");
        let times: Vec<Duration> = run.epochs.iter().map(|e| e.epoch_time).collect();
        (median_ms(&times), kept_ms(&times), run.final_params)
    };
    let run_timed_recording = |c: &DistConfig| -> (f64, Vec<f64>, Vec<Vec<f32>>) {
        let hub = TelemetryHub::new(k, Default::default());
        let run =
            DistTrainer::try_run_on_with_telemetry(ds, pg, c, &hub).expect("recording-on run");
        let times: Vec<Duration> = run.epochs.iter().map(|e| e.epoch_time).collect();
        (median_ms(&times), kept_ms(&times), run.final_params)
    };

    let mut median_off_ms = f64::MAX;
    let mut median_on_ms = f64::MAX;
    let mut pool_off: Vec<f64> = Vec::new();
    let mut pool_on: Vec<f64> = Vec::new();
    let (mut params_off, mut params_on) = (Vec::new(), Vec::new());
    for _ in 0..RUNS {
        let (off, off_epochs, p_off) = run_timed(&cfg);
        let (on, on_epochs, p_on) = run_timed_recording(&cfg);
        median_off_ms = median_off_ms.min(off);
        median_on_ms = median_on_ms.min(on);
        pool_off.extend(off_epochs);
        pool_on.extend(on_epochs);
        params_off = p_off;
        params_on = p_on;
    }
    let floor = |pool: &[f64]| pool.iter().copied().fold(f64::MAX, f64::min);
    let overhead_pct = (floor(&pool_on) / floor(&pool_off) - 1.0) * 100.0;

    // One more recording run for the phase breakdown (the breakdown
    // only needs one clean sample; timings above stay pure).
    let hub = TelemetryHub::new(k, Default::default());
    let run = DistTrainer::try_run_on_with_telemetry(ds, pg, &cfg, &hub)
        .expect("breakdown run");
    let (phase_ns, comm_bytes, retries) = cluster_phase_ns(&cfg, &run, &hub);

    let params_identical = params_off == params_on && params_off == run.final_params;

    AlgoRow {
        name: mode.name(),
        median_off_ms,
        median_on_ms,
        overhead_pct,
        params_identical,
        phase_ns,
        comm_bytes,
        retries,
    }
}

struct CodecRow {
    name: String,
    test_accuracy: f64,
    final_loss: f64,
    wire_bytes: u64,
    logical_bytes: u64,
}

impl CodecRow {
    fn ratio(&self) -> f64 {
        self.logical_bytes as f64 / self.wire_bytes.max(1) as f64
    }
}

/// Compressed-communication study: cd-0 on the reddit-s convergence
/// fixture, trained to the accuracy plateau so the codec comparison is
/// a *final-accuracy* statement, not a mid-training snapshot (the top-k
/// trajectory lags early and reconverges — see EXPERIMENTS.md). Smoke
/// keeps the shape (wire < logical) but runs far short of the plateau.
fn run_codecs(smoke: bool) -> Vec<CodecRow> {
    let (scale, epochs) = if smoke { (0.1, 20) } else { (0.25, 200) };
    let ds = Dataset::generate(&ScaledConfig::reddit_s().scaled_by(scale));
    let codecs = [
        distgnn_comm::WireCodec::None,
        distgnn_comm::WireCodec::Bf16,
        distgnn_comm::WireCodec::TopK { percent: 10 },
        distgnn_comm::WireCodec::Int8,
    ];
    codecs
        .iter()
        .map(|&codec| {
            let mut cfg = DistConfig::new(&ds, DistMode::Cd0, 3, epochs);
            cfg.codec = codec;
            let run = DistTrainer::try_run(&ds, &cfg).expect("codec run");
            CodecRow {
                name: codec.name(),
                test_accuracy: run.test_accuracy as f64,
                final_loss: run.epochs.last().expect("epochs").loss as f64,
                wire_bytes: run.per_rank_comm.iter().map(|s| s.bytes_sent).sum(),
                logical_bytes: run.per_rank_comm.iter().map(|s| s.logical_bytes_sent).sum(),
            }
        })
        .collect()
}

/// Re-parses the emitted JSON and checks every field the downstream
/// tooling (EXPERIMENTS.md tables, CI gates) reads.
fn validate_schema(raw: &str, expect_algos: usize) -> Result<(), String> {
    let v = json::parse(raw)?;
    for key in ["benchmark", "command"] {
        v.get(key).and_then(|x| x.as_str()).ok_or(format!("missing string `{key}`"))?;
    }
    let ds = v.get("dataset").ok_or("missing `dataset`")?;
    ds.get("name").and_then(|x| x.as_str()).ok_or("missing dataset.name")?;
    for key in ["vertices", "edges"] {
        ds.get(key).and_then(|x| x.as_f64()).ok_or(format!("missing dataset.{key}"))?;
    }
    for key in ["sockets", "epochs", "warmup_epochs", "runs_per_config"] {
        v.get(key).and_then(|x| x.as_f64()).ok_or(format!("missing number `{key}`"))?;
    }
    let algos = v.get("algorithms").and_then(|a| a.as_arr()).ok_or("missing `algorithms`")?;
    if algos.len() != expect_algos {
        return Err(format!("expected {expect_algos} algorithms, got {}", algos.len()));
    }
    for a in algos {
        a.get("algo").and_then(|x| x.as_str()).ok_or("missing algo name")?;
        for key in [
            "median_epoch_ms_recording_off",
            "median_epoch_ms_recording_on",
            "telemetry_overhead_pct",
            "comm_bytes",
            "retries",
        ] {
            a.get(key).and_then(|x| x.as_f64()).ok_or(format!("missing number `{key}`"))?;
        }
        match a.get("params_bit_identical") {
            Some(json::Value::Bool(_)) => {}
            _ => return Err("missing bool `params_bit_identical`".into()),
        }
        let phases = a.get("phase_ns").ok_or("missing `phase_ns`")?;
        for p in &PHASES {
            phases.get(p.name()).and_then(|x| x.as_f64()).ok_or(format!(
                "missing phase_ns.{}",
                p.name()
            ))?;
        }
        let bd = a.get("breakdown_ns").ok_or("missing `breakdown_ns`")?;
        for key in ["compute", "comm", "idle", "io"] {
            bd.get(key).and_then(|x| x.as_f64()).ok_or(format!("missing breakdown_ns.{key}"))?;
        }
    }
    let comp = v.get("compression").ok_or("missing `compression`")?;
    comp.get("dataset").and_then(|x| x.as_str()).ok_or("missing compression.dataset")?;
    comp.get("epochs").and_then(|x| x.as_f64()).ok_or("missing compression.epochs")?;
    let codecs = comp.get("codecs").and_then(|c| c.as_arr()).ok_or("missing compression.codecs")?;
    if codecs.len() != 4 {
        return Err(format!("expected 4 codec rows, got {}", codecs.len()));
    }
    for c in codecs {
        c.get("codec").and_then(|x| x.as_str()).ok_or("missing codec name")?;
        for key in
            ["test_accuracy", "final_loss", "wire_bytes", "logical_bytes", "compression_ratio"]
        {
            c.get(key).and_then(|x| x.as_f64()).ok_or(format!("missing codec {key}"))?;
        }
    }
    Ok(())
}

fn main() {
    let args = parse_args();
    let sockets = 4usize;
    let epochs = args.epochs;
    let ds = Dataset::generate(&ScaledConfig::products_s().scaled_by(args.scale));
    let edges = ds.graph.to_edge_list();
    let partitioning = libra_partition(&edges, sockets);
    let pg = PartitionedGraph::build(&edges, &partitioning, 0xD157);

    header(&format!(
        "BENCH dist: {} ({} vertices, {} edges), {sockets} sockets, {epochs} epochs, \
         {RUNS} runs/config, {WARMUP_EPOCHS} warmup epochs{}",
        ds.name,
        ds.num_vertices(),
        ds.graph.num_edges(),
        if args.smoke { " [smoke]" } else { "" }
    ));

    let modes = [DistMode::Oc, DistMode::Cd0, DistMode::CdR { delay: 5 }];
    let rows: Vec<AlgoRow> = modes.iter().map(|&m| run_algo(&ds, &pg, m, epochs)).collect();

    print_table(
        &["algo", "median off", "median on", "overhead", "params"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    format!("{:.2} ms", r.median_off_ms),
                    format!("{:.2} ms", r.median_on_ms),
                    format!("{:+.2}%", r.overhead_pct),
                    if r.params_identical { "bit-identical" } else { "DIVERGED" }.into(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    println!("\nphase breakdown (cluster-total exclusive ms, recording run):");
    print_table(
        &["algo", "forward", "backward", "aggregate", "comm", "optimizer", "barrier"],
        &rows
            .iter()
            .map(|r| {
                let ms = |p: Phase| millis(Duration::from_nanos(r.phase_ns[p as usize]));
                let comm =
                    r.phase_ns[Phase::CommSend as usize] + r.phase_ns[Phase::CommWait as usize];
                vec![
                    r.name.clone(),
                    ms(Phase::Forward),
                    ms(Phase::Backward),
                    ms(Phase::Aggregate),
                    millis(Duration::from_nanos(comm)),
                    ms(Phase::Optimizer),
                    ms(Phase::Barrier),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let codec_rows = run_codecs(args.smoke);
    println!("\ncompressed comm (cd-0, reddit-s convergence fixture):");
    print_table(
        &["codec", "accuracy", "final loss", "wire MiB", "logical MiB", "ratio"],
        &codec_rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    format!("{:.2}%", r.test_accuracy * 100.0),
                    format!("{:.4}", r.final_loss),
                    format!("{:.1}", r.wire_bytes as f64 / (1 << 20) as f64),
                    format!("{:.1}", r.logical_bytes as f64 / (1 << 20) as f64),
                    format!("{:.2}x", r.ratio()),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let algo_json = rows
        .iter()
        .map(|r| {
            let phases = PHASES
                .iter()
                .map(|&p| format!("\"{}\": {}", p.name(), r.phase_ns[p as usize]))
                .collect::<Vec<_>>()
                .join(", ");
            let (mut compute, mut comm, mut idle, mut io) = (0u64, 0u64, 0u64, 0u64);
            for &p in &PHASES {
                match p.kind() {
                    PhaseKind::Compute => compute += r.phase_ns[p as usize],
                    PhaseKind::Comm => comm += r.phase_ns[p as usize],
                    PhaseKind::Idle => idle += r.phase_ns[p as usize],
                    PhaseKind::Io => io += r.phase_ns[p as usize],
                }
            }
            format!(
                concat!(
                    "    {{\"algo\": \"{name}\", ",
                    "\"median_epoch_ms_recording_off\": {off:.4}, ",
                    "\"median_epoch_ms_recording_on\": {on:.4}, ",
                    "\"telemetry_overhead_pct\": {ovh:.3}, ",
                    "\"params_bit_identical\": {ident}, ",
                    "\"comm_bytes\": {bytes}, \"retries\": {retries}, ",
                    "\"phase_ns\": {{{phases}}}, ",
                    "\"breakdown_ns\": {{\"compute\": {compute}, \"comm\": {comm}, ",
                    "\"idle\": {idle}, \"io\": {io}}}}}"
                ),
                name = r.name,
                off = r.median_off_ms,
                on = r.median_on_ms,
                ovh = r.overhead_pct,
                ident = r.params_identical,
                bytes = r.comm_bytes,
                retries = r.retries,
                phases = phases,
                compute = compute,
                comm = comm,
                idle = idle,
                io = io,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let codec_json = codec_rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "      {{\"codec\": \"{name}\", \"test_accuracy\": {acc:.4}, ",
                    "\"final_loss\": {loss:.4}, \"wire_bytes\": {wire}, ",
                    "\"logical_bytes\": {logical}, \"compression_ratio\": {ratio:.3}}}"
                ),
                name = r.name,
                acc = r.test_accuracy,
                loss = r.final_loss,
                wire = r.wire_bytes,
                logical = r.logical_bytes,
                ratio = r.ratio(),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let (comp_scale, comp_epochs) = if args.smoke { (0.1, 20) } else { (0.25, 200) };

    let json_text = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"distributed phase breakdown + telemetry overhead\",\n",
            "  \"command\": \"cargo run --release -p distgnn-bench --bin bench_dist\",\n",
            "  \"dataset\": {{\"name\": \"{name}\", \"vertices\": {v}, \"edges\": {e}}},\n",
            "  \"sockets\": {sockets},\n",
            "  \"epochs\": {epochs},\n",
            "  \"warmup_epochs\": {warmup},\n",
            "  \"runs_per_config\": {runs},\n",
            "  \"algorithms\": [\n{algos}\n  ],\n",
            "  \"compression\": {{\n",
            "    \"dataset\": \"reddit-s x{cscale}\", \"mode\": \"cd-0\", ",
            "\"epochs\": {cepochs},\n",
            "    \"codecs\": [\n{codecs}\n    ]\n",
            "  }}\n",
            "}}\n"
        ),
        name = ds.name,
        v = ds.num_vertices(),
        e = ds.graph.num_edges(),
        sockets = sockets,
        epochs = epochs,
        warmup = WARMUP_EPOCHS,
        runs = RUNS,
        algos = algo_json,
        cscale = comp_scale,
        cepochs = comp_epochs,
        codecs = codec_json,
    );

    let default_path = if args.smoke {
        std::env::temp_dir().join("BENCH_dist_smoke.json").to_string_lossy().into_owned()
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dist.json").to_string()
    };
    let path = args.out.unwrap_or(default_path);
    std::fs::write(&path, &json_text).expect("write BENCH_dist.json");
    println!("\nwrote {path}");

    let reread = std::fs::read_to_string(&path).expect("re-read emitted JSON");
    validate_schema(&reread, rows.len()).expect("BENCH_dist.json schema");
    println!("schema: ok");

    for r in &rows {
        assert!(r.params_identical, "{}: recording perturbed training", r.name);
    }
    let worst = rows.iter().map(|r| r.overhead_pct).fold(f64::MIN, f64::max);
    // Tiny smoke epochs are ~ms, where a fixed per-epoch recording cost
    // is a large percentage; the tight bound only means something at
    // full size.
    let bound = if args.smoke { 25.0 } else { 2.0 };
    println!("gate: worst telemetry overhead {worst:+.2}% (bound < {bound}%)");
    assert!(worst < bound, "telemetry overhead {worst:+.2}% breaches the {bound}% bound");

    // Compression gates. The uncompressed baseline's counters agree by
    // definition; every lossy codec must actually shrink the wire, and
    // top-k (the headline codec) must hit >= 4x at final accuracy
    // within 0.5% of the uncompressed run. Smoke runs stop far short of
    // the plateau, so only the volume shape is gated there.
    let base = &codec_rows[0];
    assert_eq!(
        base.wire_bytes, base.logical_bytes,
        "uncompressed cd-0 must count wire == logical"
    );
    for r in &codec_rows[1..] {
        assert!(
            r.wire_bytes < r.logical_bytes,
            "{}: wire {} !< logical {}",
            r.name,
            r.wire_bytes,
            r.logical_bytes
        );
    }
    if !args.smoke {
        let topk = codec_rows.iter().find(|r| r.name.starts_with("topk")).expect("topk row");
        let acc_gap = (topk.test_accuracy - base.test_accuracy).abs();
        println!(
            "gate: top-k cd-0 wire volume {:.2}x below logical (bound >= 4x), accuracy \
             {:.2}% vs uncompressed {:.2}% (bound <= 0.5%)",
            topk.ratio(),
            topk.test_accuracy * 100.0,
            base.test_accuracy * 100.0
        );
        assert!(topk.ratio() >= 4.0, "top-k compressed only {:.2}x (< 4x)", topk.ratio());
        assert!(
            acc_gap <= 0.005,
            "top-k final accuracy {:.4} drifted {acc_gap:.4} from uncompressed {:.4}",
            topk.test_accuracy,
            base.test_accuracy
        );
    }
}
