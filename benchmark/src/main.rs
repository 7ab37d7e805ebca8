//! The DistGNN benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <reddit-1s|products-2s-cd5|serve-products> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run is one train-then-serve job (see `workload.rs`). With
//! `--trace 0` it prints the end-to-end metrics of an untraced pass.
//! With `--trace 1` it makes an untraced pass and then a traced one,
//! prints the per-layer ledger of the traced pass and the per-layer
//! metrics. Either way it checks the outputs; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`, and a failed check makes the exit code 1.

mod report;
mod serve;
mod train;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use distgnn_comm::NetworkModel;
use distgnn_kernels::cost;
use distgnn_telemetry::{Phase, PHASE_COUNT};

use report::{mean, median, percentile, Metrics, Stage};
use serve::{OpenLoop, Schedule, ServeSetup};
use train::{Call, Setup, TrainerCfg};
use workload::{mix, Workload, COLD_REBUILD_EPS, HI_QPS, LO_QPS, ROUNDS};

const USAGE: &str =
    "usage: distgnn-benchmark --workload <reddit-1s|products-2s-cd5|serve-products> \
                     [--seed <u64>] [--seconds <f64>] [--trace <0|1>]";

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::by_name(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Named pass/fail checks of the run's outputs.
#[derive(Default)]
struct Checks(Vec<(String, bool)>);

impl Checks {
    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.0.push((name.into(), ok));
    }

    fn failed(&self) -> u64 {
        self.0.iter().filter(|(_, ok)| !ok).count() as u64
    }
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One pass through the job, traced or not.
struct Pass {
    setup: Setup,
    cfg: TrainerCfg,
    /// The measured trainer calls.
    calls: Vec<Call>,
    serve_setup: ServeSetup,
    /// Open-loop samples at the low and the high rate, pooled over the
    /// rounds.
    lo: OpenLoop,
    hi: OpenLoop,
    /// Closed-loop throughput of each round's high-rate schedule.
    saturated_qps: Vec<f64>,
    attempted: u64,
}

/// Set-up, the check call (which also provides the served model), the
/// serving set-up, then `ROUNDS` rounds of trainer calls and serving
/// segments. Interleaving the rounds makes a slow spell of a shared
/// host weigh on training and serving alike.
fn run_pass(args: &Args, traced: bool, dir: &Path, checks: &mut Checks) -> Result<Pass, String> {
    let wl = args.workload;
    let tag = if traced { "traced" } else { "untraced" };
    let failed = |e: distgnn_core::DistError| format!("{tag} training failed: {e}");
    let setup = train::set_up(wl, args.seed);
    let ds = &setup.ds;
    let cfg = TrainerCfg::new(wl, ds);
    let (check, trained) = train::check_call(&setup, &cfg, !traced, dir).map_err(failed)?;
    let serve_setup = serve::set_up(ds, trained.as_ref(), cfg.model(), dir)
        .map_err(|e| format!("{tag} restore failed: {e}"))?;
    checks.check(
        format!("{tag}: served parameters bit-identical to the trainer's final parameters"),
        bits_equal(&serve_setup.model.write_params(), &check.params),
    );
    let model = &serve_setup.model;

    let budget = args.seconds * wl.train_share;
    let (mut calls, mut train_s) = (Vec::new(), 0.0);
    let (mut lo, mut hi) = (OpenLoop::default(), OpenLoop::default());
    let mut saturated_qps = Vec::with_capacity(ROUNDS);
    let (mut gap, mut same_classes, mut served) = (0.0f32, true, 0);
    for round in 0..ROUNDS {
        let last = round + 1 == ROUNDS;
        while train_s < budget * (round + 1) as f64 / ROUNDS as f64
            || (last && !train::enough(&calls))
        {
            let call = train::call(&setup, &cfg, traced).map_err(failed)?;
            train_s += call.wall_ms / 1e3;
            calls.push(call);
        }

        let seed = mix(args.seed, round as u64);
        let secs = args.seconds / ROUNDS as f64;
        let lo_sched = Schedule::new(&ds.graph, LO_QPS, secs * wl.lo_share, mix(seed, 3));
        let (mut eng, rec) = serve::engine(model, ds, traced);
        lo.absorb(&serve::open_loop(&mut eng, &lo_sched, &rec));
        let hi_sched = Schedule::new(&ds.graph, HI_QPS, secs * wl.hi_share, mix(seed, 4));
        let (mut eng, rec) = serve::engine(model, ds, traced);
        let piece = serve::open_loop(&mut eng, &hi_sched, &rec);
        gap = gap.max(serve::cold_rebuild_gap(&mut eng, model));
        let (mut eng, _) = serve::engine(model, ds, traced);
        let (elapsed, classes) = serve::closed_loop(&mut eng, &hi_sched);
        same_classes &= classes == piece.classes;
        saturated_qps.push(hi_sched.queries as f64 / elapsed.as_secs_f64());
        hi.absorb(&piece);
        served += lo_sched.events() + 2 * hi_sched.events();
    }

    let first = &calls[0];
    checks.check(
        format!("{tag}: every trainer call ends with bit-identical parameters"),
        calls.iter().all(|c| bits_equal(&c.params, &first.params)),
    );
    checks.check(
        format!("{tag}: traced and untraced trainer calls end with bit-identical parameters"),
        bits_equal(&check.params, &first.params),
    );
    checks.check(
        format!("{tag}: rank replicas end bit-identical"),
        calls.iter().chain([&check]).all(|c| c.replicas.iter().all(|r| bits_equal(r, &c.params))),
    );
    checks.check(
        format!("{tag}: test accuracy {:.4} >= floor {}", first.accuracy, wl.accuracy_floor),
        first.accuracy >= wl.accuracy_floor,
    );
    checks.check(format!("{tag}: final loss {} is finite", first.loss), first.loss.is_finite());
    checks.check(
        format!("{tag}: served logits match a cold rebuild (max gap {gap:e})"),
        gap <= COLD_REBUILD_EPS,
    );
    checks.check(format!("{tag}: closed-loop replays serve the open-loop classes"), same_classes);

    let epochs: usize = calls.iter().chain([&check]).map(|c| c.epochs).sum();
    Ok(Pass {
        setup,
        cfg,
        calls,
        serve_setup,
        lo,
        hi,
        saturated_qps,
        attempted: (epochs + served) as u64,
    })
}

/// Prints the latency profile of one pass's open-loop segments.
fn print_profile(p: &Pass) {
    println!("\nlatency profile, us (p50 p75 p90 p95 p99 p99.9)");
    let rows = [
        ("query, low rate", &p.lo.query_us),
        ("query, high rate", &p.hi.query_us),
        ("delta visible, high rate", &p.hi.delta_visible_us),
        ("delta apply, high rate", &p.hi.delta_apply_us),
    ];
    for (name, v) in rows {
        let q: Vec<String> = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9]
            .iter()
            .map(|&x| format!("{:.2}", percentile(v, x)))
            .collect();
        println!("  {name:<26} {}  (n={})", q.join(" "), v.len());
    }
    for (name, seg) in [("low", &p.lo), ("high", &p.hi)] {
        let s = &seg.stats;
        println!(
            "  {name} rate: {} vertex lookups in {} batches, hit ratio {:.3}",
            s.queries,
            s.batches,
            s.cache_hits as f64 / (s.cache_hits + s.cache_misses).max(1) as f64
        );
    }
}

fn end_to_end(p: &Pass) -> Metrics {
    let mut m = Metrics::default();
    let calls = &p.calls;
    let setup_s = (median(&p.setup.wall_ms) + median(&p.serve_setup.wall_ms())) / 1e3;
    m.push("setup_s", setup_s, "s", p.setup.wall_ms.len());
    let walls: Vec<f64> = calls.iter().map(|c| c.wall_ms / 1e3).collect();
    m.push("train_s", median(&walls), "s", walls.len());
    let epochs: Vec<f64> = calls.iter().flat_map(|c| c.epoch_ms.iter().copied()).collect();
    m.push("epoch_ms_p50", percentile(&epochs, 50.0), "ms", epochs.len());
    m.push("epoch_ms_p90", percentile(&epochs, 90.0), "ms", epochs.len());
    m.push("test_accuracy", calls[0].accuracy as f64, "fraction", calls.len());
    m.push("final_loss", calls[0].loss as f64, "nats", calls.len());
    // The other serving figures are per-layer metrics: see `serving`.
    let dv = &p.hi.delta_visible_us;
    m.push("delta_visible_us_p50", percentile(dv, 50.0), "us", dv.len());
    m
}

/// Recorder totals over every traced call, per phase, plus the derived
/// per-epoch figures. `None` for an untraced pass.
struct PhaseTotals {
    /// Σ over calls and ranks of steady-epoch phase ns.
    steady: [u64; PHASE_COUNT],
    steady_wall: u64,
    /// Rank-epochs behind `steady`.
    rank_epochs: usize,
    /// Busy ns (everything but waiting) per rank, summed over calls.
    busy: Vec<u64>,
}

impl PhaseTotals {
    fn of(calls: &[Call]) -> Option<PhaseTotals> {
        let mut out = PhaseTotals {
            steady: [0; PHASE_COUNT],
            steady_wall: 0,
            rank_epochs: 0,
            busy: Vec::new(),
        };
        for call in calls {
            let ph = call.phases.as_ref()?;
            out.busy.resize(ph.steady.len(), 0);
            for (r, phases) in ph.steady.iter().enumerate() {
                for (p, &ns) in phases.iter().enumerate() {
                    out.steady[p] += ns;
                    if p != Phase::CommWait as usize && p != Phase::Barrier as usize {
                        out.busy[r] += ns;
                    }
                }
                out.steady_wall += ph.steady_wall[r];
                out.rank_epochs += ph.steady_epochs;
            }
        }
        Some(out)
    }

    /// Mean ms per rank per steady epoch in `phase`.
    fn per_epoch_ms(&self, phase: Phase) -> f64 {
        self.steady[phase as usize] as f64 / 1e6 / self.rank_epochs as f64
    }

    fn unattributed_ms_per_epoch(&self) -> f64 {
        let phases: u64 = self.steady.iter().sum();
        (self.steady_wall as f64 - phases as f64) / 1e6 / self.rank_epochs as f64
    }

    fn rank_skew(&self) -> f64 {
        let max = self.busy.iter().copied().max().unwrap_or(0) as f64;
        max / mean(&self.busy.iter().map(|&b| b as f64).collect::<Vec<_>>())
    }
}

/// `kernels::cost` flops and bytes of the aggregation primitive for one
/// epoch (forward plus backward), summed over ranks.
fn aggregate_model(p: &Pass) -> (u64, u64) {
    let dims = p.cfg.model().layer_dims();
    let mut flops = 0;
    let mut bytes = 0;
    for &m in &p.calls[0].rank_edges {
        for &(in_dim, _) in &dims {
            flops += 2 * cost::aggregate_flops(m, in_dim);
            bytes += 2 * cost::aggregate_bytes(m, in_dim);
        }
    }
    (flops, bytes)
}

/// Communication totals per epoch over the measured calls: bytes sent,
/// messages sent, and the α–β model time per rank in ms.
fn comm_per_epoch(p: &Pass) -> (f64, f64, f64) {
    let calls = &p.calls;
    let epochs: usize = calls.iter().map(|c| c.epochs).sum();
    let ranks = calls[0].comm.len().max(1);
    let bytes: u64 = calls.iter().flat_map(|c| &c.comm).map(|s| s.bytes_sent).sum();
    let msgs: u64 = calls.iter().flat_map(|c| &c.comm).map(|s| s.messages_sent).sum();
    let (bytes, msgs) = (bytes as f64 / epochs as f64, msgs as f64 / epochs as f64);
    let net = NetworkModel::hdr_default();
    let model_s = (msgs * net.latency_s + bytes / net.bandwidth_bps) / ranks as f64;
    (bytes, msgs, model_s * 1e3)
}

/// Median over calls of the `Trainer::evaluate` span (single socket),
/// or of the part of a call outside its epochs (distributed: evaluation
/// plus start-up and teardown, which the outside cannot separate).
fn evaluate_ms(calls: &[Call]) -> f64 {
    let v: Vec<f64> = calls
        .iter()
        .filter_map(|c| {
            let ph = c.phases.as_ref()?;
            Some(if ph.evaluate_ms > 0.0 {
                ph.evaluate_ms
            } else {
                c.wall_ms - mean(&ph.all_wall.iter().map(|&w| w as f64 / 1e6).collect::<Vec<_>>())
            })
        })
        .collect();
    median(&v)
}

/// Query latency, tail latency and the saturated rate. On a shared host
/// these swing with the host's slow spells more than the end-to-end
/// metrics do, so they are reported, not bounded:
/// - preemption stalls of the serving thread (1 to 5 ms, a few per
///   second) reach the slowest 1% of requests, so a p99 swings
///   several-fold from run to run;
/// - in slow spells of the host, serving slowed about twice as much as
///   training; over ten seeds the spread of the query medians reached
///   0.23 of the median, and that of the closed-loop rate 0.25.
fn serving(m: &mut Metrics, p: &Pass) {
    let (lo, hi, dv) = (&p.lo.query_us, &p.hi.query_us, &p.hi.delta_visible_us);
    m.push("serve.query_lo_us_p50", percentile(lo, 50.0), "us", lo.len());
    m.push("serve.query_lo_us_p99", percentile(lo, 99.0), "us", lo.len());
    m.push("serve.query_hi_us_p50", percentile(hi, 50.0), "us", hi.len());
    m.push("serve.query_hi_us_p99", percentile(hi, 99.0), "us", hi.len());
    m.push("serve.delta_visible_us_p99", percentile(dv, 99.0), "us", dv.len());
    let sat = &p.saturated_qps;
    m.push("serve.saturated_qps", median(sat), "1/s", sat.len());
}

fn per_layer(t: &Pass, u: &Pass) -> Metrics {
    let mut m = Metrics::default();
    let calls = &t.calls;
    let ph = PhaseTotals::of(calls).expect("traced pass records phases");
    let or0 = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    m.push("graph.generate_ms", median(&t.setup.generate_ms), "ms", t.setup.generate_ms.len());
    m.push("partition.libra_ms", or0(&t.setup.libra_ms), "ms", t.setup.libra_ms.len());
    m.push("partition.build_ms", or0(&t.setup.build_ms), "ms", t.setup.build_ms.len());
    m.push("partition.replication_factor", t.setup.replication_factor, "ratio", 1);

    let re = ph.rank_epochs;
    let agg_ms = ph.per_epoch_ms(Phase::Aggregate);
    let (flops, bytes) = aggregate_model(t);
    let ranks = calls[0].rank_edges.len() as f64;
    m.push("kernels.aggregate_ms_per_epoch", agg_ms, "ms", re);
    m.push("kernels.gflops", flops as f64 / ranks / (agg_ms * 1e6), "GFLOP/s", re);
    m.push("kernels.model_bytes_per_epoch", bytes as f64, "bytes", 1);
    m.push("nn.forward_ms_per_epoch", ph.per_epoch_ms(Phase::Forward), "ms", re);
    m.push("nn.backward_ms_per_epoch", ph.per_epoch_ms(Phase::Backward), "ms", re);
    m.push("nn.optimizer_ms_per_epoch", ph.per_epoch_ms(Phase::Optimizer), "ms", re);
    m.push("core.unattributed_ms_per_epoch", ph.unattributed_ms_per_epoch(), "ms", re);
    m.push("core.rank_skew", ph.rank_skew(), "ratio", ph.busy.len());
    m.push("core.evaluate_ms", evaluate_ms(calls), "ms", calls.len());

    let (bytes, msgs, model_ms) = comm_per_epoch(t);
    let comm = calls.iter().flat_map(|c| &c.comm);
    let retries: u64 = comm.clone().map(|s| s.retries_attempted).sum();
    let staleness = comm.map(|s| s.max_staleness).max().unwrap_or(0);
    m.push("comm.bytes_per_epoch", bytes, "bytes", calls.len());
    m.push("comm.messages_per_epoch", msgs, "count", calls.len());
    m.push("comm.send_ms_per_epoch", ph.per_epoch_ms(Phase::CommSend), "ms", re);
    m.push("comm.wait_ms_per_epoch", ph.per_epoch_ms(Phase::CommWait), "ms", re);
    m.push("comm.barrier_ms_per_epoch", ph.per_epoch_ms(Phase::Barrier), "ms", re);
    m.push("comm.retries", retries as f64, "count", calls.len());
    m.push("comm.model_ms_per_epoch", model_ms, "ms", calls.len());
    m.push("drpa.max_staleness", staleness as f64, "epochs", calls.len());

    serving(&mut m, t);
    let s = &t.serve_setup;
    m.push("io.restore_ms", or0(&s.restore_ms), "ms", s.restore_ms.len());
    m.push("serve.cache_build_ms", median(&s.build_ms), "ms", s.build_ms.len());
    let hi = &t.hi;
    m.push("serve.batch_us_p50", percentile(&hi.batch_us, 50.0), "us", hi.batch_us.len());
    m.push("serve.batch_us_p99", percentile(&hi.batch_us, 99.0), "us", hi.batch_us.len());
    let sizes: Vec<f64> = hi.batch_sizes.iter().map(|&b| b as f64).collect();
    m.push("serve.batch_size_mean", mean(&sizes), "queries", sizes.len());
    let qw = &hi.queue_wait_us;
    m.push("serve.queue_wait_us_p99", percentile(qw, 99.0), "us", qw.len());
    let (lo_s, hi_s) = (&t.lo.stats, &hi.stats);
    let queries = lo_s.queries + hi_s.queries;
    let hits = lo_s.cache_hits + hi_s.cache_hits;
    let misses = lo_s.cache_misses + hi_s.cache_misses;
    m.push("serve.hit_ratio", hits as f64 / (hits + misses) as f64, "ratio", queries as usize);
    let requests = t.lo.query_us.len() + hi.query_us.len();
    m.push("serve.rows_reaggregated_per_query", misses as f64 / requests as f64, "rows", requests);
    let da = &hi.delta_apply_us;
    m.push("serve.delta_apply_us_p50", percentile(da, 50.0), "us", da.len());
    m.push("serve.delta_apply_us_p99", percentile(da, 99.0), "us", da.len());
    let deltas = da.len() as f64;
    m.push("serve.rows_recomputed_per_delta", hi.rows_recomputed as f64 / deltas, "rows", da.len());
    m.push(
        "serve.rows_invalidated_per_delta",
        hi.rows_invalidated as f64 / deltas,
        "rows",
        da.len(),
    );
    m.push("loadgen.late_us_p99", percentile(&hi.late_us, 99.0), "us", hi.late_us.len());

    // Mean of the traced-to-untraced ratios of the median trainer call
    // and of the closed-loop time per query.
    let train_s = |p: &Pass| median(&p.calls.iter().map(|c| c.wall_ms).collect::<Vec<_>>());
    let ratio =
        (train_s(t) / train_s(u) + median(&u.saturated_qps) / median(&t.saturated_qps)) / 2.0;
    m.push("telemetry.overhead_pct", 100.0 * (ratio - 1.0), "%", 2);
    m
}

/// Prints the traced pass's ledger: per stage, rows that add up to the
/// stage's outside wall time, the unattributed remainder, and the cost
/// models beside the measurements they model.
fn print_ledger(name: &str, t: &Pass) {
    println!("\nledger: {name} (traced pass; rows are layers, remainder unattributed)");
    let s = &t.setup;
    let mut setup = Stage::new("setup, mean repetition", mean(&s.wall_ms)).row(
        "graph.generate",
        mean(&s.generate_ms),
        "span: Dataset::generate",
    );
    if !s.libra_ms.is_empty() {
        setup = setup
            .row("partition.libra", mean(&s.libra_ms), "span: to_edge_list + libra_partition")
            .row("partition.build", mean(&s.build_ms), "span: PartitionedGraph::build");
    }
    setup.print();

    let calls = &t.calls;
    let n = calls.len() as f64;
    let wall = mean(&calls.iter().map(|c| c.wall_ms).collect::<Vec<_>>());
    let mut phase = [0.0f64; PHASE_COUNT];
    let (mut epoch_wall, mut init, mut eval) = (0.0, 0.0, 0.0);
    for c in calls {
        let ph = c.phases.as_ref().expect("traced pass records phases");
        let ranks = ph.all.len() as f64;
        for (r, phases) in ph.all.iter().enumerate() {
            for p in 0..PHASE_COUNT {
                phase[p] += phases[p] as f64 / 1e6 / ranks / n;
            }
            epoch_wall += ph.all_wall[r] as f64 / 1e6 / ranks / n;
        }
        init += ph.init_ms / n;
        eval += ph.evaluate_ms / n;
    }
    let mut train =
        Stage::new(format!("trainer call, mean of {} calls, mean rank", calls.len()), wall);
    if init > 0.0 {
        train = train.row("core.trainer_init", init, "span: Trainer::new");
    }
    for (p, label) in [
        (Phase::Forward, "nn.forward"),
        (Phase::Backward, "nn.backward"),
        (Phase::Aggregate, "kernels.aggregate"),
        (Phase::CommSend, "comm.send"),
        (Phase::CommWait, "comm.wait"),
        (Phase::Barrier, "comm.barrier"),
        (Phase::Optimizer, "nn.optimizer"),
        (Phase::Checkpoint, "io.checkpoint"),
    ] {
        train = train.row(label, phase[p as usize], "recorder phase");
    }
    let phases_ms: f64 = phase.iter().sum();
    train = train.row("core.epoch_unattributed", epoch_wall - phases_ms, "epoch wall minus phases");
    if eval > 0.0 {
        train = train.row("core.evaluate", eval, "span: Trainer::evaluate");
    }
    train.print();

    let ss = &t.serve_setup;
    let mut serve_setup = Stage::new("serving set-up, mean repetition", mean(&ss.wall_ms()));
    if !ss.restore_ms.is_empty() {
        serve_setup =
            serve_setup.row("io.restore", mean(&ss.restore_ms), "span: load_newest_model");
    }
    serve_setup.row("serve.cache_build", mean(&ss.build_ms), "span: ServeEngine::new").print();
    for (label, seg) in [("low", &t.lo), ("high", &t.hi)] {
        Stage::new(format!("open-loop segments at the {label} rate, {ROUNDS} rounds"), seg.wall_ms)
            .row("serve.query", seg.query_phase_ms, "recorder phase")
            .row("serve.delta", seg.delta_phase_ms, "recorder phase")
            .row("loadgen.idle", seg.idle_ms, "span: spin until due")
            .print();
    }

    let ph = PhaseTotals::of(calls).expect("traced pass records phases");
    let agg_ms = ph.per_epoch_ms(Phase::Aggregate);
    let (flops, bytes) = aggregate_model(t);
    let ranks = calls[0].rank_edges.len() as f64;
    println!("  model beside measurement, per epoch and rank");
    println!(
        "    kernels::cost aggregate: {:.3} MFLOP, {:.3} MB; measured Aggregate {agg_ms:.3} ms \
         -> {:.3} GFLOP/s, {:.3} GB/s",
        flops as f64 / ranks / 1e6,
        bytes as f64 / ranks / 1e6,
        flops as f64 / ranks / (agg_ms * 1e6),
        bytes as f64 / ranks / (agg_ms * 1e6),
    );
    let (cbytes, msgs, model_ms) = comm_per_epoch(t);
    println!(
        "    NetworkModel α–β (hdr_default): {model_ms:.4} ms for {:.0} bytes in {:.1} messages; \
         measured send {:.3} ms + wait {:.3} ms + barrier {:.3} ms",
        cbytes / ranks,
        msgs / ranks,
        ph.per_epoch_ms(Phase::CommSend),
        ph.per_epoch_ms(Phase::CommWait),
        ph.per_epoch_ms(Phase::Barrier),
    );
}

/// A scratch directory inside the working directory for checkpoints.
fn work_dir(name: &str) -> Result<PathBuf, String> {
    let dir = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join(".bench_work")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    let dir = match work_dir(wl.name) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} ({} threads available)",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let mut checks = Checks::default();
    let outcome = run_pass(&args, false, &dir.join("untraced"), &mut checks).and_then(|u| {
        print_profile(&u);
        if !args.trace {
            return Ok((end_to_end(&u), u.attempted));
        }
        let t = run_pass(&args, true, &dir.join("traced"), &mut checks)?;
        checks.check(
            "traced and untraced passes end with bit-identical parameters",
            bits_equal(&t.calls[0].params, &u.calls[0].params),
        );
        print_ledger(wl.name, &t);
        Ok((per_layer(&t, &u), u.attempted + t.attempted))
    });
    // Best effort: a leftover checkpoint directory is harmless, and the
    // parent stays while another run still uses it.
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }

    println!("\nchecks");
    for (name, ok) in &checks.0 {
        println!("  {} {name}", if *ok { "ok    " } else { "FAILED" });
    }
    let (metrics, attempted, failed) = match outcome {
        Ok((metrics, attempted)) => {
            let failed = checks.failed() + u64::from(!metrics.all_finite());
            (metrics, attempted, failed)
        }
        Err(e) => {
            println!("  FAILED {e}");
            (Metrics::default(), 1, 1 + checks.failed())
        }
    };
    metrics.print(if args.trace { "per-layer metrics" } else { "end-to-end metrics" });
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
