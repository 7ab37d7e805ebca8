//! Set-up and training: dataset generation, the Libra cut, and repeated
//! trainer calls, each timed from outside.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use distgnn_cachesim::CacheConfig;
use distgnn_comm::CommSnapshot;
use distgnn_core::{
    DistConfig, DistError, DistTrainer, GraphSage, SageConfig, Trainer, TrainerConfig,
};
use distgnn_graph::Dataset;
use distgnn_kernels::AggregationConfig;
use distgnn_partition::{libra_partition, metrics::replication_factor, PartitionedGraph};
use distgnn_telemetry::{Recorder, RecorderConfig, TelemetryHub, PHASE_COUNT};

use crate::workload::{mix, TrainKind, Workload, MIN_EPOCH_SAMPLES, MIN_TRAIN_CALLS, SETUP_REPS};

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The generated inputs, plus the timings of every set-up repetition.
pub struct Setup {
    pub ds: Dataset,
    pub pg: Option<PartitionedGraph>,
    pub replication_factor: f64,
    pub generate_ms: Vec<f64>,
    pub libra_ms: Vec<f64>,
    pub build_ms: Vec<f64>,
    pub wall_ms: Vec<f64>,
}

/// Generates the dataset (and, for distributed workloads, partitions
/// it) `SETUP_REPS` times; the inputs depend only on `seed`.
pub fn set_up(wl: &Workload, seed: u64) -> Setup {
    let mut cfg = (wl.dataset)().scaled_by(wl.scale);
    cfg.seed = mix(seed, 1);
    let (mut generate_ms, mut libra_ms, mut build_ms, mut wall_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let ds = Dataset::generate(&cfg);
        generate_ms.push(ms(t0.elapsed()));
        let mut cut = None;
        if let TrainKind::Dist { parts, mode } = wl.trainer {
            let t1 = Instant::now();
            let edges = ds.graph.to_edge_list();
            let partitioning = libra_partition(&edges, parts);
            libra_ms.push(ms(t1.elapsed()));
            let t2 = Instant::now();
            let clone_seed = DistConfig::new(&ds, mode, parts, wl.epochs).seed;
            let pg = PartitionedGraph::build(&edges, &partitioning, clone_seed);
            build_ms.push(ms(t2.elapsed()));
            cut = Some((partitioning, pg));
        }
        wall_ms.push(ms(t0.elapsed()));
        last = Some((ds, cut));
    }
    let (ds, cut) = last.expect("SETUP_REPS is positive");
    Setup {
        ds,
        replication_factor: cut.as_ref().map_or(1.0, |(p, _)| replication_factor(p)),
        pg: cut.map(|(_, pg)| pg),
        generate_ms,
        libra_ms,
        build_ms,
        wall_ms,
    }
}

/// Per-rank recorder totals of one traced trainer call.
pub struct Phases {
    /// Phase ns per rank, summed over the steady epochs (all but the
    /// first, whose wall also holds the call's start-up).
    pub steady: Vec<[u64; PHASE_COUNT]>,
    /// Epoch wall ns per rank, summed over the steady epochs.
    pub steady_wall: Vec<u64>,
    /// The same two sums over every epoch, for the ledger.
    pub all: Vec<[u64; PHASE_COUNT]>,
    pub all_wall: Vec<u64>,
    pub steady_epochs: usize,
    /// Benchmark spans around `Trainer::new` and `Trainer::evaluate`
    /// (single-socket calls only).
    pub init_ms: f64,
    pub evaluate_ms: f64,
}

/// One trainer call, timed from outside.
pub struct Call {
    pub wall_ms: f64,
    /// Wall time of every epoch but the first.
    pub epoch_ms: Vec<f64>,
    pub epochs: usize,
    pub loss: f32,
    pub accuracy: f32,
    pub params: Vec<f32>,
    /// Final parameters of every rank (one entry for single-socket).
    pub replicas: Vec<Vec<f32>>,
    pub comm: Vec<CommSnapshot>,
    /// Edges per rank, for the kernel cost model.
    pub rank_edges: Vec<usize>,
    pub phases: Option<Phases>,
}

/// The model shape and the trainer configuration of a workload.
pub enum TrainerCfg {
    Single(TrainerConfig),
    Dist(Box<DistConfig>),
}

impl TrainerCfg {
    pub fn new(wl: &Workload, ds: &Dataset) -> TrainerCfg {
        match wl.trainer {
            TrainKind::Single => {
                let blocks = AggregationConfig::auto_blocks(
                    ds.num_vertices(),
                    ds.feat_dim(),
                    CacheConfig::llc_scaled().capacity,
                );
                TrainerCfg::Single(TrainerConfig::for_dataset(
                    ds,
                    AggregationConfig::optimized(blocks),
                    wl.epochs,
                ))
            }
            TrainKind::Dist { parts, mode } => {
                TrainerCfg::Dist(Box::new(DistConfig::new(ds, mode, parts, wl.epochs)))
            }
        }
    }

    pub fn model(&self) -> &SageConfig {
        match self {
            TrainerCfg::Single(c) => &c.model,
            TrainerCfg::Dist(c) => &c.model,
        }
    }
}

fn sum_phases(dst: &mut [u64; PHASE_COUNT], src: &[u64; PHASE_COUNT]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// One `core::Trainer` call: construction, `epochs` × `train_epoch`,
/// `evaluate`. Returns the trained model too, which the single-socket
/// workload serves directly.
fn single_call(ds: &Dataset, cfg: &TrainerConfig, traced: bool) -> (Call, GraphSage) {
    let rec = traced.then(|| Arc::new(Recorder::new(RecorderConfig::default())));
    let t0 = Instant::now();
    let mut tr = Trainer::new(ds, cfg);
    if let Some(r) = &rec {
        tr.set_recorder(r.clone());
    }
    let init_ms = ms(t0.elapsed());
    let mut walls = Vec::with_capacity(cfg.epochs);
    let mut loss = f32::NAN;
    for _ in 0..cfg.epochs {
        let t = Instant::now();
        loss = tr.train_epoch().loss;
        walls.push(t.elapsed());
    }
    let te = Instant::now();
    let accuracy = tr.evaluate();
    let evaluate_ms = ms(te.elapsed());
    let wall_ms = ms(t0.elapsed());

    let phases = rec.map(|r| {
        let epochs = r.epochs();
        let mut steady = [0u64; PHASE_COUNT];
        let mut all = [0u64; PHASE_COUNT];
        for (i, e) in epochs.iter().enumerate() {
            sum_phases(&mut all, &e.phase_ns);
            if i > 0 {
                sum_phases(&mut steady, &e.phase_ns);
            }
        }
        let wall_ns = |w: &[Duration]| w.iter().map(|d| d.as_nanos() as u64).sum::<u64>();
        Phases {
            steady: vec![steady],
            steady_wall: vec![wall_ns(&walls[1..])],
            all: vec![all],
            all_wall: vec![wall_ns(&walls)],
            steady_epochs: walls.len() - 1,
            init_ms,
            evaluate_ms,
        }
    });
    let params = tr.model.write_params();
    let call = Call {
        wall_ms,
        epoch_ms: walls[1..].iter().map(|&d| ms(d)).collect(),
        epochs: cfg.epochs,
        loss,
        accuracy,
        replicas: vec![params.clone()],
        params,
        comm: Vec::new(),
        rank_edges: vec![ds.graph.num_edges()],
        phases,
    };
    (call, tr.model)
}

/// One `DistTrainer` call on the prepared partitioning.
fn dist_call(
    ds: &Dataset,
    pg: &PartitionedGraph,
    cfg: &DistConfig,
    traced: bool,
) -> Result<Call, DistError> {
    let hub = traced.then(|| TelemetryHub::new(cfg.num_parts, RecorderConfig::default()));
    let t0 = Instant::now();
    let report = match &hub {
        Some(h) => DistTrainer::try_run_on_with_telemetry(ds, pg, cfg, h)?,
        None => DistTrainer::try_run_on(ds, pg, cfg)?,
    };
    let wall_ms = ms(t0.elapsed());
    let phases = hub.map(|h| {
        let mut p = Phases {
            steady: Vec::new(),
            steady_wall: Vec::new(),
            all: Vec::new(),
            all_wall: Vec::new(),
            steady_epochs: report.epochs.len() - 1,
            init_ms: 0.0,
            evaluate_ms: 0.0,
        };
        for rec in h.recorders() {
            let (mut steady, mut all) = ([0u64; PHASE_COUNT], [0u64; PHASE_COUNT]);
            let (mut steady_wall, mut all_wall) = (0u64, 0u64);
            for (i, e) in rec.epochs().iter().enumerate() {
                sum_phases(&mut all, &e.phase_ns);
                all_wall += e.wall_ns;
                if i > 0 {
                    sum_phases(&mut steady, &e.phase_ns);
                    steady_wall += e.wall_ns;
                }
            }
            p.steady.push(steady);
            p.steady_wall.push(steady_wall);
            p.all.push(all);
            p.all_wall.push(all_wall);
        }
        p
    });
    Ok(Call {
        wall_ms,
        epoch_ms: report.epochs[1..].iter().map(|e| ms(e.epoch_time)).collect(),
        epochs: report.epochs.len(),
        loss: report.epochs.last().map_or(f32::NAN, |e| e.loss),
        accuracy: report.test_accuracy,
        params: report.final_params[0].clone(),
        replicas: report.final_params.clone(),
        comm: report.per_rank_comm.clone(),
        rank_edges: report.partition_edges.clone(),
        phases,
    })
}

/// One measured trainer call.
pub fn call(setup: &Setup, cfg: &TrainerCfg, traced: bool) -> Result<Call, DistError> {
    match cfg {
        TrainerCfg::Single(c) => Ok(single_call(&setup.ds, c, traced).0),
        TrainerCfg::Dist(c) => dist_call(&setup.ds, pg(setup), c, traced),
    }
}

/// The call that checks the measured ones, made with the opposite
/// tracing setting. For distributed workloads it also writes the
/// checkpoint the serving stage restores; the single-socket workload
/// serves its trained model directly.
pub fn check_call(
    setup: &Setup,
    cfg: &TrainerCfg,
    traced: bool,
    ckpt_dir: &Path,
) -> Result<(Call, Option<GraphSage>), DistError> {
    match cfg {
        TrainerCfg::Single(c) => {
            let (call, model) = single_call(&setup.ds, c, traced);
            Ok((call, Some(model)))
        }
        TrainerCfg::Dist(c) => {
            let mut c = DistConfig::clone(c);
            c.checkpoint_every = c.epochs;
            c.checkpoint_dir = Some(ckpt_dir.to_path_buf());
            Ok((dist_call(&setup.ds, pg(setup), &c, traced)?, None))
        }
    }
}

/// Whether `calls` are enough for a run: `MIN_TRAIN_CALLS` calls and
/// `MIN_EPOCH_SAMPLES` steady epochs.
pub fn enough(calls: &[Call]) -> bool {
    calls.len() >= MIN_TRAIN_CALLS
        && calls.iter().map(|c| c.epoch_ms.len()).sum::<usize>() >= MIN_EPOCH_SAMPLES
}

fn pg(setup: &Setup) -> &PartitionedGraph {
    setup.pg.as_ref().expect("distributed workloads partition in set-up")
}
