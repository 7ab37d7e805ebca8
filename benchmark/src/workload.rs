//! The three workloads and the constants they share.
//!
//! Every workload is one train-then-serve job: set up a dataset, train
//! GraphSAGE on it, bring the trained parameters up in a `ServeEngine`
//! and replay a seeded open-loop request schedule against it. The
//! workloads differ in which layers carry the load, so that an
//! optimisation of one layer has a workload that exercises it and one
//! that bypasses it (see `benchmark/README.md`).

use distgnn_core::DistMode;
use distgnn_graph::ScaledConfig;

/// How a workload trains.
#[derive(Clone, Copy)]
pub enum TrainKind {
    /// `core::Trainer`: one socket, no partitioning, no communication.
    Single,
    /// `DistTrainer` over a Libra vertex cut, blocking epoch loop,
    /// default `DistConfig`; the final parameters are checkpointed and
    /// served through `load_newest_model`.
    Dist { parts: usize, mode: DistMode },
}

pub struct Workload {
    pub name: &'static str,
    pub dataset: fn() -> ScaledConfig,
    pub scale: f64,
    pub trainer: TrainKind,
    /// Epochs per trainer call.
    pub epochs: usize,
    /// Shares of `--seconds` spent on trainer calls and on the open-loop
    /// segments at the low and high offered rates, over all rounds.
    pub train_share: f64,
    pub lo_share: f64,
    pub hi_share: f64,
    /// Lowest acceptable test accuracy. Seeds 1 to 10 gave at least
    /// 0.918 (reddit-1s), 0.9695 (products-2s-cd5) and 0.955
    /// (serve-products).
    pub accuracy_floor: f32,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "reddit-1s",
        dataset: ScaledConfig::reddit_s,
        scale: 1.0,
        trainer: TrainKind::Single,
        epochs: 40,
        train_share: 0.55,
        lo_share: 0.20,
        hi_share: 0.15,
        accuracy_floor: 0.85,
    },
    Workload {
        name: "products-2s-cd5",
        dataset: ScaledConfig::products_s,
        scale: 0.5,
        trainer: TrainKind::Dist { parts: 2, mode: DistMode::CdR { delay: 5 } },
        epochs: 24,
        train_share: 0.55,
        lo_share: 0.20,
        hi_share: 0.15,
        accuracy_floor: 0.90,
    },
    Workload {
        name: "serve-products",
        dataset: ScaledConfig::products_s,
        scale: 1.0,
        trainer: TrainKind::Dist { parts: 2, mode: DistMode::Cd0 },
        epochs: 16,
        train_share: 0.45,
        lo_share: 0.20,
        hi_share: 0.20,
        accuracy_floor: 0.90,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;
/// Rounds of trainer calls and serving segments per pass. Each round
/// also replays its high-rate schedule as a closed loop once;
/// `saturated_qps` is the median over rounds.
pub const ROUNDS: usize = 5;
/// Trainer calls per run at least, whatever the time budget.
pub const MIN_TRAIN_CALLS: usize = 2;
/// Steady epochs per run at least, so that `epoch_ms_p90` has ten
/// samples beyond it.
pub const MIN_EPOCH_SAMPLES: usize = 100;

/// Offered query rates of the two open-loop segments (queries/s). Fixed
/// constants, set far below the saturated rate of every workload.
pub const LO_QPS: f64 = 1_000.0;
pub const HI_QPS: f64 = 4_000.0;
/// Vertices each query asks to classify.
pub const QUERY_VERTICES: usize = 16;
/// Delta batches per second, in both segments.
pub const DELTA_HZ: f64 = 400.0;
/// Edge additions and removals per delta batch (half each).
pub const DELTA_EDGES: usize = 8;
/// Largest batch, in vertices, the serving thread forms from its queue.
pub const MAX_BATCH: usize = 64;
/// Popularity skew of the query stream (`cachesim::RequestStream`).
pub const REQUEST_ALPHA: f64 = 0.99;
/// Seconds of schedule between fresh draws of the popularity ranking.
pub const RANKING_PERIOD_S: f64 = 0.25;
/// Served logits must match a cold rebuild within this (the serve
/// suite's tolerance once removals mix in).
pub const COLD_REBUILD_EPS: f32 = 1e-4;

/// SplitMix64: derives every input seed from `--seed` and a salt.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e3779b97f4a7c15);
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A small deterministic generator for the request and delta schedules.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
