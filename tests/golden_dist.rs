//! Golden fixture for the distributed epoch loop.
//!
//! Pins the exact trajectory of `DistTrainer` on am_s ×0.2 at k = 3:
//! per-epoch loss bits and a hash of every rank's final parameters for
//! `0c`, `cd-0` and `cd-2`, fault-free and under one seeded drop+delay
//! [`FaultPlan`], plus a hash of each rank file of a committed cluster
//! checkpoint. Any refactor of the epoch loop, the DRPA syncs, the
//! collectives or the checkpoint writer must leave these bits alone.
//!
//! cd-0 cannot survive a dropped AlltoAllv payload (its collectives
//! deliver or abort), so under the fault plan its golden outcome is the
//! typed abort: the same rank, epoch and root cause every run.
//!
//! On a mismatch the assertion prints the observed values in the
//! fixture's own syntax.

use distgnn_suite::comm::{CommError, FaultPlan};
use distgnn_suite::core::dist::{DistConfig, DistError, DistMode, DistTrainer};
use distgnn_suite::graph::{Dataset, ScaledConfig};
use distgnn_suite::io::list_checkpoints;
use std::path::PathBuf;

const RANKS: usize = 3;
const EPOCHS: usize = 8;

fn dataset() -> Dataset {
    Dataset::generate(&ScaledConfig::am_s().scaled_by(0.2))
}

/// The one seeded chaos scenario: 1% of clone-sync messages dropped,
/// 30% delayed by two barriers, on every link.
fn fault_plan() -> FaultPlan {
    FaultPlan::none().with_seed(23).with_drop(0.01).with_delay(0.3, 2)
}

fn config(ds: &Dataset, mode: DistMode, faulted: bool) -> DistConfig {
    let mut c = DistConfig::new(ds, mode, RANKS, EPOCHS);
    if faulted {
        c.faults = fault_plan();
    }
    c
}

/// FNV-1a, 64-bit: stable across platforms and toolchains.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn params_hash(params: &[Vec<f32>]) -> u64 {
    fnv1a(params.iter().flatten().flat_map(|x| x.to_bits().to_le_bytes()))
}

/// What one run must reproduce.
#[derive(Debug, PartialEq)]
enum Outcome {
    Trained { loss_bits: Vec<u32>, params_hash: u64 },
    Aborted { rank: usize, epoch: usize, source: CommError },
}

fn outcome(ds: &Dataset, cfg: &DistConfig) -> Outcome {
    match DistTrainer::try_run(ds, cfg) {
        Ok(run) => Outcome::Trained {
            loss_bits: run.epochs.iter().map(|e| e.loss.to_bits()).collect(),
            params_hash: params_hash(&run.final_params),
        },
        Err(DistError { rank, epoch, source }) => Outcome::Aborted { rank, epoch, source },
    }
}

fn trained(loss_bits: [u32; EPOCHS], params_hash: u64) -> Outcome {
    Outcome::Trained { loss_bits: loss_bits.to_vec(), params_hash }
}

fn check(mode: DistMode, faulted: bool, golden: Outcome) {
    let ds = dataset();
    let got = outcome(&ds, &config(&ds, mode, faulted));
    assert!(
        got == golden,
        "{} (faulted: {faulted}) left its golden trajectory\n  golden: {golden:?}\n  got:    {got:?}\n  \
         as fixture: {}",
        mode.name(),
        as_fixture(&got)
    );
}

fn as_fixture(o: &Outcome) -> String {
    match o {
        Outcome::Trained { loss_bits, params_hash } => {
            let bits: Vec<String> = loss_bits.iter().map(|b| format!("{b:#010x}")).collect();
            format!("trained([{}], {params_hash:#018x})", bits.join(", "))
        }
        other => format!("{other:?}"),
    }
}

#[test]
fn golden_0c_fault_free() {
    check(
        DistMode::Oc,
        false,
        trained(
            [
                0x4019f942, 0x40103330, 0x400739d5, 0x3ffb3376, 0x3fe67174, 0x3fd087e9, 0x3fb9e509,
                0x3fa31d95,
            ],
            0x80b3d432ee810971,
        ),
    );
}

#[test]
fn golden_cd0_fault_free() {
    check(
        DistMode::Cd0,
        false,
        trained(
            [
                0x4019c155, 0x401094ee, 0x40083312, 0x3ffe6419, 0x3feabaca, 0x3fd58f3b, 0x3fbf56fe,
                0x3fa88c2f,
            ],
            0xe06a89c55641c8d0,
        ),
    );
}

#[test]
fn golden_cd2_fault_free() {
    check(
        DistMode::CdR { delay: 2 },
        false,
        trained(
            [
                0x401970d1, 0x40146ec0, 0x400ed648, 0x4007f601, 0x4000aded, 0x3feff626, 0x3fdd5e1c,
                0x3fc88ca2,
            ],
            0x886aa4bf9d11b544,
        ),
    );
}

#[test]
fn golden_0c_under_faults() {
    // 0c ships no clone-sync traffic, and the gradient AllReduce is
    // reliable by the fault model: the plan leaves 0c untouched.
    check(
        DistMode::Oc,
        true,
        trained(
            [
                0x4019f942, 0x40103330, 0x400739d5, 0x3ffb3376, 0x3fe67174, 0x3fd087e9, 0x3fb9e509,
                0x3fa31d95,
            ],
            0x80b3d432ee810971,
        ),
    );
}

#[test]
fn golden_cd0_under_faults() {
    check(
        DistMode::Cd0,
        true,
        Outcome::Aborted {
            rank: 2,
            epoch: 1,
            source: CommError::MissingPayload { src: 1, dst: 2 },
        },
    );
}

#[test]
fn golden_cd2_under_faults() {
    // Two dropped and 93 delayed partials (one past the staleness bound)
    // bend the trajectory from epoch 5 on.
    check(
        DistMode::CdR { delay: 2 },
        true,
        trained(
            [
                0x401970d1, 0x40146ec0, 0x400ed648, 0x4007f601, 0x4000aded, 0x3fefb340, 0x3fdcdc78,
                0x3fc8adcc,
            ],
            0x82eebeb8a957c8eb,
        ),
    );
}

/// cd-2 under the fault plan with a checkpoint every 4 epochs: the
/// committed rank files (params, Adam moments, DRPA route caches, the
/// in-flight outbox with its remaining delays) hash to fixed values.
#[test]
fn golden_checkpoint_rank_files() {
    let ds = dataset();
    let dir: PathBuf =
        std::env::temp_dir().join(format!("distgnn-golden-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = config(&ds, DistMode::CdR { delay: 2 }, true);
    cfg.checkpoint_every = 4;
    cfg.checkpoint_dir = Some(dir.clone());
    DistTrainer::try_run(&ds, &cfg).expect("cd-2 rides out the fault plan");

    let committed = list_checkpoints(&dir);
    let epochs: Vec<u64> = committed.iter().map(|(e, _)| *e).collect();
    assert_eq!(epochs, [4, 8], "a checkpoint every 4 of 8 epochs");
    let hashes: Vec<[u64; RANKS]> = committed
        .iter()
        .map(|(_, path)| {
            std::array::from_fn(|r| {
                fnv1a(std::fs::read(path.join(format!("rank-{r}.state"))).expect("rank file"))
            })
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    let golden: [[u64; RANKS]; 2] = [
        [0x796791ee6b39a274, 0xd41187155c640b95, 0x8dc091460e705042],
        [0x05994347b16c9bc1, 0x213be77421e4fb61, 0xa9c7ebe4184dadd8],
    ];
    assert_eq!(hashes, golden, "rank-file hashes drifted: {hashes:#018x?}");
}
