//! The four benchmark workloads: what each one trains, on which tier, under
//! which synchronization schedule, and the checks every job must pass.
//!
//! Every input is generated here from the run's seed. The system under test
//! only ever receives the generated model, datasets and configuration.

use std::time::Duration;

use sync_switch::nn::{Dataset, Network};
use sync_switch::ps::{ServerTopology, TransportKind};
use sync_switch::workloads::{ExperimentSetup, LrSchedule};

/// How a workload's jobs are driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Control {
    /// `ClusterManager::run` over `PsBackend`, with the paper policy
    /// (BSP for `bsp_fraction` of the step budget, then ASP).
    Manager { bsp_fraction: f64 },
    /// A `SyncController::run_segment` loop over `Trainer`, starting in BSP,
    /// with `straggler` added to every step of worker 1. Each segment is
    /// [`EVAL_INTERVAL`] steps and ends with an evaluation.
    Controller { straggler: Duration },
}

/// Which generated model and data a workload trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// About 27k parameters: a 144-128-64-10 MLP on noisy 12x12
    /// oriented-grating images.
    DenseMlp,
    /// About 265k parameters, nearly all of them a 16384x16 embedding table,
    /// on Zipf-distributed token sequences.
    SparseEmbedding,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub model: Model,
    pub servers: usize,
    pub transport: TransportKind,
    pub control: Control,
    pub total_steps: u64,
    pub learning_rate: f64,
    /// Held-out accuracy whose first crossing defines `time_to_target_s`;
    /// chosen so jobs cross it late in their budget.
    pub target: f64,
    /// A job that ends below this held-out accuracy has failed.
    pub floor: f64,
}

pub const WORKERS: usize = 2;
/// Per-worker batch of every workload.
pub const BATCH: usize = 32;
pub const MOMENTUM: f64 = 0.9;
/// Steps between held-out evaluations.
pub const EVAL_INTERVAL: u64 = 100;

/// Stage-2 sync period of the multi-server tiers.
const SYNC_EVERY: u64 = 4;

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "dense-inproc",
        model: Model::DenseMlp,
        servers: 1,
        transport: TransportKind::InProcess,
        control: Control::Manager { bsp_fraction: 0.25 },
        total_steps: 2400,
        learning_rate: 0.0004,
        target: 0.85,
        floor: 0.8,
    },
    Spec {
        name: "dense-tcp",
        model: Model::DenseMlp,
        servers: 2,
        transport: TransportKind::Tcp,
        control: Control::Manager { bsp_fraction: 0.25 },
        total_steps: 2400,
        learning_rate: 0.0004,
        target: 0.85,
        floor: 0.8,
    },
    Spec {
        name: "sparse-tcp",
        model: Model::SparseEmbedding,
        servers: 2,
        transport: TransportKind::Tcp,
        control: Control::Manager {
            bsp_fraction: 1.0 / 16.0,
        },
        total_steps: 1600,
        learning_rate: 0.01,
        target: 0.75,
        floor: 0.65,
    },
    Spec {
        name: "straggler-ctl",
        model: Model::DenseMlp,
        servers: 2,
        transport: TransportKind::InProcess,
        control: Control::Controller {
            straggler: Duration::from_micros(1500),
        },
        total_steps: 2400,
        learning_rate: 0.0004,
        target: 0.8,
        floor: 0.75,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// Input sets per run. Each run covers every set at least once, and each
/// end-to-end metric is the median over sets of the median over that set's
/// jobs, so every set weighs the same however many jobs the run fits.
pub const INPUT_SETS: usize = 6;

/// One seeded input set: the initial model and the train/test split, plus
/// the seed the trainer samples batches with.
pub struct Inputs {
    pub seed: u64,
    pub model: Network,
    pub train: Dataset,
    pub test: Dataset,
}

impl Spec {
    /// Input set `set` of the run with seed `run_seed`, generated through
    /// the system's own model and dataset constructors.
    pub fn inputs(&self, run_seed: u64, set: usize) -> Inputs {
        let seed = run_seed
            .wrapping_mul(INPUT_SETS as u64)
            .wrapping_add(set as u64);
        let (model, data) = match self.model {
            Model::DenseMlp => (
                Network::mlp(144, &[128, 64], 10, seed),
                Dataset::synthetic_images(10, 400, 12, 1.0, seed ^ 0x5eed),
            ),
            Model::SparseEmbedding => (
                Network::embedding_classifier(16_384, 16, 32, 4, 8, seed),
                Dataset::zipf_tokens(8, 500, 16_384, 4, 1.1, seed ^ 0x5eed),
            ),
        };
        let (train, test) = data.split(0.2);
        Inputs {
            seed,
            model,
            train,
            test,
        }
    }

    pub fn topology(&self) -> ServerTopology {
        if self.servers == 1 && self.transport == TransportKind::InProcess {
            ServerTopology::single()
        } else {
            ServerTopology::new(self.servers, SYNC_EVERY).with_transport(self.transport)
        }
    }

    /// The experiment setup `ClusterManager::run` reads the step budget and
    /// hyper-parameters from.
    pub fn setup(&self, workers: usize) -> ExperimentSetup {
        let mut setup = ExperimentSetup::one();
        setup.cluster_size = workers;
        let hyper = &mut setup.workload.hyper;
        hyper.total_steps = self.total_steps;
        hyper.batch_size = BATCH;
        hyper.learning_rate = self.learning_rate;
        hyper.momentum = MOMENTUM;
        hyper.lr_schedule = LrSchedule::constant();
        setup
    }

    /// Protocol switches a correct job performs: one BSP→ASP switch. The
    /// controller promotes on barrier wait, so with one worker, where
    /// nothing waits at the barrier, it holds BSP.
    pub fn expected_switches(&self, workers: usize) -> usize {
        match self.control {
            Control::Controller { .. } if workers == 1 => 0,
            _ => 1,
        }
    }
}
