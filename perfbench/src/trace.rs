//! Spans recorded from outside the system, around calls into its public
//! functions, plus the `TrainingBackend` wrapper that puts them on a
//! `ClusterManager` job.
//!
//! Spans are kept in memory and written out once, when the run ends. A
//! span's self time is its duration minus the part of it its children
//! cover.

use std::time::Instant;

use sync_switch::convergence::MomentumScaling;
use sync_switch::core::{AdjustedConfig, BackendChunk, CoreError, TrainingBackend};
use sync_switch::ps::{MetricsSnapshot, Trainer, TransportStats};
use sync_switch::ps_backend::PsBackend;
use sync_switch::sim::SimTime;
use sync_switch::workloads::SyncProtocol;

/// Names of the spans; each is one layer of the ledger.
pub const JOB: &str = "core.job";
pub const CHUNK_BSP: &str = "engine.chunk.bsp";
pub const CHUNK_ASP: &str = "engine.chunk.asp";
pub const SWITCH: &str = "switch";
pub const EVAL: &str = "nn.eval";
pub const FINGERPRINT: &str = "bench.fingerprint";

#[derive(Debug, Clone)]
pub struct Span {
    pub job: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span log with a stack for parent links.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: usize,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_job(&mut self, job: usize) {
        self.job = job;
    }

    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            job: self.job,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans close in stack order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a finished span, measured elsewhere, under the open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            job: self.job,
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of span `id` covered by none of its children.
    pub fn self_s(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (s, e) in children {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        (span.end_ns - span.start_ns - covered) as f64 * 1e-9
    }

    /// The log as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                    s.name,
                    s.job,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3
                )
            })
            .collect();
        format!("{{\"traceEvents\":[{}]}}\n", events.join(",\n"))
    }
}

/// The BSP-phase fingerprint: held-out accuracy and a checksum of the
/// parameters right after the BSP-only prefix. BSP with two workers is
/// deterministic, so both repeat bit for bit for a given seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    pub step: u64,
    pub accuracy: f64,
    pub checksum: u64,
}

/// Fingerprints recorded for the seeds the benchmark was checked on, one
/// per line in the format [`Fingerprint::line`] prints. The program's
/// arithmetic must reproduce them bit for bit.
const RECORDED: &str = include_str!("../fingerprints.txt");

impl Fingerprint {
    /// The line a run prints for this fingerprint, and `fingerprints.txt`
    /// records.
    pub fn line(&self, workload: &str, seed: u64, set: usize, workers: usize) -> String {
        format!(
            "fingerprint {workload} {seed} {set} {workers} {} {} {:#018x}",
            self.step, self.accuracy, self.checksum
        )
    }

    /// The fingerprint recorded in `fingerprints.txt` for this job, if any.
    pub fn recorded(workload: &str, seed: u64, set: usize, workers: usize) -> Option<Self> {
        let key = format!("fingerprint {workload} {seed} {set} {workers} ");
        let rest = RECORDED.lines().find_map(|l| l.strip_prefix(&key))?;
        let parse = || -> Option<Self> {
            let mut f = rest.split_whitespace();
            Some(Fingerprint {
                step: f.next()?.parse().ok()?,
                accuracy: f.next()?.parse().ok()?,
                checksum: u64::from_str_radix(f.next()?.strip_prefix("0x")?, 16).ok()?,
            })
        };
        Some(parse().unwrap_or_else(|| panic!("malformed line in fingerprints.txt: {key}{rest}")))
    }

    pub fn of(step: u64, accuracy: f64, params: &[f32]) -> Self {
        // FNV-1a over the parameters' bit patterns.
        let checksum = params.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, p| {
            (h ^ u64::from(p.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
        });
        Fingerprint {
            step,
            accuracy,
            checksum,
        }
    }
}

/// The counters a traced chunk is measured by, read off a trainer.
pub struct Snapshot {
    metrics: MetricsSnapshot,
    wire: TransportStats,
    sync_rounds: u64,
}

impl Snapshot {
    pub fn of(trainer: &Trainer) -> Self {
        Snapshot {
            metrics: trainer
                .telemetry()
                .map(|t| t.metrics.snapshot())
                .unwrap_or_default(),
            wire: trainer.transport_stats(),
            sync_rounds: trainer.sync_rounds(),
        }
    }
}

/// Per-protocol engine totals, from metrics-registry snapshots taken around
/// each chunk.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineTotals {
    /// Chunk wall time times the workers that ran it.
    pub worker_s: f64,
    pub step_ns: u64,
    pub barrier_ns: u64,
    pub staleness_sum: u64,
    pub staleness_count: u64,
    pub global_steps: u64,
    pub worker_steps: u64,
}

/// What a traced job measured beyond its spans.
#[derive(Debug, Default)]
pub struct JobLayers {
    pub bsp: EngineTotals,
    pub asp: EngineTotals,
    pub wire: TransportStats,
    pub sync_rounds: u64,
}

impl JobLayers {
    /// Accumulates one chunk from the snapshots taken around it.
    pub fn add_chunk(
        &mut self,
        protocol: SyncProtocol,
        wall_s: f64,
        workers: usize,
        global_steps: u64,
        before: &Snapshot,
        after: &Snapshot,
    ) {
        let hist = |name: &str| {
            let b = before.metrics.histograms.get(name);
            let a = after.metrics.histograms.get(name);
            (
                a.map_or(0, |h| h.count) - b.map_or(0, |h| h.count),
                a.map_or(0, |h| h.sum) - b.map_or(0, |h| h.sum),
            )
        };
        let t = match protocol {
            SyncProtocol::Bsp => &mut self.bsp,
            SyncProtocol::Asp => &mut self.asp,
        };
        t.worker_s += wall_s * workers as f64;
        t.step_ns += hist("engine.step_ns").1;
        t.barrier_ns += hist("engine.barrier_wait_ns").1;
        let (count, sum) = hist("engine.staleness");
        t.staleness_count += count;
        t.staleness_sum += sum;
        t.global_steps += global_steps;
        t.worker_steps += match protocol {
            SyncProtocol::Bsp => global_steps * workers as u64,
            SyncProtocol::Asp => global_steps,
        };
        let d = after.wire.delta(&before.wire);
        for (t, d) in [
            (&mut self.wire.push, &d.push),
            (&mut self.wire.pull, &d.pull),
            (&mut self.wire.sync, &d.sync),
        ] {
            t.ops += d.ops;
            t.wire_ns += d.wire_ns;
            t.bytes_out += d.bytes_out;
            t.bytes_in += d.bytes_in;
        }
        self.wire.retries += d.retries;
        self.wire.reconnects += d.reconnects;
        self.sync_rounds += after.sync_rounds - before.sync_rounds;
    }
}

/// Training samples one chunk consumed: a BSP step is one round in which
/// every active worker computes a batch; an ASP step is one worker's batch.
pub fn chunk_samples(protocol: SyncProtocol, steps: u64, workers: usize, batch: usize) -> u64 {
    match protocol {
        SyncProtocol::Bsp => steps * (workers * batch) as u64,
        SyncProtocol::Asp => steps * batch as u64,
    }
}

/// The traced half of a [`Probe`].
pub struct Tracing<'a> {
    pub log: &'a mut SpanLog,
    pub layers: JobLayers,
}

/// A `TrainingBackend` around `PsBackend` that the benchmark hands to
/// `ClusterManager::run`. Untraced, it only counts samples and timestamps
/// evaluations; traced, it also puts a span on every chunk, switch and
/// evaluation and snapshots the telemetry registry around every chunk.
pub struct Probe<'a> {
    pub inner: PsBackend,
    start: Instant,
    /// Time spent taking the fingerprint, which the job's own clock skips.
    excluded_s: f64,
    pub samples: u64,
    /// `(seconds since job start, held-out accuracy)` per evaluation.
    pub evals: Vec<(f64, f64)>,
    pub fingerprint: Option<Fingerprint>,
    /// Global step of every protocol switch.
    pub switch_steps: Vec<u64>,
    pub tracing: Option<Tracing<'a>>,
}

impl<'a> Probe<'a> {
    pub fn new(inner: PsBackend, tracing: Option<Tracing<'a>>) -> Self {
        Probe {
            inner,
            start: Instant::now(),
            excluded_s: 0.0,
            samples: 0,
            evals: Vec::new(),
            fingerprint: None,
            switch_steps: Vec::new(),
            tracing,
        }
    }

    /// Seconds since the job started, not counting fingerprint time.
    pub fn job_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.excluded_s
    }

    fn open(&mut self, name: &'static str) -> Option<usize> {
        self.tracing.as_mut().map(|t| t.log.open(name))
    }

    fn close(&mut self, id: Option<usize>) {
        if let (Some(t), Some(id)) = (self.tracing.as_mut(), id) {
            t.log.close(id);
        }
    }

    fn take_fingerprint(&mut self) {
        let t0 = Instant::now();
        let span = self.open(FINGERPRINT);
        let trainer = self.inner.trainer();
        self.fingerprint = Some(Fingerprint::of(
            trainer.global_step(),
            trainer.evaluate(),
            &trainer.checkpoint().params,
        ));
        self.close(span);
        self.excluded_s += t0.elapsed().as_secs_f64();
    }
}

impl TrainingBackend for Probe<'_> {
    fn step(&self) -> u64 {
        self.inner.step()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn cluster_size(&self) -> usize {
        self.inner.cluster_size()
    }

    fn active_workers(&self) -> usize {
        self.inner.active_workers()
    }

    fn run_chunk(&mut self, cfg: &AdjustedConfig, steps: u64) -> Result<BackendChunk, CoreError> {
        let workers = self.inner.active_workers();
        let name = match cfg.protocol {
            SyncProtocol::Bsp => CHUNK_BSP,
            SyncProtocol::Asp => CHUNK_ASP,
        };
        let before = self
            .tracing
            .as_ref()
            .map(|_| Snapshot::of(self.inner.trainer()));
        let span = self.open(name);
        let t0 = Instant::now();
        let result = self.inner.run_chunk(cfg, steps);
        let wall_s = t0.elapsed().as_secs_f64();
        self.close(span);
        let chunk = result?;
        self.samples += chunk_samples(
            cfg.protocol,
            chunk.steps_done,
            workers,
            cfg.per_worker_batch,
        );
        if let (Some(t), Some(before)) = (self.tracing.as_mut(), before) {
            let after = Snapshot::of(self.inner.trainer());
            t.layers.add_chunk(
                cfg.protocol,
                wall_s,
                workers,
                chunk.steps_done,
                &before,
                &after,
            );
        }
        Ok(chunk)
    }

    fn apply_switch_overhead(&mut self, from: SyncProtocol, to: SyncProtocol) -> SimTime {
        if from == SyncProtocol::Bsp && self.fingerprint.is_none() {
            self.take_fingerprint();
        }
        let span = self.open(SWITCH);
        let dt = self.inner.apply_switch_overhead(from, to);
        self.close(span);
        self.switch_steps.push(self.inner.step());
        dt
    }

    fn apply_momentum_variant(&mut self, variant: MomentumScaling) {
        self.inner.apply_momentum_variant(variant);
    }

    fn eval_accuracy(&mut self) -> f64 {
        let span = self.open(EVAL);
        let acc = self.inner.eval_accuracy();
        self.close(span);
        self.evals.push((self.job_s(), acc));
        acc
    }

    fn training_loss(&self) -> f64 {
        self.inner.training_loss()
    }

    fn is_diverged(&self) -> bool {
        self.inner.is_diverged()
    }

    fn remove_worker(&mut self, worker: usize) -> bool {
        self.inner.remove_worker(worker)
    }

    fn restore_workers(&mut self) {
        self.inner.restore_workers();
    }
}
