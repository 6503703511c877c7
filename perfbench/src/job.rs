//! One training job of a workload, from generating its inputs to the final
//! evaluation, with its correctness checks.

use std::time::{Duration, Instant};

use sync_switch::core::{ClusterManager, SyncSwitchPolicy};
use sync_switch::ps::{
    ControllerConfig, ServerStatsSnapshot, SyncController, TraceKind, Trainer, TrainerConfig,
};
use sync_switch::ps_backend::PsBackend;
use sync_switch::workloads::SyncProtocol;

use crate::trace::{
    chunk_samples, Fingerprint, JobLayers, Probe, Snapshot, SpanLog, Tracing, CHUNK_ASP, CHUNK_BSP,
    EVAL, FINGERPRINT, JOB, SWITCH,
};
use crate::workload::{Control, Spec, BATCH, EVAL_INTERVAL, MOMENTUM};

/// How long a TCP tier's servers get to answer the readiness handshake.
const CONNECT_DEADLINE: Duration = Duration::from_secs(5);

/// What one job measured.
#[derive(Debug, Default)]
pub struct JobOutcome {
    /// Which of the run's input sets the job trained on.
    pub input_set: usize,
    pub workers: usize,
    /// Generating the inputs and constructing and connecting the tier,
    /// until the first step can run.
    pub setup_s: f64,
    /// Job start until the final evaluation returned, without fingerprint
    /// time.
    pub wall_s: f64,
    pub samples: u64,
    /// When held-out accuracy first reached the workload's target; `None`
    /// if the job never reached it.
    pub tta_s: Option<f64>,
    pub final_accuracy: f64,
    /// Peak resident set of the process from the end of set-up to the end of
    /// the job, in MiB.
    pub peak_rss_mb: f64,
    /// `(seconds since job start, held-out accuracy)` per evaluation.
    pub evals: Vec<(f64, f64)>,
    pub fingerprint: Option<Fingerprint>,
    /// Global step of the first BSP→ASP switch.
    pub promote_step: u64,
    pub switches: usize,
    /// Switches the sync controller issued (0 on manager workloads).
    pub controller_switches: u64,
    pub failure: Option<String>,
    // Traced jobs only.
    pub job_span: Option<usize>,
    pub layers: JobLayers,
    pub server: Option<ServerStatsSnapshot>,
    pub shard_staleness_max: u64,
}

impl JobOutcome {
    pub fn samples_per_s(&self) -> f64 {
        self.samples as f64 / self.wall_s
    }

    /// Time to target, with a job that never reached it counted at its end.
    pub fn tta_or_end_s(&self) -> f64 {
        self.tta_s.unwrap_or(self.wall_s)
    }

    fn fail(&mut self, why: String) {
        self.failure.get_or_insert(why);
    }

    /// The per-job checks: no error, no divergence, finite parameters, the
    /// scheduled switch count and an accuracy at or above the floor.
    fn check(&mut self, spec: &Spec, workers: usize, finite: bool) {
        let expected = spec.expected_switches(workers);
        if !finite {
            self.fail("non-finite parameters at the end of the job".into());
        }
        if self.switches != expected {
            self.fail(format!(
                "{} protocol switches, schedule has {expected}",
                self.switches
            ));
        }
        if self.final_accuracy.is_nan() || self.final_accuracy < spec.floor {
            self.fail(format!(
                "final accuracy {:.4} below floor {:.2}",
                self.final_accuracy, spec.floor
            ));
        }
        if self.fingerprint.is_none() {
            self.fail("no BSP-phase fingerprint was taken".into());
        }
    }
}

/// Runs one job of `spec` on input set `set` of the run with seed
/// `run_seed`, with `workers` workers. With a span log, the job is traced.
pub fn run(
    spec: &Spec,
    run_seed: u64,
    set: usize,
    workers: usize,
    log: Option<&mut SpanLog>,
) -> JobOutcome {
    let mut out = match spec.control {
        Control::Manager { bsp_fraction } => {
            run_manager(spec, run_seed, set, bsp_fraction, workers, log)
        }
        Control::Controller { straggler } => {
            run_controller(spec, run_seed, set, straggler, workers, log)
        }
    };
    match peak_rss_mb() {
        Ok(mb) => out.peak_rss_mb = mb,
        Err(e) => out.fail(e),
    }
    out.input_set = set;
    out.workers = workers;
    out
}

/// Hands the memory earlier jobs freed back to the system, then resets this
/// process's peak resident set (`VmHWM`) to its current size, so that the
/// next read of it gives the peak of what the process has used since. Without
/// the trim the allocator keeps the earlier jobs' freed memory resident, and
/// from the third job on every job read the same ratcheted peak. It runs
/// after set-up, which still reuses that memory: trimmed first, set-up
/// page-faulted it in afresh and `setup_s` on `sparse-tcp` doubled.
fn reset_peak_rss() -> Result<(), String> {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` only releases free memory of glibc's arenas.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Opens the control-plane connection to every server of a TCP tier and
/// checks each one's identity, so the first step finds the tier ready.
fn connect(trainer: &Trainer) -> Result<(), String> {
    match trainer.net_router() {
        Some(router) => router
            .handshake(CONNECT_DEADLINE)
            .map(drop)
            .map_err(|e| format!("tier not ready: {e}")),
        None => Ok(()),
    }
}

fn run_manager(
    spec: &Spec,
    run_seed: u64,
    set: usize,
    bsp_fraction: f64,
    workers: usize,
    log: Option<&mut SpanLog>,
) -> JobOutcome {
    let t0 = Instant::now();
    let inputs = spec.inputs(run_seed, set);
    let backend = PsBackend::with_topology(
        inputs.model,
        inputs.train,
        inputs.test,
        workers,
        inputs.seed,
        spec.topology(),
    );
    let ready = connect(backend.trainer());
    let mut out = JobOutcome {
        setup_s: t0.elapsed().as_secs_f64(),
        ..JobOutcome::default()
    };
    if let Err(e) = ready.and_then(|()| reset_peak_rss()) {
        out.fail(e);
    }
    let mut policy = SyncSwitchPolicy::new(bsp_fraction, workers);
    policy.eval_interval = EVAL_INTERVAL;
    policy.tta_target = Some(spec.target);
    let setup = spec.setup(workers);

    let tracing = log.map(|log| {
        out.job_span = Some(log.open(JOB));
        Tracing {
            log,
            layers: JobLayers::default(),
        }
    });
    let mut probe = Probe::new(backend, tracing);
    let result = ClusterManager::new(policy).run(&mut probe, &setup);
    out.wall_s = probe.job_s();

    out.samples = probe.samples;
    out.fingerprint = probe.fingerprint;
    out.switches = probe.switch_steps.len();
    out.promote_step = probe.switch_steps.first().copied().unwrap_or(0);
    out.evals = std::mem::take(&mut probe.evals);
    out.final_accuracy = out.evals.last().map_or(0.0, |e| e.1);
    out.tta_s = first_crossing(&out.evals, spec.target);
    if let Some(t) = probe.tracing.take() {
        if let Some(id) = out.job_span {
            t.log.close(id);
        }
        out.layers = t.layers;
        out.server = probe
            .inner
            .trainer()
            .net_router()
            .map(|r| merge_server_stats(r.scrape_all_stats()));
    }
    let finite = probe.inner.trainer().check_finite();

    match result {
        Ok(report) => {
            if let Some(step) = report.diverged_at {
                out.fail(format!("diverged at step {step}"));
            }
        }
        Err(e) => out.fail(format!("job returned an error: {e}")),
    }
    out.check(spec, workers, finite);
    out
}

fn run_controller(
    spec: &Spec,
    run_seed: u64,
    set: usize,
    straggler: Duration,
    workers: usize,
    mut log: Option<&mut SpanLog>,
) -> JobOutcome {
    let t0 = Instant::now();
    let inputs = spec.inputs(run_seed, set);
    let mut cfg = TrainerConfig::new(workers, BATCH, spec.learning_rate, MOMENTUM)
        .with_seed(inputs.seed)
        .with_topology(spec.topology());
    if workers > 1 {
        cfg = cfg.with_straggler(1, straggler);
    }
    let mut trainer = Trainer::new(inputs.model, inputs.train, inputs.test, cfg);
    let ready = connect(&trainer);
    let mut out = JobOutcome {
        setup_s: t0.elapsed().as_secs_f64(),
        ..JobOutcome::default()
    };
    if let Err(e) = ready.and_then(|()| reset_peak_rss()) {
        out.fail(e);
    }
    let mut ctl = SyncController::new(ControllerConfig::default());
    let mut evals: Vec<(f64, f64)> = Vec::new();
    let mut excluded_s = 0.0;
    let mut layers = JobLayers::default();

    out.job_span = log.as_mut().map(|l| l.open(JOB));
    let start = Instant::now();
    let job_s = |excluded_s: f64| start.elapsed().as_secs_f64() - excluded_s;
    let mut evaluate = |trainer: &Trainer, log: &mut Option<&mut SpanLog>, excluded_s: f64| {
        let span = log.as_mut().map(|l| l.open(EVAL));
        let acc = trainer.evaluate();
        if let (Some(l), Some(id)) = (log.as_mut(), span) {
            l.close(id);
        }
        evals.push((job_s(excluded_s), acc));
    };
    evaluate(&trainer, &mut log, excluded_s);

    let mut segment = 0u64;
    while trainer.global_step() < spec.total_steps {
        let steps = EVAL_INTERVAL.min(spec.total_steps - trainer.global_step());
        let protocol = trainer.protocol();
        let before = log.as_ref().map(|_| Snapshot::of(&trainer));
        let name = match protocol {
            SyncProtocol::Bsp => CHUNK_BSP,
            SyncProtocol::Asp => CHUNK_ASP,
        };
        let span = log.as_mut().map(|l| l.open(name));
        let t0 = Instant::now();
        let result = ctl.run_segment(&mut trainer, steps);
        let wall_s = t0.elapsed().as_secs_f64();
        let switched = ctl.decisions().last().is_some_and(|d| d.switched());
        if let (Some(l), Some(id)) = (log.as_mut(), span) {
            if switched {
                record_switch_span(l, &trainer);
            }
            l.close(id);
        }
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("segment {segment} returned an error: {e}"));
                break;
            }
        };
        out.samples += chunk_samples(report.protocol, report.steps, workers, BATCH);
        if let Some(before) = before {
            let after = Snapshot::of(&trainer);
            layers.add_chunk(
                report.protocol,
                wall_s,
                workers,
                report.steps,
                &before,
                &after,
            );
            out.shard_staleness_max = out
                .shard_staleness_max
                .max(report.shard_staleness.max().unwrap_or(0));
        }
        if switched {
            out.switches += 1;
            if out.promote_step == 0 {
                out.promote_step = trainer.global_step();
            }
        }
        // The warm-up segment always runs BSP, whatever the controller
        // decides after it, so its end is the fingerprint point.
        if segment == 0 {
            let t = Instant::now();
            let span = log.as_mut().map(|l| l.open(FINGERPRINT));
            out.fingerprint = Some(Fingerprint::of(
                trainer.global_step(),
                trainer.evaluate(),
                &trainer.checkpoint().params,
            ));
            if let (Some(l), Some(id)) = (log.as_mut(), span) {
                l.close(id);
            }
            excluded_s += t.elapsed().as_secs_f64();
        }
        segment += 1;
        evaluate(&trainer, &mut log, excluded_s);
    }
    out.wall_s = job_s(excluded_s);
    if let (Some(l), Some(id)) = (log, out.job_span) {
        l.close(id);
    }

    out.controller_switches = ctl.decisions().iter().filter(|d| d.switched()).count() as u64;
    out.final_accuracy = evals.last().map_or(0.0, |e| e.1);
    out.tta_s = first_crossing(&evals, spec.target);
    out.evals = evals;
    out.layers = layers;
    if ctl.watchdog_trips() > 0 {
        out.fail(format!(
            "watchdog absorbed {} divergence(s)",
            ctl.watchdog_trips()
        ));
    }
    out.check(spec, workers, trainer.check_finite());
    out
}

/// Records the controller's switch as a span from its `protocol_switch`
/// trace event to now: the switch is the tail of `run_segment`, after the
/// segment's decision.
fn record_switch_span(log: &mut SpanLog, trainer: &Trainer) {
    let Some(bus) = trainer.telemetry() else {
        return;
    };
    let bus_now = bus.trace.now_ns();
    let log_now = log.now_ns();
    let Some(event) = bus
        .trace
        .events()
        .into_iter()
        .rev()
        .find(|e| matches!(e.kind, TraceKind::ProtocolSwitch { .. }))
    else {
        return;
    };
    let start = log_now.saturating_sub(bus_now.saturating_sub(event.start_ns));
    log.record(SWITCH, start, log_now);
}

/// When the accuracy first reached `target`, interpolated linearly between
/// the evaluation below it and the first one at or above it.
fn first_crossing(evals: &[(f64, f64)], target: f64) -> Option<f64> {
    let i = evals.iter().position(|e| e.1 >= target)?;
    let (t1, a1) = evals[i];
    let Some(&(t0, a0)) = i.checked_sub(1).map(|p| &evals[p]) else {
        return Some(t1);
    };
    Some(t0 + (t1 - t0) * (target - a0) / (a1 - a0))
}

/// Sums one stats scrape over the servers that answered.
fn merge_server_stats(scrape: Vec<Option<ServerStatsSnapshot>>) -> ServerStatsSnapshot {
    let mut it = scrape.into_iter().flatten();
    let mut total = it.next().unwrap_or_default();
    for s in it {
        total.merge(&s);
    }
    total
}
