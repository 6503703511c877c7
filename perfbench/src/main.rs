//! The repository benchmark: whole Sync-Switch training jobs on the real
//! parameter-server tier, driven through the system's public entry points.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense-inproc --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` runs jobs back to back for `--seconds` with tracing off and
//! reports the end-to-end metrics; `--trace 1` runs the layer
//! microbenchmarks, then traced jobs alternating with untraced ones (and two
//! 1-worker reference jobs), and reports the per-layer metrics. Either way the
//! last line of standard output is one JSON object, and the exit code is
//! non-zero if any job failed a check. See `README.md` for the workloads
//! and for what each metric measures.

mod job;
mod layers;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use job::JobOutcome;
use trace::{Fingerprint, SpanLog, CHUNK_ASP, CHUNK_BSP, EVAL, FINGERPRINT, SWITCH};
use workload::{Spec, INPUT_SETS, SPECS, WORKERS};

/// Traced jobs' spans must reconcile to the job's wall time within this
/// share of it: the self times of all spans sum to the job span, and the
/// job span minus fingerprint time equals the job's own clock.
const RECONCILE_TOLERANCE: f64 = 0.01;

/// Rounds of jobs a traced run makes even when `--seconds` is shorter. An
/// untraced run always covers every input set.
const MIN_TRACED_ROUNDS: usize = 3;

/// 1-worker reference jobs of a traced run, for `engine.scaling_eff`.
const REFERENCE_JOBS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = std::env::args().skip(1);
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("missing --seconds")?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples the value was computed from.
    n: usize,
}

/// A run's result: its metrics plus the job and check counts.
struct RunResult {
    workload: &'static str,
    seed: u64,
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    /// The first BSP-phase fingerprint seen per input set and worker count.
    fingerprints: BTreeMap<(usize, usize), Fingerprint>,
    /// Check failures that are not any single job's (reconciliation,
    /// non-finite metrics).
    errors: Vec<String>,
}

impl RunResult {
    fn new(workload: &'static str, seed: u64) -> Self {
        RunResult {
            workload,
            seed,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            fingerprints: BTreeMap::new(),
            errors: Vec::new(),
        }
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            n,
        });
    }

    /// Counts the jobs and their failures. Every job must also repeat
    /// exactly the BSP-phase fingerprint of the run's first job with the
    /// same input set and worker count, and the one `fingerprints.txt`
    /// records for it, if it records one.
    fn count_jobs(&mut self, jobs: &mut [JobOutcome]) {
        for j in jobs.iter_mut() {
            let Some(fp) = j.fingerprint else { continue };
            let first = *self
                .fingerprints
                .entry((j.input_set, j.workers))
                .or_insert(fp);
            let recorded = Fingerprint::recorded(self.workload, self.seed, j.input_set, j.workers);
            if fp != first {
                j.failure.get_or_insert(format!(
                    "BSP-phase fingerprint {fp:?} differs from {first:?}, the first on input set {}",
                    j.input_set
                ));
            } else if let Some(recorded) = recorded.filter(|r| *r != fp) {
                j.failure.get_or_insert(format!(
                    "BSP-phase fingerprint {fp:?} differs from {recorded:?}, recorded in \
                     fingerprints.txt for input set {}",
                    j.input_set
                ));
            }
        }
        for j in jobs.iter() {
            self.attempted += 1;
            if let Some(why) = &j.failure {
                self.failed += 1;
                eprintln!("job failed: {why}");
            }
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_of(jobs: &[JobOutcome], f: impl Fn(&JobOutcome) -> f64) -> f64 {
    median(jobs.iter().map(f).collect())
}

/// The median over input sets of the median over each set's jobs, so every
/// set weighs the same however many jobs ran on it.
fn median_by_set(jobs: &[JobOutcome], f: impl Fn(&JobOutcome) -> f64) -> f64 {
    let mut by_set: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for j in jobs {
        by_set.entry(j.input_set).or_default().push(f(j));
    }
    median(by_set.into_values().map(median).collect())
}

/// Ratio that reads 0 when nothing was measured.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Puts every thread's allocations in glibc's main arena. With the default
/// of one arena per thread up to eight per core, which arena a freshly
/// spawned engine worker lands in, and so how much freed memory stays
/// resident, follows thread timing: on `sparse-tcp` the peak resident set
/// of one seed ranged over 51–56 MB from run to run, and with one arena over
/// 41.5–41.9 MB, at the same throughput.
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets an allocator parameter, and this runs at
    // the start of `main`, before the process starts any thread.
    if unsafe { mallopt(M_ARENA_MAX, 1) } != 1 {
        eprintln!("warning: mallopt(M_ARENA_MAX, 1) failed; peak_rss_mb will be noisier");
    }
}

fn log_job(label: &str, j: &JobOutcome) {
    eprintln!(
        "{label}: setup {:.4}s wall {:.3}s {:.0} samples/s tta {} final acc {:.4} switch@{} \
         peak rss {:.2} MB fp {:?}",
        j.setup_s,
        j.wall_s,
        j.samples_per_s(),
        j.tta_s.map_or("-".into(), |t| format!("{t:.3}s")),
        j.final_accuracy,
        j.promote_step,
        j.peak_rss_mb,
        j.fingerprint.map(|f| f.checksum),
    );
    let curve: Vec<String> = j.evals.iter().map(|e| format!("{:.2}", e.1)).collect();
    eprintln!("  accuracy by evaluation: {}", curve.join(" "));
}

/// Calls `round` with 0, 1, 2, ... until `seconds` have passed since
/// `start`, at least `min_rounds` times, starting no round that would likely
/// end past that deadline.
fn run_rounds(start: Instant, seconds: f64, min_rounds: usize, mut round: impl FnMut(usize)) {
    let mut took = Vec::new();
    loop {
        let t = Instant::now();
        round(took.len());
        took.push(t.elapsed().as_secs_f64());
        let next = median(took.clone());
        if took.len() >= min_rounds && start.elapsed().as_secs_f64() + next > seconds {
            return;
        }
    }
}

/// The first job of a process pays for cold caches, page faults and
/// allocator growth, so it is not measured. It is still checked, and as it
/// runs the first input set, the run's first measured job repeats its
/// fingerprint.
fn warm_up(spec: &Spec, seed: u64, r: &mut RunResult) {
    let mut j = job::run(spec, seed, 0, WORKERS, None);
    log_job("warm-up", &j);
    r.count_jobs(std::slice::from_mut(&mut j));
}

fn untraced_run(spec: &Spec, seed: u64, seconds: f64) -> RunResult {
    let start = Instant::now();
    let mut r = RunResult::new(spec.name, seed);
    warm_up(spec, seed, &mut r);
    let mut jobs = Vec::new();
    run_rounds(start, seconds, INPUT_SETS, |i| {
        let j = job::run(spec, seed, i % INPUT_SETS, WORKERS, None);
        log_job(&format!("job {i}"), &j);
        jobs.push(j);
    });
    r.count_jobs(&mut jobs);
    let n = jobs.len();
    let crossed = jobs.iter().filter(|j| j.tta_s.is_some()).count();
    println!(
        "{crossed} of {n} jobs reached the target accuracy {}",
        spec.target
    );
    r.push(
        "samples_per_s",
        median_by_set(&jobs, JobOutcome::samples_per_s),
        "1/s",
        n,
    );
    r.push(
        "time_to_target_s",
        median_by_set(&jobs, JobOutcome::tta_or_end_s),
        "s",
        n,
    );
    r.push(
        "final_accuracy",
        median_by_set(&jobs, |j| j.final_accuracy),
        "ratio",
        n,
    );
    r.push("setup_s", median_by_set(&jobs, |j| j.setup_s), "s", n);
    // A job's peak falls on one of a few levels, about 1.3 MB apart, as
    // thread timing decides; a median would flip between them from run to
    // run, so this one metric is the mean over jobs.
    let mean_peak = jobs.iter().map(|j| j.peak_rss_mb).sum::<f64>() / n as f64;
    r.push("peak_rss_mb", mean_peak, "MB", n);
    println!(
        "job_fail_frac {} ({} of {} jobs failed)",
        r.failed as f64 / r.attempted as f64,
        r.failed,
        r.attempted
    );
    r
}

/// Checks that each traced job's spans reconcile to its wall time: the self
/// times of all its spans sum to the job span, and the job span minus
/// fingerprint time equals the job's own clock.
fn reconcile(log: &SpanLog, traced: &[JobOutcome]) -> Vec<String> {
    let mut errors = Vec::new();
    for (i, j) in traced.iter().enumerate() {
        let id = j.job_span.expect("traced jobs have a job span");
        let job_span_s = log.spans()[id].dur_s();
        let mut total_self = 0.0;
        let mut fingerprint_s = 0.0;
        for (sid, s) in log.spans().iter().enumerate().filter(|(_, s)| s.job == i) {
            total_self += log.self_s(sid);
            if s.name == FINGERPRINT {
                fingerprint_s += s.dur_s();
            }
        }
        let own_clock = j.wall_s + fingerprint_s;
        for (what, got) in [("sum of self times", total_self), ("job clock", own_clock)] {
            if (got - job_span_s).abs() > RECONCILE_TOLERANCE * job_span_s {
                errors.push(format!(
                    "traced job {i}: {what} {got:.6}s does not reconcile to the job span \
                     {job_span_s:.6}s"
                ));
            }
        }
    }
    errors
}

fn traced_run(spec: &Spec, seed: u64, seconds: f64) -> RunResult {
    let start = Instant::now();
    let mut r = RunResult::new(spec.name, seed);
    warm_up(spec, seed, &mut r);
    let micro = layers::measure(&spec.inputs(seed, 0));

    let mut log = SpanLog::new();
    let mut traced: Vec<JobOutcome> = Vec::new();
    let mut plain: Vec<JobOutcome> = Vec::new();
    let mut reference: Vec<JobOutcome> = Vec::new();
    // Traced and untraced jobs alternate, so both see the same machine.
    run_rounds(start, seconds, MIN_TRACED_ROUNDS, |i| {
        let set = i % INPUT_SETS;
        let p = job::run(spec, seed, set, WORKERS, None);
        log_job(&format!("untraced {i}"), &p);
        log.set_job(i);
        let t = job::run(spec, seed, set, WORKERS, Some(&mut log));
        log_job(&format!("traced {i}"), &t);
        plain.push(p);
        traced.push(t);
        if i < REFERENCE_JOBS {
            let one = job::run(spec, seed, set, 1, None);
            log_job(&format!("1-worker reference {i}"), &one);
            reference.push(one);
        }
    });

    r.count_jobs(&mut plain);
    r.count_jobs(&mut traced);
    r.count_jobs(&mut reference);
    let n = traced.len();

    let spans = log.spans();
    let self_by = |job: usize, name: &str| -> f64 {
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.job == job && s.name == name)
            .map(|(id, _)| log.self_s(id))
            .sum()
    };
    let count_by = |job: usize, name: &str| {
        spans
            .iter()
            .filter(|s| s.job == job && s.name == name)
            .count() as f64
    };
    r.errors.extend(reconcile(&log, &traced));
    println!("spans of traced job 0, self seconds by layer:");
    for name in [trace::JOB, CHUNK_BSP, CHUNK_ASP, SWITCH, EVAL, FINGERPRINT] {
        println!("  {name:<20} {:.6}", self_by(0, name));
    }

    let per_job = |f: &dyn Fn(usize, &JobOutcome) -> f64| {
        median(traced.iter().enumerate().map(|(i, j)| f(i, j)).collect())
    };
    let sum = |f: &dyn Fn(&JobOutcome) -> f64| traced.iter().map(f).sum::<f64>();
    let worker_steps = sum(&|j| (j.layers.bsp.worker_steps + j.layers.asp.worker_steps) as f64);
    let global_steps = sum(&|j| (j.layers.bsp.global_steps + j.layers.asp.global_steps) as f64);
    let worker_s = sum(&|j| j.layers.bsp.worker_s + j.layers.asp.worker_s);
    let wire = |f: &dyn Fn(&sync_switch::ps::TransportStats) -> f64| sum(&|j| f(&j.layers.wire));
    let wire_ops = wire(&|w| w.total_ops() as f64);
    let server = |f: &dyn Fn(&sync_switch::ps::ServerStatsSnapshot) -> f64| {
        sum(&|j| j.server.as_ref().map_or(0.0, f))
    };
    let traced_sps = median_of(&traced, JobOutcome::samples_per_s);
    let plain_sps = median_of(&plain, JobOutcome::samples_per_s);

    r.push(
        "core.self_s",
        per_job(&|_, j| log.self_s(j.job_span.expect("traced jobs have a job span"))),
        "s",
        n,
    );
    r.push(
        "engine.chunk_s.bsp",
        per_job(&|i, _| self_by(i, CHUNK_BSP)),
        "s",
        n,
    );
    r.push(
        "engine.chunk_s.asp",
        per_job(&|i, _| self_by(i, CHUNK_ASP)),
        "s",
        n,
    );
    r.push(
        "engine.step_busy_s",
        per_job(&|_, j| (j.layers.bsp.step_ns + j.layers.asp.step_ns) as f64 * 1e-9),
        "s",
        n,
    );
    r.push(
        "engine.barrier_wait_s",
        per_job(&|_, j| (j.layers.bsp.barrier_ns + j.layers.asp.barrier_ns) as f64 * 1e-9),
        "s",
        n,
    );
    r.push(
        "engine.barrier_wait_share",
        ratio(
            sum(&|j| j.layers.bsp.barrier_ns as f64 * 1e-9),
            sum(&|j| j.layers.bsp.worker_s),
        ),
        "ratio",
        n,
    );
    r.push(
        "engine.outside_step_s",
        per_job(&|_, j| {
            let l = &j.layers;
            l.bsp.worker_s + l.asp.worker_s
                - (l.bsp.step_ns + l.asp.step_ns + l.bsp.barrier_ns + l.asp.barrier_ns) as f64
                    * 1e-9
        }),
        "s",
        n,
    );
    r.push(
        "engine.staleness_mean",
        ratio(
            sum(&|j| (j.layers.bsp.staleness_sum + j.layers.asp.staleness_sum) as f64),
            sum(&|j| (j.layers.bsp.staleness_count + j.layers.asp.staleness_count) as f64),
        ),
        "count",
        n,
    );
    r.push(
        "engine.scaling_eff",
        plain_sps / median_of(&reference, JobOutcome::samples_per_s),
        "ratio",
        plain.len() + reference.len(),
    );
    r.push(
        "engine.shard_staleness_max",
        traced
            .iter()
            .map(|j| j.shard_staleness_max as f64)
            .fold(0.0, f64::max),
        "count",
        n,
    );
    r.push("nn.loss_and_grad_us", micro.loss_and_grad_us, "us", 1);
    r.push("nn.eval_s", per_job(&|i, _| self_by(i, EVAL)), "s", n);
    r.push("store.pull_us", micro.store_pull_us, "us", 1);
    r.push("store.apply_us", micro.store_apply_us, "us", 1);
    r.push(
        "switch.pause_s",
        per_job(&|i, _| self_by(i, SWITCH)),
        "s",
        n,
    );
    r.push(
        "switch.count",
        per_job(&|i, _| count_by(i, SWITCH)),
        "count",
        n,
    );
    r.push(
        "wire.push_us",
        ratio(
            wire(&|w| w.push.wire_ns as f64 * 1e-3),
            wire(&|w| w.push.ops as f64),
        ),
        "us",
        n,
    );
    r.push(
        "wire.pull_us",
        ratio(
            wire(&|w| w.pull.wire_ns as f64 * 1e-3),
            wire(&|w| w.pull.ops as f64),
        ),
        "us",
        n,
    );
    r.push(
        "wire.sync_us",
        ratio(
            wire(&|w| w.sync.wire_ns as f64 * 1e-3),
            wire(&|w| w.sync.ops as f64),
        ),
        "us",
        n,
    );
    r.push(
        "wire.push_bytes_per_step",
        ratio(wire(&|w| w.push.bytes_out as f64), worker_steps),
        "B/step",
        n,
    );
    r.push(
        "wire.pull_bytes_per_step",
        ratio(wire(&|w| w.pull.bytes_in as f64), worker_steps),
        "B/step",
        n,
    );
    r.push(
        "wire.ops_per_step",
        ratio(wire_ops, worker_steps),
        "1/step",
        n,
    );
    r.push(
        "wire.share",
        ratio(wire(&|w| w.total_wire_s()), worker_s),
        "ratio",
        n,
    );
    r.push(
        "wire.retry_frac",
        ratio(wire(&|w| w.retries as f64), wire_ops),
        "ratio",
        n,
    );
    r.push("wire.encode_push_us", micro.encode_push_us, "us", 1);
    r.push(
        "wire.encode_push_sparse_us",
        micro.encode_push_sparse_us,
        "us",
        1,
    );
    r.push("wire.decode_pulled_us", micro.decode_pulled_us, "us", 1);
    r.push(
        "server.apply_us",
        ratio(
            server(&|s| s.apply_ns.sum as f64 * 1e-3),
            server(&|s| s.apply_ns.count as f64),
        ),
        "us",
        n,
    );
    r.push(
        "server.requests_per_step",
        ratio(server(&|s| s.total_requests() as f64), worker_steps),
        "1/step",
        n,
    );
    r.push(
        "server.bytes_in_per_step",
        ratio(server(&|s| s.bytes_in as f64), worker_steps),
        "B/step",
        n,
    );
    r.push(
        "server.dedup_hits",
        server(&|s| s.dedup_hits as f64),
        "count",
        n,
    );
    r.push(
        "router.sync_rounds_per_step",
        ratio(sum(&|j| j.layers.sync_rounds as f64), global_steps),
        "1/step",
        n,
    );
    r.push(
        "controller.promote_step",
        per_job(&|_, j| j.promote_step as f64),
        "step",
        n,
    );
    r.push(
        "controller.switches",
        per_job(&|_, j| j.controller_switches as f64),
        "count",
        n,
    );
    r.push(
        "trace.overhead_frac",
        1.0 - traced_sps / plain_sps,
        "ratio",
        n,
    );

    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("trace-{}-seed{seed}.json", spec.name));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, log.chrome_json())) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => r
            .errors
            .push(format!("cannot write {}: {e}", path.display())),
    }
    r
}

fn main() -> ExitCode {
    single_malloc_arena();
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        eprintln!("unknown workload {:?}; one of {names:?}", args.workload);
        return ExitCode::from(2);
    };
    eprintln!(
        "workload {} seed {} seconds {} trace {} ({} cores available)",
        spec.name,
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut r = if args.trace {
        traced_run(&spec, args.seed, args.seconds)
    } else {
        untraced_run(&spec, args.seed, args.seconds)
    };
    for ((set, workers), fp) in &r.fingerprints {
        println!("{}", fp.line(spec.name, args.seed, *set, *workers));
    }
    for m in &r.metrics {
        if !m.value.is_finite() {
            r.errors.push(format!("{} is not finite", m.name));
        }
    }
    for e in &r.errors {
        eprintln!("check failed: {e}");
    }
    let correct = r.failed == 0 && r.errors.is_empty();
    for m in &r.metrics {
        println!("{:<28} {:>16.6} {:<7} (n={})", m.name, m.value, m.unit, m.n);
    }
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
