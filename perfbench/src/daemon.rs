//! `daemon-mixed`: an in-process `fbfd` (`fbf_core::serve`, default
//! `DaemonOptions`) driven by two closed-loop `DaemonClient` connections.
//!
//! Each client iteration submits an `engine` repair carrying an inline
//! trace campaign (32 errors, a fresh seed per job, so every job plans
//! cold), polls `status` every 150 us (under a tenth of a job's median
//! time) until the job is done, then issues `read`s against the `sim` jobs
//! set-up retained. Closed loop: like the CLI and `client load`, a caller
//! waits for each reply before sending the next request. Wire, JSON,
//! queueing and cold planning do the work, and reads share the job
//! registry's lock with the repairs.
//!
//! The daemon never prunes finished jobs, so its memory grows with every
//! job. The run is therefore cut into epochs of a fixed number of jobs,
//! each on a fresh daemon, which keeps peak RSS independent of speed.
//! Set-up (start the daemon, open and ping the connections, repair the read
//! targets, synthesise their expected payloads, render the epoch's
//! requests) happens per epoch and `setup_s` is its median. Unit of work: one completed repair job;
//! operation: one job, submit to observed `done`.

use crate::report::Outcome;
use crate::stats::{median, mix, Tally, Timing};
use crate::trace::Recorder;
use crate::{RunCfg, OUT_DIR};
use fbf_cache::CacheStats;
use fbf_codes::encode::encode;
use fbf_codes::{Cell, CodeSpec, Stripe, StripeCode};
use fbf_core::daemon::fnv1a;
use fbf_core::{
    run_planned, serve, DaemonClient, DaemonHandle, DaemonOptions, ExperimentConfig, Json,
    PlanSource, PlannedCampaign, ServerAddr,
};
use fbf_workload::{generate_errors, render_trace, ErrorGenConfig};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Closed-loop client connections, sized for a two-core host.
const CLIENTS: usize = 2;
/// Repair jobs per daemon epoch.
const JOBS_PER_EPOCH: usize = 1024;
const STRIPES: u32 = 4096;
/// Errors per repair job.
const JOB_ERRORS: usize = 32;
/// `sim` repairs set-up retains as read targets (the daemon keeps 8).
const TARGET_JOBS: usize = 2;
const TARGET_ERRORS: usize = 16;
const TARGET_CHUNK_KB: usize = 4;
/// `read`s issued after each repair.
const READS_PER_JOB: usize = 2;
const POLL: Duration = Duration::from_micros(150);
/// A job not done within this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(10);
/// Jobs whose virtual-clock metrics the run reports: the first ones of
/// the run, the same at every seed-fixed rerun.
const VIRTUAL_JOBS: usize = 64;
/// Jobs re-executed in-process after the traced phase.
const EXEC_SAMPLE: usize = 32;

fn job_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig::builder()
        .code(CodeSpec::Tip)
        .p(7)
        .stripes(STRIPES)
        .error_count(JOB_ERRORS)
        .seed(seed)
        .build()
        .expect("daemon job configuration is valid")
}

/// A seed the wire carries exactly: JSON numbers are f64, so 53 bits.
fn wire_seed(run_seed: u64, salt: u64) -> u64 {
    mix(run_seed, salt) >> 11
}

fn job_seed(run_seed: u64, job: usize) -> u64 {
    wire_seed(run_seed, 1_000 + job as u64)
}

fn campaign(code: &StripeCode, stripes: u32, errors: usize, seed: u64) -> fbf_recovery::ErrorGroup {
    generate_errors(code, &ErrorGenConfig::paper_default(stripes, errors, seed))
}

fn repair_request(backend: &str, config: Json, trace: String) -> Json {
    Json::obj([
        ("cmd", Json::Str("repair".into())),
        ("backend", Json::Str(backend.into())),
        ("config", config),
        ("trace", Json::Str(trace)),
    ])
}

fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

/// A chunk a client reads back, with the digest it must have.
#[derive(Debug, Clone)]
struct Target {
    request: Json,
    digest: String,
}

/// One epoch's prepared inputs.
struct Epoch {
    /// `repair` requests, by job index within the epoch.
    requests: Vec<Json>,
    targets: Vec<Target>,
}

/// Per-request samples and counts of a timed phase.
#[derive(Default)]
struct Samples {
    repair_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    status_ms: Vec<f64>,
    read_ms: Vec<f64>,
    polls: u64,
    status_bytes: u64,
    /// (job index, final status metrics) of the run's first jobs.
    virtual_jobs: Vec<(usize, Json)>,
    repairs: Tally,
    reads: Tally,
    problems: Vec<String>,
}

impl Samples {
    fn merge(&mut self, o: Samples) {
        self.repair_ms.extend(o.repair_ms);
        self.submit_ms.extend(o.submit_ms);
        self.status_ms.extend(o.status_ms);
        self.read_ms.extend(o.read_ms);
        self.polls += o.polls;
        self.status_bytes += o.status_bytes;
        self.virtual_jobs.extend(o.virtual_jobs);
        self.repairs.merge(o.repairs);
        self.reads.merge(o.reads);
        self.problems.extend(o.problems);
    }
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn call(client: &mut DaemonClient, req: &Json) -> Result<Json, String> {
    let reply = client.call(req).map_err(|e| e.to_string())?;
    match reply.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(reply),
        _ => Err(reply
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("refused")
            .to_string()),
    }
}

/// Poll `status` until the job leaves the queue; returns the final reply.
fn wait_done(client: &mut DaemonClient, job: u64, s: &mut Samples) -> Result<Json, String> {
    let body = Json::obj([("cmd", Json::Str("status".into())), ("job", num(job))]);
    let t0 = Instant::now();
    loop {
        // Wait out the interval yielding, not sleeping: a sleeping client
        // lets its vCPU halt, and the wake-up latency of a halted vCPU
        // swings with the host's load far more than the daemon's own time.
        let until = Instant::now() + POLL;
        while Instant::now() < until {
            std::thread::yield_now();
        }
        let t = Instant::now();
        let reply = call(client, &body)?;
        s.status_ms.push(ms(t));
        s.polls += 1;
        s.status_bytes += reply.render().len() as u64;
        match reply.get("state").and_then(Json::as_str) {
            Some("done") => return Ok(reply),
            Some("queued" | "running") if t0.elapsed() < JOB_TIMEOUT => {}
            Some("queued" | "running") => return Err(format!("job {job} timed out")),
            other => return Err(format!("job {job} ended {other:?}: {}", reply.render())),
        }
    }
}

/// What one epoch's set-up hands the timed phase.
struct Ready {
    handle: DaemonHandle,
    epoch: Epoch,
    /// The timed phase's connections, already accepted.
    clients: Vec<DaemonClient>,
    setup_s: f64,
    synth_ms: f64,
}

/// Set-up of one epoch: the daemon, its connections, its read targets,
/// and the epoch's requests.
fn setup_epoch(run_seed: u64, first_job: usize, sock: &ServerAddr) -> Result<Ready, String> {
    let t0 = Instant::now();
    let handle = serve(sock, DaemonOptions::default()).map_err(|e| e.to_string())?;
    let serve_s = t0.elapsed().as_secs_f64();
    // The daemon's accept loop polls every 50 ms, so whether a new
    // connection waits for it is a race with the loop's first poll. The
    // pings that wait it out are left out of set-up time, and the timed
    // phase starts with every connection accepted.
    let mut clients = (0..=CLIENTS)
        .map(|_| DaemonClient::connect(handle.addr()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let ping = Json::obj([("cmd", Json::Str("ping".into()))]);
    for c in &mut clients {
        call(c, &ping)?;
    }
    let t1 = Instant::now();
    let mut client = clients.pop().expect("a set-up connection was opened");
    let code = StripeCode::build(CodeSpec::Tip, 7).map_err(|e| e.to_string())?;

    let mut sim_jobs = Vec::new();
    for t in 0..TARGET_JOBS {
        let seed = wire_seed(run_seed, 10 + t as u64);
        let errors = campaign(&code, STRIPES, TARGET_ERRORS, seed);
        let config = Json::obj([
            ("stripes", num(u64::from(STRIPES))),
            ("errors", num(TARGET_ERRORS as u64)),
            ("chunk_kb", num(TARGET_CHUNK_KB as u64)),
            ("seed", num(seed)),
        ]);
        let reply = call(
            &mut client,
            &repair_request("sim", config, render_trace(&errors)),
        )?;
        let job = reply
            .get("job")
            .and_then(Json::as_u64)
            .ok_or("repair reply without job")?;
        sim_jobs.push((job, errors));
    }

    // Expected payloads, synthesised here while the daemon repairs:
    // every lost cell and one surviving cell of each damaged stripe.
    let t = Instant::now();
    let chunk_bytes = TARGET_CHUNK_KB * 1024;
    let mut targets = Vec::new();
    for (job, errors) in &sim_jobs {
        for d in errors.damage_by_stripe() {
            let mut stripe =
                Stripe::patterned_seeded(code.layout(), chunk_bytes, u64::from(d.stripe));
            encode(&code, &mut stripe).map_err(|e| e.to_string())?;
            let intact = code
                .layout()
                .cells()
                .find(|c| !d.cells.contains(c))
                .ok_or("a stripe with every cell lost")?;
            for &cell in d.cells.iter().chain(std::iter::once(&intact)) {
                targets.push(Target {
                    request: read_request(*job, d.stripe, cell),
                    digest: format!("{:016x}", fnv1a(stripe.get(code.layout(), cell))),
                });
            }
        }
    }
    let synth_ms = ms(t);

    let requests = (first_job..first_job + JOBS_PER_EPOCH)
        .map(|k| {
            let seed = job_seed(run_seed, k);
            let errors = campaign(&code, STRIPES, JOB_ERRORS, seed);
            let config = Json::obj([
                ("stripes", num(u64::from(STRIPES))),
                ("errors", num(JOB_ERRORS as u64)),
                ("seed", num(seed)),
            ]);
            repair_request("engine", config, render_trace(&errors))
        })
        .collect();

    let mut scratch = Samples::default();
    for (job, _) in &sim_jobs {
        wait_done(&mut client, *job, &mut scratch)?;
    }
    Ok(Ready {
        handle,
        epoch: Epoch { requests, targets },
        clients,
        setup_s: serve_s + t1.elapsed().as_secs_f64(),
        synth_ms,
    })
}

fn read_request(job: u64, stripe: u32, cell: Cell) -> Json {
    Json::obj([
        ("cmd", Json::Str("read".into())),
        ("job", num(job)),
        ("stripe", num(u64::from(stripe))),
        ("row", num(cell.r() as u64)),
        ("col", num(cell.c() as u64)),
    ])
}

/// One client's closed loop over the epoch's jobs.
fn client_loop(
    mut client: DaemonClient,
    epoch: &Epoch,
    first_job: usize,
    next: &AtomicUsize,
) -> Samples {
    let mut s = Samples::default();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(request) = epoch.requests.get(i) else {
            return s;
        };
        let job = first_job + i;
        let t0 = Instant::now();
        let outcome = call(&mut client, request).and_then(|reply| {
            s.submit_ms.push(ms(t0));
            let id = reply
                .get("job")
                .and_then(Json::as_u64)
                .ok_or("repair reply without job")?;
            wait_done(&mut client, id, &mut s)
        });
        match outcome {
            Ok(done) => {
                s.repair_ms.push(ms(t0));
                s.repairs.record(true);
                if job < VIRTUAL_JOBS {
                    if let Some(m) = done.get("metrics") {
                        s.virtual_jobs.push((job, m.clone()));
                    }
                }
            }
            Err(e) => {
                s.repairs.record(false);
                s.problems.push(format!("job {job}: {e}"));
                if s.problems.len() > 8 {
                    return s;
                }
                continue;
            }
        }
        for r in 0..READS_PER_JOB {
            let target = &epoch.targets[(job * READS_PER_JOB + r) % epoch.targets.len()];
            let t = Instant::now();
            match call(&mut client, &target.request) {
                Ok(reply) => {
                    s.read_ms.push(ms(t));
                    let got = reply.get("fnv1a").and_then(Json::as_str).unwrap_or("");
                    let ok = got == target.digest;
                    s.reads.record(ok);
                    if !ok {
                        s.problems.push(format!(
                            "read {} returned digest {got}, expected {}",
                            target.request.render(),
                            target.digest
                        ));
                    }
                }
                Err(e) => {
                    s.reads.record(false);
                    s.problems
                        .push(format!("read {}: {e}", target.request.render()));
                }
            }
        }
    }
}

struct Phase {
    samples: Samples,
    wall_s: f64,
    setups: Vec<f64>,
    synth_ms: Vec<f64>,
    /// Peak RSS after the first epoch, MiB. Later epochs add allocator
    /// fragmentation in proportion to how many fit in the run, which would
    /// tie the figure to speed.
    first_epoch_rss_mib: f64,
}

fn timed_epochs(cfg: &RunCfg, seconds: f64, out: &mut Outcome) -> Phase {
    let mut phase = Phase {
        samples: Samples::default(),
        wall_s: 0.0,
        setups: Vec::new(),
        synth_ms: Vec::new(),
        first_epoch_rss_mib: 0.0,
    };
    let mut epoch_no = 0usize;
    while phase.wall_s < seconds {
        let sock = ServerAddr::Unix(
            Path::new(OUT_DIR).join(format!("fbfd-{}-{epoch_no}.sock", std::process::id())),
        );
        let first_job = epoch_no * JOBS_PER_EPOCH;
        let Ready {
            handle,
            epoch,
            clients,
            setup_s,
            synth_ms,
        } = match setup_epoch(cfg.seed, first_job, &sock) {
            Ok(ready) => ready,
            Err(e) => {
                out.tally.record(false);
                out.check(false, || format!("epoch {epoch_no} set-up failed: {e}"));
                return phase;
            }
        };
        phase.setups.push(setup_s);
        phase.synth_ms.push(synth_ms);

        let next = AtomicUsize::new(0);
        let merged = Mutex::new(Samples::default());
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for client in clients {
                let (epoch, next, merged) = (&epoch, &next, &merged);
                scope.spawn(move || {
                    let s = client_loop(client, epoch, first_job, next);
                    merged.lock().expect("sample lock poisoned").merge(s);
                });
            }
        });
        phase.wall_s += t0.elapsed().as_secs_f64();
        handle.shutdown();
        if epoch_no == 0 {
            phase.first_epoch_rss_mib = crate::stats::peak_rss_mib();
        }
        phase
            .samples
            .merge(merged.into_inner().expect("sample lock poisoned"));
        epoch_no += 1;
        if !phase.samples.problems.is_empty() {
            break;
        }
    }
    phase
}

fn field(m: &Json, key: &str) -> f64 {
    m.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn virtual_metrics(jobs: &mut [(usize, Json)], out: &mut Outcome) {
    jobs.sort_by_key(|(k, _)| *k);
    out.check(jobs.len() == VIRTUAL_JOBS, || {
        format!(
            "only {} of the first {VIRTUAL_JOBS} jobs reported metrics",
            jobs.len()
        )
    });
    let n = jobs.len().max(1) as f64;
    let sum = |key: &str| jobs.iter().map(|(_, m)| field(m, key)).sum::<f64>();
    out.e2e("hit_ratio", sum("hit_ratio") / n);
    out.e2e("disk_reads", sum("disk_reads"));
    out.e2e("reconstruction_s", sum("reconstruction_s"));
    out.e2e("rebuild_skew", sum("read_balance") / n);
    out.e2e("response_ms", sum("avg_response_ms") / n);
    out.sim(
        "hit_ratio",
        sum("hit_ratio") / n,
        "ratio (mean, first jobs)",
    );
    out.sim("disk_reads", sum("disk_reads"), "reads (sum, first jobs)");
}

/// Plan and simulate a sample of the run's jobs in-process: what a job
/// costs without wire, queue and polling.
fn exec_sample(run_seed: u64, out: &mut Outcome) {
    let code = StripeCode::build(CodeSpec::Tip, 7).expect("TIP(p=7) builds");
    let (mut plan_ms, mut engine_ms, mut exec_ms, mut gen_ms, mut scheme_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut ops, mut cache) = (0usize, CacheStats::default());
    for k in 0..EXEC_SAMPLE {
        let cfg = job_config(job_seed(run_seed, k));
        let t = Instant::now();
        let errors = campaign(&code, STRIPES, JOB_ERRORS, cfg.seed);
        gen_ms.push(ms(t));
        let t = Instant::now();
        let plan = match PlannedCampaign::cold_with_errors(&cfg, errors) {
            Ok(p) => p,
            Err(e) => return out.check(false, || format!("in-process plan failed: {e}")),
        };
        let planned = ms(t);
        let t = Instant::now();
        let m = run_planned(&cfg, &plan, PlanSource::Cold);
        let simulated = ms(t);
        plan_ms.push(planned);
        engine_ms.push(simulated);
        exec_ms.push(planned + simulated);
        scheme_ms.push(plan.generation.as_secs_f64() * 1e3);
        ops += plan.scripts.iter().map(|s| s.ops.len()).sum::<usize>();
        cache.merge(&m.cache);
    }
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    out.layer("workload.generate_ms", med(&gen_ms));
    out.layer("recovery.plan_ms", med(&plan_ms));
    out.layer("recovery.scheme_ms", med(&scheme_ms));
    out.layer("recovery.plans_cold", 1.0);
    out.layer("disksim.engine_ms", med(&engine_ms));
    out.layer("disksim.engine_ops", ops as f64 / EXEC_SAMPLE as f64);
    out.layer(
        "disksim.engine_ns_per_op",
        engine_ms.iter().sum::<f64>() * 1e6 / ops.max(1) as f64,
    );
    out.layer("core.daemon_exec_ms", med(&exec_ms));
    out.cache_layers(&cache);
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let mut phase = timed_epochs(cfg, cfg.seconds, &mut out);
    let s = &mut phase.samples;
    out.tally.merge(s.repairs);
    out.tally.merge(s.reads);
    out.problems.append(&mut s.problems);
    let jobs = s.repairs.attempted - s.repairs.failed;
    let rate = jobs as f64 / phase.wall_s;
    let setup_s = median(&phase.setups).unwrap_or(f64::NAN);
    out.notes.push(format!(
        "{} epochs, {jobs} jobs and {} reads in {:.2} s, {:.2} polls per job",
        phase.setups.len(),
        s.reads.attempted,
        phase.wall_s,
        s.polls as f64 / jobs.max(1) as f64
    ));

    out.host_basics(setup_s, phase.first_epoch_rss_mib, rate);
    out.host("jobs_per_s", rate, "repairs/s");
    let repair = out.op_latency(&s.repair_ms);
    virtual_metrics(&mut s.virtual_jobs, &mut out);
    let read = Timing::of(&s.read_ms);
    for (name, t, q) in [
        ("repair_p50_ms", repair, 0.5),
        ("repair_p99_ms", repair, 0.99),
        ("read_p50_ms", read, 0.5),
        ("read_p99_ms", read, 0.99),
    ] {
        let v = t.and_then(|t| if q == 0.5 { Some(t.p50) } else { t.p99 });
        match v {
            Some(v) => out.host(name, v, "ms"),
            None => out.notes.push(format!("{name}: too few samples")),
        }
    }

    if cfg.trace {
        let rec = Recorder::install();
        let traced = timed_epochs(cfg, cfg.seconds, &mut out);
        match rec.finish(&cfg.trace_path("daemon-mixed")) {
            Ok(spans) => {
                let t = &traced.samples;
                let jobs_traced = (t.repairs.attempted - t.repairs.failed).max(1) as f64;
                let med = |v: &[f64]| median(v).unwrap_or(0.0);
                out.layer("core.daemon_submit_ms", med(&t.submit_ms));
                out.layer("core.daemon_status_ms", med(&t.status_ms));
                out.layer("core.daemon_read_ms", med(&t.read_ms));
                out.layer("core.daemon_polls_per_job", t.polls as f64 / jobs_traced);
                out.layer(
                    "core.daemon_status_bytes",
                    t.status_bytes as f64 / t.polls.max(1) as f64,
                );
                out.layer("codes.synth_ms", med(&traced.synth_ms));
                out.layer("obs.trace_overhead", rate * traced.wall_s / jobs_traced);
                out.layer("obs.spans", spans.0.len() as f64);
                out.notes.push(format!(
                    "daemon-side spans per job: plan/cold {:.3} ms, engine/run {:.3} ms, daemon/repair {:.3} ms",
                    spans.total_ms("plan", "cold") / jobs_traced,
                    spans.total_ms("engine", "run") / jobs_traced,
                    spans.total_ms("daemon", "repair") / jobs_traced
                ));
                out.check(t.problems.is_empty(), || {
                    format!("traced phase: {:?}", t.problems)
                });
            }
            Err(e) => out.check(false, || format!("cannot write the trace: {e}")),
        }
        exec_sample(cfg.seed, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn virtual_of(seed: u64) -> (u64, f64, f64, CacheStats) {
        let cfg = job_config(job_seed(seed, 0));
        let code = StripeCode::build(cfg.code, cfg.p).unwrap();
        let errors = campaign(&code, STRIPES, JOB_ERRORS, cfg.seed);
        let plan = PlannedCampaign::cold_with_errors(&cfg, errors).unwrap();
        let m = run_planned(&cfg, &plan, PlanSource::Cold);
        (m.disk_reads, m.reconstruction_s, m.avg_response_ms, m.cache)
    }

    #[test]
    fn seeds_change_campaigns_and_repeat_virtual_metrics() {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        let draw = |seed| render_trace(&campaign(&code, STRIPES, JOB_ERRORS, job_seed(seed, 0)));
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        assert_ne!(
            job_seed(1, 0),
            job_seed(1, 1),
            "every job gets its own seed"
        );
        assert_eq!(virtual_of(1), virtual_of(1));
        assert_ne!(virtual_of(1), virtual_of(2));
    }

    #[test]
    fn wire_seeds_survive_json() {
        for salt in 0..64 {
            let seed = wire_seed(u64::MAX - salt, salt);
            let back = Json::parse(&num(seed).render()).unwrap().as_u64();
            assert_eq!(back, Some(seed));
        }
    }
}
