//! `fig8-sweep`: the paper's Fig. 8-11 grid at paper scale through
//! `sweep_with_store`.
//!
//! The grid is 4 codes x p in {7, 11, 13} x 5 policies x 8 cache sizes
//! (480 points) over 4096 stripes with 512 errors and 128 SOR workers.
//! Points share 12 campaigns, so a fresh `PlanStore` per sweep plans 12
//! times and serves 468 points warm: engine and cache dominate. Cache
//! sizes run from below the working set to above it. Unit of work: one
//! sweep point; operation: one point on a sweep worker (from the previous
//! completion on the same thread to this one).

use crate::report::Outcome;
use crate::stats::{mix, peak_rss_mib, repeat_setup};
use crate::trace::{Recorder, Spans};
use crate::RunCfg;
use fbf_cache::{CacheStats, PolicyKind};
use fbf_codes::{CodeSpec, StripeCode};
use fbf_core::{
    run_planned, sweep_with_progress, ExperimentConfig, Metrics, PlanSource, PlanStore,
    PlannedCampaign, SweepPoint,
};
use fbf_workload::{generate_errors, ErrorGenConfig};
use std::cell::Cell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

const PRIMES: [usize; 3] = [7, 11, 13];
const CACHE_MB: [usize; 8] = [2, 8, 32, 64, 128, 256, 512, 2048];
const STRIPES: u32 = 4096;
const ERRORS: usize = 512;
const WORKERS: usize = 128;
/// Sweep threads, sized for a two-core host.
const THREADS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The virtual-clock outputs of one point: identical across runs of one
/// configuration, whatever the host does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualView {
    hit_ratio: f64,
    disk_reads: u64,
    disk_writes: u64,
    reconstruction_s: f64,
    cache: CacheStats,
    stripes_repaired: usize,
    chunks_recovered: usize,
    read_balance: f64,
    avg_response_ms: f64,
    p99_response_ms: f64,
}

impl VirtualView {
    /// The virtual-clock fields of engine metrics.
    pub fn of(m: &Metrics) -> Self {
        VirtualView {
            hit_ratio: m.hit_ratio,
            disk_reads: m.disk_reads,
            disk_writes: m.disk_writes,
            reconstruction_s: m.reconstruction_s,
            cache: m.cache,
            stripes_repaired: m.stripes_repaired,
            chunks_recovered: m.chunks_recovered,
            read_balance: m.read_balance,
            avg_response_ms: m.avg_response_ms,
            p99_response_ms: m.p99_response_ms,
        }
    }
}

/// What a damaged campaign must repair: (stripes, chunks).
type Expected = BTreeMap<(CodeSpec, usize), (usize, usize)>;

/// The grid. Each (code, p) draws its campaign from its own seed, so the
/// 12 campaigns are independent and their mean varies little with the
/// run seed.
fn grid(seed: u64, obs: bool) -> Vec<ExperimentConfig> {
    let mut out = Vec::new();
    for (i, code) in CodeSpec::ALL.into_iter().enumerate() {
        for (j, p) in PRIMES.into_iter().enumerate() {
            if p < code.min_prime() {
                continue;
            }
            let seed = mix(seed, (i * PRIMES.len() + j) as u64);
            for mb in CACHE_MB {
                for policy in PolicyKind::ALL {
                    out.push(
                        ExperimentConfig::builder()
                            .code(code)
                            .p(p)
                            .policy(policy)
                            .cache_mb(mb)
                            .stripes(STRIPES)
                            .error_count(ERRORS)
                            .workers(WORKERS)
                            .seed(seed)
                            .obs(obs)
                            .build()
                            .expect("the Fig. 8 grid is a valid configuration"),
                    );
                }
            }
        }
    }
    out
}

/// Set-up: the grid, what each campaign must repair (drawn independently
/// of the planner), and an untimed warm-up sweep of one point per campaign
/// so the allocator and the engine's code paths are warm before timing.
fn setup(seed: u64) -> Result<(Vec<ExperimentConfig>, Expected), String> {
    let configs = grid(seed, false);
    let warm: Vec<ExperimentConfig> = configs
        .iter()
        .filter(|c| c.cache_mb == CACHE_MB[0] && c.policy == PolicyKind::Fbf)
        .copied()
        .collect();
    fbf_core::sweep(&warm, THREADS).map_err(|e| format!("warm-up sweep failed: {e}"))?;
    let mut expected = Expected::new();
    for cfg in &configs {
        expected.entry((cfg.code, cfg.p)).or_insert_with(|| {
            let code = StripeCode::build(cfg.code, cfg.p).expect("grid primes are valid");
            let errors = generate_errors(
                &code,
                &ErrorGenConfig::paper_default(cfg.stripes, cfg.error_count, cfg.seed),
            );
            let damage = errors.damage_by_stripe();
            (damage.len(), damage.iter().map(|d| d.cells.len()).sum())
        });
    }
    Ok((configs, expected))
}

/// One timed phase: whole sweeps, each with a fresh store, until
/// `seconds` have passed.
struct Phase {
    /// Per-point latencies, ms.
    samples: Vec<f64>,
    points: usize,
    sweeps: usize,
    wall_s: f64,
    store_hits: u64,
    store_misses: u64,
    first: Vec<SweepPoint>,
}

thread_local! {
    /// (sweep number, completion time of this thread's previous point).
    static LAST: Cell<(usize, Option<Instant>)> = const { Cell::new((0, None)) };
}

fn timed_sweeps(configs: &[ExperimentConfig], seconds: f64, out: &mut Outcome) -> Phase {
    let mut phase = Phase {
        samples: Vec::new(),
        points: 0,
        sweeps: 0,
        wall_s: 0.0,
        store_hits: 0,
        store_misses: 0,
        first: Vec::new(),
    };
    let samples = Mutex::new(Vec::new());
    while phase.wall_s < seconds {
        let store = PlanStore::new();
        let sweep_no = phase.sweeps + 1;
        let t0 = Instant::now();
        let result = sweep_with_progress(configs, THREADS, &store, |_| {
            let now = Instant::now();
            let prev = LAST.with(|c| c.replace((sweep_no, Some(now))));
            let since = match prev {
                (n, Some(t)) if n == sweep_no => t,
                _ => t0,
            };
            let ms = now.duration_since(since).as_secs_f64() * 1e3;
            samples.lock().expect("sample lock poisoned").push(ms);
        });
        phase.wall_s += t0.elapsed().as_secs_f64();
        phase.sweeps += 1;
        let stats = store.stats();
        phase.store_hits += stats.hits;
        phase.store_misses += stats.misses;
        match result {
            Ok(points) => {
                phase.points += points.len();
                for _ in &points {
                    out.tally.record(true);
                }
                if phase.first.is_empty() {
                    phase.first = points;
                } else {
                    let same = points
                        .iter()
                        .zip(&phase.first)
                        .all(|(a, b)| VirtualView::of(&a.metrics) == VirtualView::of(&b.metrics));
                    out.check(same, || format!("sweep {sweep_no} differs from sweep 1"));
                }
            }
            Err(e) => {
                out.tally.record(false);
                out.check(false, || format!("sweep {sweep_no} failed: {e}"));
                break;
            }
        }
    }
    phase.samples = samples.into_inner().expect("sample lock poisoned");
    phase
}

fn check_points(points: &[SweepPoint], expected: &Expected, out: &mut Outcome) {
    for pt in points {
        let m = &pt.metrics;
        let want = expected[&(pt.config.code, pt.config.p)];
        out.check(
            (m.stripes_repaired, m.chunks_recovered) == want
                && m.stripes_lost == 0
                && m.stripes_unresolved == 0,
            || {
                format!(
                    "{}(p={}) {} {} MiB repaired {} stripes / {} chunks, expected {} / {}",
                    pt.config.code.name(),
                    pt.config.p,
                    pt.config.policy.name(),
                    pt.config.cache_mb,
                    m.stripes_repaired,
                    m.chunks_recovered,
                    want.0,
                    want.1
                )
            },
        );
    }
}

fn virtual_metrics(points: &[SweepPoint], out: &mut Outcome) {
    let n = points.len().max(1) as f64;
    let ms = points.iter().map(|p| &p.metrics);
    let hit = ms.clone().map(|m| m.hit_ratio).sum::<f64>() / n;
    let reads = ms.clone().map(|m| m.disk_reads).sum::<u64>() as f64;
    let recon = ms.clone().map(|m| m.reconstruction_s).sum::<f64>();
    let skew = ms.clone().map(|m| m.read_balance).sum::<f64>() / n;
    let response = ms.map(|m| m.avg_response_ms).sum::<f64>() / n;
    out.e2e("hit_ratio", hit);
    out.e2e("disk_reads", reads);
    out.e2e("reconstruction_s", recon);
    out.e2e("rebuild_skew", skew);
    out.e2e("response_ms", response);
    out.sim("hit_ratio", hit, "ratio (mean over points)");
    out.sim("disk_reads", reads, "reads (sum over points)");
    out.sim("reconstruction_s", recon, "s (sum over points)");
}

/// Serial replay of one grid with a span around every call into a
/// layer: `generate_errors` (workload), `cold_with_errors` (recovery),
/// `run_planned` (disksim). Returns the replayed points' metrics in grid
/// order.
fn replay(configs: &[ExperimentConfig]) -> Vec<Metrics> {
    let _t = fbf_obs::with_trace(fbf_obs::next_trace_id());
    let _root = fbf_obs::span("core", "replay");
    let mut plans: BTreeMap<(CodeSpec, usize), PlannedCampaign> = BTreeMap::new();
    let mut out = Vec::with_capacity(configs.len());
    for cfg in configs {
        let key = (cfg.code, cfg.p);
        let source = match plans.entry(key) {
            Entry::Occupied(_) => PlanSource::Warm,
            Entry::Vacant(slot) => {
                let code = StripeCode::build(cfg.code, cfg.p).expect("grid primes are valid");
                let span = fbf_obs::span("workload", "generate_errors");
                let errors = generate_errors(
                    &code,
                    &ErrorGenConfig::paper_default(cfg.stripes, cfg.error_count, cfg.seed),
                );
                span.end();
                let span = fbf_obs::span("recovery", "cold_with_errors");
                let plan = PlannedCampaign::cold_with_errors(cfg, errors)
                    .expect("the grid's campaigns plan");
                span.end_with(&[(
                    "generation_ms",
                    fbf_obs::Value::F64(plan.generation.as_secs_f64() * 1e3),
                )]);
                slot.insert(plan);
                PlanSource::Cold
            }
        };
        let plan = &plans[&key];
        let ops: usize = plan.scripts.iter().map(|s| s.ops.len()).sum();
        let span = fbf_obs::span("disksim", "run_planned");
        let m = run_planned(cfg, plan, source);
        span.end_with(&[("ops", fbf_obs::Value::U64(ops as u64))]);
        out.push(m);
    }
    out
}

fn layer_metrics(spans: &Spans, replayed: &[Metrics], out: &mut Outcome) {
    let n = replayed.len().max(1) as f64;
    let replay_ms = spans.total_ms("core", "replay");
    let generate = spans.total_ms("workload", "generate_errors");
    let plan = spans.total_ms("recovery", "cold_with_errors");
    let engine = spans.total_ms("disksim", "run_planned");
    let ops = spans.arg_sum("disksim", "run_planned", "ops");
    out.layer("workload.generate_ms", generate / n);
    out.layer("recovery.plan_ms", plan / n);
    out.layer(
        "recovery.scheme_ms",
        spans.arg_sum("recovery", "cold_with_errors", "generation_ms") / n,
    );
    out.layer(
        "recovery.plans_cold",
        spans.count("recovery", "cold_with_errors") as f64,
    );
    out.layer("disksim.engine_ms", engine / n);
    out.layer("disksim.engine_ops", ops / n);
    out.layer("disksim.engine_ns_per_op", engine * 1e6 / ops.max(1.0));
    let mut cache = CacheStats::default();
    for m in replayed {
        cache.merge(&m.cache);
    }
    out.cache_layers(&cache);
    let coverage = (plan + engine) / replay_ms.max(1e-9);
    out.notes.push(format!(
        "serial replay {replay_ms:.1} ms: plan + engine cover {:.1}%",
        coverage * 100.0
    ));
    out.check(coverage >= 0.9, || {
        format!(
            "plan + engine cover only {:.1}% of the serial replay",
            coverage * 100.0
        )
    });
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let seed = mix(cfg.seed, 8);
    let ((configs, expected), setup_s) = match repeat_setup(SETUP_REPS, || setup(seed)) {
        Ok(x) => x,
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };

    let phase = timed_sweeps(&configs, cfg.seconds, &mut out);
    check_points(&phase.first, &expected, &mut out);
    let rate = phase.points as f64 / phase.wall_s;
    out.notes.push(format!(
        "{} sweeps, {} points in {:.2} s",
        phase.sweeps, phase.points, phase.wall_s
    ));

    if cfg.trace {
        let rec = Recorder::install();
        let traced = timed_sweeps(&grid(seed, true), cfg.seconds, &mut out);
        let replayed = replay(&configs);
        let spans = match rec.finish(&cfg.trace_path("fig8-sweep")) {
            Ok(spans) => spans,
            Err(e) => {
                out.check(false, || format!("cannot write the trace: {e}"));
                return out;
            }
        };
        let same = replayed.len() == phase.first.len()
            && replayed
                .iter()
                .zip(&phase.first)
                .all(|(a, b)| VirtualView::of(a) == VirtualView::of(&b.metrics));
        out.check(same, || {
            "the serial replay's virtual metrics differ from the parallel sweep's".into()
        });
        layer_metrics(&spans, &replayed, &mut out);
        let lookups = (phase.store_hits + phase.store_misses).max(1);
        out.layer(
            "core.plan_store_hit_ratio",
            phase.store_hits as f64 / lookups as f64,
        );
        // Busy time is what the traced sweeps' workers spent inside
        // points (the program's `sweep/point` spans).
        let busy_s = spans.total_ms("sweep", "point") / 1e3;
        out.layer(
            "core.sweep_utilization",
            busy_s / (THREADS as f64 * traced.wall_s),
        );
        let traced_rate = traced.points as f64 / traced.wall_s;
        out.layer("obs.trace_overhead", rate / traced_rate);
        out.layer("obs.spans", spans.0.len() as f64);
    }

    out.host_basics(setup_s, peak_rss_mib(), rate);
    out.host("sweep_points_per_s", rate, "points/s");
    out.op_latency(&phase.samples);
    virtual_metrics(&phase.first, &mut out);
    out
}
