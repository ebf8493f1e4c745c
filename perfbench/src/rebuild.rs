//! `disk-rebuild`: whole-disk rebuilds through `execute_rebuild`.
//!
//! One round rebuilds four failed disks in turn on a 128-disk
//! declustered array with foreground application reads on, then the same
//! number of affected stripes under clustered placement. Declustered
//! placement admits few waves, each projected per disk; clustered placement
//! runs hundreds of tiny waves. Every rebuild plans its campaign shards
//! cold through the round's own `PlanStore` (each rebuild salts its own
//! seed, so no two share a plan key). Unit of work: one rebuilt stripe;
//! operation: one `execute_rebuild` call.

use crate::report::Outcome;
use crate::stats::{median, mix, peak_rss_mib, repeat_setup};
use crate::trace::{Recorder, Spans};
use crate::RunCfg;
use fbf_cache::CacheStats;
use fbf_codes::{CodeSpec, StripeCode};
use fbf_core::{execute_rebuild, ExperimentConfig, PlanStore, RebuildOutcome, RebuildSpec};
use fbf_disksim::{EngineScratch, Histogram, Placement, RequestClass};
use fbf_workload::AppIoConfig;
use std::time::Instant;

const DISKS: usize = 128;
/// Data-zone stripes of the declustered array.
const STRIPES: u32 = 16_384;
/// Declustered rebuilds per round (distinct failed disks).
const DECLUSTERED: usize = 4;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The virtual-clock outputs of one rebuild.
#[derive(Debug, Clone, PartialEq)]
struct VirtualView {
    waves: usize,
    affected: usize,
    rebuilt: usize,
    reconstruction_s: f64,
    disk_reads: u64,
    cache: CacheStats,
    per_disk: Vec<u64>,
    skew: f64,
    /// Foreground read latencies during the rebuild.
    app: Histogram,
}

impl VirtualView {
    fn of(o: &RebuildOutcome) -> Self {
        VirtualView {
            waves: o.waves,
            affected: o.stripes_affected,
            rebuilt: o.stripes_rebuilt,
            reconstruction_s: o.reconstruction_s,
            disk_reads: o.report.disk_reads,
            cache: o.report.cache,
            per_disk: o.per_disk_rebuild_reads.clone(),
            skew: o.rebuild_skew,
            app: o.report.class_latency[RequestClass::App.index()].clone(),
        }
    }
}

/// The round's rebuild specs: four declustered failed disks, then one
/// clustered rebuild of as many affected stripes.
fn specs(seed: u64, obs: bool) -> Vec<RebuildSpec> {
    let code = StripeCode::build(CodeSpec::Tip, 7).expect("TIP(p=7) builds");
    let placement = Placement::Declustered { seed: mix(seed, 1) };
    let mut disks: Vec<usize> = Vec::new();
    let mut salt = 2;
    while disks.len() < DECLUSTERED {
        let d = (mix(seed, salt) % DISKS as u64) as usize;
        salt += 1;
        if !disks.contains(&d) {
            disks.push(d);
        }
    }
    let base = |stripes: u32, i: u64| {
        ExperimentConfig::builder()
            .code(CodeSpec::Tip)
            .p(7)
            .stripes(stripes)
            .seed(mix(seed, 100 + i))
            .obs(obs)
            .build()
            .expect("rebuild base configuration is valid")
    };
    let mut out: Vec<RebuildSpec> = disks
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let mut spec = RebuildSpec::new(base(STRIPES, i as u64), DISKS);
            spec.placement = placement;
            spec.failed_disk = d;
            spec
        })
        .collect();
    // Clustered: columns sit on disks 0..cols, so a failed disk holds a
    // column of every stripe; size the array so as many stripes are hit.
    let clustered_stripes = STRIPES * code.cols() as u32 / DISKS as u32;
    let mut spec = RebuildSpec::new(base(clustered_stripes, DECLUSTERED as u64), DISKS);
    spec.placement = Placement::Fixed;
    spec.failed_disk = 0;
    out.push(spec);
    out
}

struct Phase {
    samples: Vec<f64>,
    stripes: usize,
    rounds: usize,
    wall_s: f64,
    store_hits: u64,
    store_lookups: u64,
    first: Vec<VirtualView>,
}

fn timed_rounds(specs: &[RebuildSpec], seconds: f64, trace: bool, out: &mut Outcome) -> Phase {
    let mut phase = Phase {
        samples: Vec::new(),
        stripes: 0,
        rounds: 0,
        wall_s: 0.0,
        store_hits: 0,
        store_lookups: 0,
        first: Vec::new(),
    };
    let mut scratch = EngineScratch::new();
    while phase.wall_s < seconds {
        let store = PlanStore::new();
        let mut views = Vec::new();
        for spec in specs {
            let _t = trace.then(|| fbf_obs::with_trace(fbf_obs::next_trace_id()));
            let t0 = Instant::now();
            let span = fbf_obs::span("core", "execute_rebuild");
            let result = execute_rebuild(spec, &store, &mut scratch);
            let waves = result.as_ref().map_or(0, |o| o.waves);
            span.end_with(&[("waves", fbf_obs::Value::U64(waves as u64))]);
            let dt = t0.elapsed().as_secs_f64();
            phase.wall_s += dt;
            match result {
                Ok(o) => {
                    let ok = o.stripes_rebuilt == o.stripes_affected && o.failed_stripes.is_empty();
                    out.tally.record(ok);
                    out.check(ok, || {
                        format!(
                            "{} rebuild of disk {}: {} of {} stripes rebuilt, {} failed",
                            o.placement.name(),
                            spec.failed_disk,
                            o.stripes_rebuilt,
                            o.stripes_affected,
                            o.failed_stripes.len()
                        )
                    });
                    phase.samples.push(dt * 1e3);
                    phase.stripes += o.stripes_rebuilt;
                    views.push(VirtualView::of(&o));
                }
                Err(e) => {
                    out.tally.record(false);
                    out.check(false, || {
                        format!("rebuild of disk {} failed: {e}", spec.failed_disk)
                    });
                    return phase;
                }
            }
        }
        phase.rounds += 1;
        let stats = store.stats();
        phase.store_hits += stats.hits;
        phase.store_lookups += stats.hits + stats.misses;
        if phase.first.is_empty() {
            phase.first = views;
        } else {
            let n = phase.rounds;
            out.check(views == phase.first, || {
                format!("round {n} differs from round 1")
            });
        }
    }
    phase
}

fn merged_cache(views: &[VirtualView]) -> CacheStats {
    let mut cache = CacheStats::default();
    for v in views {
        cache.merge(&v.cache);
    }
    cache
}

fn virtual_metrics(views: &[VirtualView], out: &mut Outcome) {
    let cache = merged_cache(views);
    let declustered = &views[..DECLUSTERED.min(views.len())];
    let reads = views.iter().map(|v| v.disk_reads).sum::<u64>() as f64;
    let recon = views.iter().map(|v| v.reconstruction_s).sum::<f64>();
    let skew = declustered.iter().map(|v| v.skew).fold(0.0, f64::max);
    let mut app = Histogram::new();
    for v in declustered {
        app.merge(&v.app);
    }
    let app_p99 = app.p99().map_or(0.0, |t| t.as_millis_f64());
    let app_mean = app.digest().sum_ns() as f64 / app.count().max(1) as f64 / 1e6;
    out.e2e("hit_ratio", cache.hit_ratio());
    out.e2e("disk_reads", reads);
    out.e2e("reconstruction_s", recon);
    out.e2e("rebuild_skew", skew);
    out.e2e("response_ms", app_mean);
    out.sim("reconstruction_s", recon, "s (sum over a round)");
    out.sim("rebuild_skew", skew, "ratio (max, declustered)");
    out.sim("app_p99_ms", app_p99, "ms (declustered, merged)");
    if let Some(clustered) = views.get(DECLUSTERED) {
        out.notes.push(format!(
            "clustered: skew {:.3}, app p99 {:.3} ms, {} waves; declustered waves {:?}",
            clustered.skew,
            clustered.app.p99().map_or(0.0, |t| t.as_millis_f64()),
            clustered.waves,
            declustered.iter().map(|v| v.waves).collect::<Vec<_>>()
        ));
    }
}

/// The workload layer's share of a round: `execute_rebuild` draws each
/// wave's foreground reads with `generate_app_reads`, which emits no span,
/// so the same calls are replayed here, ms.
fn app_reads_ms(specs: &[RebuildSpec], views: &[VirtualView]) -> f64 {
    let code = StripeCode::build(CodeSpec::Tip, 7).expect("TIP(p=7) builds");
    let t0 = Instant::now();
    for (spec, view) in specs.iter().zip(views) {
        for wave in 0..view.waves {
            std::hint::black_box(fbf_workload::generate_app_reads(
                &code,
                &AppIoConfig {
                    stripes: spec.base.stripes,
                    reads: spec.app_reads_per_wave,
                    seed: spec.base.seed ^ (wave as u64 + 1),
                    ..Default::default()
                },
            ));
        }
    }
    t0.elapsed().as_secs_f64() * 1e3
}

fn layer_metrics(spans: &Spans, phase: &Phase, specs: &[RebuildSpec], out: &mut Outcome) {
    let views = &phase.first;
    out.layer(
        "workload.generate_ms",
        app_reads_ms(specs, views) / views.len().max(1) as f64,
    );
    out.layer(
        "core.plan_store_hit_ratio",
        phase.store_hits as f64 / phase.store_lookups.max(1) as f64,
    );
    let ops = spans.count("core", "execute_rebuild").max(1) as f64;
    let rebuild = spans.total_ms("core", "execute_rebuild");
    let plan = spans.total_ms("plan", "cold");
    let engine = spans.total_ms("engine", "run");
    out.layer("core.rebuild_ms", rebuild / ops);
    out.layer(
        "core.rebuild_self_ms",
        spans.self_ms("core", "execute_rebuild") / ops,
    );
    out.layer(
        "core.rebuild_waves",
        spans.arg_sum("core", "execute_rebuild", "waves") / ops,
    );
    out.layer("recovery.plan_ms", plan / ops);
    out.layer(
        "recovery.scheme_ms",
        spans.arg_sum("plan", "cold", "generation_ms") / ops,
    );
    out.layer(
        "recovery.plans_cold",
        spans.count("plan", "cold") as f64 / ops,
    );
    out.layer("disksim.engine_ms", engine / ops);
    out.cache_layers(&merged_cache(views));
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    // Set-up builds the specs and runs one untimed warm-up round, so the
    // engine scratch and the allocator have grown before timing starts.
    let setup = || {
        let specs = specs(cfg.seed, false);
        let store = PlanStore::new();
        let mut scratch = EngineScratch::new();
        for spec in &specs {
            execute_rebuild(spec, &store, &mut scratch)
                .map_err(|e| format!("warm-up rebuild failed: {e}"))?;
        }
        Ok(specs)
    };
    let (specs_untraced, setup_s) = match repeat_setup(SETUP_REPS, setup) {
        Ok(x) => x,
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };

    let phase = timed_rounds(&specs_untraced, cfg.seconds, false, &mut out);
    let rate = phase.stripes as f64 / phase.wall_s;
    // Samples run in spec order, round after round; the last spec of
    // each round is the clustered rebuild.
    let p50 = |clustered: bool| {
        let ms: Vec<f64> = phase
            .samples
            .iter()
            .enumerate()
            .filter(|(i, _)| (i % (DECLUSTERED + 1) == DECLUSTERED) == clustered)
            .map(|(_, &ms)| ms)
            .collect();
        median(&ms).unwrap_or(0.0)
    };
    out.notes.push(format!(
        "{} rounds, {} rebuilds, {} stripes in {:.2} s; p50 {:.1} ms declustered, {:.1} ms clustered",
        phase.rounds,
        phase.samples.len(),
        phase.stripes,
        phase.wall_s,
        p50(false),
        p50(true),
    ));

    if cfg.trace {
        let rec = Recorder::install();
        let traced = timed_rounds(&specs(cfg.seed, true), cfg.seconds, true, &mut out);
        match rec.finish(&cfg.trace_path("disk-rebuild")) {
            Ok(spans) => {
                out.check(traced.first == phase.first, || {
                    "traced rebuilds differ from untraced ones".into()
                });
                layer_metrics(&spans, &phase, &specs_untraced, &mut out);
                out.layer(
                    "obs.trace_overhead",
                    rate * traced.wall_s / traced.stripes as f64,
                );
                out.layer("obs.spans", spans.0.len() as f64);
            }
            Err(e) => out.check(false, || format!("cannot write the trace: {e}")),
        }
    }

    out.host_basics(setup_s, peak_rss_mib(), rate);
    out.host("rebuild_stripes_per_s", rate, "stripes/s");
    out.op_latency(&phase.samples);
    virtual_metrics(&phase.first, &mut out);
    out
}
