//! `file-repair`: the byte data plane, `run_planned_on` over
//! `FileBackend`s with 32 KiB chunks.
//!
//! No engine runs in the timed phase: bytes, XOR and file I/O do the
//! work. The campaign is split over several small arrays, repaired in
//! turn, so that no backing file grows large: a `FileBackend` file spans
//! `2 × stripes × rows` chunks (12 MiB per disk here, where one
//! 4096-stripe array would need 1.5 GiB per disk and break a modest
//! file-size limit). Set-up draws and plans each array's campaign,
//! synthesises the pristine stripes it will check against, formats the
//! array with `file_backend_for` and flushes it, so the timed phase pays
//! only for the repair: reopen with `FileBackend::open`, gather, XOR,
//! spare writes and the closing fsync. The files live in the checkout and
//! are served from the page cache, not a device. Unit of work: one
//! recovered MiB; operation: one pass, the repair of every array in turn.
//! Throughput is taken over the median pass.

use crate::report::Outcome;
use crate::stats::{median, mix, peak_rss_mib, repeat_setup};
use crate::timed::{IoTotals, Timed};
use crate::trace::{Recorder, Spans};
use crate::{RunCfg, OUT_DIR};
use fbf_cache::CacheStats;
use fbf_codes::encode::{encode, verify};
use fbf_codes::{ChunkBuf, ChunkId, CodeSpec, Stripe, StripeCode};
use fbf_core::{
    file_backend_for, run_planned, run_planned_on, ExperimentConfig, Metrics, PlanSource,
    PlannedCampaign,
};
use fbf_disksim::{FileBackend, StorageBackend};
use fbf_workload::{generate_errors, ErrorGenConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Arrays per pass; each has its own campaign, seed and directory.
const ARRAYS: u64 = 16;
/// Stripes per array.
const STRIPES: u32 = 32;
/// Errors per array, each on its own stripe.
const ERRORS: usize = 16;
const CHUNK_KB: usize = 32;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The fewest passes a timed phase makes, even past `--seconds`: a p90
/// needs ten samples beyond it, and a pass takes about 80 ms, so a host
/// running at half speed would otherwise fall short in 15 s.
const MIN_PASSES: usize = 100;

/// The damaged cells' pristine payloads, by chunk.
type Pristine = BTreeMap<ChunkId, ChunkBuf>;

/// One formatted array and the campaign that repairs it.
struct Array {
    cfg: ExperimentConfig,
    plan: PlannedCampaign,
    damaged: Vec<ChunkId>,
    pristine: Pristine,
    dir: PathBuf,
}

struct Prepared {
    code: StripeCode,
    arrays: Vec<Array>,
    /// Set-up phase times over all arrays, ms: generate, plan, synth,
    /// format.
    phases: [f64; 4],
}

impl Prepared {
    fn damaged(&self) -> usize {
        self.arrays.iter().map(|a| a.damaged.len()).sum()
    }
}

fn config(seed: u64, obs: bool) -> ExperimentConfig {
    ExperimentConfig::builder()
        .code(CodeSpec::Tip)
        .p(7)
        .stripes(STRIPES)
        .error_count(ERRORS)
        .chunk_kb(CHUNK_KB)
        .seed(seed)
        .obs(obs)
        .build()
        .expect("file-repair configuration is valid")
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Length of each backing file `FileBackend::format` creates: a data zone
/// and a spare zone of `stripes × rows` chunks each.
fn backing_file_bytes(code: &StripeCode) -> u64 {
    2 * u64::from(STRIPES) * code.rows() as u64 * (CHUNK_KB as u64 * 1024)
}

/// The soft `Max file size` of a `/proc/<pid>/limits` text, bytes; `None`
/// when unlimited or absent.
fn file_size_limit(limits: &str) -> Option<u64> {
    let line = limits.lines().find(|l| l.starts_with("Max file size"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

fn setup_array(
    code: &StripeCode,
    seed: u64,
    dir: PathBuf,
    phases: &mut [f64; 4],
) -> Result<Array, String> {
    let cfg = config(seed, false);
    let t = Instant::now();
    let errors = generate_errors(
        code,
        &ErrorGenConfig::paper_default(cfg.stripes, cfg.error_count, cfg.seed),
    );
    phases[0] += ms_since(t);
    let t = Instant::now();
    let plan = PlannedCampaign::cold_with_errors(&cfg, errors).map_err(|e| e.to_string())?;
    phases[1] += ms_since(t);
    let t = Instant::now();
    let mut pristine = Pristine::new();
    let mut damaged = Vec::new();
    for d in plan.errors.damage_by_stripe() {
        let mut stripe =
            Stripe::patterned_seeded(code.layout(), cfg.chunk_bytes() as usize, d.stripe as u64);
        encode(code, &mut stripe).map_err(|e| e.to_string())?;
        for &cell in &d.cells {
            let chunk = ChunkId::new(d.stripe, cell);
            pristine.insert(chunk, stripe.get(code.layout(), cell).clone());
            damaged.push(chunk);
        }
    }
    phases[2] += ms_since(t);
    let t = Instant::now();
    let mut backend = file_backend_for(&cfg, &plan, &dir).map_err(|e| e.to_string())?;
    backend.flush().map_err(|e| e.to_string())?;
    phases[3] += ms_since(t);
    Ok(Array {
        cfg,
        plan,
        damaged,
        pristine,
        dir,
    })
}

fn setup(seed: u64, root: &Path) -> Result<Prepared, String> {
    let code = StripeCode::build(CodeSpec::Tip, 7).map_err(|e| e.to_string())?;
    let mut phases = [0.0; 4];
    let arrays = (0..ARRAYS)
        .map(|i| {
            let dir = root.join(format!("array-{i}"));
            setup_array(&code, mix(seed, i), dir, &mut phases)
        })
        .collect::<Result<_, _>>()?;
    Ok(Prepared {
        code,
        arrays,
        phases,
    })
}

/// One repair of array `a`, reopened from disk.
fn repair(
    a: &Array,
    code: &StripeCode,
    cfg: &ExperimentConfig,
) -> Result<(Metrics, IoTotals), String> {
    let backend = FileBackend::open(
        &a.dir,
        code,
        cfg.chunk_bytes() as usize,
        u64::from(cfg.stripes),
        &[],
    )
    .map_err(|e| e.to_string())?;
    let mut backend = Timed::new(backend);
    let m =
        run_planned_on(cfg, &a.plan, PlanSource::Cold, &mut backend).map_err(|e| e.to_string())?;
    Ok((m, backend.io))
}

/// The data plane's outputs that do not depend on the host clock.
fn deterministic(m: &Metrics) -> (u64, u64, CacheStats, usize, usize, f64) {
    (
        m.disk_reads,
        m.disk_writes,
        m.cache,
        m.stripes_repaired,
        m.chunks_recovered,
        m.read_balance,
    )
}

struct Phase {
    /// Pass times, ms: a pass repairs every array once.
    samples: Vec<f64>,
    /// Passes over every array.
    passes: usize,
    mib: f64,
    wall_s: f64,
    io: IoTotals,
    /// Each array's first repair.
    first: Vec<Option<Metrics>>,
}

fn timed_passes(p: &Prepared, obs: bool, seconds: f64, out: &mut Outcome) -> Phase {
    let mut phase = Phase {
        samples: Vec::new(),
        passes: 0,
        mib: 0.0,
        wall_s: 0.0,
        io: IoTotals::default(),
        first: p.arrays.iter().map(|_| None).collect(),
    };
    let cfgs: Vec<ExperimentConfig> = p.arrays.iter().map(|a| config(a.cfg.seed, obs)).collect();
    while phase.wall_s < seconds || phase.passes < MIN_PASSES {
        let mut pass_ms = 0.0;
        for (i, (a, cfg)) in p.arrays.iter().zip(&cfgs).enumerate() {
            let _t = obs.then(|| fbf_obs::with_trace(fbf_obs::next_trace_id()));
            let t0 = Instant::now();
            let span = fbf_obs::span("core", "run_planned_on");
            let result = repair(a, &p.code, cfg);
            span.end();
            let dt = t0.elapsed().as_secs_f64();
            phase.wall_s += dt;
            let (m, io) = match result {
                Ok(x) => x,
                Err(e) => {
                    out.tally.record(false);
                    out.check(false, || format!("repair of array {i} failed: {e}"));
                    return phase;
                }
            };
            let ok =
                m.stripes_repaired == a.plan.schemes.len() && m.chunks_recovered == a.damaged.len();
            out.tally.record(ok);
            out.check(ok, || {
                format!(
                    "array {i}: a repair fixed {} stripes / {} chunks of {} / {}",
                    m.stripes_repaired,
                    m.chunks_recovered,
                    a.plan.schemes.len(),
                    a.damaged.len()
                )
            });
            pass_ms += dt * 1e3;
            phase.mib +=
                (m.chunks_recovered * cfg.chunk_bytes() as usize) as f64 / (1 << 20) as f64;
            phase.io.add(&io);
            match &phase.first[i] {
                None => phase.first[i] = Some(m),
                Some(first) => out.check(deterministic(first) == deterministic(&m), || {
                    format!("repairs of array {i} disagree on reads, writes or cache counts")
                }),
            }
        }
        phase.samples.push(pass_ms);
        phase.passes += 1;
    }
    phase
}

/// Recovered MiB per second over the median pass: every pass does the
/// same work, and the median keeps a stalled fsync out of the figure.
fn median_rate(p: &Prepared, phase: &Phase) -> f64 {
    let chunk_bytes = p.arrays.first().map_or(0, |a| a.cfg.chunk_bytes()) as f64;
    let pass_mib = p.damaged() as f64 * chunk_bytes / (1 << 20) as f64;
    median(&phase.samples).map_or(0.0, |ms| pass_mib * 1e3 / ms)
}

/// Read every damaged stripe back through a reopened backend: parity
/// chains must hold and the repaired cells must equal the pristine ones.
fn verify_on_disk(code: &StripeCode, a: &Array, out: &mut Outcome) {
    let chunk_bytes = a.cfg.chunk_bytes() as usize;
    let mut backend = match FileBackend::open(
        &a.dir,
        code,
        chunk_bytes,
        u64::from(a.cfg.stripes),
        &a.damaged,
    ) {
        Ok(b) => b,
        Err(e) => return out.check(false, || format!("cannot reopen {}: {e}", a.dir.display())),
    };
    let layout = code.layout();
    for d in a.plan.errors.damage_by_stripe() {
        let mut chunks = Vec::with_capacity(layout.len());
        for cell in layout.cells() {
            let mut buf = vec![0u8; chunk_bytes];
            if let Err(e) = backend.read_chunk(ChunkId::new(d.stripe, cell), &mut buf) {
                return out.check(false, || format!("stripe {} unreadable: {e}", d.stripe));
            }
            chunks.push(ChunkBuf::from(buf));
        }
        let stripe = match Stripe::from_chunks(chunks) {
            Ok(s) => s,
            Err(e) => return out.check(false, || format!("stripe {}: {e}", d.stripe)),
        };
        let bad = verify(code, &stripe);
        out.check(bad.is_empty(), || {
            format!(
                "{} stripe {}: {} parity chains fail after repair",
                a.dir.display(),
                d.stripe,
                bad.len()
            )
        });
        for &cell in &d.cells {
            let chunk = ChunkId::new(d.stripe, cell);
            out.check(stripe.get(layout, cell) == &a.pristine[&chunk], || {
                format!(
                    "{} stripe {} cell {:?}: repaired bytes differ from the original",
                    a.dir.display(),
                    d.stripe,
                    cell
                )
            });
        }
    }
}

fn layer_metrics(
    spans: &Spans,
    traced: &Phase,
    p: &Prepared,
    setup: [f64; 4],
    engine_ms: f64,
    out: &mut Outcome,
) {
    let passes = traced.passes.max(1) as f64;
    let pass_ms = spans.total_ms("core", "run_planned_on") / passes;
    let io = &traced.io;
    let backend_ms = io.total_ns() as f64 / 1e6 / passes;
    out.layer("disksim.backend_read_ms", io.read_ns as f64 / 1e6 / passes);
    out.layer("disksim.backend_reads", io.reads as f64 / passes);
    out.layer(
        "disksim.backend_write_ms",
        io.write_ns as f64 / 1e6 / passes,
    );
    out.layer("disksim.backend_writes", io.writes as f64 / passes);
    out.layer(
        "disksim.backend_flush_ms",
        io.flush_ns as f64 / 1e6 / passes,
    );
    out.layer(
        "disksim.read_amplification",
        io.reads as f64 / (passes * p.damaged() as f64),
    );
    out.layer("core.dataplane_self_ms", pass_ms - backend_ms);
    out.notes.push(format!(
        "traced pass {pass_ms:.3} ms = backend {backend_ms:.3} ms + data plane {:.3} ms",
        pass_ms - backend_ms
    ));
    let [generate, plan, synth, format] = setup;
    out.layer("workload.generate_ms", generate);
    out.layer("recovery.plan_ms", plan);
    let scheme_s: f64 = p
        .arrays
        .iter()
        .map(|a| a.plan.generation.as_secs_f64())
        .sum();
    out.layer("recovery.scheme_ms", scheme_s * 1e3);
    out.layer("recovery.plans_cold", p.arrays.len() as f64);
    out.layer("codes.synth_ms", synth);
    out.layer("disksim.format_ms", format);
    let ops: usize = p
        .arrays
        .iter()
        .flat_map(|a| &a.plan.scripts)
        .map(|s| s.ops.len())
        .sum();
    out.layer("disksim.engine_ms", engine_ms);
    out.layer("disksim.engine_ops", ops as f64);
    out.layer(
        "disksim.engine_ns_per_op",
        engine_ms * 1e6 / ops.max(1) as f64,
    );
    let mut cache = CacheStats::default();
    for m in traced.first.iter().flatten() {
        cache.merge(&m.cache);
    }
    out.cache_layers(&cache);
    out.layer("obs.spans", spans.0.len() as f64);
}

/// Fail early, and cleanly, when the process may not write files as long
/// as the arrays' backing files: the kernel would kill it mid-format.
fn check_file_size_limit(code: &StripeCode, out: &mut Outcome) -> bool {
    let needed = backing_file_bytes(code);
    let limit = std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|l| file_size_limit(&l));
    let ok = limit.is_none_or(|limit| limit >= needed);
    out.check(ok, || {
        format!("the file size limit {limit:?} B is below the {needed} B backing files")
    });
    ok
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let root: PathBuf = Path::new(OUT_DIR).join(format!("file-repair-{}", std::process::id()));
    let seed = mix(cfg.seed, 3);
    match StripeCode::build(CodeSpec::Tip, 7) {
        Ok(code) if check_file_size_limit(&code, &mut out) => {}
        Ok(_) => return out,
        Err(e) => {
            out.check(false, || format!("cannot build the code: {e}"));
            return out;
        }
    }
    let mut phase_times: Vec<[f64; 4]> = Vec::new();
    let prepared = repeat_setup(SETUP_REPS, || {
        let p = setup(seed, &root)?;
        phase_times.push(p.phases);
        Ok(p)
    });
    let (p, setup_s) = match prepared {
        Ok(x) => x,
        Err(e) => {
            out.check(false, || format!("set-up failed: {e}"));
            let _ = std::fs::remove_dir_all(&root);
            return out;
        }
    };
    let setup_phases: [f64; 4] = std::array::from_fn(|i| {
        median(&phase_times.iter().map(|t| t[i]).collect::<Vec<_>>()).unwrap_or(0.0)
    });

    let phase = timed_passes(&p, false, cfg.seconds, &mut out);
    let rate = median_rate(&p, &phase);
    let io_ms = phase.io.total_ns() as f64 / 1e6;
    let passes = phase.passes.max(1) as f64;
    out.notes.push(format!(
        "untraced pass over {} arrays {:.3} ms, of which backend {:.3} ms",
        p.arrays.len(),
        phase.wall_s * 1e3 / passes,
        io_ms / passes
    ));
    out.notes.push(format!(
        "{} passes, {:.1} MiB recovered in {:.2} s; set-up generate/plan/synth/format {:.1}/{:.1}/{:.1}/{:.1} ms",
        phase.passes,
        phase.mib,
        phase.wall_s,
        setup_phases[0],
        setup_phases[1],
        setup_phases[2],
        setup_phases[3]
    ));
    for a in &p.arrays {
        verify_on_disk(&p.code, a, &mut out);
    }

    // The engine on the same plans: the data plane must reproduce its
    // read and cache accounting, and it gives the virtual-clock figures.
    let t = Instant::now();
    let engine: Vec<Metrics> = p
        .arrays
        .iter()
        .map(|a| run_planned(&a.cfg, &a.plan, PlanSource::Cold))
        .collect();
    let engine_ms = ms_since(t);
    let mut cache = CacheStats::default();
    let mut disk_reads = 0;
    for (i, (e, m)) in engine.iter().zip(&phase.first).enumerate() {
        let Some(m) = m else { continue };
        out.check((m.disk_reads, m.cache) == (e.disk_reads, e.cache), || {
            format!(
                "array {i}: the data plane read {} chunks, the engine {}",
                m.disk_reads, e.disk_reads
            )
        });
        cache.merge(&m.cache);
        disk_reads += m.disk_reads;
    }
    if phase.first.iter().all(Option::is_some) {
        out.e2e("hit_ratio", cache.hit_ratio());
        out.e2e("disk_reads", disk_reads as f64);
        out.sim("hit_ratio", cache.hit_ratio(), "ratio");
        out.sim("disk_reads", disk_reads as f64, "reads per pass");
    }
    let n = engine.len() as f64;
    out.e2e(
        "reconstruction_s",
        engine.iter().map(|e| e.reconstruction_s).sum(),
    );
    out.e2e(
        "rebuild_skew",
        engine.iter().map(|e| e.read_balance).sum::<f64>() / n,
    );
    out.e2e(
        "response_ms",
        engine.iter().map(|e| e.avg_response_ms).sum::<f64>() / n,
    );

    if cfg.trace {
        let rec = Recorder::install();
        let traced = timed_passes(&p, true, cfg.seconds, &mut out);
        match rec.finish(&cfg.trace_path("file-repair")) {
            Ok(spans) => {
                layer_metrics(&spans, &traced, &p, setup_phases, engine_ms, &mut out);
                out.layer("obs.trace_overhead", rate / median_rate(&p, &traced));
            }
            Err(e) => out.check(false, || format!("cannot write the trace: {e}")),
        }
    }
    if let Err(e) = std::fs::remove_dir_all(&root) {
        out.notes
            .push(format!("could not remove {}: {e}", root.display()));
    }

    out.host_basics(setup_s, peak_rss_mib(), rate);
    out.host("repair_mib_per_s", rate, "recovered MiB/s");
    out.op_latency(&phase.samples);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_soft_file_size_limit() {
        let head = "Limit                     Soft Limit           Hard Limit           Units     \n\
                    Max cpu time              unlimited            unlimited            seconds   \n";
        let limited = format!(
            "{head}Max file size             1073741824           2147483648           bytes     \n"
        );
        assert_eq!(file_size_limit(&limited), Some(1 << 30));
        let unlimited = format!(
            "{head}Max file size             unlimited            unlimited            bytes\n"
        );
        assert_eq!(file_size_limit(&unlimited), None);
        assert_eq!(file_size_limit(head), None);
    }

    #[test]
    fn backing_files_stay_small() {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        assert_eq!(backing_file_bytes(&code), 12 << 20);
    }
}
