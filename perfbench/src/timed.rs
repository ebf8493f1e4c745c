//! A forwarding [`StorageBackend`] that times every call into the backend
//! layer.
//!
//! Every trait method is forwarded, the defaulted ones too, so a wrapped
//! backend behaves exactly like the bare one: an executor that calls
//! `classify_read`, `disk_dead` or `xor_gather` reaches the inner
//! implementation, not the trait's default. Per-call spans would cost more
//! than a chunk read, so the wrapper keeps totals instead.

use fbf_codes::ChunkId;
use fbf_disksim::{
    ArrayMapping, BackendDiskStats, BackendError, FaultDraw, FaultPlan, StorageBackend,
};
use std::time::Instant;

/// Time and call totals of the backend layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoTotals {
    /// Chunk reads, including chunks read by `xor_gather`.
    pub reads: u64,
    /// Time in `read_chunk` and `xor_gather`, ns.
    pub read_ns: u64,
    /// Spare writes.
    pub writes: u64,
    /// Time in `write_spare`, ns.
    pub write_ns: u64,
    /// Flushes.
    pub flushes: u64,
    /// Time in `flush`, ns.
    pub flush_ns: u64,
}

impl IoTotals {
    /// Fold another pass's totals into these.
    pub fn add(&mut self, o: &IoTotals) {
        self.reads += o.reads;
        self.read_ns += o.read_ns;
        self.writes += o.writes;
        self.write_ns += o.write_ns;
        self.flushes += o.flushes;
        self.flush_ns += o.flush_ns;
    }

    /// All backend time, ns.
    pub fn total_ns(&self) -> u64 {
        self.read_ns + self.write_ns + self.flush_ns
    }
}

/// `inner`, with every call into it timed.
pub struct Timed<B> {
    inner: B,
    /// Totals since construction.
    pub io: IoTotals,
}

impl<B: StorageBackend> Timed<B> {
    /// Wrap `inner`.
    pub fn new(inner: B) -> Self {
        Timed {
            inner,
            io: IoTotals::default(),
        }
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl<B: StorageBackend> StorageBackend for Timed<B> {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn mapping(&self) -> ArrayMapping {
        self.inner.mapping()
    }

    fn chunk_bytes(&self) -> usize {
        self.inner.chunk_bytes()
    }

    fn data_stripes(&self) -> u64 {
        self.inner.data_stripes()
    }

    fn fault_plan(&self) -> &FaultPlan {
        self.inner.fault_plan()
    }

    fn is_repaired(&self, chunk: ChunkId) -> bool {
        self.inner.is_repaired(chunk)
    }

    fn classify_read(&self, chunk: ChunkId) -> FaultDraw {
        self.inner.classify_read(chunk)
    }

    fn disk_dead(&self, disk: usize) -> bool {
        self.inner.disk_dead(disk)
    }

    fn read_chunk(&mut self, chunk: ChunkId, buf: &mut [u8]) -> Result<(), BackendError> {
        let t0 = Instant::now();
        let r = self.inner.read_chunk(chunk, buf);
        self.io.read_ns += elapsed_ns(t0);
        self.io.reads += 1;
        r
    }

    fn write_spare(&mut self, chunk: ChunkId, data: &[u8]) -> Result<(), BackendError> {
        let t0 = Instant::now();
        let r = self.inner.write_spare(chunk, data);
        self.io.write_ns += elapsed_ns(t0);
        self.io.writes += 1;
        r
    }

    fn xor_gather(&mut self, chunks: &[ChunkId], acc: &mut [u8]) -> Result<(), BackendError> {
        let t0 = Instant::now();
        let r = self.inner.xor_gather(chunks, acc);
        self.io.read_ns += elapsed_ns(t0);
        self.io.reads += chunks.len() as u64;
        r
    }

    fn disk_stats(&self) -> &[BackendDiskStats] {
        self.inner.disk_stats()
    }

    fn flush(&mut self) -> Result<(), BackendError> {
        let t0 = Instant::now();
        let r = self.inner.flush();
        self.io.flush_ns += elapsed_ns(t0);
        self.io.flushes += 1;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbf_codes::{Cell, CodeSpec, StripeCode};
    use fbf_core::{file_backend_for, PlannedCampaign};
    use fbf_core::{run_planned_on, sim_backend_for, ExperimentConfig, Metrics, PlanSource};
    use fbf_disksim::Histogram;

    fn config() -> ExperimentConfig {
        ExperimentConfig::builder()
            .code(CodeSpec::Tip)
            .p(7)
            .stripes(256)
            .error_count(24)
            .workers(8)
            .cache_mb(1)
            .chunk_kb(4)
            .seed(11)
            .build()
            .unwrap()
    }

    /// `m` with its host-clock fields cleared: the data plane records
    /// real I/O latencies, which no two runs share.
    fn deterministic(m: &Metrics) -> Metrics {
        let mut m = m.clone();
        m.avg_response_ms = 0.0;
        m.p50_response_ms = 0.0;
        m.p95_response_ms = 0.0;
        m.p99_response_ms = 0.0;
        m.reconstruction_s = 0.0;
        m.repair_p50_s = 0.0;
        m.repair_p90_s = 0.0;
        m.overhead_pct = 0.0;
        for c in &mut m.class_latency {
            *c = fbf_core::ClassLatency {
                count: c.count,
                ..Default::default()
            };
        }
        m.class_digests = std::array::from_fn(|_| Histogram::default());
        m
    }

    fn repaired_bytes(backend: &mut dyn StorageBackend, plan: &PlannedCampaign) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for d in plan.errors.damage_by_stripe() {
            for &cell in &d.cells {
                let chunk = ChunkId::new(d.stripe, cell);
                assert!(backend.is_repaired(chunk));
                let mut buf = vec![0u8; backend.chunk_bytes()];
                backend.read_chunk(chunk, &mut buf).unwrap();
                out.push(buf);
            }
        }
        out
    }

    #[test]
    fn wrapped_and_bare_repairs_agree() {
        let cfg = config();
        let plan = PlannedCampaign::cold(&cfg).unwrap();

        let mut bare = sim_backend_for(&cfg, &plan).unwrap();
        let m_bare = run_planned_on(&cfg, &plan, PlanSource::Cold, &mut bare).unwrap();
        let mut wrapped = Timed::new(sim_backend_for(&cfg, &plan).unwrap());
        let m_wrapped = run_planned_on(&cfg, &plan, PlanSource::Cold, &mut wrapped).unwrap();

        assert_eq!(deterministic(&m_bare), deterministic(&m_wrapped));
        assert_eq!(
            m_wrapped.stripes_repaired,
            plan.errors.damage_by_stripe().len()
        );
        assert_eq!(wrapped.io.reads, m_wrapped.disk_reads);
        assert_eq!(wrapped.io.writes, m_wrapped.disk_writes);
        assert_eq!(wrapped.io.flushes, 1);
        assert_eq!(
            repaired_bytes(&mut bare, &plan),
            repaired_bytes(&mut wrapped, &plan)
        );
    }

    #[test]
    fn wrapped_file_backend_times_every_call() {
        let cfg = config();
        let plan = PlannedCampaign::cold(&cfg).unwrap();
        let dir = std::env::temp_dir().join(format!("perfbench-timed-{}", std::process::id()));
        let mut wrapped = Timed::new(file_backend_for(&cfg, &plan, &dir).unwrap());
        let m = run_planned_on(&cfg, &plan, PlanSource::Cold, &mut wrapped).unwrap();
        let mut sim = sim_backend_for(&cfg, &plan).unwrap();
        let m_sim = run_planned_on(&cfg, &plan, PlanSource::Cold, &mut sim).unwrap();
        let io = wrapped.io;
        let file_bytes = repaired_bytes(&mut wrapped, &plan);
        drop(wrapped);
        std::fs::remove_dir_all(&dir).unwrap();

        assert_eq!(deterministic(&m), deterministic(&m_sim));
        assert_eq!(file_bytes, repaired_bytes(&mut sim, &plan));
        assert_eq!(
            (io.reads, io.writes, io.flushes),
            (m.disk_reads, m.disk_writes, 1)
        );
        assert!(io.read_ns > 0 && io.write_ns > 0 && io.flush_ns > 0);
    }

    #[test]
    fn defaulted_methods_reach_the_inner_backend() {
        let cfg = config();
        let plan = PlannedCampaign::cold(&cfg).unwrap();
        let code = StripeCode::build(cfg.code, cfg.p).unwrap();
        let intact: Vec<ChunkId> = (0..code.cols())
            .map(|c| ChunkId::new(1, Cell::new(0, c)))
            .filter(|ch| {
                !plan
                    .errors
                    .damage_by_stripe()
                    .iter()
                    .any(|d| d.stripe == ch.stripe)
            })
            .take(3)
            .collect();
        let mut bare = sim_backend_for(&cfg, &plan).unwrap();
        let mut wrapped = Timed::new(sim_backend_for(&cfg, &plan).unwrap());
        let mut a = vec![0u8; bare.chunk_bytes()];
        let mut b = a.clone();
        bare.xor_gather(&intact, &mut a).unwrap();
        wrapped.xor_gather(&intact, &mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(wrapped.io.reads, intact.len() as u64);
        for &ch in &intact {
            assert_eq!(bare.classify_read(ch), wrapped.classify_read(ch));
        }
        assert_eq!(bare.disk_dead(0), wrapped.disk_dead(0));
        assert_eq!(bare.kind(), wrapped.kind());
    }
}
