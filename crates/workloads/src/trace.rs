//! Memory-trace generators with controllable locality and parallelism.
//!
//! Scheduler, cache, and PIM results all hinge on three stream properties:
//! row-buffer locality, bank-level parallelism, and read/write mix. Each
//! generator here controls those knobs explicitly, which is what lets the
//! experiment harness reconstruct the workload classes of the cited papers
//! without their proprietary traces.

use rand::Rng;

use crate::WorkloadError;

/// Direction of a trace request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// One request of a memory trace: 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRequest {
    /// Byte address.
    pub addr: u64,
    /// Load or store.
    pub op: Op,
    /// Originating thread (for multi-programmed interference studies),
    /// the same width as an `ia-tracefmt` record's `stream`.
    pub thread: u32,
}

impl TraceRequest {
    /// Creates a read request for thread 0.
    #[must_use]
    pub fn read(addr: u64) -> Self {
        TraceRequest {
            addr,
            op: Op::Read,
            thread: 0,
        }
    }

    /// Creates a write request for thread 0.
    #[must_use]
    pub fn write(addr: u64) -> Self {
        TraceRequest {
            addr,
            op: Op::Write,
            thread: 0,
        }
    }

    /// Returns the same request attributed to `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is 2³² or more: no silent truncation.
    #[must_use]
    pub fn on_thread(mut self, thread: usize) -> Self {
        self.thread = match u32::try_from(thread) {
            Ok(t) => t,
            // lint: allow(P002, a thread index beyond u32 is a caller bug, never truncated)
            Err(_) => panic!("thread index {thread} does not fit in 32 bits"),
        };
        self
    }
}

/// A source of trace requests.
///
/// Generators are infinite; take as many requests as the experiment needs
/// via [`TraceGenerator::generate`].
pub trait TraceGenerator {
    /// Produces the next request.
    fn next_request<R: Rng + ?Sized>(&mut self, rng: &mut R) -> TraceRequest;

    /// Collects `n` requests into a vector.
    fn generate<R: Rng + ?Sized>(&mut self, n: usize, rng: &mut R) -> Vec<TraceRequest>
    where
        Self: Sized,
    {
        (0..n).map(|_| self.next_request(rng)).collect()
    }
}

/// Sequential streaming access (copy/scan kernels): maximal row locality.
#[derive(Debug, Clone)]
pub struct StreamGen {
    base: u64,
    stride: u64,
    length: u64,
    pos: u64,
    write_ratio: f64,
}

impl StreamGen {
    /// Streams over `[base, base+length)` with the given stride in bytes,
    /// wrapping at the end. `write_ratio` in `[0, 1]` of requests are stores.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if `stride == 0`, `length < stride`, or
    /// `write_ratio` is out of range.
    pub fn new(
        base: u64,
        stride: u64,
        length: u64,
        write_ratio: f64,
    ) -> Result<Self, WorkloadError> {
        if stride == 0 || length < stride {
            return Err(WorkloadError::invalid(
                "stream needs stride > 0 and length >= stride",
            ));
        }
        if !(0.0..=1.0).contains(&write_ratio) {
            return Err(WorkloadError::invalid("write_ratio must be in [0, 1]"));
        }
        Ok(StreamGen {
            base,
            stride,
            length,
            pos: 0,
            write_ratio,
        })
    }
}

impl TraceGenerator for StreamGen {
    fn next_request<R: Rng + ?Sized>(&mut self, rng: &mut R) -> TraceRequest {
        let addr = self.base + self.pos;
        self.pos = (self.pos + self.stride) % self.length;
        let op = if rng.gen::<f64>() < self.write_ratio {
            Op::Write
        } else {
            Op::Read
        };
        TraceRequest {
            addr,
            op,
            thread: 0,
        }
    }
}

/// Uniform random access over a region: minimal locality, the memory
/// scheduler's worst case.
#[derive(Debug, Clone)]
pub struct RandomGen {
    base: u64,
    region: u64,
    granule: u64,
    write_ratio: f64,
}

impl RandomGen {
    /// Random accesses in `[base, base+region)` at `granule`-byte alignment.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] on a zero granule/region or bad ratio.
    pub fn new(
        base: u64,
        region: u64,
        granule: u64,
        write_ratio: f64,
    ) -> Result<Self, WorkloadError> {
        if granule == 0 || region < granule {
            return Err(WorkloadError::invalid(
                "random gen needs granule > 0 and region >= granule",
            ));
        }
        if !(0.0..=1.0).contains(&write_ratio) {
            return Err(WorkloadError::invalid("write_ratio must be in [0, 1]"));
        }
        Ok(RandomGen {
            base,
            region,
            granule,
            write_ratio,
        })
    }
}

impl TraceGenerator for RandomGen {
    fn next_request<R: Rng + ?Sized>(&mut self, rng: &mut R) -> TraceRequest {
        let slots = self.region / self.granule;
        let addr = self.base + rng.gen_range(0..slots) * self.granule;
        let op = if rng.gen::<f64>() < self.write_ratio {
            Op::Write
        } else {
            Op::Read
        };
        TraceRequest {
            addr,
            op,
            thread: 0,
        }
    }
}

/// Pointer chasing over a random permutation cycle: every access depends
/// on the previous one (no memory-level parallelism), the workload class
/// the 3D-stacked pointer-chasing accelerator targets.
#[derive(Debug, Clone)]
pub struct PointerChaseGen {
    /// next[i] = index of the node the i-th node points to.
    next: Vec<u64>,
    node_bytes: u64,
    base: u64,
    current: u64,
}

impl PointerChaseGen {
    /// Builds a single random cycle over `nodes` nodes of `node_bytes`
    /// bytes starting at `base`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if `nodes < 2` or `node_bytes == 0`.
    pub fn new<R: Rng + ?Sized>(
        base: u64,
        nodes: u64,
        node_bytes: u64,
        rng: &mut R,
    ) -> Result<Self, WorkloadError> {
        if nodes < 2 || node_bytes == 0 {
            return Err(WorkloadError::invalid(
                "pointer chase needs >= 2 nodes and node_bytes > 0",
            ));
        }
        // Sattolo's algorithm: a uniformly random single cycle.
        let mut perm: Vec<u64> = (0..nodes).collect();
        for i in (1..nodes as usize).rev() {
            let j = rng.gen_range(0..i);
            perm.swap(i, j);
        }
        Ok(PointerChaseGen {
            next: perm,
            node_bytes,
            base,
            current: 0,
        })
    }

    /// Number of nodes in the chain.
    #[must_use]
    pub fn nodes(&self) -> u64 {
        self.next.len() as u64
    }
}

impl TraceGenerator for PointerChaseGen {
    fn next_request<R: Rng + ?Sized>(&mut self, _rng: &mut R) -> TraceRequest {
        let addr = self.base + self.current * self.node_bytes;
        self.current = self.next[self.current as usize];
        TraceRequest {
            addr,
            op: Op::Read,
            thread: 0,
        }
    }
}

/// Zipf-distributed page accesses: a hot set with a long tail, the shape
/// of database/key-value traffic.
#[derive(Debug, Clone)]
pub struct ZipfGen {
    /// Cumulative distribution over page ranks.
    cdf: Vec<f64>,
    page_bytes: u64,
    base: u64,
    write_ratio: f64,
}

impl ZipfGen {
    /// Zipf(`alpha`) over `pages` pages of `page_bytes` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] on zero pages/page size, a non-positive
    /// alpha, or a bad write ratio.
    pub fn new(
        base: u64,
        pages: usize,
        page_bytes: u64,
        alpha: f64,
        write_ratio: f64,
    ) -> Result<Self, WorkloadError> {
        if pages == 0 || page_bytes == 0 {
            return Err(WorkloadError::invalid(
                "zipf needs pages > 0 and page_bytes > 0",
            ));
        }
        if alpha <= 0.0 {
            return Err(WorkloadError::invalid("zipf alpha must be positive"));
        }
        if !(0.0..=1.0).contains(&write_ratio) {
            return Err(WorkloadError::invalid("write_ratio must be in [0, 1]"));
        }
        let mut cdf = Vec::with_capacity(pages);
        let mut acc = 0.0;
        for k in 1..=pages {
            acc += 1.0 / (k as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Ok(ZipfGen {
            cdf,
            page_bytes,
            base,
            write_ratio,
        })
    }
}

impl TraceGenerator for ZipfGen {
    fn next_request<R: Rng + ?Sized>(&mut self, rng: &mut R) -> TraceRequest {
        let u: f64 = rng.gen();
        let rank = self.cdf.partition_point(|&c| c < u);
        let page = rank.min(self.cdf.len() - 1) as u64;
        // Random line within the page keeps some intra-page variety.
        let line = rng.gen_range(0..self.page_bytes / 64) * 64;
        let op = if rng.gen::<f64>() < self.write_ratio {
            Op::Write
        } else {
            Op::Read
        };
        TraceRequest {
            addr: self.base + page * self.page_bytes + line,
            op,
            thread: 0,
        }
    }
}

/// Records `requests` into an `ia-tracefmt` writer: one record per
/// request, `stream` = originating thread, `at` = position in the trace.
/// The inverse is [`trace_from_records`]; together they make any
/// generated workload a replayable on-disk artifact.
pub fn record_trace(requests: &[TraceRequest], w: &mut ia_tracefmt::TraceWriter) {
    for (i, r) in requests.iter().enumerate() {
        let op = match r.op {
            Op::Read => ia_tracefmt::TraceOp::Read,
            Op::Write => ia_tracefmt::TraceOp::Write,
        };
        w.push(&ia_tracefmt::TraceRecord::new(
            r.addr, op, r.thread, i as u64,
        ));
    }
}

/// Rebuilds a workload trace from decoded `ia-tracefmt` records,
/// preserving record order (`stream` becomes the thread attribution;
/// the `at` field is not consulted — file order is trace order).
#[must_use]
pub fn trace_from_records(records: &[ia_tracefmt::TraceRecord]) -> Vec<TraceRequest> {
    records
        .iter()
        .map(|rec| {
            let op = match rec.op {
                ia_tracefmt::TraceOp::Read => Op::Read,
                ia_tracefmt::TraceOp::Write => Op::Write,
            };
            TraceRequest {
                addr: rec.addr,
                op,
                thread: rec.stream,
            }
        })
        .collect()
}

/// A probabilistic mix of generators, each attributed to its own thread —
/// the multi-programmed interference workloads of the scheduler papers.
#[derive(Debug)]
pub struct MixGen<G> {
    components: Vec<G>,
}

impl<G: TraceGenerator> MixGen<G> {
    /// Creates a mix; component `i` produces requests on thread `i`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if `components` is empty.
    pub fn new(components: Vec<G>) -> Result<Self, WorkloadError> {
        if components.is_empty() {
            return Err(WorkloadError::invalid("mix needs at least one component"));
        }
        Ok(MixGen { components })
    }

    /// Number of component threads.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.components.len()
    }
}

impl<G: TraceGenerator> TraceGenerator for MixGen<G> {
    fn next_request<R: Rng + ?Sized>(&mut self, rng: &mut R) -> TraceRequest {
        let i = rng.gen_range(0..self.components.len());
        self.components[i].next_request(rng).on_thread(i)
    }
}

/// A boxed generator, for heterogeneous mixes.
pub type BoxedGenerator = Box<dyn FnMut(&mut dyn rand::RngCore) -> TraceRequest>;

/// Wraps any generator into a boxed closure (erasing the type), attributed
/// to `thread`.
pub fn boxed<G: TraceGenerator + 'static>(mut gen: G, thread: usize) -> BoxedGenerator {
    Box::new(move |rng| gen.next_request(rng).on_thread(thread))
}

/// Round-robin interleave of boxed heterogeneous generators.
pub struct HeterogeneousMix {
    components: Vec<BoxedGenerator>,
    turn: usize,
}

impl std::fmt::Debug for HeterogeneousMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeterogeneousMix")
            .field("components", &self.components.len())
            .finish()
    }
}

impl HeterogeneousMix {
    /// Creates a round-robin mix.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if `components` is empty.
    pub fn new(components: Vec<BoxedGenerator>) -> Result<Self, WorkloadError> {
        if components.is_empty() {
            return Err(WorkloadError::invalid("mix needs at least one component"));
        }
        Ok(HeterogeneousMix {
            components,
            turn: 0,
        })
    }

    /// Produces the next request (round-robin across components).
    pub fn next_request<R: Rng>(&mut self, rng: &mut R) -> TraceRequest {
        let i = self.turn;
        self.turn = (self.turn + 1) % self.components.len();
        (self.components[i])(rng)
    }

    /// Collects `n` requests.
    pub fn generate<R: Rng>(&mut self, n: usize, rng: &mut R) -> Vec<TraceRequest> {
        (0..n).map(|_| self.next_request(rng)).collect()
    }

    /// Number of components.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.components.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0x7EA5)
    }

    #[test]
    fn requests_are_compact() {
        assert_eq!(std::mem::size_of::<TraceRequest>(), 16);
    }

    #[test]
    fn largest_thread_index_fits() {
        let max = u32::MAX as usize;
        assert_eq!(TraceRequest::read(0).on_thread(max).thread, u32::MAX);
    }

    #[test]
    #[should_panic(expected = "thread index 4294967296 does not fit in 32 bits")]
    fn thread_index_beyond_u32_panics() {
        let _ = TraceRequest::read(0).on_thread(1 << 32);
    }

    #[test]
    fn stream_is_sequential_and_wraps() {
        let mut g = StreamGen::new(0x1000, 64, 256, 0.0).unwrap();
        let mut r = rng();
        let t = g.generate(5, &mut r);
        let addrs: Vec<u64> = t.iter().map(|q| q.addr).collect();
        assert_eq!(addrs, vec![0x1000, 0x1040, 0x1080, 0x10C0, 0x1000]);
        assert!(t.iter().all(|q| q.op == Op::Read));
    }

    #[test]
    fn stream_write_ratio_controls_stores() {
        let mut g = StreamGen::new(0, 64, 1 << 20, 0.5).unwrap();
        let mut r = rng();
        let t = g.generate(2000, &mut r);
        let writes = t.iter().filter(|q| q.op == Op::Write).count();
        assert!((800..1200).contains(&writes), "got {writes}");
    }

    #[test]
    fn stream_validates() {
        assert!(StreamGen::new(0, 0, 64, 0.0).is_err());
        assert!(StreamGen::new(0, 128, 64, 0.0).is_err());
        assert!(StreamGen::new(0, 64, 128, 1.5).is_err());
    }

    #[test]
    fn random_stays_in_region_and_aligned() {
        let mut g = RandomGen::new(0x10_0000, 1 << 16, 64, 0.2).unwrap();
        let mut r = rng();
        for q in g.generate(1000, &mut r) {
            assert!(q.addr >= 0x10_0000 && q.addr < 0x10_0000 + (1 << 16));
            assert_eq!(q.addr % 64, 0);
        }
    }

    #[test]
    fn pointer_chase_visits_every_node_once_per_cycle() {
        let mut r = rng();
        let mut g = PointerChaseGen::new(0, 64, 64, &mut r).unwrap();
        let t = g.generate(64, &mut r);
        let mut seen: Vec<u64> = t.iter().map(|q| q.addr / 64).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len(),
            64,
            "a single cycle visits all nodes exactly once"
        );
        assert_eq!(g.nodes(), 64);
    }

    #[test]
    fn pointer_chase_rejects_tiny_inputs() {
        let mut r = rng();
        assert!(PointerChaseGen::new(0, 1, 64, &mut r).is_err());
        assert!(PointerChaseGen::new(0, 8, 0, &mut r).is_err());
    }

    #[test]
    fn zipf_concentrates_on_hot_pages() {
        let mut g = ZipfGen::new(0, 1000, 4096, 1.2, 0.0).unwrap();
        let mut r = rng();
        let t = g.generate(10_000, &mut r);
        let hot = t.iter().filter(|q| q.addr / 4096 < 10).count();
        assert!(hot > 3_000, "top-10 pages should dominate, got {hot}/10000");
    }

    #[test]
    fn zipf_validates() {
        assert!(ZipfGen::new(0, 0, 4096, 1.0, 0.0).is_err());
        assert!(ZipfGen::new(0, 10, 0, 1.0, 0.0).is_err());
        assert!(ZipfGen::new(0, 10, 4096, 0.0, 0.0).is_err());
    }

    #[test]
    fn mix_attributes_threads() {
        let comps = vec![
            StreamGen::new(0, 64, 1 << 16, 0.0).unwrap(),
            StreamGen::new(1 << 20, 64, 1 << 16, 0.0).unwrap(),
        ];
        let mut mix = MixGen::new(comps).unwrap();
        let mut r = rng();
        let t = mix.generate(500, &mut r);
        assert!(t.iter().any(|q| q.thread == 0));
        assert!(t.iter().any(|q| q.thread == 1));
        assert_eq!(mix.thread_count(), 2);
        for q in &t {
            let expected_base = if q.thread == 0 { 0 } else { 1 << 20 };
            assert!(q.addr >= expected_base && q.addr < expected_base + (1 << 16));
        }
    }

    #[test]
    fn heterogeneous_mix_round_robins() {
        let mut r = rng();
        let chase = PointerChaseGen::new(1 << 24, 16, 64, &mut r).unwrap();
        let stream = StreamGen::new(0, 64, 1 << 12, 0.0).unwrap();
        let mut mix = HeterogeneousMix::new(vec![boxed(stream, 0), boxed(chase, 1)]).unwrap();
        let t = mix.generate(10, &mut r);
        assert_eq!(t.iter().filter(|q| q.thread == 0).count(), 5);
        assert_eq!(t.iter().filter(|q| q.thread == 1).count(), 5);
    }

    #[test]
    fn record_and_rebuild_round_trips() {
        let mut g = StreamGen::new(0, 64, 1 << 12, 0.3).unwrap();
        let mut r = rng();
        let t: Vec<TraceRequest> = g
            .generate(50, &mut r)
            .into_iter()
            .enumerate()
            .map(|(i, q)| q.on_thread(i % 3))
            .collect();
        let mut w = ia_tracefmt::TraceWriter::new(9);
        record_trace(&t, &mut w);
        let reader = ia_tracefmt::TraceReader::from_bytes(&w.finish()).unwrap();
        assert_eq!(reader.seed(), 9);
        assert_eq!(trace_from_records(reader.records()), t);
    }

    #[test]
    fn empty_mix_is_an_error() {
        assert!(MixGen::<StreamGen>::new(vec![]).is_err());
        assert!(HeterogeneousMix::new(vec![]).is_err());
    }
}
