//! Cycle-level simulation of two router classes:
//!
//! * **Buffered XY** — input-queued routers with dimension-order routing:
//!   the conventional design whose buffers dominate NoC area/power.
//! * **Bufferless deflection** (BLESS, Moscibroda & Mutlu ISCA 2009;
//!   CHIPPER, Fallin+ HPCA 2011) — no buffers at all: flits always move,
//!   age-prioritized, mis-routed ("deflected") on port conflicts.
//!
//! The paper's data-centric lens: bufferless routing trades a little
//! latency at high load for eliminating the buffers entirely — a
//! hardware-cost-aware design the fixed "always buffer" mindset misses.
//!
//! Both meshes are [`Clocked`] components driven by the workspace-wide
//! [`SimLoop`]. A synthetic-traffic mesh draws injection randomness every
//! cycle, so — unlike the memory controller — there are no idle gaps to
//! skip; the port buys the uniform component model and sink-based
//! delivery, which lets a mesh be composed into larger clocked systems.
//!
//! ## Hot-loop layout
//!
//! Flits live in a slab arena and routers hold `u32` handles. A buffered
//! router keeps one lane per output port, each ordered by flit id (id
//! order is age order), plus a short eject list: a visit pops at most one
//! flit per busy lane and ejects everything that arrived, so it never
//! scans a whole queue. A bufferless router holds at most four flits, one
//! per input link, in fixed arrival slots ordered by sender index (south,
//! west, east, north), which is the order arrivals were appended in when
//! each router held a list; it reads all four slots, orders ages with a
//! sorting network and picks ports by mask arithmetic, so its busy path
//! branches little on the data. Neither mesh counts hops per move (see
//! [`Packet`]), and injection compares the raw draw with an integer
//! threshold (see [`inject_threshold`]). Every RNG draw, routing decision
//! and delivery order is the same as in the list-based loops;
//! `tests/mesh_reference.rs` keeps those loops as the reference.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use ia_sim::{Clocked, CompletionSink, Cycle, FnSink, SimLoop};
use ia_trace::{ComponentTrace, TraceLog, Tracer};

use crate::mesh::{port_count, MeshConfig, Port, RouteTable};
use crate::NocError;

/// Router microarchitecture under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouterKind {
    /// Input-queued XY routing.
    Buffered,
    /// BLESS-style bufferless deflection routing.
    BufferlessDeflection,
}

/// Synthetic traffic pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Uniform-random destinations.
    UniformRandom,
    /// A fraction of packets target one hotspot node.
    Hotspot {
        /// The hotspot node index.
        node: usize,
        /// Fraction of traffic directed at it, in [0, 1].
        fraction: f64,
    },
    /// Destination = bit-complement of the source index.
    BitComplement,
}

/// A single-flit packet. The destination is a flat node index so the
/// routing hot loops index the precomputed [`RouteTable`] directly.
///
/// Neither mesh counts hops as a flit moves. XY routes are minimal, so a
/// buffered flit's `hops` is its Manhattan distance, set at injection. A
/// bufferless flit moves on every cycle it is in flight, so its hop count
/// is its latency and `hops` stays 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Packet {
    id: u64,
    dst: u32,
    injected_at: u64,
    hops: u32,
    deflections: u32,
}

impl Packet {
    fn delivered(&self, now: u64) -> Delivered {
        Delivered {
            latency: now - self.injected_at,
            hops: self.hops,
            deflections: self.deflections,
        }
    }
}

/// A slab arena of in-flight flits. Router queues hold `u32` handles into
/// it; freed slots are recycled through a free list, so the steady state
/// allocates nothing and moving a flit between routers copies four bytes
/// instead of the whole packet.
#[derive(Debug, Default)]
struct FlitArena {
    slots: Vec<Packet>,
    free: Vec<u32>,
}

impl FlitArena {
    fn alloc(&mut self, p: Packet) -> u32 {
        if let Some(h) = self.free.pop() {
            self.slots[h as usize] = p;
            h
        } else {
            self.slots.push(p);
            (self.slots.len() - 1) as u32
        }
    }

    #[inline]
    fn release(&mut self, h: u32) {
        self.free.push(h);
    }
}

/// The injection test `gen::<f64>() < rate` as an integer threshold on
/// the same draw. `gen::<f64>()` is exactly `(x >> 11) · 2⁻⁵³` for the
/// raw word `x`, so it is below `rate` iff the integer `x >> 11` is below
/// `ceil(rate · 2⁵³)`; scaling by a power of two is exact, so this holds
/// for every rate, not only representable multiples of 2⁻⁵³. The cast
/// saturates: NaN and negative rates give 0 (never inject), rates of 1 or
/// more give at least 2⁵³ (always inject), as the float compare does.
fn inject_threshold(rate: f64) -> u64 {
    (rate * (1u64 << 53) as f64).ceil() as u64
}

/// One injection draw against a threshold from [`inject_threshold`].
#[inline]
fn injects(rng: &mut SmallRng, threshold: u64) -> bool {
    (rng.next_u64() >> 11) < threshold
}

/// A flit waiting in a buffered router: its handle plus its destination,
/// so routing it onward never touches the arena. Its age (id) stays in
/// the arena, which keeps lanes at eight bytes a flit.
#[derive(Debug, Clone, Copy)]
struct QEntry {
    h: u32,
    dst: u32,
}

/// A flit on its way to a neighbouring buffered router, with the lane it
/// joins there (`None`: that router is its destination).
#[derive(Debug, Clone, Copy)]
struct Hop {
    node: u32,
    lane: Option<Port>,
    e: QEntry,
}

/// The per-node state of a buffered router besides its lanes.
#[derive(Debug, Clone, Copy, Default)]
struct Router {
    /// Bit `p` set while the lane of output port `p` holds flits.
    busy: u8,
    /// Live entries of `eject`.
    ejects: u8,
    /// Handles of the flits that reached this node on the last cycle. At
    /// most one arrives per input link per cycle, all leave at the next
    /// visit and an injected flit never ejects at its source, so four
    /// slots do.
    eject: [u32; 4],
}

/// Empty bufferless arrival slot.
const NO_FLIT: u32 = u32::MAX;

/// What an empty arrival slot reads: a packet bound for no node.
const NO_PACKET: Packet = Packet {
    id: u64::MAX,
    dst: u32::MAX,
    injected_at: 0,
    hops: 0,
    deflections: 0,
};

/// Arrival slot, at the next router, of a flit leaving through port `p`
/// (by [`Port`] discriminant). Slots are ordered by sender index: a flit
/// sent North comes from the south neighbour (index `node − width`), one
/// sent East from the west neighbour (`node − 1`), one sent West from the
/// east (`node + 1`) and one sent South from the north (`node + width`).
const ARRIVAL_SLOT: [usize; 4] = [1, 2, 0, 3];

/// A packet leaving the network: the [`Clocked::Completion`] type of both
/// mesh simulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// Cycles from injection to ejection.
    pub latency: u64,
    /// Links traversed.
    pub hops: u32,
    /// Times the packet was mis-routed (bufferless only).
    pub deflections: u32,
}

/// Aggregate results of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocReport {
    /// Packets delivered.
    pub delivered: u64,
    /// Packets injected.
    pub injected: u64,
    /// Mean packet latency in cycles.
    pub avg_latency: f64,
    /// Worst packet latency.
    pub max_latency: u64,
    /// Mean hops per delivered packet.
    pub avg_hops: f64,
    /// Total deflections (bufferless only).
    pub deflections: u64,
    /// Peak total buffer occupancy observed (buffered only).
    pub peak_buffering: usize,
    /// Delivered packets per node per cycle.
    pub throughput: f64,
}

/// Runs a `kind` router mesh under `traffic` at per-node injection rate
/// `rate` for `cycles` cycles.
///
/// # Errors
///
/// Returns [`NocError`] if `rate` is outside `[0, 1]` or a hotspot node
/// is out of range.
pub fn simulate(
    kind: RouterKind,
    mesh: MeshConfig,
    traffic: Traffic,
    rate: f64,
    cycles: u64,
    seed: u64,
) -> Result<NocReport, NocError> {
    run_mesh(kind, mesh, traffic, rate, cycles, seed, false).map(|(report, _)| report)
}

/// [`simulate`], additionally recording an `ia-trace` log of per-cycle
/// mesh activity (`noc.active`/`noc.idle` marks, `noc.deflect`
/// instants) on track `"noc"`. Tracing never touches the RNG stream, so
/// the [`NocReport`] is bit-identical to [`simulate`]'s.
///
/// # Errors
///
/// Returns [`NocError`] under the same conditions as [`simulate`].
pub fn simulate_traced(
    kind: RouterKind,
    mesh: MeshConfig,
    traffic: Traffic,
    rate: f64,
    cycles: u64,
    seed: u64,
) -> Result<(NocReport, TraceLog), NocError> {
    run_mesh(kind, mesh, traffic, rate, cycles, seed, true).map(|(report, log)| {
        (
            report,
            // lint: allow(P001, run_mesh(traced=true) always yields a log)
            log.expect("traced run yields a log"),
        )
    })
}

fn run_mesh(
    kind: RouterKind,
    mesh: MeshConfig,
    traffic: Traffic,
    rate: f64,
    cycles: u64,
    seed: u64,
    traced: bool,
) -> Result<(NocReport, Option<TraceLog>), NocError> {
    if !(0.0..=1.0).contains(&rate) {
        return Err(NocError::invalid("injection rate must be in [0, 1]"));
    }
    if let Traffic::Hotspot { node, fraction } = traffic {
        if node >= mesh.nodes() {
            return Err(NocError::invalid("hotspot node out of range"));
        }
        if !(0.0..=1.0).contains(&fraction) {
            return Err(NocError::invalid("hotspot fraction must be in [0, 1]"));
        }
    }
    let log_of = |trace: ComponentTrace| {
        let mut log = TraceLog::new();
        log.push(trace);
        log
    };
    match kind {
        RouterKind::Buffered => {
            let mut sim = BufferedMeshSim::new(mesh, traffic, rate, cycles, seed);
            if traced {
                sim.enable_cycle_trace(ia_trace::DEFAULT_EVENT_CAPACITY);
            }
            let tally = drive(&mut sim, cycles);
            let log = traced.then(|| log_of(sim.take_cycle_trace()));
            Ok((
                tally.report(mesh, cycles, sim.injected(), sim.peak_buffering()),
                log,
            ))
        }
        RouterKind::BufferlessDeflection => {
            let mut sim = BufferlessMeshSim::new(mesh, traffic, rate, cycles, seed);
            if traced {
                sim.enable_cycle_trace(ia_trace::DEFAULT_EVENT_CAPACITY);
            }
            let tally = drive(&mut sim, cycles);
            let log = traced.then(|| log_of(sim.take_cycle_trace()));
            Ok((tally.report(mesh, cycles, sim.injected(), 0), log))
        }
    }
}

/// Drives a mesh to its horizon through the event-driven engine,
/// aggregating delivered packets.
fn drive<C: Clocked<Completion = Delivered>>(sim: &mut C, cycles: u64) -> Tally {
    let mut tally = Tally::default();
    let mut engine = SimLoop::new();
    let mut sink = FnSink(|d: Delivered| tally.add(d));
    engine.run_while(sim, &mut sink, Cycle::new(cycles), |_| true);
    tally
}

/// Picks a destination node (flat index) for a packet injected at `src`.
/// The RNG draw sequence is identical per traffic pattern regardless of
/// how the caller stores destinations.
fn pick_destination(mesh: MeshConfig, traffic: Traffic, src: usize, rng: &mut SmallRng) -> usize {
    match traffic {
        Traffic::UniformRandom => {
            let mut d = rng.gen_range(0..mesh.nodes());
            if d == src {
                d = (d + 1) % mesh.nodes();
            }
            d
        }
        Traffic::Hotspot { node, fraction } => {
            if rng.gen::<f64>() < fraction && node != src {
                node
            } else {
                pick_destination(mesh, Traffic::UniformRandom, src, rng)
            }
        }
        Traffic::BitComplement => {
            let d = (mesh.nodes() - 1 - src) % mesh.nodes();
            if d == src {
                (d + 1) % mesh.nodes()
            } else {
                d
            }
        }
    }
}

#[derive(Debug, Default)]
struct Tally {
    delivered: u64,
    total_latency: u64,
    max_latency: u64,
    total_hops: u64,
    deflections: u64,
}

impl Tally {
    fn add(&mut self, d: Delivered) {
        self.delivered += 1;
        self.total_latency += d.latency;
        self.max_latency = self.max_latency.max(d.latency);
        self.total_hops += u64::from(d.hops);
        self.deflections += u64::from(d.deflections);
    }

    fn report(
        &self,
        mesh: MeshConfig,
        cycles: u64,
        injected: u64,
        peak_buffering: usize,
    ) -> NocReport {
        NocReport {
            delivered: self.delivered,
            injected,
            avg_latency: if self.delivered == 0 {
                0.0
            } else {
                self.total_latency as f64 / self.delivered as f64
            },
            max_latency: self.max_latency,
            avg_hops: if self.delivered == 0 {
                0.0
            } else {
                self.total_hops as f64 / self.delivered as f64
            },
            deflections: self.deflections,
            peak_buffering,
            throughput: self.delivered as f64 / (mesh.nodes() as f64 * cycles as f64),
        }
    }
}

/// An input-queued XY-routed mesh as a [`Clocked`] component.
///
/// Each router buffers its flits in four lanes, one per output port, each
/// in id (age) order, plus an eject list for flits that have arrived. A
/// visit ejects the arrivals oldest first and forwards the head of every
/// busy lane: the oldest flit bound for each port, which is what an
/// age-ordered scan of one input queue picks.
///
/// `rate` must already be validated to [0, 1] (done by [`simulate`]).
#[derive(Debug)]
pub struct BufferedMeshSim {
    mesh: MeshConfig,
    traffic: Traffic,
    /// [`inject_threshold`] of the injection rate.
    threshold: u64,
    horizon: u64,
    rng: SmallRng,
    now: u64,
    table: RouteTable,
    arena: FlitArena,
    /// `lanes[node * 4 + port]`: the flits at `node` routed out of `port`,
    /// in id order.
    lanes: Vec<VecDeque<QEntry>>,
    routers: Vec<Router>,
    /// One bit per node, set while its router holds a flit: the routing
    /// loop visits only occupied routers instead of scanning the whole
    /// mesh every cycle.
    occupied: Vec<u64>,
    /// Live total buffer occupancy, lanes and eject lists together.
    occupancy: usize,
    next_id: u64,
    injected: u64,
    peak: usize,
    /// This cycle's link traversals, applied once every router has been
    /// visited so no flit moves twice in a cycle. Drained every tick.
    moves: Vec<Hop>,
    tracer: Tracer,
}

impl BufferedMeshSim {
    /// Creates a mesh that will accept injections for `horizon` cycles.
    #[must_use]
    pub fn new(mesh: MeshConfig, traffic: Traffic, rate: f64, horizon: u64, seed: u64) -> Self {
        BufferedMeshSim {
            mesh,
            traffic,
            threshold: inject_threshold(rate),
            horizon,
            rng: SmallRng::seed_from_u64(seed),
            now: 0,
            table: RouteTable::new(mesh),
            arena: FlitArena::default(),
            lanes: vec![VecDeque::new(); mesh.nodes() * 4],
            routers: vec![Router::default(); mesh.nodes()],
            occupied: vec![0; mesh.nodes().div_ceil(64)],
            occupancy: 0,
            next_id: 0,
            injected: 0,
            peak: 0,
            moves: Vec::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Packets injected so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Peak total buffer occupancy observed so far.
    #[must_use]
    pub fn peak_buffering(&self) -> usize {
        self.peak
    }

    /// Enables per-cycle activity tracing (track `"noc"`). Off by
    /// default; one branch per cycle, no effect on the RNG stream.
    pub fn enable_cycle_trace(&mut self, capacity: usize) {
        self.tracer = Tracer::new("noc", capacity);
    }

    /// Drains the recorded trace.
    #[must_use]
    pub fn take_cycle_trace(&mut self) -> ComponentTrace {
        self.tracer.take()
    }
}

impl Clocked for BufferedMeshSim {
    type Completion = Delivered;

    fn now(&self) -> Cycle {
        Cycle::new(self.now)
    }

    // lint: hot-path
    fn tick_into(&mut self, sink: &mut dyn CompletionSink<Delivered>) {
        let now = self.now;
        let n = self.mesh.nodes();
        // Inject. Every node draws injection randomness every cycle, so
        // this loop cannot skip nodes without changing the RNG stream. A
        // new flit is the youngest, so it joins the back of its lane.
        for src in 0..n {
            if injects(&mut self.rng, self.threshold) {
                let dst = pick_destination(self.mesh, self.traffic, src, &mut self.rng) as u32;
                let hops = self
                    .mesh
                    .distance(self.table.coord(src), self.table.coord(dst as usize));
                let h = self.arena.alloc(Packet {
                    id: self.next_id,
                    dst,
                    injected_at: now,
                    hops,
                    deflections: 0,
                });
                let port = self
                    .table
                    .xy_port(src, dst as usize)
                    // lint: allow(P001, pick_destination never picks the source)
                    .expect("injected packets are never local") as usize;
                self.lanes[src * 4 + port].push_back(QEntry { h, dst });
                self.routers[src].busy |= 1 << port;
                self.occupied[src / 64] |= 1 << (src % 64);
                self.occupancy += 1;
                self.next_id += 1;
                self.injected += 1;
            }
        }
        self.peak = self.peak.max(self.occupancy);
        if self.tracer.is_enabled() {
            let phase = if self.occupancy > 0 {
                "noc.active"
            } else {
                "noc.idle"
            };
            self.tracer.mark(phase, now);
        }

        // Route: each router ejects everything that has arrived, oldest
        // first, and each output port carries the oldest flit bound for
        // it — the head of that port's lane. Only occupied routers are
        // visited; an empty router has nothing to eject or forward.
        let arena = &mut self.arena;
        for w in 0..self.occupied.len() {
            let mut word = self.occupied[w];
            while word != 0 {
                let node = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let r = &mut self.routers[node];
                let ejects = &mut r.eject[..usize::from(r.ejects)];
                ejects.sort_unstable_by_key(|&h| arena.slots[h as usize].id);
                for &h in ejects.iter() {
                    sink.complete(arena.slots[h as usize].delivered(now));
                    arena.release(h);
                }
                self.occupancy -= usize::from(r.ejects);
                r.ejects = 0;
                let mut busy = r.busy;
                while busy != 0 {
                    let port = busy.trailing_zeros() as usize;
                    busy &= busy - 1;
                    let lane = &mut self.lanes[node * 4 + port];
                    // lint: allow(P001, a busy bit marks a non-empty lane)
                    let e = lane.pop_front().expect("busy lanes hold a flit");
                    r.busy &= !(u8::from(lane.is_empty()) << port);
                    let next = self
                        .table
                        .neighbor_index(node, Port::from_index(port as u8))
                        // lint: allow(P001, xy_route only returns in-mesh ports)
                        .expect("xy routes stay in mesh");
                    self.moves.push(Hop {
                        node: next as u32,
                        lane: self.table.xy_port(next, e.dst as usize),
                        e,
                    });
                }
                if r.busy == 0 {
                    self.occupied[w] &= !(1 << (node % 64));
                }
            }
        }
        for hop in self.moves.drain(..) {
            let node = hop.node as usize;
            let r = &mut self.routers[node];
            match hop.lane {
                Some(port) => {
                    let lane = &mut self.lanes[node * 4 + port as usize];
                    let id = |e: &QEntry| arena.slots[e.h as usize].id;
                    let new = id(&hop.e);
                    if lane.back().is_none_or(|b| id(b) < new) {
                        lane.push_back(hop.e);
                    } else {
                        let pos = lane.partition_point(|e| id(e) < new);
                        lane.insert(pos, hop.e);
                    }
                    r.busy |= 1 << port as u8;
                }
                None => {
                    r.eject[usize::from(r.ejects)] = hop.e.h;
                    r.ejects += 1;
                }
            }
            self.occupied[node / 64] |= 1 << (node % 64);
        }
        self.now += 1;
    }

    fn next_event_at(&self) -> Option<Cycle> {
        // Injection draws randomness every cycle up to the horizon, so
        // every cycle is an event; there is nothing to skip.
        (self.now < self.horizon).then(|| Cycle::new(self.now))
    }
}

/// A BLESS-style bufferless deflection mesh as a [`Clocked`] component.
///
/// A router holds at most one flit per input link, so each node has four
/// fixed arrival slots, written by its neighbours as flits leave them and
/// read on the next cycle in slot (sender index) order.
///
/// `rate` must already be validated to [0, 1] (done by [`simulate`]).
#[derive(Debug)]
pub struct BufferlessMeshSim {
    mesh: MeshConfig,
    traffic: Traffic,
    /// [`inject_threshold`] of the injection rate.
    threshold: u64,
    horizon: u64,
    rng: SmallRng,
    now: u64,
    table: RouteTable,
    arena: FlitArena,
    /// `arrivals[node][slot]`: the flits at each router this cycle, by
    /// [`ARRIVAL_SLOT`]; [`NO_FLIT`] marks an empty slot. Every slot is
    /// emptied as its router is visited.
    arrivals: Vec<[u32; 4]>,
    /// Next cycle's arrivals. Each (node, slot) pair has one sender, so
    /// leaving flits land here directly; swapped with `arrivals` at the
    /// end of every tick.
    next: Vec<[u32; 4]>,
    /// `exits[node][port]`: `neighbour * 4 + slot`, the arrival slot a
    /// flit leaving `node` through `port` lands in (`u32::MAX` off-mesh).
    exits: Vec<[u32; 4]>,
    next_id: u64,
    injected: u64,
    tracer: Tracer,
}

impl BufferlessMeshSim {
    /// Creates a mesh that will accept injections for `horizon` cycles.
    #[must_use]
    pub fn new(mesh: MeshConfig, traffic: Traffic, rate: f64, horizon: u64, seed: u64) -> Self {
        let table = RouteTable::new(mesh);
        let exits = (0..mesh.nodes())
            .map(|node| {
                Port::all().map(|port| match table.neighbor_index(node, port) {
                    Some(nb) => (nb * 4 + ARRIVAL_SLOT[port as usize]) as u32,
                    None => u32::MAX,
                })
            })
            .collect();
        BufferlessMeshSim {
            mesh,
            traffic,
            threshold: inject_threshold(rate),
            horizon,
            rng: SmallRng::seed_from_u64(seed),
            now: 0,
            table,
            arena: FlitArena::default(),
            arrivals: vec![[NO_FLIT; 4]; mesh.nodes()],
            next: vec![[NO_FLIT; 4]; mesh.nodes()],
            exits,
            next_id: 0,
            injected: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Packets injected so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Enables per-cycle activity tracing (track `"noc"`). Off by
    /// default; one branch per cycle, no effect on the RNG stream.
    pub fn enable_cycle_trace(&mut self, capacity: usize) {
        self.tracer = Tracer::new("noc", capacity);
    }

    /// Drains the recorded trace.
    #[must_use]
    pub fn take_cycle_trace(&mut self) -> ComponentTrace {
        self.tracer.take()
    }

    /// Sends flit `h` out of `node` through port `port_bit` (a one-bit
    /// port mask) into the next cycle's arrival slot of the neighbour.
    #[inline]
    fn send(&mut self, node: usize, port_bit: u8, h: u32) {
        let exit = self.exits[node][port_bit.trailing_zeros() as usize];
        self.next[(exit / 4) as usize][(exit % 4) as usize] = h;
    }
}

impl Clocked for BufferlessMeshSim {
    type Completion = Delivered;

    fn now(&self) -> Cycle {
        Cycle::new(self.now)
    }

    // lint: hot-path
    fn tick_into(&mut self, sink: &mut dyn CompletionSink<Delivered>) {
        let now = self.now;
        let n = self.mesh.nodes();
        if self.tracer.is_enabled() {
            let occupancy = self.arrivals.iter().flatten().filter(|&&h| h != NO_FLIT);
            let phase = if occupancy.count() > 0 {
                "noc.active"
            } else {
                "noc.idle"
            };
            self.tracer.mark(phase, now);
        }
        let mut deflected_this_cycle = 0u64;
        // Every node is visited: the injection gate below conditions the
        // RNG draw on local occupancy, so even idle nodes participate in
        // the random stream.
        for node in 0..n {
            let slots = std::mem::replace(&mut self.arrivals[node], [NO_FLIT; 4]);
            let valid = self.table.valid_ports(node);
            let mut live = slots
                .iter()
                .enumerate()
                .fold(0u8, |m, (i, &h)| m | u8::from(h != NO_FLIT) << i);
            if live == 0 {
                // An empty router always has a free port, so it draws;
                // a lone new flit takes its first productive port.
                if injects(&mut self.rng, self.threshold) {
                    let dst = pick_destination(self.mesh, self.traffic, node, &mut self.rng);
                    let h = self.arena.alloc(Packet {
                        id: self.next_id,
                        dst: dst as u32,
                        injected_at: now,
                        hops: 0,
                        deflections: 0,
                    });
                    self.next_id += 1;
                    self.injected += 1;
                    let good = self.table.productive_ports(node, dst).mask();
                    self.send(node, good & good.wrapping_neg(), h);
                }
                continue;
            }

            // Read all four slots without branching on which are live:
            // an empty one reads a packet bound for no node.
            let mut flits = [(0u64, 0u32); 4];
            let mut bound = 0u8;
            for (i, (&h, flit)) in slots.iter().zip(&mut flits).enumerate() {
                let p = self.arena.slots.get(h as usize).unwrap_or(&NO_PACKET);
                *flit = (p.id, p.dst);
                bound |= u8::from(p.dst == node as u32) << i;
            }
            let mut handles = slots;

            // Ejection: the first arrival bound here, in slot order, may
            // leave the network.
            if bound != 0 {
                let i = bound.trailing_zeros() as usize;
                let p = &self.arena.slots[handles[i] as usize];
                let latency = now - p.injected_at;
                sink.complete(Delivered {
                    latency,
                    hops: latency as u32,
                    deflections: p.deflections,
                });
                self.arena.release(handles[i]);
                live &= !(1 << i);
            }

            // Injection: allowed only if a free output slot will remain.
            // The new flit takes any slot left free.
            let mut k = port_count(live);
            if k < valid.len() && injects(&mut self.rng, self.threshold) {
                let dst = pick_destination(self.mesh, self.traffic, node, &mut self.rng) as u32;
                let i = (!live).trailing_zeros() as usize;
                handles[i] = self.arena.alloc(Packet {
                    id: self.next_id,
                    dst,
                    injected_at: now,
                    hops: 0,
                    deflections: 0,
                });
                flits[i] = (self.next_id, dst);
                live |= 1 << i;
                k += 1;
                self.next_id += 1;
                self.injected += 1;
            }

            // Age-ordered port allocation: oldest picks first (BLESS
            // "oldest-first" guarantees livelock freedom). Ids are
            // allocated monotonically, so id order is age order. A sort
            // key packs the id (far below 2⁶², so the shift loses no
            // bit) above the flit's slot; a five-comparator network
            // orders four keys without branches, free slots (all ones)
            // sorting last.
            let mut keys = [u64::MAX; 4];
            for (i, key) in keys.iter_mut().enumerate() {
                if live & (1 << i) != 0 {
                    *key = flits[i].0 << 2 | i as u64;
                }
            }
            for (a, b) in [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)] {
                let (lo, hi) = (keys[a].min(keys[b]), keys[a].max(keys[b]));
                keys[a] = lo;
                keys[b] = hi;
            }
            let mut free = valid.mask();
            for &key in &keys[..k] {
                let i = (key & 3) as usize;
                let (h, dst) = (handles[i], flits[i].1);
                // The oldest flit takes its first free productive port;
                // with none free, it is deflected to the first free port.
                let good = self.table.productive_ports(node, dst as usize).mask() & free;
                let pick = if good != 0 { good } else { free };
                let bit = pick & pick.wrapping_neg();
                free &= !bit;
                let deflected = u32::from(good == 0);
                self.arena.slots[h as usize].deflections += deflected;
                deflected_this_cycle += u64::from(deflected);
                self.send(node, bit, h);
            }
        }
        std::mem::swap(&mut self.arrivals, &mut self.next);
        if self.tracer.is_enabled() && deflected_this_cycle > 0 {
            self.tracer
                .instant_value("noc.deflect", now, deflected_this_cycle as f64);
        }
        self.now += 1;
    }

    fn next_event_at(&self) -> Option<Cycle> {
        // Injection draws randomness every cycle up to the horizon, so
        // every cycle is an event; there is nothing to skip.
        (self.now < self.horizon).then(|| Cycle::new(self.now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> MeshConfig {
        MeshConfig::new(4, 4).unwrap()
    }

    /// An RNG whose every word is `x`.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u32(&mut self) -> u32 {
            (self.0 >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// At the draws around each threshold, and at both ends of the draw
    /// range, the integer test decides exactly as `gen::<f64>() < rate`,
    /// including for rates the constructors do not reject.
    #[test]
    fn injection_threshold_matches_the_float_compare() {
        const TOP: u64 = (1 << 53) - 1;
        let tiny = 1.0 / (1u64 << 53) as f64;
        for rate in [
            0.0,
            tiny,
            0.02,
            0.1,
            0.4,
            1.0 - tiny,
            1.0,
            f64::NAN,
            -0.5,
            1.5,
        ] {
            let thr = inject_threshold(rate);
            let draws = [thr.wrapping_sub(1), thr, thr.wrapping_add(1), 0, TOP];
            for m in draws.into_iter().filter(|&m| m <= TOP) {
                // Low bits below the 53 the float keeps must not matter.
                for low in [0, 0x7FF] {
                    let x = m << 11 | low;
                    assert_eq!(
                        (x >> 11) < thr,
                        Fixed(x).gen::<f64>() < rate,
                        "rate {rate}, threshold {thr}, draw {m}"
                    );
                }
            }
        }
        assert_eq!(inject_threshold(0.0), 0);
        assert_eq!(inject_threshold(f64::NAN), 0);
        assert_eq!(inject_threshold(-0.5), 0);
        assert_eq!(inject_threshold(1.0), 1 << 53);
        assert!(inject_threshold(1.5) > TOP);
    }

    #[test]
    fn traced_simulation_matches_untraced_report_exactly() {
        for kind in [RouterKind::Buffered, RouterKind::BufferlessDeflection] {
            let plain = simulate(kind, mesh(), Traffic::UniformRandom, 0.3, 400, 7).unwrap();
            let (traced, log) =
                simulate_traced(kind, mesh(), Traffic::UniformRandom, 0.3, 400, 7).unwrap();
            assert_eq!(plain, traced, "tracing must not perturb the simulation");
            assert_eq!(log.components.len(), 1);
            let noc = &log.components[0];
            assert_eq!(noc.track, "noc");
            assert_eq!(
                noc.attributed(),
                400,
                "every simulated cycle lands in exactly one mark phase"
            );
            assert!(
                noc.marks.iter().any(|(phase, _)| *phase == "noc.active"),
                "a loaded mesh must show active cycles"
            );
            if kind == RouterKind::BufferlessDeflection {
                let deflects: f64 = noc
                    .instants
                    .iter()
                    .filter(|i| i.name == "noc.deflect")
                    .map(|i| i.sum)
                    .sum();
                // The report tallies deflections of *delivered* packets
                // only; instants also see flits still in flight at the
                // horizon, so the trace is an upper bound.
                assert!(
                    deflects as u64 >= traced.deflections && traced.deflections > 0,
                    "deflect instants ({deflects}) must cover the report's \
                     delivered-packet deflections ({})",
                    traced.deflections
                );
            }
        }
    }

    #[test]
    fn rate_validation() {
        assert!(simulate(
            RouterKind::Buffered,
            mesh(),
            Traffic::UniformRandom,
            1.5,
            10,
            0
        )
        .is_err());
        assert!(simulate(
            RouterKind::Buffered,
            mesh(),
            Traffic::Hotspot {
                node: 99,
                fraction: 0.5
            },
            0.1,
            10,
            0
        )
        .is_err());
    }

    #[test]
    fn both_routers_deliver_at_low_load() {
        for kind in [RouterKind::Buffered, RouterKind::BufferlessDeflection] {
            let r = simulate(kind, mesh(), Traffic::UniformRandom, 0.05, 3000, 1).unwrap();
            assert!(r.delivered > 0, "{kind:?}");
            assert!(
                r.delivered as f64 >= r.injected as f64 * 0.9,
                "{kind:?}: delivered {} of {}",
                r.delivered,
                r.injected
            );
            assert!(r.avg_latency >= 1.0);
        }
    }

    #[test]
    fn bufferless_matches_buffered_latency_at_low_load() {
        let b = simulate(
            RouterKind::Buffered,
            mesh(),
            Traffic::UniformRandom,
            0.02,
            4000,
            2,
        )
        .unwrap();
        let d = simulate(
            RouterKind::BufferlessDeflection,
            mesh(),
            Traffic::UniformRandom,
            0.02,
            4000,
            2,
        )
        .unwrap();
        assert!(
            (d.avg_latency - b.avg_latency).abs() < 3.0,
            "low-load latencies should be close: bufferless {:.1} vs buffered {:.1}",
            d.avg_latency,
            b.avg_latency
        );
    }

    #[test]
    fn bufferless_deflects_under_load_buffered_queues() {
        let b = simulate(
            RouterKind::Buffered,
            mesh(),
            Traffic::UniformRandom,
            0.35,
            3000,
            3,
        )
        .unwrap();
        let d = simulate(
            RouterKind::BufferlessDeflection,
            mesh(),
            Traffic::UniformRandom,
            0.35,
            3000,
            3,
        )
        .unwrap();
        assert!(d.deflections > 0, "high load must cause deflections");
        assert!(b.peak_buffering > 0, "high load must queue packets");
        assert_eq!(b.deflections, 0, "buffered routers never deflect");
    }

    #[test]
    fn hotspot_traffic_is_harder_than_uniform() {
        // At this rate the 16 nodes offer ~2.8 packets/cycle to the
        // hotspot's ≤4 incoming links: the queues around it must grow.
        let u = simulate(
            RouterKind::Buffered,
            mesh(),
            Traffic::UniformRandom,
            0.25,
            3000,
            4,
        )
        .unwrap();
        let h = simulate(
            RouterKind::Buffered,
            mesh(),
            Traffic::Hotspot {
                node: 5,
                fraction: 0.7,
            },
            0.25,
            3000,
            4,
        )
        .unwrap();
        assert!(
            h.avg_latency > 2.0 * u.avg_latency,
            "hotspot {:.1} vs uniform {:.1}",
            h.avg_latency,
            u.avg_latency
        );
    }

    #[test]
    fn hops_are_at_least_distance_on_average() {
        let r = simulate(
            RouterKind::Buffered,
            mesh(),
            Traffic::BitComplement,
            0.05,
            2000,
            5,
        )
        .unwrap();
        // Bit-complement on a 4x4 mesh averages > 2 hops.
        assert!(r.avg_hops >= 2.0, "avg hops {:.2}", r.avg_hops);
    }

    #[test]
    fn throughput_reflects_injection_rate_below_saturation() {
        let r = simulate(
            RouterKind::Buffered,
            mesh(),
            Traffic::UniformRandom,
            0.05,
            5000,
            6,
        )
        .unwrap();
        assert!(
            (r.throughput - 0.05).abs() < 0.01,
            "throughput {:.3}",
            r.throughput
        );
    }

    /// Reports recorded from the pre-`Clocked` per-cycle loops. The port
    /// transplanted the loop bodies verbatim (preserving RNG call order),
    /// so results must be bit-identical, not just statistically close.
    #[test]
    fn clocked_port_is_bit_identical_to_the_legacy_loop() {
        let m = mesh();
        let b = simulate(
            RouterKind::Buffered,
            m,
            Traffic::UniformRandom,
            0.12,
            2500,
            42,
        )
        .unwrap();
        assert_eq!(
            b,
            NocReport {
                delivered: 4792,
                injected: 4794,
                avg_latency: 2.684474123539232,
                max_latency: 6,
                avg_hops: 2.6085141903171953,
                deflections: 0,
                peak_buffering: 18,
                throughput: 0.1198,
            }
        );
        let bh = simulate(
            RouterKind::Buffered,
            m,
            Traffic::Hotspot {
                node: 5,
                fraction: 0.6,
            },
            0.2,
            1500,
            7,
        )
        .unwrap();
        assert_eq!(
            bh,
            NocReport {
                delivered: 4730,
                injected: 4789,
                avg_latency: 13.274207188160677,
                max_latency: 64,
                avg_hops: 2.3228329809725157,
                deflections: 0,
                peak_buffering: 77,
                throughput: 0.19708333333333333,
            }
        );
        let d = simulate(
            RouterKind::BufferlessDeflection,
            m,
            Traffic::UniformRandom,
            0.12,
            2500,
            42,
        )
        .unwrap();
        assert_eq!(
            d,
            NocReport {
                delivered: 4789,
                injected: 4794,
                avg_latency: 2.832950511589058,
                max_latency: 8,
                avg_hops: 2.832950511589058,
                deflections: 514,
                peak_buffering: 0,
                throughput: 0.119725,
            }
        );
        let dh = simulate(
            RouterKind::BufferlessDeflection,
            m,
            Traffic::Hotspot {
                node: 5,
                fraction: 0.6,
            },
            0.2,
            1500,
            7,
        )
        .unwrap();
        assert_eq!(
            dh,
            NocReport {
                delivered: 2755,
                injected: 2786,
                avg_latency: 17.664609800362978,
                max_latency: 107,
                avg_hops: 17.664609800362978,
                deflections: 21079,
                peak_buffering: 0,
                throughput: 0.11479166666666667,
            }
        );
    }

    /// The meshes honor the `Clocked` contract when driven by hand.
    #[test]
    fn mesh_sims_are_well_behaved_clocked_components() {
        let mut sim = BufferedMeshSim::new(mesh(), Traffic::UniformRandom, 0.1, 100, 9);
        assert_eq!(Clocked::now(&sim), Cycle::ZERO);
        assert_eq!(sim.next_event_at(), Some(Cycle::ZERO));
        let mut out: Vec<Delivered> = Vec::new();
        let mut engine = SimLoop::new();
        let outcome = engine.run_while(&mut sim, &mut out, Cycle::new(100), |_| true);
        assert_eq!(outcome, ia_sim::RunOutcome::Drained);
        assert_eq!(Clocked::now(&sim), Cycle::new(100));
        assert_eq!(sim.next_event_at(), None, "horizon reached: drained");
        assert_eq!(
            engine.stats().events_processed,
            100,
            "every cycle is an event"
        );
        assert_eq!(
            engine.stats().cycles_skipped,
            0,
            "injection leaves no idle gaps"
        );
        assert!(
            out.len() as u64 <= sim.injected(),
            "can't deliver more than injected"
        );
    }
}
