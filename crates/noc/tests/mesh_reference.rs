//! The shipped mesh routers checked against reference routers.
//!
//! The references are the list-based loops the per-output lanes
//! (buffered) and fixed arrival slots (bufferless) replaced, written over
//! the public `MeshConfig` geometry and `SmallRng`: a buffered router
//! keeps one age-ordered input queue and rescans it every cycle, and a
//! bufferless router keeps its arrivals in a list in the order they were
//! appended. Both draw their randomness in the order stated by
//! [`pick_destination`] and [`reference_buffered`] /
//! [`reference_bufferless`], so the shipped meshes must produce the same
//! ordered delivery stream, injection count, peak buffering and trace.

use ia_noc::{
    simulate_traced, BufferedMeshSim, BufferlessMeshSim, Coord, Delivered, MeshConfig, Ports,
    RouterKind, Traffic,
};
use ia_sim::{Clocked, Cycle, SimLoop};
use ia_trace::{ComponentTrace, Tracer, DEFAULT_EVENT_CAPACITY};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Picks a destination for a packet injected at `src`. The draws: one
/// `gen::<f64>()` for a hotspot pattern, then — unless the hotspot was
/// chosen — one `gen_range(0..nodes)` for uniform traffic; bit-complement
/// traffic draws nothing.
fn pick_destination(mesh: MeshConfig, traffic: Traffic, src: usize, rng: &mut SmallRng) -> usize {
    match traffic {
        Traffic::UniformRandom => {
            let d = rng.gen_range(0..mesh.nodes());
            if d == src {
                (d + 1) % mesh.nodes()
            } else {
                d
            }
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

#[derive(Debug, Clone, Copy)]
struct Flit {
    id: u64,
    dst: Coord,
    injected_at: u64,
    hops: u32,
    deflections: u32,
}

impl Flit {
    fn delivered(self, now: u64) -> Delivered {
        Delivered {
            latency: now - self.injected_at,
            hops: self.hops,
            deflections: self.deflections,
        }
    }
}

/// Everything a run exposes: the deliveries in sink order, the injection
/// count, the peak buffering (0 for bufferless) and the cycle trace.
#[derive(Debug)]
struct Run {
    delivered: Vec<Delivered>,
    injected: u64,
    peak_buffering: usize,
    trace: ComponentTrace,
}

/// Which of several arrivals bound for the same router a bufferless
/// reference ejects.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Eject {
    /// The first in arrival order: the model.
    First,
    /// The last: a deliberately wrong reference for the self-test.
    Last,
}

/// The buffered reference: per cycle, every node draws `gen::<f64>() <
/// rate` (and, on success, a destination) in index order; then every
/// router scans its age-ordered queue, ejecting each flit that has
/// arrived and forwarding the oldest flit for each XY output port; the
/// forwarded flits join their next queue in age order.
fn reference_buffered(
    mesh: MeshConfig,
    traffic: Traffic,
    rate: f64,
    cycles: u64,
    seed: u64,
) -> Run {
    let n = mesh.nodes();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tracer = Tracer::new("noc", DEFAULT_EVENT_CAPACITY);
    let mut queues: Vec<Vec<Flit>> = vec![Vec::new(); n];
    let (mut next_id, mut peak) = (0u64, 0usize);
    let mut delivered = Vec::new();
    for now in 0..cycles {
        for (src, queue) in queues.iter_mut().enumerate() {
            if rng.gen::<f64>() < rate {
                let dst = pick_destination(mesh, traffic, src, &mut rng);
                queue.push(Flit {
                    id: next_id,
                    dst: mesh.coord(dst),
                    injected_at: now,
                    hops: 0,
                    deflections: 0,
                });
                next_id += 1;
            }
        }
        let occupancy: usize = queues.iter().map(Vec::len).sum();
        peak = peak.max(occupancy);
        tracer.mark(
            if occupancy > 0 {
                "noc.active"
            } else {
                "noc.idle"
            },
            now,
        );
        let mut moves = Vec::new();
        for (node, queue) in queues.iter_mut().enumerate() {
            let here = mesh.coord(node);
            let mut used = Ports::default();
            let mut stay = Vec::new();
            for mut f in std::mem::take(queue) {
                match mesh.xy_route(here, f.dst) {
                    None => delivered.push(f.delivered(now)),
                    Some(port) if used.contains(port) => stay.push(f),
                    Some(port) => {
                        used.push(port);
                        f.hops += 1;
                        let next = mesh.neighbor(here, port).expect("xy stays in mesh");
                        moves.push((mesh.index(next), f));
                    }
                }
            }
            *queue = stay;
        }
        for (node, f) in moves {
            let q = &mut queues[node];
            let pos = q.partition_point(|g| g.id < f.id);
            q.insert(pos, f);
        }
    }
    Run {
        delivered,
        injected: next_id,
        peak_buffering: peak,
        trace: tracer.take(),
    }
}

/// The bufferless reference: per cycle, every router in index order
/// ejects one arrival bound for it, then — if fewer flits than ports
/// remain — draws `gen::<f64>() < rate` (and, on success, a
/// destination); its flits, oldest first, take their first free
/// productive port in (East, West, North, South) order, or are deflected
/// to the first free port. Flits reach the next router's list in the
/// order they were sent.
fn reference_bufferless(
    mesh: MeshConfig,
    traffic: Traffic,
    rate: f64,
    cycles: u64,
    seed: u64,
    eject: Eject,
) -> Run {
    let n = mesh.nodes();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tracer = Tracer::new("noc", DEFAULT_EVENT_CAPACITY);
    let mut at_router: Vec<Vec<Flit>> = vec![Vec::new(); n];
    let mut next_id = 0u64;
    let mut delivered = Vec::new();
    for now in 0..cycles {
        let occupancy: usize = at_router.iter().map(Vec::len).sum();
        tracer.mark(
            if occupancy > 0 {
                "noc.active"
            } else {
                "noc.idle"
            },
            now,
        );
        let mut deflected = 0u64;
        let mut moves = Vec::new();
        for (node, arrivals) in at_router.iter_mut().enumerate() {
            let here = mesh.coord(node);
            let mut flits = std::mem::take(arrivals);
            let bound_here = |f: &Flit| f.dst == here;
            let pos = match eject {
                Eject::First => flits.iter().position(bound_here),
                Eject::Last => flits.iter().rposition(bound_here),
            };
            if let Some(pos) = pos {
                delivered.push(flits.remove(pos).delivered(now));
            }
            let valid = mesh.valid_ports(here);
            if flits.len() < valid.len() && rng.gen::<f64>() < rate {
                let dst = pick_destination(mesh, traffic, node, &mut rng);
                flits.push(Flit {
                    id: next_id,
                    dst: mesh.coord(dst),
                    injected_at: now,
                    hops: 0,
                    deflections: 0,
                });
                next_id += 1;
            }
            flits.sort_by_key(|f| f.id);
            let mut free = valid;
            for mut f in flits {
                let productive = mesh.productive_ports(here, f.dst);
                let port = productive
                    .iter()
                    .find(|&p| free.contains(p))
                    .or_else(|| free.first())
                    .expect("no more flits than ports");
                if !productive.contains(port) {
                    f.deflections += 1;
                    deflected += 1;
                }
                free.remove(port);
                f.hops += 1;
                let next = mesh.neighbor(here, port).expect("free ports are valid");
                moves.push((mesh.index(next), f));
            }
        }
        for (node, f) in moves {
            at_router[node].push(f);
        }
        if deflected > 0 {
            tracer.instant_value("noc.deflect", now, deflected as f64);
        }
    }
    Run {
        delivered,
        injected: next_id,
        peak_buffering: 0,
        trace: tracer.take(),
    }
}

/// Drives a shipped mesh through `SimLoop`, tracing every cycle.
fn shipped(
    kind: RouterKind,
    mesh: MeshConfig,
    traffic: Traffic,
    rate: f64,
    cycles: u64,
    seed: u64,
) -> Run {
    fn drive<C: Clocked<Completion = Delivered>>(sim: &mut C, cycles: u64) -> Vec<Delivered> {
        let mut delivered = Vec::new();
        SimLoop::new().run_while(sim, &mut delivered, Cycle::new(cycles), |_| true);
        delivered
    }
    match kind {
        RouterKind::Buffered => {
            let mut sim = BufferedMeshSim::new(mesh, traffic, rate, cycles, seed);
            sim.enable_cycle_trace(DEFAULT_EVENT_CAPACITY);
            let delivered = drive(&mut sim, cycles);
            Run {
                delivered,
                injected: sim.injected(),
                peak_buffering: sim.peak_buffering(),
                trace: sim.take_cycle_trace(),
            }
        }
        RouterKind::BufferlessDeflection => {
            let mut sim = BufferlessMeshSim::new(mesh, traffic, rate, cycles, seed);
            sim.enable_cycle_trace(DEFAULT_EVENT_CAPACITY);
            let delivered = drive(&mut sim, cycles);
            Run {
                delivered,
                injected: sim.injected(),
                peak_buffering: 0,
                trace: sim.take_cycle_trace(),
            }
        }
    }
}

/// Asserts that the shipped `kind` router matches its reference router on
/// one configuration, through both the `Clocked` port and
/// `simulate_traced`. `eject` selects the bufferless reference's rule.
fn check(
    kind: RouterKind,
    mesh: MeshConfig,
    traffic: Traffic,
    rate: f64,
    cycles: u64,
    seed: u64,
    eject: Eject,
) {
    let want = match kind {
        RouterKind::Buffered => reference_buffered(mesh, traffic, rate, cycles, seed),
        RouterKind::BufferlessDeflection => {
            reference_bufferless(mesh, traffic, rate, cycles, seed, eject)
        }
    };
    let got = shipped(kind, mesh, traffic, rate, cycles, seed);
    let case = format!(
        "{kind:?} on {}x{}, {traffic:?} at rate {rate}, seed {seed}",
        mesh.width, mesh.height
    );
    assert_eq!(
        got.injected, want.injected,
        "{case}: injections differ from the reference"
    );
    assert_eq!(
        got.peak_buffering, want.peak_buffering,
        "{case}: peak buffering differs from the reference"
    );
    assert!(
        got.delivered == want.delivered,
        "{case}: the delivery stream differs from the reference \
         ({} vs {} packets)",
        got.delivered.len(),
        want.delivered.len()
    );
    assert!(
        got.trace == want.trace,
        "{case}: the trace differs from the reference"
    );
    let (report, log) = simulate_traced(kind, mesh, traffic, rate, cycles, seed).unwrap();
    assert_eq!(report.delivered, want.delivered.len() as u64, "{case}");
    assert_eq!(report.injected, want.injected, "{case}");
    assert!(
        log.components == [want.trace],
        "{case}: the simulate_traced log differs from the reference"
    );
}

/// Every traffic pattern at every rate of the sweep, on both routers.
fn check_mesh(width: u16, height: u16, cycles: u64) {
    let mesh = MeshConfig::new(width, height).unwrap();
    let hotspot = Traffic::Hotspot {
        node: mesh.nodes() / 2,
        fraction: 0.3,
    };
    let mut seed = u64::from(width) * 1000 + u64::from(height);
    for traffic in [Traffic::UniformRandom, hotspot, Traffic::BitComplement] {
        for rate in [0.0, 0.02, 0.3, 0.7, 1.0] {
            for kind in [RouterKind::Buffered, RouterKind::BufferlessDeflection] {
                check(kind, mesh, traffic, rate, cycles, seed, Eject::First);
            }
            seed += 1;
        }
    }
}

#[test]
fn mesh_2x2_matches_the_reference() {
    check_mesh(2, 2, 400);
}

#[test]
fn mesh_3x5_matches_the_reference() {
    check_mesh(3, 5, 300);
}

#[test]
fn mesh_4x4_matches_the_reference() {
    check_mesh(4, 4, 300);
}

#[test]
fn mesh_8x8_matches_the_reference() {
    check_mesh(8, 8, 200);
}

/// 81 nodes: the buffered occupancy bitmap spans two words.
#[test]
fn mesh_9x9_matches_the_reference() {
    check_mesh(9, 9, 200);
}

/// A 90% hotspot past saturation: buffered lanes around the hotspot grow
/// deep, and bufferless arrivals for the hotspot collide every cycle.
#[test]
fn saturated_hotspot_matches_the_reference() {
    for (w, h) in [(4, 4), (8, 8), (9, 9)] {
        let mesh = MeshConfig::new(w, h).unwrap();
        let traffic = Traffic::Hotspot {
            node: mesh.nodes() / 2 + 1,
            fraction: 0.9,
        };
        for kind in [RouterKind::Buffered, RouterKind::BufferlessDeflection] {
            check(kind, mesh, traffic, 0.5, 400, 77, Eject::First);
        }
    }
    let mesh = MeshConfig::new(4, 4).unwrap();
    let deep = reference_buffered(
        mesh,
        Traffic::Hotspot {
            node: 9,
            fraction: 0.9,
        },
        0.5,
        400,
        77,
    );
    assert!(
        deep.peak_buffering > 200,
        "the saturated case must build deep queues (peak {})",
        deep.peak_buffering
    );
}

/// The comparison can fail: a reference that ejects the last arrival
/// bound for a router, instead of the first, is caught.
#[test]
#[should_panic(expected = "from the reference")]
fn a_reference_ejecting_the_last_arrival_is_caught() {
    let mesh = MeshConfig::new(4, 4).unwrap();
    let traffic = Traffic::Hotspot {
        node: 5,
        fraction: 0.9,
    };
    check(
        RouterKind::BufferlessDeflection,
        mesh,
        traffic,
        0.5,
        400,
        77,
        Eject::Last,
    );
}
