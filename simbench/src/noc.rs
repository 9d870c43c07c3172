//! The `noc_mesh` workload: 8×8 buffered and bufferless meshes under
//! uniform-random and hotspot traffic, driven by the benchmark's own
//! `SimLoop`. No memory controller, DRAM or fault model runs here.

use std::time::Instant;

use ia_noc::{BufferedMeshSim, BufferlessMeshSim, Delivered, MeshConfig, Traffic};
use ia_sim::{Clocked, Cycle, FnSink, RunOutcome, SimLoop};

use crate::gate::Digest;
use crate::probe::{ns_since, JobSpans, Tally, TimedClocked};
use crate::suite::{derive_seed, Counts, JobOutcome, Mode, Setup, Suite};

/// Simulated cycles per job.
const HORIZON: u64 = 6_000;
/// Injection rates per traffic pattern.
const RATES: usize = 3;
/// The hotspot: a centre node receiving a fifth of all packets.
const HOTSPOT: Traffic = Traffic::Hotspot {
    node: 27,
    fraction: 0.2,
};
/// Each traffic pattern with its per-node injection rates, from well
/// below saturation to near or past it, chosen from a sweep of both
/// meshes (see the README). Uniform traffic at 0.40 raises latency from
/// 5.3 to 8.5 cycles, with 1.6 deflections per packet and 311 packets
/// buffered at the peak. Hotspot traffic saturates the bufferless mesh
/// between 0.06 and 0.08 and the buffered one between 0.10 and 0.15.
const TRAFFIC: [(&str, Traffic, [f64; RATES]); 2] = [
    ("uniform", Traffic::UniformRandom, [0.02, 0.20, 0.40]),
    ("hotspot", HOTSPOT, [0.02, 0.06, 0.10]),
];
/// Mesh seeds per (traffic, rate) cell.
const SEEDS: usize = 9;
const ROUTERS: [&str; 2] = ["buffered", "bufferless"];

/// Both router kinds over every (traffic, rate, seed) cell; both kinds
/// of one cell share its seed.
struct NocMesh {
    mesh: MeshConfig,
    seeds: Vec<u64>,
}

/// Builds `noc_mesh` for `seed`.
pub fn noc_mesh(seed: u64) -> Result<Setup, String> {
    let mesh = MeshConfig::new(8, 8).map_err(|e| format!("mesh config: {e}"))?;
    let seeds = (0..(TRAFFIC.len() * RATES * SEEDS) as u64)
        .map(|i| derive_seed(seed, i))
        .collect();
    Ok(Setup {
        suite: Box::new(NocMesh { mesh, seeds }),
        requests: 0,
        gen_ns: 0,
    })
}

/// Totals over the packets one job delivered.
#[derive(Debug, Default)]
struct Packets {
    delivered: u64,
    latency: u64,
    max_latency: u64,
    hops: u64,
    deflections: u64,
}

impl Packets {
    fn add(&mut self, d: Delivered) {
        self.delivered += 1;
        self.latency += d.latency;
        self.max_latency = self.max_latency.max(d.latency);
        self.hops += u64::from(d.hops);
        self.deflections += u64::from(d.deflections);
    }
}

/// Host time of the engine and of the mesh calls it made.
struct Driven {
    packets: Packets,
    outcome: RunOutcome,
    engine: ia_sim::EngineStats,
    run_ns: u64,
    /// `tick_into`, `next_event_at` and `skip_to` tallies, when traced.
    probes: Option<[Tally; 3]>,
}

/// Runs `sim` to the horizon through a fresh `SimLoop`.
fn drive<C: Clocked<Completion = Delivered>>(
    sim: &mut C,
) -> (Packets, RunOutcome, ia_sim::EngineStats) {
    let mut packets = Packets::default();
    let mut engine = SimLoop::new();
    let outcome = {
        let mut sink = FnSink(|d: Delivered| packets.add(d));
        engine.run_while(sim, &mut sink, Cycle::new(HORIZON), |_| true)
    };
    (packets, outcome, *engine.stats())
}

/// Drives `sim`, through the timing wrapper when `traced`, and returns
/// it with what the drive produced.
fn run_mesh<C: Clocked<Completion = Delivered>>(sim: C, traced: bool) -> (C, Driven) {
    let t = Instant::now();
    if traced {
        let mut timed = TimedClocked::new(sim);
        let (packets, outcome, engine) = drive(&mut timed);
        let run_ns = ns_since(t);
        let (sim, probes) = timed.into_parts();
        let driven = Driven {
            packets,
            outcome,
            engine,
            run_ns,
            probes: Some(probes),
        };
        (sim, driven)
    } else {
        let mut sim = sim;
        let (packets, outcome, engine) = drive(&mut sim);
        let run_ns = ns_since(t);
        let driven = Driven {
            packets,
            outcome,
            engine,
            run_ns,
            probes: None,
        };
        (sim, driven)
    }
}

impl NocMesh {
    /// (router index, traffic index, rate index, seed index) of `job`.
    fn cell(job: usize) -> (usize, usize, usize, usize) {
        let router = job % ROUTERS.len();
        let cell = job / ROUTERS.len();
        let seed = cell % SEEDS;
        let cell = cell / SEEDS;
        (router, cell / RATES, cell % RATES, seed)
    }
}

impl Suite for NocMesh {
    fn jobs(&self) -> usize {
        ROUTERS.len() * TRAFFIC.len() * RATES * SEEDS
    }

    fn label(&self, job: usize) -> String {
        let (k, t, r, s) = NocMesh::cell(job);
        format!(
            "{}/{}/r{}/seed{s}",
            ROUTERS[k], TRAFFIC[t].0, TRAFFIC[t].2[r]
        )
    }

    fn cell(&self, job: usize) -> Option<String> {
        let (k, t, r, _) = NocMesh::cell(job);
        Some(format!(
            "{}/{}/r{}",
            ROUTERS[k], TRAFFIC[t].0, TRAFFIC[t].2[r]
        ))
    }

    fn run(&self, job: usize, mode: Mode) -> JobOutcome {
        let (k, t, r, s) = NocMesh::cell(job);
        let (_, traffic, rates) = TRAFFIC[t];
        let rate = rates[r];
        let mut seed = self.seeds[(t * RATES + r) * SEEDS + s];
        if mode.perturb {
            seed ^= 1;
        }
        let t_job = Instant::now();
        let (driven, injected, peak) = if k == 0 {
            let sim = BufferedMeshSim::new(self.mesh, traffic, rate, HORIZON, seed);
            let (sim, d) = run_mesh(sim, mode.traced);
            (d, sim.injected(), sim.peak_buffering() as u64)
        } else {
            let sim = BufferlessMeshSim::new(self.mesh, traffic, rate, HORIZON, seed);
            let (sim, d) = run_mesh(sim, mode.traced);
            (d, sim.injected(), 0)
        };
        let job_ns = ns_since(t_job);
        let packets = &driven.packets;
        let mut violations = Vec::new();
        if let RunOutcome::Stalled(report) = driven.outcome {
            violations.push(format!("engine stalled: {report}"));
        }
        if packets.delivered > injected {
            violations.push(format!(
                "delivered {} packets but injected {injected}",
                packets.delivered
            ));
        }
        let mut d = Digest::default();
        d.u64(packets.delivered)
            .u64(injected)
            .u64(packets.latency)
            .u64(packets.max_latency)
            .u64(packets.hops)
            .u64(packets.deflections)
            .u64(peak);
        let spans = driven.probes.map(|[tick, next_event, skip]| {
            let mut s = JobSpans::default();
            let root = s.interval("job", None, 0, job_ns);
            let run = s.interval("sim.run", Some(root), 0, driven.run_ns);
            s.calls("noc.tick", run, tick);
            s.calls("noc.next_event", run, next_event);
            s.calls("noc.skip", run, skip);
            s
        });
        JobOutcome {
            digest: d.finish(),
            violations,
            counts: Counts {
                cycles: HORIZON,
                requests: packets.delivered,
                total_latency: packets.latency,
                offered: injected,
                events: driven.engine.events_processed,
                skipped: driven.engine.cycles_skipped,
                hops: packets.hops,
                deflections: packets.deflections,
                peak_buffering: peak,
                ..Counts::default()
            },
            spans,
        }
    }
}
