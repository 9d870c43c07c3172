//! # ia-microbench — deterministic per-op microbenchmarks
//!
//! The quick-suite wall clock (`BENCH_WALL.json`) is the headline perf
//! number, but it is noisy: process spawn, host load, and 24 binaries'
//! worth of variance hide per-op regressions smaller than a few
//! milliseconds. This crate benches the individual hot paths — the ones
//! the suite's time actually goes to — at nanosecond resolution:
//!
//! * **scheduler-pick** — one `build_view` + FR-FCFS `select` against an
//!   indexed [`RequestQueue`], at queue depth 8 and 256. The indexed
//!   queue's promise is depth-independence: both depths should cost the
//!   same per pick (the linear scan it replaced scaled 32×).
//! * **dram-timing-check** — one [`DramModule::bank_gates`] probe, the
//!   full per-bank gate walk the queue's gate cache is checked against.
//! * **dram-issue** — one [`DramModule::probe_next`] and one
//!   [`DramModule::issue`] of that command at its gate, over a fixed
//!   open-page address cycle of row hits, misses and conflicts: the
//!   per-command DRAM path an in-order (FCFS) controller runs.
//! * **bank-resync** — one [`RequestQueue::resync`], the gate-cache
//!   refresh the controller runs after every issued command (a bank
//!   probe, its channel's shared gates, the occupied banks' wake
//!   cycles), plus the wake-up read it feeds.
//! * **noc-route-flit** — one [`RouteTable`] XY lookup plus a
//!   productive-port query, the per-flit work of the mesh hot loop.
//! * **noc-mesh-cycle** — one whole 8×8 mesh cycle, buffered and
//!   bufferless alternately, at uniform load 0.4: the injection draws,
//!   lane and arrival-slot routing and ejection that `noc_route_flit`'s
//!   table lookup is only a part of.
//! * **lint-parse-workspace** — one full ia-lint front-end pass (lex,
//!   comment-strip, item-parse) over a deterministic synthetic source
//!   file: the per-file cost behind the `ia-lint --check` wall-time
//!   budget in `scripts/ci.sh`.
//! * **fault-hook** — one [`FaultInjector`] activate + read per request
//!   over the simulator benchmark's `fault_ladder` stream (row scans plus
//!   a double-sided hammer pair) at its ×4 fault rates: the per-request
//!   cost of the fault hook behind the reliability pipeline.
//! * **sched-pick-policies** — one `build_view` + `select` for each of
//!   the seven policies (FCFS, FR-FCFS, PAR-BS, ATLAS, TCM, BLISS, RL)
//!   on one fixed queue, each at the [`ViewMode`] it declares: the pick
//!   the `sched_pick_*` kernels measure for FR-FCFS alone.
//! * **addr-decode** — one [`AddressMapping::decode`] per op, both
//!   mappings alternately on DDR4 geometry: the per-enqueue address
//!   split.
//! * **workload-gen** — one request per op of the experiments'
//!   four-thread interference mix (stream, random, zipf, and a pointer
//!   chase over 64 k nodes, generated by `ia-workloads`), at the
//!   simulator benchmark's 2,500 requests per thread, converted to
//!   [`MemRequest`]s: the set-up layer every trace-driven run pays
//!   before its first simulated cycle.
//! * **ambit-and-row** — one [`AmbitEngine`] bulk AND of two full
//!   DDR3 rows (1,024 words) into a third: the in-DRAM bitwise
//!   primitive behind exp03.
//! * **bdi-compress** — one [`bdi_compress`] of a 64-byte block, cycling
//!   through zero, repeated, pointer, narrow-integer and random blocks so
//!   every encoding is chosen: the per-line cost behind exp07.
//! * **secded-encode-decode** — one SECDED [`encode`] + [`decode`] of a
//!   64-bit word: the ECC check every read pays under the reliability
//!   pipeline.
//! * **pnm-pagerank-step** — one PageRank superstep of a
//!   [`PnmGraphEngine`] over a 1,024-vertex, 16 k-edge R-MAT graph:
//!   the near-memory graph kernel behind exp08.
//! * **stride-prefetch** — one demand access through a
//!   [`PrefetchHarness`] with a [`StridePrefetcher`] over a sequential
//!   stream: the per-access prefetch path behind exp17.
//!
//! ## Determinism (lint D002)
//!
//! The measured regions contain *no wall-clock reads* — they fold pure
//! simulated state. The harness reads [`std::time::Instant`] only
//! around the measured loop, reports the **median of k** repetitions,
//! and keeps every nondeterministic number (the ns/op) out of
//! `BENCH_MICRO.json`: the JSON carries only the bench name, iteration
//! and op counts, and a checksum folded from the measured work, so the
//! file is byte-stable across runs and hosts — a regression in
//! *behavior* shows up as a checksum diff, a regression in *speed*
//! shows up in the printed ns/op table.
//!
//! ## Example
//!
//! ```
//! let results = ia_microbench::run_all(16, 3);
//! assert!(results.len() >= 4);
//! let again = ia_microbench::run_all(16, 3);
//! for (a, b) in results.iter().zip(&again) {
//!     assert_eq!(a.checksum, b.checksum, "{} must be deterministic", a.name);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

// lint: allow(D002, a microbenchmark harness times the host by definition; checksums, not times, are the stable output)
use std::time::Instant;

use ia_bench::mixes::interference_mix;
use ia_cache::{bdi_compress, BdiEncoding};
use ia_dram::{AccessKind, AddressMapping, Cycle, DramConfig, DramModule, Location, PhysAddr};
use ia_faults::{FaultInjector, FaultPlan, Inject, RowSite};
use ia_lint::context::FileContext;
use ia_lint::lexer::tokenize;
use ia_lint::parser::{parse_items, Item};
use ia_memctrl::{
    Atlas, Bliss, Fcfs, FrFcfs, IssueView, MemRequest, ParBs, Pending, RequestQueue, RlScheduler,
    RlSchedulerConfig, Scheduler, Tcm, ViewMode,
};
use ia_noc::{BufferedMeshSim, BufferlessMeshSim, Delivered, MeshConfig, RouteTable, Traffic};
use ia_pnm::{PnmGraphEngine, StackConfig};
use ia_prefetch::{PrefetchHarness, StridePrefetcher};
use ia_pum::{AmbitEngine, BitwiseOp};
use ia_reliability::{decode, encode, DecodeOutcome};
use ia_sim::{Clocked, FnSink};
use ia_telemetry::JsonValue;
use ia_workloads::Graph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One timed repetition: deterministic op count and checksum, plus the
/// harness-side wall time of the measured loop.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Operations the measured loop performed.
    pub ops: u64,
    /// Order-sensitive fold of the loop's observable results.
    pub checksum: u64,
    /// Wall time of the measured loop (harness-side, display only).
    pub ns: u128,
}

/// A bench's aggregated result: the deterministic fields that go into
/// `BENCH_MICRO.json` plus the median ns/op for the human table.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Bench name (stable identifier).
    pub name: &'static str,
    /// Iterations of the measured loop per repetition.
    pub iters: u64,
    /// Operations per repetition (identical across repetitions).
    pub ops: u64,
    /// Checksum per repetition (identical across repetitions).
    pub checksum: u64,
    /// Median wall ns/op across the k repetitions. Display only —
    /// never serialized.
    pub ns_per_op: f64,
}

/// A registered microbench: a name and a runner mapping an iteration
/// count to one [`Sample`].
#[derive(Debug, Clone, Copy)]
pub struct Bench {
    /// Stable bench name (also the JSON key).
    pub name: &'static str,
    /// Runs setup (untimed) then the measured loop for `iters`
    /// iterations.
    pub run: fn(u64) -> Sample,
}

/// Splitmix64-style fold: order-sensitive, cheap, and good enough to
/// catch any behavioral drift in the measured loops.
fn fold(acc: u64, x: u64) -> u64 {
    (acc ^ x)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
}

/// Builds a request queue of `depth` reads spread over the module's
/// banks, ids and arrivals monotone — the steady-state picture the
/// scheduler sees mid-run.
fn queue_of(depth: u64, dram: &DramModule) -> RequestQueue {
    let mut queue = RequestQueue::new();
    for i in 0..depth {
        // Stride one row-buffer's worth so consecutive requests land in
        // different banks under the row-interleaved mapping.
        let addr = i * dram.config().geometry.row_bytes;
        let p = Pending {
            id: i + 1,
            request: MemRequest::read(addr, (i % 8) as usize),
            loc: dram.decode(PhysAddr::new(addr)),
            arrival: Cycle::new(i),
            batched: false,
            started: false,
        };
        queue.insert(p, dram);
    }
    queue
}

/// scheduler-pick at a fixed queue depth: one Frontier `build_view` +
/// FR-FCFS `select` per iteration. The measured cost must track the
/// *occupied-bank* count, not the queue depth.
fn sched_pick(depth: u64, iters: u64) -> Sample {
    // lint: allow(P001, ddr3_1600 is a valid preset)
    let dram = DramModule::new(DramConfig::ddr3_1600()).expect("valid config");
    let queue = queue_of(depth, &dram);
    let mut view = IssueView::default();
    let mut sched = FrFcfs::new();
    let now = Cycle::new(1_000);
    let mut checksum = 0u64;
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for _ in 0..iters {
        queue.build_view(now, ViewMode::Frontier, &mut view);
        checksum = fold(checksum, view.ready.len() as u64 + 1);
        if let Some(id) = sched.select(&queue, &view) {
            checksum = fold(checksum, u64::from(id.index()) + 1);
        }
    }
    let ns = start.elapsed().as_nanos();
    Sample {
        ops: iters,
        checksum,
        ns,
    }
}

/// scheduler-pick at depth 8 (one request per bank).
fn sched_pick_depth8(iters: u64) -> Sample {
    sched_pick(8, iters)
}

/// scheduler-pick at depth 256 (deep, many requests per bank). Per-op
/// cost must match depth 8 up to the occupied-bank ratio.
fn sched_pick_depth256(iters: u64) -> Sample {
    sched_pick(256, iters)
}

/// The seven policies over a 64-request queue spread across all eight
/// banks, half of them open on a queued row, after each policy's
/// `prepare` (PAR-BS forms its batch).
fn policy_pick_setup() -> (RequestQueue, Vec<Box<dyn Scheduler>>) {
    // lint: allow(P001, ddr3_1600 is a valid preset)
    let mut dram = DramModule::new(DramConfig::ddr3_1600()).expect("valid config");
    for i in 0..4u64 {
        let addr = i * dram.config().geometry.row_bytes;
        let _ = dram.access(
            PhysAddr::new(addr),
            ia_dram::AccessKind::Read,
            Cycle::new(i),
        );
    }
    let mut queue = queue_of(64, &dram);
    let mut policies: Vec<Box<dyn Scheduler>> = vec![
        Box::new(Fcfs::new()),
        Box::new(FrFcfs::new()),
        Box::new(ParBs::new(8)),
        Box::new(Atlas::new(8, 100_000)),
        Box::new(Tcm::new(8, 50_000, 5_000)),
        Box::new(Bliss::new()),
        Box::new(RlScheduler::new(RlSchedulerConfig::default())),
    ];
    for p in &mut policies {
        p.prepare(&mut queue);
    }
    (queue, policies)
}

/// One pick per op: `build_view` at the policy's declared view mode and
/// `select`, for each of the seven policies of [`policy_pick_setup`] in
/// turn.
fn sched_pick_policies(iters: u64) -> Sample {
    let (queue, mut policies) = policy_pick_setup();
    let modes: Vec<ViewMode> = policies.iter().map(|p| p.view_mode()).collect();
    let mut view = IssueView::default();
    let now = Cycle::new(1_000);
    let mut checksum = 0u64;
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for _ in 0..iters {
        for (p, &mode) in policies.iter_mut().zip(&modes) {
            queue.build_view(now, mode, &mut view);
            let pick = p.select(&queue, &view);
            checksum = fold(checksum, pick.map_or(0, |id| u64::from(id.index()) + 1));
        }
    }
    let ns = start.elapsed().as_nanos();
    Sample {
        ops: iters * policies.len() as u64,
        checksum,
        ns,
    }
}

/// Addresses [`addr_decode`] cycles through: a fixed splitmix sequence
/// below 2^40.
fn decode_addresses() -> Vec<u64> {
    let mut x = 0x243F_6A88_85A3_08D3u64;
    (0..1024)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            fold(x, x >> 29) >> 24
        })
        .collect()
}

/// One [`AddressMapping::decode`] per op on DDR4-2400 geometry (bank
/// groups, power-of-two radices), row- and bank-interleaved in turn.
fn addr_decode(iters: u64) -> Sample {
    let geo = DramConfig::ddr4_2400().geometry;
    let addrs = decode_addresses();
    let mappings = [
        AddressMapping::RowInterleaved,
        AddressMapping::BankInterleaved,
    ];
    let mut checksum = 0u64;
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for i in 0..iters {
        let addr = addrs[(i % addrs.len() as u64) as usize];
        let loc = mappings[(i & 1) as usize].decode(PhysAddr::new(addr), &geo);
        let bank = (loc.channel << 24) | (loc.rank << 16) | (loc.bank_group << 8) | loc.bank;
        checksum = fold(checksum, bank as u64);
        checksum = fold(
            checksum,
            (loc.row << 20) ^ (loc.column << 8) ^ loc.subarray as u64,
        );
    }
    let ns = start.elapsed().as_nanos();
    Sample {
        ops: iters,
        checksum,
        ns,
    }
}

/// One `bank_gates` probe per op: the open row plus all four command
/// gates, from one bank-local and one shared-gate read.
fn dram_timing_check(iters: u64) -> Sample {
    // lint: allow(P001, ddr3_1600 is a valid preset)
    let mut dram = DramModule::new(DramConfig::ddr3_1600()).expect("valid config");
    // Touch a few rows so some banks are open and gates are non-zero.
    for i in 0..8u64 {
        let addr = i * dram.config().geometry.row_bytes;
        let _ = dram.access(
            PhysAddr::new(addr),
            ia_dram::AccessKind::Read,
            Cycle::new(i),
        );
    }
    let locs: Vec<_> = (0..16u64)
        .map(|i| dram.decode(PhysAddr::new(i * dram.config().geometry.row_bytes)))
        .collect();
    let mut checksum = 0u64;
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for i in 0..iters {
        let gates = dram.bank_gates(&locs[(i % locs.len() as u64) as usize]);
        checksum = fold(checksum, gates.read.as_u64());
        checksum = fold(checksum, gates.activate.as_u64());
    }
    let ns = start.elapsed().as_nanos();
    Sample {
        ops: iters,
        checksum,
        ns,
    }
}

/// The fixed open-page address cycle of [`dram_issue`] on DDR3-1600:
/// sixteen accesses over four banks, row 0 then row 1 of each, every
/// third one a write. Each bank sees a miss and a hit on row 0, then a
/// conflict and a hit on row 1, and a conflict again when the cycle
/// wraps.
fn dram_issue_cycle() -> Vec<(Location, AccessKind)> {
    (0..16u64)
        .map(|j| {
            let loc = Location {
                bank: (j % 4) as usize,
                row: j / 8,
                column: j,
                ..Location::default()
            };
            let kind = if j % 3 == 2 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            (loc, kind)
        })
        .collect()
}

/// Runs `ops` commands of [`dram_issue_cycle`] on `dram` from cycle
/// zero: probe the current access's next command, issue it at its gate
/// (never before the previous command), and move to the next access
/// once the column command issues. Returns the fold of every issue
/// cycle and data burst end.
fn drive_dram_issue(dram: &mut DramModule, ops: u64) -> u64 {
    let accesses = dram_issue_cycle();
    let mut checksum = 0u64;
    let mut now = Cycle::ZERO;
    let mut next = 0;
    for _ in 0..ops {
        let (loc, kind) = &accesses[next];
        let (cmd, gate) = dram.probe_next(loc, *kind);
        let at = gate.max(now);
        // lint: allow(P001, the probed command issues at its own gate, which is legal by construction)
        let out = dram.issue(loc, cmd, at).expect("issued at its gate");
        checksum = fold(checksum, at.as_u64());
        if let Some(ready) = out.data_ready {
            checksum = fold(checksum, ready.as_u64());
            next = (next + 1) % accesses.len();
        }
        now = at;
    }
    checksum
}

/// One DRAM command per op: [`DramModule::probe_next`], then
/// [`DramModule::issue`] at the probed gate (see [`drive_dram_issue`]).
fn dram_issue(iters: u64) -> Sample {
    // lint: allow(P001, ddr3_1600 is a valid preset)
    let mut dram = DramModule::new(DramConfig::ddr3_1600()).expect("valid config");
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    let checksum = drive_dram_issue(&mut dram, iters);
    let ns = start.elapsed().as_nanos();
    Sample {
        ops: iters,
        checksum,
        ns,
    }
}

/// One post-command gate-cache resync per op, cycling over the banks of
/// a 16-request queue with half its banks open, then the wake-up bound
/// the resync keeps current.
fn bank_resync(iters: u64) -> Sample {
    // lint: allow(P001, ddr3_1600 is a valid preset)
    let mut dram = DramModule::new(DramConfig::ddr3_1600()).expect("valid config");
    for i in 0..4u64 {
        let addr = i * dram.config().geometry.row_bytes;
        let _ = dram.access(
            PhysAddr::new(addr),
            ia_dram::AccessKind::Read,
            Cycle::new(i),
        );
    }
    let mut queue = queue_of(16, &dram);
    let locs: Vec<_> = queue.iter().map(|(_, p)| p.loc).collect();
    let now = Cycle::new(10);
    let mut checksum = 0u64;
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for i in 0..iters {
        queue.resync(&dram, &locs[(i % locs.len() as u64) as usize]);
        let wake = queue.next_issue_at(now);
        checksum = fold(checksum, wake.map_or(0, |c| c.as_u64() + 1));
    }
    let ns = start.elapsed().as_nanos();
    Sample {
        ops: iters,
        checksum,
        ns,
    }
}

/// The `fault_ladder` request stream as row sites: four passes, each a
/// scan over 192 rows spread across the eight banks of rank 0, one read
/// of victim row 1001, then 400 hammer pairs on rows 1000 and 1002.
fn ladder_sites() -> Vec<RowSite> {
    let site = |bank, row| RowSite {
        channel: 0,
        rank: 0,
        bank,
        row,
    };
    let mut out = Vec::new();
    for _ in 0..4 {
        for i in 0..192usize {
            out.push(site(i % 8, 64 + (i as u64 / 8) * 4));
        }
        out.push(site(0, 1001));
        for _ in 0..400 {
            out.push(site(0, 1000));
            out.push(site(0, 1002));
        }
    }
    out
}

/// `fault_ladder`'s fault plan at its ×4 rate multiplier, on DDR3-1600
/// rows with one word per row and eight spare rows per bank.
fn ladder_injector() -> FaultInjector {
    let rows = DramConfig::ddr3_1600().geometry.rows_per_bank;
    FaultPlan::new(1)
        .transient(0.016)
        .retention(0.08, 60_000, 8192)
        .rowhammer(128, 1.0)
        .stuck(0.000_8)
        .geometry(rows, 1)
        .spare_floor(rows - 8)
        .build()
}

/// Feeds `iters` requests of the ladder stream, one every 40 cycles,
/// through `on_activate` + `on_read`, folding every read's flip mask.
fn drive_ladder(injector: &mut FaultInjector, sites: &[RowSite], iters: u64) -> u64 {
    let mut checksum = 0u64;
    for i in 0..iters {
        let site = &sites[(i % sites.len() as u64) as usize];
        let now = i * 40;
        injector.on_activate(site, now);
        let mask = injector.on_read(site, 0, now + 11);
        checksum = fold(checksum, (mask.bits as u64) ^ (mask.bits >> 64) as u64);
    }
    checksum
}

/// One [`FaultInjector`] `on_activate` + `on_read` per op over the
/// `fault_ladder` stream. The checksum folds the read masks and the
/// final [`ia_faults::FaultStats`].
fn fault_hook(iters: u64) -> Sample {
    let mut injector = ladder_injector();
    let sites = ladder_sites();
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    let mut checksum = drive_ladder(&mut injector, &sites, iters);
    let ns = start.elapsed().as_nanos();
    let stats = injector.stats();
    for count in [
        stats.rowhammer_flips,
        stats.retention_flips,
        stats.transient_flips,
        stats.stuck_cells,
        stats.reads_faulted,
    ] {
        checksum = fold(checksum, count);
    }
    Sample {
        ops: iters,
        checksum,
        ns,
    }
}

/// One XY route lookup + productive-port query per op on an 8×8 mesh —
/// the per-flit work of the NoC hot loop.
fn noc_route_flit(iters: u64) -> Sample {
    // lint: allow(P001, 8x8 is a valid mesh)
    let mesh = MeshConfig::new(8, 8).expect("valid mesh");
    let table = RouteTable::new(mesh);
    let n = 64u64;
    let mut checksum = 0u64;
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for i in 0..iters {
        let src = ((i * 29) % n) as usize;
        let dst = ((i * 37 + 11) % n) as usize;
        if let Some(port) = table.xy_port(src, dst) {
            checksum = fold(checksum, port as u64);
        }
        checksum = fold(checksum, u64::from(table.productive_ports(src, dst).mask()));
    }
    let ns = start.elapsed().as_nanos();
    Sample {
        ops: iters,
        checksum,
        ns,
    }
}

/// Cycles each mesh of [`noc_mesh_cycle`] runs before the timed loop, so
/// it is measured loaded rather than while it fills from empty.
const NOC_WARMUP_CYCLES: u64 = 500;

/// One 8×8 mesh cycle per op, alternating a buffered and a bufferless
/// mesh under uniform traffic at 0.4 packets per node per cycle — the
/// busiest load of the simulator benchmark's `noc_mesh` workload. The
/// checksum folds the delivered, latency, hop and deflection totals.
fn noc_mesh_cycle(iters: u64) -> Sample {
    // lint: allow(P001, 8x8 is a valid mesh)
    let mesh = MeshConfig::new(8, 8).expect("valid mesh");
    let horizon = NOC_WARMUP_CYCLES + iters;
    let traffic = Traffic::UniformRandom;
    let mut buffered = BufferedMeshSim::new(mesh, traffic, 0.4, horizon, 1);
    let mut bufferless = BufferlessMeshSim::new(mesh, traffic, 0.4, horizon, 1);
    let mut totals = [0u64; 4];
    let mut sink = FnSink(|d: Delivered| {
        totals[0] += 1;
        totals[1] += d.latency;
        totals[2] += u64::from(d.hops);
        totals[3] += u64::from(d.deflections);
    });
    for _ in 0..NOC_WARMUP_CYCLES {
        buffered.tick_into(&mut sink);
        bufferless.tick_into(&mut sink);
    }
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for _ in 0..iters {
        buffered.tick_into(&mut sink);
        bufferless.tick_into(&mut sink);
    }
    let ns = start.elapsed().as_nanos();
    let checksum = totals.iter().fold(0, |acc, &t| fold(acc, t));
    Sample {
        ops: 2 * iters,
        checksum,
        ns,
    }
}

/// Requests per thread of a [`workload_gen`] mix, as in the simulator
/// benchmark's `sched_sweep`.
const GEN_PER_THREAD: usize = 2_500;

/// The four-thread interference mix for `seed`, built by
/// [`ia_bench::mixes::interference_mix`] with the simulator benchmark's
/// parameters.
fn sweep_mix(seed: u64) -> Vec<Vec<MemRequest>> {
    // lint: allow(P001, the mix's generator parameters are fixed and valid)
    interference_mix(GEN_PER_THREAD, seed).expect("valid interference mix")
}

/// One request per op. The loop builds whole interference mixes, seeds
/// 0, 1, …, until it has made `iters` requests, so `ops` rounds `iters`
/// up to a multiple of a mix's 10,000 requests: at the default 4096
/// iterations it builds exactly one. Generation and conversion are both
/// timed. The checksum folds every request's address, kind and thread.
fn workload_gen(iters: u64) -> Sample {
    let mix_requests = 4 * GEN_PER_THREAD as u64;
    let mut ops = 0u64;
    let mut checksum = 0u64;
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for seed in 0..iters.div_ceil(mix_requests) {
        for r in sweep_mix(seed).iter().flatten() {
            let kind = u64::from(r.kind.is_read());
            checksum = fold(
                checksum,
                r.addr.as_u64() ^ kind << 63 ^ u64::from(r.thread) << 48,
            );
            ops += 1;
        }
    }
    let ns = start.elapsed().as_nanos();
    Sample { ops, checksum, ns }
}

/// One bulk AND of rows 0 and 1 into row 2 per op, on an Ambit engine
/// with DDR3-1600 rows. The checksum folds one word of each result and
/// the engine's final AAP and cycle counts.
fn ambit_and_row(iters: u64) -> Sample {
    let mut engine = AmbitEngine::new(&DramConfig::ddr3_1600());
    let words = engine.row_words() as u64;
    for (id, seed) in [(0, 1), (1, 2)] {
        let row = (0..words).map(|i| fold(seed, i)).collect();
        // lint: allow(P001, the operand is built exactly one row wide)
        engine.write_row(id, row).expect("one row wide");
    }
    let mut checksum = 0u64;
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for i in 0..iters {
        let and = engine.execute(BitwiseOp::And, 2, 0, Some(1));
        // lint: allow(P001, both operand rows were written above)
        and.expect("operands present");
        let word = engine.read_row(2).map_or(0, |r| r[(i % words) as usize]);
        checksum = fold(checksum, word);
    }
    let ns = start.elapsed().as_nanos();
    checksum = fold(checksum, engine.stats().aaps);
    checksum = fold(checksum, engine.stats().cycles);
    Sample {
        ops: iters,
        checksum,
        ns,
    }
}

/// Eight 64-byte blocks covering every BDI outcome: zeros, one repeated
/// value, heap pointers (8-byte base, 1-byte deltas), narrow counters
/// (4-byte base), 2-byte values near a base, and incompressible noise.
fn bdi_blocks() -> Vec<[u8; 64]> {
    let from_u64s = |f: &dyn Fn(u64) -> u64| {
        let mut b = [0u8; 64];
        for i in 0..8u64 {
            b[i as usize * 8..][..8].copy_from_slice(&f(i).to_le_bytes());
        }
        b
    };
    let from_u32s = |f: &dyn Fn(u32) -> u32| {
        let mut b = [0u8; 64];
        for i in 0..16u32 {
            b[i as usize * 4..][..4].copy_from_slice(&f(i).to_le_bytes());
        }
        b
    };
    let from_u16s = |f: &dyn Fn(u16) -> u16| {
        let mut b = [0u8; 64];
        for i in 0..32u16 {
            b[i as usize * 2..][..2].copy_from_slice(&f(i).to_le_bytes());
        }
        b
    };
    vec![
        [0u8; 64],
        from_u64s(&|_| 0xDEAD_BEEF_CAFE_F00D),
        from_u64s(&|i| 0x7FFF_0000_0000 + fold(i, 1) % 100),
        from_u64s(&|i| 0x7FFF_0000_0000 + i * 0x400),
        from_u32s(&|i| 0x0010_0000 + i * 3),
        from_u16s(&|i| 0x4000 + i),
        from_u64s(&|i| fold(i, 0x51ED)),
        from_u64s(&|i| if i % 2 == 0 { 0 } else { 0x6000_0000 + i }),
    ]
}

/// One [`bdi_compress`] per op, cycling through [`bdi_blocks`]. The
/// checksum folds each chosen encoding and compressed size.
fn bdi_compress_block(iters: u64) -> Sample {
    let blocks = bdi_blocks();
    let mut checksum = 0u64;
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for i in 0..iters {
        let block = &blocks[(i % blocks.len() as u64) as usize];
        let code = match bdi_compress(block) {
            Ok(c) => {
                let encoding = match c.encoding {
                    BdiEncoding::Zeros => 1,
                    BdiEncoding::Repeated => 2,
                    BdiEncoding::BaseDelta { base, delta } => {
                        u64::from(base) << 8 | u64::from(delta)
                    }
                    BdiEncoding::Uncompressed => 3,
                };
                encoding << 16 | c.bytes as u64
            }
            Err(_) => 0,
        };
        checksum = fold(checksum, code);
    }
    let ns = start.elapsed().as_nanos();
    Sample {
        ops: iters,
        checksum,
        ns,
    }
}

/// One SECDED [`encode`] + [`decode`] round trip per op over an LCG
/// word stream. The checksum folds every decoded word.
fn secded_encode_decode(iters: u64) -> Sample {
    let mut x = 0x0123_4567_89AB_CDEFu64;
    let mut checksum = 0u64;
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for _ in 0..iters {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let word = match decode(encode(x)) {
            DecodeOutcome::Clean(d) => d,
            DecodeOutcome::Corrected(d) => !d,
            DecodeOutcome::DetectedUncorrectable => 0,
        };
        checksum = fold(checksum, word);
    }
    let ns = start.elapsed().as_nanos();
    Sample {
        ops: iters,
        checksum,
        ns,
    }
}

/// One PageRank superstep per op on an HMC-like stack over a fixed
/// R-MAT graph (1,024 vertices, 16,384 edges, seed 2), built untimed.
/// The checksum folds one rank and the modelled step time of each op.
fn pnm_pagerank_step(iters: u64) -> Sample {
    let mut rng = SmallRng::seed_from_u64(2);
    // lint: allow(P001, 1024 vertices is a power of two and the edge count is positive)
    let graph = Graph::rmat(1024, 16 * 1024, &mut rng).expect("valid R-MAT graph");
    // lint: allow(P001, the hmc_like preset is statically valid)
    let engine = PnmGraphEngine::new(StackConfig::hmc_like(), &graph).expect("valid stack");
    let mut checksum = 0u64;
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for i in 0..iters {
        let (ranks, report) = engine.pagerank(0.85, 1);
        let rank = ranks[(i % ranks.len() as u64) as usize];
        checksum = fold(checksum, rank.to_bits());
        checksum = fold(checksum, report.total_ns.to_bits());
    }
    let ns = start.elapsed().as_nanos();
    Sample {
        ops: iters,
        checksum,
        ns,
    }
}

/// One demand access per op through a 64 KiB, 8-way cache with a
/// degree-4 stride prefetcher, walking a sequential line stream that
/// wraps at 256 MiB. The checksum folds the final prefetch metrics.
fn stride_prefetch(iters: u64) -> Sample {
    let mut h = PrefetchHarness::new(64 * 1024, 64, 8, Box::new(StridePrefetcher::new(4)))
        // lint: allow(P001, 64 KiB of 64 B lines in 8 ways is a valid cache)
        .expect("valid harness");
    let mut addr = 0u64;
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for _ in 0..iters {
        addr = (addr + 64) % (1 << 28);
        h.demand(addr);
    }
    let ns = start.elapsed().as_nanos();
    let m = h.metrics();
    let checksum = [
        m.demands,
        m.uncovered_misses,
        m.covered_misses,
        m.issued,
        m.useful,
        m.useless,
    ]
    .iter()
    .fold(0, |acc, &count| fold(acc, count));
    Sample {
        ops: iters,
        checksum,
        ns,
    }
}

/// One synthetic source file for the lint-parse kernel: Rust-like items
/// exercising the parser's shapes — impls, traits, modules, nested
/// generics, raw identifiers, doc comments — sized like a mid-size
/// workspace module. Deterministic in `i`, so the corpus (and the
/// checksum folded from parsing it) never varies.
fn synth_source(i: u64) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("#![forbid(unsafe_code)]\nuse std::collections::BTreeMap;\n");
    for j in 0..6u64 {
        let _ = write!(
            s,
            "/// Doc line for item {j}.\n\
             pub struct S{i}x{j} {{ pub field: Vec<Vec<u64>>, r#type: BTreeMap<u64, u64> }}\n\
             impl Clocked for S{i}x{j} {{\n\
                 fn tick(&mut self, now: Cycle) {{ self.field.len(); helper_{j}(now); }}\n\
             }}\n\
             pub fn helper_{j}(x: u64) -> u64 {{ x.wrapping_mul({i} + {j}) }}\n\
             mod m{j} {{ pub fn inner() -> u32 {{ 7 }} }}\n"
        );
    }
    s
}

/// Folds an item tree's spans and names into the checksum, depth-first.
fn fold_items(mut acc: u64, items: &[Item]) -> u64 {
    for it in items {
        acc = fold(acc, it.toks.start as u64);
        acc = fold(acc, it.toks.end as u64);
        acc = fold(acc, it.name.len() as u64 + 1);
        acc = fold_items(acc, &it.children);
    }
    acc
}

/// One full ia-lint front-end pass per op — lex, comment-strip and
/// test-mark ([`FileContext::build`]), item-parse — cycling through an
/// 8-file deterministic corpus. This is the per-file cost of
/// `ia-lint --check`, which `scripts/ci.sh` budgets at under 2 seconds
/// for the whole workspace.
fn lint_parse_workspace(iters: u64) -> Sample {
    let corpus: Vec<String> = (0..8).map(synth_source).collect();
    let mut checksum = 0u64;
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for i in 0..iters {
        let src = &corpus[(i % corpus.len() as u64) as usize];
        let ctx = FileContext::build("crates/synth/src/module.rs", tokenize(src));
        let items = parse_items(&ctx.code);
        checksum = fold(checksum, ctx.code.len() as u64);
        checksum = fold_items(checksum, &items);
    }
    let ns = start.elapsed().as_nanos();
    Sample {
        ops: iters,
        checksum,
        ns,
    }
}

/// The registered benches, in report order.
#[must_use]
pub fn benches() -> Vec<Bench> {
    vec![
        Bench {
            name: "sched_pick_depth8",
            run: sched_pick_depth8,
        },
        Bench {
            name: "sched_pick_depth256",
            run: sched_pick_depth256,
        },
        Bench {
            name: "dram_timing_check",
            run: dram_timing_check,
        },
        Bench {
            name: "bank_resync",
            run: bank_resync,
        },
        Bench {
            name: "noc_route_flit",
            run: noc_route_flit,
        },
        Bench {
            name: "noc_mesh_cycle",
            run: noc_mesh_cycle,
        },
        Bench {
            name: "lint_parse_workspace",
            run: lint_parse_workspace,
        },
        Bench {
            name: "fault_hook",
            run: fault_hook,
        },
        Bench {
            name: "sched_pick_policies",
            run: sched_pick_policies,
        },
        Bench {
            name: "addr_decode",
            run: addr_decode,
        },
        Bench {
            name: "workload_gen",
            run: workload_gen,
        },
        Bench {
            name: "ambit_and_row",
            run: ambit_and_row,
        },
        Bench {
            name: "bdi_compress",
            run: bdi_compress_block,
        },
        Bench {
            name: "secded_encode_decode",
            run: secded_encode_decode,
        },
        Bench {
            name: "pnm_pagerank_step",
            run: pnm_pagerank_step,
        },
        Bench {
            name: "stride_prefetch",
            run: stride_prefetch,
        },
        Bench {
            name: "dram_issue",
            run: dram_issue,
        },
    ]
}

/// Runs every bench for `iters` iterations, `k` repetitions each, and
/// returns the median-of-k results. The deterministic fields (`ops`,
/// `checksum`) are asserted identical across repetitions — a divergence
/// means a bench broke its own determinism contract.
///
/// # Panics
///
/// Panics if a bench's op count or checksum differs between
/// repetitions.
#[must_use]
pub fn run_all(iters: u64, k: usize) -> Vec<BenchResult> {
    let k = k.max(1);
    benches()
        .into_iter()
        .map(|b| {
            let samples: Vec<Sample> = (0..k).map(|_| (b.run)(iters)).collect();
            let first = samples[0];
            for s in &samples {
                assert_eq!(s.ops, first.ops, "{}: ops must be deterministic", b.name);
                assert_eq!(
                    s.checksum, first.checksum,
                    "{}: checksum must be deterministic",
                    b.name
                );
            }
            let mut ns: Vec<u128> = samples.iter().map(|s| s.ns).collect();
            ns.sort_unstable();
            let median = ns[ns.len() / 2];
            BenchResult {
                name: b.name,
                iters,
                ops: first.ops,
                checksum: first.checksum,
                ns_per_op: median as f64 / first.ops.max(1) as f64,
            }
        })
        .collect()
}

/// Renders the byte-stable `BENCH_MICRO.json` document: bench name,
/// iteration/op counts, and the checksum (hex string — exact at any
/// width, unlike a JSON number). No timing fields: wall numbers are
/// host-dependent and belong in the printed table only.
#[must_use]
pub fn to_json(results: &[BenchResult]) -> String {
    let arr = JsonValue::Arr(
        results
            .iter()
            .map(|r| {
                JsonValue::obj(vec![
                    ("bench", JsonValue::Str(r.name.to_owned())),
                    ("iters", JsonValue::Num(r.iters as f64)),
                    ("ops", JsonValue::Num(r.ops as f64)),
                    ("checksum", JsonValue::Str(format!("{:#018x}", r.checksum))),
                ])
            })
            .collect(),
    );
    let mut text = arr.render();
    text.push('\n');
    text
}

/// Renders the human-readable ns/op table.
#[must_use]
pub fn to_table(results: &[BenchResult]) -> String {
    let mut out = String::from(
        "bench                 iters      ops   ns/op (median)  checksum\n\
         -----                 -----      ---   --------------  --------\n",
    );
    for r in results {
        out.push_str(&format!(
            "{:<20} {:>6} {:>8}   {:>14.1}  {:#018x}\n",
            r.name, r.iters, r.ops, r.ns_per_op, r.checksum
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benches_run_and_are_deterministic() {
        let a = run_all(32, 2);
        let b = run_all(32, 2);
        assert!(a.len() >= 4, "acceptance: at least 4 microbenches");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.ops, y.ops);
            assert_eq!(x.checksum, y.checksum);
        }
    }

    #[test]
    fn json_is_byte_stable_and_parses() {
        let a = to_json(&run_all(16, 2));
        let b = to_json(&run_all(16, 2));
        assert_eq!(a, b, "BENCH_MICRO.json must be byte-stable");
        let parsed = JsonValue::parse(&a).expect("own output parses");
        let arr = parsed.as_array().expect("top level is an array");
        assert!(arr.len() >= 4);
        for entry in arr {
            for key in ["bench", "iters", "ops", "checksum"] {
                assert!(entry.get(key).is_some(), "entry missing `{key}`");
            }
        }
    }

    #[test]
    fn iters_one_smoke() {
        // The CI smoke path: every bench must survive a single iteration.
        let r = run_all(1, 1);
        assert!(r.iter().all(|x| x.ops >= 1));
    }

    #[test]
    fn lint_parse_folds_real_items() {
        // The front-end must find items in every synthetic file (a zero
        // or corpus-size-only checksum would mean the parser bailed).
        let r = run_all(4, 2);
        let lp = r.iter().find(|x| x.name == "lint_parse_workspace").unwrap();
        assert_eq!(lp.ops, 4);
        assert_ne!(lp.checksum, 0);
    }

    #[test]
    fn fault_hook_exercises_the_injector() {
        // At the default 4096 iterations the stream covers one full pass
        // and part of a second: the hammer pair trips RowHammer flips,
        // revisited scan rows overrun their retention limits, and reads
        // draw transient errors and a stuck cell.
        let mut injector = ladder_injector();
        let _ = drive_ladder(&mut injector, &ladder_sites(), 4096);
        let stats = injector.stats();
        assert!(stats.rowhammer_flips > 0, "{stats}");
        assert!(stats.retention_flips > 0, "{stats}");
        assert!(stats.transient_flips > 0, "{stats}");
        assert!(stats.stuck_cells > 0, "{stats}");
    }

    #[test]
    fn sched_pick_policies_picks_for_every_policy() {
        let (queue, mut policies) = policy_pick_setup();
        let mut view = IssueView::default();
        for p in &mut policies {
            queue.build_view(Cycle::new(1_000), p.view_mode(), &mut view);
            assert!(p.select(&queue, &view).is_some(), "{} picks", p.name());
        }
        let sample = sched_pick_policies(3);
        assert_eq!(sample.ops, 21);
        assert_ne!(sample.checksum, 0);
    }

    #[test]
    fn addr_decode_spans_every_bank() {
        let geo = DramConfig::ddr4_2400().geometry;
        let mut banks = std::collections::BTreeSet::new();
        for addr in decode_addresses() {
            let loc = AddressMapping::BankInterleaved.decode(PhysAddr::new(addr), &geo);
            banks.insert((loc.bank_group, loc.bank));
        }
        assert_eq!(banks.len(), geo.banks_per_rank());
    }

    #[test]
    fn workload_gen_builds_whole_mixes() {
        let one = workload_gen(1);
        assert_eq!(one.ops, 10_000, "one request asks for a whole mix");
        assert_eq!(workload_gen(10_000).checksum, one.checksum);
        let two = workload_gen(10_001);
        assert_eq!(two.ops, 20_000);
        assert_ne!(two.checksum, one.checksum);
    }

    #[test]
    fn bdi_blocks_cover_every_encoding() {
        let mut seen = std::collections::BTreeSet::new();
        for block in bdi_blocks() {
            let c = bdi_compress(&block).unwrap();
            seen.insert(format!("{:?}", c.encoding));
        }
        for want in ["Zeros", "Repeated", "Uncompressed"] {
            assert!(seen.contains(want), "{want} missing from {seen:?}");
        }
        let base_delta = seen.iter().filter(|e| e.starts_with("BaseDelta")).count();
        assert!(base_delta >= 3, "{seen:?}");
    }

    #[test]
    fn ported_kernels_fold_real_work() {
        let ambit = ambit_and_row(4);
        assert_eq!(ambit.ops, 4);
        assert_ne!(ambit.checksum, 0);
        // Repeating a deterministic op must not leave the checksum where
        // a shorter run left it.
        for kernel in [
            ambit_and_row,
            secded_encode_decode,
            pnm_pagerank_step,
            stride_prefetch,
        ] {
            assert_ne!(kernel(2).checksum, kernel(3).checksum);
        }
        let prefetch = PrefetchHarness::new(64 * 1024, 64, 8, Box::new(StridePrefetcher::new(4)));
        let mut h = prefetch.unwrap();
        for i in 1..=256u64 {
            h.demand(i * 64);
        }
        assert!(h.metrics().covered_misses > 0, "the stride is learned");
    }

    #[test]
    fn dram_issue_cycle_issues_every_open_page_command() {
        let mut dram = DramModule::new(DramConfig::ddr3_1600()).unwrap();
        // Per bank and pass: row 0 (a miss, ACT+col, on the first pass; a
        // conflict, PRE+ACT+col, after), a row-0 hit, a row-1 conflict
        // and a row-1 hit.
        let first = 4 * (2 + 1 + 3 + 1);
        let second = 4 * (3 + 1 + 3 + 1);
        drive_dram_issue(&mut dram, first + second);
        let s = dram.stats();
        assert_eq!((s.reads, s.writes), (22, 10), "two passes of 16 accesses");
        assert_eq!((s.activates, s.precharges), (16, 12));
        assert_ne!(dram_issue(3).checksum, dram_issue(4).checksum);
    }

    #[test]
    fn sched_pick_folds_real_work() {
        // Both depths must emit candidates and pick a request every
        // iteration (a zero checksum would mean the view came up empty).
        // The checksums *matching* across depths is fine — the whole
        // point of the frontier view is that deeper queues over the same
        // banks produce the same candidate set.
        let r = run_all(8, 1);
        let d8 = r.iter().find(|x| x.name == "sched_pick_depth8").unwrap();
        let d256 = r.iter().find(|x| x.name == "sched_pick_depth256").unwrap();
        assert_eq!(d8.ops, 8);
        assert_eq!(d256.ops, 8);
        assert_ne!(d8.checksum, 0);
        assert_ne!(d256.checksum, 0);
    }
}
