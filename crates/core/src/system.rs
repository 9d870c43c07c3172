//! The intelligent system: a configurable composition of the three
//! principles over the substrate crates, with a trace-driven full-system
//! simulation path (cache → memory controller → DRAM).

use ia_cache::{Cache, CacheOp, DipCache};
use ia_dram::{DramConfig, LatencyMode};
use ia_memctrl::{
    run_closed_loop_with, MemRequest, MemoryController, RlScheduler, RlSchedulerConfig, RunReport,
    Scheduler,
};
use ia_workloads::{Op, TraceRequest};
use ia_xmem::{AtomRegistry, DataAwareCache};

use crate::error::CoreError;
use crate::principles::{Principle, PrincipleSet};

/// Which fixed scheduler a non-learning configuration uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// First-come first-served.
    Fcfs,
    /// First-ready FCFS.
    FrFcfs,
    /// Parallelism-aware batch scheduling.
    ParBs,
    /// Least-attained-service ranking.
    Atlas,
    /// Thread-cluster memory scheduling.
    Tcm,
    /// Blacklisting scheduler.
    Bliss,
    /// The self-optimizing RL scheduler.
    Rl,
}

impl SchedulerKind {
    /// Every scheduler, baseline first.
    #[must_use]
    pub fn all() -> [SchedulerKind; 7] {
        [
            SchedulerKind::Fcfs,
            SchedulerKind::FrFcfs,
            SchedulerKind::ParBs,
            SchedulerKind::Atlas,
            SchedulerKind::Tcm,
            SchedulerKind::Bliss,
            SchedulerKind::Rl,
        ]
    }

    /// Instantiates the scheduler for `threads` hardware threads.
    #[must_use]
    pub fn build(self, threads: usize) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Fcfs => Box::new(ia_memctrl::Fcfs::new()),
            SchedulerKind::FrFcfs => Box::new(ia_memctrl::FrFcfs::new()),
            SchedulerKind::ParBs => Box::new(ia_memctrl::ParBs::new(threads)),
            SchedulerKind::Atlas => Box::new(ia_memctrl::Atlas::new(threads, 100_000)),
            SchedulerKind::Tcm => Box::new(ia_memctrl::Tcm::new(threads, 50_000, 5_000)),
            SchedulerKind::Bliss => Box::new(ia_memctrl::Bliss::new()),
            SchedulerKind::Rl => Box::new(RlScheduler::new(RlSchedulerConfig::default())),
        }
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Fcfs => "FCFS",
            SchedulerKind::FrFcfs => "FR-FCFS",
            SchedulerKind::ParBs => "PAR-BS",
            SchedulerKind::Atlas => "ATLAS",
            SchedulerKind::Tcm => "TCM",
            SchedulerKind::Bliss => "BLISS",
            SchedulerKind::Rl => "RL",
        }
    }
}

/// Full-system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// DRAM device.
    pub dram: DramConfig,
    /// Enabled principles.
    pub principles: PrincipleSet,
    /// Last-level cache size in bytes.
    pub llc_bytes: u64,
    /// LLC associativity.
    pub llc_ways: usize,
    /// Cache line size.
    pub line_bytes: u64,
    /// Scheduler used when the data-driven principle is off.
    pub fixed_scheduler: SchedulerKind,
    /// Outstanding requests per thread (memory-level parallelism).
    pub window: usize,
    /// Simulation cycle budget.
    pub max_cycles: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            dram: DramConfig::ddr3_1600(),
            principles: PrincipleSet::none(),
            llc_bytes: 256 * 1024,
            llc_ways: 16,
            line_bytes: 64,
            fixed_scheduler: SchedulerKind::FrFcfs,
            window: 8,
            max_cycles: 50_000_000,
        }
    }
}

/// Result of one full-system run.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReport {
    /// Principles that were enabled.
    pub principles: PrincipleSet,
    /// LLC hit rate over the input trace.
    pub llc_hit_rate: f64,
    /// Requests that reached memory (misses + writebacks).
    pub memory_requests: u64,
    /// The memory-side run report.
    pub memory: RunReport,
}

impl SystemReport {
    /// End-to-end cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.memory.cycles
    }

    /// Off-chip data-movement energy, picojoules.
    #[must_use]
    pub fn movement_energy_pj(&self) -> f64 {
        self.memory.io_energy_pj
    }
}

/// The composed intelligent system.
///
/// # Examples
///
/// ```
/// use ia_core::{IntelligentSystem, PrincipleSet, SystemConfig};
/// use ia_workloads::{StreamGen, TraceGenerator};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let trace = StreamGen::new(0, 64, 1 << 20, 0.0)?.generate(2000, &mut rng);
/// let system = IntelligentSystem::new(SystemConfig {
///     principles: PrincipleSet::all(),
///     ..SystemConfig::default()
/// });
/// let report = system.run(&trace)?;
/// assert!(report.llc_hit_rate >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct IntelligentSystem {
    config: SystemConfig,
    registry: AtomRegistry,
}

impl IntelligentSystem {
    /// Creates a system from a configuration.
    #[must_use]
    pub fn new(config: SystemConfig) -> Self {
        IntelligentSystem {
            config,
            registry: AtomRegistry::new(),
        }
    }

    /// Attaches an X-Mem atom registry (used by the data-aware principle).
    #[must_use]
    pub fn with_registry(mut self, registry: AtomRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runs a trace through the system: the LLC filters it, misses and
    /// writebacks go to the memory controller, the configured principles
    /// select the cache policy, scheduler, and DRAM latency mode.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the trace is empty or the configuration is
    /// invalid.
    pub fn run(&self, trace: &[TraceRequest]) -> Result<SystemReport, CoreError> {
        if trace.is_empty() {
            return Err(CoreError::invalid("trace must be non-empty"));
        }
        let cfg = &self.config;
        let p = cfg.principles;
        let threads = trace.iter().map(|r| r.thread as usize).max().unwrap_or(0) + 1;

        // ---- Cache stage (data-aware / data-driven choose the policy) ----
        let mut miss_traces: Vec<Vec<MemRequest>> = vec![Vec::new(); threads];
        let push = |addr: u64, op: Op, thread: u32, traces: &mut Vec<Vec<MemRequest>>| {
            let thread = thread as usize;
            let req = match op {
                Op::Read => MemRequest::read(addr, thread),
                Op::Write => MemRequest::write(addr, thread),
            };
            traces[thread].push(req);
        };
        let (hits, misses) = if p.has(Principle::DataAware) {
            let base = Cache::new(cfg.llc_bytes, cfg.line_bytes, cfg.llc_ways)
                .map_err(|_| CoreError::invalid("invalid LLC geometry"))?;
            let mut cache = DataAwareCache::new(base, &self.registry);
            for r in trace {
                let access = cache.access(r.addr, to_cache_op(r.op));
                if !access.hit {
                    push(r.addr, r.op, r.thread, &mut miss_traces);
                }
                if let Some(wb) = access.writeback {
                    push(wb, Op::Write, r.thread, &mut miss_traces);
                }
            }
            (cache.cache().stats().hits, cache.cache().stats().misses)
        } else if p.has(Principle::DataDriven) {
            let mut cache = DipCache::new(cfg.llc_bytes, cfg.line_bytes, cfg.llc_ways)
                .map_err(|_| CoreError::invalid("invalid LLC geometry"))?;
            for r in trace {
                let access = cache.access(r.addr, to_cache_op(r.op));
                if !access.hit {
                    push(r.addr, r.op, r.thread, &mut miss_traces);
                }
                if let Some(wb) = access.writeback {
                    push(wb, Op::Write, r.thread, &mut miss_traces);
                }
            }
            (cache.cache().stats().hits, cache.cache().stats().misses)
        } else {
            let mut cache = Cache::new(cfg.llc_bytes, cfg.line_bytes, cfg.llc_ways)
                .map_err(|_| CoreError::invalid("invalid LLC geometry"))?;
            for r in trace {
                let access = cache.access(r.addr, to_cache_op(r.op));
                if !access.hit {
                    push(r.addr, r.op, r.thread, &mut miss_traces);
                }
                if let Some(wb) = access.writeback {
                    push(wb, Op::Write, r.thread, &mut miss_traces);
                }
            }
            (cache.stats().hits, cache.stats().misses)
        };
        let llc_hit_rate = if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        };

        // Threads with no misses still need a placeholder so the harness
        // has a non-empty trace per thread.
        for t in &mut miss_traces {
            if t.is_empty() {
                t.push(MemRequest::read(0, 0));
            }
        }
        let memory_requests: u64 = miss_traces.iter().map(|t| t.len() as u64).sum();

        // ---- Memory stage (data-driven scheduler, data-centric DRAM) ----
        let scheduler: Box<dyn Scheduler> = if p.has(Principle::DataDriven) {
            SchedulerKind::Rl.build(threads)
        } else {
            cfg.fixed_scheduler.build(threads)
        };
        let mut ctrl = MemoryController::new(cfg.dram.clone(), scheduler)
            .map_err(|e| CoreError::config(e.to_string()))?;
        if p.has(Principle::DataCentric) {
            // The data-centric principle's "low-latency access to data":
            // AL-DRAM-style common-case timing (the strongest published
            // single mechanism; ChargeCache/TL-DRAM are evaluated
            // separately in E13).
            ctrl = ctrl.with_latency_mode(LatencyMode::AlDram { scale: 0.75 });
        }
        let memory = run_closed_loop_with(ctrl, &miss_traces, cfg.window, cfg.max_cycles)
            .map_err(|e| CoreError::config(e.to_string()))?;

        Ok(SystemReport {
            principles: p,
            llc_hit_rate,
            memory_requests,
            memory,
        })
    }
}

fn to_cache_op(op: Op) -> CacheOp {
    match op {
        Op::Read => CacheOp::Read,
        Op::Write => CacheOp::Write,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_workloads::{StreamGen, TraceGenerator, ZipfGen};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    fn zipf_trace(n: usize) -> Vec<TraceRequest> {
        let mut r = rng();
        ZipfGen::new(0, 4096, 4096, 1.1, 0.2)
            .unwrap()
            .generate(n, &mut r)
    }

    #[test]
    fn baseline_system_runs() {
        let sys = IntelligentSystem::new(SystemConfig::default());
        let report = sys.run(&zipf_trace(3000)).unwrap();
        assert!(report.memory.stats.completed > 0);
        assert!(report.llc_hit_rate > 0.0 && report.llc_hit_rate < 1.0);
        assert_eq!(report.principles, PrincipleSet::none());
    }

    #[test]
    fn empty_trace_is_an_error() {
        let sys = IntelligentSystem::new(SystemConfig::default());
        assert!(sys.run(&[]).is_err());
    }

    #[test]
    fn streaming_trace_hits_llc_heavily() {
        let mut r = rng();
        let trace = StreamGen::new(0, 64, 16 * 1024, 0.0)
            .unwrap()
            .generate(5000, &mut r);
        let sys = IntelligentSystem::new(SystemConfig::default());
        let report = sys.run(&trace).unwrap();
        assert!(
            report.llc_hit_rate > 0.9,
            "small working set should hit: {}",
            report.llc_hit_rate
        );
    }

    #[test]
    fn data_centric_system_is_no_slower() {
        let trace = zipf_trace(4000);
        let base = IntelligentSystem::new(SystemConfig::default())
            .run(&trace)
            .unwrap();
        let centric = IntelligentSystem::new(SystemConfig {
            principles: PrincipleSet::none().with(Principle::DataCentric),
            ..SystemConfig::default()
        })
        .run(&trace)
        .unwrap();
        assert!(centric.cycles() <= base.cycles());
    }

    #[test]
    fn all_principles_system_runs_and_reports() {
        let trace = zipf_trace(3000);
        let sys = IntelligentSystem::new(SystemConfig {
            principles: PrincipleSet::all(),
            ..SystemConfig::default()
        });
        let report = sys.run(&trace).unwrap();
        assert_eq!(report.principles.count(), 3);
        assert!(report.memory_requests > 0);
        assert!(report.movement_energy_pj() > 0.0);
    }

    #[test]
    fn scheduler_kinds_build() {
        for kind in SchedulerKind::all() {
            let s = kind.build(4);
            assert!(!s.name().is_empty());
            assert!(!kind.name().is_empty());
        }
    }
}
