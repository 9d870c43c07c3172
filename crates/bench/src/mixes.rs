//! Shared workload mixes for the scheduler experiments.

use ia_memctrl::MemRequest;
use ia_workloads::{Op, PointerChaseGen, RandomGen, StreamGen, TraceGenerator, ZipfGen};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::report::Error;

/// Converts workload trace requests into controller requests.
#[must_use]
pub fn to_mem_requests(trace: &[ia_workloads::TraceRequest], thread: usize) -> Vec<MemRequest> {
    trace
        .iter()
        .map(|r| match r.op {
            Op::Read => MemRequest::read(r.addr, thread),
            Op::Write => MemRequest::write(r.addr, thread),
        })
        .collect()
}

/// The four-thread interference mix used by the scheduler experiments:
/// a row-hit-friendly stream, a bank-hammering random thread, a hot-set
/// zipf thread, and a dependent pointer chaser — the workload archetypes
/// of the scheduling papers. `per_thread` requests each. Experiments
/// build it through [`RunCtx::intercept`](crate::RunCtx::intercept), so
/// `--record-trace` / `--replay-trace` cover it.
///
/// # Errors
///
/// A generator rejects its parameters.
pub fn interference_mix(per_thread: usize, seed: u64) -> Result<Vec<Vec<MemRequest>>, Error> {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Disjoint 64 MiB regions per thread.
    let region = 64 << 20;
    let stream = StreamGen::new(0, 64, 1 << 20, 0.1)?.generate(per_thread, &mut rng);
    let random = RandomGen::new(region, 32 << 20, 64, 0.3)?.generate(per_thread, &mut rng);
    let zipf = ZipfGen::new(2 * region, 4096, 4096, 1.2, 0.2)?.generate(per_thread, &mut rng);
    let mut chase = PointerChaseGen::new(3 * region, 64 * 1024, 64, &mut rng)?;
    let chase = chase.generate(per_thread, &mut rng);
    Ok(vec![
        to_mem_requests(&stream, 0),
        to_mem_requests(&random, 1),
        to_mem_requests(&zipf, 2),
        to_mem_requests(&chase, 3),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_has_four_threads_with_disjoint_regions() {
        let mix = interference_mix(100, 1).unwrap();
        assert_eq!(mix.len(), 4);
        for (t, trace) in mix.iter().enumerate() {
            assert_eq!(trace.len(), 100);
            assert!(trace.iter().all(|r| r.thread as usize == t));
        }
        // Thread regions must not overlap.
        let max0 = mix[0].iter().map(|r| r.addr.as_u64()).max().unwrap();
        let min1 = mix[1].iter().map(|r| r.addr.as_u64()).min().unwrap();
        assert!(max0 < min1);
    }
}
