//! Deterministic snapshot/restore for warm-forked sweeps.
//!
//! Parameter sweeps share an expensive prefix: build the component,
//! decode or synthesize the trace, warm caches and predictors — and
//! only then diverge per configuration. [`SnapshotState`] lets a sweep
//! pay the prefix once: run the common warm-up, [`snapshot`] the full
//! simulation state, then *fork* one restored copy per configuration.
//!
//! The contract is **bit-identity**: a component restored from a
//! snapshot must, when driven with the same inputs, produce exactly the
//! byte-for-byte statistics and completions as a freshly built component
//! driven through the warm-up and then those inputs. That means the
//! snapshot must capture *everything* observable — clocks, queues,
//! in-flight operations, RNG streams, statistics counters — or exclude a
//! piece of state only when it provably cannot affect any output.
//!
//! [`snapshot`]: SnapshotState::snapshot

/// State that can be deterministically saved and restored.
///
/// Implementations typically set `Snapshot = Self` and derive the save
/// via `Clone`; the associated type exists so large components can
/// snapshot a compact owned subset instead of their whole allocation.
pub trait SnapshotState {
    /// The owned, cloneable saved state.
    type Snapshot: Clone;

    /// Captures the complete observable state at the current cycle.
    fn snapshot(&self) -> Self::Snapshot;

    /// Overwrites `self` with a previously captured state. After
    /// `restore`, `self` must be indistinguishable (in every observable
    /// output) from the component that produced the snapshot.
    fn restore(&mut self, saved: &Self::Snapshot);

    /// Convenience: a fresh component forked from `self`'s current
    /// state. Equivalent to snapshot-then-restore onto a clone.
    #[must_use]
    fn fork(&self) -> Self
    where
        Self: Sized + Clone,
    {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Counter {
        ticks: u64,
        sum: u64,
    }

    impl SnapshotState for Counter {
        type Snapshot = Counter;

        fn snapshot(&self) -> Counter {
            self.clone()
        }

        fn restore(&mut self, saved: &Counter) {
            *self = saved.clone();
        }
    }

    #[test]
    fn restore_rewinds_to_the_saved_point() {
        let mut c = Counter { ticks: 0, sum: 0 };
        for i in 0..10 {
            c.ticks += 1;
            c.sum += i;
        }
        let save = c.snapshot();
        let at_save = c.clone();

        // Diverge, then rewind.
        c.ticks += 99;
        c.sum = 0;
        c.restore(&save);
        assert_eq!(c, at_save);

        // A fork and the original, driven identically, stay identical.
        let mut fork = c.fork();
        for i in 0..5 {
            c.ticks += 1;
            c.sum += i;
            fork.ticks += 1;
            fork.sum += i;
        }
        assert_eq!(c, fork);
    }
}
