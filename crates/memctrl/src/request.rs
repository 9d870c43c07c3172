//! Memory requests and the controller's view of them.

use ia_dram::{AccessKind, Cycle, Location, PhysAddr};

/// A request as submitted to the controller: 16 bytes, only what the
/// simulation reads. The controller names a request by the id
/// [`MemoryController::enqueue`](crate::MemoryController::enqueue)
/// returns, which travels on [`Pending::id`] and [`Completed::id`], not
/// on the request itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Target physical address.
    pub addr: PhysAddr,
    /// Read or write.
    pub kind: AccessKind,
    /// Originating hardware thread; widen it with `as usize` to index a
    /// per-thread table.
    pub thread: u32,
}

/// `thread` as a request's 32-bit thread index.
///
/// # Panics
///
/// Panics if `thread` does not fit in a `u32`: an index of 2³² or more
/// names no thread any simulated machine has, and truncating it would
/// silently attribute the request to another one.
#[must_use]
pub(crate) fn thread_index(thread: usize) -> u32 {
    match u32::try_from(thread) {
        Ok(t) => t,
        // lint: allow(P002, a thread index beyond u32 is a caller bug, never truncated)
        Err(_) => panic!("thread index {thread} does not fit in 32 bits"),
    }
}

impl MemRequest {
    /// Creates a read request.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is 2³² or more.
    #[must_use]
    pub fn read(addr: u64, thread: usize) -> Self {
        MemRequest {
            addr: PhysAddr::new(addr),
            kind: AccessKind::Read,
            thread: thread_index(thread),
        }
    }

    /// Creates a write request.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is 2³² or more.
    #[must_use]
    pub fn write(addr: u64, thread: usize) -> Self {
        MemRequest {
            addr: PhysAddr::new(addr),
            kind: AccessKind::Write,
            thread: thread_index(thread),
        }
    }
}

/// A queued request with its decoded coordinates and queue metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pending {
    /// The id the controller assigned on enqueue: ids rise in enqueue
    /// order, so they break arrival ties oldest-first.
    pub id: u64,
    /// The original request.
    pub request: MemRequest,
    /// Decoded device coordinates.
    pub loc: Location,
    /// Cycle the request entered the queue.
    pub arrival: Cycle,
    /// Marked by PAR-BS style batching.
    pub batched: bool,
    /// Whether the controller has issued any command for this request yet
    /// (used to classify the row-buffer outcome exactly once).
    pub started: bool,
}

/// A completed request with its timing: 40 bytes. The controller builds
/// it when the request's column command issues and holds it in flight
/// until `finished`, then delivers it as it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completed {
    /// The id the controller assigned on enqueue.
    pub id: u64,
    /// The original request.
    pub request: MemRequest,
    /// Cycle the request entered the queue.
    pub arrival: Cycle,
    /// Cycle the data burst finished.
    pub finished: Cycle,
}

impl Completed {
    /// Queueing + service latency in cycles.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.finished - self.arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let r = MemRequest::read(0x40, 2);
        assert_eq!(r.kind, AccessKind::Read);
        assert_eq!(r.thread, 2);
        let w = MemRequest::write(0x80, 0);
        assert_eq!(w.kind, AccessKind::Write);
    }

    #[test]
    fn records_are_compact() {
        assert_eq!(std::mem::size_of::<MemRequest>(), 16);
        assert_eq!(std::mem::size_of::<Completed>(), 40);
    }

    #[test]
    fn largest_thread_index_fits() {
        let max = u32::MAX as usize;
        assert_eq!(MemRequest::write(0, max).thread, u32::MAX);
    }

    #[test]
    #[should_panic(expected = "thread index 4294967296 does not fit in 32 bits")]
    fn thread_index_beyond_u32_panics() {
        let _ = MemRequest::read(0, 1 << 32);
    }

    #[test]
    fn latency_is_arrival_to_finish() {
        let c = Completed {
            id: 1,
            request: MemRequest::read(0, 0),
            arrival: Cycle::new(10),
            finished: Cycle::new(75),
        };
        assert_eq!(c.latency(), 65);
    }
}
