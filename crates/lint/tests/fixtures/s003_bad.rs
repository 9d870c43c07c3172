// path: crates/par/src/fake_ambient.rs
// S003: process-wide mutable state in shipped code — an ambient worker
// count, a global sink, a per-thread cache and a `static mut`.
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

static THREADS: AtomicUsize = AtomicUsize::new(0);
pub static SINK: Mutex<Vec<u64>> = Mutex::new(Vec::new());
static CONFIG: OnceLock<String> = OnceLock::new();
static mut COUNT: u64 = 0;

thread_local! {
    static SCRATCH: RefCell<Vec<u8>> = RefCell::new(Vec::new());
}

pub fn threads() -> usize {
    THREADS.load(Ordering::Relaxed)
}
