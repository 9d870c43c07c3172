// path: crates/par/src/fake_ctx.rs
// OK: immutable statics and consts are fine, `'static` is a lifetime,
// and interior mutability lives in a value the caller owns and passes.
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

static NAMES: &[&str] = &["a", "b"];
const LIMIT: usize = 4;

pub struct RunCtx {
    threads: AtomicUsize,
    sink: Mutex<Vec<u64>>,
}

pub fn label(ctx: &RunCtx) -> &'static str {
    let n = ctx.threads.load(Ordering::Relaxed).min(LIMIT);
    ctx.sink.lock().map_or(NAMES[0], |_| NAMES[n % NAMES.len()])
}

#[cfg(test)]
mod tests {
    // Test code is not shipped: a lock that serializes tests is
    // tolerated here (and better avoided).
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
}
