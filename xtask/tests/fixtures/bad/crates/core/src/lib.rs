// Synthetic violation fixture for the lint integration tests: one
// violation per rule. Never compiled — scanned by `xtask lint --root`.

use std::sync::Mutex;
use std::time::Instant;
use std::net::TcpStream;

fn relaxed_without_justification(counter: &std::sync::atomic::AtomicU64) -> u64 {
    counter.load(std::sync::atomic::Ordering::Relaxed)
}

fn ambient_randomness() -> u64 {
    let mut rng = thread_rng();
    rng.gen()
}

fn panics_on_hot_path(v: Option<u64>) -> u64 {
    v.unwrap()
}

fn inverted_lock_order(state: &State) {
    let bcast_guard = state.bcast.lock();
    let seq_guard = state.commit_seq.lock();
    drop(seq_guard);
    drop(bcast_guard);
}

fn stall_per_message(targets: &[u64]) {
    for _ in targets {
        std::thread::sleep(core::time::Duration::from_micros(7));
    }
}

#[cfg(test)]
mod tests {
    // Test code is exempt: none of these may be reported.
    use std::time::Instant;

    fn fine_here(v: Option<u64>) -> u64 {
        let _t = Instant::now();
        v.unwrap()
    }
}
