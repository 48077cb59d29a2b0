// Clean counterpart of the bad fixture: the same shapes, but every
// rule is either satisfied outright or carries its escape comment.

fn relaxed_with_justification(counter: &std::sync::atomic::AtomicU64) -> u64 {
    // relaxed-ok: monotonic stats counter, read only for reporting
    counter.load(std::sync::atomic::Ordering::Relaxed)
}

fn deadline_via_clock(clock: &dmv_common::clock::SimClock) {
    // wait-ok: the reply hop to the client
    clock.sleep_paper(core::time::Duration::from_millis(1));
}

fn deliver(deadline: dmv_common::clock::WallInstant) {
    // wait-ok: the rest of the message's modeled time on the wire
    dmv_common::clock::sleep_until(deadline);
}

fn seeded_randomness(rng: &mut dmv_common::rng::SeededRng) -> u64 {
    rng.next_u64()
}

fn no_panic_on_hot_path(v: Option<u64>) -> u64 {
    v.unwrap_or(0)
}

fn documented_invariant(v: Option<u64>) -> u64 {
    // unwrap-ok: caller checked is_some() under the same guard
    v.unwrap()
}

fn parse_peer(addr: &str) -> bool {
    // wire-boundary-ok: address parsing only; sockets stay in crates/net
    addr.parse::<std::net::SocketAddr>().is_ok()
}

fn correct_lock_order(state: &State) {
    let seq_guard = state.commit_seq.lock();
    let bcast_guard = state.bcast.lock();
    drop(seq_guard);
    drop(bcast_guard);
}

fn sequential_not_nested(state: &State) {
    {
        let bcast_guard = state.bcast.lock();
        drop(bcast_guard);
    }
    let seq_guard = state.commit_seq.lock();
    drop(seq_guard);
}

fn early_drop_is_not_nested(state: &State) {
    let bcast_guard = state.bcast.lock();
    drop(bcast_guard);
    let seq_guard = state.commit_seq.lock();
    drop(seq_guard);
}
