// A poll outside clock.rs: reported although it names what it waits for
// and sits outside the modeled-wait crates — only clock.rs may call
// thread::sleep.

fn poll(done: &dyn Fn() -> bool) {
    while !done() {
        // wait-ok: a test harness poll
        std::thread::sleep(core::time::Duration::from_millis(1));
    }
}
