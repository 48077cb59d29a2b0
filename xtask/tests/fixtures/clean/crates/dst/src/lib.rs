// Off a transaction's path a clock sleep needs no `wait-ok:`.

fn poll(done: &dyn Fn() -> bool) {
    while !done() {
        dmv_common::clock::sleep_wall(core::time::Duration::from_millis(1));
    }
}
