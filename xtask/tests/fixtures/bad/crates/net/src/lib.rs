// A clock sleep on a transaction's path that does not name the modeled
// delay it pays.

fn deliver(deadline: dmv_common::clock::WallInstant) {
    dmv_common::clock::sleep_until(deadline);
}
