// The one file that may call thread::sleep.

pub fn sleep_wall(d: core::time::Duration) {
    std::thread::sleep(d);
}
