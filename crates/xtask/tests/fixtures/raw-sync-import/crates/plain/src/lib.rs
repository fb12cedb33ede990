// Fixture: exactly one finding — this file never imports the `sync`
// facade, and still a raw `std::sync` lock is one the lock-order check
// cannot see. Its raw atomic and its `mpsc` channel are not findings:
// atomics are only held to the facade beside it, and `mpsc` is not a lock.
use std::sync::atomic::AtomicU64;
use std::sync::mpsc::Sender;
use std::sync::Mutex;

pub struct Log {
    pub seq: AtomicU64,
    pub lines: Mutex<Vec<String>>,
    pub tail: Sender<String>,
}
