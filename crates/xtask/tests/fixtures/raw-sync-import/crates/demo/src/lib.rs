// Fixture: exactly one finding — this file takes its lock from the `sync`
// facade, so the interleaving checker can schedule it, and then keeps a
// flag in a raw `std::sync` atomic the checker cannot see. `Arc` is not a
// facade name and stays `std`'s; the test module may use what it likes.
use crate::sync::Mutex;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

pub struct Latch {
    pub open: AtomicBool,
    pub waiters: Arc<Mutex<u32>>,
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn counts() {
        let _ = AtomicUsize::new(0);
    }
}
