//! Fixture: R5 + R14 violation — the relay router blocks unboundedly.

/// Forwards one envelope, never observing a severed peer.
pub fn route_one(rx: &std::sync::mpsc::Receiver<u64>) -> Option<u64> {
    rx.recv().ok()
}
