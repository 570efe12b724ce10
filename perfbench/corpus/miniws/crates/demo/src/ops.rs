//! R9 fixture module: security-critical `Result`s discarded.
//!
//! Expected findings: two R9 — `check_and_ignore` (`let _ =` binding)
//! and `install_and_drop` (bare statement). Propagating the `Result`
//! and discarding a non-security `Result` must stay silent.

/// R9 positive: the verification verdict is bound to `_` and lost.
pub fn check_and_ignore(confirm: &[u8]) {
    let _ = verify_peer(confirm);
}

/// R9 positive: the installation outcome is dropped on the floor.
pub fn install_and_drop(material: &[u8]) {
    install_key(material);
}

/// R9 negative: the `Result` is handed to the caller.
pub fn check_properly(confirm: &[u8]) -> Result<(), HandshakeError> {
    verify_peer(confirm)
}

/// R9 negative: a non-security crate's `Result` may be discarded.
pub fn tidy() {
    let _ = cleanup();
}

/// Local, non-security helper returning a `Result`.
fn cleanup() -> Result<(), ()> {
    Ok(())
}
