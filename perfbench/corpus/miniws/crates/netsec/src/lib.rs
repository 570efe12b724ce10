//! R3 fixture crate root: deliberately missing `#![forbid(unsafe_code)]`.
//!
//! Expected findings: one R3 against this file.

pub mod handshake;
pub mod session;

/// Harmless content; the finding is about the missing crate attribute.
pub fn channel_id(node: u64) -> u64 {
    node.rotate_left(8)
}
