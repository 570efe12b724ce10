//! R5 fixture hot path (`pon/frame.rs` is in the R5 scope table).
//!
//! Expected findings: one R5 (in `read_field`).

/// R5 positive: frame offset used without a bounds guard.
pub fn read_field(frame: &[u8], offset: usize) -> u8 {
    frame[offset]
}

/// R5 negative: `get` both guards and accesses.
pub fn read_checked(frame: &[u8], offset: usize) -> u8 {
    frame.get(offset).copied().unwrap_or(0)
}
