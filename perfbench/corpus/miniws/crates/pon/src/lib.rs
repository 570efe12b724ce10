//! R4 fixture crate root: narrowing casts in a parser crate.
//!
//! Expected findings: one R4 (in `narrow_sci`). The widening cast and
//! the literal cast must stay silent.

#![forbid(unsafe_code)]

pub mod frame;

/// R4 positive: narrowing a wire field to 16 bits.
pub fn narrow_sci(sci: u64) -> u16 {
    sci as u16
}

/// R4 negative: widening loses nothing.
pub fn widen(x: u32) -> u64 {
    x as u64
}

/// R4 negative: casting a literal constant.
pub fn literal_cast() -> u64 {
    u32::MAX as u64
}

/// R4 negative (dataflow discharge): the only caller passes a literal,
/// so the narrowing cannot truncate attacker-controlled input.
pub fn narrow_fixed(port: u64) -> u16 {
    port as u16
}

/// Sole call site of `narrow_fixed`, with a literal argument.
pub fn default_port() -> u16 {
    narrow_fixed(7)
}
