//! R2 fixture crate root: secret comparisons in a `crypto` crate.
//!
//! Expected findings: one R2 (in `bad_tag_check`). The length check and
//! the neutral comparison must stay silent.

#![forbid(unsafe_code)]

pub mod gcm;
pub mod hotpath;
pub mod sidechan;

/// R2 positive: comparing an authentication tag with `==`.
pub fn bad_tag_check(tag: &[u8], expected_tag: &[u8]) -> bool {
    tag == expected_tag
}

/// R2 negative: `.len()` projects a public size.
pub fn key_length_ok(key: &[u8]) -> bool {
    key.len() == 32
}

/// R2 negative: neutral identifiers carry no secret segment.
pub fn counters_match(a: u64, b: u64) -> bool {
    a == b
}

/// Block width used by the dataflow-discharge fixtures in `gcm.rs`.
pub const BLK: usize = 16;

/// Static substitution table for the mask-discharge fixture.
pub fn table256() -> &'static [u8; 256] {
    &TABLE
}

static TABLE: [u8; 256] = [0; 256];
