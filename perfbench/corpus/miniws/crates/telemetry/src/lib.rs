//! R7 fixture crate root: the telemetry clock abstraction is the one
//! place allowed to read the OS clock, so nothing in this file or in
//! `clock.rs` may be flagged.

#![forbid(unsafe_code)]

pub mod clock;
pub mod spans;

/// R7 negative: time obtained through the clock abstraction.
pub fn through_the_clock(c: &clock::MiniClock) -> u64 {
    c.now_ns()
}
