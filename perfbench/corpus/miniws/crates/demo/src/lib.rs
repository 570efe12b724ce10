//! R1/R6 fixture crate: abort paths in library code, debt markers.
//!
//! Expected findings: three R1 (in `lib_unwrap`, `lib_expect`,
//! `lib_panic`) and one R6 (the to-do comment below). The test module
//! and the look-alike methods must stay silent.

#![forbid(unsafe_code)]

pub mod ops;

// TODO: fixture debt marker — exactly one R6 finding.

/// R1 positive: plain `.unwrap()` in library code.
pub fn lib_unwrap(x: Option<u8>) -> u8 {
    x.unwrap()
}

/// R1 positive: `.expect("...")` with a string argument.
pub fn lib_expect(x: Option<u8>) -> u8 {
    x.expect("fixture expects a value")
}

/// R1 positive: `panic!` macro in library code.
pub fn lib_panic(flag: bool) {
    if flag {
        panic!("fixture abort path");
    }
}

/// R1 negative: a parser method named `expect` taking a byte is not
/// `Option::expect`.
pub struct MiniParser {
    pos: usize,
}

impl MiniParser {
    /// Consumes one expected byte.
    pub fn expect(&mut self, _b: u8) -> Result<(), ()> {
        self.pos += 1;
        Ok(())
    }

    /// R1 negative: calling the look-alike method.
    pub fn parse(&mut self) -> Result<(), ()> {
        self.expect(b':')
    }
}

/// R1 negative: a `panic` path segment is not the `panic!` macro.
pub fn catches() -> bool {
    std::panic::catch_unwind(|| 1).is_ok()
}

/// R7 positive: raw OS timing in library code outside the telemetry
/// clock abstraction.
pub fn raw_timing() -> std::time::Instant {
    std::time::Instant::now()
}

/// R7 negative: `Instant` in type position without a `::now` call.
pub fn instant_passthrough(epoch: std::time::Instant) -> std::time::Instant {
    epoch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_is_fine_in_tests() {
        assert_eq!(lib_unwrap(Some(3)), 3);
        assert_eq!(Some(1).unwrap(), 1);
    }

    #[test]
    fn timing_is_fine_in_tests() {
        let _ = std::time::Instant::now();
    }
}
