//! R7 negative file: `telemetry/clock.rs` is allowlisted — this is the
//! abstraction every other crate must route timing through.

use std::time::Instant;

/// Minimal monotonic clock.
pub struct MiniClock {
    epoch: Instant,
}

impl MiniClock {
    /// R7 negative: `Instant::now()` is permitted here, and only here.
    pub fn manual_clock() -> MiniClock {
        MiniClock { epoch: Instant::now() }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}
