//! R17 fixture module: secret-lifecycle invariants over [`SessionKey`].
//!
//! Expected findings: two R17 — `retain_key` (the key escapes into a
//! long-lived cache via `.push(..)`) and `close_link` (a teardown
//! returns without scrubbing the key it owns). The scrubbed teardown
//! and the public counter push must stay silent.

use crate::handshake::SessionKey;

/// R17 positive: the session key escapes its scope into a collection.
pub fn retain_key(cache: &mut Vec<SessionKey>, key: SessionKey) {
    cache.push(key);
}

/// R17 positive: a teardown that never zeroizes the key it consumes.
pub fn close_link(key: SessionKey) {
    announce_close();
}

/// Neutral helper so the teardown has a body without a scrub call.
fn announce_close() {}

/// R17 negative: the teardown scrubs the key before returning.
pub fn retire_session(mut key: SessionKey) {
    key.fill(0);
}

/// R17 negative: public counters may live in collections.
pub fn retain_stats(stats: &mut Vec<u64>, frames: u64) {
    stats.push(frames);
}
