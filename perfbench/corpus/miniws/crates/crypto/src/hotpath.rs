//! R16 fixture module: panic sites on the declared hot-path closure.
//!
//! Expected findings: two R16 — the unwrap in `stage_block` (one call
//! hop from the `seal_many` entry) and the unguarded index in
//! `tail_byte` (reached from `open_many`; this file is not on the R5
//! hot-path list, so R16 owns the site). The dominated unwrap inside
//! `open_many` and the expect in `cold_start` (no hot entry reaches it)
//! must stay silent under R16 — every abort site still surfaces as
//! flat R1, which is exactly the v3/v4 layering the corpus pins.

/// Hot entry: batch sealer. Panics one call hop down.
pub fn seal_many(blocks: &[Option<u8>]) -> u8 {
    let mut acc = 0;
    for b in blocks {
        acc ^= stage_block(*b);
    }
    acc
}

/// R16 positive: reachable unwrap with no dominating `is_some` guard.
fn stage_block(block: Option<u8>) -> u8 {
    block.unwrap()
}

/// Hot entry: batch opener. Its own unwrap is dominated by the
/// `is_some` check — discharged path-sensitively, R1 still flags it.
pub fn open_many(block: Option<u8>, tail: &[u8], at: usize) -> u8 {
    if block.is_some() {
        block.unwrap() ^ tail_byte(tail, at)
    } else {
        0
    }
}

/// R16 positive: unguarded dynamic index reachable from `open_many`.
fn tail_byte(tail: &[u8], at: usize) -> u8 {
    tail[at]
}

/// R16 negative: no hot entry reaches this setup helper.
pub fn cold_start(seed: Option<u8>) -> u8 {
    seed.expect("seed required")
}
