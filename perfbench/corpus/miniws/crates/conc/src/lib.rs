//! Concurrency fixture corpus: R13/R14 positives and negatives.
//!
//! Expected findings: four R13 — the direct two-lock inversion
//! (`ab_order` vs `ba_order`) and the cycle closed through a call made
//! under lock (`via_call` calling `grab_d`, against `dc_order`) — and
//! two R14 on the `ready` flag (`publish_ready`, `spin_wait`). The
//! consistent-order pair, the scope/drop releases, the pure counters
//! and the Acquire/Release flag must all stay silent.
//!
//! Never compiled — scanned only; the lock types are stand-ins.

#![forbid(unsafe_code)]

/// R13 positive: acquires `a_mu` then `b_mu`...
pub fn ab_order(a_mu: &Mutex, b_mu: &Mutex) {
    let g1 = a_mu.lock();
    let g2 = b_mu.lock();
    use_both(&g1, &g2);
}

/// R13 positive: ...while this thread takes `b_mu` then `a_mu`.
pub fn ba_order(a_mu: &Mutex, b_mu: &Mutex) {
    let g1 = b_mu.lock();
    let g2 = a_mu.lock();
    use_both(&g1, &g2);
}

/// Acquires only `d_mu`; on its own this is fine.
fn grab_d(d_mu: &Mutex) {
    let g = d_mu.lock();
    touch(&g);
}

/// R13 positive: calling `grab_d` while `c_mu` is held induces the
/// c → d edge...
pub fn via_call(c_mu: &Mutex, d_mu: &Mutex) {
    let g = c_mu.lock();
    grab_d(d_mu);
}

/// R13 positive: ...and this function closes the cycle with d → c.
pub fn dc_order(c_mu: &Mutex, d_mu: &Mutex) {
    let g1 = d_mu.lock();
    let g2 = c_mu.lock();
    use_both(&g1, &g2);
}

/// R13 negative: both functions agree on the e-before-f order.
pub fn consistent_one(e_mu: &Mutex, f_mu: &Mutex) {
    let g1 = e_mu.lock();
    let g2 = f_mu.lock();
    use_both(&g1, &g2);
}

/// R13 negative: same canonical order again.
pub fn consistent_two(e_mu: &Mutex, f_mu: &Mutex) {
    let g1 = e_mu.lock();
    let g2 = f_mu.lock();
    use_both(&g1, &g2);
}

/// R13 negative: the `f_mu` guard dies at the end of its block, so
/// re-locking in the opposite textual order induces no f → e edge.
pub fn scoped_release(e_mu: &Mutex, f_mu: &Mutex) {
    {
        let g1 = f_mu.lock();
        touch(&g1);
    }
    let g2 = e_mu.lock();
    let g3 = f_mu.lock();
    use_both(&g2, &g3);
}

/// R13 negative: an explicit `drop` releases the guard early.
pub fn dropped_release(e_mu: &Mutex, f_mu: &Mutex) {
    let g1 = f_mu.lock();
    touch(&g1);
    drop(g1);
    let g2 = e_mu.lock();
    touch(&g2);
}

/// R14 positive: `ready` is read in a branch condition somewhere, so a
/// Relaxed publish is a sync-flag misuse...
pub fn publish_ready(ready: &AtomicBool) {
    ready.store(true, Ordering::Relaxed);
}

/// R14 positive: ...as is the Relaxed read in the spin condition itself.
pub fn spin_wait(ready: &AtomicBool) {
    while !ready.load(Ordering::Relaxed) {
        hint();
    }
}

/// R14 negative: a pure counter — incremented and snapshotted, never
/// branched on — may stay Relaxed.
pub fn bump(hits: &AtomicU64) {
    hits.fetch_add(1, Ordering::Relaxed);
}

/// R14 negative: the counter read lands in a return value, not a
/// condition.
pub fn snapshot_hits(hits: &AtomicU64) -> u64 {
    hits.load(Ordering::Relaxed)
}

/// R14 negative: a flag handled with proper Acquire/Release pairing.
pub fn done_yet(done: &AtomicBool) -> u8 {
    if done.load(Ordering::Acquire) {
        1
    } else {
        0
    }
}

/// R14 negative: the Release publish side of `done`.
pub fn finish(done: &AtomicBool) {
    done.store(true, Ordering::Release);
}
