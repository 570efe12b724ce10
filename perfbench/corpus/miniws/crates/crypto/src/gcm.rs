//! R5 fixture hot path (`crypto/gcm.rs` is in the R5 scope table).
//!
//! Expected findings: one R5 (in `unguarded_block`). The guarded and
//! literal-bounded accesses must stay silent.

/// R5 positive: dynamic index with no preceding bounds guard.
pub fn unguarded_block(buf: &[u8], i: usize) -> u8 {
    buf[i]
}

/// R5 negative: a `len()` guard dominates the access.
pub fn guarded_block(buf: &[u8], i: usize) -> u8 {
    if i < buf.len() {
        buf[i]
    } else {
        0
    }
}

/// R5 negative: literal-range loop variables are statically bounded.
pub fn rotate_state(state: &mut [u8; 16]) {
    for r in 1..4 {
        state[r] = state[r + 4];
    }
}

/// R5 negative (dataflow discharge): the loop bound `BLK` equals the
/// array length of both operands.
pub fn xor_fixed(acc: &mut [u8; BLK], add: &[u8; BLK]) {
    for i in 0..BLK {
        acc[i] ^= add[i];
    }
}

/// R5 negative (dataflow discharge): the index is masked below the
/// table length resolved through `table256`'s return type.
pub fn masked_lookup(x: usize) -> u8 {
    let t = table256();
    t[x & 0xff]
}

/// R5 negative (dataflow discharge): the sole caller guards the index
/// before delegating.
pub fn read_unchecked(buf: &[u8], i: usize) -> u8 {
    buf[i]
}

/// The one call site of `read_unchecked`: bounds-checked first.
pub fn read_guarded_call(buf: &[u8], i: usize) -> u8 {
    if i < buf.len() {
        read_unchecked(buf, i)
    } else {
        0
    }
}
