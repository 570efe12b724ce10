//! Side-channel fixture corpus: R10/R11/R12 positives and negatives.
//!
//! Expected findings: four R10 (`b_if`, `b_match`, `b_while`, the
//! interprocedural `hop_branch`), three R11 (`t_lookup`, `t_chain`,
//! `t_mix`), three R12 (`bias`, `residue`, `same_session`). Two more
//! would-be findings are suppressed in place with line-scoped
//! `allow(...)` comments (`key_dispatch`, `sbox_probe`) and must be
//! counted in the report's `allowed` field, not its findings.

/// Lookup tables for the R11 fixtures.
static TABLE: [u8; 256] = [0; 256];
static SBOX: [u8; 256] = [0; 256];

/// A secret-bearing type for the typed-comparison R12 positive: the
/// field and parameter names below are deliberately neutral.
pub struct SessionSecret(pub u64);

/// R10 positive: `if` on a secret byte.
pub fn b_if(key: &[u8]) -> u8 {
    if key[0] > 7 {
        1
    } else {
        0
    }
}

/// R10 positive: `match` on a secret byte.
pub fn b_match(tag: &[u8]) -> u8 {
    match tag[0] {
        0 => 1,
        _ => 0,
    }
}

/// R10 positive: `while` on a secret-derived local.
pub fn b_while(mac: &[u8]) -> u8 {
    let m = mac[0];
    let mut x = 0;
    while m > x {
        x += 1;
    }
    x
}

/// Helper for the interprocedural R10: branches on a neutral-named
/// parameter, so it is silent on its own.
fn select_path(k: u8, limit: u8) -> u8 {
    if k > limit {
        1
    } else {
        0
    }
}

/// R10 positive (one hop): a secret-derived value is passed into the
/// branching parameter of `select_path`.
pub fn hop_branch(key: &[u8]) -> u8 {
    let k0 = key[0];
    select_path(k0, 3)
}

/// R11 positive: a secret drives the table index directly.
pub fn t_lookup(key: &[u8]) -> u8 {
    TABLE[key[0] as usize]
}

/// R11 positive: the index flows through a `let` binding.
pub fn t_chain(key: &[u8], i: usize) -> u8 {
    let b = key[i];
    TABLE[b as usize]
}

/// R11 positive: the index is a secret-derived expression.
pub fn t_mix(mac: &[u8], m: u8) -> u8 {
    let x = mac[0];
    TABLE[(x ^ m) as usize]
}

/// R12 positive: division latency depends on the secret dividend.
pub fn bias(key: &[u8]) -> u8 {
    key[0] / 29
}

/// R12 positive: remainder on a secret byte.
pub fn residue(icv: &[u8]) -> u8 {
    icv[1] % 13
}

/// R12 positive: derived `==` on secret-*typed* values — the neutral
/// names put this outside R2's name heuristic.
pub fn same_session(a: &SessionSecret, b: &SessionSecret) -> bool {
    a == b
}

/// R10 negative: `.len()` projects a public size off the secret.
pub fn n_len_branch(key: &[u8]) -> u8 {
    if key.len() < 32 {
        1
    } else {
        0
    }
}

/// R10/R12 negative: secrets compared through the constant-time
/// comparator — call arguments never count as condition reads.
pub fn n_ct_eq(tag: &[u8], expect: &[u8]) -> bool {
    if ct::eq(tag, expect) {
        true
    } else {
        false
    }
}

/// R10 negative: a public loop bound.
pub fn n_public_branch(i: usize, n: usize) -> u8 {
    if i < n {
        1
    } else {
        0
    }
}

/// R10 negative by annotation: the first byte of an encoded key names
/// its *public* format, and the dispatch is deliberate.
pub fn key_dispatch(key: &[u8]) -> u8 {
    // genio-analyzer: allow(R10, reason = "dispatch on the public key-format prefix byte")
    if key[0] > 0x7f {
        1
    } else {
        0
    }
}

/// R11 negative: a literal index exposes no secret-dependent address.
pub fn n_first(key: &[u8]) -> u8 {
    key[0]
}

/// R11 negative: a public index into a public table.
pub fn n_public_index(i: usize) -> u8 {
    TABLE[i & 0xff]
}

/// R11 negative: the index is public even though a secret is indexed.
pub fn n_secret_base(key: &[u8], i: usize) -> u8 {
    key[i]
}

/// R11 negative by annotation: table-driven AES kept on purpose.
pub fn sbox_probe(key: &[u8]) -> u8 {
    SBOX[key[2] as usize] // genio-analyzer: allow(R11, reason = "table-driven AES S-box fixture, masked upstream")
}

/// R12 negative: `.len()` is public, so the division is fine.
pub fn n_chunks(key: &[u8]) -> usize {
    key.len() / 16
}

/// R12 negative: modulo on a public counter.
pub fn n_wrap(i: usize) -> usize {
    i % 7
}

/// R12 negative: the constant-time accumulate idiom — xor and or only.
pub fn n_xor_fold(tag: &[u8], other: &[u8]) -> u8 {
    let mut d = 0;
    let mut i = 0;
    while i < tag.len() {
        d |= tag[i] ^ other[i];
        i += 1;
    }
    d
}

/// R12 negative: a widened copy of a *public* length.
pub fn n_len_mod(key: &[u8], stride: usize) -> usize {
    let n = key.len();
    n % stride
}

/// R11 negative: the windowed-GHASH idiom of `genio_crypto::ghash` — the
/// table *contents* were derived from the key at construction, but every
/// lookup is indexed by a byte of the running (AAD/ciphertext-derived)
/// state, so no key byte ever reaches an index expression.
pub fn n_ghash_row(state: &[u8; 16], data: u8) -> u8 {
    TABLE[(state[0] ^ data) as usize & 0xff]
}

/// R11 negative: the interleaved T-table CTR idiom — the round input is a
/// masked byte of the public counter block, never key material.
pub fn n_ttable_round(counter: u32) -> u8 {
    TABLE[(counter >> 24) as usize & 0xff]
}
