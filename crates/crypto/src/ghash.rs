//! GHASH universal hashing over GF(2^128) (NIST SP 800-38D §6.4).
//!
//! Two implementations live side by side:
//!
//! * [`gf128_mul`] / [`ghash_reference`] — the schoolbook bitwise multiply
//!   chain. Slow (128 shift/XOR steps per block) but transparently equal to
//!   the specification; it is the oracle every fast path is differentially
//!   tested against.
//! * [`GhashKey`] — 4-bit windowed multiplication tables (32 rows × 16
//!   entries × 16 bytes = 8 KiB), built once per key and amortized across a
//!   session. A block multiply becomes 32 table lookups. The small window
//!   is for hosts that hold one key per PON port: a key's tables fit L1d,
//!   and a 64-ONU tree's tx+rx keys (1 MiB of tables) fit L2.
//!
//! Building the tables is itself on the session-setup hot path (MACsec SAK
//! installs, TLS-style handshakes, GEM port key establishment all construct
//! an AEAD per key), so construction avoids the naive 128 bitwise multiplies:
//! only row 0 is computed from `H` directly (four single-bit steps + a
//! linear combine); every other row is the previous row multiplied by x^4,
//! because moving a nibble one position toward the low end multiplies its
//! field element by x^4.
//!
//! Side-channel note (analyzer rule R11): the table *contents* depend on the
//! key, the table *indices* do not — `mul` is indexed by nibbles of the
//! running GHASH state, i.e. by AAD/ciphertext-derived data, never by key
//! bytes. Key material therefore never flows into an index expression, which
//! is the taint R11 tracks. (Like all table-driven GHASH/AES software,
//! lookups are still observable to a cache-timing adversary co-resident on
//! the core; the simulation trades that residual channel for throughput, as
//! the reference path remains available via `GENIO_CRYPTO_BACKEND=reference`.)

/// GCM's reduction constant: x^128 + x^7 + x^2 + x + 1 in the reflected bit
/// order of SP 800-38D (bit 127 of the `u128` is the x^0 coefficient).
const R: u128 = 0xe1 << 120;

/// Bitwise multiplication in GF(2^128) with the GCM bit ordering.
/// Reference implementation; the hot path uses [`GhashKey`]'s tables.
pub fn gf128_mul(x: u128, y: u128) -> u128 {
    let mut z = 0u128;
    let mut v = x;
    for i in 0..128 {
        if (y >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
    }
    z
}

/// Interprets up to 16 bytes as a big-endian block, zero-padded on the right
/// (the GCM padding rule for partial final blocks).
pub(crate) fn block_to_u128(b: &[u8]) -> u128 {
    let mut buf = [0u8; 16];
    for (slot, byte) in buf.iter_mut().zip(b.iter()) {
        *slot = *byte;
    }
    u128::from_be_bytes(buf)
}

/// Loads one full 16-byte block. Callers guarantee the length via
/// `chunks_exact(16)`; the copy avoids a fallible slice-to-array cast.
#[inline]
fn be128(block: &[u8]) -> u128 {
    let mut buf = [0u8; 16];
    buf.copy_from_slice(block);
    u128::from_be_bytes(buf)
}

/// Multiplies an element by x: one shift toward the low end of the
/// reflected representation, folding the dropped x^127 term back via `R`.
#[inline]
fn mul_x(v: u128) -> u128 {
    (v >> 1) ^ (R & 0u128.wrapping_sub(v & 1))
}

/// Multiplies an element by x^4, the distance between adjacent nibbles.
#[inline]
fn mul_x4(v: u128) -> u128 {
    mul_x(mul_x(mul_x(mul_x(v))))
}

/// Precomputed multiplication tables for a fixed GHASH key `H`.
///
/// `gf128_mul(x, h)` is GF(2)-linear in `x`, so `x·H` decomposes into the
/// XOR of per-nibble contributions: one 16-entry table per nibble position
/// (8 KiB per key) turns the 128-iteration bitwise multiply into 32 table
/// lookups — the standard 4-bit-table software GHASH.
#[derive(Clone)]
pub struct GhashKey {
    table: Box<[[u128; 16]; 32]>,
}

impl std::fmt::Debug for GhashKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GhashKey").finish_non_exhaustive()
    }
}

impl GhashKey {
    /// Builds the per-key tables from the GHASH key `H = E_K(0^128)`.
    ///
    /// Cost: four single-bit reduction steps for the row-0 basis, then four
    /// per remaining entry — cheap enough to sit on the per-session
    /// key-install path (MACsec SAK rotation, handshake key schedules, GEM
    /// port establishment).
    pub fn new(h: u128) -> Self {
        let mut table = Box::new([[0u128; 16]; 32]);
        // Row 0 (the most-significant nibble of the operand): basis bit 3 is
        // the multiplicative identity (bit 127 in the reflected order), so
        // its product is H itself, and each lower bit is one more factor of
        // x — no bitwise multiplies.
        let mut powers = [0u128; 4];
        let mut p = h;
        for slot in powers.iter_mut().rev() {
            *slot = p;
            p = mul_x(p);
        }
        // All 16 nibble values by linearity: strip the lowest set bit, which
        // indexes an already-filled smaller value.
        for v in 1usize..16 {
            table[0][v] = table[0][v & (v - 1)] ^ powers[(v.trailing_zeros() & 3) as usize];
        }
        // Rows 1..31: a nibble one position lower represents the same
        // element multiplied by x^4, and mul-by-x^4 commutes with mul-by-H,
        // so each row is the previous one pushed through `mul_x4`.
        for pos in 1..32 {
            table[pos] = table[pos - 1].map(mul_x4);
        }
        GhashKey { table }
    }

    /// Computes `x · H` via 32 table lookups, one per nibble of `x`: each
    /// byte of `x` indexes its high-nibble row with `b >> 4` and the next
    /// row with `b & 0xf`.
    #[inline]
    pub fn mul(&self, x: u128) -> u128 {
        let bytes = x.to_be_bytes();
        let mut z = 0u128;
        for (rows, b) in self.table.chunks_exact(2).zip(bytes.iter()) {
            z ^= rows[0][usize::from(*b >> 4)] ^ rows[1][usize::from(*b & 0xf)];
        }
        z
    }

    /// GHASH over `aad` then `ct` then the 64-bit bit lengths, per
    /// SP 800-38D §6.4. Table-driven twin of [`ghash_reference`].
    pub fn ghash(&self, aad: &[u8], ct: &[u8]) -> u128 {
        let y = self.fold(0, aad);
        let y = self.fold(y, ct);
        let lens = ((aad.len() as u128 * 8) << 64) | (ct.len() as u128 * 8);
        self.mul(y ^ lens)
    }

    /// Absorbs `data` (zero-padding the final partial block) into the
    /// running GHASH state `y`.
    fn fold(&self, mut y: u128, data: &[u8]) -> u128 {
        let mut blocks = data.chunks_exact(16);
        for block in &mut blocks {
            y = self.mul(y ^ be128(block));
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            y = self.mul(y ^ block_to_u128(rest));
        }
        y
    }
}

/// Reference GHASH: the bitwise multiply chain, no tables. This is the
/// differential oracle for [`GhashKey::ghash`] and the implementation the
/// `GENIO_CRYPTO_BACKEND=reference` path runs.
pub fn ghash_reference(h: u128, aad: &[u8], ct: &[u8]) -> u128 {
    let mut y = 0u128;
    for chunk in aad.chunks(16) {
        y = gf128_mul(y ^ block_to_u128(chunk), h);
    }
    for chunk in ct.chunks(16) {
        y = gf128_mul(y ^ block_to_u128(chunk), h);
    }
    let lens = ((aad.len() as u128 * 8) << 64) | (ct.len() as u128 * 8);
    gf128_mul(y ^ lens, h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf128_mul_identity_and_commutativity() {
        // The multiplicative identity in GCM's representation is the block
        // 0x80000...0 (bit 0 set, reflected order).
        let one = 1u128 << 127;
        for x in [0u128, 1, one, 0xdeadbeef_u128 << 64, u128::MAX] {
            assert_eq!(gf128_mul(x, one), x);
            assert_eq!(gf128_mul(one, x), x);
        }
        let a = 0x0123_4567_89ab_cdef_u128;
        let b = 0xfedc_ba98_7654_3210_u128 << 13;
        assert_eq!(gf128_mul(a, b), gf128_mul(b, a));
    }

    #[test]
    fn mul_x4_is_multiplication_by_x_to_the_4() {
        // x^4 in the reflected representation is bit 127 - 4 = 123.
        let x4 = 1u128 << 123;
        let mut z = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210_u128;
        for _ in 0..100 {
            assert_eq!(mul_x4(z), gf128_mul(z, x4));
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
        }
        assert_eq!(mul_x4(0), 0);
    }

    #[test]
    fn fast_construction_matches_per_bit_construction() {
        // The slow construction does one bitwise multiply per bit of every
        // nibble position. The x^4-step construction must produce the
        // identical 8 KiB of tables.
        let h = 0xb83b_5337_08bf_535d_0aa6_e529_80d5_3b78_u128;
        let key = GhashKey::new(h);
        for pos in 0..32 {
            for v in 0..16usize {
                let mut expected = 0u128;
                for bit in 0..4 {
                    if v & (1 << bit) != 0 {
                        expected ^= gf128_mul((1u128 << bit) << ((31 - pos) * 4), h);
                    }
                }
                assert_eq!(key.table[pos][v], expected, "pos {pos} v {v}");
            }
        }
    }

    #[test]
    fn per_key_table_is_8_kib() {
        // Many-key hosts (one GEM key per ONU port) hold thousands of these;
        // the footprint is what keeps them in cache.
        let key = GhashKey::new(1);
        assert_eq!(std::mem::size_of_val(&*key.table), 8 * 1024);
    }

    #[test]
    fn table_mul_matches_bitwise_mul() {
        let h = 0x66e9_4bd4_ef8a_2c3b_884c_fa59_ca34_2b2e_u128;
        let key = GhashKey::new(h);
        let mut x = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210_u128;
        for _ in 0..100 {
            assert_eq!(key.mul(x), gf128_mul(x, h));
            // xorshift to wander the space deterministically.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        assert_eq!(key.mul(0), 0);
    }

    #[test]
    fn table_ghash_matches_reference_ghash() {
        let h = 0xaae0_6992_acbf_52a3_e8f4_a96e_c920_9be4_u128;
        let key = GhashKey::new(h);
        let data: Vec<u8> = (0..100u8).collect();
        for aad_len in [0usize, 1, 15, 16, 17, 32, 100] {
            for ct_len in [0usize, 1, 15, 16, 17, 33, 100] {
                let aad = &data[..aad_len];
                let ct = &data[..ct_len];
                assert_eq!(
                    key.ghash(aad, ct),
                    ghash_reference(h, aad, ct),
                    "aad {aad_len} ct {ct_len}"
                );
            }
        }
    }
}
