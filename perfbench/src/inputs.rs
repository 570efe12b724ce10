//! Benchmark-owned input generation and input digests.
//!
//! Every input the program under test receives is drawn from a SplitMix64
//! stream seeded by `--seed`, never from program helpers such as
//! `genio_pon::engine::demand_bytes`: a later change to program code must
//! not be able to change what the benchmark offers it. Each workload folds
//! its whole input set into an FNV-1a digest, printed with every result, so
//! two commits can be shown to have received identical inputs.

/// SplitMix64 finalizer.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives an independent sub-seed for the stream named `tag`, index `i`.
pub fn derive(seed: u64, tag: &str, i: u64) -> u64 {
    let mut d = Digest::new();
    d.bytes(tag.as_bytes());
    mix64(seed ^ mix64(d.finish() ^ mix64(i)))
}

/// SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// FNV-1a 64-bit digest over a canonical byte serialization.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut s = SplitMix::new(7);
                move |_| s.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut s = SplitMix::new(7);
                move |_| s.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut s = SplitMix::new(8);
                move |_| s.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(derive(1, "gem", 0), derive(1, "gem", 1));
        assert_ne!(derive(1, "gem", 0), derive(1, "cak", 0));
    }

    #[test]
    fn below_stays_in_range() {
        let mut s = SplitMix::new(3);
        assert!((0..10_000).all(|_| s.below(7) < 7));
    }
}
