//! The workload seed's random stream (SplitMix64): small, fixed, and
//! independent of any crate the program under test uses.

/// A seeded 64-bit generator.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` and a stream label, so the corpus order,
    /// the database and the write sequence draw independent streams.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A number in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_permutation() {
        let perm = |seed| {
            let mut v: Vec<u32> = (0..54).collect();
            SplitMix::new(seed, 1).shuffle(&mut v);
            v
        };
        assert_eq!(perm(7), perm(7));
        assert_ne!(perm(7), perm(8));
        let mut sorted = perm(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..54).collect::<Vec<_>>());
    }

    #[test]
    fn streams_are_independent() {
        assert_ne!(SplitMix::new(1, 1).next_u64(), SplitMix::new(1, 2).next_u64());
    }
}
