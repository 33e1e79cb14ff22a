//! Offline stand-in for `rand` 0.8: the two core traits, which is all
//! this repository touches (it seeds a `ChaCha12Rng` and hands it to
//! endpoints; nothing draws ranges or booleans from it).

/// A source of random words.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        u64::from(self.next_u32()) | u64::from(self.next_u32()) << 32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(4) {
            chunk.copy_from_slice(&self.next_u32().to_le_bytes()[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A generator constructible from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// The seed array type.
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed with the PCG32 stream the
    /// published `rand_core` uses, so equal `u64` seeds yield equal keys.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let word = xorshifted.rotate_right((state >> 59) as u32);
            chunk.copy_from_slice(&word.to_le_bytes()[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}
