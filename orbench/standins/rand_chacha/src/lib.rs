//! Offline stand-in for `rand_chacha`: the ChaCha stream cipher as a
//! seedable generator, with the published crate's key/counter layout
//! (256-bit key from the seed, 64-bit block counter, zero stream id),
//! emitting each block's sixteen words in order.

use rand::{RngCore, SeedableRng};

/// ChaCha with `ROUNDS` rounds (8, 12 or 20) as a random generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaChaRng<const ROUNDS: usize> {
    key: [u32; 8],
    counter: u64,
    block: [u32; 16],
    /// Next unread word of `block`; 16 means "generate a new block".
    index: usize,
}

/// ChaCha with 8 rounds.
pub type ChaCha8Rng = ChaChaRng<8>;
/// ChaCha with 12 rounds.
pub type ChaCha12Rng = ChaChaRng<12>;
/// ChaCha with 20 rounds.
pub type ChaCha20Rng = ChaChaRng<20>;

fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl<const ROUNDS: usize> ChaChaRng<ROUNDS> {
    fn refill(&mut self) {
        // "expand 32-byte k", key, 64-bit counter, 64-bit stream id (0).
        let mut input = [
            0x6170_7865,
            0x3320_646e,
            0x7962_2d32,
            0x6b20_6574,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
        ];
        input[4..12].copy_from_slice(&self.key);
        input[12] = self.counter as u32;
        input[13] = (self.counter >> 32) as u32;
        let mut state = input;
        for _ in 0..ROUNDS / 2 {
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (word, start) in state.iter_mut().zip(input) {
            *word = word.wrapping_add(start);
        }
        self.block = state;
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }
}

impl<const ROUNDS: usize> SeedableRng for ChaChaRng<ROUNDS> {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (word, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        Self {
            key,
            counter: 0,
            block: [0; 16],
            index: 16,
        }
    }
}

impl<const ROUNDS: usize> RngCore for ChaChaRng<ROUNDS> {
    fn next_u32(&mut self) -> u32 {
        if self.index == 16 {
            self.refill();
        }
        let word = self.block[self.index];
        self.index += 1;
        word
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 7539 §2.3.2 uses a 32-bit counter and a 96-bit nonce; with an
    /// all-zero key, counter and nonce the layouts coincide, and the
    /// first keystream word of ChaCha20 is the well-known 0xade0b876.
    #[test]
    fn chacha20_zero_key_first_word() {
        let mut rng = ChaCha20Rng::from_seed([0; 32]);
        assert_eq!(rng.next_u32(), 0xade0_b876);
    }

    #[test]
    fn same_seed_same_stream_and_blocks_advance() {
        let mut a = ChaCha12Rng::seed_from_u64(7);
        let mut b = ChaCha12Rng::seed_from_u64(7);
        let first: Vec<u32> = (0..40).map(|_| a.next_u32()).collect();
        let again: Vec<u32> = (0..40).map(|_| b.next_u32()).collect();
        assert_eq!(first, again);
        assert_ne!(
            first[..16],
            first[16..32],
            "the counter advances between blocks"
        );
        assert_ne!(ChaCha12Rng::seed_from_u64(8).next_u32(), first[0]);
    }
}
