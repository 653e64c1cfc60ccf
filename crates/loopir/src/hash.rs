//! Deterministic content hashing: the FxHash hasher behind
//! [`crate::DataEnv::digest`] and the mapping memo keys built on it.

use std::hash::Hasher;

/// The multiplier from FxHash (Firefox's compiler hash): fast, good
/// diffusion on small integer-heavy inputs, fully deterministic across
/// platforms and runs.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The starting states of the two passes of [`fx_digest`].
const PASS_STATES: [u64; 2] = [0, 0x9e37_79b9_7f4a_7c15];

/// A deterministic FxHash-style 64-bit hasher.
///
/// Unlike the std `DefaultHasher`, the result does not depend on a
/// per-process random key, so digests are stable across threads,
/// sessions and runs — a requirement for reproducible cache statistics.
#[derive(Debug, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// A hasher starting from `state` (different states give independent
    /// hash functions over the same content).
    pub fn with_state(state: u64) -> Self {
        FxHasher { hash: state }
    }

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        // Length-prefix free: callers hash structured content whose field
        // order and counts are fixed by type, and collections are hashed
        // with an explicit length word first (std's derived `Hash` for
        // `Vec`/`str` does the same).
    }

    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }

    fn write_u32(&mut self, x: u32) {
        self.add(x as u64);
    }

    fn write_u16(&mut self, x: u16) {
        self.add(x as u64);
    }

    fn write_u8(&mut self, x: u8) {
        self.add(x as u64);
    }

    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }

    fn write_i64(&mut self, x: i64) {
        self.add(x as u64);
    }
}

/// A 128-bit digest: `content` run through two independently seeded
/// [`FxHasher`] passes, first pass first.
pub fn fx_digest(content: impl Fn(&mut FxHasher)) -> [u64; 2] {
    PASS_STATES.map(|state| {
        let mut h = FxHasher::with_state(state);
        content(&mut h);
        h.finish()
    })
}
