//! A hasher for the integer keys the model builders generate themselves.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A hasher for keys the program generates itself, such as packed
/// `(state, state)` pairs and packed circuit valuations.
///
/// Each 64-bit word is folded in with one multiply, and [`finish`] applies
/// the murmur3 finaliser so that the low bits a hash table indexes with
/// depend on every input bit. It costs a fraction of the standard library's
/// SipHash, but it does not resist keys crafted to collide: never use it for
/// keys read from outside the program.
///
/// [`finish`]: Hasher::finish
///
/// # Examples
///
/// ```
/// use tts::IdMap;
/// let mut index: IdMap<u64, u32> = IdMap::default();
/// index.insert((3 << 32) | 7, 0);
/// assert_eq!(index.get(&((3 << 32) | 7)), Some(&0));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        let mut x = self.0;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^ (x >> 33)
    }
}

/// A [`HashMap`] hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
