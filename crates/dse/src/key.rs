//! Evaluation-cache keys.
//!
//! A cache key identifies one `(DFG, memory image, marker, routed edge
//! latencies, window, mode assignment)` evaluation within one process.
//! It covers only what can differ between two `explore` calls there;
//! values fixed in the binary (the clock plan, the energy constants,
//! the model's code) are not hashed, so a key means nothing to a
//! different build and the cache never outlives the process.
//!
//! A key digests a byte stream with two independently seeded
//! SplitMix64-mix lanes into a 128-bit [`Digest`], so it is identical
//! on every platform, thread count and run.

/// A 128-bit content digest (two independent 64-bit mix lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub u64, pub u64);

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

impl Digest {
    /// The digest as one 128-bit integer (HashMap key form).
    pub fn as_u128(self) -> u128 {
        (u128::from(self.0) << 64) | u128::from(self.1)
    }
}

/// SplitMix64's avalanche mixer (the same finalizer
/// `uecgra_util::SplitMix64` uses), as a pure function.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fold one word into a running lane state.
fn fold(state: u64, word: u64) -> u64 {
    mix64(state ^ word)
}

/// Two distinct lane seeds (arbitrary odd constants); two independent
/// lanes push accidental collisions out to the 128-bit birthday bound.
const LANE_SEEDS: [u64; 2] = [0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F];

/// Digest a byte string with both lanes (length-suffixed, so streams
/// that are prefixes of each other cannot collide trivially).
pub fn digest_bytes(bytes: &[u8]) -> Digest {
    let mut lanes = LANE_SEEDS;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        let word = u64::from_le_bytes(word);
        for lane in &mut lanes {
            *lane = fold(*lane, word);
        }
    }
    for lane in &mut lanes {
        *lane = fold(*lane, bytes.len() as u64);
    }
    Digest(lanes[0], lanes[1])
}

/// Combine two digests into one (order-sensitive).
pub fn combine(a: Digest, b: Digest) -> Digest {
    Digest(
        fold(fold(fold(LANE_SEEDS[0], a.0), a.1), b.0) ^ b.1,
        fold(fold(fold(LANE_SEEDS[1], b.1), b.0), a.1) ^ a.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(ws: &[u64]) -> Digest {
        let bytes: Vec<u8> = ws.iter().flat_map(|w| w.to_le_bytes()).collect();
        digest_bytes(&bytes)
    }

    #[test]
    fn digest_renders_as_32_hex_digits() {
        let s = digest_bytes(b"hello").to_string();
        assert_eq!(s.len(), 32);
        assert!(s.bytes().all(|b| b.is_ascii_hexdigit()), "{s}");
    }

    #[test]
    fn value_changes_change_the_digest() {
        assert_ne!(words(&[1]), words(&[2]));
        assert_ne!(words(&[1, 0]), words(&[1, 1 << 63]));
    }

    #[test]
    fn array_order_does_matter() {
        assert_ne!(words(&[1, 2]), words(&[2, 1]));
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = digest_bytes(b"a");
        let b = digest_bytes(b"b");
        assert_ne!(combine(a, b), combine(b, a));
        assert_eq!(combine(a, b), combine(a, b));
    }

    #[test]
    fn prefix_streams_do_not_collide() {
        assert_ne!(digest_bytes(b"ab"), digest_bytes(b"ab\0"));
        assert_ne!(digest_bytes(b""), digest_bytes(b"\0"));
    }
}
