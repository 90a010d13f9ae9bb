//! MD5 message digest, implemented from scratch per RFC 1321.
//!
//! BitDew computes an MD5 signature for every datum (`Data.checksum`, §3.3)
//! and the Data Transfer service re-verifies it on the receiver side to decide
//! whether an out-of-band transfer completed correctly (§3.4.2). MD5 is of
//! course not collision-resistant by modern standards; the paper uses it as a
//! content fingerprint, not as a cryptographic commitment, and we keep the
//! same algorithm so checksums are bit-compatible with the original system.
//!
//! Every byte the data plane publishes is hashed here at least once (twice
//! on publish: `create_data` signs it, the repository re-verifies it), and
//! `key_for_auid` hashes a 16-byte id for every ring lookup, so both the
//! bulk rate and the cost of a short message matter:
//!
//! * `compress` is fully unrolled — the message schedule, shift amounts
//!   and sine constants are literals in 64 `step!` lines, and the four state
//!   words rotate through the macro's arguments instead of being shuffled
//!   through a temporary. The round functions are written in the forms whose
//!   dependency on the newest word `b` is shortest (for round 2,
//!   `(b & d) + (c & !d)`: the two terms never share a set bit, so the OR
//!   is an ADD and the `c & !d` half is summed before `b` is ready). MD5 is
//!   one serial chain of 64 steps per block, so that chain is the speed.
//! * [`Md5::finalize`] pads in place — one or two `compress` calls — rather
//!   than feeding `update` a byte at a time.
//!
//! No SIMD or `unsafe` (this crate forbids it): MD5 has no data parallelism
//! inside one message, so a vector kernel has nothing to fold in parallel,
//! unlike the CRC-32 in `bitdew-storage`. The textbook 64-iteration loop this
//! replaced is the unit tests' oracle (`tests::oracle`), compared on random
//! blocks, every split point and every length across the padding boundaries.
//!
//! Callers may either feed data incrementally through [`Md5::update`] or use
//! the one-shot [`md5`] helper.

use std::fmt;

const INIT_STATE: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];

/// A finished 128-bit MD5 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Md5Digest(pub [u8; 16]);

impl Md5Digest {
    /// Digest as raw bytes.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// Lowercase hexadecimal rendering (32 chars), the conventional form.
    pub fn to_hex(&self) -> String {
        crate::hex::encode(&self.0)
    }

    /// Parse a digest from its 32-character hexadecimal rendering.
    pub fn from_hex(s: &str) -> Option<Self> {
        let bytes = crate::hex::decode(s)?;
        let arr: [u8; 16] = bytes.try_into().ok()?;
        Some(Md5Digest(arr))
    }

    /// Fold the 128-bit digest to 64 bits (xor of halves). Used by the DHT to
    /// key data by content signature, mirroring the paper's remark (§2.2) that
    /// "indexing data with their checksum as is commonly done by DHT and P2P
    /// software permits basic sabotage tolerance".
    pub fn fold64(&self) -> u64 {
        let hi = u64::from_le_bytes(self.0[0..8].try_into().unwrap());
        let lo = u64::from_le_bytes(self.0[8..16].try_into().unwrap());
        hi ^ lo
    }
}

impl fmt::Debug for Md5Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Md5Digest({})", self.to_hex())
    }
}

impl fmt::Display for Md5Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Streaming MD5 hasher.
#[derive(Clone)]
pub struct Md5 {
    state: [u32; 4],
    /// Total message length in bytes (mod 2^64, as RFC 1321 prescribes bits mod 2^64).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Md5 {
            state: INIT_STATE,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        // Fill a partially full block first.
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        // Whole blocks straight from the input.
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            compress(&mut self.state, block.try_into().unwrap());
            data = rest;
        }
        // Stash the tail.
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finish padding and produce the digest, consuming the hasher.
    pub fn finalize(mut self) -> Md5Digest {
        // 0x80, zeros up to 56 mod 64, then the message length in bits. The
        // buffer always has room for the 0x80 (`update` never leaves it
        // full); the length needs a second block when fewer than 8 bytes
        // remain after it.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n + 1 > 56 {
            compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&self.len.wrapping_mul(8).to_le_bytes());
        compress(&mut self.state, &self.buf);

        let mut out = [0u8; 16];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        Md5Digest(out)
    }
}

// The four round functions of RFC 1321, each adding itself to the partial
// sum `acc = a + m + k` in the order that leaves the fewest operations after
// `b`, the word the previous step has only just produced.

#[inline(always)]
fn f(acc: u32, b: u32, c: u32, d: u32) -> u32 {
    acc.wrapping_add(d ^ (b & (c ^ d)))
}

#[inline(always)]
fn g(acc: u32, b: u32, c: u32, d: u32) -> u32 {
    acc.wrapping_add(c & !d).wrapping_add(b & d)
}

#[inline(always)]
fn h(acc: u32, b: u32, c: u32, d: u32) -> u32 {
    acc.wrapping_add(b ^ (c ^ d))
}

#[inline(always)]
fn i(acc: u32, b: u32, c: u32, d: u32) -> u32 {
    acc.wrapping_add(c ^ (b | !d))
}

/// One step: `a = b + ((a + round(b, c, d) + m + k) <<< s)`.
macro_rules! step {
    ($round:ident, $a:ident, $b:ident, $c:ident, $d:ident, $m:expr, $s:literal, $k:literal) => {
        $a = $round($a.wrapping_add($m).wrapping_add($k), $b, $c, $d)
            .rotate_left($s)
            .wrapping_add($b);
    };
}

/// Fold one 64-byte block into `state`: the 64 steps of RFC 1321 §3.4,
/// written out. Step `n` assigns the word that is `a` in that step's
/// rotation of (a, b, c, d), so no word is ever moved.
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (word, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_le_bytes(bytes.try_into().unwrap());
    }
    let [mut a, mut b, mut c, mut d] = *state;

    step!(f, a, b, c, d, m[0], 7, 0xd76aa478);
    step!(f, d, a, b, c, m[1], 12, 0xe8c7b756);
    step!(f, c, d, a, b, m[2], 17, 0x242070db);
    step!(f, b, c, d, a, m[3], 22, 0xc1bdceee);
    step!(f, a, b, c, d, m[4], 7, 0xf57c0faf);
    step!(f, d, a, b, c, m[5], 12, 0x4787c62a);
    step!(f, c, d, a, b, m[6], 17, 0xa8304613);
    step!(f, b, c, d, a, m[7], 22, 0xfd469501);
    step!(f, a, b, c, d, m[8], 7, 0x698098d8);
    step!(f, d, a, b, c, m[9], 12, 0x8b44f7af);
    step!(f, c, d, a, b, m[10], 17, 0xffff5bb1);
    step!(f, b, c, d, a, m[11], 22, 0x895cd7be);
    step!(f, a, b, c, d, m[12], 7, 0x6b901122);
    step!(f, d, a, b, c, m[13], 12, 0xfd987193);
    step!(f, c, d, a, b, m[14], 17, 0xa679438e);
    step!(f, b, c, d, a, m[15], 22, 0x49b40821);

    step!(g, a, b, c, d, m[1], 5, 0xf61e2562);
    step!(g, d, a, b, c, m[6], 9, 0xc040b340);
    step!(g, c, d, a, b, m[11], 14, 0x265e5a51);
    step!(g, b, c, d, a, m[0], 20, 0xe9b6c7aa);
    step!(g, a, b, c, d, m[5], 5, 0xd62f105d);
    step!(g, d, a, b, c, m[10], 9, 0x02441453);
    step!(g, c, d, a, b, m[15], 14, 0xd8a1e681);
    step!(g, b, c, d, a, m[4], 20, 0xe7d3fbc8);
    step!(g, a, b, c, d, m[9], 5, 0x21e1cde6);
    step!(g, d, a, b, c, m[14], 9, 0xc33707d6);
    step!(g, c, d, a, b, m[3], 14, 0xf4d50d87);
    step!(g, b, c, d, a, m[8], 20, 0x455a14ed);
    step!(g, a, b, c, d, m[13], 5, 0xa9e3e905);
    step!(g, d, a, b, c, m[2], 9, 0xfcefa3f8);
    step!(g, c, d, a, b, m[7], 14, 0x676f02d9);
    step!(g, b, c, d, a, m[12], 20, 0x8d2a4c8a);

    step!(h, a, b, c, d, m[5], 4, 0xfffa3942);
    step!(h, d, a, b, c, m[8], 11, 0x8771f681);
    step!(h, c, d, a, b, m[11], 16, 0x6d9d6122);
    step!(h, b, c, d, a, m[14], 23, 0xfde5380c);
    step!(h, a, b, c, d, m[1], 4, 0xa4beea44);
    step!(h, d, a, b, c, m[4], 11, 0x4bdecfa9);
    step!(h, c, d, a, b, m[7], 16, 0xf6bb4b60);
    step!(h, b, c, d, a, m[10], 23, 0xbebfbc70);
    step!(h, a, b, c, d, m[13], 4, 0x289b7ec6);
    step!(h, d, a, b, c, m[0], 11, 0xeaa127fa);
    step!(h, c, d, a, b, m[3], 16, 0xd4ef3085);
    step!(h, b, c, d, a, m[6], 23, 0x04881d05);
    step!(h, a, b, c, d, m[9], 4, 0xd9d4d039);
    step!(h, d, a, b, c, m[12], 11, 0xe6db99e5);
    step!(h, c, d, a, b, m[15], 16, 0x1fa27cf8);
    step!(h, b, c, d, a, m[2], 23, 0xc4ac5665);

    step!(i, a, b, c, d, m[0], 6, 0xf4292244);
    step!(i, d, a, b, c, m[7], 10, 0x432aff97);
    step!(i, c, d, a, b, m[14], 15, 0xab9423a7);
    step!(i, b, c, d, a, m[5], 21, 0xfc93a039);
    step!(i, a, b, c, d, m[12], 6, 0x655b59c3);
    step!(i, d, a, b, c, m[3], 10, 0x8f0ccc92);
    step!(i, c, d, a, b, m[10], 15, 0xffeff47d);
    step!(i, b, c, d, a, m[1], 21, 0x85845dd1);
    step!(i, a, b, c, d, m[8], 6, 0x6fa87e4f);
    step!(i, d, a, b, c, m[15], 10, 0xfe2ce6e0);
    step!(i, c, d, a, b, m[6], 15, 0xa3014314);
    step!(i, b, c, d, a, m[13], 21, 0x4e0811a1);
    step!(i, a, b, c, d, m[4], 6, 0xf7537e82);
    step!(i, d, a, b, c, m[11], 10, 0xbd3af235);
    step!(i, c, d, a, b, m[2], 15, 0x2ad7d2bb);
    step!(i, b, c, d, a, m[9], 21, 0xeb86d391);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

/// One-shot digest of a byte slice.
pub fn md5(data: &[u8]) -> Md5Digest {
    let mut h = Md5::new();
    h.update(data);
    h.finalize()
}

/// Digest a reader in 64 KiB chunks; convenience for hashing files.
pub fn md5_reader<R: std::io::Read>(mut reader: R) -> std::io::Result<Md5Digest> {
    let mut h = Md5::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = reader.read(&mut buf)?;
        if n == 0 {
            break;
        }
        h.update(&buf[..n]);
    }
    Ok(h.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Per-round shift amounts, table 4 of RFC 1321.
    const S: [u32; 64] = [
        7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
        5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
        4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
        6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
    ];

    /// Sine-derived constants: `K[i] = floor(2^32 * abs(sin(i + 1)))`.
    const K: [u32; 64] = [
        0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613,
        0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193,
        0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d,
        0x02441453, 0xd8a1e681, 0xe7d3fbc8, 0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
        0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122,
        0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
        0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, 0xf4292244,
        0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
        0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb,
        0xeb86d391,
    ];

    /// The textbook `compress` this module used before the unrolled one:
    /// a 64-iteration loop selecting the round by `i / 16`, indexing the
    /// message by `% 16` and shuffling the state through a temporary.
    fn compress_loop(state: &mut [u32; 4], block: &[u8; 64]) {
        let mut m = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            m[i] = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        let [mut a, mut b, mut c, mut d] = *state;
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let tmp = d;
            d = c;
            c = b;
            let rot = a
                .wrapping_add(f)
                .wrapping_add(K[i])
                .wrapping_add(m[g])
                .rotate_left(S[i]);
            b = b.wrapping_add(rot);
            a = tmp;
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
    }

    /// The oracle: RFC 1321 one byte at a time — message, padding and
    /// length alike enter a 64-byte buffer a byte per step, over
    /// `compress_loop`. Shares only `INIT_STATE` with the code under test.
    fn oracle(data: &[u8]) -> Md5Digest {
        let bit_len = (data.len() as u64).wrapping_mul(8).to_le_bytes();
        let zeros = (55usize.wrapping_sub(data.len())) % 64;
        let padded = data
            .iter()
            .copied()
            .chain(std::iter::once(0x80))
            .chain(std::iter::repeat_n(0x00, zeros))
            .chain(bit_len);
        let mut state = INIT_STATE;
        let mut buf = [0u8; 64];
        let mut fill = 0;
        for byte in padded {
            buf[fill] = byte;
            fill += 1;
            if fill == 64 {
                compress_loop(&mut state, &buf);
                fill = 0;
            }
        }
        assert_eq!(fill, 0, "padding must end on a block boundary");
        let mut out = [0u8; 16];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        Md5Digest(out)
    }

    /// The full RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: &[(&str, &str)] = &[
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(md5(input.as_bytes()).to_hex(), *expect, "input {input:?}");
        }
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 % 251) as u8).collect();
        let whole = md5(&data);
        for split in 0..data.len() {
            let mut h = Md5::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn block_boundary_lengths() {
        // Lengths straddling the 56-byte padding threshold and 64-byte blocks.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 121, 127, 128, 129] {
            let data = vec![0xabu8; len];
            let mut h = Md5::new();
            for byte in &data {
                h.update(std::slice::from_ref(byte));
            }
            assert_eq!(h.finalize(), md5(&data), "len {len}");
        }
    }

    #[test]
    fn every_length_across_padding_boundaries_matches_oracle() {
        // 0..=130 crosses 55/56/57, 63/64/65 and 119/120/121: one block of
        // padding, two blocks, and the same again after a full block.
        let data: Vec<u8> = (0..130u32).map(|i| (i * 13 % 253) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(md5(&data[..len]), oracle(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn rfc1321_vectors_hold_for_the_oracle_too() {
        assert_eq!(oracle(b"").to_hex(), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(
            oracle(b"message digest").to_hex(),
            "f96b697d7cb7938d525a2f31aaf161d0"
        );
    }

    proptest! {
        /// The unrolled `compress` and the loop agree on any block from any
        /// chaining state.
        #[test]
        fn unrolled_compress_matches_loop(
            block in proptest::collection::vec(any::<u8>(), 64..65),
            state in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        ) {
            let block: [u8; 64] = block.try_into().unwrap();
            let mut fast = [state.0, state.1, state.2, state.3];
            let mut slow = fast;
            compress(&mut fast, &block);
            compress_loop(&mut slow, &block);
            prop_assert_eq!(fast, slow);
        }

        /// Any message fed in any pieces hashes to the oracle's digest.
        #[test]
        fn random_messages_and_splits_match_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..700),
            cuts in proptest::collection::vec(0usize..700, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
            cuts.push(data.len());
            cuts.sort_unstable();
            let mut hasher = Md5::new();
            let mut from = 0;
            for cut in cuts {
                hasher.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(hasher.finalize(), oracle(&data));
        }
    }

    #[test]
    fn reader_digest_matches() {
        let data = vec![42u8; 1 << 18];
        let via_reader = md5_reader(&data[..]).unwrap();
        assert_eq!(via_reader, md5(&data));
    }

    #[test]
    fn hex_roundtrip() {
        let d = md5(b"roundtrip");
        assert_eq!(Md5Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Md5Digest::from_hex("zz"), None);
        assert_eq!(Md5Digest::from_hex("abcd"), None); // wrong length
    }

    #[test]
    fn fold64_differs_for_different_content() {
        assert_ne!(md5(b"a").fold64(), md5(b"b").fold64());
    }

    #[test]
    fn display_and_debug() {
        let d = md5(b"abc");
        assert_eq!(format!("{d}"), "900150983cd24fb0d6963f7d28e17f72");
        assert!(format!("{d:?}").contains("900150983cd24fb0d6963f7d28e17f72"));
    }
}
