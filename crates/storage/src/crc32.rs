//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! Two planes depend on it. The write-ahead log frames every record with
//! one to detect torn or corrupt tails, and — the heavier user by far — the
//! chunk plane keeps one per chunk in every `ChunkManifest`, so each byte a
//! node publishes, fetches or repairs goes through [`Crc32::update`] at
//! least once. At one table lookup per byte the digest, not the wire or the
//! store, bounded the data plane.
//!
//! The kernel is therefore **slice-by-16**: sixteen 256-entry tables, where
//! `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, let one
//! step fold 16 input bytes with 16 independent lookups instead of a
//! 16-long dependent chain. The tables (16 KB) are evaluated at compile
//! time, so there is no lazy initialisation on the first call and nothing
//! on the heap. A carry-less-multiply kernel (`PCLMULQDQ`) would be faster
//! still, but needs `unsafe` intrinsics and CPU-feature detection; the
//! workspace has neither, and at this speed the digest is already a small
//! share of moving a chunk. Implemented from scratch because the workspace
//! allows no checksum crates.
//!
//! A version commit does not re-digest the chunk it patches:
//! [`crc32_patch`] turns the chunk's old CRC into the new one from the
//! patched window alone. CRC-32 is affine, so for two messages of equal
//! length `crc(A) ⊕ crc(B)` is the zero-initialised CRC of `A ⊕ B`; that
//! difference is zero outside the window, so it is the window's raw CRC
//! carried through the message's trailing zero bytes — one multiplication
//! by `x^(8n) mod P`. The factor comes from `X2N`, the 32 powers
//! `x^(2^k) mod P`, in O(log n) products (zlib's `crc32_combine` method).
//! A patch costs O(window), not O(message).
//!
//! The values are those of the classic one-byte-at-a-time table walk, which
//! the unit tests keep as their oracle (`tests::bytewise`) and compare
//! against at every length, alignment and `update` split — and, for
//! [`crc32_patch`], against the oracle over the whole patched message.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]`: CRC state after byte `b` and then `k` zero bytes.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// The CRC register after absorbing `data` from `crc` (no final inversion).
fn fold(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        // The running CRC only touches the first four bytes; the other
        // twelve lookups do not depend on it.
        let head = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// Streaming CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh hasher.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorb bytes. Splitting the input across calls at any point gives
    /// the same checksum as one call.
    pub fn update(&mut self, data: &[u8]) {
        self.state = fold(self.state, data);
    }

    /// Produce the checksum.
    pub fn finalize(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

/// `X2N[k]` = `x^(2^k) mod P`, bit-reflected like the CRC register (bit 31
/// is `x^0`). Squaring the last entry gives the first again (`x^(2^32) ≡ x`),
/// so 32 entries serve any exponent.
static X2N: [u32; 32] = build_x2n();

const fn build_x2n() -> [u32; 32] {
    let mut t = [0u32; 32];
    t[0] = 1 << 30;
    let mut k = 1;
    while k < 32 {
        t[k] = multmodp(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
}

/// The product `a · b mod P` of two bit-reflected polynomials.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut bit = 0;
    while bit < 32 {
        if a & (1 << (31 - bit)) != 0 {
            p ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        bit += 1;
    }
    p
}

/// `x^(8n) mod P`: the factor that carries a CRC register through `n`
/// zero bytes.
fn x8nmodp(mut n: u64) -> u32 {
    let mut p = 1 << 31;
    let mut k = 3;
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// The CRC-32 of a `total`-byte message whose CRC was `crc`, after the
/// `old.len()` bytes at offset `at` change from `old` to `new`. Reads only
/// the window: O(`old.len()` + log `total`), whatever `total` is.
///
/// # Panics
///
/// If `old` and `new` differ in length, or the window ends past `total`.
pub fn crc32_patch(crc: u32, total: u64, at: u64, old: &[u8], new: &[u8]) -> u32 {
    assert_eq!(old.len(), new.len(), "a patch keeps the window's length");
    let trailing = at
        .checked_add(old.len() as u64)
        .and_then(|end| total.checked_sub(end))
        .expect("the patched window ends inside the message");
    let diff = fold(0, old) ^ fold(0, new);
    crc ^ multmodp(x8nmodp(trailing), diff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: the one-byte-at-a-time walk over a single 256-entry
    /// table built at run time — the kernel this module used before
    /// slice-by-16, sharing nothing with `TABLES`.
    fn bytewise(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        let mut state = 0xFFFF_FFFFu32;
        for &b in data {
            state = table[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
        }
        state ^ 0xFFFF_FFFF
    }

    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9u32;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..255).collect();
        for split in [0usize, 1, 100, 255] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), crc32(&data));
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 64];
        let base = crc32(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_alignment() {
        let data = noise(16 + 300);
        for start in 0..16 {
            for len in 0..=300 {
                let window = &data[start..start + len];
                assert_eq!(crc32(window), bytewise(window), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn sliced_matches_bytewise_on_long_inputs() {
        let data = noise((1 << 20) + 3);
        for len in [1023, 1024, 1025, (1 << 20) + 3] {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
    }

    /// `crc32_patch` checked against the oracle over the whole patched
    /// message: `a` with `new` written at `at`.
    fn assert_patch_matches_bytewise(a: &[u8], at: usize, new: &[u8]) {
        let mut b = a.to_vec();
        b[at..at + new.len()].copy_from_slice(new);
        let got = crc32_patch(
            crc32(a),
            a.len() as u64,
            at as u64,
            &a[at..at + new.len()],
            new,
        );
        assert_eq!(
            got,
            bytewise(&b),
            "len {} at {at} window {}",
            a.len(),
            new.len()
        );
    }

    #[test]
    fn x2n_is_repeated_squaring_of_x() {
        // Squared at run time from x itself; the 33rd square closes the
        // cycle that lets `x8nmodp` index the table modulo 32.
        let mut p = 1u32 << 30;
        for (k, &entry) in X2N.iter().enumerate() {
            assert_eq!(entry, p, "x^(2^{k})");
            p = multmodp(p, p);
        }
        assert_eq!(p, X2N[0], "x^(2^32) = x");
    }

    #[test]
    fn x8n_factor_equals_feeding_zero_bytes() {
        let zeros = vec![0u8; (1 << 16) + 7];
        for state in [1u32 << 31, 0xDEAD_BEEF, 0x0000_0001] {
            for n in [0usize, 1, 2, 3, 5, 16, 1000, (1 << 16) + 7] {
                assert_eq!(
                    multmodp(x8nmodp(n as u64), state),
                    fold(state, &zeros[..n]),
                    "state {state:#x} through {n} zeros"
                );
            }
        }
    }

    #[test]
    fn patch_matches_bytewise_on_a_256k_chunk() {
        let a = noise(256 * 1024);
        let new = noise(4096 + 3);
        let n = a.len();
        for (at, len) in [
            (0, 4096),
            (n - 4096, 4096),
            (100_000, 4099),
            (0, n),
            (n, 0),
            (7, 0),
        ] {
            let window: Vec<u8> = new.iter().cycle().take(len).map(|b| !b).collect();
            assert_patch_matches_bytewise(&a, at, &window);
        }
    }

    #[test]
    #[should_panic(expected = "ends inside the message")]
    fn patch_past_the_end_panics() {
        crc32_patch(0, 10, 8, &[0; 4], &[1; 4]);
    }

    proptest! {
        /// A patched CRC equals the oracle over the patched message, for
        /// any message, window and bytes: empty windows, windows at either
        /// end and the whole message included.
        #[test]
        fn patch_matches_bytewise(
            a in proptest::collection::vec(any::<u8>(), 0..8193),
            at_pick in any::<u64>(),
            len_pick in any::<u64>(),
            shape in 0u8..5,
            fill in proptest::collection::vec(any::<u8>(), 1..64),
        ) {
            let n = a.len();
            let (at, len) = match shape {
                0 => ((at_pick % (n as u64 + 1)) as usize, 0),
                1 => (0, (len_pick % (n as u64 + 1)) as usize),
                2 => {
                    let len = (len_pick % (n as u64 + 1)) as usize;
                    (n - len, len)
                }
                3 => (0, n),
                _ => {
                    let at = (at_pick % (n as u64 + 1)) as usize;
                    (at, (len_pick % ((n - at) as u64 + 1)) as usize)
                }
            };
            let new: Vec<u8> = fill.iter().cycle().take(len).copied().collect();
            assert_patch_matches_bytewise(&a, at, &new);
        }

        /// Any sequence of `update` calls over a message equals the oracle
        /// over the whole message.
        #[test]
        fn random_update_splits_match_bytewise(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
            cuts in proptest::collection::vec(0usize..2048, 0..12),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
            cuts.push(data.len());
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut from = 0;
            for cut in cuts {
                c.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(c.finalize(), bytewise(&data));
        }
    }
}
