//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! Two planes depend on it. The write-ahead log frames every record with
//! one to detect torn or corrupt tails, and — the heavier user by far — the
//! chunk plane keeps one per chunk in every `ChunkManifest`, so each byte a
//! node publishes, fetches, patches (`commit_update`) or repairs goes
//! through [`Crc32::update`] at least once. At one table lookup per byte the
//! digest, not the wire or the store, bounded the data plane.
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
//! The values are those of the classic one-byte-at-a-time table walk, which
//! the unit tests keep as their oracle (`tests::bytewise`) and compare
//! against at every length, alignment and `update` split.

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
        let t = &TABLES;
        let mut crc = self.state;
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
        self.state = crc;
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

    proptest! {
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
