//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! Two planes depend on it. The write-ahead log frames every record with
//! one to detect torn or corrupt tails, and — the heavier user by far — the
//! chunk plane keeps one per chunk in every `ChunkManifest`, so each byte a
//! node publishes, fetches or repairs goes through [`Crc32::update`] at
//! least once. A receiver verifies every chunk before admitting it, so the
//! digest runs on the fetch path of every worker: at slice-by-16's
//! ≈1.8 GB/s it took more thread time than the store write it guards.
//!
//! **The kernel** is a carry-less multiply (`PCLMULQDQ`), the reflected
//! variant of Gopal et al., "Fast CRC Computation for Generic Polynomials
//! Using PCLMULQDQ" (Intel, 2009) — the method of zlib-ng and crc32fast.
//! Four 128-bit remainders fold 64 bytes per step (two multiplies each,
//! independent of one another), are folded into one, which then takes the
//! remaining 16-byte blocks; a 128 → 96 → 64-bit reduction and one Barrett
//! step leave the 32-bit register. On an Intel Xeon (2 vCPUs) it digests
//! ≈21 GB/s in a tight loop against the tables' ≈1.8 GB/s, and every
//! result is bit-identical to theirs.
//!
//! **The constants** are powers of `x` modulo P in the register's
//! bit-reflected form, shifted left one bit for the multiply: each is
//! `(x8nmodp(n) as u64) << 1`, with `n` = 68 and 60 for the 512-bit fold
//! (k1, k2), 20 and 12 for the 128-bit fold (k3, k4), and 8 for the 96 → 64
//! step (k5). P′ is the 33-bit polynomial reflected, and μ = ⌊x⁶⁴ / P⌋
//! reflected to 33 bits like it. The unit tests derive every one at run
//! time, so a typo fails with the constant's name.
//!
//! **`CLMUL_MIN` = 64.** The fold needs one 64-byte block to start.
//! Swept over 16…1 024-byte inputs on that Xeon, the kernel already wins at
//! 64 bytes (14 ns against the tables' 33) and the gap widens from there
//! (20 against 130 ns at 256): the crossover lies below the fold's own
//! minimum, so the minimum is the threshold.
//!
//! **The fallback** is **slice-by-16**: sixteen 256-entry tables, where
//! `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, let one
//! step fold 16 input bytes with 16 independent lookups instead of a
//! 16-long dependent chain. It runs on other targets, on CPUs without the
//! features, on inputs under `CLMUL_MIN` and on the kernel's tail under
//! 16 bytes. The tables (16 KB) are evaluated at compile time, so there is
//! no lazy initialisation on the first call and nothing on the heap.
//!
//! **The one `unsafe`.** The kernel is a `#[target_feature]` function, and
//! the intrinsics inside it are safe to call there; it reads its input only
//! through bounds-checked slices and casts no pointer. What is unsafe is
//! calling it at all on a CPU without the features, so the workspace's only
//! `unsafe` block is that call, behind run-time detection
//! (`is_x86_feature_detected!`). Implemented from scratch because the
//! workspace allows no checksum crates.
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
//! the unit tests keep as their oracle (`tests::bytewise`) and compare each
//! kernel against, called directly, at every length, alignment and `update`
//! split — and, for [`crc32_patch`], against the oracle over the whole
//! patched message.

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

/// The CRC register after absorbing `data` from `crc` (no final inversion):
/// the carry-less-multiply kernel where the CPU has it and the input is at
/// least `CLMUL_MIN` bytes, the tables otherwise.
fn fold(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= CLMUL_MIN {
        if let Some(crc) = clmul::try_fold(crc, data) {
            return crc;
        }
    }
    fold_tables(crc, data)
}

/// Inputs shorter than this go to the tables: the fold needs one 64-byte
/// block, and from there on it already beats them (see the module header
/// for the sweep).
#[cfg(target_arch = "x86_64")]
const CLMUL_MIN: usize = 64;

/// Slice-by-16: the register after absorbing `data` from `crc`.
pub(crate) fn fold_tables(mut crc: u32, data: &[u8]) -> u32 {
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

/// The `PCLMULQDQ` kernel: Gopal et al.'s folding for the reflected
/// polynomial, as in zlib-ng and crc32fast.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// `x^(4·128+32)`, `x^(4·128−32)`: fold a register 512 bits forward.
    pub(super) const K1: u64 = 0x1_5444_2bd4;
    pub(super) const K2: u64 = 0x1_c6e4_1596;
    /// `x^(128+32)`, `x^(128−32)`: fold a register 128 bits forward.
    pub(super) const K3: u64 = 0x1_7519_97d0;
    pub(super) const K4: u64 = 0x0_ccaa_009e;
    /// `x^64`: reduce 96 bits to 64.
    pub(super) const K5: u64 = 0x1_63cd_6124;
    /// P′, the 33-bit polynomial, bit-reflected.
    pub(super) const P: u64 = 0x1_db71_0641;
    /// μ = ⌊x^64 / P⌋, bit-reflected: the Barrett constant.
    pub(super) const MU: u64 = 0x1_f701_1641;

    /// [`fold`] when this CPU has its features, `None` otherwise.
    #[allow(unsafe_code)]
    pub(super) fn try_fold(crc: u32, data: &[u8]) -> Option<u32> {
        if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
            return None;
        }
        // SAFETY: both features `fold` is compiled for were just detected
        // on this CPU; it reads `data` through bounds-checked slices only.
        Some(unsafe { fold(crc, data) })
    }

    /// The register after absorbing `data` from `crc`. Whole 16-byte blocks
    /// are folded here; the tail under 16 bytes, and any input under 64,
    /// goes to the tables.
    ///
    /// # Safety
    ///
    /// Calling it from code not itself compiled for these features is
    /// `unsafe`: the caller must have detected `pclmulqdq` and `sse4.1` on
    /// the running CPU, as [`try_fold`] does.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(crc: u32, data: &[u8]) -> u32 {
        let (blocks, tail) = data.as_chunks::<16>();
        let (quads, singles) = blocks.as_chunks::<4>();
        let Some((first, quads)) = quads.split_first() else {
            return super::fold_tables(crc, data);
        };

        // Four running remainders, one per 16-byte lane of a 64-byte block;
        // the register enters as the low word of the first.
        let mut x = first.map(|b| load(&b));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2 as i64, K1 as i64);
        for quad in quads {
            for (x, b) in x.iter_mut().zip(quad) {
                *x = fold_into(*x, load(b), k1k2);
            }
        }

        // Down to one remainder, then 16 bytes at a time.
        let k3k4 = _mm_set_epi64x(K4 as i64, K3 as i64);
        let mut r = fold_into(x[0], x[1], k3k4);
        r = fold_into(r, x[2], k3k4);
        r = fold_into(r, x[3], k3k4);
        for b in singles {
            r = fold_into(r, load(b), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        r = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(r, k3k4),
            _mm_srli_si128::<8>(r),
        );
        r = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(r, low32), _mm_set_epi64x(0, K5 as i64)),
            _mm_srli_si128::<4>(r),
        );

        // Barrett: 64 → 32 bits; reflected, so the result is the high word.
        let pmu = _mm_set_epi64x(MU as i64, P as i64);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(r, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(r, t2)) as u32;

        super::fold_tables(crc, tail)
    }

    /// `a` carried forward by the distance `k` encodes, XORed onto `b`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, k);
        let hi = _mm_clmulepi64_si128::<0x11>(a, k);
        _mm_xor_si128(b, _mm_xor_si128(lo, hi))
    }

    /// 16 little-endian bytes as one register.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(b: &[u8; 16]) -> __m128i {
        let (lo, hi) = b.split_at(8);
        let word = |h: &[u8]| i64::from_le_bytes(h.try_into().expect("8 bytes"));
        _mm_set_epi64x(word(hi), word(lo))
    }
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
        bytewise_from(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    /// The oracle's register after absorbing `data` from `state`.
    fn bytewise_from(mut state: u32, data: &[u8]) -> u32 {
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
        for &b in data {
            state = table[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
        }
        state
    }

    type Kernel = fn(u32, &[u8]) -> u32;

    /// Every kernel this machine runs, called directly rather than through
    /// `fold`'s length threshold: the tables everywhere, the carry-less
    /// kernel where the CPU has its features.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        #[allow(unused_mut)]
        let mut all: Vec<(&'static str, Kernel)> = vec![("tables", fold_tables)];
        #[cfg(target_arch = "x86_64")]
        if clmul::try_fold(0, &[]).is_some() {
            all.push(("clmul", |crc, data| {
                clmul::try_fold(crc, data).expect("detected above")
            }));
        }
        all
    }

    /// The registers a fold starts from: a fresh hasher's, the zero that
    /// `crc32_patch` folds from, and an arbitrary one.
    const STARTS: [u32; 3] = [0xFFFF_FFFF, 0, 0xDEAD_BEEF];

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
    fn each_kernel_matches_bytewise_at_every_length_and_alignment() {
        let data = noise(16 + 1100);
        for (name, kernel) in kernels() {
            for start in 0..16 {
                for len in 0..=1100 {
                    let window = &data[start..start + len];
                    for state in STARTS {
                        assert_eq!(
                            kernel(state, window),
                            bytewise_from(state, window),
                            "{name}: start {start} len {len} from {state:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn each_kernel_matches_bytewise_on_a_long_input() {
        let data = noise((1 << 20) + 3);
        for (name, kernel) in kernels() {
            for state in STARTS {
                assert_eq!(
                    kernel(state, &data),
                    bytewise_from(state, &data),
                    "{name} from {state:#x}"
                );
            }
        }
    }

    #[test]
    fn each_kernel_splits_at_every_offset_around_the_block_edges() {
        // Every two-way split of messages just around the threshold and
        // the 16- and 64-byte edges, and three-way splits with both cuts
        // near an edge, through each kernel and through `Crc32::update`.
        let data = noise(300);
        #[allow(unused_mut)]
        let mut edges = vec![16, 64, 128, 192];
        #[cfg(target_arch = "x86_64")]
        edges.push(CLMUL_MIN);
        let near: Vec<usize> = edges
            .iter()
            .flat_map(|&e| e.saturating_sub(2)..=e + 2)
            .chain([0, 1, 300])
            .collect();
        for (name, kernel) in kernels() {
            for &len in near.iter().chain(&[300]) {
                let msg = &data[..len.min(300)];
                let want = bytewise_from(!0, msg);
                for cut in 0..=msg.len() {
                    let (a, b) = msg.split_at(cut);
                    assert_eq!(kernel(kernel(!0, a), b), want, "{name}: len {len} at {cut}");
                    let mut c = Crc32::new();
                    c.update(a);
                    c.update(b);
                    assert_eq!(c.finalize(), want ^ !0, "update: len {len} at {cut}");
                }
            }
            for &i in &near {
                for &j in &near {
                    let (i, j) = (i.min(j), i.max(j));
                    let (a, rest) = data.split_at(i);
                    let (b, c) = rest.split_at(j - i);
                    assert_eq!(
                        kernel(kernel(kernel(!0, a), b), c),
                        bytewise_from(!0, &data),
                        "{name}: cuts {i}, {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn x8n_factor_equals_feeding_zero_bytes_through_each_kernel() {
        let zeros = vec![0u8; (1 << 16) + 7];
        for (name, kernel) in kernels() {
            for state in [1u32 << 31, 0xDEAD_BEEF, 0x0000_0001] {
                for n in [0usize, 1, 2, 3, 5, 16, 63, 64, 65, 1000, (1 << 16) + 7] {
                    assert_eq!(
                        multmodp(x8nmodp(n as u64), state),
                        kernel(state, &zeros[..n]),
                        "{name}: state {state:#x} through {n} zeros"
                    );
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_are_their_derivations() {
        for (name, k, n) in [
            ("k1", clmul::K1, 68),
            ("k2", clmul::K2, 60),
            ("k3", clmul::K3, 20),
            ("k4", clmul::K4, 12),
            ("k5", clmul::K5, 8),
        ] {
            assert_eq!(
                k,
                (x8nmodp(n) as u64) << 1,
                "{name} = x^(8·{n}) mod P, reflected, << 1"
            );
        }
        assert_eq!(clmul::P, ((POLY as u64) << 1) | 1, "P′");
        // μ = ⌊x^64 / P⌋ by carry-less long division in the normal bit
        // order (P = x^32 + POLY reflected), then reflected to 33 bits.
        let p = (1u128 << 32) | POLY.reverse_bits() as u128;
        let mut rem = 1u128 << 64;
        let mut q = 0u64;
        for shift in (0..=32).rev() {
            if rem & (1u128 << (32 + shift)) != 0 {
                rem ^= p << shift;
                q |= 1 << shift;
            }
        }
        assert!(rem < 1 << 32, "the remainder is below x^32");
        assert_eq!(clmul::MU, q.reverse_bits() >> 31, "μ");
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

        /// The same through each kernel called directly, from each start.
        #[test]
        fn random_splits_match_bytewise_through_each_kernel(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
            cuts in proptest::collection::vec(0usize..2048, 0..12),
            start in 0usize..3,
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
            cuts.push(data.len());
            cuts.sort_unstable();
            let state = STARTS[start];
            for (_, kernel) in kernels() {
                let mut reg = state;
                let mut from = 0;
                for &cut in &cuts {
                    reg = kernel(reg, &data[from..cut]);
                    from = cut;
                }
                prop_assert_eq!(reg, bytewise_from(state, &data));
            }
        }
    }
}
