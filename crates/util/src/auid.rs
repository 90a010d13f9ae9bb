//! AUID — the unique identifier scheme of BitDew.
//!
//! The paper (§3.5): *"Each object is referenced with a unique identifier
//! AUID, a variant of the DCE UID."* We keep the shape of a DCE UID — a
//! 128-bit value combining a timestamp, a per-process sequence counter and a
//! node-random component — but generate it from a caller-supplied entropy
//! source so simulations remain fully deterministic under a fixed seed.
//!
//! Layout (big-endian rendering `tttttttt-ssss-rrrr-rrrrrrrrrrrr`):
//!
//! * bits 127..64 — 64-bit timestamp (nanoseconds, virtual or wall clock)
//! * bits  63..48 — 16-bit sequence number (wraps; disambiguates same-tick ids)
//! * bits  47..0  — 48-bit random node/entropy component

use std::fmt;
use std::sync::atomic::{AtomicU16, Ordering};

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A 128-bit BitDew unique identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Auid(pub u128);

static SEQ: AtomicU16 = AtomicU16::new(0);

/// Length in bytes of [`Auid::to_canonical`]'s text: 16 + 4 + 12 hex
/// digits and two dashes.
pub const CANONICAL_LEN: usize = 34;

impl Auid {
    /// The nil identifier; used as a sentinel ("no data").
    pub const NIL: Auid = Auid(0);

    /// Build an AUID from a timestamp (nanoseconds) and an entropy source.
    pub fn generate<R: Rng + ?Sized>(now_nanos: u64, rng: &mut R) -> Auid {
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let node: u64 = rng.gen::<u64>() & 0xffff_ffff_ffff; // 48 bits
        let value = ((now_nanos as u128) << 64) | ((seq as u128) << 48) | node as u128;
        // Reserve 0 for NIL.
        Auid(if value == 0 { 1 } else { value })
    }

    /// Build an AUID using wall-clock time and thread-local entropy. Intended
    /// for the threaded runtime; simulations should prefer [`Auid::generate`].
    pub fn random() -> Auid {
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        Self::generate(now, &mut rand::thread_rng())
    }

    /// The embedded timestamp, in nanoseconds.
    pub fn timestamp_nanos(&self) -> u64 {
        (self.0 >> 64) as u64
    }

    /// The embedded 16-bit sequence number.
    pub fn sequence(&self) -> u16 {
        ((self.0 >> 48) & 0xffff) as u16
    }

    /// True for the NIL sentinel.
    pub fn is_nil(&self) -> bool {
        self.0 == 0
    }

    /// Canonical textual form, e.g. `0000000000000001-0003-2ab54c1de9f0`.
    pub fn to_canonical(&self) -> String {
        let mut out = String::with_capacity(CANONICAL_LEN);
        self.push_canonical(&mut out);
        out
    }

    /// Append the canonical textual form — `{:016x}-{:04x}-{:012x}` of
    /// timestamp, sequence and node — to `out`: exactly [`CANONICAL_LEN`]
    /// bytes, written from a nibble table with no formatting machinery.
    /// The three fields are the u128's 32 nibbles in order, so the text is
    /// those nibbles most significant first with a dash after the 16th and
    /// the 20th.
    pub fn push_canonical(&self, out: &mut String) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut text = [b'-'; CANONICAL_LEN];
        let mut at = 0;
        for nibble in 0..32 {
            if nibble == 16 || nibble == 20 {
                at += 1; // keep the dash
            }
            text[at] = HEX[(self.0 >> (124 - 4 * nibble)) as usize & 0xf];
            at += 1;
        }
        debug_assert_eq!(at, CANONICAL_LEN);
        out.push_str(std::str::from_utf8(&text).expect("hex digits and dashes are ASCII"));
    }

    /// Parse the canonical textual form produced by [`Auid::to_canonical`].
    pub fn parse_canonical(s: &str) -> Option<Auid> {
        let mut parts = s.split('-');
        let ts = u64::from_str_radix(parts.next()?, 16).ok()?;
        let seq = u16::from_str_radix(parts.next()?, 16).ok()?;
        let node = u64::from_str_radix(parts.next()?, 16).ok()?;
        if parts.next().is_some() || node > 0xffff_ffff_ffff {
            return None;
        }
        Some(Auid(
            ((ts as u128) << 64) | ((seq as u128) << 48) | node as u128,
        ))
    }

    /// Fold to a 64-bit key for DHT placement.
    pub fn fold64(&self) -> u64 {
        ((self.0 >> 64) as u64) ^ (self.0 as u64)
    }
}

impl fmt::Debug for Auid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Auid({})", self.to_canonical())
    }
}

impl fmt::Display for Auid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_canonical())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniqueness_under_same_tick() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(Auid::generate(42, &mut rng)), "collision");
        }
    }

    #[test]
    fn timestamp_and_sequence_recoverable() {
        let mut rng = SmallRng::seed_from_u64(1);
        let a = Auid::generate(123_456_789, &mut rng);
        assert_eq!(a.timestamp_nanos(), 123_456_789);
        assert!(!a.is_nil());
    }

    #[test]
    fn canonical_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(2);
        for t in [0u64, 1, u64::MAX] {
            let a = Auid::generate(t, &mut rng);
            assert_eq!(Auid::parse_canonical(&a.to_canonical()), Some(a));
        }
    }

    /// The `format!` rendering `push_canonical` replaced: the oracle every
    /// canonical name is held to.
    fn canonical_oracle(a: Auid) -> String {
        format!(
            "{:016x}-{:04x}-{:012x}",
            a.timestamp_nanos(),
            a.sequence(),
            a.0 & 0xffff_ffff_ffff
        )
    }

    fn assert_canonical(a: Auid) {
        let text = a.to_canonical();
        assert_eq!(text, canonical_oracle(a), "{:#034x}", a.0);
        assert_eq!(text.len(), CANONICAL_LEN);
        assert_eq!(Auid::parse_canonical(&text), Some(a));
        // Appends after what `out` already holds, and nothing more.
        let mut out = String::from("name.");
        a.push_canonical(&mut out);
        assert_eq!(out, format!("name.{}", canonical_oracle(a)));
    }

    #[test]
    fn canonical_text_matches_the_format_oracle() {
        assert_canonical(Auid(0));
        assert_canonical(Auid(u128::MAX));
        // Every nibble position, with every digit value: a shift or a dash
        // off by one moves a digit, and a buffer one byte too long leaves
        // a byte the oracle does not have.
        for nibble in 0..32 {
            for digit in 1..16u128 {
                assert_canonical(Auid(digit << (4 * nibble)));
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_canonical_text_matches_the_format_oracle(v in proptest::prelude::any::<u128>()) {
            assert_canonical(Auid(v));
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert_eq!(Auid::parse_canonical(""), None);
        assert_eq!(Auid::parse_canonical("xyz"), None);
        assert_eq!(Auid::parse_canonical("1-2-3-4"), None);
        // node component out of range (13 hex digits)
        assert_eq!(
            Auid::parse_canonical("0000000000000001-0003-1000000000000"),
            None
        );
    }

    #[test]
    fn nil_is_nil() {
        assert!(Auid::NIL.is_nil());
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(!Auid::generate(0, &mut rng).is_nil());
    }

    #[test]
    fn random_produces_distinct() {
        assert_ne!(Auid::random(), Auid::random());
    }

    #[test]
    fn ordering_follows_timestamp() {
        let mut rng = SmallRng::seed_from_u64(4);
        let early = Auid::generate(10, &mut rng);
        let late = Auid::generate(20, &mut rng);
        assert!(early < late);
    }
}
