//! Data objects and locators.
//!
//! §3.3: "Data creation consists of the creation of a slot in the storage
//! space … A data object contains data meta-information: name is the
//! character string label, checksum is an MD5 signature of the file, size is
//! the file length, flags is a OR-combination of flags indicating whether
//! the file is compressed, executable, architecture dependent, etc."
//!
//! A [`Locator`] "is similar to URL, it gives the correct information to
//! remotely access the data: file identification on the remote file system …
//! and information to set up the file transfer service" (§3.4.1).

use bitdew_storage::codec::{CodecError, Decode, Encode};
use bitdew_transport::ProtocolId;
use bitdew_util::auid::CANONICAL_LEN;
use bitdew_util::md5::{md5, Md5Digest};
use bitdew_util::Auid;
use bytes::{Bytes, BytesMut};

/// Identifier of a datum (an AUID).
pub type DataId = Auid;

/// OR-combination of data property flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DataFlags(pub u32);

impl DataFlags {
    /// Payload is compressed (the BLAST Genebase is a large archive, §5).
    pub const COMPRESSED: DataFlags = DataFlags(1);
    /// Payload is an executable (the BLAST Application binary, §5).
    pub const EXECUTABLE: DataFlags = DataFlags(1 << 1);
    /// Payload is architecture-dependent.
    pub const ARCH_DEPENDENT: DataFlags = DataFlags(1 << 2);

    /// Union of flag sets.
    pub fn union(self, other: DataFlags) -> DataFlags {
        DataFlags(self.0 | other.0)
    }

    /// True when every flag in `other` is set in `self`.
    pub fn contains(self, other: DataFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

/// A datum registered in the BitDew data space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Data {
    /// Unique identifier.
    pub id: DataId,
    /// Human-readable label.
    pub name: String,
    /// MD5 signature of the content.
    pub checksum: Md5Digest,
    /// Content length in bytes.
    pub size: u64,
    /// Property flags.
    pub flags: DataFlags,
}

impl Data {
    /// Create a datum describing `content` (computes checksum and size).
    pub fn from_bytes(id: DataId, name: impl Into<String>, content: &[u8]) -> Data {
        Data {
            id,
            name: name.into(),
            checksum: md5(content),
            size: content.len() as u64,
            flags: DataFlags::default(),
        }
    }

    /// Create a *slot*: a datum with declared size/checksum but whose content
    /// will be put later (or is synthetic, in simulations).
    pub fn slot(id: DataId, name: impl Into<String>, size: u64) -> Data {
        Data {
            id,
            name: name.into(),
            checksum: Md5Digest([0u8; 16]),
            size,
            flags: DataFlags::default(),
        }
    }

    /// Builder-style flag union.
    pub fn with_flags(mut self, flags: DataFlags) -> Data {
        self.flags = self.flags.union(flags);
        self
    }

    /// The canonical object name content is stored under in a
    /// [`FileStore`](bitdew_transport::FileStore): unique per datum so two
    /// data with the same label never collide.
    ///
    /// The text is `<name>.<canonical id>`, built in one allocation of
    /// exactly its length.
    pub fn object_name(&self) -> String {
        let mut object = String::with_capacity(self.name.len() + 1 + CANONICAL_LEN);
        object.push_str(&self.name);
        object.push('.');
        self.id.push_canonical(&mut object);
        object
    }

    /// Whether the declared checksum is the "unknown" sentinel of a slot.
    pub fn has_checksum(&self) -> bool {
        self.checksum.0 != [0u8; 16]
    }
}

impl Encode for Data {
    fn encode(&self, buf: &mut BytesMut) {
        self.id.encode(buf);
        self.name.encode(buf);
        self.checksum.encode(buf);
        self.size.encode(buf);
        self.flags.0.encode(buf);
    }

    /// Id, name, MD5, size and flags.
    fn encoded_len(&self) -> Option<usize> {
        Some(16 + self.name.encoded_len()? + 16 + 8 + 4)
    }
}

impl Decode for Data {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        Ok(Data {
            id: Auid::decode(buf)?,
            name: String::decode(buf)?,
            checksum: Md5Digest::decode(buf)?,
            size: u64::decode(buf)?,
            flags: DataFlags(u32::decode(buf)?),
        })
    }
}

/// Remote-access description for a datum replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Locator {
    /// The datum this locator serves.
    pub data: DataId,
    /// Transfer protocol to use.
    pub protocol: ProtocolId,
    /// Protocol endpoint (fabric listener name / tracker name).
    pub remote: String,
    /// Object name on the remote store.
    pub object: String,
}

impl Locator {
    /// Locator for `data` behind `protocol` at `remote`.
    pub fn new(data: &Data, protocol: ProtocolId, remote: impl Into<String>) -> Locator {
        Locator {
            data: data.id,
            protocol,
            remote: remote.into(),
            object: data.object_name(),
        }
    }

    /// This locator as a borrowed row.
    pub fn as_ref(&self) -> LocatorRef<'_> {
        LocatorRef {
            data: self.data,
            protocol: &self.protocol.0,
            remote: &self.remote,
            object: &self.object,
        }
    }
}

impl Encode for Locator {
    fn encode(&self, buf: &mut BytesMut) {
        self.as_ref().encode(buf);
    }

    fn encoded_len(&self) -> Option<usize> {
        self.as_ref().encoded_len()
    }
}

/// A [`Locator`] row from borrowed parts: what the catalog stores, built
/// from strings the writer already holds (the repository's endpoints, a
/// datum's object name) instead of an owned `Locator`'s three `String`s.
/// It has the one encoding a locator row has; [`Locator`] encodes through
/// it, and the row decodes as a [`Locator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocatorRef<'a> {
    /// The datum this locator serves.
    pub data: DataId,
    /// Transfer protocol name (a [`ProtocolId`]'s text).
    pub protocol: &'a str,
    /// Protocol endpoint.
    pub remote: &'a str,
    /// Object name on the remote store.
    pub object: &'a str,
}

impl Encode for LocatorRef<'_> {
    fn encode(&self, buf: &mut BytesMut) {
        self.data.encode(buf);
        self.protocol.encode(buf);
        self.remote.encode(buf);
        self.object.encode(buf);
    }

    /// Id and three length-prefixed strings.
    fn encoded_len(&self) -> Option<usize> {
        Some(
            16 + self.protocol.encoded_len()?
                + self.remote.encoded_len()?
                + self.object.encoded_len()?,
        )
    }
}

impl Decode for Locator {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        Ok(Locator {
            data: Auid::decode(buf)?,
            protocol: ProtocolId(String::decode(buf)?),
            remote: String::decode(buf)?,
            object: String::decode(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn an_id(n: u64) -> DataId {
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(n);
        Auid::generate(n, &mut rng)
    }

    #[test]
    fn from_bytes_computes_metadata() {
        let d = Data::from_bytes(an_id(1), "genome", b"ACGT");
        assert_eq!(d.size, 4);
        assert_eq!(d.checksum, md5(b"ACGT"));
        assert!(d.has_checksum());
        assert_eq!(d.flags, DataFlags::default());
    }

    #[test]
    fn slot_has_no_checksum() {
        let d = Data::slot(an_id(2), "result", 1024);
        assert!(!d.has_checksum());
        assert_eq!(d.size, 1024);
    }

    #[test]
    fn flags_combine() {
        let f = DataFlags::COMPRESSED.union(DataFlags::EXECUTABLE);
        assert!(f.contains(DataFlags::COMPRESSED));
        assert!(f.contains(DataFlags::EXECUTABLE));
        assert!(!f.contains(DataFlags::ARCH_DEPENDENT));
        let d = Data::from_bytes(an_id(3), "app", b"\x7fELF").with_flags(f);
        assert!(d.flags.contains(DataFlags::EXECUTABLE));
    }

    #[test]
    fn object_names_are_unique_per_id() {
        let a = Data::from_bytes(an_id(4), "same", b"x");
        let b = Data::from_bytes(an_id(5), "same", b"x");
        assert_ne!(a.object_name(), b.object_name());
        assert!(a.object_name().starts_with("same."));
    }

    #[test]
    fn data_codec_roundtrip() {
        let d = Data::from_bytes(an_id(6), "chunk", b"payload").with_flags(DataFlags::COMPRESSED);
        let bytes = d.to_bytes();
        assert_eq!(Data::from_bytes_slice(&bytes), d);
    }

    impl Data {
        fn from_bytes_slice(bytes: &[u8]) -> Data {
            <Data as Decode>::from_bytes(bytes).unwrap()
        }
    }

    #[test]
    fn object_name_matches_the_format_oracle() {
        for name in ["", "genome", "späte Grüße — 数据", "a.b.c"] {
            for id in [Auid(0), Auid(u128::MAX), an_id(8)] {
                let d = Data::slot(id, name, 0);
                let object = d.object_name();
                assert_eq!(object, format!("{}.{}", name, id.to_canonical()));
                assert_eq!(object.len(), name.len() + 1 + CANONICAL_LEN);
            }
        }
    }

    /// A locator row as its fields encode one by one, written out by hand
    /// (little-endian id, then three `u32`-length-prefixed strings): the
    /// oracle for the one encoding both `Locator` and `LocatorRef` share.
    fn locator_row_oracle(data: DataId, protocol: &str, remote: &str, object: &str) -> Vec<u8> {
        let mut row = data.0.to_le_bytes().to_vec();
        for text in [protocol, remote, object] {
            row.extend_from_slice(&(text.len() as u32).to_le_bytes());
            row.extend_from_slice(text.as_bytes());
        }
        row
    }

    proptest::proptest! {
        #[test]
        fn prop_rows_encode_alike_from_borrowed_or_owned_parts_at_the_stated_size(
            id in proptest::prelude::any::<u128>(),
            name in ".{0,24}",
            protocol in ".{0,12}",
            remote in ".{0,24}",
            object in ".{0,48}",
            size in proptest::prelude::any::<u64>(),
            flags in proptest::prelude::any::<u32>(),
        ) {
            let owned = Locator {
                data: Auid(id),
                protocol: ProtocolId(protocol.clone()),
                remote: remote.clone(),
                object: object.clone(),
            };
            let borrowed = LocatorRef {
                data: Auid(id),
                protocol: &protocol,
                remote: &remote,
                object: &object,
            };
            let oracle = locator_row_oracle(Auid(id), &protocol, &remote, &object);
            let from_owned = owned.encode_to_vec();
            let from_borrowed = borrowed.encode_to_vec();
            proptest::prop_assert_eq!(&from_owned, &oracle);
            proptest::prop_assert_eq!(&from_borrowed, &oracle);
            proptest::prop_assert_eq!(&owned.to_bytes()[..], &oracle[..]);
            proptest::prop_assert_eq!(<Locator as Decode>::from_bytes(&from_borrowed).unwrap(), owned.clone());
            // The stated size is the encoded size, and the buffer holds
            // no slack beyond it.
            proptest::prop_assert_eq!(owned.encoded_len(), Some(oracle.len()));
            proptest::prop_assert_eq!(borrowed.encoded_len(), Some(oracle.len()));
            proptest::prop_assert_eq!(from_borrowed.capacity(), oracle.len());

            let data = Data {
                id: Auid(id),
                name,
                checksum: md5(object.as_bytes()),
                size,
                flags: DataFlags(flags),
            };
            let row = data.encode_to_vec();
            proptest::prop_assert_eq!(data.encoded_len(), Some(row.len()));
            proptest::prop_assert_eq!(row.capacity(), row.len());
            proptest::prop_assert_eq!(<Data as Decode>::from_bytes(&row).unwrap(), data);
        }
    }

    #[test]
    fn locator_codec_roundtrip() {
        let d = Data::from_bytes(an_id(7), "file", b"abc");
        let l = Locator::new(&d, ProtocolId::ftp(), "dr-main");
        let bytes = l.to_bytes();
        assert_eq!(<Locator as Decode>::from_bytes(&bytes).unwrap(), l);
        assert_eq!(l.object, d.object_name());
    }
}
