//! Content stores: where transfer payloads live.
//!
//! The Data Repository "acts as a wrapper around legacy file server or file
//! system" (§3.4.2). [`FileStore`] is that wrapper's minimal contract —
//! random-access read/write by name — with two implementations:
//!
//! * [`MemStore`] — in-memory, for tests and the simulated runtime;
//! * [`DiskStore`] — rooted at a directory, for the threaded runtime and the
//!   examples (real files, real I/O).
//!
//! Both support partial writes at offsets, which is what makes interrupted
//! transfers *resumable* — the Data Transfer service restarts a faulty
//! transfer from the last verified offset instead of from zero.
//!
//! A read copies each byte once. [`FileStore::read_at`] copies the range
//! into fresh shared storage (a [`Bytes`]) — the primitive for callers that
//! hand the bytes on whole: the FTP `RANGE` and HTTP servers, the BitTorrent
//! piece server, streaming verification and [`FileStore::checksum`].
//! [`FileStore::read_into`] copies the range straight onto the end of the
//! caller's `Vec` — the primitive for callers that assemble a `Vec`: the
//! version plane's snapshot reads, the repository's `get_bytes` /
//! `get_range`, and the runtime's and simulator's local reads. Neither path
//! reads into a temporary and copies again.

use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use bitdew_util::md5::{Md5, Md5Digest};

/// Store errors.
#[derive(Debug)]
pub enum StoreError {
    /// Named object does not exist.
    NotFound(String),
    /// Read past the end of an object.
    OutOfRange,
    /// Underlying I/O failure (disk store).
    Io(std::io::Error),
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(n) => write!(f, "no such object: {n}"),
            StoreError::OutOfRange => write!(f, "read out of range"),
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Random-access content storage by object name.
///
/// Copy contract: `read_at` is one copy into shared storage, `read_into` one
/// copy into the caller's buffer (see the module docs for who uses which).
pub trait FileStore: Send + Sync {
    /// Bytes `[offset, offset+len)` of `name`, copied once into a fresh
    /// [`Bytes`]. Short reads only at EOF; an `offset` past EOF is
    /// [`StoreError::OutOfRange`], a missing object [`StoreError::NotFound`].
    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, StoreError>;
    /// Append bytes `[offset, offset+len)` of `name` to `out` and return how
    /// many were appended: short only at EOF, and failing in exactly the
    /// cases [`FileStore::read_at`] fails, with `out` then unchanged.
    ///
    /// The default reads through `read_at` (so a wrapper that overrides only
    /// `read_at` still sees, and counts, every read); the stores override it
    /// to copy straight into `out`.
    fn read_into(
        &self,
        name: &str,
        offset: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<usize, StoreError> {
        let bytes = self.read_at(name, offset, len)?;
        out.extend_from_slice(&bytes);
        Ok(bytes.len())
    }
    /// Write `data` into `name` at `offset`, extending (zero-filling any gap)
    /// as needed. Creates the object if missing.
    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), StoreError>;
    /// Current size of `name`.
    fn size(&self, name: &str) -> Result<u64, StoreError>;
    /// Whether `name` exists.
    fn exists(&self, name: &str) -> bool;
    /// Remove `name` (no-op when missing).
    fn remove(&self, name: &str) -> Result<(), StoreError>;
    /// MD5 of the whole object — the integrity check of receiver-driven
    /// transfer (§3.4.2).
    fn checksum(&self, name: &str) -> Result<Md5Digest, StoreError> {
        let mut hasher = Md5::new();
        hash_range(self, name, 0, self.size(name)?, &mut hasher)?;
        Ok(hasher.finalize())
    }
    /// Names of all stored objects.
    fn list(&self) -> Vec<String>;
}

/// Feed `name[from, to)` to `hasher`, reading 256 KiB at a time. An object
/// that ends before `to` is [`StoreError::OutOfRange`], not a short digest.
pub(crate) fn hash_range<S: FileStore + ?Sized>(
    store: &S,
    name: &str,
    from: u64,
    to: u64,
    hasher: &mut Md5,
) -> Result<(), StoreError> {
    let mut off = from;
    while off < to {
        let chunk = store.read_at(name, off, (to - off).min(256 * 1024) as usize)?;
        if chunk.is_empty() {
            return Err(StoreError::OutOfRange);
        }
        hasher.update(&chunk);
        off += chunk.len() as u64;
    }
    Ok(())
}

/// In-memory store.
#[derive(Default)]
pub struct MemStore {
    objects: RwLock<HashMap<String, Vec<u8>>>,
}

impl MemStore {
    /// Empty store.
    pub fn new() -> Arc<MemStore> {
        Arc::new(MemStore::default())
    }

    /// Create an object with the given content (replacing any previous).
    pub fn put(&self, name: &str, content: &[u8]) {
        self.objects
            .write()
            .insert(name.to_string(), content.to_vec());
    }

    /// Run `f` on bytes `[offset, offset+len)` of `name` (short at EOF)
    /// under the read lock.
    fn with_range<T>(
        &self,
        name: &str,
        offset: u64,
        len: usize,
        f: impl FnOnce(&[u8]) -> T,
    ) -> Result<T, StoreError> {
        let objects = self.objects.read();
        let data = objects
            .get(name)
            .ok_or_else(|| StoreError::NotFound(name.into()))?;
        let off = usize::try_from(offset).map_err(|_| StoreError::OutOfRange)?;
        if off > data.len() {
            return Err(StoreError::OutOfRange);
        }
        // `len` can come straight off the wire (`RANGE <name> 1 <usize::MAX>`).
        let end = off.saturating_add(len).min(data.len());
        Ok(f(&data[off..end]))
    }
}

impl FileStore for MemStore {
    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, StoreError> {
        self.with_range(name, offset, len, Bytes::copy_from_slice)
    }

    fn read_into(
        &self,
        name: &str,
        offset: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<usize, StoreError> {
        self.with_range(name, offset, len, |range| {
            out.extend_from_slice(range);
            range.len()
        })
    }

    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        let off = offset as usize;
        let needed = off.checked_add(data.len()).ok_or(StoreError::OutOfRange)?;
        let mut objects = self.objects.write();
        let obj = objects.entry(name.to_string()).or_default();
        if obj.len() < needed {
            obj.resize(needed, 0);
        }
        obj[off..needed].copy_from_slice(data);
        Ok(())
    }

    fn size(&self, name: &str) -> Result<u64, StoreError> {
        self.objects
            .read()
            .get(name)
            .map(|d| d.len() as u64)
            .ok_or_else(|| StoreError::NotFound(name.into()))
    }

    fn exists(&self, name: &str) -> bool {
        self.objects.read().contains_key(name)
    }

    fn remove(&self, name: &str) -> Result<(), StoreError> {
        self.objects.write().remove(name);
        Ok(())
    }

    fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.objects.read().keys().cloned().collect();
        names.sort();
        names
    }
}

/// Directory-rooted store. Object names map to file names; names are
/// sanitized to a flat namespace (path separators become `_`) so a malicious
/// name cannot escape the root.
pub struct DiskStore {
    root: PathBuf,
}

impl DiskStore {
    /// Store rooted at `root` (created if missing).
    pub fn new(root: impl Into<PathBuf>) -> Result<Arc<DiskStore>, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Arc::new(DiskStore { root }))
    }

    fn path_for(&self, name: &str) -> PathBuf {
        let safe: String = name
            .chars()
            .map(|c| {
                if c == '/' || c == '\\' || c == '.' && name.starts_with('.') {
                    '_'
                } else {
                    c
                }
            })
            .collect();
        self.root.join(safe)
    }
}

impl FileStore for DiskStore {
    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, StoreError> {
        let mut buf = Vec::new();
        self.read_into(name, offset, len, &mut buf)?;
        Ok(Bytes::from(buf))
    }

    fn read_into(
        &self,
        name: &str,
        offset: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<usize, StoreError> {
        let path = self.path_for(name);
        let mut file = std::fs::File::open(&path).map_err(|_| StoreError::NotFound(name.into()))?;
        let size = file.metadata()?.len();
        if offset > size {
            return Err(StoreError::OutOfRange);
        }
        file.seek(SeekFrom::Start(offset))?;
        let take = usize::try_from(size - offset).map_or(len, |rest| rest.min(len));
        let start = out.len();
        out.resize(start + take, 0);
        if let Err(e) = file.read_exact(&mut out[start..]) {
            out.truncate(start);
            return Err(e.into());
        }
        Ok(take)
    }

    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        let path = self.path_for(name);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&path)?;
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(data)?;
        Ok(())
    }

    fn size(&self, name: &str) -> Result<u64, StoreError> {
        std::fs::metadata(self.path_for(name))
            .map(|m| m.len())
            .map_err(|_| StoreError::NotFound(name.into()))
    }

    fn exists(&self, name: &str) -> bool {
        self.path_for(name).exists()
    }

    fn remove(&self, name: &str) -> Result<(), StoreError> {
        match std::fs::remove_file(self.path_for(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn list(&self) -> Vec<String> {
        let mut names = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&self.root) {
            for e in entries.flatten() {
                if let Ok(name) = e.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitdew_storage::testutil::TempDir;
    use proptest::prelude::*;

    fn exercise(store: &dyn FileStore) {
        assert!(!store.exists("f"));
        assert!(matches!(store.size("f"), Err(StoreError::NotFound(_))));

        store.write_at("f", 0, b"hello world").unwrap();
        assert!(store.exists("f"));
        assert_eq!(store.size("f").unwrap(), 11);
        assert_eq!(&store.read_at("f", 0, 5).unwrap()[..], b"hello");
        assert_eq!(&store.read_at("f", 6, 100).unwrap()[..], b"world");

        // Sparse write extends with zeros.
        store.write_at("f", 15, b"!").unwrap();
        assert_eq!(store.size("f").unwrap(), 16);
        assert_eq!(&store.read_at("f", 11, 4).unwrap()[..], &[0, 0, 0, 0]);

        // Checksum covers the whole object.
        let sum = store.checksum("f").unwrap();
        let mut expect = b"hello world".to_vec();
        expect.extend_from_slice(&[0, 0, 0, 0]);
        expect.push(b'!');
        assert_eq!(sum, bitdew_util::md5::md5(&expect));

        // Overwrite in place.
        store.write_at("f", 0, b"HELLO").unwrap();
        assert_eq!(&store.read_at("f", 0, 5).unwrap()[..], b"HELLO");

        exercise_read_into(store);

        store.remove("f").unwrap();
        assert!(!store.exists("f"));
        store.remove("f").unwrap(); // idempotent
    }

    /// The `read_into` contract on the 16-byte `f` that `exercise` leaves.
    fn exercise_read_into(store: &dyn FileStore) {
        // Appends after what `out` already holds and returns the count.
        let mut out = b">>".to_vec();
        assert_eq!(store.read_into("f", 0, 5, &mut out).unwrap(), 5);
        assert_eq!(out, b">>HELLO");
        assert_eq!(store.read_into("f", 5, 6, &mut out).unwrap(), 6);
        assert_eq!(out, b">>HELLO world");
        // Short at EOF, empty exactly at EOF, and a `usize::MAX` length is
        // a short read, not an overflow.
        let mut out = Vec::new();
        assert_eq!(store.read_into("f", 12, 100, &mut out).unwrap(), 4);
        assert_eq!(out, [0, 0, 0, b'!']);
        assert_eq!(store.read_into("f", 16, 100, &mut out).unwrap(), 0);
        assert_eq!(store.read_into("f", 15, usize::MAX, &mut out).unwrap(), 1);
        assert_eq!(out, [0, 0, 0, b'!', b'!']);
        // Past EOF and a missing object fail as `read_at` does, and leave
        // `out` as it was.
        assert!(matches!(
            store.read_into("f", 17, 1, &mut out),
            Err(StoreError::OutOfRange)
        ));
        assert!(matches!(
            store.read_into("missing", 0, 1, &mut out),
            Err(StoreError::NotFound(_))
        ));
        assert_eq!(out, [0, 0, 0, b'!', b'!']);
    }

    #[test]
    fn mem_store_contract() {
        let store = MemStore::new();
        exercise(store.as_ref());
    }

    #[test]
    fn disk_store_contract() {
        let dir = TempDir::new("diskstore");
        let store = DiskStore::new(dir.path()).unwrap();
        exercise(store.as_ref());
    }

    #[test]
    fn mem_put_and_list() {
        let store = MemStore::new();
        store.put("b", b"2");
        store.put("a", b"1");
        assert_eq!(store.list(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn disk_names_are_sanitized() {
        let dir = TempDir::new("diskstore-sane");
        let store = DiskStore::new(dir.path()).unwrap();
        store.write_at("../escape", 0, b"x").unwrap();
        // The file must exist inside the root, not above it.
        assert!(store.exists("../escape"));
        assert!(!dir.path().parent().unwrap().join("escape").exists());
    }

    #[test]
    fn read_out_of_range() {
        let store = MemStore::new();
        store.put("f", b"abc");
        assert!(matches!(
            store.read_at("f", 10, 1),
            Err(StoreError::OutOfRange)
        ));
        // Reading exactly at EOF yields empty.
        assert_eq!(store.read_at("f", 3, 10).unwrap().len(), 0);
    }

    #[test]
    fn huge_read_length_is_a_short_read_not_an_overflow() {
        let store = MemStore::new();
        store.put("f", b"abc");
        assert_eq!(&store.read_at("f", 1, usize::MAX).unwrap()[..], b"bc");
        let dir = TempDir::new("diskstore-huge-len");
        let disk = DiskStore::new(dir.path()).unwrap();
        disk.write_at("f", 0, b"abc").unwrap();
        assert_eq!(&disk.read_at("f", 1, usize::MAX).unwrap()[..], b"bc");
    }

    /// A store that overrides only the required methods, so `read_into`
    /// keeps the trait default.
    struct Forwarding(Arc<MemStore>);

    impl FileStore for Forwarding {
        fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, StoreError> {
            self.0.read_at(name, offset, len)
        }
        fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), StoreError> {
            self.0.write_at(name, offset, data)
        }
        fn size(&self, name: &str) -> Result<u64, StoreError> {
            self.0.size(name)
        }
        fn exists(&self, name: &str) -> bool {
            self.0.exists(name)
        }
        fn remove(&self, name: &str) -> Result<(), StoreError> {
            self.0.remove(name)
        }
        fn list(&self) -> Vec<String> {
            self.0.list()
        }
    }

    #[test]
    fn default_read_into_keeps_the_contract() {
        exercise(&Forwarding(MemStore::new()));
    }

    proptest! {
        /// `read_into` appends exactly what `read_at` returns, and fails
        /// where it fails, on both stores and on the trait default.
        #[test]
        fn read_into_equals_read_at(
            content in proptest::collection::vec(any::<u8>(), 0..3000),
            offset_pick in any::<u64>(),
            len_pick in any::<u64>(),
            prefix in proptest::collection::vec(any::<u8>(), 0..8),
        ) {
            // Offsets up to a few bytes past EOF; lengths short, long, huge.
            let offset = offset_pick % (content.len() as u64 + 4);
            let len = match len_pick % 4 {
                0 => 0,
                1 => (len_pick >> 2) as usize % (content.len() + 8),
                2 => content.len(),
                _ => usize::MAX,
            };
            let dir = TempDir::new("read-into-prop");
            let stores: [Arc<dyn FileStore>; 3] = [
                MemStore::new(),
                DiskStore::new(dir.path()).unwrap(),
                Arc::new(Forwarding(MemStore::new())),
            ];
            for store in &stores {
                store.write_at("o", 0, &content).unwrap();
                let mut out = prefix.clone();
                match (store.read_at("o", offset, len), store.read_into("o", offset, len, &mut out)) {
                    (Ok(bytes), Ok(n)) => {
                        prop_assert_eq!(n, bytes.len());
                        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
                        prop_assert_eq!(&out[prefix.len()..], &bytes[..]);
                    }
                    (Err(StoreError::OutOfRange), Err(StoreError::OutOfRange)) => {
                        prop_assert_eq!(&out, &prefix);
                    }
                    (a, b) => prop_assert!(false, "read_at {a:?} vs read_into {b:?}"),
                }
            }
        }
    }

    #[test]
    fn disk_persists_across_handles() {
        let dir = TempDir::new("diskstore-persist");
        {
            let store = DiskStore::new(dir.path()).unwrap();
            store.write_at("keep", 0, b"payload").unwrap();
        }
        let store = DiskStore::new(dir.path()).unwrap();
        assert_eq!(&store.read_at("keep", 0, 7).unwrap()[..], b"payload");
    }
}
