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
pub trait FileStore: Send + Sync {
    /// Bytes `[offset, offset+len)` of `name`. Short reads only at EOF.
    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, StoreError>;
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
}

impl FileStore for MemStore {
    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, StoreError> {
        let objects = self.objects.read();
        let data = objects
            .get(name)
            .ok_or_else(|| StoreError::NotFound(name.into()))?;
        let off = offset as usize;
        if off > data.len() {
            return Err(StoreError::OutOfRange);
        }
        // `len` can come straight off the wire (`RANGE <name> 1 <usize::MAX>`).
        let end = off.saturating_add(len).min(data.len());
        Ok(Bytes::copy_from_slice(&data[off..end]))
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
        let path = self.path_for(name);
        let mut file = std::fs::File::open(&path).map_err(|_| StoreError::NotFound(name.into()))?;
        let size = file.metadata()?.len();
        if offset > size {
            return Err(StoreError::OutOfRange);
        }
        file.seek(SeekFrom::Start(offset))?;
        let take = len.min((size - offset) as usize);
        let mut buf = vec![0u8; take];
        file.read_exact(&mut buf)?;
        Ok(Bytes::from(buf))
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

        store.remove("f").unwrap();
        assert!(!store.exists("f"));
        store.remove("f").unwrap(); // idempotent
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
