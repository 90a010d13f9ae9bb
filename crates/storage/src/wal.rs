//! Write-ahead log.
//!
//! DewDB's durability story: every mutation is appended to a log file before
//! it is applied to the in-memory index, and a snapshot + log-truncate
//! checkpoint bounds replay time. Records are `[len u32][crc32 u32][payload]`
//! so a torn tail (crash mid-append) is detected and cleanly discarded on
//! recovery — the recovered prefix is always a valid history.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use bytes::{Bytes, BytesMut};

use crate::codec::{CodecError, Decode, Encode};
use crate::crc32::crc32;

/// A logged mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// Insert or overwrite `key` in `table`.
    Put {
        /// Table name.
        table: String,
        /// Row key.
        key: Vec<u8>,
        /// Row value.
        value: Vec<u8>,
    },
    /// Remove `key` from `table`.
    Delete {
        /// Table name.
        table: String,
        /// Row key.
        key: Vec<u8>,
    },
}

impl Encode for LogRecord {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            LogRecord::Put { table, key, value } => {
                1u8.encode(buf);
                table.encode(buf);
                key.encode(buf);
                value.encode(buf);
            }
            LogRecord::Delete { table, key } => {
                2u8.encode(buf);
                table.encode(buf);
                key.encode(buf);
            }
        }
    }
}

impl Decode for LogRecord {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        match u8::decode(buf)? {
            1 => Ok(LogRecord::Put {
                table: String::decode(buf)?,
                key: Vec::<u8>::decode(buf)?,
                value: Vec::<u8>::decode(buf)?,
            }),
            2 => Ok(LogRecord::Delete {
                table: String::decode(buf)?,
                key: Vec::<u8>::decode(buf)?,
            }),
            _ => Err(CodecError::Corrupt("log record tag")),
        }
    }
}

/// When to force bytes to the OS/disk. Each guarantee holds before the call
/// that appended returns: [`WalWriter::append`] for one record, and for a
/// batch of DewDB operations (`DbConnection::exec_batch`) the whole batch,
/// which is one flush (or one `fsync`) however many records it wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Buffered writes only; fastest, loses the tail on process crash.
    Never,
    /// The appended records reach the OS before the appending call returns
    /// (default): they survive a process crash.
    EveryAppend,
    /// The appended records are flushed and `fsync`ed before the appending
    /// call returns: they survive power loss.
    Fsync,
}

/// Largest record payload the log writes or replays. Replay reads a longer
/// length as a torn header, so the writer refuses such a record before
/// writing a byte of it — a record replay would drop, and every record
/// after it, is never acknowledged.
pub const MAX_RECORD_BYTES: usize = 64 * 1024 * 1024;

/// Append one framed record — `[len u32][crc32 u32][payload]` — to `out`
/// from borrowed parts; `value: None` frames a delete. The payload is the
/// bytes `LogRecord::encode` writes for the same record. A payload over
/// [`MAX_RECORD_BYTES`] is `InvalidInput` and leaves `out` unchanged.
fn frame(out: &mut Vec<u8>, table: &str, key: &[u8], value: Option<&[u8]>) -> std::io::Result<()> {
    let (tag, fixed) = match value {
        Some(_) => (1u8, 1 + 4 + 4 + 4),
        None => (2u8, 1 + 4 + 4),
    };
    let payload_len = [table.len(), key.len(), value.map_or(0, <[u8]>::len)]
        .into_iter()
        .try_fold(fixed, usize::checked_add)
        .filter(|&n| n <= MAX_RECORD_BYTES)
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("log record over {MAX_RECORD_BYTES} bytes"),
            )
        })?;
    // Every length below is at most `payload_len`, which fits in a u32.
    let len32 = |n: usize| u32::try_from(n).expect("bounded by MAX_RECORD_BYTES");
    let start = out.len();
    out.reserve(8 + payload_len);
    out.extend_from_slice(&[0; 8]);
    out.push(tag);
    for part in [Some(table.as_bytes()), Some(key), value]
        .into_iter()
        .flatten()
    {
        out.extend_from_slice(&len32(part.len()).to_le_bytes());
        out.extend_from_slice(part);
    }
    let crc = crc32(&out[start + 8..]);
    out[start..start + 4].copy_from_slice(&len32(payload_len).to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Appender half of the WAL.
///
/// Records are framed once into a reused buffer and copied into
/// the file buffer. [`WalWriter::append`] applies the [`SyncPolicy`] per
/// record; DewDB stages a batch's records and commits them together, so
/// the policy costs one flush (or one `fsync`) per batch.
pub struct WalWriter {
    path: PathBuf,
    writer: BufWriter<File>,
    policy: SyncPolicy,
    appended: u64,
    /// Framing buffer, reused across records.
    framed: Vec<u8>,
    /// Records were staged since the last commit.
    staged: bool,
}

impl WalWriter {
    /// Open (creating or appending to) the log at `path`.
    pub fn open(path: impl AsRef<Path>, policy: SyncPolicy) -> std::io::Result<WalWriter> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(WalWriter {
            path,
            writer: BufWriter::new(file),
            policy,
            appended: 0,
            framed: Vec::new(),
            staged: false,
        })
    }

    /// Append one record and apply the [`SyncPolicy`] to it. A record over
    /// [`MAX_RECORD_BYTES`] is refused with `InvalidInput`, and nothing of
    /// it is written.
    pub fn append(&mut self, rec: &LogRecord) -> std::io::Result<()> {
        match rec {
            LogRecord::Put { table, key, value } => self.stage(table, key, Some(value))?,
            LogRecord::Delete { table, key } => self.stage(table, key, None)?,
        }
        self.commit()
    }

    /// Frame one record into the file buffer without applying the policy;
    /// [`WalWriter::commit`] does that once for everything staged.
    pub(crate) fn stage(
        &mut self,
        table: &str,
        key: &[u8],
        value: Option<&[u8]>,
    ) -> std::io::Result<()> {
        self.framed.clear();
        frame(&mut self.framed, table, key, value)?;
        self.writer.write_all(&self.framed)?;
        if self.framed.capacity() > 1 << 20 {
            // Do not pin a large record's buffer for the writer's lifetime.
            self.framed = Vec::new();
        }
        self.appended += 1;
        self.staged = true;
        Ok(())
    }

    /// Apply the [`SyncPolicy`] once to every record staged since the last
    /// commit. Free when nothing was staged.
    pub(crate) fn commit(&mut self) -> std::io::Result<()> {
        if !self.staged {
            return Ok(());
        }
        match self.policy {
            SyncPolicy::Never => {}
            SyncPolicy::EveryAppend => self.writer.flush()?,
            SyncPolicy::Fsync => {
                self.writer.flush()?;
                self.writer.get_ref().sync_data()?;
            }
        }
        self.staged = false;
        Ok(())
    }

    /// Flush buffered bytes to the OS.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }

    /// Records appended through this writer.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Truncate the log to empty (after a checkpoint made it redundant).
    pub fn truncate(&mut self) -> std::io::Result<()> {
        self.writer.flush()?;
        let file = OpenOptions::new()
            .write(true)
            .truncate(true)
            .open(&self.path)?;
        self.writer = BufWriter::new(OpenOptions::new().append(true).open(&self.path)?);
        drop(file);
        self.staged = false;
        Ok(())
    }
}

/// Outcome of reading a log back.
#[derive(Debug, Clone, PartialEq)]
pub struct WalReplay {
    /// Every intact record, in append order.
    pub records: Vec<LogRecord>,
    /// True when a torn/corrupt tail was discarded.
    pub truncated_tail: bool,
}

/// Read every intact record from the log at `path`. A missing file replays
/// as empty. A corrupt or incomplete tail stops the replay (and is reported),
/// matching crash-recovery semantics.
pub fn replay(path: impl AsRef<Path>) -> std::io::Result<WalReplay> {
    let file = match File::open(path.as_ref()) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalReplay {
                records: Vec::new(),
                truncated_tail: false,
            });
        }
        Err(e) => return Err(e),
    };
    let mut reader = BufReader::new(file);
    let mut records = Vec::new();
    let mut truncated = false;
    loop {
        let mut head = [0u8; 8];
        match read_exact_or_eof(&mut reader, &mut head)? {
            ReadState::Eof => break,
            ReadState::Partial => {
                truncated = true;
                break;
            }
            ReadState::Full => {}
        }
        let len = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
        // A length the writer never writes is a corrupt header.
        if len > MAX_RECORD_BYTES {
            truncated = true;
            break;
        }
        let mut payload = vec![0u8; len];
        match read_exact_or_eof(&mut reader, &mut payload)? {
            ReadState::Full => {}
            _ => {
                truncated = true;
                break;
            }
        }
        if crc32(&payload) != crc {
            truncated = true;
            break;
        }
        match LogRecord::from_bytes(&payload) {
            Ok(rec) => records.push(rec),
            Err(_) => {
                truncated = true;
                break;
            }
        }
    }
    Ok(WalReplay {
        records,
        truncated_tail: truncated,
    })
}

enum ReadState {
    Full,
    Partial,
    Eof,
}

fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<ReadState> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = r.read(&mut buf[filled..])?;
        if n == 0 {
            return Ok(if filled == 0 {
                ReadState::Eof
            } else {
                ReadState::Partial
            });
        }
        filled += n;
    }
    Ok(ReadState::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    fn put(t: &str, k: &[u8], v: &[u8]) -> LogRecord {
        LogRecord::Put {
            table: t.into(),
            key: k.to_vec(),
            value: v.to_vec(),
        }
    }

    #[test]
    fn append_and_replay() {
        let dir = TempDir::new("wal-basic");
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&path, SyncPolicy::EveryAppend).unwrap();
        w.append(&put("t", b"k1", b"v1")).unwrap();
        w.append(&LogRecord::Delete {
            table: "t".into(),
            key: b"k1".to_vec(),
        })
        .unwrap();
        w.append(&put("u", b"k2", b"v2")).unwrap();
        assert_eq!(w.appended(), 3);
        drop(w);

        let replayed = replay(&path).unwrap();
        assert!(!replayed.truncated_tail);
        assert_eq!(replayed.records.len(), 3);
        assert_eq!(replayed.records[0], put("t", b"k1", b"v1"));
        assert!(matches!(replayed.records[1], LogRecord::Delete { .. }));
    }

    #[test]
    fn missing_file_replays_empty() {
        let dir = TempDir::new("wal-missing");
        let r = replay(dir.path().join("nope.log")).unwrap();
        assert!(r.records.is_empty());
        assert!(!r.truncated_tail);
    }

    #[test]
    fn torn_tail_is_discarded() {
        let dir = TempDir::new("wal-torn");
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&path, SyncPolicy::EveryAppend).unwrap();
        for i in 0..10u32 {
            w.append(&put("t", &i.to_le_bytes(), b"val")).unwrap();
        }
        drop(w);
        // Chop bytes off the end: simulates a crash mid-append.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let r = replay(&path).unwrap();
        assert!(r.truncated_tail);
        assert_eq!(r.records.len(), 9, "all but the torn record recovered");
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let dir = TempDir::new("wal-crc");
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&path, SyncPolicy::EveryAppend).unwrap();
        w.append(&put("t", b"a", b"1")).unwrap();
        w.append(&put("t", b"b", b"2")).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2 + 4;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let r = replay(&path).unwrap();
        assert!(r.truncated_tail);
        assert!(r.records.len() < 2);
    }

    #[test]
    fn truncate_resets_log() {
        let dir = TempDir::new("wal-trunc");
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&path, SyncPolicy::EveryAppend).unwrap();
        w.append(&put("t", b"a", b"1")).unwrap();
        w.truncate().unwrap();
        w.append(&put("t", b"b", b"2")).unwrap();
        drop(w);
        let r = replay(&path).unwrap();
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0], put("t", b"b", b"2"));
    }

    #[test]
    fn reopen_appends_after_existing() {
        let dir = TempDir::new("wal-reopen");
        let path = dir.path().join("wal.log");
        {
            let mut w = WalWriter::open(&path, SyncPolicy::EveryAppend).unwrap();
            w.append(&put("t", b"a", b"1")).unwrap();
        }
        {
            let mut w = WalWriter::open(&path, SyncPolicy::EveryAppend).unwrap();
            w.append(&put("t", b"b", b"2")).unwrap();
        }
        let r = replay(&path).unwrap();
        assert_eq!(r.records.len(), 2);
    }

    #[test]
    fn fsync_policy_writes_durably() {
        let dir = TempDir::new("wal-fsync");
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&path, SyncPolicy::Fsync).unwrap();
        w.append(&put("t", b"a", b"1")).unwrap();
        // Without dropping the writer, bytes must already be on disk.
        let r = replay(&path).unwrap();
        assert_eq!(r.records.len(), 1);
    }

    #[test]
    fn staged_records_reach_the_file_at_commit() {
        let dir = TempDir::new("wal-stage");
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&path, SyncPolicy::EveryAppend).unwrap();
        for i in 0..20u32 {
            w.stage("t", &i.to_le_bytes(), Some(b"v")).unwrap();
        }
        w.stage("t", &3u32.to_le_bytes(), None).unwrap();
        // Staged, not committed: the records sit in the file buffer.
        assert!(replay(&path).unwrap().records.is_empty());
        w.commit().unwrap();
        let r = replay(&path).unwrap();
        assert_eq!(r.records.len(), 21);
        assert_eq!(r.records[4], put("t", &4u32.to_le_bytes(), b"v"));
        assert_eq!(
            r.records[20],
            LogRecord::Delete {
                table: "t".into(),
                key: 3u32.to_le_bytes().to_vec(),
            }
        );
        assert_eq!(w.appended(), 21);
    }

    #[test]
    fn oversize_record_is_refused_before_a_byte() {
        let dir = TempDir::new("wal-oversize");
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&path, SyncPolicy::EveryAppend).unwrap();
        w.append(&put("t", b"a", b"1")).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        // Payload: tag, three length prefixes, "t", "k", then the value.
        let value = vec![0u8; MAX_RECORD_BYTES - (1 + 12 + 2) + 1];
        let err = w.append(&put("t", b"k", &value)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        assert_eq!(w.appended(), 1);
        w.append(&put("t", b"b", b"2")).unwrap();
        assert_eq!(
            replay(&path).unwrap().records,
            [put("t", b"a", b"1"), put("t", b"b", b"2")]
        );
    }

    #[test]
    fn never_policy_buffers_until_flush() {
        let dir = TempDir::new("wal-never");
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&path, SyncPolicy::Never).unwrap();
        // Small record sits in the BufWriter.
        w.append(&put("t", b"a", b"1")).unwrap();
        w.flush().unwrap();
        let r = replay(&path).unwrap();
        assert_eq!(r.records.len(), 1);
    }
}
