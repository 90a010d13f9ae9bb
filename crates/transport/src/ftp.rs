//! FTP-like client/server file transfer over the fabric.
//!
//! The original prototype used the apache commons-net FTP client against a
//! ProFTPD server (§3.5). This module rebuilds the same shape: a server
//! daemon serving a [`FileStore`] and a client implementing the
//! [`OobTransfer`] seven-method contract with download (`RETR`), upload
//! (`STOR`) and size (`SIZE`) verbs, chunked streaming, **offset resume**
//! and receiver-side MD5 verification.
//!
//! **Whole-object downloads move in batches.** [`FtpTransfer::download_batch`]
//! turns N specs naming one server into N transfers that share one worker
//! thread (`ftp-get`) and one command session: the worker pipelines one
//! `RETR <name> <resume offset>` per member — the server answers a
//! session's commands in order — keeping at most `PIPELINE_BYTES` (1 MiB) of
//! requested payload outstanding, and streams each reply through
//! `recv_hashed`. A member is a transfer of its own: its own `bytes_done`,
//! its own verdict, its own MD5 check. An `ERR` reply (missing object,
//! malformed request) fails only that member; a dropped session
//! interrupts the member being received and every later one. A member
//! whose MD5 does not match removes its local object, so the next attempt
//! starts at 0 instead of resuming behind a corrupt prefix.
//! [`FtpTransfer::new`] for a download is a batch of one: there is one
//! whole-object download loop. Retrying a failed member is the caller's
//! business — the Data Transfer service rebuilds it as a single resumable
//! transfer. `disconnect` never blocks; the worker is joined when the last
//! transfer of its batch is dropped.
//!
//! The server supports deterministic fault injection (drop the connection
//! after N payload bytes) so the Data Transfer service's retry/resume logic
//! is testable — "interrupted transfers should be automatically resumed"
//! (§2.3) is exercised end to end. Numeric command arguments that do not
//! parse (garbage, negative, beyond `u64`) are answered `ERR malformed`
//! and the session carries on.

use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;

use bitdew_util::md5::Md5Digest;

use crate::fabric::{Duplex, Fabric, FabricError};
use crate::oob::{
    DaemonConnector, NonBlockingOobTransfer, OobTransfer, TransferSpec, TransferStatus,
    TransferVerdict, TransportError, TransportResult,
};
use crate::store::FileStore;
pub use crate::stream::CHUNK;
use crate::stream::{recv_hashed, send_hashed};

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Handle to a running FTP-like server daemon.
pub struct FtpServer {
    shutdown: Arc<AtomicBool>,
    fabric: Fabric,
    listener_name: String,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    /// Fault injection: drop each connection after this many payload bytes
    /// (consumed once per connection).
    drop_after: Arc<AtomicU64>,
    /// Connections accepted since start.
    sessions: Arc<AtomicU64>,
}

impl FtpServer {
    /// Start serving `store` on fabric listener `name`.
    pub fn start(fabric: &Fabric, name: &str, store: Arc<dyn FileStore>) -> FtpServer {
        let listener = fabric.listen(name);
        let shutdown = Arc::new(AtomicBool::new(false));
        let drop_after = Arc::new(AtomicU64::new(u64::MAX));
        let sessions = Arc::new(AtomicU64::new(0));
        let shutdown2 = Arc::clone(&shutdown);
        let drop2 = Arc::clone(&drop_after);
        let sessions2 = Arc::clone(&sessions);
        let session_name = format!("ftpd-{name}-session");
        let accept_thread = std::thread::Builder::new()
            .name(format!("ftpd-{name}"))
            .spawn(move || {
                while !shutdown2.load(Ordering::Relaxed) {
                    match listener.accept_timeout(std::time::Duration::from_millis(50)) {
                        Ok(conn) => {
                            sessions2.fetch_add(1, Ordering::Relaxed);
                            let store = Arc::clone(&store);
                            let limit = drop2.swap(u64::MAX, Ordering::Relaxed);
                            // A refused spawn drops the connection: the
                            // client sees an interrupted transfer.
                            let _ = std::thread::Builder::new()
                                .name(session_name.clone())
                                .spawn(move || {
                                    let _ = Self::serve_conn(conn, store, limit);
                                });
                        }
                        Err(FabricError::Timeout) => continue,
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn ftp server");
        FtpServer {
            shutdown,
            fabric: fabric.clone(),
            listener_name: name.to_string(),
            accept_thread: Some(accept_thread),
            drop_after,
            sessions,
        }
    }

    /// Make the *next* accepted connection drop after `bytes` payload bytes.
    pub fn inject_drop_after(&self, bytes: u64) {
        self.drop_after.store(bytes, Ordering::Relaxed);
    }

    /// Command sessions (accepted connections) since the server started.
    pub fn sessions_accepted(&self) -> u64 {
        self.sessions.load(Ordering::Relaxed)
    }

    /// Stop accepting and shut down.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.fabric.unlisten(&self.listener_name);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }

    fn serve_conn(conn: Duplex, store: Arc<dyn FileStore>, drop_after: u64) -> TransportResult<()> {
        let mut sent_payload = 0u64;
        loop {
            let cmd = match conn.recv() {
                Ok(c) => c,
                Err(_) => return Ok(()), // client gone
            };
            let line = String::from_utf8_lossy(&cmd).to_string();
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("RETR") => {
                    let (Some(name), Some(offset)) = (parts.next(), arg::<u64>(parts.next()))
                    else {
                        conn.send(Bytes::from_static(b"ERR malformed"))?;
                        continue;
                    };
                    let size = match store.size(name) {
                        Ok(s) => s,
                        Err(_) => {
                            conn.send(Bytes::from(format!("ERR no such file {name}")))?;
                            continue;
                        }
                    };
                    conn.send(Bytes::from(format!("SIZE {size}")))?;
                    let digest = send_hashed(store.as_ref(), name, offset, size, |frame, _| {
                        sent_payload += frame.len() as u64;
                        conn.send(frame)?;
                        if sent_payload >= drop_after {
                            // Injected fault: vanish mid-stream.
                            return Err(FabricError::Disconnected.into());
                        }
                        Ok(())
                    })?;
                    conn.send(Bytes::from(format!("END {}", digest.to_hex())))?;
                }
                Some("STOR") => {
                    let (Some(name), Some(offset), Some(total)) = (
                        parts.next(),
                        arg::<u64>(parts.next()),
                        arg::<u64>(parts.next()),
                    ) else {
                        conn.send(Bytes::from_static(b"ERR malformed"))?;
                        continue;
                    };
                    conn.send(Bytes::from_static(b"OK"))?;
                    let end = offset.saturating_add(total);
                    let (_, digest) =
                        recv_hashed(store.as_ref(), name, offset, end, &conn, |_| {})?;
                    conn.send(Bytes::from(format!("DONE {}", digest.to_hex())))?;
                }
                Some("RANGE") => {
                    // Bounded range read: `RANGE <name> <offset> <len>` →
                    // `DATA <n>` followed by one payload frame (omitted when
                    // n = 0). Requests may be pipelined on one connection —
                    // replies come back in request order — which is what the
                    // chunked multi-source fetcher exploits.
                    let (Some(name), Some(offset), Some(len)) = (
                        parts.next(),
                        arg::<u64>(parts.next()),
                        arg::<usize>(parts.next()),
                    ) else {
                        conn.send(Bytes::from_static(b"ERR malformed"))?;
                        continue;
                    };
                    let chunk = match store.read_at(name, offset, len) {
                        Ok(c) => c,
                        Err(_) => {
                            conn.send(Bytes::from(format!("ERR no such range {name}")))?;
                            continue;
                        }
                    };
                    conn.send(Bytes::from(format!("DATA {}", chunk.len())))?;
                    if !chunk.is_empty() {
                        sent_payload += chunk.len() as u64;
                        conn.send(chunk)?;
                        if sent_payload >= drop_after {
                            return Ok(()); // injected fault: vanish mid-stream
                        }
                    }
                }
                Some("SIZE") => {
                    let Some(name) = parts.next() else {
                        conn.send(Bytes::from_static(b"ERR malformed"))?;
                        continue;
                    };
                    match store.size(name) {
                        Ok(s) => conn.send(Bytes::from(format!("SIZE {s}")))?,
                        Err(_) => conn.send(Bytes::from(format!("ERR no such file {name}")))?,
                    }
                }
                _ => conn.send(Bytes::from_static(b"ERR unknown command"))?,
            }
        }
    }
}

impl Drop for FtpServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// A numeric command argument; `None` when absent or not a `T`.
fn arg<T: FromStr>(word: Option<&str>) -> Option<T> {
    word?.parse().ok()
}

// ---------------------------------------------------------------------------
// Client transfer
// ---------------------------------------------------------------------------

/// Direction of an FTP transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Pull `spec.name` from the server into the local store.
    Download,
    /// Push `spec.name` from the local store to the server.
    Upload,
}

/// Requested payload bytes a download batch keeps outstanding on its
/// session (the member being received is always requested, whatever its
/// size): deep enough that small objects stream back to back, shallow
/// enough that a batch of large ones does not queue them all in memory.
const PIPELINE_BYTES: u64 = 1 << 20;

/// Progress of one transfer, written by its worker and read by `probe`.
#[derive(Default)]
struct Slot {
    bytes_done: AtomicU64,
    verdict: parking_lot::Mutex<Option<TransferVerdict>>,
}

impl Slot {
    fn finish(&self, verdict: TransferVerdict) {
        *self.verdict.lock() = Some(verdict);
    }
}

/// What one worker thread moves: a download batch (every spec names the
/// same server) or one upload, with one slot per spec.
struct Job {
    fabric: Fabric,
    local: Arc<dyn FileStore>,
    direction: Direction,
    specs: Vec<TransferSpec>,
    slots: Vec<Slot>,
}

impl Job {
    fn run(&self) {
        match self.direction {
            Direction::Download => download(self),
            Direction::Upload => {
                let verdict = upload(
                    &self.fabric,
                    &self.specs[0],
                    self.local.as_ref(),
                    &self.slots[0],
                );
                self.slots[0].finish(verdict.unwrap_or(TransferVerdict::Interrupted));
            }
        }
    }

    /// Interrupt member `first` and every later one.
    fn interrupt_from(&self, first: usize) {
        for slot in &self.slots[first..] {
            slot.finish(TransferVerdict::Interrupted);
        }
    }
}

/// A job's worker thread: spawned by the first `send`/`receive` on any of
/// its transfers, joined when the last of them is dropped.
struct Worker {
    job: Arc<Job>,
    thread: OnceLock<Option<std::thread::JoinHandle<()>>>,
}

impl Worker {
    fn new(
        fabric: Fabric,
        specs: Vec<TransferSpec>,
        local: Arc<dyn FileStore>,
        direction: Direction,
    ) -> Arc<Worker> {
        let slots = specs.iter().map(|_| Slot::default()).collect();
        Arc::new(Worker {
            job: Arc::new(Job {
                fabric,
                local,
                direction,
                specs,
                slots,
            }),
            thread: OnceLock::new(),
        })
    }

    fn start(&self) -> TransportResult<()> {
        let thread = self.thread.get_or_init(|| {
            let job = Arc::clone(&self.job);
            let name = match job.direction {
                Direction::Download => "ftp-get",
                Direction::Upload => "ftp-put",
            };
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || job.run())
                .ok()
        });
        if thread.is_some() {
            return Ok(());
        }
        self.job.interrupt_from(0);
        Err(TransportError::Interrupted(
            "the OS refused the ftp worker thread".into(),
        ))
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        if let Some(Some(thread)) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// An FTP-like transfer implementing the OOB contract: one member of a
/// job that one worker thread runs (see the module docs). `receive`/`send`
/// start the worker, once per job; callers poll [`OobTransfer::probe`]
/// (non-blocking style).
pub struct FtpTransfer {
    worker: Arc<Worker>,
    member: usize,
}

impl FtpTransfer {
    /// Prepare a transfer (no I/O yet). A download is a batch of one.
    pub fn new(
        fabric: Fabric,
        spec: TransferSpec,
        local: Arc<dyn FileStore>,
        direction: Direction,
    ) -> FtpTransfer {
        FtpTransfer {
            worker: Worker::new(fabric, vec![spec], local, direction),
            member: 0,
        }
    }

    /// Prepare a download batch (no I/O yet): one transfer per spec, in
    /// order, all moved into `local` by one worker thread over one
    /// pipelined session to the server every spec names.
    pub fn download_batch(
        fabric: Fabric,
        specs: Vec<TransferSpec>,
        local: Arc<dyn FileStore>,
    ) -> Vec<FtpTransfer> {
        debug_assert!(
            specs.windows(2).all(|w| w[0].remote == w[1].remote),
            "a batch talks to one server"
        );
        let members = specs.len();
        let worker = Worker::new(fabric, specs, local, Direction::Download);
        (0..members)
            .map(|member| FtpTransfer {
                worker: Arc::clone(&worker),
                member,
            })
            .collect()
    }

    fn spec(&self) -> &TransferSpec {
        &self.worker.job.specs[self.member]
    }
}

/// The whole-object download loop: every `FtpTransfer` download runs here,
/// a single one as a batch of one. A member's `RETR` goes out with its
/// resume offset — the length of its local object, whose bytes are hashed
/// from the store and the rest as they arrive — while the payload
/// requested ahead of the member being received fits `PIPELINE_BYTES`.
fn download(job: &Job) {
    let Ok(conn) = job.fabric.connect(&job.specs[0].remote) else {
        return job.interrupt_from(0);
    };
    let mut offsets: Vec<u64> = Vec::with_capacity(job.specs.len());
    let mut outstanding = 0u64;
    for (i, (spec, slot)) in job.specs.iter().zip(&job.slots).enumerate() {
        while let Some(next) = job.specs.get(offsets.len()) {
            if offsets.len() > i && outstanding.saturating_add(next.bytes) > PIPELINE_BYTES {
                break;
            }
            let offset = job.local.size(&next.name).unwrap_or(0).min(next.bytes);
            let request = Bytes::from(format!("RETR {} {offset}", next.name));
            if conn.send(request).is_err() {
                // The server hung up, perhaps after answering what was
                // already requested: receive that, then stop.
                break;
            }
            job.slots[offsets.len()]
                .bytes_done
                .store(offset, Ordering::Relaxed);
            outstanding = outstanding.saturating_add(next.bytes - offset);
            offsets.push(offset);
        }
        let Some(&offset) = offsets.get(i) else {
            return job.interrupt_from(i);
        };
        match retr(&conn, spec, offset, job.local.as_ref(), slot) {
            Ok(verdict) => slot.finish(verdict),
            // `ERR`: the session is intact, only this member failed.
            Err(TransportError::NoSuchObject(_)) => slot.finish(TransferVerdict::Interrupted),
            Err(_) => return job.interrupt_from(i),
        }
        outstanding = outstanding.saturating_sub(spec.bytes - offset);
    }
}

/// One member's reply: `SIZE <n>`, the payload frames, `END <md5hex>`.
fn retr(
    conn: &Duplex,
    spec: &TransferSpec,
    offset: u64,
    local: &dyn FileStore,
    slot: &Slot,
) -> TransportResult<TransferVerdict> {
    let head = conn.recv()?;
    let head = String::from_utf8_lossy(&head);
    let total = match head.strip_prefix("SIZE ") {
        Some(s) => s
            .trim()
            .parse::<u64>()
            .map_err(|_| TransportError::Protocol(format!("bad SIZE reply: {head}")))?,
        None => return Err(TransportError::NoSuchObject(spec.name.clone())),
    };
    let (pos, local_digest) = recv_hashed(local, &spec.name, offset, total, conn, |pos| {
        slot.bytes_done.store(pos, Ordering::Relaxed)
    })?;
    // The frame after the last payload byte is the "END <md5hex>" trailer.
    let trailer = conn.recv()?;
    let Some(hex) = trailer.strip_prefix(b"END ") else {
        return Err(TransportError::Protocol("expected END".into()));
    };
    let server_digest = Md5Digest::from_hex(String::from_utf8_lossy(hex).trim());
    // Receiver-driven verification (§3.4.2): size + MD5.
    if pos != total {
        return Ok(TransferVerdict::Interrupted);
    }
    match spec.checksum.or(server_digest) {
        Some(d) if d != local_digest => {
            // Resuming behind a corrupt prefix would fetch nothing and fail
            // the same way again: the next attempt starts at 0.
            let _ = local.remove(&spec.name);
            Ok(TransferVerdict::CorruptPayload)
        }
        _ => Ok(TransferVerdict::Complete),
    }
}

fn upload(
    fabric: &Fabric,
    spec: &TransferSpec,
    local: &dyn FileStore,
    slot: &Slot,
) -> TransportResult<TransferVerdict> {
    let conn = fabric
        .connect(&spec.remote)
        .map_err(|e| TransportError::ConnectFailed(e.to_string()))?;
    let size = local.size(&spec.name)?;
    conn.send(Bytes::from(format!("STOR {} 0 {}", spec.name, size)))?;
    if &conn.recv()?[..] != b"OK" {
        return Err(TransportError::Protocol("expected OK".into()));
    }
    let local_digest = send_hashed(local, &spec.name, 0, size, |frame, pos| {
        conn.send(frame)?;
        slot.bytes_done.store(pos, Ordering::Relaxed);
        Ok(())
    })?;
    let done = conn.recv()?;
    let remote_digest = String::from_utf8_lossy(&done)
        .strip_prefix("DONE ")
        .and_then(|h| Md5Digest::from_hex(h.trim()));
    match remote_digest {
        Some(d) if d == local_digest => Ok(TransferVerdict::Complete),
        Some(_) => Ok(TransferVerdict::CorruptPayload),
        None => Err(TransportError::Protocol("expected DONE".into())),
    }
}

/// A pipelined range client over one FTP command session.
///
/// `request` queues a `RANGE` command without waiting; `read_reply` consumes
/// the next reply in request order. Keeping several requests in flight hides
/// the per-command round trip — the per-source pipelining of the chunked
/// multi-source data plane.
pub struct FtpRangeClient {
    conn: Duplex,
}

impl FtpRangeClient {
    /// Open a command session to the server at fabric listener `remote`.
    pub fn connect(fabric: &Fabric, remote: &str) -> TransportResult<FtpRangeClient> {
        let conn = fabric
            .connect(remote)
            .map_err(|e| TransportError::ConnectFailed(e.to_string()))?;
        Ok(FtpRangeClient { conn })
    }

    /// Queue a range request (non-blocking; replies arrive in order).
    pub fn request(&self, object: &str, offset: u64, len: u32) -> TransportResult<()> {
        Ok(self
            .conn
            .send(Bytes::from(format!("RANGE {object} {offset} {len}")))?)
    }

    /// Read the next pipelined reply: the requested bytes (short only at
    /// EOF, empty when the range starts at or past it).
    pub fn read_reply(&self) -> TransportResult<Bytes> {
        let head = self.conn.recv()?;
        let line = String::from_utf8_lossy(&head).to_string();
        if let Some(n) = line.strip_prefix("DATA ") {
            let n: usize = n
                .trim()
                .parse()
                .map_err(|_| TransportError::Protocol(format!("bad DATA reply: {line}")))?;
            if n == 0 {
                return Ok(Bytes::new());
            }
            let payload = self.conn.recv()?;
            if payload.len() != n {
                return Err(TransportError::Protocol(format!(
                    "range payload length {} != declared {n}",
                    payload.len()
                )));
            }
            Ok(payload)
        } else if let Some(what) = line.strip_prefix("ERR ") {
            Err(TransportError::NoSuchObject(what.to_string()))
        } else {
            Err(TransportError::Protocol(format!(
                "unexpected range reply: {line}"
            )))
        }
    }
}

impl OobTransfer for FtpTransfer {
    fn connect(&mut self) -> TransportResult<()> {
        // Validate the endpoint exists now so errors surface early. Checks
        // the listener table rather than opening a throwaway connection, so
        // server-side accounting (and fault injection in tests) only sees
        // the real transfer connection.
        let remote = &self.spec().remote;
        if !self
            .worker
            .job
            .fabric
            .listener_names()
            .iter()
            .any(|n| n == remote)
        {
            return Err(TransportError::ConnectFailed(format!(
                "no listener {remote}"
            )));
        }
        Ok(())
    }

    /// Never blocks: the rest of a batch may still be moving. The worker
    /// is joined when the last transfer of its job is dropped.
    fn disconnect(&mut self) -> TransportResult<()> {
        Ok(())
    }

    fn probe(&mut self) -> TransportResult<TransferStatus> {
        let slot = &self.worker.job.slots[self.member];
        Ok(TransferStatus {
            bytes_done: slot.bytes_done.load(Ordering::Relaxed),
            bytes_total: self.spec().bytes,
            outcome: *slot.verdict.lock(),
        })
    }

    fn send(&mut self) -> TransportResult<()> {
        debug_assert_eq!(self.worker.job.direction, Direction::Upload);
        self.worker.start()
    }

    fn receive(&mut self) -> TransportResult<()> {
        debug_assert_eq!(self.worker.job.direction, Direction::Download);
        self.worker.start()
    }
}

impl NonBlockingOobTransfer for FtpTransfer {}

impl DaemonConnector for FtpServer {
    fn daemon_start(&mut self) -> TransportResult<()> {
        Ok(()) // started in FtpServer::start
    }
    fn daemon_stop(&mut self) -> TransportResult<()> {
        self.stop_inner();
        Ok(())
    }
    fn daemon_running(&self) -> bool {
        !self.shutdown.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use std::time::Duration;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    fn setup(server_content: &[(&str, &[u8])]) -> (Fabric, FtpServer, Arc<MemStore>) {
        let fabric = Fabric::new();
        let server_store = MemStore::new();
        for (name, content) in server_content {
            server_store.put(name, content);
        }
        let server = FtpServer::start(&fabric, "ftp", server_store);
        let local = MemStore::new();
        (fabric, server, local)
    }

    fn spec(name: &str, bytes: u64) -> TransferSpec {
        TransferSpec {
            name: name.into(),
            bytes,
            checksum: None,
            remote: "ftp".into(),
        }
    }

    #[test]
    fn download_roundtrip_with_integrity() {
        let data = payload(300_000); // several chunks
        let (fabric, _server, local) = setup(&[("big", &data)]);
        let mut spec = spec("big", data.len() as u64);
        spec.checksum = Some(bitdew_util::md5::md5(&data));
        let mut t = FtpTransfer::new(fabric, spec, local.clone(), Direction::Download);
        t.connect().unwrap();
        t.receive().unwrap();
        let status = t.wait(Duration::from_millis(2)).unwrap();
        assert_eq!(status.outcome, Some(TransferVerdict::Complete));
        assert_eq!(status.bytes_done, data.len() as u64);
        assert_eq!(&local.read_at("big", 0, data.len()).unwrap()[..], &data[..]);
        t.disconnect().unwrap();
    }

    #[test]
    fn upload_roundtrip() {
        let data = payload(150_000);
        let (fabric, server, local) = setup(&[]);
        local.put("up", &data);
        let mut t = FtpTransfer::new(
            fabric.clone(),
            spec("up", data.len() as u64),
            local,
            Direction::Upload,
        );
        t.connect().unwrap();
        t.send().unwrap();
        let status = t.wait(Duration::from_millis(2)).unwrap();
        assert_eq!(status.outcome, Some(TransferVerdict::Complete));
        drop(server);
        // Verify server side received it by re-downloading.
        // (server_store is moved into server; simplest check: new download
        // server over a fresh fabric is unnecessary — the DONE digest already
        // verified content equality.)
    }

    #[test]
    fn missing_file_fails_cleanly() {
        let (fabric, _server, local) = setup(&[]);
        let mut t = FtpTransfer::new(fabric, spec("ghost", 10), local, Direction::Download);
        t.connect().unwrap();
        t.receive().unwrap();
        let status = t.wait(Duration::from_millis(2)).unwrap();
        assert_eq!(status.outcome, Some(TransferVerdict::Interrupted));
    }

    #[test]
    fn connect_to_missing_server_fails() {
        let fabric = Fabric::new();
        let local = MemStore::new();
        let mut t = FtpTransfer::new(fabric, spec("x", 1), local, Direction::Download);
        assert!(matches!(t.connect(), Err(TransportError::ConnectFailed(_))));
    }

    #[test]
    fn interrupted_download_resumes_from_offset() {
        let data = payload(400_000);
        let (fabric, server, local) = setup(&[("f", &data)]);
        // First attempt: server drops after ~128 KiB.
        server.inject_drop_after(128 * 1024);
        let mut spec1 = spec("f", data.len() as u64);
        spec1.checksum = Some(bitdew_util::md5::md5(&data));
        let mut t = FtpTransfer::new(
            fabric.clone(),
            spec1.clone(),
            local.clone(),
            Direction::Download,
        );
        t.connect().unwrap();
        t.receive().unwrap();
        let status = t.wait(Duration::from_millis(2)).unwrap();
        assert_eq!(status.outcome, Some(TransferVerdict::Interrupted));
        let partial = status.bytes_done;
        assert!(
            partial > 0 && partial < data.len() as u64,
            "partial = {partial}"
        );

        // Second attempt resumes and completes; bytes_done starts at partial.
        let mut t2 = FtpTransfer::new(fabric, spec1, local.clone(), Direction::Download);
        t2.connect().unwrap();
        t2.receive().unwrap();
        let status2 = t2.wait(Duration::from_millis(2)).unwrap();
        assert_eq!(status2.outcome, Some(TransferVerdict::Complete));
        assert_eq!(&local.read_at("f", 0, data.len()).unwrap()[..], &data[..]);
    }

    #[test]
    fn checksum_mismatch_detected() {
        let data = payload(10_000);
        let (fabric, _server, local) = setup(&[("f", &data)]);
        let mut s = spec("f", data.len() as u64);
        s.checksum = Some(bitdew_util::md5::md5(b"something else"));
        let mut t = FtpTransfer::new(fabric, s, local, Direction::Download);
        t.connect().unwrap();
        t.receive().unwrap();
        let status = t.wait(Duration::from_millis(2)).unwrap();
        assert_eq!(status.outcome, Some(TransferVerdict::CorruptPayload));
    }

    #[test]
    fn concurrent_downloads_from_one_server() {
        let data = payload(200_000);
        let (fabric, _server, _) = setup(&[("f", &data)]);
        let mut handles = Vec::new();
        for _ in 0..6 {
            let fabric = fabric.clone();
            let data_len = data.len() as u64;
            let expect = bitdew_util::md5::md5(&data);
            handles.push(std::thread::spawn(move || {
                let local = MemStore::new();
                let mut s = spec("f", data_len);
                s.checksum = Some(expect);
                let mut t = FtpTransfer::new(fabric, s, local, Direction::Download);
                t.connect().unwrap();
                t.receive().unwrap();
                t.wait(Duration::from_millis(2)).unwrap().outcome
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), Some(TransferVerdict::Complete));
        }
    }

    #[test]
    fn pipelined_range_requests_return_in_order() {
        let data = payload(300_000);
        let (fabric, _server, _) = setup(&[("f", &data)]);
        let client = FtpRangeClient::connect(&fabric, "ftp").unwrap();
        // Queue several ranges before reading any reply.
        let ranges: Vec<(u64, u32)> = vec![(0, 1000), (250_000, 50_000), (100_000, 1), (0, 0)];
        for &(off, len) in &ranges {
            client.request("f", off, len).unwrap();
        }
        for &(off, len) in &ranges {
            let got = client.read_reply().unwrap();
            let end = (off as usize + len as usize).min(data.len());
            assert_eq!(&got[..], &data[off as usize..end]);
        }
        // Past-EOF range is empty, not an error (read_at clamps at EOF).
        client.request("f", data.len() as u64, 64).unwrap();
        assert!(client.read_reply().unwrap().is_empty());
        // Missing object surfaces as NoSuchObject.
        client.request("ghost", 0, 8).unwrap();
        assert!(matches!(
            client.read_reply(),
            Err(TransportError::NoSuchObject(_))
        ));
    }

    #[test]
    fn range_with_a_huge_length_is_a_short_read_on_a_live_session() {
        let (fabric, _server, _) = setup(&[("f", b"abc")]);
        // `offset + len` used to overflow in the store and kill the session
        // thread; the client API caps `len` at u32, so speak the wire.
        let conn = fabric.connect("ftp").unwrap();
        conn.send(Bytes::from(format!("RANGE f 1 {}", u64::MAX)))
            .unwrap();
        assert_eq!(&conn.recv().unwrap()[..], b"DATA 2");
        assert_eq!(&conn.recv().unwrap()[..], b"bc");
        conn.send(Bytes::from_static(b"SIZE f")).unwrap();
        assert_eq!(&conn.recv().unwrap()[..], b"SIZE 3");
        let client = FtpRangeClient::connect(&fabric, "ftp").unwrap();
        client.request("f", 1, u32::MAX).unwrap();
        assert_eq!(&client.read_reply().unwrap()[..], b"bc");
    }

    #[test]
    fn range_session_dies_with_injected_fault() {
        let data = payload(200_000);
        let (fabric, server, _) = setup(&[("f", &data)]);
        server.inject_drop_after(64 * 1024);
        let client = FtpRangeClient::connect(&fabric, "ftp").unwrap();
        // The drop can race the request side: if the server serves the first
        // two ranges (64 KiB) before the client finishes queueing, a later
        // request() already sees the dead connection. Either side may surface
        // the Interrupted first; what must hold is that at most two replies
        // arrive and the fault eventually does.
        for i in 0..4u64 {
            match client.request("f", i * 32 * 1024, 32 * 1024) {
                Ok(()) => {}
                Err(TransportError::Interrupted(_)) => break,
                Err(e) => panic!("unexpected request error: {e}"),
            }
        }
        let mut replies = 0;
        loop {
            match client.read_reply() {
                Ok(_) => replies += 1,
                Err(TransportError::Interrupted(_)) => break,
                Err(e) => panic!("unexpected reply error: {e}"),
            }
        }
        assert!(
            replies <= 2,
            "server dropped after 64 KiB yet {replies} replies arrived"
        );
    }

    /// Start every member of a batch and wait for each verdict.
    fn run_batch(members: &mut [FtpTransfer]) -> Vec<TransferStatus> {
        for t in members.iter_mut() {
            t.connect().unwrap();
            t.receive().unwrap();
        }
        members
            .iter_mut()
            .map(|t| t.wait(Duration::from_millis(1)).unwrap())
            .collect()
    }

    fn batch_content(n: usize, size: usize) -> Vec<(String, Vec<u8>)> {
        (0..n)
            .map(|i| (format!("m{i}"), payload(size + i)))
            .collect()
    }

    fn batch_specs(content: &[(String, Vec<u8>)]) -> Vec<TransferSpec> {
        content
            .iter()
            .map(|(name, data)| {
                let mut s = spec(name, data.len() as u64);
                s.checksum = Some(bitdew_util::md5::md5(data));
                s
            })
            .collect()
    }

    #[test]
    fn a_batch_moves_every_member_over_one_session() {
        // Small members pipeline many deep; large ones are held to the
        // byte budget, one or two outstanding at a time.
        for (n, size) in [(64, 256), (5, 700_000)] {
            let content = batch_content(n, size);
            let refs: Vec<(&str, &[u8])> = content
                .iter()
                .map(|(n, d)| (n.as_str(), d.as_slice()))
                .collect();
            let (fabric, server, local) = setup(&refs);
            let mut members =
                FtpTransfer::download_batch(fabric, batch_specs(&content), local.clone());
            let statuses = run_batch(&mut members);
            for (status, (name, data)) in statuses.iter().zip(&content) {
                assert_eq!(status.outcome, Some(TransferVerdict::Complete), "{name}");
                assert_eq!(status.bytes_done, data.len() as u64);
                assert_eq!(&local.read_at(name, 0, data.len()).unwrap()[..], &data[..]);
            }
            assert_eq!(server.sessions_accepted(), 1, "{n} × {size} B");
        }
    }

    #[test]
    fn a_missing_member_fails_alone_and_a_drop_interrupts_the_rest() {
        let content = batch_content(8, 256);
        let refs: Vec<(&str, &[u8])> = content
            .iter()
            .filter(|(n, _)| n != "m3")
            .map(|(n, d)| (n.as_str(), d.as_slice()))
            .collect();
        let (fabric, server, local) = setup(&refs);
        let mut members =
            FtpTransfer::download_batch(fabric.clone(), batch_specs(&content), local.clone());
        let verdicts: Vec<_> = run_batch(&mut members).iter().map(|s| s.outcome).collect();
        let mut expect = vec![Some(TransferVerdict::Complete); 8];
        expect[3] = Some(TransferVerdict::Interrupted);
        assert_eq!(verdicts, expect);
        assert!(!local.exists("m3"));

        // The session dies inside member 5's payload (members 0–4 are
        // already held, so they resume at their end and send nothing).
        server.inject_drop_after(100);
        let (local2, specs) = (MemStore::new(), batch_specs(&content));
        for (name, data) in &content[..5] {
            local2.put(name, data);
        }
        let mut members = FtpTransfer::download_batch(fabric, specs, local2);
        let verdicts: Vec<_> = run_batch(&mut members).iter().map(|s| s.outcome).collect();
        let mut expect = vec![Some(TransferVerdict::Complete); 3];
        expect.push(Some(TransferVerdict::Interrupted)); // m3 is still missing
        expect.push(Some(TransferVerdict::Complete));
        expect.extend([Some(TransferVerdict::Interrupted); 3]);
        assert_eq!(verdicts, expect);
    }

    #[test]
    fn a_corrupt_local_object_is_removed_so_the_retry_starts_at_zero() {
        let data = payload(10_000);
        let (fabric, _server, local) = setup(&[("f", &data)]);
        local.put("f", &payload(10_001)[1..]); // full length, wrong bytes
        let mut s = spec("f", data.len() as u64);
        s.checksum = Some(bitdew_util::md5::md5(&data));
        let get = |s: TransferSpec| {
            let mut t = FtpTransfer::new(fabric.clone(), s, local.clone(), Direction::Download);
            t.connect().unwrap();
            t.receive().unwrap();
            t.wait(Duration::from_millis(1)).unwrap().outcome
        };
        assert_eq!(get(s.clone()), Some(TransferVerdict::CorruptPayload));
        assert!(!local.exists("f"));
        assert_eq!(get(s), Some(TransferVerdict::Complete));
        assert_eq!(&local.read_at("f", 0, data.len()).unwrap()[..], &data[..]);
    }

    #[test]
    fn malformed_numbers_get_err_and_the_session_survives() {
        let (fabric, _server, _) = setup(&[("f", b"abc")]);
        let conn = fabric.connect("ftp").unwrap();
        let too_big = "18446744073709551616"; // u64::MAX + 1
        for bad in ["x", "-1", "1.5", "", too_big] {
            for cmd in [
                format!("RETR f {bad}"),
                format!("STOR f {bad} 3"),
                format!("STOR f 0 {bad}"),
                format!("RANGE f {bad} 1"),
                format!("RANGE f 0 {bad}"),
            ] {
                conn.send(Bytes::from(cmd.clone())).unwrap();
                assert_eq!(&conn.recv().unwrap()[..], b"ERR malformed", "{cmd}");
            }
        }
        conn.send(Bytes::from_static(b"RANGE f 1 1")).unwrap();
        assert_eq!(&conn.recv().unwrap()[..], b"DATA 1");
        assert_eq!(&conn.recv().unwrap()[..], b"b");
        conn.send(Bytes::from(format!("RANGE f 1 {}", u64::MAX)))
            .unwrap();
        assert_eq!(&conn.recv().unwrap()[..], b"DATA 2");
        assert_eq!(&conn.recv().unwrap()[..], b"bc");
    }

    #[test]
    fn daemon_connector_lifecycle() {
        let fabric = Fabric::new();
        let mut server = FtpServer::start(&fabric, "ftp", MemStore::new());
        assert!(server.daemon_running());
        server.daemon_stop().unwrap();
        assert!(!server.daemon_running());
    }
}
