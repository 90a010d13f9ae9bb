//! FTP-like client/server file transfer over the fabric.
//!
//! The original prototype used the apache commons-net FTP client against a
//! ProFTPD server (§3.5). This module rebuilds the same shape: a server
//! daemon serving a [`FileStore`] and a client implementing the
//! [`OobTransfer`] seven-method contract with download (`RETR`), upload
//! (`STOR`) and size (`SIZE`) verbs, chunked streaming, **offset resume**
//! and receiver-side MD5 verification.
//!
//! The server supports deterministic fault injection (drop the connection
//! after N payload bytes) so the Data Transfer service's retry/resume logic
//! is testable — "interrupted transfers should be automatically resumed"
//! (§2.3) is exercised end to end.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

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
}

impl FtpServer {
    /// Start serving `store` on fabric listener `name`.
    pub fn start(fabric: &Fabric, name: &str, store: Arc<dyn FileStore>) -> FtpServer {
        let listener = fabric.listen(name);
        let shutdown = Arc::new(AtomicBool::new(false));
        let drop_after = Arc::new(AtomicU64::new(u64::MAX));
        let shutdown2 = Arc::clone(&shutdown);
        let drop2 = Arc::clone(&drop_after);
        let accept_thread = std::thread::Builder::new()
            .name(format!("ftpd-{name}"))
            .spawn(move || {
                while !shutdown2.load(Ordering::Relaxed) {
                    match listener.accept_timeout(std::time::Duration::from_millis(50)) {
                        Ok(conn) => {
                            let store = Arc::clone(&store);
                            let limit = drop2.swap(u64::MAX, Ordering::Relaxed);
                            std::thread::spawn(move || {
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
        }
    }

    /// Make the *next* accepted connection drop after `bytes` payload bytes.
    pub fn inject_drop_after(&self, bytes: u64) {
        self.drop_after.store(bytes, Ordering::Relaxed);
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
                    let (Some(name), Some(off)) = (parts.next(), parts.next()) else {
                        conn.send(Bytes::from_static(b"ERR malformed"))?;
                        continue;
                    };
                    let offset: u64 = off.parse().unwrap_or(0);
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
                    let (Some(name), Some(off), Some(len)) =
                        (parts.next(), parts.next(), parts.next())
                    else {
                        conn.send(Bytes::from_static(b"ERR malformed"))?;
                        continue;
                    };
                    let offset: u64 = off.parse().unwrap_or(0);
                    let total: u64 = len.parse().unwrap_or(0);
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
                    let (Some(name), Some(off), Some(len)) =
                        (parts.next(), parts.next(), parts.next())
                    else {
                        conn.send(Bytes::from_static(b"ERR malformed"))?;
                        continue;
                    };
                    let offset: u64 = off.parse().unwrap_or(0);
                    let len: usize = len.parse().unwrap_or(0);
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

struct Shared {
    bytes_done: AtomicU64,
    verdict: parking_lot::Mutex<Option<TransferVerdict>>,
}

/// An FTP-like transfer implementing the OOB contract. `receive`/`send`
/// spawn a worker; callers poll [`OobTransfer::probe`] (non-blocking style).
pub struct FtpTransfer {
    fabric: Fabric,
    spec: TransferSpec,
    local: Arc<dyn FileStore>,
    direction: Direction,
    shared: Arc<Shared>,
    worker: Option<std::thread::JoinHandle<()>>,
    connected: bool,
}

impl FtpTransfer {
    /// Prepare a transfer (no I/O yet).
    pub fn new(
        fabric: Fabric,
        spec: TransferSpec,
        local: Arc<dyn FileStore>,
        direction: Direction,
    ) -> FtpTransfer {
        FtpTransfer {
            fabric,
            spec,
            local,
            direction,
            shared: Arc::new(Shared {
                bytes_done: AtomicU64::new(0),
                verdict: parking_lot::Mutex::new(None),
            }),
            worker: None,
            connected: false,
        }
    }

    fn spawn_worker(&mut self) {
        let fabric = self.fabric.clone();
        let spec = self.spec.clone();
        let local = Arc::clone(&self.local);
        let shared = Arc::clone(&self.shared);
        let direction = self.direction;
        self.worker = Some(std::thread::spawn(move || {
            let result = match direction {
                Direction::Download => download(&fabric, &spec, local.as_ref(), &shared),
                Direction::Upload => upload(&fabric, &spec, local.as_ref(), &shared),
            };
            let mut verdict = shared.verdict.lock();
            *verdict = Some(match result {
                Ok(v) => v,
                Err(_) => TransferVerdict::Interrupted,
            });
        }));
    }
}

fn download(
    fabric: &Fabric,
    spec: &TransferSpec,
    local: &dyn FileStore,
    shared: &Shared,
) -> TransportResult<TransferVerdict> {
    let conn = fabric
        .connect(&spec.remote)
        .map_err(|e| TransportError::ConnectFailed(e.to_string()))?;
    // Resume from whatever partial content is already on disk; its bytes
    // are hashed from the store, the rest as they arrive.
    let offset = local.size(&spec.name).unwrap_or(0).min(spec.bytes);
    shared.bytes_done.store(offset, Ordering::Relaxed);
    conn.send(Bytes::from(format!("RETR {} {}", spec.name, offset)))?;
    let head = conn.recv()?;
    let head = String::from_utf8_lossy(&head).to_string();
    let total = match head.strip_prefix("SIZE ") {
        Some(s) => s
            .trim()
            .parse::<u64>()
            .map_err(|_| TransportError::Protocol(format!("bad SIZE reply: {head}")))?,
        None => return Err(TransportError::NoSuchObject(spec.name.clone())),
    };
    let (pos, local_digest) = recv_hashed(local, &spec.name, offset, total, &conn, |pos| {
        shared.bytes_done.store(pos, Ordering::Relaxed)
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
        Some(d) if d != local_digest => Ok(TransferVerdict::CorruptPayload),
        _ => Ok(TransferVerdict::Complete),
    }
}

fn upload(
    fabric: &Fabric,
    spec: &TransferSpec,
    local: &dyn FileStore,
    shared: &Shared,
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
        shared.bytes_done.store(pos, Ordering::Relaxed);
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
        if !self
            .fabric
            .listener_names()
            .iter()
            .any(|n| n == &self.spec.remote)
        {
            return Err(TransportError::ConnectFailed(format!(
                "no listener {}",
                self.spec.remote
            )));
        }
        self.connected = true;
        Ok(())
    }

    fn disconnect(&mut self) -> TransportResult<()> {
        self.connected = false;
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
        Ok(())
    }

    fn probe(&mut self) -> TransportResult<TransferStatus> {
        Ok(TransferStatus {
            bytes_done: self.shared.bytes_done.load(Ordering::Relaxed),
            bytes_total: self.spec.bytes,
            outcome: *self.shared.verdict.lock(),
        })
    }

    fn send(&mut self) -> TransportResult<()> {
        debug_assert_eq!(self.direction, Direction::Upload);
        self.spawn_worker();
        Ok(())
    }

    fn receive(&mut self) -> TransportResult<()> {
        debug_assert_eq!(self.direction, Direction::Download);
        self.spawn_worker();
        Ok(())
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

    #[test]
    fn daemon_connector_lifecycle() {
        let fabric = Fabric::new();
        let mut server = FtpServer::start(&fabric, "ftp", MemStore::new());
        assert!(server.daemon_running());
        server.daemon_stop().unwrap();
        assert!(!server.daemon_running());
    }
}
