//! HTTP-like transfer protocol over the fabric.
//!
//! BitDew's runtime supports HTTP alongside FTP and BitTorrent (§3.4.2), and
//! the BLAST application distributes `Sequence` and `Result` files over HTTP
//! (§5, Listing 3). This module speaks a request/response dialect with
//! `GET` + `Range` resume and `PUT` upload — one request per connection, the
//! stateless style that distinguishes it from the FTP module's command
//! session. Both end up exercising the same [`OobTransfer`] contract, which
//! is the point of the Fig. 2 framework: the Data Transfer service cannot
//! tell them apart.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use bitdew_util::md5::Md5Digest;

use crate::fabric::{Duplex, Fabric, FabricError};
use crate::oob::{
    NonBlockingOobTransfer, OobTransfer, TransferSpec, TransferStatus, TransferVerdict,
    TransportError, TransportResult,
};
use crate::store::FileStore;
pub use crate::stream::CHUNK;
use crate::stream::{recv_hashed, send_hashed};

/// Handle to a running HTTP-like server.
pub struct HttpServer {
    shutdown: Arc<AtomicBool>,
    fabric: Fabric,
    listener_name: String,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Start serving `store` on fabric listener `name`.
    pub fn start(fabric: &Fabric, name: &str, store: Arc<dyn FileStore>) -> HttpServer {
        let listener = fabric.listen(name);
        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown2 = Arc::clone(&shutdown);
        let accept_thread = std::thread::Builder::new()
            .name(format!("httpd-{name}"))
            .spawn(move || {
                while !shutdown2.load(Ordering::Relaxed) {
                    match listener.accept_timeout(std::time::Duration::from_millis(50)) {
                        Ok(conn) => {
                            let store = Arc::clone(&store);
                            std::thread::spawn(move || {
                                let _ = Self::serve_one(conn, store);
                            });
                        }
                        Err(FabricError::Timeout) => continue,
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn http server");
        HttpServer {
            shutdown,
            fabric: fabric.clone(),
            listener_name: name.to_string(),
            accept_thread: Some(accept_thread),
        }
    }

    /// Stop the server.
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

    /// One request per connection.
    fn serve_one(conn: Duplex, store: Arc<dyn FileStore>) -> TransportResult<()> {
        let req = conn.recv()?;
        let text = String::from_utf8_lossy(&req).to_string();
        let mut lines = text.lines();
        let request_line = lines.next().unwrap_or_default();
        let Some((range_from, range_to, content_length)) = parse_headers(lines) else {
            conn.send(Bytes::from_static(b"400 Bad Request"))?;
            return Ok(());
        };
        let mut parts = request_line.split_whitespace();
        match (parts.next(), parts.next()) {
            (Some("GET"), Some(path)) => {
                let name = path.trim_start_matches('/');
                let Ok(size) = store.size(name) else {
                    conn.send(Bytes::from_static(b"404 Not Found"))?;
                    return Ok(());
                };
                let mut pos = range_from.min(size);
                // A bounded range (`bytes=from-to`, inclusive end) serves
                // only that window with a 206; an open range keeps the
                // whole-object 200 + Content-Length contract the resuming
                // full-file client depends on.
                let end = match range_to {
                    Some(to) => to.saturating_add(1).min(size),
                    None => size,
                };
                match range_to {
                    Some(_) => conn.send(Bytes::from(format!(
                        "206 Partial Content\nContent-Length: {}",
                        end.saturating_sub(pos)
                    )))?,
                    None => {
                        // The header precedes the body, so the ETag is the
                        // one digest that cannot be computed in flight.
                        let digest = store.checksum(name)?;
                        conn.send(Bytes::from(format!(
                            "200 OK\nContent-Length: {size}\nETag: {}",
                            digest.to_hex()
                        )))?;
                    }
                }
                while pos < end {
                    let chunk = store.read_at(name, pos, CHUNK.min((end - pos) as usize))?;
                    if chunk.is_empty() {
                        break;
                    }
                    pos += chunk.len() as u64;
                    conn.send(chunk)?;
                }
            }
            (Some("PUT"), Some(path)) => {
                let name = path.trim_start_matches('/');
                conn.send(Bytes::from_static(b"100 Continue"))?;
                let (_, digest) =
                    recv_hashed(store.as_ref(), name, 0, content_length, &conn, |_| {})?;
                conn.send(Bytes::from(format!(
                    "201 Created\nETag: {}",
                    digest.to_hex()
                )))?;
            }
            _ => conn.send(Bytes::from_static(b"400 Bad Request"))?,
        }
        Ok(())
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// The `Range` (`bytes=from-` or `bytes=from-to`, inclusive end, RFC 7233
/// style) and `Content-Length` headers of a request: `(from, to,
/// length)`, 0 / open / 0 when absent. `None` when either is present but
/// not a decimal `u64` — the request is refused, not read as "from 0".
fn parse_headers<'a>(lines: impl Iterator<Item = &'a str>) -> Option<(u64, Option<u64>, u64)> {
    let (mut from, mut to, mut length) = (0, None, 0);
    for line in lines {
        if let Some(v) = line.strip_prefix("Range: bytes=") {
            let (start, end) = v.split_once('-')?;
            from = start.trim().parse().ok()?;
            to = match end.trim() {
                "" => None,
                end => Some(end.parse().ok()?),
            };
        }
        if let Some(v) = line.strip_prefix("Content-Length: ") {
            length = v.trim().parse().ok()?;
        }
    }
    Some((from, to, length))
}

/// Transfer direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpMethod {
    /// Download via GET (with Range resume).
    Get,
    /// Upload via PUT.
    Put,
}

struct Shared {
    bytes_done: AtomicU64,
    verdict: parking_lot::Mutex<Option<TransferVerdict>>,
}

/// An HTTP transfer implementing the OOB contract (non-blocking).
pub struct HttpTransfer {
    fabric: Fabric,
    spec: TransferSpec,
    local: Arc<dyn FileStore>,
    method: HttpMethod,
    shared: Arc<Shared>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl HttpTransfer {
    /// Prepare a transfer.
    pub fn new(
        fabric: Fabric,
        spec: TransferSpec,
        local: Arc<dyn FileStore>,
        method: HttpMethod,
    ) -> HttpTransfer {
        HttpTransfer {
            fabric,
            spec,
            local,
            method,
            shared: Arc::new(Shared {
                bytes_done: AtomicU64::new(0),
                verdict: parking_lot::Mutex::new(None),
            }),
            worker: None,
        }
    }

    fn spawn(&mut self) {
        let fabric = self.fabric.clone();
        let spec = self.spec.clone();
        let local = Arc::clone(&self.local);
        let shared = Arc::clone(&self.shared);
        let method = self.method;
        self.worker = Some(std::thread::spawn(move || {
            let result = match method {
                HttpMethod::Get => get(&fabric, &spec, local.as_ref(), &shared),
                HttpMethod::Put => put(&fabric, &spec, local.as_ref(), &shared),
            };
            *shared.verdict.lock() = Some(result.unwrap_or(TransferVerdict::Interrupted));
        }));
    }
}

fn get(
    fabric: &Fabric,
    spec: &TransferSpec,
    local: &dyn FileStore,
    shared: &Shared,
) -> TransportResult<TransferVerdict> {
    let conn = fabric
        .connect(&spec.remote)
        .map_err(|e| TransportError::ConnectFailed(e.to_string()))?;
    let offset = local.size(&spec.name).unwrap_or(0).min(spec.bytes);
    shared.bytes_done.store(offset, Ordering::Relaxed);
    conn.send(Bytes::from(format!(
        "GET /{}\nRange: bytes={}-",
        spec.name, offset
    )))?;
    let head = conn.recv()?;
    let head = String::from_utf8_lossy(&head).to_string();
    if !head.starts_with("200") {
        return Err(TransportError::NoSuchObject(spec.name.clone()));
    }
    let mut total = spec.bytes;
    let mut etag = None;
    for line in head.lines().skip(1) {
        if let Some(v) = line.strip_prefix("Content-Length: ") {
            total = v.parse().unwrap_or(total);
        }
        if let Some(v) = line.strip_prefix("ETag: ") {
            etag = Md5Digest::from_hex(v.trim());
        }
    }
    let (_, digest) = recv_hashed(local, &spec.name, offset, total, &conn, |pos| {
        shared.bytes_done.store(pos, Ordering::Relaxed)
    })?;
    Ok(match spec.checksum.or(etag) {
        Some(d) if d != digest => {
            // As for FTP `RETR`: a corrupt object is not resumed from.
            let _ = local.remove(&spec.name);
            TransferVerdict::CorruptPayload
        }
        _ => TransferVerdict::Complete,
    })
}

fn put(
    fabric: &Fabric,
    spec: &TransferSpec,
    local: &dyn FileStore,
    shared: &Shared,
) -> TransportResult<TransferVerdict> {
    let conn = fabric
        .connect(&spec.remote)
        .map_err(|e| TransportError::ConnectFailed(e.to_string()))?;
    let size = local.size(&spec.name)?;
    conn.send(Bytes::from(format!(
        "PUT /{}\nContent-Length: {size}",
        spec.name
    )))?;
    if !conn.recv()?.starts_with(b"100") {
        return Err(TransportError::Protocol("expected 100 Continue".into()));
    }
    let local_digest = send_hashed(local, &spec.name, 0, size, |frame, pos| {
        conn.send(frame)?;
        shared.bytes_done.store(pos, Ordering::Relaxed);
        Ok(())
    })?;
    let created = conn.recv()?;
    let text = String::from_utf8_lossy(&created).to_string();
    if !text.starts_with("201") {
        return Err(TransportError::Protocol("expected 201 Created".into()));
    }
    let remote = text
        .lines()
        .find_map(|l| l.strip_prefix("ETag: "))
        .and_then(|h| Md5Digest::from_hex(h.trim()));
    Ok(match remote {
        Some(d) if d != local_digest => TransferVerdict::CorruptPayload,
        _ => TransferVerdict::Complete,
    })
}

impl OobTransfer for HttpTransfer {
    fn connect(&mut self) -> TransportResult<()> {
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
        Ok(())
    }

    fn disconnect(&mut self) -> TransportResult<()> {
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
        debug_assert_eq!(self.method, HttpMethod::Put);
        self.spawn();
        Ok(())
    }

    fn receive(&mut self) -> TransportResult<()> {
        debug_assert_eq!(self.method, HttpMethod::Get);
        self.spawn();
        Ok(())
    }
}

impl NonBlockingOobTransfer for HttpTransfer {}

/// One-shot bounded range fetch: `GET /<object>` with `Range: bytes=from-to`
/// (inclusive end), one request per connection in the module's stateless
/// style. Returns exactly the window's bytes (short only at EOF). A reply
/// that announces more than `len` bytes, or sends more than it announced,
/// is [`TransportError::Protocol`]: the allocation is sized by the request,
/// never by a number off the wire.
pub fn fetch_range(
    fabric: &Fabric,
    remote: &str,
    object: &str,
    offset: u64,
    len: u32,
) -> TransportResult<Bytes> {
    if len == 0 {
        return Ok(Bytes::new());
    }
    let last = offset
        .checked_add(u64::from(len) - 1) // inclusive end
        .ok_or_else(|| TransportError::Protocol("range past the end of u64".into()))?;
    let conn = fabric
        .connect(remote)
        .map_err(|e| TransportError::ConnectFailed(e.to_string()))?;
    conn.send(Bytes::from(format!(
        "GET /{object}\nRange: bytes={offset}-{last}"
    )))?;
    let head = conn.recv()?;
    let head = String::from_utf8_lossy(&head).to_string();
    if !head.starts_with("206") {
        return Err(TransportError::NoSuchObject(object.to_string()));
    }
    let total: u64 = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| TransportError::Protocol("206 without Content-Length".into()))?;
    if total > u64::from(len) {
        return Err(TransportError::Protocol(format!(
            "206 announces {total} bytes for a {len}-byte range"
        )));
    }
    let total = total as usize; // ≤ len: u32
    let mut buf = Vec::with_capacity(total);
    while buf.len() < total {
        let frame = conn.recv()?;
        if frame.len() > total - buf.len() {
            return Err(TransportError::Protocol(format!(
                "206 body longer than its Content-Length of {total}"
            )));
        }
        buf.extend_from_slice(&frame);
    }
    Ok(Bytes::from(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use std::thread::JoinHandle;
    use std::time::Duration;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 17 % 251) as u8).collect()
    }

    #[test]
    fn get_roundtrip() {
        let fabric = Fabric::new();
        let server_store = MemStore::new();
        let data = payload(200_000);
        server_store.put("obj", &data);
        let _server = HttpServer::start(&fabric, "http", server_store);
        let local = MemStore::new();
        let spec = TransferSpec {
            name: "obj".into(),
            bytes: data.len() as u64,
            checksum: Some(bitdew_util::md5::md5(&data)),
            remote: "http".into(),
        };
        let mut t = HttpTransfer::new(fabric, spec, local.clone(), HttpMethod::Get);
        t.connect().unwrap();
        t.receive().unwrap();
        let status = t.wait(Duration::from_millis(2)).unwrap();
        assert_eq!(status.outcome, Some(TransferVerdict::Complete));
        assert_eq!(&local.read_at("obj", 0, data.len()).unwrap()[..], &data[..]);
    }

    #[test]
    fn put_roundtrip() {
        let fabric = Fabric::new();
        let server_store = MemStore::new();
        let _server = HttpServer::start(&fabric, "http", Arc::clone(&server_store) as _);
        let data = payload(90_000);
        let local = MemStore::new();
        local.put("up", &data);
        let spec = TransferSpec {
            name: "up".into(),
            bytes: data.len() as u64,
            checksum: None,
            remote: "http".into(),
        };
        let mut t = HttpTransfer::new(fabric, spec, local, HttpMethod::Put);
        t.connect().unwrap();
        t.send().unwrap();
        let status = t.wait(Duration::from_millis(2)).unwrap();
        assert_eq!(status.outcome, Some(TransferVerdict::Complete));
        assert_eq!(
            &server_store.read_at("up", 0, data.len()).unwrap()[..],
            &data[..]
        );
    }

    #[test]
    fn get_404() {
        let fabric = Fabric::new();
        let _server = HttpServer::start(&fabric, "http", MemStore::new());
        let local = MemStore::new();
        let spec = TransferSpec {
            name: "ghost".into(),
            bytes: 1,
            checksum: None,
            remote: "http".into(),
        };
        let mut t = HttpTransfer::new(fabric, spec, local, HttpMethod::Get);
        t.receive().unwrap();
        let status = t.wait(Duration::from_millis(2)).unwrap();
        assert_eq!(status.outcome, Some(TransferVerdict::Interrupted));
    }

    #[test]
    fn bounded_range_fetch_returns_window() {
        let fabric = Fabric::new();
        let server_store = MemStore::new();
        let data = payload(150_000);
        server_store.put("obj", &data);
        let _server = HttpServer::start(&fabric, "http", server_store);
        let got = fetch_range(&fabric, "http", "obj", 70_000, 10_000).unwrap();
        assert_eq!(&got[..], &data[70_000..80_000]);
        // Window spanning several server-side chunks.
        let got = fetch_range(&fabric, "http", "obj", 1_000, 130_000).unwrap();
        assert_eq!(&got[..], &data[1_000..131_000]);
        // Tail-clamped window is short, not an error.
        let got = fetch_range(&fabric, "http", "obj", 149_000, 64_000).unwrap();
        assert_eq!(&got[..], &data[149_000..]);
        // Empty window and missing object.
        assert!(fetch_range(&fabric, "http", "obj", 0, 0)
            .unwrap()
            .is_empty());
        assert!(matches!(
            fetch_range(&fabric, "http", "ghost", 0, 8),
            Err(TransportError::NoSuchObject(_))
        ));
    }

    /// A listener `name` that answers one request with `head` and then
    /// `body`, as a misbehaving peer would.
    fn lying_peer(fabric: &Fabric, name: &str, head: &str, body: Vec<u8>) -> JoinHandle<()> {
        let listener = fabric.listen(name);
        let head = head.to_string();
        std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            conn.recv().unwrap();
            conn.send(Bytes::from(head)).unwrap();
            if !body.is_empty() {
                // The client may hang up first; that is its answer.
                let _ = conn.send(Bytes::from(body));
            }
        })
    }

    #[test]
    fn range_reply_larger_than_the_request_is_refused() {
        let fabric = Fabric::new();
        // A length no allocator can give: refused before any allocation,
        // not a capacity-overflow panic.
        let peer = lying_peer(
            &fabric,
            "huge",
            "206 Partial Content\nContent-Length: 18446744073709551615",
            Vec::new(),
        );
        assert!(matches!(
            fetch_range(&fabric, "huge", "obj", 0, 64),
            Err(TransportError::Protocol(_))
        ));
        peer.join().unwrap();
        // A valid length above the request's is refused too.
        let peer = lying_peer(
            &fabric,
            "more",
            "206 Partial Content\nContent-Length: 65",
            vec![0; 65],
        );
        assert!(matches!(
            fetch_range(&fabric, "more", "obj", 0, 64),
            Err(TransportError::Protocol(_))
        ));
        peer.join().unwrap();
        // A body longer than its own Content-Length.
        let peer = lying_peer(
            &fabric,
            "over",
            "206 Partial Content\nContent-Length: 8",
            vec![7; 16],
        );
        assert!(matches!(
            fetch_range(&fabric, "over", "obj", 0, 8),
            Err(TransportError::Protocol(_))
        ));
        peer.join().unwrap();
        // A window ending past u64::MAX never reaches the wire.
        assert!(matches!(
            fetch_range(&fabric, "over", "obj", u64::MAX, 2),
            Err(TransportError::Protocol(_))
        ));
    }

    /// One raw request on a fresh connection; returns that connection and
    /// the reply's head frame.
    fn raw(fabric: &Fabric, request: String) -> (Duplex, String) {
        let conn = fabric.connect("http").unwrap();
        conn.send(Bytes::from(request)).unwrap();
        let head = String::from_utf8_lossy(&conn.recv().unwrap()).to_string();
        (conn, head)
    }

    #[test]
    fn malformed_range_and_length_get_400() {
        let fabric = Fabric::new();
        let server_store = MemStore::new();
        let data = payload(1_000);
        server_store.put("obj", &data);
        let _server = HttpServer::start(&fabric, "http", server_store);
        // Non-numeric, negative, and one past `u64::MAX`.
        for bad in ["abc", "-5", "18446744073709551616"] {
            for request in [
                format!("GET /obj\nRange: bytes={bad}-"),
                format!("GET /obj\nRange: bytes=0-{bad}"),
                format!("PUT /obj\nContent-Length: {bad}"),
            ] {
                let (_, head) = raw(&fabric, request.clone());
                assert!(head.starts_with("400"), "{request:?} got {head:?}");
            }
        }
        // The listener still serves, and an open range still resumes.
        let (conn, head) = raw(&fabric, "GET /obj\nRange: bytes=5-".into());
        assert!(head.starts_with("200"), "{head:?}");
        let mut body = Vec::new();
        while body.len() < data.len() - 5 {
            body.extend_from_slice(&conn.recv().unwrap());
        }
        assert_eq!(body, data[5..]);
    }

    #[test]
    fn range_resume_downloads_only_tail() {
        let fabric = Fabric::new();
        let server_store = MemStore::new();
        let data = payload(100_000);
        server_store.put("obj", &data);
        let _server = HttpServer::start(&fabric, "http", server_store);
        // Pre-seed the local store with a verified prefix.
        let local = MemStore::new();
        local.put("obj", &data[..40_000]);
        let spec = TransferSpec {
            name: "obj".into(),
            bytes: data.len() as u64,
            checksum: Some(bitdew_util::md5::md5(&data)),
            remote: "http".into(),
        };
        let mut t = HttpTransfer::new(fabric, spec, local.clone(), HttpMethod::Get);
        t.receive().unwrap();
        let status = t.wait(Duration::from_millis(2)).unwrap();
        assert_eq!(status.outcome, Some(TransferVerdict::Complete));
        assert_eq!(&local.read_at("obj", 0, data.len()).unwrap()[..], &data[..]);
    }
}
