//! Receiver-driven verification with the digest computed in flight: the
//! verdicts of whole-object FTP/HTTP transfers must be exactly what the old
//! stream-then-rehash paths gave, including the cases where the bytes on
//! disk and the bytes on the wire disagree.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bitdew_transport::ftp::{Direction, FtpServer, FtpTransfer};
use bitdew_transport::http::{HttpMethod, HttpServer, HttpTransfer};
use bitdew_transport::{
    Fabric, FileStore, MemStore, NonBlockingOobTransfer, StoreError, TransferSpec, TransferVerdict,
};
use bitdew_util::md5::{md5, Md5Digest};
use bytes::Bytes;

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 37 % 251) as u8).collect()
}

fn spec(remote: &str, data: &[u8], checksum: Option<Md5Digest>) -> TransferSpec {
    TransferSpec {
        name: "obj".into(),
        bytes: data.len() as u64,
        checksum,
        remote: remote.into(),
    }
}

fn run(mut transfer: impl NonBlockingOobTransfer, download: bool) -> Option<TransferVerdict> {
    transfer.connect().unwrap();
    if download {
        transfer.receive().unwrap();
    } else {
        transfer.send().unwrap();
    }
    let status = transfer.wait(Duration::from_millis(1)).unwrap();
    transfer.disconnect().unwrap();
    status.outcome
}

fn ftp_get(fabric: &Fabric, spec: TransferSpec, local: Arc<dyn FileStore>) -> TransferVerdict {
    let transfer = FtpTransfer::new(fabric.clone(), spec, local, Direction::Download);
    run(transfer, true).unwrap()
}

fn http_get(fabric: &Fabric, spec: TransferSpec, local: Arc<dyn FileStore>) -> TransferVerdict {
    let transfer = HttpTransfer::new(fabric.clone(), spec, local, HttpMethod::Get);
    run(transfer, true).unwrap()
}

/// A local store that counts what is read back from it.
#[derive(Default)]
struct ReadCounting {
    inner: MemStore,
    read_calls: AtomicU64,
    read_bytes: AtomicU64,
}

impl FileStore for ReadCounting {
    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, StoreError> {
        let out = self.inner.read_at(name, offset, len)?;
        self.read_calls.fetch_add(1, Ordering::Relaxed);
        self.read_bytes
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }
    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        self.inner.write_at(name, offset, data)
    }
    fn size(&self, name: &str) -> Result<u64, StoreError> {
        self.inner.size(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
    fn remove(&self, name: &str) -> Result<(), StoreError> {
        self.inner.remove(name)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
}

#[test]
fn resume_from_a_corrupted_prefix_is_still_corrupt_payload() {
    let data = payload(300_000);
    let fabric = Fabric::new();
    let served = MemStore::new();
    served.put("obj", &data);
    let _ftp = FtpServer::start(&fabric, "ftp", served.clone());
    let _http = HttpServer::start(&fabric, "http", served);
    let mut rotten = data[..100_000].to_vec();
    rotten[50_000] ^= 0x01;
    // Against the caller's checksum, and against the server's own digest
    // (END trailer / ETag) when the caller has none.
    // The corrupt object is removed, so the retry starts at 0 and heals.
    for checksum in [Some(md5(&data)), None] {
        let local = MemStore::new();
        local.put("obj", &rotten);
        let verdict = ftp_get(&fabric, spec("ftp", &data, checksum), local.clone());
        assert_eq!(verdict, TransferVerdict::CorruptPayload, "ftp {checksum:?}");
        assert!(!local.exists("obj"));
        let verdict = ftp_get(&fabric, spec("ftp", &data, checksum), local.clone());
        assert_eq!(verdict, TransferVerdict::Complete, "ftp retry {checksum:?}");

        let local = MemStore::new();
        local.put("obj", &rotten);
        let verdict = http_get(&fabric, spec("http", &data, checksum), local.clone());
        assert_eq!(
            verdict,
            TransferVerdict::CorruptPayload,
            "http {checksum:?}"
        );
        assert!(!local.exists("obj"));
        let verdict = http_get(&fabric, spec("http", &data, checksum), local.clone());
        assert_eq!(
            verdict,
            TransferVerdict::Complete,
            "http retry {checksum:?}"
        );
        assert_eq!(local.checksum("obj").unwrap(), md5(&data));
    }
}

#[test]
fn resume_from_an_intact_prefix_completes_reading_the_prefix_once() {
    let data = payload(400_000);
    let held = 150_000;
    let fabric = Fabric::new();
    let served = MemStore::new();
    served.put("obj", &data);
    let _ftp = FtpServer::start(&fabric, "ftp", served.clone());
    let _http = HttpServer::start(&fabric, "http", served);
    for remote in ["ftp", "http"] {
        let local = Arc::new(ReadCounting::default());
        local.inner.put("obj", &data[..held]);
        let spec = spec(remote, &data, Some(md5(&data)));
        let verdict = match remote {
            "ftp" => ftp_get(&fabric, spec, local.clone()),
            _ => http_get(&fabric, spec, local.clone()),
        };
        assert_eq!(verdict, TransferVerdict::Complete, "{remote}");
        assert_eq!(
            &local.inner.read_at("obj", 0, data.len()).unwrap()[..],
            &data[..]
        );
        // 150 000 bytes fit one 256 KiB hashing read; nothing that crossed
        // the wire is read back.
        assert_eq!(local.read_calls.load(Ordering::Relaxed), 1, "{remote}");
        assert_eq!(
            local.read_bytes.load(Ordering::Relaxed),
            held as u64,
            "{remote}"
        );
    }
}

/// An FTP server written against the wire format alone, which flips one bit
/// of one payload frame after computing an honest `END` digest.
fn lying_ftp_server(fabric: &Fabric, data: Vec<u8>) -> std::thread::JoinHandle<()> {
    let listener = fabric.listen("liar");
    std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let cmd = conn.recv().unwrap();
        assert!(cmd.starts_with(b"RETR obj 0"));
        conn.send(Bytes::from(format!("SIZE {}", data.len())))
            .unwrap();
        for (i, frame) in data.chunks(64 * 1024).enumerate() {
            let mut frame = frame.to_vec();
            if i == 2 {
                frame[7] ^= 0x10;
            }
            conn.send(Bytes::from(frame)).unwrap();
        }
        conn.send(Bytes::from(format!("END {}", md5(&data).to_hex())))
            .unwrap();
    })
}

#[test]
fn a_frame_corrupted_in_flight_is_corrupt_payload() {
    let data = payload(300_000);
    for checksum in [Some(md5(&data)), None] {
        let fabric = Fabric::new();
        let server = lying_ftp_server(&fabric, data.clone());
        let local = MemStore::new();
        let verdict = ftp_get(&fabric, spec("liar", &data, checksum), local.clone());
        assert_eq!(verdict, TransferVerdict::CorruptPayload, "{checksum:?}");
        // The object that failed verification is not kept to resume from.
        assert!(!local.exists("obj"));
        server.join().unwrap();
    }
}

#[test]
fn stor_and_put_answer_the_stored_objects_digest() {
    let data = payload(200_000);
    let fabric = Fabric::new();
    let served = MemStore::new();
    let _ftp = FtpServer::start(&fabric, "ftp", served.clone());
    let _http = HttpServer::start(&fabric, "http", served.clone());
    let frames = || data.chunks(64 * 1024).map(Bytes::copy_from_slice);

    // Raw STOR: DONE carries the MD5 of what the server now holds.
    let conn = fabric.connect("ftp").unwrap();
    conn.send(Bytes::from(format!("STOR up 0 {}", data.len())))
        .unwrap();
    assert_eq!(&conn.recv().unwrap()[..], b"OK");
    frames().for_each(|f| conn.send(f).unwrap());
    let done = format!("DONE {}", md5(&data).to_hex());
    assert_eq!(&conn.recv().unwrap()[..], done.as_bytes());
    assert_eq!(served.checksum("up").unwrap(), md5(&data));

    // STOR over a longer object leaves its tail in place, and says so: the
    // digest is the whole stored object's, not just the bytes sent.
    let mut longer = data.clone();
    longer.extend_from_slice(b"left over from an earlier, longer version");
    served.put("up", &longer);
    conn.send(Bytes::from(format!("STOR up 0 {}", data.len())))
        .unwrap();
    assert_eq!(&conn.recv().unwrap()[..], b"OK");
    frames().for_each(|f| conn.send(f).unwrap());
    let done = format!("DONE {}", md5(&longer).to_hex());
    assert_eq!(&conn.recv().unwrap()[..], done.as_bytes());

    // Raw PUT: the 201's ETag likewise.
    let conn = fabric.connect("http").unwrap();
    conn.send(Bytes::from(format!(
        "PUT /put\nContent-Length: {}",
        data.len()
    )))
    .unwrap();
    assert!(conn.recv().unwrap().starts_with(b"100"));
    frames().for_each(|f| conn.send(f).unwrap());
    let created = format!("201 Created\nETag: {}", md5(&data).to_hex());
    assert_eq!(&conn.recv().unwrap()[..], created.as_bytes());
    assert_eq!(served.checksum("put").unwrap(), md5(&data));

    // And the clients, which now hash what they send instead of re-reading
    // it, agree with both servers.
    let local = MemStore::new();
    local.put("obj", &data);
    let up = FtpTransfer::new(
        fabric.clone(),
        spec("ftp", &data, None),
        local.clone(),
        Direction::Upload,
    );
    assert_eq!(run(up, false), Some(TransferVerdict::Complete));
    let put = HttpTransfer::new(
        fabric.clone(),
        spec("http", &data, None),
        local,
        HttpMethod::Put,
    );
    assert_eq!(run(put, false), Some(TransferVerdict::Complete));
    assert_eq!(served.checksum("obj").unwrap(), md5(&data));
}
