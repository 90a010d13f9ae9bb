//! Whole-object streaming with the MD5 computed while the bytes move.
//!
//! Receiver-driven verification (§3.4.2) needs the digest of the object on
//! both ends of an FTP `RETR`/`STOR` or an HTTP `GET`/`PUT`. Streaming the
//! object and *then* asking the store for its checksum reads every byte
//! twice; the two functions here are the one streaming loop per direction
//! that every whole-object path of [`crate::ftp`] and [`crate::http`] runs,
//! and they feed an [`Md5`] with each frame as it is sent or received. Only
//! what never crosses the wire in this transfer is read back from the
//! store, once: the `[0, offset)` prefix of a resumed transfer, and
//! whatever the receiver's object holds beyond the transfer's end — so the
//! digest is always that of the whole object, exactly what
//! [`FileStore::checksum`] would have answered afterwards.

use bytes::Bytes;

use bitdew_util::md5::{Md5, Md5Digest};

use crate::fabric::Duplex;
use crate::oob::{TransportError, TransportResult};
use crate::store::{hash_range, FileStore};

/// Payload frame size (64 KiB, a typical data-socket buffer).
pub const CHUNK: usize = 64 * 1024;

/// Sending side: stream `name[offset, size)` to `send` in [`CHUNK`]-sized
/// frames and return the MD5 of `name[0, size)`. `send` gets each frame and
/// the object offset just past it; an error from it aborts the stream.
pub(crate) fn send_hashed(
    store: &dyn FileStore,
    name: &str,
    offset: u64,
    size: u64,
    mut send: impl FnMut(Bytes, u64) -> TransportResult<()>,
) -> TransportResult<Md5Digest> {
    let mut md5 = Md5::new();
    let mut pos = offset.min(size);
    hash_range(store, name, 0, pos, &mut md5)?;
    while pos < size {
        let frame = store.read_at(name, pos, (size - pos).min(CHUNK as u64) as usize)?;
        if frame.is_empty() {
            return Err(TransportError::Interrupted(format!(
                "{name} shrank to {pos} bytes while being sent"
            )));
        }
        md5.update(&frame);
        pos += frame.len() as u64;
        send(frame, pos)?;
    }
    Ok(md5.finalize())
}

/// Receiving side: take frames from `conn` until the object reaches `end`
/// bytes, writing each into `name` at its offset (the first at `offset`) and
/// calling `wrote` with the new length. Returns where the frames ended (past
/// `end` if the peer overran it) and the MD5 of the whole object as the
/// store now holds it.
pub(crate) fn recv_hashed(
    store: &dyn FileStore,
    name: &str,
    offset: u64,
    end: u64,
    conn: &Duplex,
    mut wrote: impl FnMut(u64),
) -> TransportResult<(u64, Md5Digest)> {
    let mut md5 = Md5::new();
    hash_range(store, name, 0, offset, &mut md5)?;
    let mut pos = offset;
    while pos < end {
        let frame = conn.recv()?;
        store.write_at(name, pos, &frame)?;
        md5.update(&frame);
        pos += frame.len() as u64;
        wrote(pos);
    }
    // An object that was already longer than this transfer keeps its tail;
    // the digest must say so, as a checksum of the stored object would.
    let size = store.size(name)?;
    hash_range(store, name, pos, size, &mut md5)?;
    Ok((pos, md5.finalize()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;
    use crate::store::MemStore;

    use bitdew_util::md5::md5;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 29 % 251) as u8).collect()
    }

    #[test]
    fn send_digest_is_the_whole_objects_from_any_offset() {
        let data = payload(3 * CHUNK + 17);
        let store = MemStore::new();
        store.put("o", &data);
        for offset in [0, 1, CHUNK as u64, data.len() as u64, data.len() as u64 + 9] {
            let mut sent = Vec::new();
            let digest = send_hashed(store.as_ref(), "o", offset, data.len() as u64, |f, pos| {
                sent.extend_from_slice(&f);
                assert_eq!(pos, offset + sent.len() as u64);
                Ok(())
            })
            .unwrap();
            assert_eq!(digest, md5(&data), "offset {offset}");
            assert_eq!(&sent[..], &data[(offset as usize).min(data.len())..]);
        }
    }

    #[test]
    fn send_stops_at_the_first_refused_frame_and_on_a_shrunken_object() {
        let data = payload(4 * CHUNK);
        let store = MemStore::new();
        store.put("o", &data);
        let mut frames = 0;
        let out = send_hashed(store.as_ref(), "o", 0, data.len() as u64, |_, _| {
            frames += 1;
            Err(TransportError::Interrupted("peer gone".into()))
        });
        assert!(matches!(out, Err(TransportError::Interrupted(_))));
        assert_eq!(frames, 1);
        // The caller's size is stale: the object is shorter than promised.
        let out = send_hashed(store.as_ref(), "o", 0, data.len() as u64 + 1, |_, _| Ok(()));
        assert!(matches!(out, Err(TransportError::Interrupted(_))));
    }

    #[test]
    fn recv_digest_covers_a_longer_existing_object_and_reports_overrun() {
        let fabric = Fabric::new();
        let listener = fabric.listen("peer");
        let peer = fabric.connect("peer").unwrap();
        let conn = listener.accept().unwrap();
        let store = MemStore::new();
        store.put("o", b"0123456789");
        // Four bytes over the first four: the other six stay and are hashed.
        peer.send(Bytes::from_static(b"abcd")).unwrap();
        let (pos, digest) = recv_hashed(store.as_ref(), "o", 0, 4, &conn, |_| {}).unwrap();
        assert_eq!((pos, digest), (4, md5(b"abcd456789")));
        assert_eq!(digest, store.checksum("o").unwrap());
        // A peer that sends more than announced: the position says so.
        peer.send(Bytes::from_static(b"abcd")).unwrap();
        let (pos, digest) = recv_hashed(store.as_ref(), "new", 0, 3, &conn, |_| {}).unwrap();
        assert_eq!((pos, digest), (4, md5(b"abcd")));
    }
}
