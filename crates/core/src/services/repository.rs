//! The Data Repository (DR) service.
//!
//! "The Data Repository service has two responsibilities, namely to
//! interface with persistent storage and to provide remote access to data.
//! DR acts as a wrapper around legacy file server or file system" (§3.4.2).
//!
//! Here the DR wraps a [`FileStore`] and exposes it through the protocol
//! servers of `bitdew-transport`: an FTP-like daemon, an HTTP-like daemon,
//! and a BitTorrent tracker + seeder. `put`/`get` move content between a
//! client's local store and the repository; `locator_for` mints the
//! [`Locator`] a remote host needs to fetch a datum with a given protocol,
//! and `endpoint` names the FTP/HTTP daemon for a caller that writes the
//! locator row from borrowed parts.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use bitdew_transport::bittorrent::{self, BtPeer, Torrent, Tracker};
use bitdew_transport::ftp::FtpServer;
use bitdew_transport::http::HttpServer;
use bitdew_transport::{Fabric, FileStore, ProtocolId, TransportError};

use crate::api::Result;
use crate::data::{Data, DataId, Locator};

/// The Data Repository service host.
pub struct DataRepository {
    fabric: Fabric,
    store: Arc<dyn FileStore>,
    /// Endpoint names, unique per repository instance.
    ftp_endpoint: String,
    http_endpoint: String,
    tracker_endpoint: String,
    seeder_endpoint: String,
    ftp: FtpServer,
    _http: HttpServer,
    _tracker: Tracker,
    /// One seeder daemon per data served over BitTorrent.
    seeders: Mutex<HashMap<DataId, (Torrent, BtPeer)>>,
}

impl DataRepository {
    /// Start a repository named `name` over `store` on `fabric`, launching
    /// its protocol daemons.
    pub fn start(fabric: &Fabric, name: &str, store: Arc<dyn FileStore>) -> DataRepository {
        let ftp_endpoint = format!("{name}.ftp");
        let http_endpoint = format!("{name}.http");
        let tracker_endpoint = format!("{name}.tracker");
        let seeder_endpoint = format!("{name}.seed");
        let ftp = FtpServer::start(fabric, &ftp_endpoint, Arc::clone(&store));
        let http = HttpServer::start(fabric, &http_endpoint, Arc::clone(&store));
        let tracker = Tracker::start(fabric, &tracker_endpoint);
        DataRepository {
            fabric: fabric.clone(),
            store,
            ftp_endpoint,
            http_endpoint,
            tracker_endpoint,
            seeder_endpoint,
            ftp,
            _http: http,
            _tracker: tracker,
            seeders: Mutex::new(HashMap::new()),
        }
    }

    /// The repository's backing store.
    pub fn store(&self) -> &Arc<dyn FileStore> {
        &self.store
    }

    /// The FTP daemon serving the repository (session counts, fault
    /// injection).
    pub fn ftp_server(&self) -> &FtpServer {
        &self.ftp
    }

    /// Replace the content of the slot for `data` with `content`:
    /// [`DataRepository::put_object`] under the datum's own object name.
    pub fn put_bytes(&self, data: &Data, content: &[u8]) -> Result<()> {
        self.put_object(data, &data.object_name(), content)
    }

    /// Replace the content of the slot for `data`, stored as `object` (its
    /// [`Data::object_name`], which a batch caller has already built), with
    /// `content`. The declared checksum, when the datum has one, is
    /// verified first, so content that fails it is never written. The
    /// write is one [`FileStore::replace`]: a shorter `put` leaves no tail
    /// of the previous content, and on the in-memory store it takes the
    /// store's lock once.
    pub fn put_object(&self, data: &Data, object: &str, content: &[u8]) -> Result<()> {
        debug_assert_eq!(object, data.object_name());
        if data.has_checksum() && bitdew_util::md5::md5(content) != data.checksum {
            return Err(TransportError::ChecksumMismatch.into());
        }
        self.store.replace(object, content)?;
        Ok(())
    }

    /// Read a datum's full content out of the repository: one sized
    /// allocation and (for the in-process stores) one read straight into
    /// it — the loop only fires on a short read, i.e. when the object
    /// shrank concurrently.
    pub fn get_bytes(&self, data: &Data) -> Result<Vec<u8>> {
        let name = data.object_name();
        let size = self.store.size(&name)?;
        let mut out = Vec::with_capacity(size as usize);
        while (out.len() as u64) < size {
            let want = (size as usize) - out.len();
            if self
                .store
                .read_into(&name, out.len() as u64, want, &mut out)?
                == 0
            {
                break;
            }
        }
        Ok(out)
    }

    /// Write a byte range into a datum's repository slot (fine-grain
    /// update). Range writes bypass the whole-blob MD5 check — the chunked
    /// plane verifies per-chunk CRC32 digests instead, and a caller mixing
    /// range writes with a declared checksum is expected to re-`put` (or
    /// republish the manifest) when done.
    pub fn put_range(&self, data: &Data, offset: u64, content: &[u8]) -> Result<()> {
        self.store.write_at(&data.object_name(), offset, content)?;
        Ok(())
    }

    /// Read a byte range of a datum out of the repository (short only at
    /// EOF).
    pub fn get_range(&self, data: &Data, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.store
            .read_into(&data.object_name(), offset, len, &mut out)?;
        Ok(out)
    }

    /// Whether content for `data` is present.
    pub fn has(&self, data: &Data) -> bool {
        self.store.exists(&data.object_name())
    }

    /// Drop a datum's content.
    pub fn remove(&self, data: &Data) -> Result<()> {
        self.seeders.lock().remove(&data.id);
        self.store.remove(&data.object_name())?;
        Ok(())
    }

    /// The endpoint serving whole objects of this repository over
    /// `protocol` — FTP or HTTP, which need nothing started per datum.
    /// `None` for any other protocol: BitTorrent needs a seeder, which
    /// [`DataRepository::locator_for`] starts.
    pub fn endpoint(&self, protocol: &ProtocolId) -> Option<&str> {
        match protocol.0.as_str() {
            "ftp" => Some(&self.ftp_endpoint),
            "http" => Some(&self.http_endpoint),
            _ => None,
        }
    }

    /// Mint the locator remote hosts use to fetch `data` via `protocol`,
    /// once the repository holds its content. For BitTorrent this also
    /// ensures a tracker registration and a seeder daemon for the datum
    /// ("the FTP server and the BitTorrent seeder run on the same node",
    /// §4.3).
    pub fn locator_for(&self, data: &Data, protocol: &ProtocolId) -> Result<Locator> {
        if !self.has(data) {
            return Err(crate::api::BitdewError::CatalogMiss {
                what: format!("repository content for `{}`", data.object_name()),
            });
        }
        let remote = match self.endpoint(protocol) {
            Some(endpoint) => endpoint.to_owned(),
            None if *protocol == ProtocolId::bittorrent() => {
                self.ensure_seeding(data)?;
                self.tracker_endpoint.clone()
            }
            None => {
                return Err(TransportError::Protocol(format!(
                    "repository does not serve {protocol}"
                ))
                .into())
            }
        };
        Ok(Locator::new(data, protocol.clone(), remote))
    }

    /// The torrent descriptor for a datum (available once seeding).
    pub fn torrent_for(&self, data: &Data) -> Option<Torrent> {
        self.seeders.lock().get(&data.id).map(|(t, _)| t.clone())
    }

    fn ensure_seeding(&self, data: &Data) -> Result<()> {
        let mut seeders = self.seeders.lock();
        if seeders.contains_key(&data.id) {
            return Ok(());
        }
        let torrent = Torrent::describe(
            self.store.as_ref(),
            &data.object_name(),
            bittorrent::DEFAULT_PIECE,
            &self.tracker_endpoint,
        )?;
        let listener = format!("{}.{}", self.seeder_endpoint, data.id.to_canonical());
        let peer = BtPeer::start(
            &self.fabric,
            &listener,
            torrent.clone(),
            Arc::clone(&self.store),
            bittorrent::full_have(&torrent),
            8,
        );
        bittorrent::announce(
            &self.fabric,
            &self.tracker_endpoint,
            &torrent.name,
            &listener,
        )?;
        seeders.insert(data.id, (torrent, peer));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitdew_transport::MemStore;
    use bitdew_util::Auid;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn repo() -> (Fabric, DataRepository) {
        let fabric = Fabric::new();
        let dr = DataRepository::start(&fabric, "dr0", MemStore::new());
        (fabric, dr)
    }

    fn datum(name: &str, content: &[u8]) -> Data {
        let mut rng = SmallRng::seed_from_u64(7);
        Data::from_bytes(Auid::generate(0, &mut rng), name, content)
    }

    #[test]
    fn put_get_roundtrip() {
        let (_f, dr) = repo();
        let d = datum("blob", b"hello repository");
        assert!(!dr.has(&d));
        dr.put_bytes(&d, b"hello repository").unwrap();
        assert!(dr.has(&d));
        assert_eq!(dr.get_bytes(&d).unwrap(), b"hello repository");
        dr.remove(&d).unwrap();
        assert!(!dr.has(&d));
    }

    #[test]
    fn put_verifies_checksum() {
        let (_f, dr) = repo();
        let d = datum("blob", b"expected content");
        let err = dr.put_bytes(&d, b"tampered content");
        assert!(matches!(
            err,
            Err(crate::api::BitdewError::Transport(
                TransportError::ChecksumMismatch
            ))
        ));
    }

    #[test]
    fn slot_data_accepts_any_content() {
        let (_f, dr) = repo();
        let mut rng = SmallRng::seed_from_u64(8);
        let slot = Data::slot(Auid::generate(0, &mut rng), "result", 0);
        dr.put_bytes(&slot, b"whatever the task produced").unwrap();
        assert!(dr.has(&slot));
    }

    #[test]
    fn locators_per_protocol() {
        let (_f, dr) = repo();
        let d = datum("blob", b"content");
        dr.put_bytes(&d, b"content").unwrap();
        let ftp = dr.locator_for(&d, &ProtocolId::ftp()).unwrap();
        assert_eq!(ftp.remote, "dr0.ftp");
        assert_eq!(ftp.object, d.object_name());
        let http = dr.locator_for(&d, &ProtocolId::http()).unwrap();
        assert_eq!(http.remote, "dr0.http");
        let bt = dr.locator_for(&d, &ProtocolId::bittorrent()).unwrap();
        assert_eq!(bt.remote, "dr0.tracker");
        assert!(dr.torrent_for(&d).is_some());
        // Unknown protocol refused.
        assert!(dr.locator_for(&d, &ProtocolId::from("edonkey")).is_err());
    }

    #[test]
    fn locator_for_missing_data_fails() {
        let (_f, dr) = repo();
        let d = datum("ghost", b"never stored");
        assert!(matches!(
            dr.locator_for(&d, &ProtocolId::ftp()),
            Err(crate::api::BitdewError::CatalogMiss { .. })
        ));
    }

    #[test]
    fn ftp_fetch_through_repository_endpoint() {
        use bitdew_transport::ftp::{Direction, FtpTransfer};
        use bitdew_transport::oob::{NonBlockingOobTransfer, OobTransfer, TransferSpec};

        let (fabric, dr) = repo();
        let content: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let d = datum("payload", &content);
        dr.put_bytes(&d, &content).unwrap();
        let loc = dr.locator_for(&d, &ProtocolId::ftp()).unwrap();

        let local = MemStore::new();
        let spec = TransferSpec {
            name: loc.object.clone(),
            bytes: d.size,
            checksum: Some(d.checksum),
            remote: loc.remote.clone(),
        };
        let mut t = FtpTransfer::new(fabric, spec, local.clone(), Direction::Download);
        t.connect().unwrap();
        t.receive().unwrap();
        let st = t.wait(std::time::Duration::from_millis(2)).unwrap();
        assert_eq!(
            st.outcome,
            Some(bitdew_transport::TransferVerdict::Complete)
        );
        assert_eq!(
            &local.read_at(&loc.object, 0, content.len()).unwrap()[..],
            &content[..]
        );
    }
}
