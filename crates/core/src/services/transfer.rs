//! The Data Transfer (DT) service.
//!
//! "The role of Data Transfer is to launch out-of-band transfers and ensure
//! their reliability. … Transfers are always initiated by a reservoir or
//! client host to DT, which manages transfer reliability, resumes faulty
//! transfers, reports on bandwidth utilization and ensures data integrity"
//! (§3.4.2).
//!
//! DT is protocol-agnostic: a [`TransferBuilder`] (installed by the runtime)
//! turns a `(Data, Locator)` pair into an [`OobTransfer`], and DT drives the
//! seven-method contract — start, poll `probe` on its monitor period
//! (500 ms in the §4.3 experiments), restart interrupted transfers from
//! their resume offset, and verify integrity receiver-side. A transfer that
//! keeps failing is abandoned after `max_retries` ("resumed or canceled
//! according to the programmer's preference", §2.3).
//!
//! A transfer is always one datum, even when its bytes share a session
//! with others: the runtime registers each member of an FTP download batch
//! ([`FtpTransfer::download_batch`](bitdew_transport::ftp::FtpTransfer::download_batch))
//! through [`DataTransfer::submit_built`] as a view on the shared batch —
//! its own [`TransferId`], its own `probe` of its own slot, a `disconnect`
//! that never waits for the rest of the batch (the monitor step calls it
//! with the entries lock held). A member that fails retries like any other
//! transfer: through the builder, as a single resumable transfer. So
//! `wait`, retries, `completed_count` and reaping are per datum whether
//! the datum moved alone or in a batch.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use bitdew_transport::oob::{OobTransfer, TransferStatus, TransferVerdict};
use bitdew_transport::FileStore;

use crate::api::Result;
use crate::data::{Data, Locator};

/// Identifier of a transfer managed by DT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(pub u64);

/// Builds a protocol transfer for a datum/locator pair. Installed by the
/// runtime, which knows the fabric and protocol plumbing. Fails with the
/// crate-wide [`crate::api::BitdewError`] like every other core surface
/// (transport failures arrive wrapped in its `Transport` variant).
pub type TransferBuilder = Arc<
    dyn Fn(&Data, &Locator, Arc<dyn FileStore>) -> Result<Box<dyn OobTransfer + Send>>
        + Send
        + Sync,
>;

/// Lifecycle of a managed transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferState {
    /// Bytes are moving (or a retry is pending).
    Active,
    /// Delivered and verified.
    Complete,
    /// Abandoned after exhausting retries.
    Failed,
}

/// Snapshot of a transfer for callers.
#[derive(Debug, Clone)]
pub struct TransferReport {
    /// Current lifecycle state.
    pub state: TransferState,
    /// Last observed protocol status.
    pub status: TransferStatus,
    /// Attempts made so far (1 = first try).
    pub attempts: u32,
    /// Wall-clock start.
    pub started: Instant,
}

struct Entry {
    data: Data,
    locator: Locator,
    local: Arc<dyn FileStore>,
    transfer: Box<dyn OobTransfer + Send>,
    attempts: u32,
    state: TransferState,
    last_status: TransferStatus,
    started: Instant,
}

/// The Data Transfer service.
pub struct DataTransfer {
    builder: TransferBuilder,
    entries: Mutex<HashMap<TransferId, Entry>>,
    /// Signaled whenever a monitor step drives any transfer to a terminal
    /// state, so waiters park instead of polling (they wake the instant
    /// another thread's tick completes their transfer).
    progress: Condvar,
    next_id: AtomicU64,
    max_retries: u32,
    /// Total transfers that reached `Complete`.
    completed: AtomicU64,
    /// Total retry attempts issued (reliability accounting).
    retries: AtomicU64,
}

impl DataTransfer {
    /// DT with the given protocol builder; interrupted transfers are retried
    /// up to `max_retries` times before being abandoned.
    pub fn new(builder: TransferBuilder, max_retries: u32) -> Arc<DataTransfer> {
        Arc::new(DataTransfer {
            builder,
            entries: Mutex::new(HashMap::new()),
            progress: Condvar::new(),
            next_id: AtomicU64::new(1),
            max_retries,
            completed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        })
    }

    /// Register and start a download of `data` from `locator` into `local`.
    pub fn submit(
        &self,
        data: Data,
        locator: Locator,
        local: Arc<dyn FileStore>,
    ) -> Result<TransferId> {
        let transfer = (self.builder)(&data, &locator, Arc::clone(&local))?;
        self.submit_built(data, locator, local, transfer)
    }

    /// Register and start an already-built transfer — e.g. a
    /// [`MultiSourceFetcher`](crate::chunks::MultiSourceFetcher), which the
    /// runtime assembles from a chunk manifest and every known replica
    /// locator. DT monitors it like any other protocol; if it fails
    /// terminally, retries rebuild through the ordinary protocol builder
    /// with `locator`, so a multi-source fetch that loses every source
    /// degrades to the single-source resumable path.
    pub fn submit_built(
        &self,
        data: Data,
        locator: Locator,
        local: Arc<dyn FileStore>,
        mut transfer: Box<dyn OobTransfer + Send>,
    ) -> Result<TransferId> {
        transfer.connect()?;
        transfer.receive()?;
        let id = TransferId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let entry = Entry {
            last_status: TransferStatus {
                bytes_done: 0,
                bytes_total: data.size,
                outcome: None,
            },
            data,
            locator,
            local,
            transfer,
            attempts: 1,
            state: TransferState::Active,
            started: Instant::now(),
        };
        self.entries.lock().insert(id, entry);
        Ok(id)
    }

    /// One monitor step over all active transfers (the 500 ms loop). Returns
    /// the ids that reached a terminal state during this step.
    pub fn tick(&self) -> Vec<(TransferId, TransferState)> {
        let terminal = self.tick_inner();
        if !terminal.is_empty() {
            self.progress.notify_all();
        }
        terminal
    }

    fn tick_inner(&self) -> Vec<(TransferId, TransferState)> {
        let mut terminal = Vec::new();
        let mut entries = self.entries.lock();
        for (&id, entry) in entries.iter_mut() {
            if entry.state != TransferState::Active {
                continue;
            }
            let status = match entry.transfer.probe() {
                Ok(s) => s,
                Err(_) => TransferStatus {
                    bytes_done: entry.last_status.bytes_done,
                    bytes_total: entry.data.size,
                    outcome: Some(TransferVerdict::Interrupted),
                },
            };
            entry.last_status = status;
            match status.outcome {
                None => {}
                Some(TransferVerdict::Complete) => {
                    entry.state = TransferState::Complete;
                    let _ = entry.transfer.disconnect();
                    self.completed.fetch_add(1, Ordering::Relaxed);
                    terminal.push((id, TransferState::Complete));
                }
                Some(TransferVerdict::Interrupted) | Some(TransferVerdict::CorruptPayload) => {
                    let _ = entry.transfer.disconnect();
                    if entry.attempts > self.max_retries {
                        entry.state = TransferState::Failed;
                        terminal.push((id, TransferState::Failed));
                        continue;
                    }
                    // Rebuild and restart: the protocol resumes from the
                    // receiver's offset. A whole-object download that failed
                    // its MD5 check removed its local object, so a corrupt
                    // payload restarts at 0.
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    entry.attempts += 1;
                    match (self.builder)(&entry.data, &entry.locator, Arc::clone(&entry.local)) {
                        Ok(mut t) => {
                            let restarted = t.connect().and_then(|_| t.receive());
                            match restarted {
                                Ok(()) => entry.transfer = t,
                                Err(_) => {
                                    if entry.attempts > self.max_retries {
                                        entry.state = TransferState::Failed;
                                        terminal.push((id, TransferState::Failed));
                                    }
                                }
                            }
                        }
                        Err(_) => {
                            entry.state = TransferState::Failed;
                            terminal.push((id, TransferState::Failed));
                        }
                    }
                }
            }
        }
        terminal
    }

    /// Snapshot of one transfer.
    pub fn report(&self, id: TransferId) -> Option<TransferReport> {
        self.entries.lock().get(&id).map(|e| TransferReport {
            state: e.state,
            status: e.last_status,
            attempts: e.attempts,
            started: e.started,
        })
    }

    /// Block until `id` is terminal: run a monitor step, then park on the
    /// progress condvar up to `poll` — the wait wakes immediately when any
    /// other thread's tick drives a transfer to completion, and self-ticks
    /// on the timeout so progress never depends on a second driver.
    pub fn wait(&self, id: TransferId, poll: Duration) -> Option<TransferState> {
        loop {
            self.tick();
            {
                let mut entries = self.entries.lock();
                let state = entries.get(&id).map(|e| e.state)?;
                if state != TransferState::Active {
                    return Some(state);
                }
                self.progress.wait_for(&mut entries, poll);
            }
        }
    }

    /// Remove a terminal transfer's record; returns its final state.
    pub fn reap(&self, id: TransferId) -> Option<TransferState> {
        let mut entries = self.entries.lock();
        match entries.get(&id) {
            Some(e) if e.state != TransferState::Active => {
                let state = e.state;
                entries.remove(&id);
                Some(state)
            }
            _ => None,
        }
    }

    /// Number of transfers currently active.
    pub fn active_count(&self) -> usize {
        self.entries
            .lock()
            .values()
            .filter(|e| e.state == TransferState::Active)
            .count()
    }

    /// Transfers completed since startup.
    pub fn completed_count(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Retry attempts issued since startup.
    pub fn retry_count(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitdew_transport::ftp::{Direction, FtpServer, FtpTransfer};
    use bitdew_transport::oob::TransferSpec;
    use bitdew_transport::{Fabric, MemStore, ProtocolId};
    use bitdew_util::Auid;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ftp_builder(fabric: Fabric) -> TransferBuilder {
        Arc::new(move |data, locator, local| {
            let spec = TransferSpec {
                name: locator.object.clone(),
                bytes: data.size,
                checksum: if data.has_checksum() {
                    Some(data.checksum)
                } else {
                    None
                },
                remote: locator.remote.clone(),
            };
            Ok(Box::new(FtpTransfer::new(
                fabric.clone(),
                spec,
                local,
                Direction::Download,
            )))
        })
    }

    fn setup(content: &[u8]) -> (Fabric, FtpServer, Data, Locator, Arc<MemStore>) {
        let fabric = Fabric::new();
        let server_store = MemStore::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let data = Data::from_bytes(Auid::generate(0, &mut rng), "payload", content);
        server_store.put(&data.object_name(), content);
        let server = FtpServer::start(&fabric, "dr.ftp", server_store);
        let locator = Locator::new(&data, ProtocolId::ftp(), "dr.ftp");
        (fabric, server, data, locator, MemStore::new())
    }

    #[test]
    fn successful_transfer_lifecycle() {
        let content: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let (fabric, _server, data, locator, local) = setup(&content);
        let dt = DataTransfer::new(ftp_builder(fabric), 2);
        let id = dt
            .submit(data.clone(), locator, Arc::clone(&local) as _)
            .unwrap();
        assert_eq!(dt.active_count(), 1);
        let state = dt.wait(id, Duration::from_millis(2)).unwrap();
        assert_eq!(state, TransferState::Complete);
        assert_eq!(dt.completed_count(), 1);
        assert_eq!(dt.retry_count(), 0);
        let report = dt.report(id).unwrap();
        assert_eq!(report.attempts, 1);
        assert_eq!(report.status.bytes_done, content.len() as u64);
        assert_eq!(
            &local
                .read_at(&data.object_name(), 0, content.len())
                .unwrap()[..],
            &content[..]
        );
        assert_eq!(dt.reap(id), Some(TransferState::Complete));
        assert!(dt.report(id).is_none());
    }

    #[test]
    fn interrupted_transfer_is_resumed_automatically() {
        let content: Vec<u8> = (0..400_000u32).map(|i| (i % 251) as u8).collect();
        let (fabric, server, data, locator, local) = setup(&content);
        // First connection dies after 128 KiB.
        server.inject_drop_after(128 * 1024);
        let dt = DataTransfer::new(ftp_builder(fabric), 3);
        let id = dt
            .submit(data.clone(), locator, Arc::clone(&local) as _)
            .unwrap();
        let state = dt.wait(id, Duration::from_millis(2)).unwrap();
        assert_eq!(state, TransferState::Complete);
        assert!(dt.retry_count() >= 1, "a resume happened");
        assert!(dt.report(id).unwrap().attempts >= 2);
        assert_eq!(
            &local
                .read_at(&data.object_name(), 0, content.len())
                .unwrap()[..],
            &content[..]
        );
    }

    #[test]
    fn a_complete_but_corrupt_local_object_heals_in_one_retry() {
        let content: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let (fabric, _server, data, locator, local) = setup(&content);
        // Full length, wrong bytes: resuming from its size would fetch
        // nothing and fail the digest again, forever.
        local.put(&data.object_name(), &vec![0xAB; content.len()]);
        let dt = DataTransfer::new(ftp_builder(fabric), 3);
        let id = dt
            .submit(data.clone(), locator, Arc::clone(&local) as _)
            .unwrap();
        assert_eq!(
            dt.wait(id, Duration::from_millis(2)),
            Some(TransferState::Complete)
        );
        assert_eq!(dt.retry_count(), 1);
        assert_eq!(dt.report(id).unwrap().attempts, 2);
        assert_eq!(
            &local
                .read_at(&data.object_name(), 0, content.len())
                .unwrap()[..],
            &content[..]
        );
    }

    #[test]
    fn transfer_fails_after_max_retries() {
        let content = vec![7u8; 50_000];
        let (fabric, server, data, locator, local) = setup(&content);
        // Kill the server entirely: every retry hits a missing listener.
        drop(server);
        let dt = DataTransfer::new(ftp_builder(fabric), 2);
        // submit() itself errors because connect() can't find the listener.
        assert!(dt.submit(data, locator, local as _).is_err());
    }

    #[test]
    fn repeated_interruptions_exhaust_retries() {
        let content: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        let fabric = Fabric::new();
        let server_store = MemStore::new();
        let mut rng = SmallRng::seed_from_u64(4);
        let data = Data::from_bytes(Auid::generate(0, &mut rng), "p", &content);
        server_store.put(&data.object_name(), &content);
        let server = FtpServer::start(&fabric, "dr.ftp", server_store);
        let locator = Locator::new(&data, ProtocolId::ftp(), "dr.ftp");
        let local = MemStore::new();
        let dt = DataTransfer::new(ftp_builder(fabric), 1);
        // Make every connection die immediately (before any payload).
        server.inject_drop_after(0);
        let id = dt.submit(data, locator, local as _).unwrap();
        server.inject_drop_after(0);
        // Drive ticks until terminal; re-inject the fault before each tick so
        // every retry also dies.
        let state = loop {
            server.inject_drop_after(0);
            for (tid, st) in dt.tick() {
                if tid == id {
                    // terminal
                    assert!(st == TransferState::Failed || st == TransferState::Complete);
                }
            }
            match dt.report(id).unwrap().state {
                TransferState::Active => std::thread::sleep(Duration::from_millis(2)),
                terminal => break terminal,
            }
        };
        assert_eq!(state, TransferState::Failed);
        assert!(dt.report(id).unwrap().attempts >= 2);
    }

    #[test]
    fn concurrent_transfers_tracked_independently() {
        let content: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let (fabric, _server, data, locator, _) = setup(&content);
        let dt = DataTransfer::new(ftp_builder(fabric), 2);
        let mut ids = Vec::new();
        let mut stores = Vec::new();
        for _ in 0..5 {
            let local = MemStore::new();
            ids.push(
                dt.submit(data.clone(), locator.clone(), Arc::clone(&local) as _)
                    .unwrap(),
            );
            stores.push(local);
        }
        for id in &ids {
            assert_eq!(
                dt.wait(*id, Duration::from_millis(2)),
                Some(TransferState::Complete)
            );
        }
        assert_eq!(dt.completed_count(), 5);
        for s in &stores {
            assert_eq!(
                &s.read_at(&data.object_name(), 0, content.len()).unwrap()[..],
                &content[..]
            );
        }
    }
}
