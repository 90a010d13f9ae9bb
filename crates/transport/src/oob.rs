//! The out-of-band transfer framework — Figure 2 of the paper.
//!
//! BitDew "does not propose new protocol to transfer data from node to node,
//! instead, data are moved by out-of-band transfer" (§3.4.2). Plugging in a
//! protocol means implementing seven methods: open and close the connection,
//! probe the end of the transfer, and send/receive from the sender and
//! receiver sides — with blocking and non-blocking flavours, plus a
//! [`DaemonConnector`] helper for protocols shipped as background daemons
//! (the paper's BTPD case) rather than libraries (its Azureus case).
//!
//! The Data Transfer service drives any [`OobTransfer`] the same way:
//! `connect → send/receive → poll probe → verify checksum → disconnect`,
//! with *receiver-driven* completion checking — the receiver verifies size
//! and MD5, so every protocol gets integrity and resume for free.

use bitdew_util::md5::Md5Digest;

/// What a transfer moves and where.
#[derive(Debug, Clone)]
pub struct TransferSpec {
    /// Object name in the source store.
    pub name: String,
    /// Total payload size in bytes.
    pub bytes: u64,
    /// Expected content digest (verified receiver-side when present).
    pub checksum: Option<Md5Digest>,
    /// Protocol-specific remote endpoint (e.g. fabric listener name).
    pub remote: String,
}

/// Progress snapshot returned by `probe`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferStatus {
    /// Bytes confirmed at the receiver.
    pub bytes_done: u64,
    /// Total bytes expected.
    pub bytes_total: u64,
    /// Terminal state, if reached.
    pub outcome: Option<TransferVerdict>,
}

/// Terminal state of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferVerdict {
    /// All bytes arrived and the checksum (if any) matched.
    Complete,
    /// The transfer failed and may be resumed from `bytes_done`.
    Interrupted,
    /// The payload arrived but failed integrity verification.
    CorruptPayload,
}

impl TransferStatus {
    /// Convenience: a finished, verified status.
    pub fn complete(total: u64) -> TransferStatus {
        TransferStatus {
            bytes_done: total,
            bytes_total: total,
            outcome: Some(TransferVerdict::Complete),
        }
    }

    /// Fraction complete in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.bytes_total == 0 {
            1.0
        } else {
            self.bytes_done as f64 / self.bytes_total as f64
        }
    }
}

/// Transport errors.
#[derive(Debug)]
pub enum TransportError {
    /// Could not reach the remote endpoint.
    ConnectFailed(String),
    /// The connection dropped mid-transfer.
    Interrupted(String),
    /// Receiver-side integrity check failed.
    ChecksumMismatch,
    /// The requested object is missing at the source.
    NoSuchObject(String),
    /// Local storage failure.
    Store(crate::store::StoreError),
    /// Protocol violation.
    Protocol(String),
}

impl From<crate::store::StoreError> for TransportError {
    fn from(e: crate::store::StoreError) -> Self {
        TransportError::Store(e)
    }
}

/// A fabric failure on an established connection interrupts the transfer
/// (resumable); connecting is the one call whose failure means something
/// else, and its callers map that themselves.
impl From<crate::fabric::FabricError> for TransportError {
    fn from(e: crate::fabric::FabricError) -> Self {
        TransportError::Interrupted(e.to_string())
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::ConnectFailed(w) => write!(f, "connect failed: {w}"),
            TransportError::Interrupted(w) => write!(f, "transfer interrupted: {w}"),
            TransportError::ChecksumMismatch => write!(f, "checksum mismatch"),
            TransportError::NoSuchObject(n) => write!(f, "no such object: {n}"),
            TransportError::Store(e) => write!(f, "store error: {e}"),
            TransportError::Protocol(w) => write!(f, "protocol error: {w}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Result alias for transport operations.
pub type TransportResult<T> = Result<T, TransportError>;

/// The seven-method protocol contract of Fig. 2.
pub trait OobTransfer {
    /// Open the connection to the remote endpoint.
    fn connect(&mut self) -> TransportResult<()>;
    /// Close the connection (idempotent).
    fn disconnect(&mut self) -> TransportResult<()>;
    /// Check the state of the transfer (receiver-driven: implementations
    /// report *verified* receiver progress).
    fn probe(&mut self) -> TransportResult<TransferStatus>;
    /// Sender-side: make the payload available / push it.
    fn send(&mut self) -> TransportResult<()>;
    /// Receiver-side: pull the payload into the local store.
    fn receive(&mut self) -> TransportResult<()>;
}

/// Blocking protocols: `receive`/`send` return only on a terminal state.
pub trait BlockingOobTransfer: OobTransfer {
    /// Run the receiver side to completion (or failure).
    fn receive_blocking(&mut self) -> TransportResult<TransferStatus> {
        self.receive()?;
        self.probe()
    }

    /// Run the sender side to completion (or failure).
    fn send_blocking(&mut self) -> TransportResult<TransferStatus> {
        self.send()?;
        self.probe()
    }
}

/// Non-blocking protocols: `receive`/`send` start the work; callers poll
/// [`OobTransfer::probe`] until a terminal [`TransferVerdict`] appears.
pub trait NonBlockingOobTransfer: OobTransfer {
    /// Poll until terminal, sleeping `poll_interval` between probes. This is
    /// the loop the DT service runs with its 500 ms monitor period (§4.3).
    fn wait(&mut self, poll_interval: std::time::Duration) -> TransportResult<TransferStatus> {
        loop {
            let status = self.probe()?;
            if status.outcome.is_some() {
                return Ok(status);
            }
            std::thread::sleep(poll_interval);
        }
    }
}

/// Helper for protocols provided as daemons (BTPD-style): the runtime starts
/// the daemon once and issues orders to it, instead of linking a library.
pub trait DaemonConnector {
    /// Launch the background daemon; idempotent.
    fn daemon_start(&mut self) -> TransportResult<()>;
    /// Stop the daemon and release its resources.
    fn daemon_stop(&mut self) -> TransportResult<()>;
    /// Whether the daemon is currently serving.
    fn daemon_running(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_progress() {
        let s = TransferStatus {
            bytes_done: 25,
            bytes_total: 100,
            outcome: None,
        };
        assert!((s.progress() - 0.25).abs() < 1e-12);
        let done = TransferStatus::complete(0);
        assert_eq!(done.progress(), 1.0);
        assert_eq!(done.outcome, Some(TransferVerdict::Complete));
    }

    /// A toy in-memory protocol exercising the default blocking adapters.
    struct Instant {
        done: bool,
        total: u64,
    }

    impl OobTransfer for Instant {
        fn connect(&mut self) -> TransportResult<()> {
            Ok(())
        }
        fn disconnect(&mut self) -> TransportResult<()> {
            Ok(())
        }
        fn probe(&mut self) -> TransportResult<TransferStatus> {
            Ok(if self.done {
                TransferStatus::complete(self.total)
            } else {
                TransferStatus {
                    bytes_done: 0,
                    bytes_total: self.total,
                    outcome: None,
                }
            })
        }
        fn send(&mut self) -> TransportResult<()> {
            self.done = true;
            Ok(())
        }
        fn receive(&mut self) -> TransportResult<()> {
            self.done = true;
            Ok(())
        }
    }

    impl BlockingOobTransfer for Instant {}
    impl NonBlockingOobTransfer for Instant {}

    #[test]
    fn blocking_adapter_runs_to_completion() {
        let mut t = Instant {
            done: false,
            total: 10,
        };
        let status = t.receive_blocking().unwrap();
        assert_eq!(status.outcome, Some(TransferVerdict::Complete));
        let mut t = Instant {
            done: false,
            total: 10,
        };
        assert_eq!(t.send_blocking().unwrap().bytes_done, 10);
    }

    #[test]
    fn nonblocking_wait_polls_probe() {
        let mut t = Instant {
            done: false,
            total: 4,
        };
        t.receive().unwrap();
        let status = t.wait(std::time::Duration::from_millis(1)).unwrap();
        assert_eq!(status.outcome, Some(TransferVerdict::Complete));
    }
}
