//! Byte-level communication accounting for the federated simulation
//! (paper Fig. 7): every parameter upload and download is priced at its
//! `f64` wire size.

/// Running totals of data moved between clients and the server. Lossy links
/// re-send messages: every retransmission is priced like a first send *and*
/// tracked in the `retried_*` counters, so retries can only grow the totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    pub uploaded_bytes: usize,
    pub downloaded_bytes: usize,
    pub upload_messages: usize,
    pub download_messages: usize,
    /// Retransmissions (in either direction) after a lost first attempt.
    pub retried_messages: usize,
    /// Bytes consumed by those retransmissions (already included in the
    /// directional totals above).
    pub retried_bytes: usize,
    /// Aggregator-hop traffic (hierarchical topology only): pre-aggregated
    /// cohort updates each edge aggregator forwards to the server, one
    /// message per active aggregator per round.
    pub agg_forward_bytes: usize,
    pub agg_forward_messages: usize,
    /// Server aggregates broadcast back down the trunk to the aggregators
    /// (only on committed rounds — an aborted round broadcasts nothing).
    pub agg_broadcast_bytes: usize,
    pub agg_broadcast_messages: usize,
}

impl CommStats {
    pub fn record_upload(&mut self, bytes: usize) {
        self.uploaded_bytes += bytes;
        self.upload_messages += 1;
    }

    pub fn record_download(&mut self, bytes: usize) {
        self.downloaded_bytes += bytes;
        self.download_messages += 1;
    }

    /// Prices one upload that needed `attempts` transmissions (lost links
    /// re-send the same bytes; attempts beyond the first count as retries).
    pub fn record_upload_attempts(&mut self, bytes: usize, attempts: usize) {
        for _ in 0..attempts.max(1) {
            self.record_upload(bytes);
        }
        self.record_retries(bytes, attempts);
    }

    /// Prices one download that needed `attempts` transmissions.
    pub fn record_download_attempts(&mut self, bytes: usize, attempts: usize) {
        for _ in 0..attempts.max(1) {
            self.record_download(bytes);
        }
        self.record_retries(bytes, attempts);
    }

    /// Prices one aggregator→server trunk message carrying a pre-aggregated
    /// cohort update.
    pub fn record_agg_forward(&mut self, bytes: usize) {
        self.agg_forward_bytes += bytes;
        self.agg_forward_messages += 1;
    }

    /// Prices one server→aggregator trunk message carrying the committed
    /// aggregate back down for cohort distribution.
    pub fn record_agg_broadcast(&mut self, bytes: usize) {
        self.agg_broadcast_bytes += bytes;
        self.agg_broadcast_messages += 1;
    }

    fn record_retries(&mut self, bytes: usize, attempts: usize) {
        let retries = attempts.saturating_sub(1);
        self.retried_messages += retries;
        self.retried_bytes += retries * bytes;
    }

    /// Checks the invariants that hold by construction: retries are a subset
    /// of messages, retry bytes are a subset of moved bytes, and bytes never
    /// move without a message. Returns the first violated invariant; the
    /// simulator debug-asserts this at every round end.
    pub fn validate(&self) -> Result<(), String> {
        if self.retried_messages > self.upload_messages + self.download_messages {
            return Err(format!(
                "retried_messages {} exceeds total messages {}",
                self.retried_messages,
                self.upload_messages + self.download_messages
            ));
        }
        if self.retried_bytes > self.uploaded_bytes + self.downloaded_bytes {
            return Err(format!(
                "retried_bytes {} exceeds total bytes {}",
                self.retried_bytes,
                self.uploaded_bytes + self.downloaded_bytes
            ));
        }
        if self.upload_messages == 0 && self.uploaded_bytes != 0 {
            return Err(format!(
                "{} uploaded bytes without an upload message",
                self.uploaded_bytes
            ));
        }
        if self.download_messages == 0 && self.downloaded_bytes != 0 {
            return Err(format!(
                "{} downloaded bytes without a download message",
                self.downloaded_bytes
            ));
        }
        if self.agg_forward_messages == 0 && self.agg_forward_bytes != 0 {
            return Err(format!(
                "{} aggregator-forward bytes without a forward message",
                self.agg_forward_bytes
            ));
        }
        if self.agg_broadcast_messages == 0 && self.agg_broadcast_bytes != 0 {
            return Err(format!(
                "{} aggregator-broadcast bytes without a broadcast message",
                self.agg_broadcast_bytes
            ));
        }
        Ok(())
    }

    /// The traffic recorded since `earlier`, which must be a snapshot of
    /// this accumulator taken at some previous point (counters only grow, so
    /// the difference is well-defined; saturating keeps a misuse from
    /// panicking in release builds).
    pub fn delta_since(&self, earlier: &CommStats) -> CommStats {
        CommStats {
            uploaded_bytes: self.uploaded_bytes.saturating_sub(earlier.uploaded_bytes),
            downloaded_bytes: self
                .downloaded_bytes
                .saturating_sub(earlier.downloaded_bytes),
            upload_messages: self.upload_messages.saturating_sub(earlier.upload_messages),
            download_messages: self
                .download_messages
                .saturating_sub(earlier.download_messages),
            retried_messages: self
                .retried_messages
                .saturating_sub(earlier.retried_messages),
            retried_bytes: self.retried_bytes.saturating_sub(earlier.retried_bytes),
            agg_forward_bytes: self
                .agg_forward_bytes
                .saturating_sub(earlier.agg_forward_bytes),
            agg_forward_messages: self
                .agg_forward_messages
                .saturating_sub(earlier.agg_forward_messages),
            agg_broadcast_bytes: self
                .agg_broadcast_bytes
                .saturating_sub(earlier.agg_broadcast_bytes),
            agg_broadcast_messages: self
                .agg_broadcast_messages
                .saturating_sub(earlier.agg_broadcast_messages),
        }
    }

    /// Total bytes moved anywhere in the tree: client links plus the
    /// aggregator→server trunk (zero on flat topologies).
    pub fn total_bytes(&self) -> usize {
        self.uploaded_bytes
            + self.downloaded_bytes
            + self.agg_forward_bytes
            + self.agg_broadcast_bytes
    }

    /// Total transferred data in megabytes.
    pub fn total_mb(&self) -> f64 {
        self.total_bytes() as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate() {
        let mut c = CommStats::default();
        c.record_upload(100);
        c.record_upload(50);
        c.record_download(200);
        assert_eq!(c.uploaded_bytes, 150);
        assert_eq!(c.downloaded_bytes, 200);
        assert_eq!(c.total_bytes(), 350);
        assert_eq!(c.upload_messages, 2);
        assert_eq!(c.download_messages, 1);
    }

    #[test]
    fn retries_are_priced_and_tracked() {
        let mut c = CommStats::default();
        c.record_upload_attempts(100, 3); // 1 send + 2 retries
        c.record_download_attempts(40, 1); // clean delivery
        assert_eq!(c.uploaded_bytes, 300);
        assert_eq!(c.upload_messages, 3);
        assert_eq!(c.downloaded_bytes, 40);
        assert_eq!(c.retried_messages, 2);
        assert_eq!(c.retried_bytes, 200);
    }

    #[test]
    fn validate_accepts_recorded_traffic_and_rejects_forgeries() {
        let mut c = CommStats::default();
        assert!(c.validate().is_ok(), "empty stats are consistent");
        c.record_upload_attempts(100, 3);
        c.record_download_attempts(40, 2);
        assert!(c.validate().is_ok(), "recorded traffic is consistent");

        let forged = CommStats {
            retried_messages: 10,
            ..CommStats::default()
        };
        assert!(forged.validate().is_err(), "retries without messages");
        let forged = CommStats {
            uploaded_bytes: 64,
            ..CommStats::default()
        };
        assert!(forged.validate().is_err(), "bytes without messages");
        let forged = CommStats {
            uploaded_bytes: 10,
            upload_messages: 1,
            retried_bytes: 100,
            retried_messages: 1,
            ..CommStats::default()
        };
        assert!(forged.validate().is_err(), "retry bytes exceed totals");
    }

    #[test]
    fn aggregator_hop_is_priced_and_validated() {
        let mut c = CommStats::default();
        c.record_agg_forward(500);
        c.record_agg_forward(500);
        c.record_agg_broadcast(300);
        assert_eq!(c.agg_forward_bytes, 1000);
        assert_eq!(c.agg_forward_messages, 2);
        assert_eq!(c.agg_broadcast_bytes, 300);
        assert_eq!(c.agg_broadcast_messages, 1);
        assert_eq!(c.total_bytes(), 1300);
        assert!(c.validate().is_ok());

        let forged = CommStats {
            agg_forward_bytes: 64,
            ..CommStats::default()
        };
        assert!(forged.validate().is_err(), "forward bytes without message");
        let forged = CommStats {
            agg_broadcast_bytes: 64,
            ..CommStats::default()
        };
        assert!(
            forged.validate().is_err(),
            "broadcast bytes without message"
        );

        let later = {
            let mut l = c;
            l.record_agg_forward(100);
            l
        };
        let d = later.delta_since(&c);
        assert_eq!(d.agg_forward_bytes, 100);
        assert_eq!(d.agg_forward_messages, 1);
        assert_eq!(d.agg_broadcast_messages, 0);
    }

    #[test]
    fn megabytes_conversion() {
        let mut c = CommStats::default();
        c.record_upload(1024 * 1024);
        assert!((c.total_mb() - 1.0).abs() < 1e-12);
    }
}
