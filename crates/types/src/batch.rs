//! Columnar (struct-of-arrays) record batches.
//!
//! Analysis passes such as the stability grouping touch only one or
//! two fields of every [`NdtRecord`], but the row layout walks 56-byte
//! structs and drags the unused fields through the cache with them. A
//! [`RecordBatch`] stores the same records as parallel columns, so a
//! pass over ASNs and latencies streams two dense `Vec`s instead.
//!
//! Layout (one row per record, columns contiguous):
//!
//! ```text
//! row i:   timestamps[i]  clients[i]  asns[i]  latency_p5[i]  jitter_p95[i]  retrans[i]  download[i]
//!          Vec<Timestamp> Vec<Ipv4>   Vec<Asn> Vec<f64>       Vec<f64>       Vec<f64>    Vec<f64>
//! ```
//!
//! Batches are built from any [`RecordChunks`] stream or in one shot
//! from a slice, for passes that read a column many times (the
//! analyses). The streamed pipeline's statistics pass reads three
//! fields of each record once, so it folds decoded rows directly
//! instead of copying them into seven columns first. Column order is
//! record order; [`RecordBatch::record`] reconstructs row `i` exactly,
//! so the columnar and row paths are interchangeable bit for bit.

use crate::chunk::RecordChunks;
use crate::records::NdtRecord;
use crate::{Asn, Ipv4, Prefix24, Timestamp};

/// A struct-of-arrays batch of NDT records. All columns always have the
/// same length; `push` is the only way rows enter, so the invariant
/// holds by construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordBatch {
    timestamps: Vec<Timestamp>,
    clients: Vec<Ipv4>,
    asns: Vec<Asn>,
    latency_p5: Vec<f64>,
    jitter_p95: Vec<f64>,
    retrans_fraction: Vec<f64>,
    download: Vec<f64>,
}

impl RecordBatch {
    /// An empty batch.
    pub fn new() -> RecordBatch {
        RecordBatch::default()
    }

    /// An empty batch with room for `capacity` rows per column.
    pub fn with_capacity(capacity: usize) -> RecordBatch {
        RecordBatch {
            timestamps: Vec::with_capacity(capacity),
            clients: Vec::with_capacity(capacity),
            asns: Vec::with_capacity(capacity),
            latency_p5: Vec::with_capacity(capacity),
            jitter_p95: Vec::with_capacity(capacity),
            retrans_fraction: Vec::with_capacity(capacity),
            download: Vec::with_capacity(capacity),
        }
    }

    /// Append one record as a row.
    pub fn push(&mut self, rec: &NdtRecord) {
        self.timestamps.push(rec.timestamp);
        self.clients.push(rec.client);
        self.asns.push(rec.asn);
        self.latency_p5.push(rec.latency_p5.0);
        self.jitter_p95.push(rec.jitter_p95.0);
        self.retrans_fraction.push(rec.retrans_fraction);
        self.download.push(rec.download.0);
    }

    /// Append every record of a slice, in order, growing each column
    /// once for the whole slice.
    pub fn extend_from_records(&mut self, records: &[NdtRecord]) {
        let n = records.len();
        self.timestamps.reserve(n);
        self.clients.reserve(n);
        self.asns.reserve(n);
        self.latency_p5.reserve(n);
        self.jitter_p95.reserve(n);
        self.retrans_fraction.reserve(n);
        self.download.reserve(n);
        for rec in records {
            self.push(rec);
        }
    }

    /// Columnarize a materialized slice.
    pub fn from_records(records: &[NdtRecord]) -> RecordBatch {
        let mut batch = RecordBatch::with_capacity(records.len());
        batch.extend_from_records(records);
        batch
    }

    /// Drain a chunked stream into one batch (rows in stream order —
    /// the same order [`RecordChunks::collect_records`] yields).
    pub fn from_chunks<C>(stream: C) -> RecordBatch
    where
        C: RecordChunks<Item = NdtRecord>,
    {
        stream.fold_chunks(RecordBatch::new(), |mut batch, chunk| {
            batch.extend_from_records(&chunk);
            batch
        })
    }

    /// Rows in the batch.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// True when the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Reconstruct row `i` as the record it came from.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn record(&self, i: usize) -> NdtRecord {
        NdtRecord {
            timestamp: self.timestamps[i],
            client: self.clients[i],
            asn: self.asns[i],
            latency_p5: crate::Millis(self.latency_p5[i]),
            jitter_p95: crate::Millis(self.jitter_p95[i]),
            retrans_fraction: self.retrans_fraction[i],
            download: crate::Mbps(self.download[i]),
        }
    }

    /// The `/24` prefix of row `i`'s client address.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn prefix24(&self, i: usize) -> Prefix24 {
        self.clients[i].prefix24()
    }

    /// The timestamp column.
    pub fn timestamps(&self) -> &[Timestamp] {
        &self.timestamps
    }

    /// The client-address column.
    pub fn clients(&self) -> &[Ipv4] {
        &self.clients
    }

    /// The ASN column.
    pub fn asns(&self) -> &[Asn] {
        &self.asns
    }

    /// The p5-latency column (ms).
    pub fn latency_p5(&self) -> &[f64] {
        &self.latency_p5
    }

    /// The p95-jitter column (ms).
    pub fn jitter_p95(&self) -> &[f64] {
        &self.jitter_p95
    }

    /// The retransmitted-byte-fraction column.
    pub fn retrans_fraction(&self) -> &[f64] {
        &self.retrans_fraction
    }

    /// The mean-download-rate column (Mbps).
    pub fn download(&self) -> &[f64] {
        &self.download
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::slice_chunks;
    use crate::{Mbps, Millis};

    fn sample(n: usize) -> Vec<NdtRecord> {
        (0..n)
            .map(|i| NdtRecord {
                timestamp: Timestamp(1_000 * i as u64),
                client: Ipv4::new(45, 232, (i % 256) as u8, (i % 200) as u8 + 1),
                asn: Asn(14593 + (i % 3) as u32),
                latency_p5: Millis(50.0 + i as f64 * 0.25),
                jitter_p95: Millis(10.0 + i as f64 * 0.125),
                retrans_fraction: (i % 10) as f64 / 100.0,
                download: Mbps(100.0 - i as f64 * 0.5),
            })
            .collect()
    }

    #[test]
    fn round_trips_rows() {
        let records = sample(37);
        let batch = RecordBatch::from_records(&records);
        assert_eq!(batch.len(), records.len());
        assert!(!batch.is_empty());
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(&batch.record(i), rec, "row {i}");
            assert_eq!(batch.prefix24(i), rec.client.prefix24(), "row {i}");
        }
    }

    #[test]
    fn from_chunks_matches_from_records_at_any_chunk_len() {
        let records = sample(101);
        let whole = RecordBatch::from_records(&records);
        for chunk_len in [1usize, 7, 101, 4096] {
            let chunked = RecordBatch::from_chunks(slice_chunks(&records, chunk_len));
            assert_eq!(chunked, whole, "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn chunked_build_reserves_every_column() {
        // Each extend reserves the chunk in all seven columns, so every
        // column grows like the timestamps do and covers its rows; a
        // column left to regrow by doubling ends on another capacity.
        let records = sample(101);
        let batch = RecordBatch::from_chunks(slice_chunks(&records, 7));
        let capacities = [
            batch.timestamps.capacity(),
            batch.clients.capacity(),
            batch.asns.capacity(),
            batch.latency_p5.capacity(),
            batch.jitter_p95.capacity(),
            batch.retrans_fraction.capacity(),
            batch.download.capacity(),
        ];
        assert!(capacities[0] >= batch.len(), "{capacities:?}");
        assert!(
            capacities.iter().all(|&c| c == capacities[0]),
            "{capacities:?}"
        );
    }

    #[test]
    fn columns_are_parallel() {
        let records = sample(16);
        let batch = RecordBatch::from_records(&records);
        assert_eq!(batch.timestamps().len(), batch.len());
        assert_eq!(batch.clients().len(), batch.len());
        assert_eq!(batch.asns().len(), batch.len());
        assert_eq!(batch.latency_p5().len(), batch.len());
        assert_eq!(batch.jitter_p95().len(), batch.len());
        assert_eq!(batch.retrans_fraction().len(), batch.len());
        assert_eq!(batch.download().len(), batch.len());
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(batch.asns()[i], rec.asn);
            assert_eq!(batch.latency_p5()[i], rec.latency_p5.0);
        }
    }

    #[test]
    fn empty_batch() {
        let batch = RecordBatch::new();
        assert_eq!(batch.len(), 0);
        assert!(batch.is_empty());
        let from_empty = RecordBatch::from_records(&[]);
        assert_eq!(from_empty, batch);
    }
}
