//! Compact binary corpus format: length-prefixed little-endian record
//! frames behind a versioned header.
//!
//! An encoded corpus is a chunked source that streams any number of
//! times without re-running the generator that produced it: ~52 bytes
//! per record, decoded back bit-for-bit (floats travel as raw IEEE-754
//! bits, so even NaN payloads survive). A caller that identifies one
//! corpus repeatedly can pay generation once.
//!
//! Wire layout, all integers little-endian:
//!
//! ```text
//! header   "SNOC"  version:u16  reserved:u16  count:u64            (16 bytes)
//! frame    len:u32  timestamp:u64  client:u32  asn:u32
//!          latency_p5:f64  jitter_p95:f64  retrans:f64  download:f64 (4 + 48 bytes)
//! ```
//!
//! `len` names the frame body length so later versions can grow frames
//! without breaking old readers; version-1 bodies are always 48 bytes.
//! [`EncodedCorpus::from_bytes`] validates the whole buffer up front,
//! which is why [`EncodedCorpus::chunks`] can decode infallibly.

use crate::chunk::RecordChunks;
use crate::records::NdtRecord;
use crate::{Asn, Ipv4, Mbps, Millis, Timestamp};
use std::fmt;

/// File magic: the first four header bytes.
pub const MAGIC: [u8; 4] = *b"SNOC";

/// The format version this module writes.
pub const VERSION: u16 = 1;

const HEADER_LEN: usize = 16;
const FRAME_BODY_LEN: usize = 48;
const FRAME_LEN: usize = 4 + FRAME_BODY_LEN;

/// Why a byte buffer was rejected as an encoded corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer is shorter than a header or ends mid-frame.
    Truncated,
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The header names a version this reader does not speak.
    UnsupportedVersion(u16),
    /// A frame's length prefix disagrees with the version-1 body size.
    BadFrameLength {
        /// Frame index (0-based).
        index: u64,
        /// The length the prefix claimed.
        len: u32,
    },
    /// The header count disagrees with the frames actually present.
    CountMismatch {
        /// What the header promised.
        header: u64,
        /// Frames found in the buffer.
        actual: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer truncated mid-header or mid-frame"),
            CodecError::BadMagic(m) => write!(f, "bad magic {m:?} (want {MAGIC:?})"),
            CodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported version {v} (this reader speaks {VERSION})")
            }
            CodecError::BadFrameLength { index, len } => {
                write!(
                    f,
                    "frame {index}: body length {len} (want {FRAME_BODY_LEN})"
                )
            }
            CodecError::CountMismatch { header, actual } => {
                write!(f, "header promises {header} records, buffer holds {actual}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

fn read_u32(bytes: &[u8]) -> u32 {
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&bytes[..4]);
    u32::from_le_bytes(buf)
}

fn read_u64(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(buf)
}

fn read_u16(bytes: &[u8]) -> u16 {
    let mut buf = [0u8; 2];
    buf.copy_from_slice(&bytes[..2]);
    u16::from_le_bytes(buf)
}

/// The next `N` bytes of a frame body, advancing past them. A body is
/// [`FRAME_BODY_LEN`] bytes and its fields add up to exactly that, so
/// every split succeeds; a short body would read zeros, never panic.
fn take<const N: usize>(bytes: &mut &[u8]) -> [u8; N] {
    match bytes.split_first_chunk::<N>() {
        Some((field, rest)) => {
            *bytes = rest;
            *field
        }
        None => [0; N],
    }
}

/// Decode one frame body, its fields in wire order.
fn decode_body(body: &[u8; FRAME_BODY_LEN]) -> NdtRecord {
    let mut bytes: &[u8] = body;
    let timestamp = Timestamp(u64::from_le_bytes(take(&mut bytes)));
    let client = Ipv4(u32::from_le_bytes(take(&mut bytes)));
    let asn = Asn(u32::from_le_bytes(take(&mut bytes)));
    let mut float = || f64::from_bits(u64::from_le_bytes(take(&mut bytes)));
    NdtRecord {
        timestamp,
        client,
        asn,
        latency_p5: Millis(float()),
        jitter_p95: Millis(float()),
        retrans_fraction: float(),
        download: Mbps(float()),
    }
}

/// A validated encoded corpus: header plus `len()` record frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedCorpus {
    bytes: Vec<u8>,
    count: u64,
}

impl EncodedCorpus {
    /// Records in the corpus.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when no records are encoded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The raw wire bytes (header included).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Validate `bytes` as a version-1 corpus: magic, version, every
    /// frame length, and the header count.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<EncodedCorpus, CodecError> {
        if bytes.len() < HEADER_LEN {
            return Err(CodecError::Truncated);
        }
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&bytes[..4]);
        if magic != MAGIC {
            return Err(CodecError::BadMagic(magic));
        }
        let version = read_u16(&bytes[4..6]);
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let header_count = read_u64(&bytes[8..16]);
        let mut offset = HEADER_LEN;
        let mut actual = 0u64;
        while offset < bytes.len() {
            if bytes.len() - offset < 4 {
                return Err(CodecError::Truncated);
            }
            let len = read_u32(&bytes[offset..offset + 4]);
            if len as usize != FRAME_BODY_LEN {
                return Err(CodecError::BadFrameLength { index: actual, len });
            }
            if bytes.len() - offset < FRAME_LEN {
                return Err(CodecError::Truncated);
            }
            offset += FRAME_LEN;
            actual += 1;
        }
        if actual != header_count {
            return Err(CodecError::CountMismatch {
                header: header_count,
                actual,
            });
        }
        Ok(EncodedCorpus {
            bytes,
            count: actual,
        })
    }

    /// Stream the records back in chunks of at most `chunk_len`.
    ///
    /// # Panics
    /// Panics if `chunk_len == 0`.
    pub fn chunks(&self, chunk_len: usize) -> DecodeChunks<'_> {
        assert!(chunk_len > 0, "chunks: chunk_len must be positive");
        DecodeChunks {
            bytes: &self.bytes,
            offset: HEADER_LEN,
            chunk_len,
        }
    }

    /// Decode every record at once.
    pub fn decode_records(&self) -> Vec<NdtRecord> {
        self.chunks(self.len().max(1)).collect_records()
    }
}

/// Encode records (a slice, or streamed with [`Encoder`]) into an
/// [`EncodedCorpus`].
pub fn encode_records(records: &[NdtRecord]) -> EncodedCorpus {
    let mut enc = Encoder::new();
    enc.extend_records(records);
    enc.finish()
}

/// Incremental encoder: push chunks as they stream by, then `finish`.
#[derive(Debug, Clone)]
pub struct Encoder {
    bytes: Vec<u8>,
    count: u64,
}

impl Encoder {
    /// An encoder holding an empty corpus.
    pub fn new() -> Encoder {
        let mut bytes = Vec::with_capacity(HEADER_LEN);
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes()); // reserved
        bytes.extend_from_slice(&0u64.to_le_bytes()); // count, patched by finish
        Encoder { bytes, count: 0 }
    }

    /// Append one record frame.
    pub fn push(&mut self, rec: &NdtRecord) {
        self.bytes.reserve(FRAME_LEN);
        self.bytes
            .extend_from_slice(&(FRAME_BODY_LEN as u32).to_le_bytes());
        self.bytes.extend_from_slice(&rec.timestamp.0.to_le_bytes());
        self.bytes.extend_from_slice(&rec.client.0.to_le_bytes());
        self.bytes.extend_from_slice(&rec.asn.0.to_le_bytes());
        self.bytes
            .extend_from_slice(&rec.latency_p5.0.to_bits().to_le_bytes());
        self.bytes
            .extend_from_slice(&rec.jitter_p95.0.to_bits().to_le_bytes());
        self.bytes
            .extend_from_slice(&rec.retrans_fraction.to_bits().to_le_bytes());
        self.bytes
            .extend_from_slice(&rec.download.0.to_bits().to_le_bytes());
        self.count += 1;
    }

    /// Append every record of a slice, in order.
    pub fn extend_records(&mut self, records: &[NdtRecord]) {
        self.bytes.reserve(records.len() * FRAME_LEN);
        for rec in records {
            self.push(rec);
        }
    }

    /// Records encoded so far.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Patch the header count and seal the corpus.
    pub fn finish(mut self) -> EncodedCorpus {
        self.bytes[8..16].copy_from_slice(&self.count.to_le_bytes());
        EncodedCorpus {
            bytes: self.bytes,
            count: self.count,
        }
    }
}

impl Default for Encoder {
    fn default() -> Encoder {
        Encoder::new()
    }
}

/// A pull stream over an encoded corpus's frames. Constructed only from
/// a validated [`EncodedCorpus`], so decoding never fails mid-stream.
pub struct DecodeChunks<'a> {
    bytes: &'a [u8],
    offset: usize,
    chunk_len: usize,
}

impl RecordChunks for DecodeChunks<'_> {
    type Item = NdtRecord;

    fn next_chunk(&mut self) -> Option<Vec<NdtRecord>> {
        // Whole frames only, at most `chunk_len` of them: the chunk is
        // sized for what the buffer still holds, so a caller asking for
        // one huge chunk allocates nothing for frames that do not exist.
        let rest = self.bytes.get(self.offset..).unwrap_or_default();
        let (frames, _) = rest.as_chunks::<FRAME_LEN>();
        let frames = frames
            .get(..self.chunk_len.min(frames.len()))
            .unwrap_or_default();
        if frames.is_empty() {
            return None;
        }
        self.offset += frames.len() * FRAME_LEN;
        // The length prefix was validated with the corpus.
        Some(
            frames
                .iter()
                .map(|[_, _, _, _, body @ ..]| decode_body(body))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<NdtRecord> {
        (0..n)
            .map(|i| NdtRecord {
                timestamp: Timestamp(86_400 * i as u64),
                client: Ipv4::new(75, 105, 63, (i % 250) as u8 + 1),
                asn: Asn(7155 + i as u32),
                latency_p5: Millis(600.0 + i as f64 * 0.125),
                jitter_p95: Millis(120.0 - i as f64 * 0.0625),
                retrans_fraction: i as f64 / 1_000.0,
                download: Mbps(20.0 + i as f64),
            })
            .collect()
    }

    #[test]
    fn round_trip_is_exact() {
        let records = sample(53);
        let corpus = encode_records(&records);
        assert_eq!(corpus.len(), records.len());
        assert_eq!(corpus.decode_records(), records);
    }

    #[test]
    fn chunked_decode_matches_at_any_chunk_len() {
        let records = sample(101);
        let corpus = encode_records(&records);
        for chunk_len in [1usize, 13, 101, 4096] {
            assert_eq!(
                corpus.chunks(chunk_len).collect_records(),
                records,
                "chunk_len {chunk_len}"
            );
        }
    }

    #[test]
    fn oversized_chunk_len_reserves_only_the_remaining_frames() {
        let records = sample(3);
        let corpus = encode_records(&records);
        let mut chunks = corpus.chunks(usize::MAX);
        assert_eq!(chunks.next_chunk(), Some(records));
        assert_eq!(chunks.next_chunk(), None);
    }

    #[test]
    fn float_bit_patterns_survive() {
        // NaN payloads, signed zero and infinities travel as raw bits.
        let mut rec = sample(1).remove(0);
        rec.latency_p5 = Millis(f64::from_bits(0x7FF8_0000_DEAD_BEEF));
        rec.jitter_p95 = Millis(-0.0);
        rec.retrans_fraction = f64::INFINITY;
        let corpus = encode_records(std::slice::from_ref(&rec));
        let back = corpus.decode_records().remove(0);
        assert_eq!(back.latency_p5.0.to_bits(), rec.latency_p5.0.to_bits());
        assert_eq!(back.jitter_p95.0.to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.retrans_fraction, f64::INFINITY);
    }

    #[test]
    fn wire_bytes_validate_back() {
        let records = sample(17);
        let corpus = encode_records(&records);
        let reparsed = EncodedCorpus::from_bytes(corpus.bytes().to_vec()).expect("valid");
        assert_eq!(reparsed, corpus);
        assert_eq!(reparsed.decode_records(), records);
    }

    #[test]
    fn empty_corpus_round_trips() {
        let corpus = encode_records(&[]);
        assert!(corpus.is_empty());
        assert!(corpus.decode_records().is_empty());
        assert!(corpus.chunks(8).next_chunk().is_none());
        assert_eq!(
            EncodedCorpus::from_bytes(corpus.bytes().to_vec()),
            Ok(corpus)
        );
    }

    #[test]
    fn incremental_encoder_matches_one_shot() {
        let records = sample(40);
        let mut enc = Encoder::new();
        assert!(enc.is_empty());
        for half in records.chunks(7) {
            enc.extend_records(half);
        }
        assert_eq!(enc.len(), records.len());
        assert_eq!(enc.finish(), encode_records(&records));
    }

    #[test]
    fn corrupt_buffers_are_rejected() {
        let good = encode_records(&sample(3)).bytes().to_vec();

        assert_eq!(
            EncodedCorpus::from_bytes(Vec::new()),
            Err(CodecError::Truncated)
        );

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            EncodedCorpus::from_bytes(bad_magic),
            Err(CodecError::BadMagic(*b"XNOC"))
        );

        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert_eq!(
            EncodedCorpus::from_bytes(bad_version),
            Err(CodecError::UnsupportedVersion(9))
        );

        let mut truncated = good.clone();
        truncated.truncate(good.len() - 5);
        assert_eq!(
            EncodedCorpus::from_bytes(truncated),
            Err(CodecError::Truncated)
        );

        let mut bad_len = good.clone();
        bad_len[HEADER_LEN] = 7; // first frame's length prefix
        assert_eq!(
            EncodedCorpus::from_bytes(bad_len),
            Err(CodecError::BadFrameLength { index: 0, len: 7 })
        );

        let mut bad_count = good.clone();
        bad_count[8] = 99;
        assert_eq!(
            EncodedCorpus::from_bytes(bad_count),
            Err(CodecError::CountMismatch {
                header: 99,
                actual: 3
            })
        );

        // Error values render.
        let rendered = CodecError::BadFrameLength { index: 0, len: 7 }.to_string();
        assert!(rendered.contains("48"), "{rendered}");
    }
}
