//! Pull-based chunked record streams.
//!
//! The corpus generators can materialize millions of records; at paper
//! scale (11.92 M M-Lab sessions) a materialize-then-analyze pass does
//! not fit in bounded memory. This module defines the streaming
//! contract the rest of the workspace builds on: a [`RecordChunks`]
//! pull iterator that yields records in batches, plus fold/merge
//! combinators layered on the sharded execution in [`par`].
//!
//! The determinism contract mirrors [`par`]: **chunk boundaries and
//! `Rng` substreams derive from record/shard index, never from the
//! requested chunk length or the thread count.** `chunk_len` is purely
//! a delivery granularity — a consumer that concatenates every chunk
//! sees the exact record sequence the materialized path produces, for
//! any `chunk_len >= 1` and any thread count.
//!
//! ```
//! use sno_types::chunk::{sharded, RecordChunks};
//!
//! // Three shards of squares, delivered two records at a time.
//! let stream = sharded(3, 1, 2, |s| vec![s * s; 2]);
//! assert_eq!(stream.collect_records(), vec![0, 0, 1, 1, 4, 4]);
//! ```

use crate::par;
use std::collections::VecDeque;
use std::ops::Range;

/// A pull iterator over record chunks.
///
/// `next_chunk` yields `Some(chunk)` with `1..=chunk_len` records until
/// the stream is exhausted, then `None`. Concatenating every chunk must
/// reproduce the materialized record sequence exactly, independent of
/// chunk length and thread count (see the module docs).
pub trait RecordChunks {
    /// The record type this stream yields.
    type Item;

    /// Pull the next chunk, or `None` once the stream is exhausted.
    fn next_chunk(&mut self) -> Option<Vec<Self::Item>>;

    /// Fold every chunk in stream order into an accumulator.
    fn fold_chunks<Acc, F>(mut self, init: Acc, mut f: F) -> Acc
    where
        Self: Sized,
        F: FnMut(Acc, Vec<Self::Item>) -> Acc,
    {
        let mut acc = init;
        while let Some(chunk) = self.next_chunk() {
            acc = f(acc, chunk);
        }
        acc
    }

    /// Fold every record in stream order into an accumulator.
    fn fold_records<Acc, F>(self, init: Acc, mut f: F) -> Acc
    where
        Self: Sized,
        F: FnMut(Acc, Self::Item) -> Acc,
    {
        self.fold_chunks(init, |acc, chunk| chunk.into_iter().fold(acc, &mut f))
    }

    /// Drain the stream into one vector (the materialized sequence).
    fn collect_records(self) -> Vec<Self::Item>
    where
        Self: Sized,
    {
        self.fold_chunks(Vec::new(), |mut out, chunk| {
            out.extend(chunk);
            out
        })
    }

    /// Count the records remaining in the stream.
    fn count_records(self) -> usize
    where
        Self: Sized,
    {
        self.fold_chunks(0, |n, chunk| n + chunk.len())
    }
}

/// Stream an in-memory slice as chunks of `chunk_len` clones. Bridges
/// materialized corpora into streaming consumers (and equivalence
/// tests).
pub struct SliceChunks<'a, T> {
    items: &'a [T],
    chunk_len: usize,
    next: usize,
}

/// Stream `items` in chunks of at most `chunk_len` records.
///
/// # Panics
/// Panics if `chunk_len == 0`.
pub fn slice_chunks<T: Clone>(items: &[T], chunk_len: usize) -> SliceChunks<'_, T> {
    assert!(chunk_len > 0, "slice_chunks: chunk_len must be positive");
    SliceChunks {
        items,
        chunk_len,
        next: 0,
    }
}

impl<T: Clone> RecordChunks for SliceChunks<'_, T> {
    type Item = T;

    fn next_chunk(&mut self) -> Option<Vec<T>> {
        if self.next >= self.items.len() {
            return None;
        }
        let end = (self.next + self.chunk_len).min(self.items.len());
        let chunk = self.items[self.next..end].to_vec();
        self.next = end;
        Some(chunk)
    }
}

/// The workhorse streaming source: a producer function over a fixed
/// shard list, evaluated a few shards at a time ("waves") on the [`par`]
/// pool and re-buffered into caller-sized chunks.
///
/// The shard list — and therefore every per-shard `Rng` substream — is
/// fixed up front by the caller, exactly as [`par::shard_map_chunks`]
/// fixes it for the materialized path. Only the *delivery* is chunked:
/// shard outputs are appended to a pending buffer **in shard order** and
/// drained `chunk_len` records at a time, so producers whose shards
/// emit variable-length batches (e.g. rejection sampling) still stream
/// correctly across shard boundaries. Peak memory is one wave of shard
/// outputs plus the pending buffer, not the whole corpus.
pub struct ShardedChunks<T, F> {
    produce: F,
    shards: usize,
    next_shard: usize,
    threads: usize,
    chunk_len: usize,
    pending: VecDeque<T>,
}

/// Stream the concatenation of `produce(0), produce(1), …,
/// produce(shards - 1)` in chunks of at most `chunk_len` records,
/// running up to `threads` shard producers at a time (`0` = auto).
///
/// Equivalent to `par::shard_map_chunks` over the same shard list, but
/// with bounded buffering.
///
/// # Panics
/// Panics if `chunk_len == 0`.
pub fn sharded<T, F>(
    shards: usize,
    threads: usize,
    chunk_len: usize,
    produce: F,
) -> ShardedChunks<T, F>
where
    T: Send,
    F: Fn(usize) -> Vec<T> + Sync,
{
    assert!(chunk_len > 0, "sharded: chunk_len must be positive");
    ShardedChunks {
        produce,
        shards,
        next_shard: 0,
        threads,
        chunk_len,
        pending: VecDeque::new(),
    }
}

impl<T, F> RecordChunks for ShardedChunks<T, F>
where
    T: Send,
    F: Fn(usize) -> Vec<T> + Sync,
{
    type Item = T;

    fn next_chunk(&mut self) -> Option<Vec<T>> {
        while self.pending.len() < self.chunk_len && self.next_shard < self.shards {
            // One wave: enough shards to keep the pool busy, merged in
            // shard order so the stream matches the serial sequence.
            let wave =
                (par::resolve_threads(self.threads).max(1) * 2).min(self.shards - self.next_shard);
            let base = self.next_shard;
            let produce = &self.produce;
            let batches = par::shard_map(wave, self.threads, |i| produce(base + i));
            for batch in batches {
                self.pending.extend(batch);
            }
            self.next_shard += wave;
        }
        if self.pending.is_empty() {
            return None;
        }
        let take = self.chunk_len.min(self.pending.len());
        Some(self.pending.drain(..take).collect())
    }
}

/// Fold a chunked stream with `observe`, chunk by chunk, **in chunk
/// order**, on up to `threads` workers (`0` = auto).
///
/// At one resolved worker each chunk is observed straight into the
/// accumulator as it is pulled: the serial path builds no partials, as
/// in [`par::shard_map`]. At two or more, chunks are pulled in waves
/// (two per worker, mirroring [`sharded`]'s wave size), each observed
/// into a fresh `Acc::default()` partial on the [`par`] pool, and the
/// partials are merged left-to-right on the calling thread. The two
/// agree whenever observing a chunk into the accumulator equals merging
/// in a fresh partial that observed it — true of any accumulator whose
/// merge appends per-key samples, which then sees them in exactly the
/// order a serial [`RecordChunks::fold_chunks`] pass would produce, at
/// every thread count. Peak memory is one wave of chunks plus one wave
/// of partials, never the whole stream.
pub fn par_fold_chunks<C, Acc, O, G>(
    mut stream: C,
    threads: usize,
    init: Acc,
    observe: O,
    mut merge: G,
) -> Acc
where
    C: RecordChunks,
    C::Item: Sync,
    Acc: Default + Send,
    O: Fn(&mut Acc, &[C::Item]) + Sync,
    G: FnMut(&mut Acc, Acc),
{
    let mut acc = init;
    let workers = par::resolve_threads(threads).max(1);
    if workers == 1 {
        while let Some(chunk) = stream.next_chunk() {
            observe(&mut acc, &chunk);
        }
        return acc;
    }
    let wave_len = workers * 2;
    loop {
        let mut wave: Vec<Vec<C::Item>> = Vec::with_capacity(wave_len);
        while wave.len() < wave_len {
            match stream.next_chunk() {
                Some(chunk) => wave.push(chunk),
                None => break,
            }
        }
        let exhausted = wave.len() < wave_len;
        let parts = par::shard_map(wave.len(), workers, |i| {
            let mut part = Acc::default();
            observe(&mut part, wave.get(i).map_or(&[], Vec::as_slice));
            part
        });
        for part in parts {
            merge(&mut acc, part);
        }
        if exhausted {
            return acc;
        }
    }
}

/// Parallel in-shard-order accumulation over `0..len`: build one
/// accumulator per shard (boundaries from [`par::shard_ranges`], so
/// thread-count independent) and merge them left-to-right in shard
/// order. The merge runs on the calling thread, mirroring
/// [`par::shard_reduce`], so per-key orderings inside the accumulators
/// match a serial pass over `0..len`.
pub fn accumulate<Acc, F, G>(
    len: usize,
    chunk: usize,
    threads: usize,
    init: Acc,
    per_shard: F,
    merge: G,
) -> Acc
where
    Acc: Send,
    F: Fn(usize, Range<usize>) -> Acc + Sync,
    G: FnMut(Acc, Acc) -> Acc,
{
    let ranges = par::shard_ranges(len, chunk);
    par::shard_map(ranges.len(), threads, |i| per_shard(i, ranges[i].clone()))
        .into_iter()
        .fold(init, merge)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shard producer with variable-length output, like the rejection
    /// sampler in the M-Lab generator.
    fn ragged(shard: usize) -> Vec<usize> {
        (0..(shard % 3) + 1).map(|k| shard * 10 + k).collect()
    }

    #[test]
    fn sharded_matches_concatenation_at_any_chunk_and_threads() {
        let serial: Vec<usize> = (0..13).flat_map(ragged).collect();
        for chunk_len in [1, 2, 7, 64, 1024] {
            for threads in [1, 2, 8] {
                let got = sharded(13, threads, chunk_len, ragged).collect_records();
                assert_eq!(got, serial, "chunk_len {chunk_len} threads {threads}");
            }
        }
    }

    #[test]
    fn sharded_chunk_sizes_are_bounded_and_full() {
        let mut stream = sharded(13, 2, 5, ragged);
        let mut total = 0;
        let mut chunks = Vec::new();
        while let Some(chunk) = stream.next_chunk() {
            assert!(!chunk.is_empty());
            assert!(chunk.len() <= 5);
            total += chunk.len();
            chunks.push(chunk.len());
        }
        assert_eq!(total, (0..13).flat_map(ragged).count());
        // Every chunk except the last is exactly chunk_len.
        for &len in &chunks[..chunks.len() - 1] {
            assert_eq!(len, 5);
        }
    }

    #[test]
    fn sharded_empty_stream() {
        let mut stream = sharded(0, 4, 16, |_| -> Vec<u32> { unreachable!() });
        assert!(stream.next_chunk().is_none());
        assert!(stream.next_chunk().is_none());
    }

    #[test]
    fn slice_chunks_round_trips() {
        let items: Vec<u32> = (0..97).collect();
        for chunk_len in [1, 8, 97, 1000] {
            assert_eq!(slice_chunks(&items, chunk_len).collect_records(), items);
        }
        let empty: Vec<u32> = Vec::new();
        assert!(slice_chunks(&empty, 4).next_chunk().is_none());
    }

    #[test]
    fn fold_records_and_count() {
        let items: Vec<u64> = (1..=10).collect();
        let sum = slice_chunks(&items, 3).fold_records(0u64, |acc, x| acc + x);
        assert_eq!(sum, 55);
        assert_eq!(slice_chunks(&items, 4).count_records(), 10);
    }

    #[test]
    fn par_fold_chunks_preserves_chunk_order() {
        // Identity map: the folded concatenation must equal the serial
        // stream at every thread count, even with ragged chunks.
        let serial: Vec<usize> = (0..37).flat_map(ragged).collect();
        for threads in [1, 2, 8] {
            for chunk_len in [1, 3, 64] {
                let got = par_fold_chunks(
                    sharded(37, 1, chunk_len, ragged),
                    threads,
                    Vec::new(),
                    |acc: &mut Vec<usize>, chunk: &[usize]| acc.extend_from_slice(chunk),
                    |acc, part| acc.extend(part),
                );
                assert_eq!(got, serial, "threads {threads} chunk {chunk_len}");
            }
        }
    }

    #[test]
    fn par_fold_chunks_merges_partials_only_at_two_or_more_workers() {
        // One worker observes every chunk straight into the accumulator;
        // more build one partial per chunk and merge each in.
        let records = (0..37).flat_map(ragged).count();
        let chunks = records.div_ceil(3);
        for (threads, want) in [(1, 0), (2, chunks), (8, chunks)] {
            let mut merges = 0;
            let got = par_fold_chunks(
                sharded(37, 1, 3, ragged),
                threads,
                0usize,
                |acc: &mut usize, chunk: &[usize]| *acc += chunk.len(),
                |acc, part| {
                    merges += 1;
                    *acc += part;
                },
            );
            assert_eq!(got, records, "threads {threads}");
            assert_eq!(merges, want, "threads {threads}");
        }
    }

    #[test]
    fn par_fold_chunks_empty_stream_returns_init() {
        let got = par_fold_chunks(
            sharded(0, 2, 8, |_| -> Vec<u32> { unreachable!() }),
            4,
            41u64,
            |acc: &mut u64, chunk: &[u32]| *acc += chunk.len() as u64,
            |acc, part| *acc += part,
        );
        assert_eq!(got, 41);
    }

    #[test]
    fn accumulate_matches_serial_bucketing() {
        use std::collections::BTreeMap;
        let items: Vec<usize> = (0..500).map(|i| i * 7 % 100).collect();
        let mut serial: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, &v) in items.iter().enumerate() {
            serial.entry(v % 5).or_default().push(i);
        }
        for threads in [1, 2, 8] {
            let got = accumulate(
                items.len(),
                64,
                threads,
                BTreeMap::<usize, Vec<usize>>::new(),
                |_, range| {
                    let mut acc: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
                    for i in range {
                        acc.entry(items[i] % 5).or_default().push(i);
                    }
                    acc
                },
                |mut left, right| {
                    for (k, mut v) in right {
                        left.entry(k).or_default().append(&mut v);
                    }
                    left
                },
            );
            assert_eq!(got, serial, "threads {threads}");
        }
    }
}
