//! Shared encoded traces: generate once, replay many.
//!
//! The paper's evaluation is trace-driven — one recorded application trace
//! drives every policy with byte-identical input — yet a naive experiment
//! grid re-runs the synthetic generator (RNG draws and mirror bookkeeping
//! for every event) independently for every `(policy, seed)` job. This
//! module is the generate-once / replay-many engine behind `pgc-sim`'s
//! experiment scheduler:
//!
//! * [`EncodedTrace`] — one workload's whole event stream as a single
//!   contiguous byte buffer in the PGCT body layout of [`crate::trace`]
//!   (~12 bytes/event, a fraction of `size_of::<Event>()`), with a
//!   [`TraceHeader`] carrying the seed, event count, and generator
//!   counters. Recorded once per parameter set by [`EncodedTrace::record`].
//! * [`TraceCursor`] — a zero-allocation iterator that decodes events on
//!   the fly straight from the shared buffer; replaying a trace never
//!   materializes an intermediate `Vec<Event>`.
//! * [`TraceCache`] — an `Arc`-sharing cache keyed by
//!   [`WorkloadParams::digest`], so concurrent experiment workers record
//!   each distinct trace exactly once and replay it from shared memory.
//! * [`TraceSegment`] — a refcounted handle onto a byte range of a shared
//!   trace. A server data plane ships segments instead of `Vec<Event>`
//!   batches: submitting one is an `Arc` bump plus three integers, however
//!   many events it spans. Traces record event-boundary byte marks every
//!   [`crate::block::BLOCK_EVENTS`] events, so carving a trace into
//!   block-aligned segments is pure arithmetic (unaligned splits scan from
//!   the nearest mark).
//!
//! Replay is bit-identical to live generation by construction: the
//! generator is a pure function of its parameters and the codec round-trips
//! exactly (pinned by tests here and in `pgc-sim`).

use crate::event::Event;
use crate::generator::{GenStats, SyntheticWorkload};
use crate::params::WorkloadParams;
use crate::trace;
use pgc_types::{FastHashMap, Result};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Metadata recorded alongside the encoded event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// The generator seed (`params.seed`, duplicated for convenience).
    pub seed: u64,
    /// Number of events in the stream.
    pub events: u64,
    /// Generator counters accumulated while recording ([`GenStats::default`]
    /// when the trace was built from raw events rather than recorded).
    pub stats: GenStats,
}

/// One workload's event stream, encoded into a single contiguous buffer.
///
/// ```
/// use pgc_workload::{EncodedTrace, WorkloadParams};
///
/// let trace = EncodedTrace::record(WorkloadParams::small().with_seed(3)).unwrap();
/// assert_eq!(trace.seed(), 3);
/// let decoded = trace.cursor().count() as u64;
/// assert_eq!(decoded, trace.events());
/// ```
#[derive(Debug, Clone)]
pub struct EncodedTrace {
    header: TraceHeader,
    params: WorkloadParams,
    buf: Vec<u8>,
    /// Byte offset after every [`MARK_EVERY`]th event: `marks[k]` is the
    /// position just past event `(k + 1) * MARK_EVERY`. Lets
    /// [`EncodedTrace::segments`] carve block-aligned segments without
    /// scanning the variable-length byte stream.
    marks: Vec<usize>,
}

/// Bytes [`EncodedTrace::record`] reserves up front. The paper trace runs
/// ~12.4 bytes/event and one event per ~21 allocated bytes, about 0.59
/// bytes per allocated byte; reserving 5/8 of the allocation target
/// covers that, so a paper trace never regrows (a regrowth doubles the
/// buffer and `shrink_to_fit` then copies it back).
fn initial_capacity(params: &WorkloadParams) -> usize {
    (params.target_allocated.get() / 8 * 5).min(1 << 28) as usize
}

/// Event interval between recorded byte marks — one mark per decode block,
/// so block-sized segmentation never scans.
pub const MARK_EVERY: u64 = crate::block::BLOCK_EVENTS as u64;

impl EncodedTrace {
    /// Runs the synthetic generator for `params` and encodes its entire
    /// output. This is the *only* generator execution a shared-trace
    /// experiment pays per parameter set, however many policies replay it.
    pub fn record(params: WorkloadParams) -> Result<Self> {
        let mut generator = SyntheticWorkload::new(params.clone())?;
        let mut buf = Vec::with_capacity(initial_capacity(&params));
        let mut marks = Vec::new();
        let mut events = 0u64;
        for event in generator.by_ref() {
            trace::encode_event(&mut buf, &event);
            events += 1;
            if events.is_multiple_of(MARK_EVERY) {
                marks.push(buf.len());
            }
        }
        buf.shrink_to_fit();
        Ok(Self {
            header: TraceHeader {
                seed: params.seed,
                events,
                stats: generator.stats(),
            },
            params,
            buf,
            marks,
        })
    }

    /// Encodes an explicit event sequence (e.g. an assembly workload or a
    /// hand-built test stream). `params` labels the trace for cache keying;
    /// the header's generator counters are zeroed.
    pub fn from_events<'a>(
        params: WorkloadParams,
        events: impl IntoIterator<Item = &'a Event>,
    ) -> Self {
        let mut buf = Vec::new();
        let mut marks = Vec::new();
        let mut count = 0u64;
        for event in events {
            trace::encode_event(&mut buf, event);
            count += 1;
            if count.is_multiple_of(MARK_EVERY) {
                marks.push(buf.len());
            }
        }
        Self {
            header: TraceHeader {
                seed: params.seed,
                events: count,
                stats: GenStats::default(),
            },
            params,
            buf,
            marks,
        }
    }

    /// The trace metadata.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The parameters the trace was recorded from.
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    /// The generator seed.
    pub fn seed(&self) -> u64 {
        self.header.seed
    }

    /// Number of events in the stream.
    pub fn events(&self) -> u64 {
        self.header.events
    }

    /// Generator counters recorded with the trace.
    pub fn stats(&self) -> GenStats {
        self.header.stats
    }

    /// Size of the encoded stream in bytes.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// A fresh decoding cursor over the shared buffer.
    pub fn cursor(&self) -> TraceCursor<'_> {
        TraceCursor {
            buf: &self.buf,
            pos: 0,
            decoded: 0,
            expected: self.header.events,
        }
    }

    /// Decodes the whole stream into a vector (diagnostics and tests; the
    /// simulator replays through [`EncodedTrace::cursor`] instead).
    pub fn decode_all(&self) -> Result<Vec<Event>> {
        let mut out = Vec::with_capacity(self.header.events as usize);
        let mut cursor = self.cursor();
        while let Some(event) = cursor.next_event()? {
            out.push(event);
        }
        Ok(out)
    }

    /// Byte offset of the event boundary after `event` events: `0` for the
    /// start of the stream, `byte_len()` for its end. Boundaries at
    /// multiples of [`MARK_EVERY`] resolve from the recorded marks in O(1);
    /// others scan forward from the nearest mark (at most one block's worth
    /// of tag-skipping).
    fn byte_pos_of(&self, event: u64) -> Result<usize> {
        debug_assert!(event <= self.header.events);
        if event == 0 {
            return Ok(0);
        }
        if event == self.header.events {
            return Ok(self.buf.len());
        }
        let whole_marks = (event / MARK_EVERY) as usize;
        let mut pos = if whole_marks == 0 {
            0
        } else {
            self.marks[whole_marks - 1]
        };
        for _ in 0..(event % MARK_EVERY) {
            if trace::decode_event(&self.buf, &mut pos)?.is_none() {
                return Err(pgc_types::PgcError::TraceFormat(format!(
                    "encoded trace ended before event {event}"
                )));
            }
        }
        Ok(pos)
    }

    /// Carves a shared trace into consecutive [`TraceSegment`]s of at most
    /// `max_events` events each (the last takes the remainder). Each
    /// segment is an `Arc` bump plus a byte range — no event is copied.
    /// When `max_events` is a multiple of [`MARK_EVERY`] the boundaries
    /// come straight from the recorded marks; otherwise each split scans at
    /// most one mark interval.
    pub fn segments(trace: &Arc<Self>, max_events: u64) -> Result<Vec<TraceSegment>> {
        assert!(max_events >= 1, "segments must hold at least one event");
        let total = trace.header.events;
        let mut out = Vec::with_capacity(total.div_ceil(max_events.max(1)) as usize);
        let mut start_event = 0u64;
        let mut start_byte = 0usize;
        while start_event < total {
            let end_event = (start_event + max_events).min(total);
            let end_byte = trace.byte_pos_of(end_event)?;
            out.push(TraceSegment {
                trace: Arc::clone(trace),
                start: start_byte,
                end: end_byte,
                events: end_event - start_event,
            });
            start_event = end_event;
            start_byte = end_byte;
        }
        Ok(out)
    }

    /// Chops `n` bytes off the encoded buffer (corruption-path tests).
    #[cfg(test)]
    pub(crate) fn truncate_for_test(&mut self, n: usize) {
        let len = self.buf.len().saturating_sub(n);
        self.buf.truncate(len);
    }

    /// Writes the stream as a PGCT trace file (magic + version header
    /// followed by the body this trace already holds), returning the event
    /// count. The output is byte-identical to recording the same workload
    /// through [`crate::trace::TraceWriter`].
    pub fn write_to<W: Write>(&self, mut sink: W) -> Result<u64> {
        let io_err = |e: std::io::Error| pgc_types::PgcError::TraceIo(e.to_string());
        sink.write_all(trace::MAGIC).map_err(io_err)?;
        sink.write_all(&trace::VERSION.to_le_bytes())
            .map_err(io_err)?;
        sink.write_all(&self.buf).map_err(io_err)?;
        sink.flush().map_err(io_err)?;
        Ok(self.header.events)
    }
}

/// Zero-allocation decoding iterator over an [`EncodedTrace`].
///
/// Events decode on the fly into the `Event` value the iterator yields
/// (`Event` is `Copy`); nothing is allocated per event and the underlying
/// buffer is shared, so any number of cursors can replay one trace
/// concurrently.
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    buf: &'a [u8],
    pos: usize,
    decoded: u64,
    expected: u64,
}

impl TraceCursor<'_> {
    /// Decodes the next event, or `Ok(None)` at the end of the stream.
    /// Errors only on a corrupt buffer (impossible for traces built by
    /// [`EncodedTrace::record`], which owns its encoding end to end).
    #[inline]
    pub fn next_event(&mut self) -> Result<Option<Event>> {
        let event = trace::decode_event(self.buf, &mut self.pos)?;
        if event.is_some() {
            self.decoded += 1;
        } else if self.decoded != self.expected {
            return Err(pgc_types::PgcError::TraceFormat(format!(
                "encoded trace ended after {} of {} events",
                self.decoded, self.expected
            )));
        }
        Ok(event)
    }

    /// Decodes up to [`crate::block::BLOCK_EVENTS`] events into `block`
    /// (cleared first), returning how many were decoded — `0` at the end of
    /// the stream. The struct-of-arrays entry point behind batched replay:
    /// the caller loops `next_block` and applies each run from the block's
    /// flat columns, reusing one block for the whole trace.
    #[inline]
    pub fn next_block(&mut self, block: &mut crate::block::EventBlock) -> Result<usize> {
        block.clear();
        while block.len() < crate::block::BLOCK_EVENTS {
            match self.next_event()? {
                Some(event) => block.push(&event),
                None => break,
            }
        }
        Ok(block.len())
    }

    /// Events decoded so far.
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// Events left to decode, from the header count. Lets a replay loop
    /// size batches (e.g. stop a block at a sampling boundary) without
    /// probing the byte stream.
    pub fn remaining_events(&self) -> u64 {
        self.expected.saturating_sub(self.decoded)
    }
}

impl Iterator for TraceCursor<'_> {
    type Item = Event;

    /// Iterator view for trusted in-memory traces; panics on a corrupt
    /// buffer (use [`TraceCursor::next_event`] to handle errors).
    fn next(&mut self) -> Option<Event> {
        self.next_event().expect("corrupt encoded trace")
    }
}

/// A refcounted handle onto a byte range of a shared [`EncodedTrace`].
///
/// This is the zero-copy unit of a server data plane: where a `Vec<Event>`
/// batch deep-copies (and re-allocates) every event it ships, a segment is
/// an `Arc` bump plus a byte range — the events stay in the shared encoded
/// buffer and decode straight into the consumer's reusable
/// [`crate::block::EventBlock`] scratch. Cloning a segment is O(1)
/// whatever it spans.
///
/// ```
/// use pgc_workload::{EncodedTrace, TraceSegment, WorkloadParams};
/// use std::sync::Arc;
///
/// let trace = Arc::new(EncodedTrace::record(WorkloadParams::small().with_seed(3)).unwrap());
/// let segments = EncodedTrace::segments(&trace, 4096).unwrap();
/// let replayed: u64 = segments.iter().map(|s| s.cursor().count() as u64).sum();
/// assert_eq!(replayed, trace.events());
/// ```
#[derive(Debug, Clone)]
pub struct TraceSegment {
    trace: Arc<EncodedTrace>,
    start: usize,
    end: usize,
    events: u64,
}

impl TraceSegment {
    /// The whole trace as one segment.
    pub fn whole(trace: Arc<EncodedTrace>) -> Self {
        let end = trace.buf.len();
        let events = trace.header.events;
        Self {
            trace,
            start: 0,
            end,
            events,
        }
    }

    /// Encodes a hand-built event slice into a fresh single-segment trace,
    /// the way to ship events that were never recorded into a shared
    /// trace. Pays one encode pass (~12 bytes/event retained); after that
    /// the segment ships and replays like any other.
    pub fn encode(events: &[Event]) -> Self {
        Self::whole(Arc::new(EncodedTrace::from_events(
            WorkloadParams::default(),
            events,
        )))
    }

    /// Events the segment spans.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// True when the segment spans no events.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Size of the segment's byte range.
    pub fn byte_len(&self) -> usize {
        self.end - self.start
    }

    /// The shared trace the segment points into.
    pub fn trace(&self) -> &Arc<EncodedTrace> {
        &self.trace
    }

    /// A decoding cursor over exactly this segment's events.
    pub fn cursor(&self) -> TraceCursor<'_> {
        TraceCursor {
            buf: &self.trace.buf[self.start..self.end],
            pos: 0,
            decoded: 0,
            expected: self.events,
        }
    }
}

/// One digest bucket: every recorded trace whose parameters share a digest.
type CacheBucket = Vec<(WorkloadParams, Arc<EncodedTrace>)>;

/// An `Arc`-sharing trace cache keyed by [`WorkloadParams::digest`].
///
/// The experiment scheduler in `pgc-sim` records each distinct parameter
/// set once and fans the `Arc` out to every policy worker. Digest
/// collisions are survived, not assumed away: entries store their full
/// parameters and a hit requires equality.
#[derive(Debug, Default)]
pub struct TraceCache {
    entries: Mutex<FastHashMap<u64, CacheBucket>>,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The trace for `params`, if already recorded.
    pub fn get(&self, params: &WorkloadParams) -> Option<Arc<EncodedTrace>> {
        let entries = self.entries.lock().expect("trace cache poisoned");
        entries
            .get(&params.digest())?
            .iter()
            .find(|(p, _)| p == params)
            .map(|(_, t)| Arc::clone(t))
    }

    /// The trace for `params`, recording it first if absent. Recording runs
    /// outside the lock (it is the expensive part); if two threads race on
    /// the same parameters the first insertion wins and both return the
    /// same shared trace.
    pub fn get_or_record(&self, params: &WorkloadParams) -> Result<Arc<EncodedTrace>> {
        if let Some(hit) = self.get(params) {
            return Ok(hit);
        }
        let recorded = Arc::new(EncodedTrace::record(params.clone())?);
        let mut entries = self.entries.lock().expect("trace cache poisoned");
        let bucket = entries.entry(params.digest()).or_default();
        if let Some((_, existing)) = bucket.iter().find(|(p, _)| p == params) {
            return Ok(Arc::clone(existing));
        }
        bucket.push((params.clone(), Arc::clone(&recorded)));
        Ok(recorded)
    }

    /// Number of distinct traces held.
    pub fn len(&self) -> usize {
        let entries = self.entries.lock().expect("trace cache poisoned");
        entries.values().map(Vec::len).sum()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes held across all encoded streams.
    pub fn resident_bytes(&self) -> usize {
        let entries = self.entries.lock().expect("trace cache poisoned");
        entries.values().flatten().map(|(_, t)| t.byte_len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{read_trace, write_trace};
    use pgc_types::Bytes;

    #[test]
    fn paper_traces_fit_the_initial_reservation() {
        let paper = WorkloadParams::default();
        let quarter = paper
            .clone()
            .with_seed(1001)
            .with_target_allocated(Bytes(paper.target_allocated.get() / 4));
        let configs = (1000..1004)
            .map(|seed| paper.clone().with_seed(seed))
            .chain([quarter]);
        for params in configs {
            let reserved = initial_capacity(&params);
            let trace = EncodedTrace::record(params.clone()).unwrap();
            assert!(
                trace.byte_len() <= reserved,
                "seed {}: {} trace bytes outgrow the {reserved}-byte reservation",
                params.seed,
                trace.byte_len()
            );
        }
    }

    fn small(seed: u64) -> WorkloadParams {
        WorkloadParams::small().with_seed(seed)
    }

    #[test]
    fn record_matches_live_generation_exactly() {
        let trace = EncodedTrace::record(small(5)).unwrap();
        let mut live = SyntheticWorkload::new(small(5)).unwrap();
        let events: Vec<Event> = live.by_ref().collect();
        assert_eq!(trace.events(), events.len() as u64);
        assert_eq!(trace.stats(), live.stats());
        assert_eq!(trace.seed(), 5);
        assert_eq!(trace.decode_all().unwrap(), events);
        // Cursor iteration agrees with bulk decoding.
        let streamed: Vec<Event> = trace.cursor().collect();
        assert_eq!(streamed, events);
    }

    #[test]
    fn cursor_is_restartable_and_tracks_progress() {
        let trace = EncodedTrace::record(small(6)).unwrap();
        let mut a = trace.cursor();
        let first = a.next_event().unwrap().unwrap();
        assert_eq!(a.decoded(), 1);
        // A second cursor starts from the beginning, independently.
        let mut b = trace.cursor();
        assert_eq!(b.next_event().unwrap().unwrap(), first);
        // Draining reaches the recorded count.
        let mut c = trace.cursor();
        while c.next_event().unwrap().is_some() {}
        assert_eq!(c.decoded(), trace.events());
    }

    #[test]
    fn from_events_round_trips_arbitrary_streams() {
        let events = vec![
            Event::CreateRoot {
                node: crate::NodeId(0),
                size: pgc_types::Bytes(100),
                slots: 2,
            },
            Event::Visit {
                node: crate::NodeId(0),
            },
        ];
        let trace = EncodedTrace::from_events(small(1), &events);
        assert_eq!(trace.events(), 2);
        assert_eq!(trace.stats(), GenStats::default());
        assert_eq!(trace.decode_all().unwrap(), events);
    }

    #[test]
    fn write_to_is_byte_identical_to_the_file_codec() {
        let params = small(7);
        let trace = EncodedTrace::record(params.clone()).unwrap();
        let events: Vec<Event> = SyntheticWorkload::new(params).unwrap().collect();
        let mut via_writer = Vec::new();
        write_trace(&mut via_writer, &events).unwrap();
        let mut via_encoded = Vec::new();
        trace.write_to(&mut via_encoded).unwrap();
        assert_eq!(via_encoded, via_writer);
        assert_eq!(read_trace(via_encoded.as_slice()).unwrap(), events);
    }

    #[test]
    fn truncated_buffer_is_detected_by_the_cursor() {
        let full = EncodedTrace::record(small(8)).unwrap();
        let mut corrupt = full.clone();
        corrupt.buf.truncate(corrupt.buf.len() - 3);
        let mut cursor = corrupt.cursor();
        let err = loop {
            match cursor.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("truncation must not decode cleanly"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, pgc_types::PgcError::TraceFormat(_)));
        // Truncating at an event boundary is caught by the header count.
        let boundary = {
            let mut t = full.clone();
            let mut cursor = t.cursor();
            cursor.next_event().unwrap();
            let first_len = cursor.pos;
            t.buf.truncate(first_len);
            t
        };
        let mut cursor = boundary.cursor();
        cursor.next_event().unwrap();
        let err = cursor.next_event().unwrap_err();
        assert!(
            err.to_string().contains("ended after"),
            "count mismatch must be reported, got {err}"
        );
    }

    #[test]
    fn segments_tile_the_trace_exactly() {
        let trace = Arc::new(EncodedTrace::record(small(12)).unwrap());
        let all: Vec<Event> = trace.cursor().collect();
        // Aligned (mark-resolved), unaligned (scan-resolved), and
        // degenerate (single-segment) carvings must all tile the stream.
        for max_events in [MARK_EVERY, 1000, 97, trace.events() + 1] {
            let segments = EncodedTrace::segments(&trace, max_events).unwrap();
            let mut replayed = Vec::with_capacity(all.len());
            let mut bytes = 0usize;
            for seg in &segments {
                assert!(seg.events() <= max_events);
                assert!(!seg.is_empty());
                let mut cursor = seg.cursor();
                while let Some(e) = cursor.next_event().unwrap() {
                    replayed.push(e);
                }
                assert_eq!(cursor.decoded(), seg.events());
                bytes += seg.byte_len();
            }
            assert_eq!(replayed, all, "segment size {max_events}");
            assert_eq!(bytes, trace.byte_len(), "segment size {max_events}");
        }
    }

    #[test]
    fn whole_and_encode_segments_round_trip() {
        let trace = Arc::new(EncodedTrace::record(small(13)).unwrap());
        let whole = TraceSegment::whole(Arc::clone(&trace));
        assert_eq!(whole.events(), trace.events());
        assert_eq!(whole.byte_len(), trace.byte_len());
        assert!(Arc::ptr_eq(whole.trace(), &trace));
        let events = trace.decode_all().unwrap();
        let encoded = TraceSegment::encode(&events);
        let back: Vec<Event> = encoded.cursor().collect();
        assert_eq!(back, events);
        // Cloning a segment shares the underlying trace.
        let clone = whole.clone();
        assert!(Arc::ptr_eq(clone.trace(), whole.trace()));
    }

    #[test]
    fn segment_cursor_feeds_blocks() {
        let trace = Arc::new(EncodedTrace::record(small(14)).unwrap());
        let segments = EncodedTrace::segments(&trace, 1500).unwrap();
        let mut block = crate::block::EventBlock::new();
        let mut replayed = Vec::new();
        for seg in &segments {
            let mut cursor = seg.cursor();
            while cursor.next_block(&mut block).unwrap() > 0 {
                replayed.extend(block.iter());
            }
        }
        assert_eq!(replayed, trace.decode_all().unwrap());
    }

    /// A deterministic synthetic event stream of exactly `n` events (no
    /// generator involved, so edge sizes like 0 or one-block-exactly are
    /// trivial to hit).
    fn synthetic_events(n: usize) -> Vec<Event> {
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    Event::CreateRoot {
                        node: crate::NodeId(i as u64),
                        size: pgc_types::Bytes(64 + (i % 7) as u64 * 16),
                        slots: 1 + (i % 4) as u16,
                    }
                } else {
                    Event::Visit {
                        node: crate::NodeId((i / 3) as u64),
                    }
                }
            })
            .collect()
    }

    #[test]
    fn an_empty_trace_carves_and_cursors_cleanly() {
        let trace = Arc::new(EncodedTrace::from_events(small(20), &[]));
        assert_eq!(trace.events(), 0);
        assert!(trace.cursor().next_event().unwrap().is_none());
        assert!(EncodedTrace::segments(&trace, 1).unwrap().is_empty());
        assert!(EncodedTrace::segments(&trace, MARK_EVERY)
            .unwrap()
            .is_empty());
        // The whole-trace segment of an empty trace is itself empty.
        let whole = TraceSegment::whole(Arc::clone(&trace));
        assert_eq!(whole.events(), 0);
        assert!(whole.is_empty());
        assert!(whole.cursor().next_event().unwrap().is_none());
    }

    #[test]
    fn exactly_one_mark_boundary_is_carved_without_scanning_past_it() {
        // Exactly MARK_EVERY events: the single interior mark coincides
        // with the end of the stream, so every carving must resolve end
        // positions without running off the buffer.
        let events = synthetic_events(MARK_EVERY as usize);
        let trace = Arc::new(EncodedTrace::from_events(small(21), &events));
        for max_events in [MARK_EVERY, MARK_EVERY - 1, 1] {
            let segments = EncodedTrace::segments(&trace, max_events).unwrap();
            let replayed: Vec<Event> = segments
                .iter()
                .flat_map(|seg| seg.cursor().collect::<Vec<Event>>())
                .collect();
            assert_eq!(replayed, events, "carve width {max_events}");
            assert_eq!(
                segments.iter().map(TraceSegment::byte_len).sum::<usize>(),
                trace.byte_len()
            );
        }
        // The one-segment carve is the whole trace.
        let one = EncodedTrace::segments(&trace, MARK_EVERY).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].events(), MARK_EVERY);
    }

    #[test]
    fn unaligned_split_lands_inside_the_final_partial_block() {
        // One full block plus a 37-event tail; a carve width beyond the
        // last mark forces the byte-position scan through the partial
        // final block.
        let events = synthetic_events(MARK_EVERY as usize + 37);
        let trace = Arc::new(EncodedTrace::from_events(small(22), &events));
        let width = MARK_EVERY + 13;
        let segments = EncodedTrace::segments(&trace, width).unwrap();
        assert_eq!(segments.len(), 2);
        assert_eq!(segments[0].events(), width);
        assert_eq!(segments[1].events(), MARK_EVERY + 37 - width);
        let replayed: Vec<Event> = segments
            .iter()
            .flat_map(|seg| seg.cursor().collect::<Vec<Event>>())
            .collect();
        assert_eq!(replayed, events);
    }

    #[test]
    fn carving_round_trips_across_sizes_and_widths() {
        // Proptest-style sweep: pseudo-random trace sizes × carve widths,
        // all pinned to one seed so failures reproduce. Every carving of
        // every stream must replay exactly like the whole-trace cursor.
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound.max(1)
        };
        for _ in 0..12 {
            let size = next(3 * MARK_EVERY) as usize;
            let events = synthetic_events(size);
            let trace = Arc::new(EncodedTrace::from_events(small(23), &events));
            let whole: Vec<Event> = trace.cursor().collect();
            assert_eq!(whole, events);
            for _ in 0..4 {
                let width = 1 + next(MARK_EVERY + MARK_EVERY / 2);
                let segments = EncodedTrace::segments(&trace, width).unwrap();
                assert_eq!(
                    segments.iter().map(TraceSegment::events).sum::<u64>(),
                    size as u64,
                    "size {size} width {width}"
                );
                let replayed: Vec<Event> = segments
                    .iter()
                    .flat_map(|seg| seg.cursor().collect::<Vec<Event>>())
                    .collect();
                assert_eq!(replayed, whole, "size {size} width {width}");
            }
        }
    }

    #[test]
    fn cache_records_each_parameter_set_once() {
        let cache = TraceCache::new();
        assert!(cache.is_empty());
        let a = cache.get_or_record(&small(1)).unwrap();
        let b = cache.get_or_record(&small(1)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the Arc");
        assert_eq!(cache.len(), 1);
        let c = cache.get_or_record(&small(2)).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        assert!(cache.resident_bytes() >= a.byte_len() + c.byte_len());
        assert!(cache.get(&small(3)).is_none());
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let cache = TraceCache::new();
        let traces: Vec<Arc<EncodedTrace>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| cache.get_or_record(&small(9)).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.len(), 1, "racing recorders converge on one entry");
        for t in &traces {
            assert!(Arc::ptr_eq(t, &traces[0]));
        }
    }
}
