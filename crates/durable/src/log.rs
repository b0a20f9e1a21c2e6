//! The segmented append-only change log: `log-NNNNNNNN.pgcl`.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! segment header: magic "PGCL" | version u32 | seq u64 | start_event u64
//! frame:          len u32 | kind u8 | payload[len] | crc32 u32
//! ```
//!
//! The checksum covers `kind` and the payload. Two frame kinds exist:
//!
//! * **events** (`kind 1`): `count u32` followed by `count` workload
//!   events in the compact log codec (`u32` ids with a wide fallback;
//!   see `crate::codec`). Events are logged *ahead* of being applied, so
//!   the concatenated event frames are a replayable prefix of the run's
//!   input stream.
//! * **safepoint** (`kind 2`): `events_applied u64 | collections u64 |
//!   generation u64` — a collection boundary; `generation` names the
//!   snapshot generation written at this safepoint (0 = none).
//!
//! One frame parser reads it back: [`LogReader`] streams events frames
//! straight into caller-owned [`EventBlock`]s (recovery replays them with
//! no intermediate `Vec<Event>`), and [`read_log`] is that stream
//! collected. The reader is torn-tail tolerant: a truncated or
//! checksum-corrupt frame at the end of the **newest** segment is
//! reported as a [`TornTail`] and dropped (frames end on event
//! boundaries, so the surviving prefix is always cleanly replayable). The
//! same damage in an older segment is a hard [`PgcError::TraceFormat`]
//! error — that is real corruption, not an interrupted write.

use crate::codec::decode_compact;
use crate::crc::{crc32, Crc32};
use pgc_types::{PgcError, Result};
use pgc_workload::{Event, EventBlock, BLOCK_EVENTS};
use std::fs::{self, File};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread;

pub(crate) const MAGIC: &[u8; 4] = b"PGCL";
pub(crate) const VERSION: u32 = 1;
const HEADER_BYTES: u64 = 4 + 4 + 8 + 8;

pub(crate) const FRAME_EVENTS: u8 = 1;
pub(crate) const FRAME_SAFEPOINT: u8 = 2;

fn io_err(e: std::io::Error) -> PgcError {
    PgcError::TraceIo(e.to_string())
}

/// File name of log segment `seq`.
pub(crate) fn segment_name(seq: u64) -> String {
    format!("log-{seq:08}.pgcl")
}

/// Write buffer in front of each segment file; sized so a whole block of
/// frames accumulates between safepoint flushes without write syscalls.
const WRITE_BUF_BYTES: usize = 512 << 10;

/// Dirty bytes that accumulate before a safepoint kicks the background
/// flusher. Kicking on every safepoint would sync near-clean files over
/// and over; kicking by volume keeps the dirty-page debt bounded while
/// staying off the hot path between kicks.
const KICK_BYTES: u64 = 1 << 20;

/// Background fsync helper. An `fsync` pays for every dirty page still
/// unwritten, so if syncs only ever happen at the mandatory durability
/// points (rotation, snapshot generations, shutdown) each one stalls the
/// hot path for the full accumulated delta. The flusher drains that debt
/// concurrently: at every safepoint the writer hands it a duplicated
/// file handle and it fsyncs in the background while the run keeps
/// going, so the synchronous syncs only cover the small tail written
/// since. Dropped kicks are fine — this is an optimization, not a
/// guarantee; the synchronous syncs still establish durability.
struct Flusher {
    tx: Option<mpsc::SyncSender<File>>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Flusher {
    fn spawn() -> Self {
        let (tx, rx) = mpsc::sync_channel::<File>(2);
        let handle = thread::Builder::new()
            .name("pgc-log-flush".into())
            .spawn(move || {
                for file in rx {
                    // Best-effort: a failed background sync is retried by
                    // the next synchronous durability point.
                    let _ = file.sync_data();
                }
            })
            .ok();
        Self {
            tx: Some(tx),
            handle,
        }
    }

    /// Asks for a background fsync of `file`; drops the request if the
    /// flusher is still busy with earlier ones.
    fn kick(&self, file: &File) {
        if let (Some(tx), Ok(clone)) = (&self.tx, file.try_clone()) {
            let _ = tx.try_send(clone);
        }
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        self.tx = None; // close the channel so the thread exits
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The append side. Owned by [`crate::store::DurableStore`].
pub(crate) struct LogWriter {
    dir: PathBuf,
    out: BufWriter<File>,
    seq: u64,
    seg_bytes: u64,
    segment_limit: u64,
    fsync_every: u64,
    frames_since_sync: u64,
    bytes_since_kick: u64,
    flusher: Flusher,
    // Counters surfaced through StorageStats.
    pub(crate) bytes_written: u64,
    pub(crate) frames: u64,
    pub(crate) fsyncs: u64,
    pub(crate) segments: u64,
}

impl LogWriter {
    pub(crate) fn create(dir: &Path, fsync_every: u64, segment_limit: u64) -> Result<Self> {
        let mut writer = Self {
            dir: dir.to_path_buf(),
            out: BufWriter::with_capacity(WRITE_BUF_BYTES, open_segment(dir, 0, 0)?),
            seq: 0,
            seg_bytes: HEADER_BYTES,
            segment_limit,
            fsync_every,
            frames_since_sync: 0,
            bytes_since_kick: 0,
            flusher: Flusher::spawn(),
            bytes_written: HEADER_BYTES,
            frames: 0,
            fsyncs: 0,
            segments: 1,
        };
        writer.write_header(0)?;
        Ok(writer)
    }

    fn write_header(&mut self, start_event: u64) -> Result<()> {
        self.out.write_all(MAGIC).map_err(io_err)?;
        self.out.write_all(&VERSION.to_le_bytes()).map_err(io_err)?;
        self.out
            .write_all(&self.seq.to_le_bytes())
            .map_err(io_err)?;
        self.out
            .write_all(&start_event.to_le_bytes())
            .map_err(io_err)?;
        Ok(())
    }

    /// Writes one frame whose payload is the concatenation of `parts`,
    /// checksumming as it goes — no intermediate assembly copy.
    fn write_frame(&mut self, kind: u8, parts: &[&[u8]]) -> Result<()> {
        let payload_len: usize = parts.iter().map(|p| p.len()).sum();
        let mut crc = Crc32::new();
        crc.update(&[kind]);
        self.out
            .write_all(&(payload_len as u32).to_le_bytes())
            .map_err(io_err)?;
        self.out.write_all(&[kind]).map_err(io_err)?;
        for part in parts {
            crc.update(part);
            self.out.write_all(part).map_err(io_err)?;
        }
        self.out
            .write_all(&crc.finish().to_le_bytes())
            .map_err(io_err)?;
        let frame_bytes = 4 + 1 + payload_len as u64 + 4;
        self.seg_bytes += frame_bytes;
        self.bytes_written += frame_bytes;
        self.bytes_since_kick += frame_bytes;
        self.frames += 1;
        self.frames_since_sync += 1;
        if self.fsync_every > 0 && self.frames_since_sync >= self.fsync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Appends an events frame: `count` events already encoded in `body`.
    pub(crate) fn append_events(&mut self, count: u32, body: &[u8]) -> Result<()> {
        self.write_frame(FRAME_EVENTS, &[&count.to_le_bytes(), body])
    }

    /// Appends a safepoint frame and rotates the segment if it outgrew
    /// the configured limit.
    ///
    /// Every safepoint *flushes* to the OS — buffered frames survive a
    /// process kill from here on — and, once [`KICK_BYTES`] of frames
    /// have accumulated, kicks the background [`Flusher`] so dirty pages
    /// drain to disk while the run continues. The
    /// synchronous `fsync` (power-loss durability) is reserved for
    /// safepoints that carry a snapshot generation, segment rotation,
    /// and shutdown; `fsync_every` tightens that from the frame side.
    /// Per-collection synchronous fsyncs would dominate the whole write
    /// path (milliseconds each against a microsecond-scale
    /// inter-collection interval) for a guarantee the torn-tail recovery
    /// does not need.
    pub(crate) fn safepoint(
        &mut self,
        events_applied: u64,
        collections: u64,
        generation: u64,
    ) -> Result<()> {
        let mut payload = [0u8; 24];
        payload[..8].copy_from_slice(&events_applied.to_le_bytes());
        payload[8..16].copy_from_slice(&collections.to_le_bytes());
        payload[16..].copy_from_slice(&generation.to_le_bytes());
        self.write_frame(FRAME_SAFEPOINT, &[&payload])?;
        if generation > 0 {
            self.sync()?;
        } else {
            self.out.flush().map_err(io_err)?;
            if self.bytes_since_kick >= KICK_BYTES {
                self.flusher.kick(self.out.get_ref());
                self.bytes_since_kick = 0;
            }
        }
        if self.seg_bytes >= self.segment_limit {
            self.rotate(events_applied)?;
        }
        Ok(())
    }

    fn rotate(&mut self, start_event: u64) -> Result<()> {
        // A sealed segment is made power-loss durable before the next one
        // opens, so only the newest segment can ever hold a torn tail.
        self.sync()?;
        self.seq += 1;
        self.out = BufWriter::with_capacity(
            WRITE_BUF_BYTES,
            open_segment(&self.dir, self.seq, start_event)?,
        );
        self.seg_bytes = HEADER_BYTES;
        self.bytes_written += HEADER_BYTES;
        self.segments += 1;
        self.write_header(start_event)
    }

    fn sync(&mut self) -> Result<()> {
        self.out.flush().map_err(io_err)?;
        self.out.get_ref().sync_data().map_err(io_err)?;
        self.fsyncs += 1;
        self.frames_since_sync = 0;
        self.bytes_since_kick = 0;
        Ok(())
    }

    /// Final flush + fsync at shutdown.
    pub(crate) fn finish(&mut self) -> Result<()> {
        self.sync()
    }
}

fn open_segment(dir: &Path, seq: u64, _start_event: u64) -> Result<File> {
    File::create(dir.join(segment_name(seq))).map_err(io_err)
}

/// A safepoint frame as read back from the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafepointNote {
    /// Events applied when the safepoint was written.
    pub events_applied: u64,
    /// Collections completed at that point.
    pub collections: u64,
    /// Snapshot generation written at this safepoint (0 = none).
    pub generation: u64,
}

/// An interrupted write detected (and dropped) at the end of the newest
/// log segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Segment sequence number the tear was found in.
    pub segment: u64,
    /// Byte offset of the first unusable frame.
    pub offset: u64,
    /// Human-readable cause (`truncated frame`, `checksum mismatch`, …).
    pub reason: String,
}

/// Everything read back from a data directory's change log.
#[derive(Debug, Clone, PartialEq)]
pub struct LogContents {
    /// The replayable input events, in append order.
    pub events: Vec<Event>,
    /// Safepoint markers, in append order.
    pub safepoints: Vec<SafepointNote>,
    /// The torn tail, when the newest segment ended mid-frame.
    pub torn: Option<TornTail>,
    /// Number of segment files read.
    pub segments: usize,
}

/// Reads the whole change log under `dir` into memory, tolerating a torn
/// tail in the newest segment: [`LogReader`] collected into one `Vec`.
pub fn read_log(dir: &Path) -> Result<LogContents> {
    let mut reader = LogReader::open(dir)?;
    let mut block = EventBlock::with_capacity(BLOCK_EVENTS);
    let mut events = Vec::new();
    while reader.next_block(&mut block, BLOCK_EVENTS)? > 0 {
        events.extend(block.iter());
    }
    Ok(LogContents {
        events,
        segments: reader.segments as usize,
        safepoints: reader.safepoints,
        torn: reader.torn,
    })
}

/// Streams a data directory's change log into caller-owned
/// [`EventBlock`]s, one CRC-checked frame at a time.
///
/// Segments are opened in sequence order; each header's magic, version,
/// sequence number and `start_event` (the events decoded before it) are
/// checked on open. A frame's checksum is verified over the whole frame
/// before any of its events is decoded, so a block never holds an event
/// from a damaged frame. Safepoint frames met on the way are collected
/// into [`LogReader::safepoints`]. A truncated or checksum-corrupt frame
/// in the newest segment ends the stream and is reported as
/// [`LogReader::torn_tail`]; anywhere else it is a
/// [`PgcError::TraceFormat`] error, as is a frame whose event count,
/// trailing bytes or safepoint size disagree with its length.
///
/// Memory is one frame plus the caller's block, however long the log.
pub struct LogReader {
    dir: PathBuf,
    /// Segment files found (sequence numbers `0..segments`).
    segments: u64,
    /// Next segment to open.
    next_seq: u64,
    /// The open segment; `None` between segments and at the end.
    segment: Option<SegmentFile>,
    /// Sequence number of the segment `frame` came from.
    seq: u64,
    /// The current frame: kind byte then payload, checksum verified.
    frame: Vec<u8>,
    /// Decode position inside `frame`.
    pos: usize,
    /// Events of the current events frame not yet decoded.
    left: u32,
    /// Events decoded so far, over all segments.
    decoded: u64,
    safepoints: Vec<SafepointNote>,
    torn: Option<TornTail>,
}

struct SegmentFile {
    file: File,
    len: u64,
    pos: u64,
    last: bool,
}

/// Outcome of reading one frame off a segment.
enum FrameRead {
    /// The segment ended exactly at a frame boundary.
    End,
    /// The frame is truncated or fails its checksum.
    Damaged(&'static str),
    /// A whole, checksum-verified frame is in the buffer.
    Frame,
}

impl SegmentFile {
    /// Reads the next frame's kind byte and payload into `frame`.
    fn read_frame(&mut self, frame: &mut Vec<u8>) -> Result<FrameRead> {
        let remaining = self.len - self.pos;
        if remaining == 0 {
            return Ok(FrameRead::End);
        }
        if remaining < 4 + 1 + 4 {
            return Ok(FrameRead::Damaged("truncated frame header"));
        }
        let mut len = [0u8; 4];
        self.file.read_exact(&mut len).map_err(io_err)?;
        let body = 1 + u64::from(u32::from_le_bytes(len)) + 4;
        if remaining - 4 < body {
            return Ok(FrameRead::Damaged("truncated frame body"));
        }
        frame.clear();
        frame.resize(body as usize, 0);
        self.file.read_exact(frame).map_err(io_err)?;
        self.pos += 4 + body;
        let crc_at = frame.len() - 4;
        let stated_crc = u32::from_le_bytes(frame[crc_at..].try_into().unwrap());
        frame.truncate(crc_at);
        if crc32(frame) != stated_crc {
            return Ok(FrameRead::Damaged("frame checksum mismatch"));
        }
        Ok(FrameRead::Frame)
    }
}

impl LogReader {
    /// Finds the log segments under `dir`; fails if there are none or
    /// their sequence numbers are not `0, 1, 2, …`.
    pub fn open(dir: &Path) -> Result<Self> {
        let mut seqs: Vec<u64> = Vec::new();
        for entry in fs::read_dir(dir).map_err(io_err)? {
            let name = entry.map_err(io_err)?.file_name();
            let name = name.to_string_lossy();
            if let Some(seq) = name
                .strip_prefix("log-")
                .and_then(|s| s.strip_suffix(".pgcl"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable();
        if seqs.is_empty() {
            return Err(PgcError::TraceFormat(format!(
                "no log segments under {}",
                dir.display()
            )));
        }
        for (i, &seq) in seqs.iter().enumerate() {
            if seq != i as u64 {
                return Err(PgcError::TraceFormat(format!(
                    "log segments not contiguous: expected seq {i}, found {seq}"
                )));
            }
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            segments: seqs.len() as u64,
            next_seq: 0,
            segment: None,
            seq: 0,
            frame: Vec::new(),
            pos: 0,
            left: 0,
            decoded: 0,
            safepoints: Vec::new(),
            torn: None,
        })
    }

    /// Clears `block` and decodes up to `limit` events into it, returning
    /// how many — `0` once the log (or its surviving prefix) is exhausted.
    /// A block may span frames and segments; safepoint frames are consumed
    /// on the way.
    pub fn next_block(&mut self, block: &mut EventBlock, limit: usize) -> Result<usize> {
        block.clear();
        while block.len() < limit {
            if self.left == 0 && !self.next_events_frame()? {
                break;
            }
            let take = (limit - block.len()).min(self.left as usize);
            for _ in 0..take {
                match decode_compact(&self.frame, &mut self.pos)? {
                    Some(event) => block.push(&event),
                    None => return Err(self.bad("events frame ended early")),
                }
            }
            // Counted per frame chunk, so a segment opened later in this
            // same block checks its `start_event` against the true count.
            self.left -= take as u32;
            self.decoded += take as u64;
            self.check_frame_end()?;
        }
        Ok(block.len())
    }

    /// Safepoint markers read so far, in append order.
    pub fn safepoints(&self) -> &[SafepointNote] {
        &self.safepoints
    }

    /// The torn tail that ended the stream, once one has been met.
    pub fn torn_tail(&self) -> Option<&TornTail> {
        self.torn.as_ref()
    }

    fn bad(&self, reason: &str) -> PgcError {
        PgcError::TraceFormat(format!("log segment {}: {reason}", self.seq))
    }

    /// A fully decoded events frame must end exactly at its last event.
    fn check_frame_end(&self) -> Result<()> {
        if self.left == 0 && self.pos != self.frame.len() {
            return Err(self.bad("events frame has trailing bytes"));
        }
        Ok(())
    }

    /// Advances to the next events frame, opening segments and collecting
    /// safepoint frames on the way. `false` at the end of the log.
    fn next_events_frame(&mut self) -> Result<bool> {
        loop {
            if self.segment.is_none() {
                if self.torn.is_some() || self.next_seq == self.segments {
                    return Ok(false);
                }
                self.open_segment()?;
            }
            let segment = self.segment.as_mut().expect("segment opened above");
            let frame_start = segment.pos;
            match segment.read_frame(&mut self.frame)? {
                FrameRead::End => self.segment = None,
                FrameRead::Damaged(reason) => {
                    if !segment.last {
                        return Err(self.bad(&format!("{reason} (not in newest segment)")));
                    }
                    self.torn = Some(TornTail {
                        segment: self.seq,
                        offset: frame_start,
                        reason: reason.to_string(),
                    });
                    self.segment = None;
                    return Ok(false);
                }
                FrameRead::Frame => {
                    let payload = &self.frame[1..];
                    match self.frame[0] {
                        FRAME_EVENTS => {
                            if payload.len() < 4 {
                                return Err(self.bad("events frame too short"));
                            }
                            self.left = u32::from_le_bytes(payload[..4].try_into().unwrap());
                            self.pos = 1 + 4;
                            if self.left > 0 {
                                return Ok(true);
                            }
                            self.check_frame_end()?;
                        }
                        FRAME_SAFEPOINT => {
                            if payload.len() != 24 {
                                return Err(self
                                    .bad(&format!("safepoint frame has {} bytes", payload.len())));
                            }
                            self.safepoints.push(SafepointNote {
                                events_applied: u64::from_le_bytes(
                                    payload[..8].try_into().unwrap(),
                                ),
                                collections: u64::from_le_bytes(payload[8..16].try_into().unwrap()),
                                generation: u64::from_le_bytes(payload[16..].try_into().unwrap()),
                            });
                        }
                        other => {
                            return Err(self.bad(&format!("unknown frame kind {other}")));
                        }
                    }
                }
            }
        }
    }

    /// Opens segment `next_seq` and checks its header.
    fn open_segment(&mut self) -> Result<()> {
        let seq = self.next_seq;
        self.seq = seq;
        let mut file = File::open(self.dir.join(segment_name(seq))).map_err(io_err)?;
        let len = file.metadata().map_err(io_err)?.len();
        let mut header = [0u8; HEADER_BYTES as usize];
        if len < HEADER_BYTES {
            return Err(self.bad("bad or missing header"));
        }
        file.read_exact(&mut header).map_err(io_err)?;
        if &header[..4] != MAGIC {
            return Err(self.bad("bad or missing header"));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(self.bad(&format!("unsupported version {version}")));
        }
        let stated_seq = u64::from_le_bytes(header[8..16].try_into().unwrap());
        if stated_seq != seq {
            return Err(self.bad(&format!("header says seq {stated_seq}")));
        }
        let start_event = u64::from_le_bytes(header[16..24].try_into().unwrap());
        if start_event != self.decoded {
            return Err(self.bad(&format!(
                "starts at event {start_event}, but {} events precede it",
                self.decoded
            )));
        }
        self.segment = Some(SegmentFile {
            file,
            len,
            pos: HEADER_BYTES,
            last: seq + 1 == self.segments,
        });
        self.next_seq += 1;
        Ok(())
    }
}
