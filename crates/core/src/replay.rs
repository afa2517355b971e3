//! Capture and replay of an application's operation streams.
//!
//! A thread body sees only its `pid`, `nprocs` and the values it reads, so
//! in a data-race-free workload its operation stream is a function of the
//! synchronization order alone (see DESIGN.md §14, "Capture and replay").
//! A [`ReplayLog`] records one live run: each processor's batches and the
//! order in which each lock was granted. A later run of the same
//! application, at the same processor count, scale and batching setting,
//! can feed the driver from the log instead of from application threads,
//! under any protocol and any layer costs. The driver checks every lock
//! grant against the log and abandons the replay at the first one that
//! differs.
//!
//! The operations live in a temporary file, unlinked as soon as it is
//! created, so a killed process leaves nothing behind; memory holds only a
//! packed 8-byte reference per batch and a 2-byte pid per lock grant (8
//! bytes while capturing).

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use ssm_proto::{BarrierId, Flush, LockId, Op, WorldShape};

use crate::driver::Batching;

/// Bytes of encoded operations the capture buffers before one write.
const WRITE_CHUNK: usize = 16 << 10;

/// The longest encoding of one operation: a tag and two 10-byte varints.
const MAX_OP_BYTES: usize = 21;

/// A batch reference packs its byte offset in the file (40 bits), its
/// encoded length (22 bits) and its flush cause (2 bits).
const OFFSET_BITS: u32 = 40;
const LEN_BITS: u32 = 22;

/// One live run, recorded for replay: the per-processor batches, the
/// per-lock grant order, the world's shape and the workload's
/// verification result.
#[derive(Debug)]
pub struct ReplayLog {
    file: File,
    /// Per processor, its batches in issue order (packed references).
    batches: Vec<Vec<u64>>,
    /// The processors each lock was granted to, lock by lock, each lock's
    /// in grant order: lock `l`'s are `grants[grant_starts[l]..grant_starts[l + 1]]`.
    grants: Vec<u16>,
    grant_starts: Vec<u32>,
    shape: WorldShape,
    app: String,
    verify_error: Option<String>,
    batching: Batching,
}

impl ReplayLog {
    /// The captured workload's name.
    pub(crate) fn app(&self) -> &str {
        &self.app
    }

    /// Processors of the captured run.
    pub(crate) fn nprocs(&self) -> usize {
        self.batches.len()
    }

    /// The batching setting the batches were captured at.
    pub(crate) fn batching(&self) -> Batching {
        self.batching
    }

    /// The shape of the captured run's world.
    pub(crate) fn shape(&self) -> &WorldShape {
        &self.shape
    }

    /// The captured run's verification result.
    pub(crate) fn verify_error(&self) -> Option<String> {
        self.verify_error.clone()
    }

    /// Processor `p`'s batch `i`, decoded onto the back of `queue`; `None`
    /// once `p` has no batch `i` (its thread finished). `buf` is scratch
    /// space for the encoded bytes.
    ///
    /// # Errors
    ///
    /// The file could not be read back.
    pub(crate) fn batch(
        &self,
        p: usize,
        i: usize,
        buf: &mut Vec<u8>,
        queue: &mut impl Extend<Op>,
    ) -> io::Result<Option<Flush>> {
        let Some(&packed) = self.batches[p].get(i) else {
            return Ok(None);
        };
        let offset = packed >> (64 - OFFSET_BITS);
        let len = (packed >> 2) as usize & ((1 << LEN_BITS) - 1);
        buf.resize(len, 0);
        read_at(&self.file, buf, offset)?;
        let mut at = 0;
        queue.extend(std::iter::from_fn(|| {
            (at < buf.len()).then(|| decode(buf, &mut at))
        }));
        Ok(Some(match packed & 3 {
            0 => Flush::Sync,
            1 => Flush::Cap,
            _ => Flush::End,
        }))
    }

    /// The processor the `n`th grant of `lock` went to, if the log holds
    /// that many.
    pub(crate) fn grant(&self, lock: LockId, n: usize) -> Option<usize> {
        let l = lock.0 as usize;
        let at = *self.grant_starts.get(l)? as usize + n;
        (at < *self.grant_starts.get(l + 1)? as usize).then(|| self.grants[at] as usize)
    }
}

/// Records a live run into a [`ReplayLog`]. A write that fails poisons the
/// capture; the run itself goes on.
#[derive(Debug)]
pub(crate) struct Recorder {
    log: ReplayLog,
    /// Every grant as (lock, pid), in grant order.
    grants: Vec<(u32, u16)>,
    buf: Vec<u8>,
    /// File offset of `buf[0]`.
    at: u64,
    failed: bool,
}

impl Recorder {
    /// Opens an unlinked temporary file for a run of `nprocs` processors
    /// over a world of `shape`.
    pub(crate) fn new(nprocs: usize, shape: WorldShape, batching: Batching) -> io::Result<Self> {
        if nprocs > usize::from(u16::MAX) + 1 {
            return Err(io::Error::other("too many processors to log"));
        }
        Ok(Recorder {
            log: ReplayLog {
                file: unlinked_temp_file()?,
                batches: vec![Vec::new(); nprocs],
                grants: Vec::new(),
                grant_starts: Vec::new(),
                shape,
                app: String::new(),
                verify_error: None,
                batching,
            },
            grants: Vec::new(),
            buf: Vec::with_capacity(WRITE_CHUNK),
            at: 0,
            failed: false,
        })
    }

    /// Appends `p`'s next batch.
    pub(crate) fn batch(&mut self, p: usize, ops: &[Op], flush: Flush) {
        if self.failed {
            return;
        }
        // Write out first if this batch could outgrow the buffer, so the
        // buffer never reallocates.
        if self.buf.len() + ops.len() * MAX_OP_BYTES > self.buf.capacity() {
            self.flush();
        }
        let start = self.buf.len();
        for op in ops {
            encode(op, &mut self.buf);
        }
        let offset = self.at + start as u64;
        let len = (self.buf.len() - start) as u64;
        if offset >= 1 << OFFSET_BITS || len >= 1 << LEN_BITS {
            self.failed = true;
            return;
        }
        let cause = match flush {
            Flush::Sync => 0,
            Flush::Cap => 1,
            Flush::End => 2,
        };
        self.log.batches[p].push(offset << (64 - OFFSET_BITS) | len << 2 | cause);
    }

    /// Notes that `lock` was granted to `p`.
    pub(crate) fn grant(&mut self, lock: LockId, p: usize) {
        self.grants.push((lock.0, p as u16));
    }

    fn flush(&mut self) {
        if !self.failed && (&self.log.file).write_all(&self.buf).is_err() {
            self.failed = true;
        }
        self.at += self.buf.len() as u64;
        self.buf.clear();
    }

    /// The finished log, unless a write failed.
    pub(crate) fn finish(mut self, app: String, verify_error: Option<String>) -> Option<ReplayLog> {
        self.flush();
        if self.failed {
            return None;
        }
        // Group the grants by lock, keeping each lock's in grant order.
        let mut starts = vec![0u32; self.log.shape.nlocks + 1];
        for &(l, _) in &self.grants {
            starts[l as usize + 1] += 1;
        }
        for l in 1..starts.len() {
            starts[l] += starts[l - 1];
        }
        let mut next = starts.clone();
        let mut pids = vec![0u16; self.grants.len()];
        for &(l, p) in &self.grants {
            pids[next[l as usize] as usize] = p;
            next[l as usize] += 1;
        }
        self.log.grants = pids;
        self.log.grant_starts = starts;
        self.log.app = app;
        self.log.verify_error = verify_error;
        Some(self.log)
    }
}

/// Creates a file in the temp dir and unlinks it at once: it lives exactly
/// as long as the handle.
fn unlinked_temp_file() -> io::Result<File> {
    if !cfg!(unix) {
        // Elsewhere an open file cannot be unlinked; run without logs.
        return Err(io::ErrorKind::Unsupported.into());
    }
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "ssm-replay-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(&path)?;
    std::fs::remove_file(&path)?;
    Ok(file)
}

#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(not(unix))]
fn read_at(_file: &File, _buf: &mut [u8], _offset: u64) -> io::Result<()> {
    Err(io::ErrorKind::Unsupported.into())
}

/// Appends `v` as a LEB128 varint.
fn put(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn get(buf: &[u8], at: &mut usize) -> u64 {
    let mut v = 0;
    let mut shift = 0;
    loop {
        let b = buf[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// One operation: a tag byte, then its fields as varints.
fn encode(op: &Op, buf: &mut Vec<u8>) {
    match *op {
        Op::Compute(c) => {
            buf.push(0);
            put(buf, c);
        }
        Op::Read { addr, bytes } => {
            buf.push(1);
            put(buf, addr);
            put(buf, bytes);
        }
        Op::Write { addr, bytes } => {
            buf.push(2);
            put(buf, addr);
            put(buf, bytes);
        }
        Op::Lock(l) => {
            buf.push(3);
            put(buf, l.0.into());
        }
        Op::Unlock(l) => {
            buf.push(4);
            put(buf, l.0.into());
        }
        Op::Barrier(b) => {
            buf.push(5);
            put(buf, b.0.into());
        }
    }
}

fn decode(buf: &[u8], at: &mut usize) -> Op {
    let tag = buf[*at];
    *at += 1;
    match tag {
        0 => Op::Compute(get(buf, at)),
        1 | 2 => {
            let addr = get(buf, at);
            let bytes = get(buf, at);
            if tag == 1 {
                Op::Read { addr, bytes }
            } else {
                Op::Write { addr, bytes }
            }
        }
        3 => Op::Lock(LockId(get(buf, at) as u32)),
        4 => Op::Unlock(LockId(get(buf, at) as u32)),
        5 => Op::Barrier(BarrierId(get(buf, at) as u32)),
        t => panic!("corrupt replay log: operation tag {t}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn operations_round_trip() {
        let ops = [
            Op::Compute(0),
            Op::Compute(u64::MAX),
            Op::Read {
                addr: 1 << 40,
                bytes: 8,
            },
            Op::Write {
                addr: 127,
                bytes: 128,
            },
            Op::Lock(LockId(u32::MAX)),
            Op::Unlock(LockId(0)),
            Op::Barrier(BarrierId(300)),
        ];
        let mut buf = Vec::new();
        for op in &ops {
            encode(op, &mut buf);
        }
        let mut at = 0;
        let back: Vec<Op> =
            std::iter::from_fn(|| (at < buf.len()).then(|| decode(&buf, &mut at))).collect();
        assert_eq!(back, ops);
    }

    #[cfg(unix)]
    #[test]
    fn batches_and_grants_read_back_per_processor() {
        let shape = WorldShape {
            heap_bytes: 1,
            nlocks: 2,
            nbarriers: 0,
        };
        let mut rec = Recorder::new(2, shape, Batching(true)).expect("temp file");
        let a = [Op::Compute(5), Op::Lock(LockId(1))];
        let b = [Op::Read { addr: 64, bytes: 4 }];
        rec.batch(1, &a, Flush::Sync);
        rec.grant(LockId(1), 1);
        rec.batch(0, &b, Flush::End);
        let log = rec.finish("t".into(), Some("bad".into())).expect("log");
        let mut buf = Vec::new();
        let mut q = VecDeque::new();
        let mut batch = |p, i| log.batch(p, i, &mut buf, &mut q).expect("readable");
        assert_eq!(batch(0, 0), Some(Flush::End));
        assert_eq!(batch(1, 0), Some(Flush::Sync));
        assert_eq!(batch(1, 1), None);
        assert_eq!(Vec::from(q), [&b[..], &a[..]].concat());
        assert_eq!(
            (log.grant(LockId(1), 0), log.grant(LockId(1), 1)),
            (Some(1), None)
        );
        assert_eq!(log.grant(LockId(0), 0), None);
        assert_eq!((log.app(), log.verify_error()), ("t", Some("bad".into())));
    }
}
