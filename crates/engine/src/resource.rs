//! Contended shared resources.
//!
//! The paper's simulator "models contention in great detail at all levels,
//! including the network end-points" (§3.1). Two kinds of contention arise:
//!
//! * **occupancy** — a serially-reusable unit (host CPU sending a message,
//!   the NI processor preparing a packet) is busy for a fixed time per
//!   operation; later requests queue behind earlier ones. Modelled by
//!   [`Resource`].
//! * **bandwidth** — a byte pipe (I/O bus, memory bus) moves data at a fixed
//!   rate; transfers serialize. Modelled by [`Pipe`], which keeps bandwidth
//!   as an exact rational (`bytes` per `cycles`) so the simulation stays
//!   deterministic and integer-only.
//!
//! Because the simulation is single-threaded (the engine's baton guarantees
//! it), reservation order equals simulation order and a simple
//! `busy_until` watermark implements FIFO queueing exactly.

use crate::Cycles;

/// A serially-reusable resource with FIFO queueing.
///
/// `acquire(now, duration)` reserves the resource for `duration` cycles at
/// the earliest time ≥ `now` it is free, and returns the cycle at which the
/// reservation *completes*.
///
/// # Example
///
/// ```rust
/// let mut ni = ssm_engine::Resource::new();
/// assert_eq!(ni.acquire(0, 100), 100);
/// assert_eq!(ni.acquire(50, 100), 200); // waits for the first packet
/// assert_eq!(ni.acquire(500, 100), 600); // idle gap: starts immediately
/// ```
#[derive(Debug, Clone, Default)]
pub struct Resource {
    busy_until: Cycles,
    /// Total cycles the resource was occupied (for utilization statistics).
    busy_cycles: Cycles,
}

impl Resource {
    /// Creates a resource that is free from cycle 0.
    pub fn new() -> Self {
        Resource::default()
    }

    /// Reserves the resource at the earliest point ≥ `now`; returns the
    /// completion time. A zero `duration` returns `max(now, busy_until)`
    /// without occupying anything.
    pub fn acquire(&mut self, now: Cycles, duration: Cycles) -> Cycles {
        let start = self.busy_until.max(now);
        self.busy_until = start + duration;
        self.busy_cycles += duration;
        self.busy_until
    }

    /// Like [`Resource::acquire`] but also returns the start time, which is
    /// when the requester stops waiting in line and begins being served.
    pub fn acquire_span(&mut self, now: Cycles, duration: Cycles) -> (Cycles, Cycles) {
        let start = self.busy_until.max(now);
        self.busy_until = start + duration;
        self.busy_cycles += duration;
        (start, self.busy_until)
    }

    /// Total occupied cycles so far.
    pub fn busy_cycles(&self) -> Cycles {
        self.busy_cycles
    }
}

/// A bandwidth-limited byte pipe with FIFO queueing.
///
/// Bandwidth is an exact rational `bytes_per_period / period`: e.g. the
/// paper's achievable I/O bus moves 0.5 bytes/cycle = 1 byte per 2 cycles,
/// and the "better than best" configuration moves 4 bytes/cycle. A `None`
/// rate means infinite bandwidth (transfers are free and instantaneous).
///
/// # Example
///
/// ```rust
/// use ssm_engine::Pipe;
/// // 0.5 bytes/cycle: a 4096-byte page occupies the bus for 8192 cycles.
/// let mut io_bus = Pipe::new(1, 2);
/// assert_eq!(io_bus.transfer(0, 4096), 8192);
/// // Back-to-back transfers queue.
/// assert_eq!(io_bus.transfer(0, 32), 8192 + 64);
/// ```
#[derive(Debug, Clone)]
pub struct Pipe {
    /// `Some((bytes, cycles))`: moves `bytes` every `cycles`. `None`: infinite.
    rate: Option<(u64, u64)>,
    busy_until: Cycles,
    bytes_moved: u64,
    busy_cycles: Cycles,
}

impl Pipe {
    /// A pipe moving `bytes` every `cycles` (both must be non-zero).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` or `cycles` is zero; use [`Pipe::infinite`] for an
    /// uncontended pipe.
    pub fn new(bytes: u64, cycles: u64) -> Self {
        assert!(bytes > 0 && cycles > 0, "rate terms must be non-zero");
        Pipe {
            rate: Some((bytes, cycles)),
            busy_until: 0,
            bytes_moved: 0,
            busy_cycles: 0,
        }
    }

    /// A pipe with infinite bandwidth: transfers complete instantly and
    /// never contend.
    pub fn infinite() -> Self {
        Pipe {
            rate: None,
            busy_until: 0,
            bytes_moved: 0,
            busy_cycles: 0,
        }
    }

    /// Cycles needed to move `bytes` through an idle pipe (ceiling division).
    pub fn latency_of(&self, bytes: u64) -> Cycles {
        match self.rate {
            None => 0,
            Some((b, c)) => (bytes * c).div_ceil(b),
        }
    }

    /// Moves `bytes` through the pipe starting no earlier than `now`;
    /// returns the completion time. Transfers are FIFO.
    pub fn transfer(&mut self, now: Cycles, bytes: u64) -> Cycles {
        self.bytes_moved += bytes;
        let dur = self.latency_of(bytes);
        let start = self.busy_until.max(now);
        self.busy_until = start + dur;
        self.busy_cycles += dur;
        self.busy_until
    }

    /// Total bytes moved so far.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Total occupied cycles so far.
    pub fn busy_cycles(&self) -> Cycles {
        self.busy_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_fifo() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(10, 5), 15);
        assert_eq!(r.acquire(0, 5), 20); // earlier request time still queues
        assert_eq!(r.acquire(100, 1), 101);
        assert_eq!(r.busy_cycles(), 11);
    }

    #[test]
    fn resource_zero_duration() {
        let mut r = Resource::new();
        r.acquire(0, 10);
        assert_eq!(r.acquire(3, 0), 10);
        assert_eq!(r.acquire(0, 0), 10);
    }

    #[test]
    fn resource_span_reports_start() {
        let mut r = Resource::new();
        r.acquire(0, 100);
        let (start, end) = r.acquire_span(40, 10);
        assert_eq!((start, end), (100, 110));
    }

    #[test]
    fn pipe_exact_rational() {
        // 2 bytes / 3 cycles.
        let p = Pipe::new(2, 3);
        assert_eq!(p.latency_of(0), 0);
        assert_eq!(p.latency_of(1), 2); // ceil(3/2)
        assert_eq!(p.latency_of(2), 3);
        assert_eq!(p.latency_of(4096), 6144);
    }

    #[test]
    fn pipe_contention() {
        let mut p = Pipe::new(2, 1); // memory-bus-like: 2 B/cycle
        assert_eq!(p.transfer(0, 32), 16);
        assert_eq!(p.transfer(10, 32), 32);
        assert_eq!(p.bytes_moved(), 64);
    }

    #[test]
    fn pipe_infinite() {
        let mut p = Pipe::infinite();
        assert_eq!(p.transfer(7, u64::MAX / 2), 7);
        assert_eq!(p.busy_cycles(), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn pipe_rejects_zero_rate() {
        let _ = Pipe::new(0, 1);
    }
}
