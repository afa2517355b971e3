//! Contended shared resources.
//!
//! The paper's simulator "models contention in great detail at all levels,
//! including the network end-points" (§3.1). Every contended unit is a
//! [`Resource`]: a serially-reusable unit that is busy for some time per
//! use, with later requests queued behind earlier ones. Occupancy (a host
//! CPU sending a message, the NI processor preparing a packet) and
//! bandwidth (an I/O bus or memory bus moving bytes) are the same
//! primitive: the bandwidth user computes the transfer's busy time from
//! its rate, as an exact integer ceiling, so the simulation stays
//! deterministic and integer-only.
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
}
