//! Deterministic discrete-event simulation engine with execution-driven
//! application threads.
//!
//! This crate is the lowest layer of the `ssm` reproduction of *"Limits to
//! the Performance of Software Shared Memory: A Layered Approach"* (HPCA
//! 1999). It plays the role that **augmint** plays in the paper: it counts
//! simulated time in cycles and lets real application code drive the
//! simulation by yielding memory and synchronization operations to it.
//!
//! The engine knows nothing about caches, networks or coherence protocols —
//! those are built on top of two primitives provided here:
//!
//! * [`Resource`] — a contended shared unit with FIFO queueing (a CPU, an
//!   NI processor, an I/O bus, a memory bus),
//! * [`ThreadPool`] — execution-driven application threads: each simulated
//!   processor's program runs on a real OS thread, but a strict baton
//!   guarantees that **at most one application thread executes at any
//!   instant**, which makes the whole simulation deterministic and makes a
//!   single shared data store safe to access without per-access locking.
//!
//! # Example
//!
//! ```rust
//! use ssm_engine::Resource;
//!
//! let mut cpu = Resource::new();
//! let busy_until = cpu.acquire(100, 50); // request at t=100 for 50 cycles
//! assert_eq!(busy_until, 150);
//! let contended = cpu.acquire(120, 10); // queued behind the first use
//! assert_eq!(contended, 160);
//! ```

pub mod resource;
pub mod threads;
pub mod workers;

pub use resource::Resource;
pub use threads::{Resumed, ThreadId, ThreadPool, Yielder};
pub use workers::WorkerSet;

/// Simulated time, in cycles of the modelled processor.
///
/// The paper normalizes every cost to cycles of a 1-IPC, 200 MHz processor;
/// we keep the same convention throughout the workspace.
pub type Cycles = u64;
