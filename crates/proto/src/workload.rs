//! The application-layer interface: a [`Workload`] allocates its shared
//! data in a [`World`] and produces one body per simulated processor,
//! either async ([`AsyncBody`], which the driver polls in place) or sync
//! ([`ThreadBody`], which runs on an OS thread behind the baton).
//!
//! Initialization (filling input arrays) and verification happen through
//! the *untimed* accessors, mirroring the paper's methodology where data
//! setup is outside the measured parallel section.

use std::future::Future;
use std::pin::Pin;

use crate::shmem::World;
use crate::vm::{Cpu, Proc};

/// One thread body: the program processor `pid` runs, on an OS thread.
pub type ThreadBody = Box<dyn FnOnce(&Proc<'_>) + Send + 'static>;

/// A running async body.
pub type BodyFuture = Pin<Box<dyn Future<Output = ()>>>;

/// One async body: the program processor `pid` runs, as a future over its
/// [`Cpu`] handle. Build one with [`async_body`].
pub type AsyncBody = Box<dyn FnOnce(Cpu) -> BodyFuture + Send + 'static>;

/// Boxes an async closure body as an [`AsyncBody`].
///
/// # Example
///
/// ```rust
/// use ssm_proto::{async_body, AsyncBody, World};
/// let mut world = World::new(1 << 16);
/// let v = world.alloc_vec::<u64>(4);
/// let bar = world.alloc_barrier();
/// let body: AsyncBody = async_body(move |p| async move {
///     v.write(&p, p.pid(), 7).await;
///     p.barrier(bar).await;
/// });
/// # drop(body);
/// ```
pub fn async_body<F, Fut>(f: F) -> AsyncBody
where
    F: FnOnce(Cpu) -> Fut + Send + 'static,
    Fut: Future<Output = ()> + 'static,
{
    Box::new(move |p| Box::pin(f(p)))
}

/// An application in the suite (original or restructured).
///
/// The bodies must be data-race-free: conflicting shared accesses
/// by two processors are ordered by a lock release/acquire or a barrier
/// (see [`crate::vm`] for why batching relies on it).
pub trait Workload {
    /// Display name ("FFT", "Barnes-original", "Ocean-rowwise", …).
    fn name(&self) -> String;

    /// Bytes of shared store the workload needs.
    fn mem_bytes(&self) -> usize;

    /// Allocates shared data inside `world`, initializes inputs (untimed),
    /// and returns exactly `nprocs` thread bodies.
    ///
    /// Implementations may stash handles (e.g. in a `RefCell`) so
    /// [`Workload::verify`] can inspect results after the run.
    ///
    /// A workload implements this or [`Workload::spawn_async`]. The
    /// default derives thread bodies from `spawn_async`'s: each runs its
    /// async body with [`Proc::block_on`], so both forms run the same
    /// application code.
    ///
    /// # Panics
    ///
    /// The default panics if the workload implements neither method.
    fn spawn(&self, world: &mut World, nprocs: usize) -> Vec<ThreadBody> {
        self.spawn_async(world, nprocs)
            .expect("a workload implements spawn or spawn_async")
            .into_iter()
            .map(|body| {
                let body: ThreadBody = Box::new(move |p: &Proc<'_>| p.block_on(body));
                body
            })
            .collect()
    }

    /// Like [`Workload::spawn`], but returns async bodies, which the
    /// driver polls on its own thread: no OS thread per processor and no
    /// baton handoff. `None` (the default) means the workload has only
    /// thread bodies; it must then leave `world` untouched.
    fn spawn_async(&self, world: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
        let _ = (world, nprocs);
        None
    }

    /// Checks the computed result after the run (untimed).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first discrepancy.
    fn verify(&self) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal workload used to exercise the trait plumbing.
    struct Trivial;

    impl Workload for Trivial {
        fn name(&self) -> String {
            "trivial".into()
        }
        fn mem_bytes(&self) -> usize {
            4096
        }
        fn spawn(&self, world: &mut World, nprocs: usize) -> Vec<ThreadBody> {
            let v = world.alloc_vec::<u64>(nprocs);
            (0..nprocs)
                .map(|pid| {
                    let v = v.clone();
                    let body: ThreadBody = Box::new(move |p: &Proc<'_>| {
                        v.set(p, pid, pid as u64);
                    });
                    body
                })
                .collect()
        }
    }

    #[test]
    fn workload_produces_one_body_per_proc() {
        let w = Trivial;
        let mut world = World::new(w.mem_bytes());
        let bodies = w.spawn(&mut world, 4);
        assert_eq!(bodies.len(), 4);
        assert_eq!(w.name(), "trivial");
        assert!(w.verify().is_ok());
    }
}
