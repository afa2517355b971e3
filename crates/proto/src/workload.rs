//! The application-layer interface: a [`Workload`] allocates its shared
//! data in a [`World`] and produces one thread body per simulated
//! processor.
//!
//! Initialization (filling input arrays) and verification happen through
//! the *untimed* accessors, mirroring the paper's methodology where data
//! setup is outside the measured parallel section.

use crate::shmem::World;
use crate::vm::Proc;

/// One thread body: the program processor `pid` runs.
pub type ThreadBody = Box<dyn FnOnce(&Proc<'_>) + Send + 'static>;

/// An application in the suite (original or restructured).
///
/// The thread bodies must be data-race-free: conflicting shared accesses
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
    fn spawn(&self, world: &mut World, nprocs: usize) -> Vec<ThreadBody>;

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
