//! Writing your own workload against the `ssm` programming model: a
//! producer/consumer pipeline with a shared queue protected by a lock —
//! then watching how each protocol prices it.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use std::cell::RefCell;

use ssm::core::{Protocol, SimBuilder};
use ssm::proto::{async_body, AsyncBody, SharedVec, Workload, World};
use ssm::stats::{Bucket, Table};

/// Processor 0 produces `items` values; everyone else consumes them from a
/// shared lock-protected queue and accumulates a checksum.
struct Pipeline {
    items: usize,
    state: RefCell<Option<SharedVec<u64>>>,
}

impl Workload for Pipeline {
    fn name(&self) -> String {
        format!("pipeline({})", self.items)
    }

    fn mem_bytes(&self) -> usize {
        1 << 20
    }

    fn spawn_async(&self, world: &mut World, nprocs: usize) -> Option<Vec<AsyncBody>> {
        // Layout: [head, tail, sum, item0, item1, ...]
        let q = world.alloc_vec::<u64>(self.items + 3);
        let lock = world.alloc_lock();
        let done = world.alloc_barrier();
        *self.state.borrow_mut() = Some(q.clone());
        let items = self.items;
        let bodies = (0..nprocs).map(|pid| {
            let q = q.clone();
            async_body(move |p| async move {
                if pid == 0 {
                    for i in 0..items {
                        p.compute(200); // produce
                        p.lock(lock).await;
                        let tail = q.read(&p, 1).await;
                        q.write(&p, 3 + tail as usize, (i * i) as u64).await;
                        q.write(&p, 1, tail + 1).await;
                        p.unlock(lock).await;
                    }
                } else {
                    loop {
                        p.lock(lock).await;
                        let head = q.read(&p, 0).await;
                        let tail = q.read(&p, 1).await;
                        let got = if head < tail {
                            let v = q.read(&p, 3 + head as usize).await;
                            q.write(&p, 0, head + 1).await;
                            Some(v)
                        } else if tail as usize == items {
                            None // drained
                        } else {
                            Some(u64::MAX) // retry marker
                        };
                        p.unlock(lock).await;
                        match got {
                            None => break,
                            Some(u64::MAX) => p.compute(50), // back off
                            Some(v) => {
                                p.compute(400); // consume
                                p.lock(lock).await;
                                let s = q.read(&p, 2).await;
                                q.write(&p, 2, s + v).await;
                                p.unlock(lock).await;
                            }
                        }
                    }
                }
                p.barrier(done).await;
            })
        });
        Some(bodies.collect())
    }

    fn verify(&self) -> Result<(), String> {
        let guard = self.state.borrow();
        let q = guard.as_ref().ok_or("not spawned")?;
        let want: u64 = (0..self.items as u64).map(|i| i * i).sum();
        let got = q.get_direct(2);
        if got == want {
            Ok(())
        } else {
            Err(format!("checksum {got}, want {want}"))
        }
    }
}

fn main() {
    println!("A custom lock-based pipeline under each protocol (4 processors):\n");
    let mut table = Table::new(vec!["protocol", "cycles", "lock-wait%", "proto%"]);
    for proto in [Protocol::Ideal, Protocol::Sc, Protocol::Hlrc] {
        let w = Pipeline {
            items: 64,
            state: RefCell::new(None),
        };
        let r = SimBuilder::new(proto).procs(4).run(&w).expect_verified();
        let b = r.avg_breakdown();
        table.row(vec![
            r.protocol.clone(),
            r.total_cycles.to_string(),
            format!("{:.0}%", 100.0 * b.fraction(Bucket::LockWait)),
            format!("{:.0}%", 100.0 * b.fraction(Bucket::Protocol)),
        ]);
    }
    println!("{table}");
    println!(
        "Critical sections that touch shared pages are dilated under HLRC\n\
         (page faults and diffs inside the section) — the serialization\n\
         effect the paper identifies as SVM's key lock problem."
    );
}
