//! The simulated cluster: per-node CPUs, memory hierarchies, the network,
//! cost parameters and all statistics — everything a [`crate::Protocol`]
//! implementation charges time against.
//!
//! # Time-accounting conventions
//!
//! * Every node's CPU is a FIFO [`Resource`]: application computation,
//!   protocol handlers and message-send overhead all occupy it, so protocol
//!   service interferes with computation exactly as in the paper (polling
//!   model: the handler cost is incurred once per incoming request).
//! * Protocol work charges the [`Bucket::Protocol`] bucket *at the node
//!   where it executes* — including service performed for other nodes.
//! * The driver charges the *remainder* of each blocking operation's window
//!   (total elapsed minus whatever the protocol charged to this processor
//!   during the window) to the operation's designated bucket (data wait,
//!   lock wait, barrier wait). See `ssm-core`.

use std::ops::Range;

use ssm_engine::{Cycles, Resource};
use ssm_mem::{Hierarchy, MemConfig};
use ssm_net::{CommParams, FaultPlan, Network};
use ssm_stats::{Breakdown, Bucket, Counters, ProtoActivity};

use crate::costs::ProtoCosts;

/// Which detailed protocol-activity account a charge belongs to
/// (Table 4's columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// Handler execution (request service, control, access faults).
    Handler,
    /// Diff creation.
    DiffCreate,
    /// Diff application.
    DiffApply,
    /// Twin creation.
    Twin,
    /// Page-protection changes.
    Mprotect,
}

/// The execution context a message is sent from. It decides how the
/// sender's host overhead is charged, for the first copy and for every
/// retransmission alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFrom {
    /// An application-initiated transaction (a fault request, a lock
    /// acquire, a barrier arrival): the overhead occupies the CPU with no
    /// bucket charge, so the window rule folds it into the operation's
    /// wait bucket.
    App,
    /// Handler context (a home replying with a page): the overhead is
    /// protocol time.
    Handler,
    /// The NI, with no host CPU at either end (AURC's automatic update,
    /// RDMA's one-sided operations): the send costs the host nothing, and
    /// the NI's retransmit timer resends without it. Every copy still pays
    /// bus and NI occupancy.
    Hardware,
}

/// Reliable-delivery sublayer state, present only while a fault plan is
/// installed. The zero-fault path never consults it, so fault-free runs
/// are byte-identical to a build without the sublayer.
///
/// The model: every logical message carries a per-channel sequence
/// number; the NI acks each accepted copy over a reliable hardware
/// control channel (VMMC-style, zero simulated cost — the data path
/// already paid for the copy). A sender whose ack has not returned by
/// the retransmission deadline resends; deadlines back off exponentially
/// and a retry cap turns a persistently lost message into a panic (which
/// the sweep executor reports as a failed cell). Delay spikes are
/// bounded below the base deadline, so only genuinely dropped copies are
/// ever retransmitted; the receiver still discards replayed copies by
/// sequence number.
#[derive(Debug)]
struct Reliability {
    /// Deadline slack beyond the message's two-way zero-load latency.
    rto_pad: Cycles,
    /// Retransmissions allowed per message before the run is declared
    /// lost.
    max_retries: u32,
    /// Next sequence number per (src, dst) channel.
    next_seq: Vec<u64>,
    /// Accepted (in-order) message count per (src, dst) channel.
    accepted: Vec<u64>,
}

/// Retransmissions allowed per message. At the sweep's fault ceiling
/// (25% drops per copy) a message survives ten retries with probability
/// 1 - 2.5e-7 per message; deeper loss indicates a broken configuration
/// and should surface as a failed cell.
const MAX_RETRIES: u32 = 10;

/// One protocol-level event captured when tracing is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle at which the event started.
    pub time: Cycles,
    /// Node the event occurred at.
    pub node: usize,
    /// Event class ("send", "handle", "proto").
    pub label: &'static str,
    /// Free-form detail (destination, byte count, activity…).
    pub detail: String,
}

/// One simulated cluster's mutable state.
#[derive(Debug)]
pub struct Machine {
    nprocs: usize,
    /// Application-visible clock per processor.
    pub clock: Vec<Cycles>,
    cpu: Vec<Resource>,
    hier: Vec<Hierarchy>,
    net: Network,
    costs: ProtoCosts,
    comm: CommParams,
    breakdown: Vec<Breakdown>,
    activity: Vec<ProtoActivity>,
    counters: Vec<Counters>,
    wakeups: Vec<(usize, Cycles)>,
    trace: Option<Vec<TraceEvent>>,
    rel: Option<Reliability>,
}

impl Machine {
    /// Builds a cluster of `nprocs` uniprocessor nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nprocs == 0`.
    pub fn new(nprocs: usize, comm: CommParams, costs: ProtoCosts, mem: MemConfig) -> Self {
        assert!(nprocs > 0, "need at least one processor");
        Machine {
            nprocs,
            clock: vec![0; nprocs],
            cpu: (0..nprocs).map(|_| Resource::new()).collect(),
            hier: (0..nprocs).map(|_| Hierarchy::new(mem.clone())).collect(),
            // The Network type needs >= 2 endpoints; a 1-processor run
            // never sends, so give it a dummy second endpoint.
            net: Network::new(nprocs.max(2), comm.clone()),
            costs,
            comm,
            breakdown: vec![Breakdown::new(); nprocs],
            activity: vec![ProtoActivity::default(); nprocs],
            counters: vec![Counters::default(); nprocs],
            wakeups: Vec::new(),
            trace: None,
            rel: None,
        }
    }

    /// Installs a deterministic fault plan on the network and arms the
    /// reliable-delivery sublayer that recovers from it. Without this
    /// call every send takes the exact fault-free path.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        // Deadline slack: one send overhead + handler dispatch + the
        // largest injectable delay spike, so a merely *delayed* ack never
        // triggers a spurious retransmission.
        let rto_pad =
            self.comm.host_overhead + self.comm.msg_handling + plan.rates().max_delay + 256;
        let n = self.net.len();
        self.net.set_fault_plan(plan);
        self.rel = Some(Reliability {
            rto_pad,
            max_retries: MAX_RETRIES,
            next_seq: vec![0; n * n],
            accepted: vec![0; n * n],
        });
    }

    /// Moves one logical message reliably: transmits copies until one is
    /// accepted, waiting out an exponentially backed-off deadline before
    /// each retransmission and paying `from`'s host overhead for it.
    /// Returns `(local_done, arrival)` like [`Machine::send`].
    ///
    /// # Panics
    ///
    /// Panics when a message exceeds the retry cap — a sweep reports that
    /// as a failed cell rather than hanging.
    fn transmit_reliably(
        &mut self,
        from: SendFrom,
        src: usize,
        dst: usize,
        first_ready: Cycles,
        bytes: u64,
    ) -> (Cycles, Cycles) {
        let (rto_pad, max_retries, seq, ch) = {
            let n = self.net.len();
            let rel = self.rel.as_mut().expect("reliability armed");
            let ch = src * n + dst;
            let seq = rel.next_seq[ch];
            rel.next_seq[ch] += 1;
            (rel.rto_pad, rel.max_retries, seq, ch)
        };
        // Base deadline: a full round trip of this message plus the pad.
        let rto = 2 * self.net.zero_load_latency(bytes) + rto_pad;
        let mut local_done = first_ready;
        let mut send_at = first_ready;
        let mut attempt: u32 = 0;
        loop {
            let tx = self.net.transmit(send_at, src, dst, bytes);
            if tx.stall > 0 {
                self.counters[src].faults_stalled += 1;
            }
            if tx.delay > 0 {
                self.counters[src].faults_delayed += 1;
            }
            if tx.duplicated {
                self.counters[src].faults_duplicated += 1;
            }
            if !tx.dropped {
                if tx.duplicated {
                    // The replayed copy reaches dst second; its sequence
                    // number is already accepted, so it is discarded.
                    self.counters[dst].dup_suppressed += 1;
                }
                let rel = self.rel.as_mut().expect("reliability armed");
                debug_assert_eq!(rel.accepted[ch], seq, "channel delivers in order");
                rel.accepted[ch] = seq + 1;
                return (local_done, tx.arrival);
            }
            // Lost copy: no ack by the deadline, so resend.
            self.counters[src].faults_dropped += 1;
            attempt += 1;
            assert!(
                attempt <= max_retries,
                "reliable delivery: message N{src}->N{dst} seq {seq} lost \
                 {attempt} times (retry cap {max_retries})"
            );
            self.counters[src].retransmissions += 1;
            let deadline = send_at + (rto << (attempt - 1).min(16));
            let resume = local_done.max(deadline);
            self.trace_event(resume, src, "retransmit", || {
                format!("-> N{dst}, {bytes} B, attempt {attempt}")
            });
            local_done = self.send_overhead(from, src, resume);
            send_at = local_done;
        }
    }

    /// Turns on protocol-event tracing (off by default: tracing allocates
    /// per event).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Drains the captured trace (empty when tracing is off).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take().unwrap_or_default()
    }

    /// Records an event if tracing is enabled. `detail` is only evaluated
    /// when it will be stored.
    pub fn trace_event(
        &mut self,
        time: Cycles,
        node: usize,
        label: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceEvent {
                time,
                node,
                label,
                detail: detail(),
            });
        }
    }

    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Protocol cost parameters.
    pub fn costs(&self) -> &ProtoCosts {
        &self.costs
    }

    /// Communication cost parameters.
    pub fn comm(&self) -> &CommParams {
        &self.comm
    }

    /// Per-processor execution-time breakdowns.
    pub fn breakdowns(&self) -> &[Breakdown] {
        &self.breakdown
    }

    /// Per-processor protocol-activity details.
    pub fn activities(&self) -> &[ProtoActivity] {
        &self.activity
    }

    /// Per-processor raw event counters.
    pub fn counters(&self) -> &[Counters] {
        &self.counters
    }

    /// Mutable access to one processor's counters.
    pub fn counters_mut(&mut self, p: usize) -> &mut Counters {
        &mut self.counters[p]
    }

    /// Charges `cycles` to `bucket` on processor `p` (no CPU occupancy).
    pub fn charge(&mut self, p: usize, bucket: Bucket, cycles: Cycles) {
        self.breakdown[p].add(bucket, cycles);
    }

    /// Occupies `p`'s CPU for `cycles` starting no earlier than `at`,
    /// charging nothing; returns `(start, end)`. Used for application
    /// compute (the driver charges Busy separately) and for send overhead
    /// inside an application-initiated transaction (absorbed into the
    /// operation's wait bucket by the window rule).
    pub fn occupy_cpu(&mut self, p: usize, at: Cycles, cycles: Cycles) -> (Cycles, Cycles) {
        self.cpu[p].acquire_span(at, cycles)
    }

    /// Runs protocol work of `cycles` on `p`'s CPU starting no earlier than
    /// `at`; charges the Protocol bucket and the detailed `activity`
    /// account; returns the completion time.
    pub fn proto_work(&mut self, p: usize, at: Cycles, cycles: Cycles, what: Activity) -> Cycles {
        let (_, end) = self.cpu[p].acquire_span(at, cycles);
        self.breakdown[p].add(Bucket::Protocol, cycles);
        let a = &mut self.activity[p];
        match what {
            Activity::Handler => a.handler += cycles,
            Activity::DiffCreate => a.diff_create += cycles,
            Activity::DiffApply => a.diff_apply += cycles,
            Activity::Twin => a.twin += cycles,
            Activity::Mprotect => a.mprotect += cycles,
        }
        end
    }

    /// Models protocol code streaming over memory at node `p` (twin/diff
    /// work): pollutes `p`'s caches and charges the *pipelined* stall
    /// cycles as protocol time under `what` (bulk protocol copies move at
    /// memory bandwidth, not one cold miss per line). Returns the
    /// completion time.
    pub fn proto_touch(
        &mut self,
        p: usize,
        at: Cycles,
        addr: u64,
        len: u64,
        write: bool,
        what: Activity,
    ) -> Cycles {
        let stall = self.hier[p].stream_range(at, addr, len, write);
        if stall > 0 {
            self.proto_work(p, at, stall, what)
        } else {
            at
        }
    }

    /// Application-side memory access through `p`'s cache hierarchy;
    /// charges stall cycles to CacheStall and returns the completion time.
    pub fn cache_access(
        &mut self,
        p: usize,
        at: Cycles,
        addr: u64,
        len: u64,
        write: bool,
    ) -> Cycles {
        let stall = self.hier[p].touch_range(at, addr, len, write);
        if stall > 0 {
            self.breakdown[p].add(Bucket::CacheStall, stall);
            // The CPU is stalled: occupy it so handlers queue behind.
            let (_, end) = self.cpu[p].acquire_span(at, stall);
            end
        } else {
            at
        }
    }

    /// A shared access by `p` to `[addr, addr+bytes)`, the one data path
    /// of every protocol: runs `fault(m, unit, t)` on each coherence unit
    /// of `span` in order, threading the time through, then goes through
    /// `p`'s caches. `fault` returns the unit's completion time and whether
    /// `p` faulted on it; the access counts as local when no unit faulted.
    pub fn access(
        &mut self,
        p: usize,
        addr: u64,
        bytes: u64,
        write: bool,
        span: Range<u64>,
        mut fault: impl FnMut(&mut Machine, u64, Cycles) -> (Cycles, bool),
    ) -> Cycles {
        debug_assert!(bytes > 0);
        let mut t = self.clock[p];
        let mut local = true;
        for u in span {
            let (done, faulted) = fault(self, u, t);
            t = done;
            local &= !faulted;
        }
        if local {
            self.counters[p].local_accesses += 1;
        }
        self.cache_access(p, t, addr, bytes, write)
    }

    /// Drops `[addr, addr+len)` from `p`'s caches (stale after protocol
    /// invalidation).
    pub fn cache_invalidate(&mut self, p: usize, addr: u64, len: u64) {
        self.hier[p].invalidate_range(addr, len);
    }

    /// Cache statistics for node `p`.
    pub fn mem_stats(&self, p: usize) -> ssm_mem::MemStats {
        self.hier[p].stats()
    }

    /// Sends `bytes` from `src` to `dst` at `at`, from context `from`:
    /// charges the sender's host overhead, counts the message, then
    /// injects it, through the reliable-delivery sublayer when a fault plan
    /// is installed. Returns `(local_done, arrival)`: when the sender is
    /// free again (`at` for [`SendFrom::Hardware`]), and when the message
    /// reaches `dst`.
    pub fn send(
        &mut self,
        from: SendFrom,
        src: usize,
        at: Cycles,
        dst: usize,
        bytes: u64,
    ) -> (Cycles, Cycles) {
        let t = self.send_overhead(from, src, at);
        self.counters[src].messages += 1;
        self.counters[src].bytes += bytes;
        self.trace_event(at, src, "send", || format!("{from:?} -> N{dst}, {bytes} B"));
        if self.rel.is_some() {
            self.transmit_reliably(from, src, dst, t, bytes)
        } else {
            (t, self.net.deliver(t, src, dst, bytes))
        }
    }

    /// Charges `src`'s host overhead for one copy of a message sent from
    /// `from` at `at`; returns when the sender is free again.
    fn send_overhead(&mut self, from: SendFrom, src: usize, at: Cycles) -> Cycles {
        match from {
            SendFrom::App => self.cpu[src].acquire_span(at, self.comm.host_overhead).1,
            SendFrom::Handler => {
                self.proto_work(src, at, self.comm.host_overhead, Activity::Handler)
            }
            SendFrom::Hardware => at,
        }
    }

    /// Serves a one-sided (RDMA) operation at `node`'s NI at `at`: the NI
    /// reads or writes host memory directly, with no host CPU involvement
    /// and no handler dispatch. Returns the cycle the NI is done serving.
    /// Contends FIFO with ordinary message sends on the same NI.
    pub fn rdma_serve(&mut self, node: usize, at: Cycles) -> Cycles {
        self.trace_event(at, node, "rdma", || "one-sided service".to_string());
        self.net.rdma_serve(at, node)
    }

    /// Dispatches a *request* handler on `node` for a message arriving at
    /// `arrival`: charges the message-handling cost plus
    /// `handler_base + per_list_element * list_elements`, all as protocol
    /// time on `node`'s CPU. Returns the handler completion time.
    pub fn handle_request(&mut self, node: usize, arrival: Cycles, list_elements: u64) -> Cycles {
        let cost = self.comm.msg_handling + self.costs.handler(list_elements);
        self.trace_event(arrival, node, "handle", || {
            format!("request handler, {list_elements} list elements")
        });
        self.proto_work(node, arrival, cost, Activity::Handler)
    }

    /// Schedules processor `p` (currently blocked in the driver) to resume
    /// at time `t`.
    pub fn wake(&mut self, p: usize, t: Cycles) {
        self.wakeups.push((p, t));
    }

    /// Drains pending wakeups (driver-side).
    pub fn take_wakeups(&mut self) -> Vec<(usize, Cycles)> {
        std::mem::take(&mut self.wakeups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(n: usize) -> Machine {
        Machine::new(
            n,
            CommParams::achievable(),
            ProtoCosts::original(),
            MemConfig::pentium_pro_like(),
        )
    }

    #[test]
    fn proto_work_charges_protocol_bucket() {
        let mut mach = m(2);
        let end = mach.proto_work(1, 100, 50, Activity::DiffCreate);
        assert_eq!(end, 150);
        assert_eq!(mach.breakdowns()[1].get(Bucket::Protocol), 50);
        assert_eq!(mach.activities()[1].diff_create, 50);
        assert_eq!(mach.breakdowns()[0].total(), 0);
    }

    #[test]
    fn cpu_contention_between_app_and_handler() {
        let mut mach = m(2);
        // The app occupies [0, 100).
        let (_, end) = mach.occupy_cpu(0, 0, 100);
        assert_eq!(end, 100);
        // A handler arriving at t=10 must wait for the CPU.
        let done = mach.handle_request(0, 10, 0);
        // 100 (CPU free) + 200 (msg handling) + 100 (handler base).
        assert_eq!(done, 400);
    }

    #[test]
    fn handler_list_cost() {
        let mut mach = m(2);
        let t0 = mach.handle_request(0, 0, 0);
        let t1 = mach.handle_request(1, 0, 5);
        assert_eq!(t0, 300);
        assert_eq!(t1, 300 + 100); // 5 elements x 20 cycles
    }

    #[test]
    fn app_send_does_not_charge_buckets() {
        let mut mach = m(2);
        let (local, arrival) = mach.send(SendFrom::App, 0, 0, 1, 64);
        assert_eq!(local, 600);
        assert!(arrival > 600); // host overhead + network
        assert_eq!(mach.breakdowns()[0].total(), 0);
        assert_eq!(mach.counters()[0].messages, 1);
    }

    #[test]
    fn handler_send_charges_protocol() {
        let mut mach = m(2);
        let _ = mach.send(SendFrom::Handler, 0, 0, 1, 64);
        assert_eq!(mach.breakdowns()[0].get(Bucket::Protocol), 600);
    }

    #[test]
    fn hardware_send_costs_the_host_nothing() {
        let mut mach = m(2);
        let (local, arrival) = mach.send(SendFrom::Hardware, 0, 50, 1, 64);
        assert_eq!(local, 50);
        assert!(arrival > 50);
        assert_eq!(mach.breakdowns()[0].total(), 0);
        assert_eq!(mach.counters()[0].messages, 1);
        // The CPU stayed free: an app send at 50 starts at once.
        assert_eq!(mach.send(SendFrom::App, 0, 50, 1, 64).0, 650);
    }

    #[test]
    fn cache_access_charges_stall() {
        let mut mach = m(2);
        let end = mach.cache_access(0, 0, 0, 8, false);
        assert!(end > 0);
        assert!(mach.breakdowns()[0].get(Bucket::CacheStall) > 0);
        // Warm: free.
        let end2 = mach.cache_access(0, end, 0, 8, false);
        assert_eq!(end2, end);
    }

    #[test]
    fn wakeups_drain() {
        let mut mach = m(2);
        mach.wake(1, 500);
        mach.wake(0, 300);
        assert_eq!(mach.take_wakeups(), vec![(1, 500), (0, 300)]);
        assert!(mach.take_wakeups().is_empty());
    }

    #[test]
    fn single_proc_machine_works() {
        let mach = m(1);
        assert_eq!(mach.nprocs(), 1);
    }

    #[test]
    fn reliable_send_matches_plain_send_when_no_fault_fires() {
        use ssm_net::{FaultPlan, FaultRates};
        // A plan that never injects: the reliable path must produce the
        // same (local, arrival) pair and charge the same buckets as the
        // plain path (pay-for-what-you-inject).
        let mut plain = m(2);
        let mut armed = m(2);
        armed.set_fault_plan(FaultPlan::new(
            FaultRates {
                drop_ppm: 0,
                dup_ppm: 0,
                delay_ppm: 0,
                stall_ppm: 0,
                max_delay: 1,
                max_stall: 1,
            },
            9,
        ));
        assert_eq!(
            plain.send(SendFrom::App, 0, 0, 1, 64),
            armed.send(SendFrom::App, 0, 0, 1, 64)
        );
        assert_eq!(
            plain.send(SendFrom::Handler, 1, 50, 0, 4096),
            armed.send(SendFrom::Handler, 1, 50, 0, 4096)
        );
        assert_eq!(
            plain.send(SendFrom::Hardware, 0, 99_000, 1, 8),
            armed.send(SendFrom::Hardware, 0, 99_000, 1, 8)
        );
        assert_eq!(plain.breakdowns(), armed.breakdowns());
        assert_eq!(armed.counters()[0].retransmissions, 0);
    }

    #[test]
    fn dropped_message_is_retransmitted_and_arrives() {
        use ssm_net::{FaultPlan, FaultRates};
        let mut mach = m(2);
        // Half the copies drop; every logical message must still land.
        mach.set_fault_plan(FaultPlan::new(
            FaultRates {
                drop_ppm: 500_000,
                dup_ppm: 0,
                delay_ppm: 0,
                stall_ppm: 0,
                max_delay: 1,
                max_stall: 1,
            },
            12345,
        ));
        let mut t = 0;
        for _ in 0..64 {
            let (local, arrival) = mach.send(SendFrom::App, 0, t, 1, 256);
            assert!(arrival > local || arrival > t);
            t = arrival;
        }
        let c = &mach.counters()[0];
        assert_eq!(c.messages, 64, "logical message count is fault-free");
        assert!(c.retransmissions > 0, "half the copies dropped");
        assert_eq!(c.retransmissions, c.faults_dropped);
    }

    #[test]
    fn duplicates_are_suppressed_at_the_receiver() {
        use ssm_net::{FaultPlan, FaultRates};
        let mut mach = m(2);
        mach.set_fault_plan(FaultPlan::new(
            FaultRates {
                drop_ppm: 0,
                dup_ppm: 1_000_000,
                delay_ppm: 0,
                stall_ppm: 0,
                max_delay: 1,
                max_stall: 1,
            },
            3,
        ));
        let (_, a1) = mach.send(SendFrom::App, 0, 0, 1, 64);
        let (_, _) = mach.send(SendFrom::App, 0, a1, 1, 64);
        assert_eq!(mach.counters()[1].dup_suppressed, 2);
        assert_eq!(mach.counters()[0].faults_duplicated, 2);
        assert_eq!(mach.counters()[0].retransmissions, 0);
    }

    #[test]
    fn handler_retransmissions_charge_protocol_time() {
        use ssm_net::{FaultPlan, FaultRates};
        let mut mach = m(2);
        mach.set_fault_plan(FaultPlan::new(
            FaultRates {
                drop_ppm: 500_000,
                dup_ppm: 0,
                delay_ppm: 0,
                stall_ppm: 0,
                max_delay: 1,
                max_stall: 1,
            },
            77,
        ));
        let mut t = 0;
        for _ in 0..32 {
            let (local, arrival) = mach.send(SendFrom::Handler, 0, t, 1, 512);
            t = local.max(arrival);
        }
        let c = mach.counters()[0];
        assert!(c.retransmissions > 0);
        // First copies + every retransmission pay host overhead as
        // protocol (handler) time.
        let want = (32 + c.retransmissions) * mach.comm().host_overhead;
        assert_eq!(mach.breakdowns()[0].get(Bucket::Protocol), want);
    }

    #[test]
    #[should_panic(expected = "retry cap")]
    fn all_drops_hit_the_retry_cap() {
        use ssm_net::{FaultPlan, FaultRates};
        let mut mach = m(2);
        mach.set_fault_plan(FaultPlan::new(
            FaultRates {
                drop_ppm: 1_000_000,
                dup_ppm: 0,
                delay_ppm: 0,
                stall_ppm: 0,
                max_delay: 1,
                max_stall: 1,
            },
            1,
        ));
        let _ = mach.send(SendFrom::App, 0, 0, 1, 64);
    }
}
