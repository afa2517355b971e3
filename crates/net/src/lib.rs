//! Myrinet-like cluster network model with a VMMC-style fast messaging
//! library.
//!
//! Models the paper's communication layer (§3.2): each node owns a network
//! interface (NI) with its own send occupancy, and an I/O bus whose
//! bandwidth limits host↔network transfers. Links are fast and contention
//! in links/switches is *not* modelled (exactly as in the paper); contention
//! at the end-points — NI occupancy and I/O bus — is modelled in full.
//!
//! A message travels:
//!
//! 1. **host overhead** — the sending processor is busy placing the message
//!    in an NI buffer (charged by the caller on the sending CPU, because the
//!    CPU is a protocol-owned resource);
//! 2. **I/O bus (source)** — DMA from host memory into NI SRAM;
//! 3. **NI occupancy** — the (slow) NI processor prepares each packet;
//!    packets are up to [`CommParams::max_packet`] bytes;
//! 4. **link latency** — fixed small delay;
//! 5. **I/O bus (destination)** — DMA from the NI into host memory.
//!
//! Incoming *data* messages are deposited directly into host memory with no
//! handler or receive operation (VMMC behaviour, §3.2); *request* messages
//! additionally incur [`CommParams::msg_handling`] on the destination
//! processor, which the protocol layer charges when it dispatches the
//! handler.

use ssm_engine::{Cycles, Resource};

/// Communication-layer cost parameters (the paper's Table 2).
///
/// All values in cycles of the 1-IPC 200 MHz processor. See DESIGN.md for
/// the OCR-approximation notes on the exact constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommParams {
    /// Host processor busy time per message send.
    pub host_overhead: Cycles,
    /// I/O bus bandwidth as an exact rational: `Some((bytes, cycles))`
    /// means `bytes` per `cycles` (both non-zero); `None` means infinite.
    pub io_bus_rate: Option<(u64, u64)>,
    /// NI processor occupancy per packet.
    pub ni_occupancy: Cycles,
    /// Cost from a message reaching the head of the incoming queue to its
    /// handler starting (polling model; charged once per request message).
    pub msg_handling: Cycles,
    /// Fixed link latency.
    pub link_latency: Cycles,
    /// Maximum packet size in bytes.
    pub max_packet: u64,
    /// NI processor occupancy to serve a one-sided (RDMA) read or write
    /// against host memory at the *target* node, with no host CPU
    /// involvement. Cheaper than [`CommParams::ni_occupancy`]: the NI only
    /// DMAs to/from a pre-translated address instead of running the full
    /// per-packet send path.
    pub rdma_occupancy: Cycles,
    /// Host processor busy time to post a one-sided descriptor at the
    /// *initiator* (fill in remote address + length, ring the doorbell).
    /// Cheaper than [`CommParams::host_overhead`]: no marshalling, no
    /// handler dispatch state.
    pub rdma_issue: Cycles,
}

impl CommParams {
    /// The *achievable* set (paper's base system "A"): a PentiumPro cluster
    /// with Myrinet under VMMC.
    pub fn achievable() -> Self {
        CommParams {
            host_overhead: 600,
            io_bus_rate: Some((1, 2)), // 0.5 bytes/cycle ~ 100 MB/s
            ni_occupancy: 1000,
            msg_handling: 200,
            link_latency: 20,
            max_packet: 4096,
            rdma_occupancy: 250,
            rdma_issue: 150,
        }
    }

    /// The *best* set ("B"): all parameterized *time* costs zero. The I/O
    /// bus keeps its achievable bandwidth and the link its latency — the
    /// paper zeroes overheads/occupancy/handling only, which is exactly
    /// why the separate "better than best" (B+) point exists: B+ is where
    /// bandwidth finally improves too.
    pub fn best() -> Self {
        CommParams {
            host_overhead: 0,
            io_bus_rate: Some((1, 2)),
            ni_occupancy: 0,
            msg_handling: 0,
            link_latency: 20,
            max_packet: 4096,
            rdma_occupancy: 0,
            rdma_issue: 0,
        }
    }

    /// The *better-than-best* set ("B+"): like [`CommParams::best`] but the
    /// link is free too and the I/O bus moves 4 bytes/cycle — twice the
    /// memory-bus bandwidth (the paper sets an explicit rate here rather
    /// than infinite, to expose bandwidth-limited cases such as Radix).
    pub fn better_than_best() -> Self {
        CommParams {
            host_overhead: 0,
            io_bus_rate: Some((4, 1)),
            ni_occupancy: 0,
            msg_handling: 0,
            link_latency: 0,
            max_packet: 4096,
            rdma_occupancy: 0,
            rdma_issue: 0,
        }
    }

    /// The *halfway* set ("H"): every achievable cost halved (bandwidth
    /// doubled).
    pub fn halfway() -> Self {
        CommParams {
            host_overhead: 300,
            io_bus_rate: Some((1, 1)),
            ni_occupancy: 500,
            msg_handling: 100,
            link_latency: 20,
            max_packet: 4096,
            rdma_occupancy: 125,
            rdma_issue: 75,
        }
    }

    /// The *worse* set ("W"): every achievable cost doubled (bandwidth
    /// halved) — communication degrading relative to processor speed.
    pub fn worse() -> Self {
        CommParams {
            host_overhead: 1200,
            io_bus_rate: Some((1, 4)),
            ni_occupancy: 2000,
            msg_handling: 400,
            link_latency: 20,
            max_packet: 4096,
            rdma_occupancy: 500,
            rdma_issue: 300,
        }
    }
}

impl Default for CommParams {
    fn default() -> Self {
        CommParams::achievable()
    }
}

/// What the fault plan did to one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Delivered untouched.
    None,
    /// The copy is lost after leaving the source (never reaches `dst`).
    Drop,
    /// The NI replays the copy: two identical copies arrive.
    Duplicate,
    /// Arrival is late by the given bounded number of cycles.
    Delay(Cycles),
    /// The source NI is wedged for the given cycles before sending.
    NiStall(Cycles),
}

/// Per-transmission fault probabilities in parts-per-million, with the
/// magnitude bounds for the timed fault classes.
///
/// Rates are integers (not floats) so fault configurations hash and
/// compare exactly — the same discipline the sweep cell model uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRates {
    /// Drop probability per transmission, ppm.
    pub drop_ppm: u32,
    /// Duplicate probability per transmission, ppm.
    pub dup_ppm: u32,
    /// Delay-spike probability per transmission, ppm.
    pub delay_ppm: u32,
    /// NI-stall probability per transmission, ppm.
    pub stall_ppm: u32,
    /// Largest delay spike, cycles (spikes draw uniformly from
    /// `1..=max_delay`).
    pub max_delay: Cycles,
    /// Largest NI stall, cycles (stalls draw uniformly from
    /// `1..=max_stall`).
    pub max_stall: Cycles,
}

/// Deterministic, seeded fault schedule consulted once per transmission.
///
/// The RNG is SplitMix64 — the same generator `ssm-apps` uses for
/// workload initialization — so a `(seed, rates)` pair fixes the entire
/// injected-fault schedule: every rerun of a (single-threaded,
/// deterministic) simulation draws the identical event sequence.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rates: FaultRates,
    state: u64,
}

impl FaultPlan {
    /// A plan injecting each fault class (drop, duplicate, delay spike,
    /// NI stall) at `rate_ppm` per transmission, with default magnitude
    /// bounds (delay spikes up to 8192 cycles, NI stalls up to 4096).
    ///
    /// # Panics
    ///
    /// Panics if `rate_ppm > 250_000` (the four classes together must
    /// fit in one probability draw).
    pub fn uniform(rate_ppm: u32, seed: u64) -> Self {
        FaultPlan::new(
            FaultRates {
                drop_ppm: rate_ppm,
                dup_ppm: rate_ppm,
                delay_ppm: rate_ppm,
                stall_ppm: rate_ppm,
                max_delay: 8192,
                max_stall: 4096,
            },
            seed,
        )
    }

    /// A plan with explicit per-class rates.
    ///
    /// # Panics
    ///
    /// Panics if the class rates sum past 1_000_000 ppm or a timed class
    /// has a zero magnitude bound.
    pub fn new(rates: FaultRates, seed: u64) -> Self {
        let total = rates.drop_ppm as u64
            + rates.dup_ppm as u64
            + rates.delay_ppm as u64
            + rates.stall_ppm as u64;
        assert!(total <= 1_000_000, "fault rates sum past 100%");
        assert!(rates.max_delay > 0 && rates.max_stall > 0, "zero bound");
        FaultPlan { rates, state: seed }
    }

    /// The configured rates and bounds.
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// SplitMix64 (identical constants to `ssm_apps::common::Rng`).
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Draws the fault event for the next transmission.
    pub fn next_event(&mut self) -> FaultEvent {
        let r = (self.next_u64() % 1_000_000) as u32;
        let mut edge = self.rates.drop_ppm;
        if r < edge {
            return FaultEvent::Drop;
        }
        edge += self.rates.dup_ppm;
        if r < edge {
            return FaultEvent::Duplicate;
        }
        edge += self.rates.delay_ppm;
        if r < edge {
            return FaultEvent::Delay(1 + self.next_u64() % self.rates.max_delay);
        }
        edge += self.rates.stall_ppm;
        if r < edge {
            return FaultEvent::NiStall(1 + self.next_u64() % self.rates.max_stall);
        }
        FaultEvent::None
    }
}

/// The observable outcome of one [`Network::transmit`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transmission {
    /// When the first surviving copy sits in `dst` host memory. For a
    /// dropped copy this is the cycle the loss is complete at the source
    /// (nothing arrives).
    pub arrival: Cycles,
    /// The copy was lost and never reaches the destination.
    pub dropped: bool,
    /// A second identical copy arrived (the reliability layer suppresses
    /// it by sequence number).
    pub duplicated: bool,
    /// Extra delay-spike cycles added to the arrival (0 = none).
    pub delay: Cycles,
    /// NI-stall cycles suffered before the send (0 = none).
    pub stall: Cycles,
}

struct Endpoint {
    ni: Resource,
    io_bus: Resource,
}

/// The cluster interconnect: one NI + I/O bus per node, free links.
///
/// # Example
///
/// ```rust
/// use ssm_net::{CommParams, Network};
/// let mut net = Network::new(4, CommParams::achievable());
/// // A 64-byte request from node 0 to node 1, leaving the host at t=0
/// // (host overhead is charged separately on the sending CPU).
/// let arrival = net.deliver(0, 0, 1, 64);
/// assert!(arrival > 0);
/// // On the "best" network only bus bandwidth and the link remain.
/// let mut fast = Network::new(4, CommParams::best());
/// assert_eq!(fast.deliver(0, 0, 1, 64), 128 + 20 + 128);
/// ```
pub struct Network {
    params: CommParams,
    nodes: Vec<Endpoint>,
    fault: Option<FaultPlan>,
}

impl Network {
    /// Creates a network of `nodes` endpoints with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2`, `max_packet == 0`, or a term of
    /// `io_bus_rate` is zero.
    pub fn new(nodes: usize, params: CommParams) -> Self {
        assert!(nodes >= 2, "a cluster needs at least two nodes");
        assert!(params.max_packet > 0, "packets must hold at least one byte");
        if let Some((b, c)) = params.io_bus_rate {
            assert!(b > 0 && c > 0, "rate terms must be non-zero");
        }
        let mk = || Endpoint {
            ni: Resource::new(),
            io_bus: Resource::new(),
        };
        Network {
            nodes: (0..nodes).map(|_| mk()).collect(),
            params,
            fault: None,
        }
    }

    /// Installs a fault plan: from now on [`Network::transmit`] consults
    /// it once per copy. [`Network::deliver`] stays fault-free either way
    /// (the reliability layer decides which path a message takes).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes (never true for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Moves a `bytes`-byte message from `src` to `dst`, with DMA out of
    /// host memory starting at `t` (i.e. *after* the host overhead, which
    /// the caller charges to the sending CPU). Returns the cycle at which
    /// the full message sits in `dst` host memory / at the head of its
    /// incoming queue.
    ///
    /// The message is segmented into packets of at most `max_packet` bytes;
    /// packets pipeline through the NI, link and destination I/O bus.
    /// Contention with other transfers at either endpoint is modelled by
    /// the FIFO resources.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` (protocols service local operations without
    /// the network) or either index is out of range.
    pub fn deliver(&mut self, t: Cycles, src: usize, dst: usize, bytes: u64) -> Cycles {
        self.push(t, src, dst, bytes, true)
    }

    /// The shared transmission path: with `reaches_dst` false the copy is
    /// lost on the wire — it consumes every *source-side* resource exactly
    /// as a delivered copy would, but never crosses the destination I/O
    /// bus. Returns the arrival (or, for a lost copy, the cycle the last
    /// packet left the wire).
    fn push(&mut self, t: Cycles, src: usize, dst: usize, bytes: u64, reaches_dst: bool) -> Cycles {
        assert_ne!(src, dst, "local messages never enter the network");
        let bytes = bytes.max(1); // control messages still occupy a packet
        let mut remaining = bytes;
        let mut arrival = t;
        let mut src_ready = t;
        while remaining > 0 {
            let pkt = remaining.min(self.params.max_packet);
            remaining -= pkt;
            let io = self.io_cycles(pkt);
            // DMA host -> NI over the source I/O bus.
            let t1 = self.nodes[src].io_bus.acquire(src_ready, io);
            // NI prepares the packet.
            let t2 = self.nodes[src].ni.acquire(t1, self.params.ni_occupancy);
            // Next packet can start DMA as soon as this one left the bus.
            src_ready = t1;
            // Wire.
            let t3 = t2 + self.params.link_latency;
            // DMA NI -> host at the destination.
            let t4 = if reaches_dst {
                self.nodes[dst].io_bus.acquire(t3, io)
            } else {
                t3
            };
            arrival = arrival.max(t4);
        }
        arrival
    }

    /// Moves one copy of a message like [`Network::deliver`], but consults
    /// the installed [`FaultPlan`] first (one event draw per call). With no
    /// plan installed this is exactly `deliver` — the zero-fault path pays
    /// nothing for the machinery.
    pub fn transmit(&mut self, t: Cycles, src: usize, dst: usize, bytes: u64) -> Transmission {
        let clean = Transmission {
            arrival: 0,
            dropped: false,
            duplicated: false,
            delay: 0,
            stall: 0,
        };
        let Some(event) = self.fault.as_mut().map(FaultPlan::next_event) else {
            return Transmission {
                arrival: self.deliver(t, src, dst, bytes),
                ..clean
            };
        };
        match event {
            FaultEvent::None => Transmission {
                arrival: self.deliver(t, src, dst, bytes),
                ..clean
            },
            FaultEvent::Drop => Transmission {
                arrival: self.push(t, src, dst, bytes, false),
                dropped: true,
                ..clean
            },
            FaultEvent::Duplicate => {
                let first = self.deliver(t, src, dst, bytes);
                // The replayed copy re-enters the source pipeline right
                // behind the original; FIFO resources serialize it, so it
                // arrives second and is suppressed by sequence number.
                let _ = self.deliver(t, src, dst, bytes);
                Transmission {
                    arrival: first,
                    duplicated: true,
                    ..clean
                }
            }
            FaultEvent::Delay(d) => Transmission {
                arrival: self.deliver(t, src, dst, bytes) + d,
                delay: d,
                ..clean
            },
            FaultEvent::NiStall(s) => {
                // The NI is wedged: occupy it so this send (and anything
                // queued behind it) waits the stall out.
                let _ = self.nodes[src].ni.acquire(t, s);
                Transmission {
                    arrival: self.deliver(t, src, dst, bytes),
                    stall: s,
                    ..clean
                }
            }
        }
    }

    /// Serves a one-sided (RDMA) operation at `node`'s NI: the NI reads or
    /// writes host memory directly, occupying the NI processor for
    /// [`CommParams::rdma_occupancy`] with *no host CPU involvement*.
    /// Returns the cycle the NI is done. One-sided service contends with
    /// ordinary sends on the same NI — the FIFO resource serializes both.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn rdma_serve(&mut self, t: Cycles, node: usize) -> Cycles {
        self.nodes[node].ni.acquire(t, self.params.rdma_occupancy)
    }

    /// One-way zero-load latency of a `bytes` message (no contention), for
    /// reporting and sanity checks.
    pub fn zero_load_latency(&self, bytes: u64) -> Cycles {
        let p = &self.params;
        let io = self.io_cycles(bytes.max(1).min(p.max_packet));
        // First packet: out-bus + occupancy + link + in-bus.
        io + p.ni_occupancy + p.link_latency + io
    }

    /// Cycles the I/O bus is busy moving one `bytes`-byte packet: the
    /// exact ceiling of `io_bus_rate`, 0 on an infinite bus.
    fn io_cycles(&self, bytes: u64) -> Cycles {
        match self.params.io_bus_rate {
            None => 0,
            Some((b, c)) => (bytes * c).div_ceil(b),
        }
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.nodes.len())
            .field("params", &self.params)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered() {
        let a = CommParams::achievable();
        let h = CommParams::halfway();
        let w = CommParams::worse();
        assert!(h.host_overhead < a.host_overhead);
        assert!(a.host_overhead < w.host_overhead);
        assert_eq!(CommParams::best().host_overhead, 0);
        assert_eq!(CommParams::better_than_best().link_latency, 0);
        // The one-sided knobs scale with the rest of the preset, and are
        // always cheaper than the two-sided costs they bypass.
        assert!(h.rdma_occupancy < a.rdma_occupancy);
        assert!(a.rdma_occupancy < w.rdma_occupancy);
        assert_eq!(CommParams::best().rdma_occupancy, 0);
        assert_eq!(CommParams::better_than_best().rdma_issue, 0);
        for p in [a, h, w] {
            assert!(p.rdma_occupancy < p.ni_occupancy);
            assert!(p.rdma_issue < p.host_overhead);
        }
    }

    #[test]
    fn rdma_serve_occupies_the_ni() {
        let mut net = Network::new(2, CommParams::achievable());
        // Serving a one-sided op costs exactly the RDMA occupancy...
        assert_eq!(net.rdma_serve(0, 1), 250);
        // ...and contends FIFO with ordinary sends on the same NI: a send
        // issued behind the one-sided service queues at the NI (the source
        // bus DMA overlaps part of the wait, so the penalty is the
        // remaining occupancy, not the full 250).
        let mut fresh = Network::new(2, CommParams::achievable());
        let uncontended = fresh.deliver(0, 1, 0, 64);
        let contended = net.deliver(0, 1, 0, 64);
        assert_eq!(contended, uncontended + (250 - 128));
        // Other nodes' NIs are untouched.
        assert_eq!(net.rdma_serve(1000, 0), 1250);
    }

    /// A two-node network whose I/O bus moves at `io_bus_rate`.
    fn with_io_bus(io_bus_rate: Option<(u64, u64)>) -> Network {
        let params = CommParams {
            io_bus_rate,
            ..CommParams::achievable()
        };
        Network::new(2, params)
    }

    #[test]
    fn io_cycles_is_the_exact_ceiling() {
        let slow = with_io_bus(Some((2, 3))); // 2 bytes / 3 cycles
        assert_eq!(slow.io_cycles(0), 0);
        assert_eq!(slow.io_cycles(1), 2); // ceil(3/2)
        assert_eq!(slow.io_cycles(2), 3);
        assert_eq!(slow.io_cycles(4096), 6144);
        assert_eq!(with_io_bus(None).io_cycles(u64::MAX / 2), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_rate_term_is_rejected() {
        let _ = with_io_bus(Some((0, 1)));
    }

    #[test]
    fn small_message_latency() {
        let mut net = Network::new(2, CommParams::achievable());
        let t = net.deliver(0, 0, 1, 64);
        // 128 (out I/O bus) + 1000 (NI) + 20 (link) + 128 (in I/O bus).
        assert_eq!(t, 128 + 1000 + 20 + 128);
        assert_eq!(net.zero_load_latency(64), t);
    }

    #[test]
    fn message_segments_into_packets() {
        // Free buses and link: a message costs one NI occupancy per packet
        // of at most `max_packet` bytes, so its arrival counts the packets.
        let params = CommParams {
            io_bus_rate: None,
            link_latency: 0,
            max_packet: 64,
            ..CommParams::achievable()
        };
        for (bytes, packets) in [(0, 1), (64, 1), (65, 2), (192, 3)] {
            let mut net = Network::new(2, params.clone());
            assert_eq!(net.deliver(0, 0, 1, bytes), packets * 1000, "{bytes} B");
        }
    }

    #[test]
    fn packets_pipeline() {
        // With pipelining, an 8 KB message should take much less than twice
        // the single-packet time.
        let mut a = Network::new(2, CommParams::achievable());
        let one = a.deliver(0, 0, 1, 4096);
        let mut b = Network::new(2, CommParams::achievable());
        let two = b.deliver(0, 0, 1, 8192);
        assert!(two < 2 * one);
        assert!(two > one);
    }

    #[test]
    fn endpoint_contention_serializes() {
        let mut net = Network::new(3, CommParams::achievable());
        let first = net.deliver(0, 0, 1, 4096);
        // A second message from node 0 queues behind the first at the
        // source NI and I/O bus.
        let second = net.deliver(0, 0, 2, 4096);
        assert!(second > first);
        // Traffic between uninvolved endpoints is unaffected: node 2 to
        // node 0's *outbound* resources are idle, and a fresh network
        // delivers the same message at the same uncontended time.
        let mut fresh = Network::new(3, CommParams::achievable());
        let uncontended = fresh.deliver(0, 2, 0, 64);
        let cross = net.deliver(second, 2, 0, 64);
        assert_eq!(cross, second + uncontended);
    }

    #[test]
    fn best_network_is_bandwidth_limited_only() {
        let mut net = Network::new(2, CommParams::best());
        // Overheads are gone but the 0.5 B/cycle bus remains: a 64-byte
        // message costs two bus crossings plus the link.
        assert_eq!(net.deliver(0, 0, 1, 64), 128 + 20 + 128);
        // B+ removes the bandwidth limit too (4 B/cycle) and the link.
        let mut bp = Network::new(2, CommParams::better_than_best());
        assert_eq!(bp.deliver(0, 0, 1, 64), 16 + 16);
    }

    #[test]
    fn worse_is_slower_than_achievable() {
        let mut a = Network::new(2, CommParams::achievable());
        let mut w = Network::new(2, CommParams::worse());
        assert!(w.deliver(0, 0, 1, 4096) > a.deliver(0, 0, 1, 4096));
    }

    #[test]
    fn zero_byte_control_message_still_costs() {
        let mut net = Network::new(2, CommParams::achievable());
        assert!(net.deliver(0, 0, 1, 0) > 0);
    }

    #[test]
    #[should_panic(expected = "local messages")]
    fn rejects_self_send() {
        let mut net = Network::new(2, CommParams::achievable());
        let _ = net.deliver(0, 1, 1, 4);
    }

    #[test]
    fn fault_plan_schedule_is_deterministic() {
        // Same (seed, rate) -> the identical injected-fault schedule.
        let mut a = FaultPlan::uniform(100_000, 42);
        let mut b = FaultPlan::uniform(100_000, 42);
        let schedule: Vec<FaultEvent> = (0..512).map(|_| a.next_event()).collect();
        assert!(schedule.iter().any(|e| *e != FaultEvent::None));
        for (i, want) in schedule.iter().enumerate() {
            assert_eq!(b.next_event(), *want, "draw {i}");
        }
        // A different seed diverges.
        let mut c = FaultPlan::uniform(100_000, 43);
        let other: Vec<FaultEvent> = (0..512).map(|_| c.next_event()).collect();
        assert_ne!(schedule, other);
    }

    #[test]
    fn transmit_without_plan_is_exactly_deliver() {
        let mut plain = Network::new(2, CommParams::achievable());
        let mut wired = Network::new(2, CommParams::achievable());
        let mut t = 0;
        for bytes in [64, 4096, 8192] {
            let want = plain.deliver(t, 0, 1, bytes);
            let tx = wired.transmit(t, 0, 1, bytes);
            assert_eq!(tx.arrival, want);
            assert!(!tx.dropped && !tx.duplicated);
            assert_eq!((tx.delay, tx.stall), (0, 0));
            t = want;
        }
        // Both endpoints were left in the same state.
        assert_eq!(wired.deliver(t, 0, 1, 64), plain.deliver(t, 0, 1, 64));
        assert_eq!(wired.deliver(t, 1, 0, 64), plain.deliver(t, 1, 0, 64));
    }

    #[test]
    fn transmissions_report_every_fault_class() {
        let mut net = Network::new(2, CommParams::achievable());
        net.set_fault_plan(FaultPlan::uniform(200_000, 7));
        let mut t = 0;
        let mut seen = [0u64; 4];
        for _ in 0..256 {
            let tx = net.transmit(t, 0, 1, 64);
            // One event per draw, within its magnitude bound.
            let classes = [tx.dropped, tx.duplicated, tx.delay > 0, tx.stall > 0];
            assert!(classes.iter().filter(|&&c| c).count() <= 1, "{tx:?}");
            assert!(tx.delay <= 8192 && tx.stall <= 4096, "{tx:?}");
            for (n, c) in seen.iter_mut().zip(classes) {
                *n += c as u64;
            }
            t = tx.arrival.max(t) + 1;
        }
        // At 20% per class over 256 draws every class fires w.h.p.
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
    }

    #[test]
    fn dropped_copy_consumes_source_but_not_destination() {
        // A lost copy must still occupy the source bus + NI (the sender
        // can't tell until the timeout) while leaving dst untouched.
        let mut net = Network::new(4, CommParams::achievable());
        net.set_fault_plan(FaultPlan::new(
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
        let tx = net.transmit(0, 0, 1, 4096);
        assert!(tx.dropped);
        // Node 0's next send queues behind the lost copy, as it would
        // behind a delivered one.
        let mut clean = Network::new(4, CommParams::achievable());
        let _ = clean.deliver(0, 0, 1, 4096);
        assert_eq!(net.deliver(0, 0, 3, 64), clean.deliver(0, 0, 3, 64));
        // Node 1 (the drop's destination) never saw the lost copy: a clean
        // message into it from an idle third node lands at the fresh time.
        let mut fresh = Network::new(4, CommParams::achievable());
        assert_eq!(net.deliver(0, 2, 1, 64), fresh.deliver(0, 2, 1, 64));
    }

    #[test]
    fn duplicate_sends_two_copies() {
        let mut net = Network::new(2, CommParams::achievable());
        net.set_fault_plan(FaultPlan::new(
            FaultRates {
                drop_ppm: 0,
                dup_ppm: 1_000_000,
                delay_ppm: 0,
                stall_ppm: 0,
                max_delay: 1,
                max_stall: 1,
            },
            1,
        ));
        let tx = net.transmit(0, 0, 1, 64);
        assert!(tx.duplicated && !tx.dropped);
        // The original arrives at the clean time; the replay queues behind
        // it, so the source's next send waits for two copies.
        let mut clean = Network::new(2, CommParams::achievable());
        assert_eq!(tx.arrival, clean.deliver(0, 0, 1, 64));
        let _ = clean.deliver(0, 0, 1, 64);
        assert_eq!(net.deliver(0, 0, 1, 64), clean.deliver(0, 0, 1, 64));
    }

    #[test]
    fn ni_stall_delays_the_send() {
        let mut net = Network::new(2, CommParams::achievable());
        net.set_fault_plan(FaultPlan::new(
            FaultRates {
                drop_ppm: 0,
                dup_ppm: 0,
                delay_ppm: 0,
                stall_ppm: 1_000_000,
                max_delay: 1,
                max_stall: 1000,
            },
            1,
        ));
        let tx = net.transmit(0, 0, 1, 64);
        assert!(tx.stall > 0 && tx.stall <= 1000);
        // The wedged NI can only push the send later, never earlier (a
        // stall shorter than the source-bus DMA hides behind it).
        let mut clean = Network::new(2, CommParams::achievable());
        assert!(tx.arrival >= clean.deliver(0, 0, 1, 64));
    }

    #[test]
    #[should_panic(expected = "sum past 100%")]
    fn rejects_rates_past_unity() {
        let _ = FaultPlan::uniform(300_000, 0);
    }
}
