//! NIC device profiles and the calibrated cost model.
//!
//! A [`NicProfile`] collects every latency/bandwidth constant of the software
//! fabric. The default profile is calibrated against the numbers the paper
//! reports for its evaluation cluster (Sec. V, "Platform"):
//!
//! * Mellanox MT27800, 100 Gb/s RoCEv2 link,
//! * measured RTT of 3.69 µs for small messages (`ib_write_lat`),
//! * measured bandwidth of 11 686.4 MiB/s,
//! * message inlining effective up to 128 bytes,
//! * blocking completion waits several microseconds slower than busy polling,
//! * SR-IOV virtual functions add ~50 ns (hot) / ~650 ns (warm) per invocation.

use sim_core::SimDuration;

/// Calibrated performance profile of an RDMA NIC and its link.
#[derive(Debug, Clone)]
pub struct NicProfile {
    /// One-way propagation + switching latency of the link.
    pub one_way_latency: SimDuration,
    /// Sustainable link bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Cost of building a WQE and ringing the doorbell on `post_send`.
    pub post_send_overhead: SimDuration,
    /// Cost of each *additional* WQE in a doorbell-batched post: the chain
    /// shares one doorbell write, so follow-up WQEs only pay the descriptor
    /// build, not the MMIO.
    pub chained_wqe_overhead: SimDuration,
    /// Cost of posting a receive work request.
    pub post_recv_overhead: SimDuration,
    /// Largest payload that can be inlined into the WQE.
    pub max_inline_data: usize,
    /// Extra DMA-fetch cost paid when a payload is *not* inlined.
    pub non_inline_dma_fetch: SimDuration,
    /// Cost of consuming one CQE with busy polling.
    pub completion_pickup: SimDuration,
    /// Extra latency of a blocking (event-based) completion wait: interrupt
    /// generation, scheduler wake-up and cache refill.
    pub blocking_wakeup: SimDuration,
    /// Serialisation cost per blocking notification on the shared event
    /// channel of one node; concurrent blocking waiters contend on this
    /// ("contention on RDMA notifications", Fig. 10).
    pub notification_dispatch: SimDuration,
    /// Execution time of a remote atomic at the target NIC.
    pub atomic_execution: SimDuration,
    /// Latency to generate the initiator-side CQE once the last byte left.
    pub local_completion: SimDuration,
    /// Reliable-connection establishment cost (QP transition + CM handshake).
    pub connection_setup: SimDuration,
    /// Re-establishment cost of a *warm* reliable connection: the peers have
    /// exchanged QP attributes before, cached path records and pinned pages
    /// survive in the pool, so only the state-machine transition is paid.
    pub warm_connection_setup: SimDuration,
    /// Setup cost of an unreliable-datagram style endpoint (UD/DC): no
    /// per-peer handshake, one address-handle creation — the cheap
    /// first-contact transport for control-plane traffic.
    pub datagram_setup: SimDuration,
    /// Per-message overhead added by an SR-IOV virtual function (each
    /// direction) when the executor runs inside a container.
    pub vf_message_overhead: SimDuration,
    /// Additional blocking-wakeup penalty when interrupts are routed through
    /// a virtual function.
    pub vf_blocking_extra: SimDuration,
    /// Maximum number of outstanding receive work requests per QP.
    pub max_recv_queue_depth: usize,
}

impl NicProfile {
    /// Profile calibrated to the paper's evaluation cluster: ConnectX-5
    /// (MT27800) with a 100 Gb/s RoCEv2 link.
    pub fn mellanox_cx5_100g() -> NicProfile {
        NicProfile {
            // 2 * (0.08 post + 1.70 one-way + 0.065 pickup)
            // ≈ 3.69 µs RTT for small inlined writes.
            one_way_latency: SimDuration::from_nanos(1_700),
            // 11 686.4 MiB/s measured by the paper.
            bandwidth_bytes_per_sec: 11_686.4 * 1024.0 * 1024.0,
            post_send_overhead: SimDuration::from_nanos(80),
            chained_wqe_overhead: SimDuration::from_nanos(25),
            post_recv_overhead: SimDuration::from_nanos(60),
            max_inline_data: 128,
            non_inline_dma_fetch: SimDuration::from_nanos(300),
            completion_pickup: SimDuration::from_nanos(65),
            blocking_wakeup: SimDuration::from_nanos(3_800),
            notification_dispatch: SimDuration::from_nanos(550),
            atomic_execution: SimDuration::from_nanos(120),
            local_completion: SimDuration::from_nanos(100),
            connection_setup: SimDuration::from_micros(450),
            warm_connection_setup: SimDuration::from_micros(45),
            datagram_setup: SimDuration::from_micros(18),
            vf_message_overhead: SimDuration::from_nanos(25),
            vf_blocking_extra: SimDuration::from_nanos(600),
            max_recv_queue_depth: 1024,
        }
    }

    /// A lower-performance profile approximating software RDMA (SoftRoCE):
    /// used by the modularity tests to show the platform is device-agnostic.
    pub fn soft_roce() -> NicProfile {
        NicProfile {
            one_way_latency: SimDuration::from_micros(18),
            bandwidth_bytes_per_sec: 2.5e9,
            post_send_overhead: SimDuration::from_nanos(400),
            chained_wqe_overhead: SimDuration::from_nanos(150),
            post_recv_overhead: SimDuration::from_nanos(300),
            max_inline_data: 0,
            non_inline_dma_fetch: SimDuration::from_nanos(800),
            completion_pickup: SimDuration::from_nanos(200),
            blocking_wakeup: SimDuration::from_micros(6),
            notification_dispatch: SimDuration::from_micros(2),
            atomic_execution: SimDuration::from_nanos(900),
            local_completion: SimDuration::from_nanos(400),
            connection_setup: SimDuration::from_millis(2),
            warm_connection_setup: SimDuration::from_micros(200),
            datagram_setup: SimDuration::from_micros(90),
            vf_message_overhead: SimDuration::from_nanos(100),
            vf_blocking_extra: SimDuration::from_micros(2),
            max_recv_queue_depth: 256,
        }
    }

    /// Serialisation time of `bytes` on this link.
    pub fn serialization(&self, bytes: usize) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec)
    }

    /// Whether a payload of `bytes` can be inlined into the work request.
    pub fn can_inline(&self, bytes: usize) -> bool {
        bytes <= self.max_inline_data
    }

    /// Initiator-side cost of issuing a send-queue operation for `bytes` of
    /// payload: WQE build + doorbell, plus the DMA fetch if not inlined.
    pub fn issue_cost(&self, bytes: usize) -> SimDuration {
        if self.can_inline(bytes) {
            self.post_send_overhead
        } else {
            self.post_send_overhead + self.non_inline_dma_fetch
        }
    }

    /// Issue cost of a WQE that rides an earlier doorbell (position > 0 in a
    /// batched post): descriptor build plus the DMA fetch if not inlined, but
    /// no doorbell MMIO of its own.
    pub fn issue_cost_chained(&self, bytes: usize) -> SimDuration {
        if self.can_inline(bytes) {
            self.chained_wqe_overhead
        } else {
            self.chained_wqe_overhead + self.non_inline_dma_fetch
        }
    }

    /// Cost of serving one remote-fork page fault of `page_bytes` with a
    /// single one-sided READ from the parent node: issue the READ, wait a
    /// round trip, stream the page back, pick the completion up. The
    /// initiator is the *child*; the parent's CPU is never involved — the
    /// property that makes MITOSIS-style fork viable.
    pub fn fork_page_read_cost(&self, page_bytes: usize) -> SimDuration {
        self.fork_read_cost(1, page_bytes)
    }

    /// Cost of a batched prefetch window: `pages` page READs posted as one
    /// chained batch (one doorbell, one shared round trip, back-to-back
    /// serialisation), amortising the per-fault overhead that makes
    /// page-at-a-time faulting expensive.
    pub fn fork_read_cost(&self, pages: usize, page_bytes: usize) -> SimDuration {
        if pages == 0 || page_bytes == 0 {
            return SimDuration::ZERO;
        }
        // READs carry no payload outbound, so nothing inlines: every WQE
        // pays its descriptor DMA fetch.
        self.post_send_overhead
            + self.non_inline_dma_fetch
            + (self.chained_wqe_overhead + self.non_inline_dma_fetch) * (pages as u64 - 1)
            + self.serialization(pages * page_bytes)
            + self.one_way_latency * 2
            + self.completion_pickup
    }

    /// Expected uncontended round-trip time of a write ping-pong with
    /// payloads of `bytes` in each direction — the `ib_write_lat` baseline the
    /// paper compares against in Fig. 8.
    pub fn write_pingpong_rtt(&self, bytes: usize) -> SimDuration {
        let one_way = self.issue_cost(bytes)
            + self.serialization(bytes)
            + self.one_way_latency
            + self.completion_pickup;
        one_way * 2
    }

    /// Cost of fetching `bytes` of state with a single one-sided READ from
    /// the owner node: issue the READ (no outbound payload, so the WQE always
    /// pays its descriptor DMA fetch), a full round trip, the value streaming
    /// back, and the initiator-side completion pickup. The owner's CPU is
    /// never involved — the property the state plane's hot-key path relies
    /// on.
    pub fn state_read_cost(&self, bytes: usize) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        self.post_send_overhead
            + self.non_inline_dma_fetch
            + self.serialization(bytes)
            + self.one_way_latency * 2
            + self.completion_pickup
    }

    /// Cost of pushing `bytes` of state to the owner node with a one-sided
    /// Write: issue (inlined when small), stream the value out, one-way
    /// propagation, and the local CQE once the last byte left. No remote
    /// completion is awaited — push-model puts are fire-and-forget on the
    /// data path, with ordering recovered on the control path.
    pub fn state_write_cost(&self, bytes: usize) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        self.issue_cost(bytes)
            + self.serialization(bytes)
            + self.one_way_latency
            + self.local_completion
    }
}

impl Default for NicProfile {
    fn default() -> Self {
        NicProfile::mellanox_cx5_100g()
    }
}

/// Whether an endpoint attaches to the NIC's physical function or to an
/// SR-IOV virtual function passed into a container (Sec. III-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceFunction {
    /// Bare-metal access to the physical function.
    Physical,
    /// Containerised access through an SR-IOV virtual function.
    Virtual,
}

impl DeviceFunction {
    /// Per-message overhead of this function type.
    pub fn message_overhead(self, profile: &NicProfile) -> SimDuration {
        match self {
            DeviceFunction::Physical => SimDuration::ZERO,
            DeviceFunction::Virtual => profile.vf_message_overhead,
        }
    }

    /// Extra blocking-wakeup penalty of this function type.
    pub fn blocking_extra(self, profile: &NicProfile) -> SimDuration {
        match self {
            DeviceFunction::Physical => SimDuration::ZERO,
            DeviceFunction::Virtual => profile.vf_blocking_extra,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_matches_paper_rtt() {
        let p = NicProfile::default();
        // Paper: 3.69 us RTT for small messages.
        let rtt = p.write_pingpong_rtt(8).as_micros_f64();
        assert!((rtt - 3.69).abs() < 0.15, "small-message RTT was {rtt} us");
    }

    #[test]
    fn bandwidth_matches_paper() {
        let p = NicProfile::default();
        // 1 MiB should serialize in roughly 1/11686 s ≈ 85.6 us.
        let t = p.serialization(1024 * 1024).as_micros_f64();
        assert!((t - 85.6).abs() < 2.0, "1 MiB serialization was {t} us");
        assert!(p.serialization(0).is_zero());
    }

    #[test]
    fn inline_threshold_behaviour() {
        let p = NicProfile::default();
        assert!(p.can_inline(128));
        assert!(!p.can_inline(129));
        assert!(p.issue_cost(64) < p.issue_cost(256));
        // The non-inline penalty is the paper's ~300 ns 128-byte anomaly.
        let delta = p.issue_cost(256).saturating_sub(p.issue_cost(64));
        assert_eq!(delta, p.non_inline_dma_fetch);
    }

    #[test]
    fn chained_wqes_are_cheaper_than_doorbells() {
        for p in [NicProfile::mellanox_cx5_100g(), NicProfile::soft_roce()] {
            assert!(p.issue_cost_chained(8) < p.issue_cost(8));
        }
        // The DMA-fetch penalty still applies to chained non-inline WQEs.
        let p = NicProfile::mellanox_cx5_100g();
        assert_eq!(
            p.issue_cost_chained(1 << 20)
                .saturating_sub(p.issue_cost_chained(8)),
            p.non_inline_dma_fetch
        );
    }

    #[test]
    fn rtt_grows_with_payload() {
        let p = NicProfile::default();
        let small = p.write_pingpong_rtt(8);
        let large = p.write_pingpong_rtt(1024 * 1024);
        assert!(large > small * 10);
    }

    #[test]
    fn virtual_function_adds_overhead() {
        let p = NicProfile::default();
        assert!(DeviceFunction::Physical.message_overhead(&p).is_zero());
        assert!(!DeviceFunction::Virtual.message_overhead(&p).is_zero());
        assert!(
            DeviceFunction::Virtual.blocking_extra(&p)
                > DeviceFunction::Physical.blocking_extra(&p)
        );
    }

    #[test]
    fn connection_setup_tiers_are_ordered() {
        // Full RC handshake ≫ warm re-establishment ≫ datagram first contact:
        // the spread the connection pool and the control-plane datagram path
        // amortise. Holds on every profile.
        for p in [NicProfile::mellanox_cx5_100g(), NicProfile::soft_roce()] {
            assert!(p.warm_connection_setup * 5 <= p.connection_setup);
            assert!(p.datagram_setup < p.warm_connection_setup);
        }
    }

    #[test]
    fn state_access_tiers_are_ordered() {
        for p in [NicProfile::mellanox_cx5_100g(), NicProfile::soft_roce()] {
            // A one-sided read pays two one-way latencies, a push-model write
            // only one: the read can never be cheaper than the write of the
            // same value.
            for bytes in [64usize, 4096, 1 << 20] {
                assert!(p.state_read_cost(bytes) > p.state_write_cost(bytes));
            }
            // A one-sided read beats a full write ping-pong of the same
            // payload once the value outgrows inlining — the
            // copy-in/copy-out baseline pays that ping-pong per invocation.
            for bytes in [4096usize, 1 << 20] {
                assert!(p.state_read_cost(bytes) < p.write_pingpong_rtt(bytes));
            }
            assert!(p.state_read_cost(0).is_zero());
            assert!(p.state_write_cost(0).is_zero());
            // Large values are bandwidth-bound: doubling the value roughly
            // doubles the wire time.
            let one = p.state_read_cost(1 << 20);
            let two = p.state_read_cost(2 << 20);
            assert!(two > one);
            assert!(two < one * 3);
        }
    }

    #[test]
    fn soft_roce_is_slower() {
        let hw = NicProfile::mellanox_cx5_100g();
        let sw = NicProfile::soft_roce();
        assert!(sw.write_pingpong_rtt(8) > hw.write_pingpong_rtt(8) * 5);
        assert!(sw.bandwidth_bytes_per_sec < hw.bandwidth_bytes_per_sec);
    }
}
