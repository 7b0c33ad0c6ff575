//! Concrete baseline platform models.
//!
//! Each constructor assembles the invocation path of one platform from its
//! architectural components (Sec. II-B and V-C of the paper) and calibrates
//! the component costs so the end-to-end warm-invocation latency and goodput
//! match the paper's measurements (Fig. 1).

use sim_core::{DeterministicRng, SimDuration};

use crate::path::{InvocationPath, PathComponent};

/// A baseline FaaS platform: its warm invocation path and cold-start model.
#[derive(Debug, Clone)]
pub struct BaselinePlatform {
    /// Platform name as used in figures ("AWS", "OpenWhisk", "nightcore").
    pub name: String,
    /// The warm invocation path.
    pub path: InvocationPath,
    /// Typical cold-start penalty added to the first invocation of a sandbox.
    pub cold_start: SimDuration,
    /// Maximum payload the platform API accepts (bytes of raw data); larger
    /// payloads must detour through cloud storage. `None` means unlimited.
    pub max_payload: Option<usize>,
}

impl BaselinePlatform {
    /// Median warm round-trip time for the given payload sizes and function
    /// execution time.
    pub fn invoke_rtt(
        &self,
        request_bytes: usize,
        response_bytes: usize,
        function_work: SimDuration,
    ) -> SimDuration {
        self.path
            .round_trip(request_bytes, response_bytes, function_work)
    }

    /// A randomised sample of the warm round-trip time.
    pub fn sample_rtt(
        &self,
        request_bytes: usize,
        response_bytes: usize,
        function_work: SimDuration,
        rng: &mut DeterministicRng,
    ) -> SimDuration {
        self.path
            .sample_round_trip(request_bytes, response_bytes, function_work, rng)
    }

    /// Cold round-trip time (sandbox start + warm path).
    pub fn cold_rtt(
        &self,
        request_bytes: usize,
        response_bytes: usize,
        function_work: SimDuration,
    ) -> SimDuration {
        self.cold_start + self.invoke_rtt(request_bytes, response_bytes, function_work)
    }

    /// Whether the platform accepts a payload of `bytes` through its API.
    pub fn accepts_payload(&self, bytes: usize) -> bool {
        self.max_payload.map(|m| bytes <= m).unwrap_or(true)
    }

    /// Sustained goodput (raw payload bytes per second) for a payload size.
    pub fn goodput_bytes_per_sec(&self, bytes: usize) -> f64 {
        self.path.goodput_bytes_per_sec(bytes)
    }
}

/// AWS Lambda invoked through an HTTP endpoint from a VM in the same region
/// (the paper's deployment): WAN hop, API gateway, the centralized placement
/// ("invoke") service, a worker manager and the Firecracker runtime, with
/// JSON/base64 payloads.
pub fn aws_lambda() -> BaselinePlatform {
    BaselinePlatform {
        name: "AWS Lambda".to_string(),
        path: InvocationPath {
            components: vec![
                PathComponent::both("vpc-network", SimDuration::from_micros(600), 4.0),
                PathComponent::both("api-gateway", SimDuration::from_micros(2_200), 12.0),
                PathComponent::request_only(
                    "auth-and-signature",
                    SimDuration::from_micros(800),
                    0.5,
                ),
                PathComponent::request_only(
                    "invoke-service-placement",
                    SimDuration::from_micros(9_500),
                    1.0,
                ),
                PathComponent::request_only("worker-manager", SimDuration::from_micros(1_200), 0.5),
                PathComponent::both(
                    "runtime-interface(base64+json)",
                    SimDuration::from_micros(1_200),
                    24.0,
                ),
            ],
            payload_expansion: 4.0 / 3.0,
            jitter: 0.35,
        },
        // Firecracker-based cold starts for a native runtime: ~250 ms.
        cold_start: SimDuration::from_millis(250),
        // 6 MB synchronous invocation payload limit.
        max_payload: Some(6 * 1024 * 1024),
    }
}

/// Apache OpenWhisk deployed standalone on the evaluation cluster: nginx API
/// gateway, controller with load balancer, Kafka message bus, invoker and a
/// Docker action runtime that receives parameters through `argc/argv`.
pub fn openwhisk() -> BaselinePlatform {
    BaselinePlatform {
        name: "OpenWhisk".to_string(),
        path: InvocationPath {
            components: vec![
                PathComponent::both("nginx-api-gateway", SimDuration::from_millis(6), 30.0),
                PathComponent::request_only(
                    "controller-loadbalancer",
                    SimDuration::from_millis(35),
                    50.0,
                ),
                PathComponent::request_only(
                    "kafka-message-bus",
                    SimDuration::from_millis(28),
                    80.0,
                ),
                PathComponent::request_only("invoker", SimDuration::from_millis(18), 40.0),
                PathComponent::both("docker-action-runtime", SimDuration::from_millis(12), 60.0),
            ],
            payload_expansion: 4.0 / 3.0,
            jitter: 0.25,
        },
        cold_start: SimDuration::from_millis(800),
        // Inputs are passed through argv and limited to ~125 kB (Sec. V-C).
        max_payload: Some(125 * 1024),
    }
}

/// Nightcore on the same cluster: a local binary RPC gateway, a dispatcher
/// and persistent worker processes — no JSON, no containers on the hot path,
/// but still two kernel TCP crossings per hop.
pub fn nightcore() -> BaselinePlatform {
    BaselinePlatform {
        name: "nightcore".to_string(),
        path: InvocationPath {
            components: vec![
                PathComponent::both("rpc-gateway", SimDuration::from_micros(55), 1.1),
                PathComponent::request_only("dispatcher", SimDuration::from_micros(35), 0.5),
                PathComponent::both("worker-ipc", SimDuration::from_micros(30), 1.1),
            ],
            payload_expansion: 1.0,
            jitter: 0.12,
        },
        cold_start: SimDuration::from_millis(60),
        max_payload: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB: usize = 1024;
    const MB: usize = 1024 * 1024;

    #[test]
    fn aws_small_payload_rtt_matches_paper() {
        let aws = aws_lambda();
        let rtt = aws.invoke_rtt(KB, KB, SimDuration::ZERO).as_millis_f64();
        // Paper: 19.64 ms for ~1 kB on AWS Lambda.
        assert!((17.0..22.0).contains(&rtt), "AWS 1 kB RTT {rtt} ms");
    }

    #[test]
    fn aws_large_payload_rtt_matches_paper() {
        let aws = aws_lambda();
        let rtt = aws
            .invoke_rtt(5 * MB, 5 * MB, SimDuration::ZERO)
            .as_millis_f64();
        // Paper: RTT grows to over 600 ms at 5 MB.
        assert!((500.0..800.0).contains(&rtt), "AWS 5 MB RTT {rtt} ms");
        let goodput = aws.goodput_bytes_per_sec(5 * MB) / 1e6;
        // Paper: 17.21 MB/s effective goodput.
        assert!(
            (13.0..22.0).contains(&goodput),
            "AWS goodput {goodput} MB/s"
        );
    }

    #[test]
    fn openwhisk_matches_paper() {
        let ow = openwhisk();
        let rtt = ow.invoke_rtt(KB, KB, SimDuration::ZERO).as_millis_f64();
        // Paper: 119.18 ms.
        assert!((105.0..135.0).contains(&rtt), "OpenWhisk 1 kB RTT {rtt} ms");
        let goodput = ow.goodput_bytes_per_sec(100 * KB) / 1e6;
        // Paper: 1.79 MB/s.
        assert!(
            (1.2..2.6).contains(&goodput),
            "OpenWhisk goodput {goodput} MB/s"
        );
        // OpenWhisk cannot accept larger inputs than ~125 kB.
        assert!(ow.accepts_payload(100 * KB));
        assert!(!ow.accepts_payload(MB));
    }

    #[test]
    fn nightcore_matches_paper() {
        let nc = nightcore();
        let rtt = nc.invoke_rtt(KB, KB, SimDuration::ZERO).as_micros_f64();
        // Paper: 209.45 us.
        assert!((180.0..240.0).contains(&rtt), "nightcore 1 kB RTT {rtt} us");
        let goodput = nc.goodput_bytes_per_sec(5 * MB) / 1e6;
        // Paper: 453.72 MB/s.
        assert!(
            (350.0..550.0).contains(&goodput),
            "nightcore goodput {goodput} MB/s"
        );
    }

    #[test]
    fn platform_ordering_matches_figure_1() {
        // nightcore < AWS < OpenWhisk in latency; the reverse in goodput.
        let work = SimDuration::ZERO;
        let nc = nightcore().invoke_rtt(KB, KB, work);
        let aws = aws_lambda().invoke_rtt(KB, KB, work);
        let ow = openwhisk().invoke_rtt(KB, KB, work);
        assert!(nc < aws && aws < ow);
        assert!(nightcore().goodput_bytes_per_sec(MB) > aws_lambda().goodput_bytes_per_sec(MB));
        assert!(aws_lambda().goodput_bytes_per_sec(MB) > openwhisk().goodput_bytes_per_sec(MB));
    }

    #[test]
    fn rfaas_beats_every_baseline_by_orders_of_magnitude() {
        // The RDMA fabric's small-message RTT is ~3.7 us, rFaaS hot ~4 us;
        // the paper reports 695x-3692x over AWS and 23x-39x over Nightcore.
        let rfaas_hot_us = 4.0;
        let aws_ratio = aws_lambda()
            .invoke_rtt(KB, KB, SimDuration::ZERO)
            .as_micros_f64()
            / rfaas_hot_us;
        let nc_ratio = nightcore()
            .invoke_rtt(KB, KB, SimDuration::ZERO)
            .as_micros_f64()
            / rfaas_hot_us;
        let ow_ratio = openwhisk()
            .invoke_rtt(KB, KB, SimDuration::ZERO)
            .as_micros_f64()
            / rfaas_hot_us;
        assert!(aws_ratio > 600.0, "AWS ratio {aws_ratio}");
        assert!(
            (20.0..70.0).contains(&nc_ratio),
            "nightcore ratio {nc_ratio}"
        );
        assert!(ow_ratio > 5_000.0, "OpenWhisk ratio {ow_ratio}");
    }

    #[test]
    fn cold_starts_dominate_first_invocations() {
        for p in [aws_lambda(), openwhisk(), nightcore()] {
            assert!(
                p.cold_rtt(KB, KB, SimDuration::ZERO) > p.invoke_rtt(KB, KB, SimDuration::ZERO)
            );
        }
    }

    #[test]
    fn samples_are_deterministic_per_seed() {
        let aws = aws_lambda();
        let mut r1 = DeterministicRng::new(5);
        let mut r2 = DeterministicRng::new(5);
        for _ in 0..32 {
            assert_eq!(
                aws.sample_rtt(KB, KB, SimDuration::ZERO, &mut r1),
                aws.sample_rtt(KB, KB, SimDuration::ZERO, &mut r2)
            );
        }
    }
}
