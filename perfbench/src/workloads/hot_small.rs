//! `hot_small`: one session, one hot worker, a small echo at depth 1.
//!
//! Per-invocation fixed cost dominates: session submit and wait, the inline
//! post, completion pickup and the executor's dispatch. The seed fixes the
//! run's payload size within 32–96 B (every size fits the 128 B inline
//! limit) and the payload bytes.

use std::time::{Duration, Instant};

use rfaas::{ColdStartBreakdown, PollingMode, RFaasConfig, Reactor, Session};
use sim_core::DeterministicRng;

use super::{digest, random_bytes};
use crate::harness::{
    check_reply, report_billing, report_connections, report_fabric, report_reactor, ColdStarts,
    Harness, Platform, WorkerTotals,
};

const WARMUP: u64 = 5_000;
const PAYLOADS: usize = 256;
const MIN_BYTES: u64 = 32;
const MAX_BYTES: u64 = 96;

/// The inputs of one run.
pub struct Plan {
    /// Payload size of every invocation, in bytes.
    pub size: usize,
    /// Payloads, used round-robin.
    pub payloads: Vec<Vec<u8>>,
}

/// Generate the inputs for `seed`.
pub fn plan(seed: u64) -> Plan {
    let mut rng = DeterministicRng::new(seed ^ 0x686f_745f_736d_616c);
    let size = rng.range_u64(MIN_BYTES, MAX_BYTES + 1) as usize;
    let payloads = (0..PAYLOADS)
        .map(|_| random_bytes(&mut rng, size))
        .collect();
    Plan { size, payloads }
}

/// Digest of the inputs for `seed`.
pub fn inputs_digest(seed: u64) -> u64 {
    digest(plan(seed).payloads.iter().map(Vec::as_slice))
}

struct Fixture {
    platform: Platform,
    reactor: Reactor,
    session: Session,
    cold: ColdStartBreakdown,
    connect_wall: Duration,
    warmup_failures: Vec<String>,
}

fn build(plan: &Plan) -> Fixture {
    let mut config = RFaasConfig::paper_calibration();
    config.max_payload_bytes = 4096;
    let platform = Platform::new(1, 4, config);
    let reactor = Reactor::new();
    let started = Instant::now();
    let session = platform
        .session("hot-client")
        .workers(1)
        .polling(PollingMode::Hot)
        .reactor(&reactor)
        .connect()
        .expect("a one-worker lease on an idle executor succeeds");
    let connect_wall = started.elapsed();
    let cold = session
        .cold_start()
        .expect("connect records the cold start");
    let echo = session
        .function::<[u8], [u8]>("echo")
        .expect("echo is deployed");
    let mut warmup_failures = Vec::new();
    for i in 0..WARMUP {
        let payload = &plan.payloads[i as usize % PAYLOADS];
        let outcome = echo
            .invoke(payload)
            .map_err(|e| e.to_string())
            .and_then(|reply| check_reply(&reply, payload));
        if let Err(e) = outcome {
            warmup_failures.push(format!("warm-up: {e}"));
        }
    }
    Fixture {
        platform,
        reactor,
        session,
        cold,
        connect_wall,
        warmup_failures,
    }
}

/// Run `hot_small` under `h`.
pub fn run(h: &mut Harness) {
    let plan = plan(h.spec.seed);
    let fx = h.setup(
        || build(&plan),
        |fx| {
            fx.session
                .close()
                .expect("closing an idle session succeeds")
        },
    );
    for failure in &fx.warmup_failures {
        h.violation(failure.clone());
    }
    let session = &fx.session;
    let clock = session.clock().clone();
    let echo = session
        .function::<[u8], [u8]>("echo")
        .expect("echo is deployed");
    let reactor_before = fx.reactor.stats();
    let recoveries_before = session.recoveries();

    h.measure(&clock, |s| {
        let op = s.next_op();
        let payload = &plan.payloads[op as usize % PAYLOADS];
        let root = s.tracer.begin_op(op);
        let recoveries = session.recoveries();
        let wall = Instant::now();
        let virt = clock.now();
        let submitted = s.tracer.span("session.submit", || echo.submit(payload));
        let reply = submitted.and_then(|f| s.tracer.span("session.wait", || f.wait()));
        let (wall, virt) = (wall.elapsed(), clock.now().saturating_since(virt));
        let outcome = match reply {
            Ok(_) if session.recoveries() != recoveries => {
                Err("the invocation needed a lease recovery".into())
            }
            Ok(reply) => check_reply(&reply, payload),
            Err(e) => Err(e.to_string()),
        };
        s.probe_codec(payload);
        s.tracer.end_op(root);
        s.record(wall, virt, outcome);
    });

    let timed = h.timed_ops();
    let invocations = WARMUP + timed;
    let reactor_after = fx.reactor.stats();
    let lease = session.lease().expect("the session holds its lease");
    let mut workers = WorkerTotals::default();
    match fx.platform.settled_stats(&lease, invocations) {
        Some(stats) => workers.add(&stats),
        None => h.violation("the lease's executor process is gone".into()),
    }
    let connections = session.stats().connections;
    h.set(
        "session.recoveries",
        (session.recoveries() - recoveries_before) as f64,
    );

    // Conservation: every completion pumped exactly once (waits drive the
    // reactor; no completion set means nothing to dispatch), and every
    // client invocation served exactly once.
    h.conserve(
        "reactor pumped == timed invocations",
        reactor_after.pumped - reactor_before.pumped,
        timed,
    );
    h.conserve(
        "reactor dispatched == 0 without completion sets",
        reactor_after.dispatched,
        0,
    );
    h.conserve(
        "worker invocations == client invocations",
        workers.invocations,
        invocations,
    );

    drop(echo);
    let mut colds = ColdStarts::default();
    colds.add(&fx.cold, fx.connect_wall);
    let closing = Instant::now();
    if let Err(e) = fx.session.close() {
        h.violation(format!("close: {e}"));
    }
    colds.add_close(closing.elapsed());
    let usage = fx.platform.manager.lease_usage(&lease);
    h.set_billed(fx.platform.manager.total_cost(), invocations);

    report_reactor(h, reactor_before, reactor_after, timed);
    report_connections(
        h,
        connections.connections_opened,
        connections.pool_hits,
        connections.pool_misses,
        connections.srq_depth_high_watermark,
    );
    colds.report(h);
    workers.report(h);
    report_billing(h, &usage, invocations, &workers);
    let virt_p50 = h.virt_p50_us();
    report_fabric(h, &fx.platform.fabric, plan.size, virt_p50);
}
