//! `scatter_gather`: one session of 32 hot workers on one executor process.
//! Each step is one wave: a `map_workers` scatter of 32 payloads behind one
//! doorbell, gathered with `wait_any`. Every three waves send one of each
//! payload size {4, 16, 64} KiB in an order the seed draws; each size is
//! trimmed per run by up to 1/256 so that every seed gives its own virtual
//! latencies.
//!
//! Bytes and batching dominate: payload copies, the reactor, chained
//! doorbells and the shared receive queue. An op is one invocation; its
//! latency is its gather instant minus the wave's submit instant, on both
//! clocks (as in fig16).
//!
//! Two known defects shape this workload (see README.md):
//! - the gather order of a wave, and with it each invocation's virtual
//!   latency, depends on how the client thread and the executor's
//!   dispatcher thread interleave, so virtual metrics are not a function of
//!   the seed alone;
//! - the session's buffer pool keeps at most 64 buffer pairs and never
//!   trades a small pair for a large one, and the pairs it drops stay
//!   registered until the session closes. Once the pool is full of pairs
//!   too small for a wave, every such wave registers (and leaks) 32 fresh
//!   pairs: about 400 MiB/s at this workload's rate. The warm-up therefore
//!   sends the largest size first, so the timed loop runs with a pool that
//!   fits every wave, and the traced run measures the defect on a bounded
//!   probe (`session.ascending_sizes.alloc_bytes_per_op`).

use std::sync::Arc;
use std::time::Instant;

use rfaas::{PollingMode, RFaasConfig, Reactor, Session};
use sim_core::{DeterministicRng, SimDuration, VirtualClock};

use super::{digest, random_bytes, shuffled_blocks};
use crate::alloc;
use crate::harness::{
    check_reply, report_billing, report_connections, report_fabric, report_reactor, ColdStarts,
    Harness, Platform, WorkerTotals,
};
use crate::metrics::{percentile, ratio};

/// Workers in the session, and invocations per wave.
pub const WORKERS: usize = 32;
/// Nominal payload sizes a wave draws from, smallest first.
pub const SIZES: [usize; 3] = [4 * 1024, 16 * 1024, 64 * 1024];
/// Warm-up waves, by index into [`SIZES`]: largest first (see the module
/// docs), four times over.
const WARMUP: [usize; 12] = [2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0];
/// Waves of the largest size in the traced run's buffer-pool probe.
const PROBE_WAVES: usize = 4;
/// Waves whose sizes the plan fixes up front; later waves repeat the cycle.
const PLANNED_WAVES: usize = 3 * 1024;

/// The inputs of one run.
pub struct Plan {
    /// This run's payload size for each entry of [`SIZES`].
    pub sizes: [usize; 3],
    /// `payloads[s][w]`: worker `w`'s payload when the wave size is `sizes[s]`.
    pub payloads: Vec<Vec<Vec<u8>>>,
    /// Size index of each planned wave.
    pub waves: Vec<u8>,
}

/// Generate the inputs for `seed`.
pub fn plan(seed: u64) -> Plan {
    let mut rng = DeterministicRng::new(seed ^ 0x7363_6174_7465_7221);
    let sizes = SIZES.map(|size| size - rng.range_u64(0, (size / 256) as u64) as usize);
    let payloads = sizes
        .iter()
        .map(|&size| (0..WORKERS).map(|_| random_bytes(&mut rng, size)).collect())
        .collect();
    let waves = shuffled_blocks(&mut rng, &[0u8, 1, 2], PLANNED_WAVES / SIZES.len());
    Plan {
        sizes,
        payloads,
        waves,
    }
}

/// Digest of the inputs for `seed`.
pub fn inputs_digest(seed: u64) -> u64 {
    let plan = plan(seed);
    digest(
        std::iter::once(plan.waves.as_slice())
            .chain(plan.payloads.iter().flatten().map(Vec::as_slice)),
    )
}

/// Connect a 32-worker hot session on the shared reactor and client clock.
fn connect(
    platform: &Platform,
    reactor: &Reactor,
    clock: &Arc<VirtualClock>,
    colds: &mut ColdStarts,
) -> Session {
    let started = Instant::now();
    let session = platform
        .session("scatter-client")
        .workers(WORKERS as u32)
        .polling(PollingMode::Hot)
        .reactor(reactor)
        .clock(clock)
        .connect()
        .expect("a 32-worker lease on an idle 32-core executor succeeds");
    colds.add(
        &session
            .cold_start()
            .expect("connect records the cold start"),
        started.elapsed(),
    );
    session
}

/// Scatter and gather one wave of `inputs`, all at once.
fn wave(session: &Session, inputs: &[Vec<u8>]) -> Result<(), String> {
    let echo = session
        .function::<[u8], [u8]>("echo")
        .map_err(|e| e.to_string())?;
    match echo
        .map_workers(inputs.iter().map(Vec::as_slice))
        .and_then(|set| set.wait_all())
    {
        Ok(replies) if replies == inputs => Ok(()),
        Ok(_) => Err("a reply did not match".into()),
        Err(e) => Err(e.to_string()),
    }
}

struct Fixture {
    platform: Platform,
    reactor: Reactor,
    clock: Arc<VirtualClock>,
    session: Session,
    colds: ColdStarts,
    warmup_failures: Vec<String>,
}

fn build(plan: &Plan) -> Fixture {
    let mut config = RFaasConfig::paper_calibration();
    config.max_payload_bytes = SIZES[SIZES.len() - 1];
    let platform = Platform::new(1, WORKERS as u32, config);
    let reactor = Reactor::new();
    let clock = VirtualClock::shared();
    let mut colds = ColdStarts::default();
    let session = connect(&platform, &reactor, &clock, &mut colds);
    let warmup_failures = WARMUP
        .iter()
        .filter_map(|&size| wave(&session, &plan.payloads[size]).err())
        .map(|e| format!("warm-up: {e}"))
        .collect();
    Fixture {
        platform,
        reactor,
        clock,
        session,
        colds,
        warmup_failures,
    }
}

/// The buffer-pool probe: on a fresh session, one wave of each smaller
/// size fills the pool with pairs too small for the largest size; then
/// measure the client thread's allocation bytes per invocation over
/// [`PROBE_WAVES`] waves of the largest size.
fn probe_ascending_sizes(
    platform: &Platform,
    reactor: &Reactor,
    clock: &Arc<VirtualClock>,
    colds: &mut ColdStarts,
    plan: &Plan,
) -> Result<f64, String> {
    let session = connect(platform, reactor, clock, colds);
    let mut outcome = Ok(());
    for size in 0..SIZES.len() - 1 {
        outcome = outcome.and(wave(&session, &plan.payloads[size]));
    }
    let (_, before) = alloc::thread_counts();
    for _ in 0..PROBE_WAVES {
        outcome = outcome.and(wave(&session, &plan.payloads[SIZES.len() - 1]));
    }
    let (_, after) = alloc::thread_counts();
    outcome = outcome.and(session.close().map_err(|e| e.to_string()));
    outcome.map(|()| (after - before) as f64 / (PROBE_WAVES * WORKERS) as f64)
}

/// Run `scatter_gather` under `h`.
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
    let Fixture {
        platform,
        reactor,
        clock,
        session,
        mut colds,
        ..
    } = fx;
    let echo = session
        .function::<[u8], [u8]>("echo")
        .expect("echo is deployed");
    let reactor_before = reactor.stats();
    let recoveries_before = session.recoveries();
    let mut waves = 0u64;
    let mut bytes = 0u64;
    let mut doorbells = 0u64;
    let mut chained = 0u64;
    let mut post_virt_ns: Vec<u64> = Vec::new();

    h.measure(&clock, |s| {
        let size = plan.waves[waves as usize % PLANNED_WAVES] as usize;
        let inputs = &plan.payloads[size];
        let recoveries = session.recoveries();
        let root = s.tracer.begin_op(s.next_op());
        let wall = Instant::now();
        let virt = clock.now();
        let scattered = s.tracer.span("session.submit", || {
            echo.map_workers(inputs.iter().map(Vec::as_slice))
        });
        let mut gathered = 0usize;
        let batch = match scattered {
            Err(e) => {
                s.record(wall.elapsed(), SimDuration::ZERO, Err(e.to_string()));
                None
            }
            Ok(mut set) => {
                loop {
                    let next = s.tracer.span("session.wait", || set.wait_any());
                    let (wall_ns, virt_ns) = (wall.elapsed(), clock.now().saturating_since(virt));
                    match next {
                        Ok(Some((index, reply))) => {
                            gathered += 1;
                            let outcome = if session.recoveries() != recoveries {
                                Err("the wave needed a lease recovery".into())
                            } else {
                                check_reply(&reply, &inputs[index])
                            };
                            s.record(wall_ns, virt_ns, outcome);
                        }
                        Ok(None) => break,
                        Err(e) => {
                            s.record(wall_ns, virt_ns, Err(e.to_string()));
                            break;
                        }
                    }
                }
                Some(set.stats())
            }
        };
        s.probe_codec(&inputs[0]);
        s.tracer.end_op(root);
        if gathered != WORKERS {
            s.record(
                wall.elapsed(),
                SimDuration::ZERO,
                Err(format!("gathered {gathered} of {WORKERS} invocations")),
            );
        }
        waves += 1;
        bytes += (plan.sizes[size] * WORKERS) as u64;
        if let Some(batch) = batch {
            doorbells += batch.doorbells as u64;
            chained += batch.chained_wqes as u64;
            post_virt_ns.push(batch.post_time.as_nanos());
        }
    });
    drop(echo);

    let timed = h.timed_ops();
    let invocations = (WARMUP.len() * WORKERS) as u64 + timed;
    let reactor_after = reactor.stats();
    let lease = session.lease().expect("the session holds its lease");
    let mut workers = WorkerTotals::default();
    match platform.settled_stats(&lease, invocations) {
        Some(stats) => workers.add(&stats),
        None => h.violation("the lease's executor process is gone".into()),
    }
    let connections = session.stats().connections;
    h.set(
        "session.recoveries",
        (session.recoveries() - recoveries_before) as f64,
    );

    // Conservation: every gathered completion was pumped and dispatched to
    // its completion set exactly once, and served exactly once.
    h.conserve(
        "reactor pumped == dispatched",
        reactor_after.pumped,
        reactor_after.dispatched,
    );
    h.conserve(
        "reactor dispatched == timed invocations",
        reactor_after.dispatched - reactor_before.dispatched,
        timed,
    );
    h.conserve(
        "worker invocations == client invocations",
        workers.invocations,
        invocations,
    );

    let closing = Instant::now();
    if let Err(e) = session.close() {
        h.violation(format!("close: {e}"));
    }
    colds.add_close(closing.elapsed());
    let usage = platform.manager.lease_usage(&lease);
    h.set_billed(platform.manager.total_cost(), invocations);

    if h.spec.trace {
        match probe_ascending_sizes(&platform, &reactor, &clock, &mut colds, &plan) {
            Ok(bytes) => h.set("session.ascending_sizes.alloc_bytes_per_op", bytes),
            Err(e) => h.violation(format!("buffer-pool probe: {e}")),
        }
    }
    let wave_count = waves as f64;
    h.set(
        "batch.doorbells_per_wave",
        ratio(doorbells as f64, wave_count),
    );
    h.set(
        "batch.chained_wqes_per_wave",
        ratio(chained as f64, wave_count),
    );
    h.set(
        "batch.post.virt_us_p50",
        percentile(&mut post_virt_ns, 0.5) as f64 / 1e3,
    );
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
    let mean_bytes = ratio(bytes as f64, wave_count * WORKERS as f64) as usize;
    let virt_p50 = h.virt_p50_us();
    report_fabric(h, &platform.fabric, mean_bytes, virt_p50);
}
