//! `state_rw`: one hot session with a `StatePlane`. Four keys of nominally
//! 4 KiB, 32 KiB, 256 KiB and 1 MiB (each trimmed per run by up to 1/256,
//! together below `state_cache_bytes`) are each read by their
//! own stateful function declared `with_state`. Every block of 40 steps
//! reads each key nine times (invocations, the ops) and writes it once
//! (`Session::state().put`, which invalidates the executor's cached copy).
//! The seed shuffles the steps of each block; the writes of a block go to
//! the keys in a fixed order, because the plane's arena footprint (and
//! with it peak RSS) depends on the order in which values are replaced.
//!
//! Every read returns a fingerprint of the value the executor saw, which
//! must match the last value written: a stale cache entry fails the op.

use std::time::Instant;

use rfaas::{PollingMode, RFaasConfig, Reactor, Session, StateKey, StatePlane};
use sim_core::{DeterministicRng, SimDuration};

use super::{digest, random_bytes, shuffled_blocks};
use crate::harness::{
    fingerprint, report_billing, report_connections, report_fabric, report_reactor, state_function,
    state_key, ColdStarts, Harness, Platform, WorkerTotals, STATE_KEYS,
};
use crate::metrics::{percentile, ratio};

/// Nominal key sizes.
pub const KEY_BYTES: [usize; STATE_KEYS] = [4 << 10, 32 << 10, 256 << 10, 1 << 20];
/// Reads of each key per write of it.
const READS_PER_WRITE: usize = 9;
const REQUESTS: usize = 64;
const MIN_REQUEST_BYTES: u64 = 8;
const MAX_REQUEST_BYTES: u64 = 64;
/// Steps whose kind and key the plan fixes up front; later steps repeat it.
const PLANNED_STEPS: usize = STATE_KEYS * (READS_PER_WRITE + 1) * 256;
const WARMUP_STEPS: usize = 800;
/// Episodes of the traced run's control-plane probe (see
/// [`super::lease_churn::probe`]).
const PROBE_EPISODES: usize = 240;

/// One step: a read (an invocation) or a write of key `key`.
#[derive(Debug, Clone, Copy)]
pub struct Access {
    /// Whether this step writes the key.
    pub write: bool,
    /// Index of the key.
    pub key: usize,
}

/// The inputs of one run.
pub struct Plan {
    /// Initial value of each key (see [`KEY_BYTES`]).
    pub values: Vec<Vec<u8>>,
    /// Invocation request payloads (the function ignores them; their size,
    /// drawn once per run, moves the wire time).
    pub requests: Vec<Vec<u8>>,
    /// The access schedule.
    pub accesses: Vec<Access>,
}

/// Generate the inputs for `seed`.
pub fn plan(seed: u64) -> Plan {
    let mut rng = DeterministicRng::new(seed ^ 0x7374_6174_655f_7277);
    let values = KEY_BYTES
        .iter()
        .map(|&size| {
            let size = size - rng.range_u64(0, (size / 256) as u64) as usize;
            random_bytes(&mut rng, size)
        })
        .collect();
    let request_size = rng.range_u64(MIN_REQUEST_BYTES, MAX_REQUEST_BYTES + 1) as usize;
    let requests = (0..REQUESTS)
        .map(|_| random_bytes(&mut rng, request_size))
        .collect();
    let block: Vec<Access> = (0..STATE_KEYS)
        .flat_map(|key| (0..=READS_PER_WRITE).map(move |i| Access { write: i == 0, key }))
        .collect();
    let mut accesses = shuffled_blocks(&mut rng, &block, PLANNED_STEPS / block.len());
    for block in accesses.chunks_mut(STATE_KEYS * (READS_PER_WRITE + 1)) {
        for (key, write) in block.iter_mut().filter(|a| a.write).enumerate() {
            write.key = key;
        }
    }
    Plan {
        values,
        requests,
        accesses,
    }
}

/// Digest of the inputs for `seed`.
pub fn inputs_digest(seed: u64) -> u64 {
    let plan = plan(seed);
    let schedule: Vec<u8> = plan
        .accesses
        .iter()
        .map(|a| a.key as u8 * 2 + u8::from(a.write))
        .collect();
    digest(
        std::iter::once(schedule.as_slice())
            .chain(plan.values.iter().map(Vec::as_slice))
            .chain(plan.requests.iter().map(Vec::as_slice)),
    )
}

/// The current value of each key, and how many writes were made.
struct Keys {
    values: Vec<Vec<u8>>,
    versions: u64,
}

impl Keys {
    /// Stamp a fresh version into key `k`'s value and write it.
    fn write(&mut self, session: &Session, k: usize) -> rfaas::Result<()> {
        self.versions += 1;
        self.values[k][..8].copy_from_slice(&self.versions.to_le_bytes());
        session.state().put(&state_key(k), &self.values[k])
    }
}

struct Fixture {
    platform: Platform,
    plane: StatePlane,
    reactor: Reactor,
    session: Session,
    colds: ColdStarts,
    keys: Keys,
    warmup_failures: Vec<String>,
}

fn build(plan: &Plan) -> Fixture {
    let mut config = RFaasConfig::paper_calibration();
    config.max_payload_bytes = 4096;
    let platform = Platform::new(1, 4, config);
    let plane = StatePlane::new(&platform.fabric, "state-0", 64 * 1024 * 1024);
    let reactor = Reactor::new();
    let started = Instant::now();
    let session = platform
        .session("state-client")
        .workers(1)
        .polling(PollingMode::Hot)
        .reactor(&reactor)
        .state_plane(&plane)
        .connect()
        .expect("a one-worker lease with a state plane succeeds");
    let mut colds = ColdStarts::default();
    colds.add(
        &session
            .cold_start()
            .expect("connect records the cold start"),
        started.elapsed(),
    );
    let mut fx = Fixture {
        platform,
        plane,
        reactor,
        session,
        colds,
        keys: Keys {
            values: plan.values.clone(),
            versions: 0,
        },
        warmup_failures: Vec::new(),
    };
    for k in 0..STATE_KEYS {
        if let Err(e) = fx.keys.write(&fx.session, k) {
            fx.warmup_failures
                .push(format!("initial put of key {k}: {e}"));
        }
    }
    let handles = match bind(&fx.session) {
        Ok(handles) => handles,
        Err(e) => {
            fx.warmup_failures.push(format!("binding state: {e}"));
            return fx;
        }
    };
    for step in 0..WARMUP_STEPS {
        let k = step % STATE_KEYS;
        let outcome = handles[k]
            .invoke(&plan.requests[step % REQUESTS])
            .map_err(|e| e.to_string())
            .and_then(|reply| check_fingerprint(&reply, &fx.keys.values[k]));
        if let Err(e) = outcome {
            fx.warmup_failures.push(format!("warm-up: {e}"));
        }
    }
    drop(handles);
    fx
}

type Handle<'s> = rfaas::FunctionHandle<'s, [u8], [u8]>;

/// One handle per key, each declaring read access to its key.
fn bind(session: &Session) -> rfaas::Result<Vec<Handle<'_>>> {
    (0..STATE_KEYS)
        .map(|k| {
            session
                .function::<[u8], [u8]>(&state_function(k))?
                .with_output_capacity(8)
                .with_state([StateKey::read(&state_key(k))])
        })
        .collect()
}

fn check_fingerprint(reply: &[u8], value: &[u8]) -> Result<(), String> {
    let expected = fingerprint(value).to_le_bytes();
    if reply == expected {
        Ok(())
    } else {
        Err("a read returned a fingerprint other than the last value written's".into())
    }
}

/// Run `state_rw` under `h`.
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
        plane,
        reactor,
        session,
        mut colds,
        mut keys,
        ..
    } = fx;
    let clock = session.clock().clone();
    let reactor_before = reactor.stats();
    let plane_before = plane.stats();
    let executor_before = session.stats().state_executor.unwrap_or_default();
    let mut put_wall_ns: Vec<u64> = Vec::new();
    let mut put_virt_ns: Vec<u64> = Vec::new();
    let mut step = 0usize;
    let mut reads = 0u64;
    let handles = match bind(&session) {
        Ok(handles) => handles,
        Err(e) => {
            h.violation(format!("binding state: {e}"));
            return;
        }
    };

    h.measure(&clock, |s| {
        let access = plan.accesses[step % PLANNED_STEPS];
        step += 1;
        let k = access.key;
        if access.write {
            let root = s.tracer.begin_op(s.next_op());
            let wall = Instant::now();
            let virt = clock.now();
            let written = s.tracer.span("state.put", || keys.write(&session, k));
            put_wall_ns.push(wall.elapsed().as_nanos() as u64);
            put_virt_ns.push(clock.now().saturating_since(virt).as_nanos());
            s.tracer.end_op(root);
            if let Err(e) = written {
                s.record(wall.elapsed(), SimDuration::ZERO, Err(format!("put: {e}")));
            }
            return;
        }
        let request = &plan.requests[reads as usize % REQUESTS];
        reads += 1;
        let recoveries = session.recoveries();
        let root = s.tracer.begin_op(s.next_op());
        let wall = Instant::now();
        let virt = clock.now();
        let submitted = s
            .tracer
            .span("session.submit", || handles[k].submit(request));
        let reply = submitted.and_then(|f| s.tracer.span("session.wait", || f.wait()));
        let (wall, virt) = (wall.elapsed(), clock.now().saturating_since(virt));
        let outcome = match reply {
            Ok(_) if session.recoveries() != recoveries => {
                Err("the invocation needed a lease recovery".into())
            }
            Ok(reply) => check_fingerprint(&reply, &keys.values[k]),
            Err(e) => Err(e.to_string()),
        };
        s.probe_codec(request);
        s.tracer.end_op(root);
        s.record(wall, virt, outcome);
    });
    drop(handles);

    let timed = h.timed_ops();
    let invocations = WARMUP_STEPS as u64 + timed;
    let reactor_after = reactor.stats();
    let plane_after = plane.stats();
    let stats = session.stats();
    let executor_after = stats.state_executor.unwrap_or_default();
    let lease = session.lease().expect("the session holds its lease");
    let mut workers = WorkerTotals::default();
    match platform.settled_stats(&lease, invocations) {
        Some(stats) => workers.add(&stats),
        None => h.violation("the lease's executor process is gone".into()),
    }
    h.set("session.recoveries", stats.recoveries as f64);

    // Conservation: every completion pumped exactly once, and every client
    // invocation served exactly once.
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

    let closing = Instant::now();
    if let Err(e) = session.close() {
        h.violation(format!("close: {e}"));
    }
    colds.add_close(closing.elapsed());
    let usage = platform.manager.lease_usage(&lease);
    h.set_billed(platform.manager.total_cost(), invocations);

    let ops = timed as f64;
    let hits = executor_after.cache_hits - executor_before.cache_hits;
    let remote = executor_after.remote_reads - executor_before.remote_reads;
    h.set(
        "state.put.wall_us_p50",
        percentile(&mut put_wall_ns, 0.5) as f64 / 1e3,
    );
    h.set(
        "state.put.virt_us_p50",
        percentile(&mut put_virt_ns, 0.5) as f64 / 1e3,
    );
    h.set(
        "state.cache_hit_ratio",
        ratio(hits as f64, (hits + remote) as f64),
    );
    h.set("state.remote_reads_per_op", ratio(remote as f64, ops));
    h.set(
        "state.bytes_read_per_op",
        ratio(
            (executor_after.bytes_read - executor_before.bytes_read) as f64,
            ops,
        ),
    );
    h.set(
        "state.control_frames_per_op",
        ratio(
            (plane_after.control_frames - plane_before.control_frames) as f64,
            ops,
        ),
    );
    report_reactor(h, reactor_before, reactor_after, timed);
    report_connections(
        h,
        stats.connections.connections_opened,
        stats.connections.pool_hits,
        stats.connections.pool_misses,
        stats.connections.srq_depth_high_watermark,
    );
    colds.report(h);
    if h.spec.trace {
        // The allocation path and the sandbox tiers do no work here; a
        // bounded control-plane probe measures them instead.
        super::lease_churn::probe(h, h.spec.seed, PROBE_EPISODES);
    }
    workers.report(h);
    report_billing(h, &usage, invocations, &workers);
    let virt_p50 = h.virt_p50_us();
    report_fabric(h, &platform.fabric, plan.requests[0].len(), virt_p50);
}
