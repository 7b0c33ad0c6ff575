//! `lease_churn`: allocation episodes against two executor nodes whose
//! warm pools hold up to two parked sandboxes per key. Every session shares
//! one `ConnectionPool`, one `Reactor` and one client clock. An op is one
//! episode: connect under a policy the seed draws (mostly `WarmPool` or
//! `Fork`, some `Cold`), a few small warm-polled invocations, then close.
//!
//! It stresses the control plane: manager datagrams, connect and pool,
//! executor allocate and deallocate, sandbox spawn, fork and warm pool, and
//! the billing flush at close. The invocation layers do little here.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rdma_fabric::ConnectionPool;
use rfaas::{AllocationPolicy, PollingMode, RFaasConfig, Reactor, UsageRecord};
use sim_core::{DeterministicRng, SimDuration, VirtualClock};

use super::{digest, random_bytes, shuffled_blocks};
use crate::harness::{
    check_reply, report_billing, report_connections, report_fabric, report_reactor, usage_since,
    ColdStarts, Harness, Platform, WorkerTotals,
};
use crate::metrics::{percentile, ratio};
use crate::procfs;
use crate::trace::Tracer;

/// Executor nodes.
pub const NODES: usize = 2;
/// Parked sandboxes per (sandbox, package) key on each node.
pub const WARM_POOL_CAPACITY: usize = 2;
/// The policy of each episode, in a fixed cycle: the bill of an episode
/// depends on the placements before it (the executor's clock, which the
/// allocation bill is measured on, lags the client's by an amount that
/// varies with that history), so a seed-drawn order would make the bill
/// vary from seed to seed by about a tenth.
const POLICIES: [AllocationPolicy; 20] = {
    use AllocationPolicy::{Cold, Fork, WarmPool};
    [
        WarmPool, Fork, WarmPool, Fork, Cold, WarmPool, Fork, WarmPool, Fork, WarmPool, Fork, Cold,
        WarmPool, Fork, WarmPool, Fork, WarmPool, Fork, Cold, WarmPool,
    ]
};
/// Episodes per shuffled block of invocation counts: twenty each of 2, 3
/// and 4.
const BLOCK: usize = 60;
/// Episodes whose shape the plan fixes up front; later ones repeat it.
const PLANNED_EPISODES: usize = BLOCK * 64;
const PAYLOADS: usize = 64;
const MIN_BYTES: u64 = 32;
const MAX_BYTES: u64 = 96;
/// Timed episodes whose bill `billed_usd_per_mop` averages: a fixed window,
/// so that the figure depends on the seed and not on how many episodes the
/// host completes in the timed phase.
const BILLED_EPISODES: usize = 1000;
/// Policies of the set-up episodes, which park sandboxes on both nodes.
const WARMUP: [AllocationPolicy; 6] = [
    AllocationPolicy::Cold,
    AllocationPolicy::Cold,
    AllocationPolicy::WarmPool,
    AllocationPolicy::Fork,
    AllocationPolicy::Fork,
    AllocationPolicy::WarmPool,
];

/// One episode's shape.
#[derive(Debug, Clone, Copy)]
pub struct Episode {
    /// How the sandbox is provisioned.
    pub policy: AllocationPolicy,
    /// Invocations between connect and close.
    pub invocations: usize,
}

/// The inputs of one run.
pub struct Plan {
    /// Payload size of every invocation, in bytes.
    pub size: usize,
    /// Payloads, used round-robin.
    pub payloads: Vec<Vec<u8>>,
    /// Episode shapes, used in order.
    pub episodes: Vec<Episode>,
}

/// Generate the inputs for `seed`: the episodes cycle through [`POLICIES`]
/// (45% `WarmPool`, 40% `Fork`, 15% `Cold`), and the seed draws the payload
/// size and bytes and shuffles 2, 3 and 4 invocations over each block of
/// [`BLOCK`] episodes.
pub fn plan(seed: u64) -> Plan {
    let mut rng = DeterministicRng::new(seed ^ 0x6c65_6173_655f_6368);
    let size = rng.range_u64(MIN_BYTES, MAX_BYTES + 1) as usize;
    let payloads = (0..PAYLOADS)
        .map(|_| random_bytes(&mut rng, size))
        .collect();
    let invocation_block: Vec<usize> = (0..BLOCK).map(|i| 2 + i % 3).collect();
    let invocations = shuffled_blocks(&mut rng, &invocation_block, PLANNED_EPISODES / BLOCK);
    let episodes = invocations
        .into_iter()
        .zip(POLICIES.iter().cycle())
        .map(|(invocations, &policy)| Episode {
            policy,
            invocations,
        })
        .collect();
    Plan {
        size,
        payloads,
        episodes,
    }
}

/// Digest of the inputs for `seed`.
pub fn inputs_digest(seed: u64) -> u64 {
    let plan = plan(seed);
    let shapes: Vec<u8> = plan
        .episodes
        .iter()
        .map(|e| {
            let policy = match e.policy {
                AllocationPolicy::Cold => 0,
                AllocationPolicy::Fork => 1,
                _ => 2,
            };
            policy * 8 + e.invocations as u8
        })
        .collect();
    digest(std::iter::once(shapes.as_slice()).chain(plan.payloads.iter().map(Vec::as_slice)))
}

/// The shared client side and what its episodes accumulated.
struct Churn {
    platform: Platform,
    pool: ConnectionPool,
    reactor: Reactor,
    clock: Arc<VirtualClock>,
    episodes: u64,
    invocations: u64,
    recoveries: u64,
    workers: WorkerTotals,
    usage: UsageRecord,
    /// The bill of each episode, in USD.
    costs: Vec<f64>,
    opened: u64,
    srq_high: usize,
    colds: ColdStarts,
    fork_pages: u64,
    fork_fault: SimDuration,
    invocation_virt_ns: Vec<u64>,
    threads_peak: u64,
    /// Pool outcomes per executor node.
    tiers: BTreeMap<String, Tiers>,
}

/// How a node's warm pool served the episodes placed on it.
#[derive(Debug, Default)]
struct Tiers {
    /// Warm-pool resumes (the parent left the pool).
    leased: u64,
    /// Forks (the parent stayed parked).
    forked: u64,
    /// `WarmPool` or `Fork` episodes that found no parent.
    fell_back: u64,
}

/// What one episode observed.
struct Outcome {
    result: Result<(), String>,
    virt: SimDuration,
}

impl Churn {
    fn new() -> Churn {
        let mut config = RFaasConfig::paper_calibration();
        config.max_payload_bytes = 4096;
        config.warm_pool_capacity = WARM_POOL_CAPACITY;
        Churn {
            platform: Platform::new(NODES, 8, config),
            pool: ConnectionPool::new(),
            reactor: Reactor::new(),
            clock: VirtualClock::shared(),
            episodes: 0,
            invocations: 0,
            recoveries: 0,
            workers: WorkerTotals::default(),
            usage: UsageRecord::default(),
            costs: Vec::new(),
            opened: 0,
            srq_high: 0,
            colds: ColdStarts::default(),
            fork_pages: 0,
            fork_fault: SimDuration::ZERO,
            invocation_virt_ns: Vec::new(),
            threads_peak: 0,
            tiers: BTreeMap::new(),
        }
    }

    /// Run one episode, timing its layer calls under `tracer`.
    fn episode(&mut self, tracer: &mut Tracer, episode: Episode, payloads: &[Vec<u8>]) -> Outcome {
        let virt = self.clock.now();
        let result = self.episode_inner(tracer, episode, payloads);
        self.episodes += 1;
        Outcome {
            result,
            virt: self.clock.now().saturating_since(virt),
        }
    }

    fn episode_inner(
        &mut self,
        tracer: &mut Tracer,
        episode: Episode,
        payloads: &[Vec<u8>],
    ) -> Result<(), String> {
        let started = Instant::now();
        let session = tracer
            .span("alloc.connect", || {
                self.platform
                    .session("churn-client")
                    .workers(1)
                    .polling(PollingMode::Warm)
                    .allocation_policy(episode.policy)
                    .connection_pool(&self.pool)
                    .reactor(&self.reactor)
                    .clock(&self.clock)
                    .connect()
            })
            .map_err(|e| format!("connect: {e}"))?;
        let cold = session
            .cold_start()
            .expect("connect records the cold start");
        self.colds.add(&cold, started.elapsed());
        let lease = session
            .lease()
            .expect("a connected session holds its lease");
        let billed = self.platform.manager.lease_usage(&lease);
        if tracer.enabled() && self.episodes.is_multiple_of(16) {
            self.threads_peak = self.threads_peak.max(procfs::threads());
        }
        let echo = session
            .function::<[u8], [u8]>("echo")
            .expect("echo is deployed");
        let mut result = Ok(());
        for i in 0..episode.invocations {
            let payload = &payloads[(self.invocations as usize + i) % payloads.len()];
            let virt = self.clock.now();
            let submitted = tracer.span("session.submit", || echo.submit(payload));
            let reply = submitted.and_then(|f| tracer.span("session.wait", || f.wait()));
            self.invocation_virt_ns
                .push(self.clock.now().saturating_since(virt).as_nanos());
            let checked = reply
                .map_err(|e| e.to_string())
                .and_then(|reply| check_reply(&reply, payload));
            if result.is_ok() {
                result = checked;
            }
        }
        self.invocations += episode.invocations as u64;
        self.recoveries += u64::from(session.recoveries());
        if session.recoveries() > 0 {
            result = result.and(Err("the episode needed a lease recovery".into()));
        }
        let stats = session.stats();
        self.opened += stats.connections.connections_opened;
        self.srq_high = self
            .srq_high
            .max(stats.connections.srq_depth_high_watermark);
        if let Some(fork) = &stats.fork {
            self.fork_pages += fork.pages_faulted() as u64;
            self.fork_fault += fork.fault_time();
        }
        // How the pool actually served the episode: a fork leaves fault
        // state behind, a warm-pool resume skips code submission, and either
        // policy falls back to a cold spawn when no parent is parked.
        let tiers = self.tiers.entry(lease.executor_node.clone()).or_default();
        match episode.policy {
            AllocationPolicy::Fork if stats.fork.is_some() => tiers.forked += 1,
            AllocationPolicy::WarmPool if cold.submit_code.is_zero() => tiers.leased += 1,
            AllocationPolicy::Fork | AllocationPolicy::WarmPool => tiers.fell_back += 1,
            _ => {}
        }
        match self
            .platform
            .settled_stats(&lease, episode.invocations as u64)
        {
            Some(worker) => {
                self.workers.add(&worker);
                if worker.invocations != episode.invocations as u64 {
                    result = result.and(Err(format!(
                        "worker invocations == client invocations: {} != {}",
                        worker.invocations, episode.invocations
                    )));
                }
            }
            None => result = result.and(Err("the lease's executor process is gone".into())),
        }
        drop(echo);
        let closing = Instant::now();
        let closed = tracer.span("alloc.close", || session.close());
        self.colds.add_close(closing.elapsed());
        let usage = usage_since(&billed, &self.platform.manager.lease_usage(&lease));
        self.usage.accumulate(&usage);
        self.costs.push(usage.cost(&self.platform.config));
        result.and(closed.map_err(|e| format!("close: {e}")))
    }

    /// A fresh deployment after the set-up episodes, which park sandboxes
    /// on the nodes; returns the set-up failures beside it.
    fn warmed(payloads: &[Vec<u8>]) -> (Churn, Vec<String>) {
        let mut churn = Churn::new();
        let mut tracer = Tracer::new();
        let failures = WARMUP
            .iter()
            .filter_map(|&policy| {
                let episode = Episode {
                    policy,
                    invocations: 2,
                };
                churn.episode(&mut tracer, episode, payloads).result.err()
            })
            .map(|e| format!("warm-up: {e}"))
            .collect();
        (churn, failures)
    }

    /// Check the pools' conservation counts and report the control-plane
    /// metrics: `alloc.*`, `warm_pool.*` and `fork.*`.
    fn check_and_report(&mut self, h: &mut Harness) {
        let pool = self.pool.stats();
        h.conserve(
            "connection pool returned == leases",
            pool.returned,
            pool.hits + pool.misses,
        );
        // The warm pool counts a fork as a hit although the parent stays
        // parked, so parents are conserved against the resumes the episodes
        // observed.
        let (mut hits, mut misses, mut evictions, mut rejected) = (0, 0, 0, 0);
        for executor in &self.platform.executors {
            let warm = executor.allocator().warm_pool();
            let stats = warm.stats();
            let tiers = self.tiers.remove(executor.name()).unwrap_or_default();
            let node = executor.name();
            h.conserve(
                &format!("{node} warm pool idle == returned - resumed - evicted"),
                warm.idle_count() as u64 + tiers.leased + stats.evictions,
                stats.returned,
            );
            h.conserve(
                &format!("{node} warm pool hits == resumed + forked"),
                stats.hits,
                tiers.leased + tiers.forked,
            );
            h.conserve(
                &format!("{node} warm pool misses == fallbacks to cold"),
                stats.misses,
                tiers.fell_back,
            );
            hits += stats.hits;
            misses += stats.misses;
            evictions += stats.evictions;
            rejected += stats.rejected;
        }
        h.conserve(
            "worker invocations == client invocations",
            self.workers.invocations,
            self.invocations,
        );
        let episodes = self.episodes as f64;
        h.set(
            "warm_pool.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        h.set("warm_pool.evictions", evictions as f64);
        h.set("warm_pool.rejected", rejected as f64);
        h.set(
            "fork.pages_faulted_per_episode",
            ratio(self.fork_pages as f64, episodes),
        );
        h.set(
            "fork.fault.virt_us_per_episode",
            ratio(self.fork_fault.as_micros_f64(), episodes),
        );
        self.colds.report(h);
    }
}

/// The control-plane probe of another workload's traced run: `episodes`
/// episodes of the `lease_churn` plan for `seed` on a fresh deployment,
/// checked like `lease_churn` and reported as its `alloc.*`, `warm_pool.*`
/// and `fork.*` metrics.
pub fn probe(h: &mut Harness, seed: u64, episodes: usize) {
    let plan = plan(seed);
    let (mut churn, failures) = Churn::warmed(&plan.payloads);
    for failure in failures {
        h.violation(failure);
    }
    let mut tracer = Tracer::new();
    for &episode in plan.episodes.iter().cycle().take(episodes) {
        if let Err(e) = churn.episode(&mut tracer, episode, &plan.payloads).result {
            h.violation(format!("control-plane probe: {e}"));
        }
    }
    churn.check_and_report(h);
}

/// Run `lease_churn` under `h`.
pub fn run(h: &mut Harness) {
    let plan = plan(h.spec.seed);
    let mut warmup_failures = Vec::new();
    let mut churn = h.setup(
        || {
            let (churn, failures) = Churn::warmed(&plan.payloads);
            warmup_failures.extend(failures);
            churn
        },
        drop,
    );
    for failure in warmup_failures {
        h.violation(failure);
    }
    let clock = Arc::clone(&churn.clock);
    let reactor_before = churn.reactor.stats();
    let invocations_before = churn.invocations;
    let episodes_before = churn.costs.len();
    let mut next = 0usize;

    h.measure(&clock, |s| {
        let episode = plan.episodes[next % PLANNED_EPISODES];
        next += 1;
        let root = s.tracer.begin_op(s.next_op());
        let wall = Instant::now();
        let outcome = churn.episode(s.tracer, episode, &plan.payloads);
        let wall = wall.elapsed();
        s.tracer.end_op(root);
        s.record(wall, outcome.virt, outcome.result);
    });

    let timed_invocations = churn.invocations - invocations_before;
    let reactor_after = churn.reactor.stats();
    // Conservation: every completion pumped exactly once, every pooled
    // connection lease returned, and every node's warm pool holds exactly
    // the parents parked and not yet taken or evicted.
    h.conserve(
        "reactor pumped == timed invocations",
        reactor_after.pumped - reactor_before.pumped,
        timed_invocations,
    );
    h.conserve(
        "reactor dispatched == 0 without completion sets",
        reactor_after.dispatched,
        0,
    );
    churn.check_and_report(h);
    let billed = &churn.costs[episodes_before..];
    let billed = &billed[..billed.len().min(BILLED_EPISODES)];
    h.set_billed(billed.iter().sum(), billed.len() as u64);

    let pool = churn.pool.stats();
    h.set("session.recoveries", churn.recoveries as f64);
    h.note_threads(churn.threads_peak);
    let timed = h.timed_ops();
    report_reactor(h, reactor_before, reactor_after, timed);
    report_connections(h, churn.opened, pool.hits, pool.misses, churn.srq_high);
    churn.workers.report(h);
    report_billing(h, &churn.usage, churn.invocations, &churn.workers);
    let invocation_p50 = percentile(&mut churn.invocation_virt_ns, 0.5) as f64 / 1e3;
    report_fabric(h, &churn.platform.fabric, plan.size, invocation_p50);
}
