//! The measurement loop shared by every workload: repeated set-up, the
//! closed-loop timed phases, failure and conservation bookkeeping, and the
//! metrics derived from them.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cluster_sim::NodeResources;
use rdma_fabric::Fabric;
use rfaas::{
    AllocationBuilder, Codec, ColdStartBreakdown, Lease, RFaasConfig, ResourceManager, Session,
    SpotExecutor, UsageRecord, WorkerStats,
};
use sandbox::{echo_function, CodePackage, FunctionRegistry, SharedFunction};
use sim_core::{DeterministicRng, SimDuration, VirtualClock};

use crate::metrics::{median, percentile, ratio, Metrics};
use crate::trace::Tracer;
use crate::{alloc, procfs, Workload};

/// How long the timed phase runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Length {
    /// Wall-clock seconds (the benchmark proper).
    Seconds(f64),
    /// A fixed number of steps (waves, episodes or invocations), so that
    /// the virtual-time outcome is a function of the seed alone.
    Steps(u64),
}

/// One benchmark run's parameters.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The workload to drive.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub length: Length,
    /// Traced run: half the length untraced, half traced.
    pub trace: bool,
    /// Where a traced run writes its spans (JSON lines), if anywhere.
    pub trace_file: Option<PathBuf>,
}

/// Virtual latency samples kept per phase (ns, saturating at ~4.3 s). The
/// buffer is allocated and touched before the first op, so its size does
/// not depend on how many ops a run completes and peak RSS measures the
/// platform rather than the sample count. Past the capacity, samples are
/// kept by reservoir sampling.
const SAMPLE_CAP: usize = 1 << 21;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Wall-clock windows per phase. Wall metrics are the median over the
/// windows, so a burst of contention from other processes on the host moves
/// one window, not the result.
const WINDOWS: usize = 10;

/// Fixed-capacity latency store (see [`SAMPLE_CAP`]).
#[derive(Debug, Clone)]
struct Samples {
    kept: Vec<u32>,
    len: usize,
    seen: u64,
    rng: DeterministicRng,
}

impl Samples {
    fn new(seed: u64) -> Samples {
        let mut kept = vec![0u32; SAMPLE_CAP];
        // Touch every page now (the zeroed allocation is lazily mapped).
        for sample in kept.iter_mut().step_by(1024) {
            *sample = 1;
        }
        Samples {
            kept,
            len: 0,
            seen: 0,
            rng: DeterministicRng::new(seed),
        }
    }

    fn push(&mut self, sample: u32) {
        self.seen += 1;
        if self.len < SAMPLE_CAP {
            self.kept[self.len] = sample;
            self.len += 1;
        } else {
            let slot = self.rng.range_u64(0, self.seen) as usize;
            if slot < SAMPLE_CAP {
                self.kept[slot] = sample;
            }
        }
    }

    fn percentile_us(&self, q: f64) -> f64 {
        let mut kept: Vec<u64> = self.kept[..self.len].iter().map(|&s| s as u64).collect();
        percentile(&mut kept, q) as f64 / 1e3
    }
}

/// What one wall-clock window of a phase measured.
#[derive(Debug, Clone, Copy)]
struct Window {
    ops_per_s: f64,
    cpu_us_per_op: f64,
    wall_p50_us: f64,
    wall_p90_us: f64,
}

/// The window in progress.
#[derive(Debug)]
struct OpenWindow {
    started: Instant,
    cpu_us: f64,
    wall_ns: Vec<u64>,
}

impl OpenWindow {
    fn new(wall_ns: Vec<u64>) -> OpenWindow {
        let (user, sys) = procfs::cpu_us();
        OpenWindow {
            started: Instant::now(),
            cpu_us: user + sys,
            wall_ns,
        }
    }

    /// Close the window; returns its figures and the reusable buffer.
    fn close(mut self) -> (Option<Window>, Vec<u64>) {
        let ops = self.wall_ns.len() as f64;
        let (user, sys) = procfs::cpu_us();
        let window = (ops > 0.0).then(|| Window {
            ops_per_s: ops / self.started.elapsed().as_secs_f64(),
            cpu_us_per_op: (user + sys - self.cpu_us) / ops,
            wall_p50_us: percentile(&mut self.wall_ns, 0.5) as f64 / 1e3,
            wall_p90_us: percentile(&mut self.wall_ns, 0.9) as f64 / 1e3,
        });
        self.wall_ns.clear();
        (window, self.wall_ns)
    }
}

/// Readings taken at the edges of a timed phase.
#[derive(Debug, Clone, Copy)]
struct Mark {
    wall: Instant,
    cpu_user_us: f64,
    cpu_sys_us: f64,
    ctx_switches: u64,
    allocs: u64,
    alloc_bytes: u64,
}

impl Mark {
    fn now() -> Mark {
        let (cpu_user_us, cpu_sys_us) = procfs::cpu_us();
        let (allocs, alloc_bytes) = alloc::thread_counts();
        Mark {
            wall: Instant::now(),
            cpu_user_us,
            cpu_sys_us,
            ctx_switches: procfs::context_switches(),
            allocs,
            alloc_bytes,
        }
    }
}

/// What one timed phase measured.
#[derive(Debug, Clone)]
struct Phase {
    virt: Samples,
    windows: Vec<Window>,
    /// Client virtual seconds the phase advanced.
    virt_s: f64,
    cpu_user_us: f64,
    cpu_sys_us: f64,
    ctx_switches: u64,
    allocs: u64,
    alloc_bytes: u64,
}

impl Phase {
    /// Ops completed (attempted) in the phase.
    fn ops(&self) -> u64 {
        self.virt.seen
    }

    /// Median over the phase's windows of one window figure.
    fn windowed(&self, figure: impl Fn(&Window) -> f64) -> f64 {
        median(&self.windows.iter().map(figure).collect::<Vec<_>>())
    }

    fn per_op(&self, total: f64) -> f64 {
        ratio(total, self.ops() as f64)
    }
}

/// Everything a step may touch: the tracer and the op recorder.
pub struct Step<'h> {
    /// Span recorder (enabled in the traced phase only).
    pub tracer: &'h mut Tracer,
    samples: &'h mut Samples,
    window_wall_ns: &'h mut Vec<u64>,
    failures: &'h mut Failures,
    codec: &'h mut CodecProbe,
}

impl Step<'_> {
    /// Identifier of the next op (unique within the run).
    pub fn next_op(&self) -> u64 {
        self.failures.attempted
    }

    /// Record one finished op: its wall and virtual latency, and whether it
    /// succeeded and returned the right bytes.
    pub fn record(&mut self, wall: Duration, virt: SimDuration, outcome: Result<(), String>) {
        self.samples
            .push(u32::try_from(virt.as_nanos()).unwrap_or(u32::MAX));
        self.window_wall_ns.push(wall.as_nanos() as u64);
        self.failures.count(outcome);
    }

    /// In the traced phase, time `Codec::encode_into` and `Codec::decode` of
    /// the `[u8]` codec on `payload`.
    pub fn probe_codec(&mut self, payload: &[u8]) {
        if self.tracer.enabled() {
            self.codec.probe(self.tracer, payload);
        }
    }
}

/// Attempted and failed op counts, with the first few failure messages.
#[derive(Debug, Default)]
struct Failures {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Failures {
    fn count(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(message);
            }
        }
    }
}

/// Codec timing of the traced phase.
#[derive(Debug, Default)]
struct CodecProbe {
    scratch: Vec<u8>,
    bytes: u64,
}

impl CodecProbe {
    fn probe(&mut self, tracer: &mut Tracer, payload: &[u8]) {
        self.scratch.resize(payload.encoded_len(), 0);
        let scratch = &mut self.scratch;
        let encoded = tracer.span("codec.encode", || {
            std::hint::black_box(payload).encode_into(scratch)
        });
        let decoded = tracer.span("codec.decode", || {
            <[u8] as Codec>::decode(std::hint::black_box(&scratch[..]))
        });
        if let (Ok(_), Ok(bytes)) = (encoded, decoded) {
            self.bytes += std::hint::black_box(bytes).len() as u64;
        }
    }
}

/// State of one run (see the module docs).
pub struct Harness {
    /// The run's parameters.
    pub spec: RunSpec,
    /// Span recorder.
    pub tracer: Tracer,
    process_start: Instant,
    setup_s: Vec<f64>,
    phases: Vec<(bool, Phase)>,
    failures: Failures,
    codec: CodecProbe,
    threads_peak: u64,
    /// Per-layer metrics the workload filled in.
    layer: Metrics,
    /// Total cost billed by the platform, and the ops it covers.
    billed: (f64, u64),
}

impl Harness {
    /// A fresh harness; `process_start` is when the process began.
    pub fn new(spec: RunSpec, process_start: Instant) -> Harness {
        Harness {
            spec,
            tracer: Tracer::new(),
            process_start,
            setup_s: Vec::new(),
            phases: Vec::new(),
            failures: Failures::default(),
            codec: CodecProbe::default(),
            threads_peak: 0,
            layer: Metrics::new(),
            billed: (0.0, 0),
        }
    }

    /// Build the workload's fixture [`SETUP_REPS`] times, tearing down all
    /// but the last, and time each build. The first build is timed from
    /// process start, so `setup_s` covers start-up as well.
    pub fn setup<T>(&mut self, mut build: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> T {
        let mut start = self.process_start;
        for rep in 0..SETUP_REPS {
            let fixture = build();
            self.setup_s.push(start.elapsed().as_secs_f64());
            self.sample_threads();
            if rep + 1 == SETUP_REPS {
                return fixture;
            }
            teardown(fixture);
            start = Instant::now();
        }
        unreachable!("the last repetition returns its fixture")
    }

    fn sample_threads(&mut self) {
        self.note_threads(procfs::threads());
    }

    /// Fold a live-thread count the workload sampled into `proc.threads_peak`.
    pub fn note_threads(&mut self, threads: u64) {
        self.threads_peak = self.threads_peak.max(threads);
    }

    /// Run the timed phase(s): `step` is called in a closed loop until the
    /// phase's length is reached. A traced run splits the length into an
    /// untraced half and a traced half.
    pub fn measure(&mut self, clock: &VirtualClock, mut step: impl FnMut(&mut Step<'_>)) {
        let phases: &[bool] = if self.spec.trace {
            &[false, true]
        } else {
            &[false]
        };
        let share = 1.0 / phases.len() as f64;
        for &traced in phases {
            self.tracer.set_enabled(traced);
            let mut samples = Samples::new(self.spec.seed);
            let mut windows = Vec::with_capacity(WINDOWS);
            let virt_start = clock.now();
            let start = Mark::now();
            let mut window = OpenWindow::new(Vec::new());
            let mut steps = 0u64;
            // Progress through the phase, from 0 to 1.
            let length = self.spec.length;
            let progress = |steps: u64| match length {
                Length::Seconds(s) => start.wall.elapsed().as_secs_f64() / (s * share),
                Length::Steps(n) => steps as f64 / (n as f64 * share).ceil().max(1.0),
            };
            loop {
                let done = progress(steps);
                if done >= (windows.len() + 1) as f64 / WINDOWS as f64 {
                    let (closed, buffer) = window.close();
                    windows.extend(closed);
                    window = OpenWindow::new(buffer);
                }
                if done >= 1.0 {
                    break;
                }
                step(&mut Step {
                    tracer: &mut self.tracer,
                    samples: &mut samples,
                    window_wall_ns: &mut window.wall_ns,
                    failures: &mut self.failures,
                    codec: &mut self.codec,
                });
                steps += 1;
                if traced && steps.is_multiple_of(256) {
                    self.sample_threads();
                }
            }
            windows.extend(window.close().0);
            let end = Mark::now();
            self.sample_threads();
            self.phases.push((
                traced,
                Phase {
                    virt: samples,
                    windows,
                    virt_s: clock.now().saturating_since(virt_start).as_secs_f64(),
                    cpu_user_us: end.cpu_user_us - start.cpu_user_us,
                    cpu_sys_us: end.cpu_sys_us - start.cpu_sys_us,
                    ctx_switches: end.ctx_switches - start.ctx_switches,
                    allocs: end.allocs - start.allocs,
                    alloc_bytes: end.alloc_bytes - start.alloc_bytes,
                },
            ));
        }
        self.tracer.set_enabled(false);
    }

    /// Timed ops so far (all phases).
    pub fn timed_ops(&self) -> u64 {
        self.phases.iter().map(|(_, p)| p.ops()).sum()
    }

    /// Count a violated invariant: it fails the run.
    pub fn violation(&mut self, message: String) {
        self.failures.count(Err(message));
    }

    /// Check `actual == expected` for conservation count `what`.
    pub fn conserve(&mut self, what: &str, actual: u64, expected: u64) {
        if actual != expected {
            self.violation(format!("{what}: {actual} != {expected}"));
        }
    }

    /// The platform's total bill and the number of ops (timed and warm-up)
    /// it covers.
    pub fn set_billed(&mut self, total_usd: f64, ops: u64) {
        self.billed = (total_usd, ops);
    }

    /// Set a per-layer metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }

    /// Attempted ops, failed ops and failure messages.
    pub fn outcome(&self) -> (u64, u64, &[String]) {
        (
            self.failures.attempted,
            self.failures.failed,
            &self.failures.messages,
        )
    }

    fn phase(&self, traced: bool) -> Option<&Phase> {
        self.phases
            .iter()
            .find(|(t, _)| *t == traced)
            .map(|(_, p)| p)
    }

    /// The untraced phase's virtual p50 (for workloads that derive
    /// per-layer figures from the end-to-end latency).
    pub fn virt_p50_us(&self) -> f64 {
        self.phase(false).map_or(0.0, |p| p.virt.percentile_us(0.5))
    }

    /// Ops per wall second of each window of the untraced phase, for the log.
    pub fn window_rates(&self) -> Vec<f64> {
        self.phase(false).map_or_else(Vec::new, |p| {
            p.windows.iter().map(|w| w.ops_per_s).collect()
        })
    }

    /// Wall seconds of each set-up repetition, for the log.
    pub fn setup_times(&self) -> &[f64] {
        &self.setup_s
    }

    /// Sample counts behind the reported percentiles, for the log.
    pub fn sample_count(&self) -> u64 {
        self.phase(false).map_or(0, Phase::ops)
    }

    /// End-to-end metrics, from the untraced phase.
    pub fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::new();
        m.insert("setup_s".into(), median(&self.setup_s));
        m.insert("peak_rss_mib".into(), procfs::peak_rss_mib());
        let (attempted, failed, _) = self.outcome();
        m.insert(
            "success_ratio".into(),
            ratio((attempted - failed) as f64, attempted as f64),
        );
        m.insert(
            "billed_usd_per_mop".into(),
            ratio(self.billed.0, self.billed.1 as f64) * 1e6,
        );
        if let Some(p) = self.phase(false) {
            m.insert("wall_ops_per_s".into(), p.windowed(|w| w.ops_per_s));
            m.insert("wall_op_us_p50".into(), p.windowed(|w| w.wall_p50_us));
            m.insert("wall_op_us_p90".into(), p.windowed(|w| w.wall_p90_us));
            m.insert("cpu_us_per_op".into(), p.windowed(|w| w.cpu_us_per_op));
            m.insert("virt_op_us_p50".into(), p.virt.percentile_us(0.5));
            m.insert("virt_op_us_p99".into(), p.virt.percentile_us(0.99));
            m.insert("virt_ops_per_s".into(), ratio(p.ops() as f64, p.virt_s));
        }
        m
    }

    /// Per-layer metrics: what the workload set, plus the session, codec,
    /// process, self-time and tracer figures measured here.
    pub fn per_layer(&self) -> Metrics {
        let mut m = self.layer.clone();
        let totals = self.tracer.totals();
        let traced_ops = self.phase(true).map_or(0, Phase::ops) as f64;
        let span_us = |name: &str, q: f64| {
            totals.get(name).map_or(0.0, |t| {
                percentile(&mut t.durations_ns.clone(), q) as f64 / 1e3
            })
        };
        let span_sum_ns = |name: &str| {
            totals
                .get(name)
                .map_or(0, |t| t.durations_ns.iter().sum::<u64>()) as f64
        };
        for (span, metric) in [("session.submit", "submit"), ("session.wait", "wait")] {
            m.insert(format!("session.{metric}.wall_us_p50"), span_us(span, 0.5));
            m.insert(format!("session.{metric}.wall_us_p99"), span_us(span, 0.99));
        }
        let kib = self.codec.bytes as f64 / 1024.0;
        m.insert(
            "codec.encode.wall_ns_per_kib".into(),
            ratio(span_sum_ns("codec.encode"), kib),
        );
        m.insert(
            "codec.decode.wall_ns_per_kib".into(),
            ratio(span_sum_ns("codec.decode"), kib),
        );
        for name in [
            "op",
            "session.submit",
            "session.wait",
            "codec.encode",
            "codec.decode",
            "alloc.connect",
            "alloc.close",
            "state.put",
        ] {
            let self_ns = totals.get(name).map_or(0, |t| t.self_ns) as f64;
            m.insert(
                format!("self.{name}.wall_us_per_op"),
                ratio(self_ns / 1e3, traced_ops),
            );
        }
        // Process figures come from the untraced half, which the tracer's
        // own allocations and timer reads do not disturb.
        if let Some(p) = self.phase(false) {
            m.insert("session.allocs_per_op".into(), p.per_op(p.allocs as f64));
            m.insert(
                "session.alloc_bytes_per_op".into(),
                p.per_op(p.alloc_bytes as f64),
            );
            m.insert(
                "proc.ctx_switches_per_op".into(),
                p.per_op(p.ctx_switches as f64),
            );
            m.insert("proc.cpu_user_us_per_op".into(), p.per_op(p.cpu_user_us));
            m.insert("proc.cpu_sys_us_per_op".into(), p.per_op(p.cpu_sys_us));
        }
        m.insert("proc.threads_peak".into(), self.threads_peak as f64);
        if let (Some(plain), Some(traced)) = (self.phase(false), self.phase(true)) {
            let plain_rate = plain.windowed(|w| w.ops_per_s);
            let traced_rate = traced.windowed(|w| w.ops_per_s);
            m.insert(
                "trace.overhead_pct".into(),
                ratio(plain_rate - traced_rate, plain_rate) * 100.0,
            );
        }
        m
    }
}

/// Name of the code package every workload deploys.
pub const PACKAGE: &str = "perfbench";

/// Number of state keys (and of stateful functions, one per key).
pub const STATE_KEYS: usize = 4;

/// Name of state key `k`.
pub fn state_key(k: usize) -> String {
    format!("key-{k}")
}

/// Name of the stateful function reading key `k`.
pub fn state_function(k: usize) -> String {
    format!("state-fp-{k}")
}

/// A cheap fingerprint of a state value: its length, first and last eight
/// bytes, and one byte in every 4 KiB, folded with FNV-1a. Every write the
/// benchmark makes stamps a fresh version into the first eight bytes, so
/// consecutive values of a key always differ here.
pub fn fingerprint(value: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| hash = (hash ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    mix(value.len() as u64);
    let word = |bytes: &[u8]| {
        let mut w = [0u8; 8];
        w[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(w)
    };
    mix(word(&value[..value.len().min(8)]));
    mix(word(&value[value.len().saturating_sub(8)..]));
    for byte in value.iter().step_by(4096) {
        mix(*byte as u64);
    }
    hash
}

/// The benchmark's code package: `echo`, plus one stateful function per
/// state key that returns the key's [`fingerprint`].
pub fn package() -> CodePackage {
    let mut package = CodePackage::minimal(PACKAGE).with_function(echo_function());
    for k in 0..STATE_KEYS {
        let key = state_key(k);
        package = package.with_function(SharedFunction::from_stateful_fn(
            &state_function(k),
            move |_input, state, output| {
                let value = state.read(&key)?;
                output[..8].copy_from_slice(&fingerprint(value).to_le_bytes());
                Ok(8)
            },
        ));
    }
    package
}

/// A deployment: fabric, manager and spot executors with the benchmark's
/// package.
pub struct Platform {
    /// The RDMA fabric.
    pub fabric: Arc<Fabric>,
    /// The resource manager.
    pub manager: Arc<ResourceManager>,
    /// The registered spot executors.
    pub executors: Vec<Arc<SpotExecutor>>,
    /// The platform configuration.
    pub config: RFaasConfig,
}

impl Platform {
    /// `nodes` executors of `cores` cores each.
    pub fn new(nodes: usize, cores: u32, config: RFaasConfig) -> Platform {
        let fabric = Fabric::with_defaults();
        let registry = FunctionRegistry::new();
        registry.deploy(package());
        let manager = ResourceManager::new(&fabric, config.clone());
        let executors = (0..nodes)
            .map(|i| {
                let executor = SpotExecutor::new(
                    &fabric,
                    &format!("bench-exec-{i}"),
                    NodeResources {
                        cores,
                        memory_mib: 64 * 1024,
                    },
                    registry.clone(),
                    config.clone(),
                );
                manager.register_executor(&executor);
                executor
            })
            .collect();
        Platform {
            fabric,
            manager,
            executors,
            config,
        }
    }

    /// A session builder for `client` with the platform's configuration.
    pub fn session(&self, client: &str) -> AllocationBuilder {
        Session::builder(&self.fabric, client, &self.manager, PACKAGE)
            .config(self.config.clone())
            .memory_mib(1024)
    }

    /// Worker statistics of the executor process serving `lease`, once they
    /// count `expected` invocations. A worker bumps its counters just after
    /// posting the result the client waits for, so the last invocation may
    /// show up a moment later; give up after a second and return what the
    /// counters then say.
    pub fn settled_stats(&self, lease: &Lease, expected: u64) -> Option<WorkerStats> {
        let executor = self
            .executors
            .iter()
            .find(|e| e.name() == lease.executor_node)?;
        let read = || {
            executor.allocator().processes().iter().find_map(|p| {
                let p = p.lock();
                (p.lease_id() == lease.id).then(|| p.stats())
            })
        };
        let started = Instant::now();
        loop {
            let stats = read()?;
            let served = stats.invocations + stats.failed + stats.rejected;
            if served >= expected || started.elapsed() > Duration::from_secs(1) {
                return Some(stats);
            }
            std::thread::yield_now();
        }
    }
}

/// Usage billed to one lease between two reads of its billing slot. The
/// manager's billing slots are recycled after 4096 leases, so a slot's
/// running total can include earlier leases; the difference cannot.
pub fn usage_since(before: &UsageRecord, after: &UsageRecord) -> UsageRecord {
    UsageRecord {
        allocation_gib_us: after.allocation_gib_us - before.allocation_gib_us,
        compute_us: after.compute_us - before.compute_us,
        hot_poll_us: after.hot_poll_us - before.hot_poll_us,
    }
}

/// Accumulated worker statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct WorkerTotals {
    /// Invocations, rejections, failures and demotions.
    pub invocations: u64,
    pub rejected: u64,
    pub failed: u64,
    pub demotions: u64,
    /// Virtual busy and hot-poll time, in µs.
    pub busy_us: f64,
    pub hot_poll_us: f64,
    /// Virtual time spent faulting forked pages in, in µs (billed as
    /// compute beside `busy_us`).
    pub fork_fault_us: f64,
}

impl WorkerTotals {
    /// Fold one process's statistics in.
    pub fn add(&mut self, s: &WorkerStats) {
        self.invocations += s.invocations;
        self.rejected += s.rejected;
        self.failed += s.failed;
        self.demotions += s.demotions;
        self.busy_us += s.busy_time.as_micros_f64();
        self.hot_poll_us += s.hot_poll_time.as_micros_f64();
        self.fork_fault_us += s.fork_fault_time.as_micros_f64();
    }

    /// Report the `worker.*` metrics.
    pub fn report(&self, h: &mut Harness) {
        h.set("worker.invocations", self.invocations as f64);
        h.set("worker.rejected", self.rejected as f64);
        h.set("worker.failed", self.failed as f64);
        h.set("worker.demotions", self.demotions as f64);
        let n = self.invocations as f64;
        h.set("worker.busy.virt_us_per_op", ratio(self.busy_us, n));
        h.set("worker.hot_poll.virt_us_per_op", ratio(self.hot_poll_us, n));
    }
}

/// Report the `billing.*` metrics from the usage billed to the workload's
/// leases over `invocations` invocations. Billed compute should equal the
/// workers' busy time plus their fork fault-in time.
pub fn report_billing(
    h: &mut Harness,
    usage: &UsageRecord,
    invocations: u64,
    workers: &WorkerTotals,
) {
    let n = invocations as f64;
    h.set(
        "billing.compute_us_per_op",
        ratio(usage.compute_us as f64, n),
    );
    h.set(
        "billing.hot_poll_us_per_op",
        ratio(usage.hot_poll_us as f64, n),
    );
    h.set(
        "billing.allocation_gib_us_per_op",
        ratio(usage.allocation_gib_us as f64, n),
    );
    // Equal totals (zero included) mean billing matched the work done.
    let worked_us = workers.busy_us + workers.fork_fault_us;
    let compute_to_busy = if usage.compute_us as f64 == worked_us {
        1.0
    } else {
        ratio(usage.compute_us as f64, worked_us)
    };
    h.set("billing.compute_to_busy_ratio", compute_to_busy);
}

/// Virtual-time cold-start slices of allocations, for the `alloc.*` p50s.
#[derive(Debug, Default)]
pub struct ColdStarts {
    manager: Vec<u64>,
    request: Vec<u64>,
    spawn: Vec<u64>,
    code: Vec<u64>,
    workers: Vec<u64>,
    connect_wall_ns: Vec<u64>,
    close_wall_ns: Vec<u64>,
}

impl ColdStarts {
    /// Record one allocation's breakdown and its connect wall time.
    pub fn add(&mut self, cold: &ColdStartBreakdown, connect_wall: Duration) {
        self.manager.push(cold.connect_to_manager.as_nanos());
        self.request.push(cold.submit_allocation.as_nanos());
        self.spawn.push(cold.spawn_workers.as_nanos());
        self.code.push(cold.submit_code.as_nanos());
        self.workers.push(cold.connect_to_workers.as_nanos());
        self.connect_wall_ns.push(connect_wall.as_nanos() as u64);
    }

    /// Record one session close's wall time.
    pub fn add_close(&mut self, close_wall: Duration) {
        self.close_wall_ns.push(close_wall.as_nanos() as u64);
    }

    /// Report the `alloc.*` metrics.
    pub fn report(&mut self, h: &mut Harness) {
        let us = |v: &mut Vec<u64>, q: f64| percentile(v, q) as f64 / 1e3;
        h.set(
            "alloc.connect.wall_us_p50",
            us(&mut self.connect_wall_ns, 0.5),
        );
        h.set(
            "alloc.connect.wall_us_p99",
            us(&mut self.connect_wall_ns, 0.99),
        );
        h.set("alloc.close.wall_us_p50", us(&mut self.close_wall_ns, 0.5));
        h.set("alloc.manager.virt_us_p50", us(&mut self.manager, 0.5));
        h.set("alloc.request.virt_us_p50", us(&mut self.request, 0.5));
        h.set("alloc.spawn.virt_us_p50", us(&mut self.spawn, 0.5));
        h.set("alloc.code.virt_us_p50", us(&mut self.code, 0.5));
        h.set("alloc.workers.virt_us_p50", us(&mut self.workers, 0.5));
    }
}

/// Report the reactor metrics from lifetime stats before and after the
/// timed phases.
pub fn report_reactor(
    h: &mut Harness,
    before: rfaas::ReactorStats,
    after: rfaas::ReactorStats,
    ops: u64,
) {
    let turns = (after.turns - before.turns) as f64;
    let pumped = after.pumped - before.pumped;
    let dispatched = after.dispatched - before.dispatched;
    h.set("reactor.turns_per_op", ratio(turns, ops as f64));
    h.set(
        "reactor.dispatched_per_turn",
        ratio(dispatched as f64, turns),
    );
    h.set(
        "reactor.pumped_minus_dispatched",
        pumped as f64 - dispatched as f64,
    );
}

/// Report the connection-plane metrics of the workload's sessions.
pub fn report_connections(h: &mut Harness, opened: u64, hits: u64, misses: u64, srq_high: usize) {
    h.set("conn.opened", opened as f64);
    h.set(
        "conn.pool_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    h.set("conn.srq_high_watermark", srq_high as f64);
}

/// Report the RDMA baseline: the raw write ping-pong RTT at `bytes`, and
/// the platform's virtual overhead over it at an invocation p50 of
/// `virt_p50_us`.
pub fn report_fabric(h: &mut Harness, fabric: &Fabric, bytes: usize, virt_p50_us: f64) {
    let raw = fabric.profile().write_pingpong_rtt(bytes).as_micros_f64();
    h.set("fabric.raw_rtt.virt_us", raw);
    h.set(
        "rfaas.overhead_over_rdma.virt_ns",
        (virt_p50_us - raw) * 1e3,
    );
}

/// Compare a reply with the expected bytes.
pub fn check_reply(reply: &[u8], expected: &[u8]) -> Result<(), String> {
    if reply == expected {
        Ok(())
    } else {
        Err(format!(
            "reply of {} bytes does not match the {} bytes sent",
            reply.len(),
            expected.len()
        ))
    }
}
