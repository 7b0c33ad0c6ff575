//! Spot executors: lightweight allocator, executor processes and workers.
//!
//! A *spot executor* offers the idle cores and memory of one node to rFaaS
//! (Sec. III-A). Its *lightweight allocator* accepts allocation requests tied
//! to a lease, spawns an isolated *executor process* (sandbox) with one
//! worker per requested core, and accounts resource consumption. Each
//! *worker* owns its RDMA queue pair and completion queue, serves one client
//! connection, and switches between hot (busy-polling) and warm (blocking)
//! invocation handling.
//!
//! Workers are not threads: one *dispatcher* thread per executor process
//! registers every worker's receive CQ in a [`rdma_fabric::CqSet`] and runs a
//! completion-driven event loop over all of them — accepting client
//! connections, draining the multiplexed CQs in deterministic registration
//! order, and billing each pickup on the owning worker's virtual clock
//! according to that worker's polling mode (busy-poll pickup for hot workers,
//! notification serialisation + wake-up for warm ones). One thread therefore
//! sustains any number of workers without a poll loop per worker, while the
//! hot/warm cost split and the retrospective hot→warm demotion accounting
//! stay exactly as a thread-per-worker executor would charge them.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cluster_sim::NodeResources;
use rdma_fabric::{
    AccessFlags, CqSet, DeviceFunction, Endpoint, Fabric, FabricNode, FaultBatch, Listener,
    MemoryRegion, NicProfile, PrefetchPlan, QueuePair, ReceiveRing, RemoteMemoryHandle,
    SendRequest, Sge, SharedReceiveQueue, SrqStats, WorkCompletion,
};
#[cfg(test)]
use sandbox::SandboxType;
use sandbox::{
    CodePackage, FaultTracker, FunctionError, FunctionRegistry, ImageRegistry, Sandbox,
    SandboxSnapshot, SpawnBreakdown, StateAccess, WarmPool, SNAPSHOT_PAGE_BYTES,
};
use sim_core::sync::{ranks, OrderedMutex};
use sim_core::{SimDuration, SimTime, VirtualClock};
use state_plane::{StateClient, StateClientStats, StateError, StateMode, StateSpec};

use crate::billing::BillingClient;
use crate::config::{PollingMode, RFaasConfig};
use crate::error::{RFaasError, Result};
use crate::protocol::{ImmValue, InvocationHeader, Lease, ResultStatus, INVOCATION_HEADER_BYTES};

static NEXT_PROCESS_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_WORKER_ID: AtomicU64 = AtomicU64::new(1);

/// How the allocator provisions the sandbox of a new executor process — the
/// client-visible knob spanning the cold-start spectrum's new fork tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocationPolicy {
    /// Always pay the full sandbox spawn (the paper's baseline).
    #[default]
    Cold,
    /// Fork from a parked warm parent's snapshot when one exists: µs-scale
    /// setup, pages fault in over one-sided RDMA reads during the first
    /// invocations. Falls back to a cold spawn on a pool miss.
    Fork,
    /// Resume a parked warm parent outright (the parent leaves the pool):
    /// no faults, but one parent serves one allocation. Falls back to a
    /// cold spawn on a pool miss.
    WarmPool,
}

/// Shared fault state of one forked executor process: the deterministic
/// prefetch schedule over the parent snapshot's page map, drained one window
/// per served invocation until the child is fully resident.
#[derive(Debug)]
pub struct ForkFaultState {
    plan: PrefetchPlan,
    faults: OrderedMutex<ForkFaults>,
}

/// The page residency of a forked child and the batches that faulted it in.
#[derive(Debug)]
struct ForkFaults {
    tracker: FaultTracker,
    /// Served batches, in service order.
    served: Vec<FaultBatch>,
}

impl ForkFaultState {
    fn new(snapshot: &SandboxSnapshot, profile: &NicProfile, window: usize) -> ForkFaultState {
        let plan = PrefetchPlan::new(profile, snapshot.total_pages(), window, SNAPSHOT_PAGE_BYTES);
        ForkFaultState {
            faults: OrderedMutex::new(
                ranks::EXECUTOR_FORK_TRACKER,
                ForkFaults {
                    tracker: FaultTracker::for_snapshot(snapshot),
                    served: Vec::new(),
                },
            ),
            plan,
        }
    }

    /// Serve the next prefetch window, if any pages are still cold: returns
    /// the batch (pages + link cost) the invocation must absorb.
    fn serve_next(&self) -> Option<FaultBatch> {
        let mut faults = self.faults.lock();
        let (start_page, pages) = faults.tracker.fault_next_window(self.plan.window())?;
        let batch = FaultBatch {
            start_page,
            pages,
            cost: self.plan.batch_cost(pages),
        };
        faults.served.push(batch);
        Some(batch)
    }

    /// Pages in the parent snapshot's page map.
    pub fn total_pages(&self) -> usize {
        self.plan.total_pages()
    }

    /// Pages faulted in so far.
    pub fn pages_faulted(&self) -> usize {
        self.faults.lock().tracker.faulted_count()
    }

    /// Whether the child is fully resident (steady state: no more fault
    /// latency on invocations).
    pub fn is_complete(&self) -> bool {
        self.faults.lock().tracker.is_complete()
    }

    /// The fault batches served so far, in service order — the child's
    /// fault schedule.
    pub fn fault_schedule(&self) -> Vec<FaultBatch> {
        self.faults.lock().served.clone()
    }

    /// Total link time spent serving faults so far.
    pub fn fault_time(&self) -> SimDuration {
        self.faults.lock().served.iter().map(|b| b.cost).sum()
    }
}

/// Executor-side attachment to a state plane: one caching [`StateClient`]
/// per executor process, plus the per-function key declarations registered
/// at bind time. The dispatcher materialises a function's declared keys into
/// worker-local buffers before dispatch and writes dirty read-write keys
/// back after completion, so the function body itself never takes a
/// control-plane round trip.
struct ExecutorStateBinding {
    client: StateClient,
    specs: HashMap<String, StateSpec>,
}

impl std::fmt::Debug for ExecutorStateBinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorStateBinding")
            .field("client", &self.client)
            .field("functions", &self.specs.len())
            .finish()
    }
}

impl ExecutorStateBinding {
    fn new(client: StateClient) -> ExecutorStateBinding {
        ExecutorStateBinding {
            client,
            specs: HashMap::new(),
        }
    }

    /// Register (or replace) the declared key set of `function`.
    fn bind(&mut self, function: &str, spec: StateSpec) {
        self.specs.insert(function.to_string(), spec);
    }

    /// Virtual time on the clock this binding's state accesses charge.
    fn now(&self) -> SimTime {
        self.client.now()
    }

    fn sync_to(&self, t: SimTime) {
        self.client.sync_to(t);
    }

    /// Materialise the keys `function` declared into worker-local buffers.
    /// A key deleted since bind time materialises empty (the function
    /// observes a fresh value, exactly as a first writer would).
    fn materialize(&mut self, function: &str) -> Result<MaterializedState> {
        let spec = self.specs.get(function).cloned().unwrap_or_default();
        let mut entries = Vec::with_capacity(spec.keys().len());
        for key in spec.keys() {
            let bytes = match self.client.get(&key.name) {
                Ok(bytes) => bytes,
                Err(StateError::UnknownKey(_)) => Vec::new(),
                Err(e) => return Err(RFaasError::StatePlane(e)),
            };
            entries.push(MaterializedEntry {
                name: key.name.clone(),
                mode: key.mode,
                bytes,
                dirty: false,
            });
        }
        Ok(MaterializedState { entries })
    }

    /// Push every dirty read-write key back to the plane, in declaration
    /// order (the write-back schedule is deterministic).
    fn write_back(&mut self, state: MaterializedState) -> Result<()> {
        for entry in state.entries {
            if entry.dirty && entry.mode == StateMode::ReadWrite {
                self.client
                    .put(&entry.name, &entry.bytes)
                    .map_err(RFaasError::StatePlane)?;
            }
        }
        Ok(())
    }
}

struct MaterializedEntry {
    name: String,
    mode: StateMode,
    bytes: Vec<u8>,
    dirty: bool,
}

/// The declared keys of one stateful invocation, materialised into
/// worker-local byte buffers. This is the `StateAccess` window handed to the
/// function body: reads see the materialised copies, writes mark them dirty
/// for the post-completion write-back, and any access outside the declared
/// set (or a write to a read-only key) fails the invocation.
struct MaterializedState {
    entries: Vec<MaterializedEntry>,
}

impl StateAccess for MaterializedState {
    fn read(&self, key: &str) -> std::result::Result<&[u8], FunctionError> {
        self.entries
            .iter()
            .find(|e| e.name == key)
            .map(|e| e.bytes.as_slice())
            .ok_or_else(|| {
                FunctionError::StateAccess(format!("key '{key}' was not declared via with_state"))
            })
    }

    fn write(&mut self, key: &str) -> std::result::Result<&mut Vec<u8>, FunctionError> {
        let entry = self
            .entries
            .iter_mut()
            .find(|e| e.name == key)
            .ok_or_else(|| {
                FunctionError::StateAccess(format!("key '{key}' was not declared via with_state"))
            })?;
        if entry.mode == StateMode::Read {
            return Err(FunctionError::StateAccess(format!(
                "key '{key}' is declared read-only"
            )));
        }
        entry.dirty = true;
        Ok(&mut entry.bytes)
    }
}

/// Integer square root (floor), used to size the shared receive queue
/// sublinearly in the worker count.
fn integer_sqrt(n: usize) -> usize {
    let mut root = 0usize;
    while (root + 1).saturating_mul(root + 1) <= n {
        root += 1;
    }
    root
}

/// The (renewable) expiry instant of one lease, shared between the executor
/// process serving the lease and its dispatcher.
///
/// The dispatcher consults it on each invocation (Sec. III-B: the executor enforces
/// the lease, not the client); `extend` pushes it forward when the client
/// renews through the manager. The deadline never moves backwards.
#[derive(Debug)]
pub struct LeaseDeadline {
    expires_at_ns: AtomicU64,
}

impl LeaseDeadline {
    /// A deadline at `expires_at`.
    pub fn new(expires_at: SimTime) -> LeaseDeadline {
        LeaseDeadline {
            expires_at_ns: AtomicU64::new(expires_at.as_nanos()),
        }
    }

    /// The current expiry instant.
    pub fn expires_at(&self) -> SimTime {
        SimTime::from_nanos(self.expires_at_ns.load(Ordering::Acquire))
    }

    /// Push the expiry forward to `expires_at` (monotonic: an earlier instant
    /// is ignored).
    pub fn extend(&self, expires_at: SimTime) {
        self.expires_at_ns
            .fetch_max(expires_at.as_nanos(), Ordering::AcqRel);
    }

    /// Whether the lease has expired at `now`.
    pub fn is_expired(&self, now: SimTime) -> bool {
        now >= self.expires_at()
    }
}

/// A CPU core shared between workers; warm invocations must acquire it
/// exclusively, hot workers hold it for their whole lifetime (Fig. 6).
#[derive(Debug, Default)]
struct CoreSlot {
    busy: AtomicBool,
}

impl CoreSlot {
    /// Try to take exclusive ownership of the core.
    fn try_acquire(&self) -> bool {
        !self.busy.swap(true, Ordering::AcqRel)
    }

    /// Release the core.
    fn release(&self) {
        self.busy.store(false, Ordering::Release);
    }
}

/// Statistics kept by one worker thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Successfully executed invocations.
    pub invocations: u64,
    /// Invocations rejected because the core was busy.
    pub rejected: u64,
    /// Invocations whose function body failed.
    pub failed: u64,
    /// Invocations refused because the lease had expired on arrival.
    pub expired: u64,
    /// Hot→warm demotions after spinning past the hot-poll timeout.
    pub demotions: u64,
    /// Virtual time spent executing function bodies.
    pub busy_time: SimDuration,
    /// Virtual time spent hot-polling between invocations.
    pub hot_poll_time: SimDuration,
    /// Remote-fork fault batches this worker served (forked processes only).
    pub fork_faults: u64,
    /// Virtual time spent faulting parent pages in over RDMA reads.
    pub fork_fault_time: SimDuration,
    /// Invocations that ran against a state-plane window.
    pub state_invocations: u64,
    /// Virtual time spent materialising declared keys and writing dirty
    /// ones back (part of `busy_time`, broken out here).
    pub state_time: SimDuration,
}

/// What a worker's handle shares with the dispatcher serving it.
#[derive(Debug)]
struct WorkerShared {
    stats: OrderedMutex<WorkerStats>,
    clock: Arc<VirtualClock>,
}

/// Connection details a client needs to reach one worker thread.
#[derive(Debug, Clone)]
pub struct WorkerEndpointInfo {
    /// Fabric address the worker's listener is bound to.
    pub address: String,
}

/// Handle owned by the executor process for one worker. The worker itself is
/// state driven by the process dispatcher thread, not a thread of its own.
#[derive(Debug)]
pub struct WorkerHandle {
    /// The polling mode the worker was allocated in.
    mode: PollingMode,
    shared: Arc<WorkerShared>,
}

impl WorkerHandle {
    /// Snapshot of the worker's statistics.
    pub fn stats(&self) -> WorkerStats {
        *self.shared.stats.lock()
    }

    /// The worker's virtual clock (its latest observed virtual time).
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.shared.clock
    }

    /// Current polling mode: the allocated one, except that a hot worker
    /// that demoted itself (Sec. III-C) stays warm from then on.
    pub fn mode(&self) -> PollingMode {
        match self.mode {
            PollingMode::Hot if self.stats().demotions > 0 => PollingMode::Warm,
            mode => mode,
        }
    }
}

/// Per-worker state built at allocation time; the process dispatcher drives
/// its whole lifecycle (accept → hello → serve → retire).
struct WorkerSlot {
    listener: Listener,
    endpoint: Endpoint,
    shared: Arc<WorkerShared>,
    core: Arc<CoreSlot>,
    /// Owned by the dispatcher: only a hot worker's own demotion changes it.
    mode: PollingMode,
    conn: Option<WorkerConn>,
    /// The worker finished (client gone, shutdown or setup failure). Its CQ
    /// is deregistered from the set; any stray token in flight is ignored.
    done: bool,
}

/// Live connection state of one worker, from accept until retirement.
struct WorkerConn {
    qp: QueuePair,
    input: MemoryRegion,
    output: MemoryRegion,
    hello_region: MemoryRegion,
    hello_sent: bool,
    /// This worker's receive-CQ token in the dispatcher's [`CqSet`].
    token: usize,
    holds_core: bool,
    last_ready: Option<SimTime>,
    /// Adaptive workers busy-poll until this *virtual* instant after each
    /// served request, then park on the completion channel. Compared against
    /// the next completion's virtual timestamp to decide whether that pickup
    /// is billed as a busy poll or a blocking wake-up, mirroring the
    /// spin-then-block wait of a dedicated thread. Virtual (not wall) time
    /// keeps the billing decision — and through it every downstream
    /// timestamp — deterministic across runs.
    unparked_until: SimTime,
}

/// Everything besides the worker slots that one dispatcher thread needs to
/// serve a whole executor process.
struct DispatcherContext {
    package: CodePackage,
    config: RFaasConfig,
    billing: Option<Arc<BillingClient>>,
    shutdown: Arc<AtomicBool>,
    /// The lease deadline every worker of the process enforces.
    deadline: Arc<LeaseDeadline>,
    /// The process-wide shared receive queue every worker QP consumes from.
    srq: SharedReceiveQueue,
    /// The one receive ring replenishing the SRQ: its doorbell slots back
    /// every invocation of the process, so receive memory scales with the
    /// SRQ depth instead of `workers × recv_queue_depth`.
    ring: ReceiveRing,
    /// Fault state of a forked process: early invocations drain one prefetch
    /// window each until the child is resident. `None` for cold/warm spawns.
    fork: Option<Arc<ForkFaultState>>,
    /// State-plane attachment of the process. Populated after spawn (the
    /// client attaches its plane once the allocation is installed), hence
    /// the shared slot rather than a construction-time field.
    state_binding: Arc<OrderedMutex<Option<ExecutorStateBinding>>>,
}

/// Release a worker's resources and mark it finished. Dropping the
/// connection disconnects the queue pair and frees the registered buffers.
fn retire_worker(slot: &mut WorkerSlot, cqset: &mut CqSet) {
    if let Some(conn) = slot.conn.take() {
        if conn.holds_core {
            slot.core.release();
        }
        cqset.deregister(conn.token);
        conn.qp.disconnect();
    }
    slot.done = true;
}

/// Finish a worker's setup once its client connected: register the input and
/// output buffers, attach the QP to the process SRQ, register the receive CQ
/// in the dispatcher's set and prepare the hello message advertising the
/// input buffer.
fn connect_worker(
    slot: &WorkerSlot,
    qp: QueuePair,
    cqset: &mut CqSet,
    config: &RFaasConfig,
    srq: &SharedReceiveQueue,
) -> Option<WorkerConn> {
    // Registered buffers: clients write [header | payload] into `input`; the
    // function produces its result in `output` before it is written back.
    let input = slot.endpoint.pd.register(
        INVOCATION_HEADER_BYTES + config.max_payload_bytes,
        AccessFlags::REMOTE_WRITE,
    );
    let output = slot
        .endpoint
        .pd
        .register(config.max_payload_bytes, AccessFlags::LOCAL_ONLY);

    // No private receive ring: the QP consumes pre-posted receives from the
    // process-wide SRQ, capped by a per-worker flow-control credit so one
    // chatty connection cannot starve its siblings. The credit equals the
    // old private ring depth, so a single client observes the same
    // ReceiverNotReady threshold as before the SRQ rework.
    qp.attach_srq(srq, config.recv_queue_depth.max(1));

    let hello = InvocationHeader {
        result_rkey: input.rkey(),
        result_offset: 0,
        result_capacity: input.len() as u64,
    };
    let hello_region = slot
        .endpoint
        .pd
        .register_from(hello.encode().to_vec(), AccessFlags::LOCAL_ONLY);
    let token = cqset.register(qp.recv_cq());
    Some(WorkerConn {
        qp,
        input,
        output,
        hello_region,
        hello_sent: false,
        token,
        holds_core: false,
        last_ready: None,
        unparked_until: slot.shared.clock.now() + config.hot_poll_fallback,
    })
}

/// Write the first `len` bytes of the worker's output buffer into the
/// client's result buffer and notify it of `status` through the immediate
/// value.
fn post_result(
    conn: &WorkerConn,
    invocation_id: u32,
    result: &RemoteMemoryHandle,
    len: usize,
    status: ResultStatus,
) {
    let _ = conn.qp.post_send(
        invocation_id as u64,
        SendRequest::WriteWithImm {
            local: Sge::range(&conn.output, 0, len),
            remote: result.slice(0, len),
            imm: ImmValue::response(invocation_id, status),
        },
        false,
    );
}

/// Run `f` over the worker's whole output buffer (a range that is always in
/// bounds, so only `f` can fail).
fn with_output(
    output: &MemoryRegion,
    f: impl FnOnce(&mut [u8]) -> std::result::Result<usize, FunctionError>,
) -> std::result::Result<usize, FunctionError> {
    output
        .with_bytes_mut(0, output.len(), f)
        .unwrap_or_else(|e| Err(FunctionError::ExecutionFailed(e.to_string())))
}

/// Serve one invocation completion on its owning worker: charge the pickup
/// on the worker's clock per its polling mode, apply the retrospective
/// hot-poll accounting, enforce the lease, acquire the core, run the
/// function and write the result back. The billing is exactly what a
/// dedicated worker thread charged; only the completion delivery is
/// multiplexed.
fn serve_completion(slot: &mut WorkerSlot, raw: WorkCompletion, ctx: &DispatcherContext) {
    let DispatcherContext {
        package,
        config,
        billing,
        ..
    } = ctx;
    let shared = Arc::clone(&slot.shared);
    let core = Arc::clone(&slot.core);
    let Some(conn) = slot.conn.as_mut() else {
        return;
    };
    // Hand the raw completion back to the shared ring for slot accounting:
    // adoption releases the consuming QP's SRQ credit and re-posts the
    // consumed receive into the SRQ.
    let wc = ctx.ring.adopt(raw).wc;

    // The multiplexed drain was uncharged: bill the pickup the way this
    // worker's own wait would have. Hot workers (and adaptive workers still
    // inside their spin window) pay the busy-poll pickup; warm and parked
    // adaptive workers pay notification serialisation plus the blocking
    // wake-up.
    let mode = slot.mode;
    let parked = match mode {
        PollingMode::Hot => false,
        PollingMode::Warm => true,
        PollingMode::Adaptive => wc.timestamp >= conn.unparked_until,
    };
    let wc = if parked {
        conn.qp.recv_cq().charge_blocking_pickup(wc)
    } else {
        conn.qp.recv_cq().charge_poll_pickup(&wc);
        wc
    };
    if matches!(mode, PollingMode::Adaptive) {
        // The pickup charge above synced this worker's clock to the
        // arrival, so the next spin window opens at the served request.
        conn.unparked_until = shared.clock.now() + config.hot_poll_fallback;
    }
    if !wc.is_success() {
        return;
    }

    // Hot-polling time: the gap between becoming idle and the arrival of
    // this request is CPU time burnt spinning (billed like compute).
    //
    // Demotion is evaluated *retrospectively* at the next arrival: an
    // idle worker cannot observe virtual time passing (empty polls do
    // not advance it), so the spin gap is only known once a completion
    // carries its timestamp. The one fidelity cost: a hot worker past
    // its budget keeps the core until that next arrival, so co-located
    // warm invocations can still be rejected during the window.
    if matches!(mode, PollingMode::Hot | PollingMode::Adaptive) {
        if let Some(idle_since) = conn.last_ready {
            let spin = wc.timestamp.saturating_since(idle_since);
            let demote = matches!(mode, PollingMode::Hot)
                && !config.hot_poll_timeout.is_zero()
                && spin > config.hot_poll_timeout;
            if demote {
                // The worker stopped spinning `hot_poll_timeout` after
                // going idle and parked on the completion channel
                // (Sec. III-C): the polling bill is capped at the
                // budget, the worker is warm from here on, and this
                // request pays the blocking wake-up it actually took.
                {
                    let mut stats = shared.stats.lock();
                    stats.hot_poll_time += config.hot_poll_timeout;
                    stats.demotions += 1;
                }
                if let Some(b) = billing {
                    b.record_hot_poll(config.hot_poll_timeout);
                }
                slot.mode = PollingMode::Warm;
                shared.clock.advance(conn.qp.recv_cq().blocking_penalty());
                if conn.holds_core {
                    core.release();
                    conn.holds_core = false;
                }
            } else {
                // An adaptive worker parks after its fallback window, so
                // it too only burns CPU up to the budget — never the
                // whole idle gap.
                let billed = if matches!(mode, PollingMode::Adaptive)
                    && !config.hot_poll_fallback.is_zero()
                {
                    spin.min(config.hot_poll_fallback)
                } else {
                    spin
                };
                if !billed.is_zero() {
                    shared.stats.lock().hot_poll_time += billed;
                    if let Some(b) = billing {
                        b.record_hot_poll(billed);
                    }
                }
            }
        }
    }

    let imm = wc.imm.unwrap_or(0);
    let (invocation_id, function_index) = ImmValue::parse_request(imm);
    let total_len = wc.byte_len;
    let header_bytes = match conn.input.read(0, INVOCATION_HEADER_BYTES) {
        Ok(bytes) => bytes,
        Err(_) => return,
    };
    let Ok(header) = InvocationHeader::decode(&header_bytes) else {
        return;
    };
    let reply_to = header.result_handle();
    let payload_len = total_len.saturating_sub(INVOCATION_HEADER_BYTES);

    // Lease enforcement (Sec. III-B): charging the pickup synchronised
    // this worker's clock to the invocation's arrival time, so comparing
    // against the shared deadline catches leases that expired while the
    // client kept the connection open. Refuse the invocation so the client
    // re-allocates through the resource manager.
    if ctx.deadline.is_expired(shared.clock.now()) {
        shared.stats.lock().expired += 1;
        post_result(
            conn,
            invocation_id,
            &reply_to,
            0,
            ResultStatus::LeaseExpired,
        );
        // The spin up to this arrival was already accounted above; mark
        // the new idle point or the next request re-bills that interval.
        conn.last_ready = Some(shared.clock.now());
        return;
    }

    // Oversubscribed warm executions must grab the core; if a
    // compute-intensive task holds it, reject immediately so the client
    // redirects to another executor (Sec. III-D, Fig. 6).
    let acquired_for_this = if !conn.holds_core {
        if core.try_acquire() {
            true
        } else {
            shared.stats.lock().rejected += 1;
            post_result(conn, invocation_id, &reply_to, 0, ResultStatus::Rejected);
            conn.last_ready = Some(shared.clock.now());
            return;
        }
    } else {
        false
    };

    // A forked child still faulting in parent pages pays the next prefetch
    // window here: the page touches happen under this invocation's function
    // entry, served by one-sided READs from the parent node and billed to
    // the tenant like compute. Once the map is resident (`serve_next`
    // returns None) invocations are indistinguishable from a warm spawn.
    if let Some(fork) = &ctx.fork {
        if let Some(batch) = fork.serve_next() {
            shared.clock.advance(batch.cost);
            {
                let mut stats = shared.stats.lock();
                stats.fork_faults += 1;
                stats.fork_fault_time += batch.cost;
            }
            if let Some(b) = billing {
                b.record_compute(batch.cost);
            }
        }
    }

    // Dispatch: header parse, function lookup, argument setup.
    shared.clock.advance(config.dispatch_cost);

    let function = package.function_by_index(function_index as usize).cloned();
    // The counters settle before the result is posted: a client reading
    // `WorkerStats` right after its `wait` sees this invocation counted.
    let response = match function {
        None => {
            shared.stats.lock().failed += 1;
            (0usize, ResultStatus::FunctionFailed)
        }
        Some(function) => {
            let input_bytes = conn
                .input
                .read(INVOCATION_HEADER_BYTES, payload_len)
                .unwrap_or_default();
            let started = shared.clock.now();
            let outcome = if function.is_stateful() {
                // Stateful path: materialise the declared keys into
                // worker-local buffers, run the function against the state
                // window, write dirty keys back. The time the state client
                // spends on its own clock (cache misses, remote reads, push
                // writes) is re-billed onto this worker's clock so the
                // invocation round trip carries it.
                let mut guard = ctx.state_binding.lock();
                match guard.as_mut() {
                    None => Err(FunctionError::StateAccess(
                        "no state plane is attached to this executor process".into(),
                    )),
                    Some(binding) => {
                        // The binding's clock may lag the worker's (it only
                        // moves on state traffic); sync before measuring so
                        // the access is billed its real cost, not the
                        // catch-up to the worker's present.
                        binding.sync_to(shared.clock.now());
                        let state_started = binding.now();
                        let outcome = match binding.materialize(function.name()) {
                            Err(e) => Err(FunctionError::StateAccess(e.to_string())),
                            Ok(mut window) => {
                                let run = with_output(&conn.output, |buf| {
                                    function.invoke_stateful(&input_bytes, &mut window, buf)
                                });
                                match run {
                                    Ok(n) => match binding.write_back(window) {
                                        Ok(()) => Ok(n),
                                        Err(e) => Err(FunctionError::StateAccess(e.to_string())),
                                    },
                                    Err(e) => Err(e),
                                }
                            }
                        };
                        let spent = binding.now().saturating_since(state_started);
                        shared.clock.advance(spent);
                        {
                            let mut stats = shared.stats.lock();
                            stats.state_invocations += 1;
                            stats.state_time += spent;
                        }
                        outcome
                    }
                }
            } else {
                with_output(&conn.output, |buf| function.invoke(&input_bytes, buf))
            };
            shared.clock.advance(function.compute_cost(payload_len));
            let busy = shared.clock.now().saturating_since(started);
            let response = match outcome {
                Ok(n) if n <= reply_to.len => (n, ResultStatus::Success),
                Ok(_) | Err(_) => (0, ResultStatus::FunctionFailed),
            };
            {
                let mut stats = shared.stats.lock();
                stats.busy_time += busy;
                if response.1 == ResultStatus::Success {
                    stats.invocations += 1;
                } else {
                    stats.failed += 1;
                }
            }
            if let Some(b) = billing {
                b.record_compute(busy);
            }
            response
        }
    };

    // Write the result directly into the client's memory and notify it
    // through the immediate value.
    let (out_len, status) = response;
    post_result(conn, invocation_id, &reply_to, out_len, status);
    if acquired_for_this {
        core.release();
    }

    // The ring already replenished the consumed receive; mark the idle
    // point for the hot-poll accounting of the next request.
    conn.last_ready = Some(shared.clock.now());
    if let Some(b) = billing {
        let _ = b.flush();
    }
}

/// The dispatcher thread body: one completion-driven event loop serving
/// every worker of an executor process over a single multiplexed CQ set.
///
/// Each turn sweeps the worker lifecycles (accept pending clients, push
/// pending hellos, keep hot workers on their cores, retire finished
/// workers), then drains every receive CQ in deterministic registration
/// order and serves the completions on their owning workers. When a turn
/// makes no progress the loop spins only if some worker busy-polls;
/// otherwise it parks on the set's notifier like a warm worker parks on its
/// completion channel. The loop ends when the process is dropped or stops
/// serving, or once every worker retired.
fn dispatcher_main(mut workers: Vec<WorkerSlot>, ctx: DispatcherContext) {
    /// How often an idle dispatcher re-polls its listeners while a worker
    /// connection is still being established. Replaces the old hard-coded
    /// 200µs `thread::sleep`: same accept cadence, but routed through the
    /// CqSet notifier so completions and disconnects cut the wait short.
    const SETUP_ACCEPT_POLL: Duration = Duration::from_micros(200);

    let mut cqset = CqSet::new();
    // Member token -> worker index, in registration (= drain) order.
    let mut owner: Vec<usize> = Vec::new();
    // Scratch reused across turns: the steady-state drain never allocates.
    let mut scratch: Vec<(usize, WorkCompletion)> = Vec::new();

    while !ctx.shutdown.load(Ordering::Acquire) {
        let mut progressed = false;
        // What the live workers need from an idle turn: a spinning hot
        // worker keeps the loop busy, a connection being set up needs its
        // listener re-polled. No live worker at all ends the loop.
        let mut live = false;
        let mut spin = false;
        let mut setting_up = false;

        // Lifecycle sweep.
        for (index, slot) in workers.iter_mut().enumerate() {
            if slot.done {
                continue;
            }
            if slot.conn.is_none() {
                // Wait for the lease-holding client to connect.
                match slot.listener.try_accept(&slot.endpoint) {
                    Ok(Some(qp)) => {
                        match connect_worker(slot, qp, &mut cqset, &ctx.config, &ctx.srq) {
                            Some(conn) => {
                                debug_assert_eq!(conn.token, owner.len());
                                owner.push(index);
                                slot.conn = Some(conn);
                                progressed = true;
                            }
                            None => retire_worker(slot, &mut cqset),
                        }
                    }
                    Ok(None) => setting_up = true,
                    Err(_) => retire_worker(slot, &mut cqset),
                }
                live |= !slot.done;
                continue;
            }
            let conn = slot.conn.as_mut().unwrap();
            if !conn.hello_sent {
                // Advertise the input buffer to the client ("hello"). The
                // client posts its receive right after connecting; retry
                // every turn to cover the race between accept() returning
                // on both sides.
                match conn.qp.post_send(
                    0,
                    SendRequest::Send {
                        local: Sge::whole(&conn.hello_region),
                    },
                    false,
                ) {
                    Ok(()) => {
                        conn.hello_sent = true;
                        progressed = true;
                    }
                    Err(rdma_fabric::FabricError::ReceiverNotReady) => {
                        if conn.qp.is_connected() {
                            setting_up = true;
                        } else {
                            retire_worker(slot, &mut cqset);
                        }
                    }
                    Err(_) => retire_worker(slot, &mut cqset),
                }
                live |= !slot.done;
                continue;
            }
            // Hot workers own their core for their entire lifetime.
            let hot = matches!(slot.mode, PollingMode::Hot);
            if hot && !conn.holds_core {
                conn.holds_core = slot.core.try_acquire();
            }
            if !hot && conn.holds_core {
                slot.core.release();
                conn.holds_core = false;
            }
            // A gone client retires the worker once its CQ drained: the
            // drain below still serves completions queued before the
            // disconnect, exactly like a dedicated thread polling dry.
            if !conn.qp.is_connected() && conn.qp.recv_cq().pending() == 0 {
                retire_worker(slot, &mut cqset);
            } else {
                live = true;
                spin |= hot;
            }
        }

        // Drain every member CQ in registration order and serve the
        // completions on their owning workers.
        scratch.clear();
        cqset.poll_uncharged_into(usize::MAX, &mut scratch);
        for (token, wc) in scratch.drain(..) {
            let slot = &mut workers[owner[token]];
            if slot.done || slot.conn.is_none() {
                continue;
            }
            serve_completion(slot, wc, &ctx);
            progressed = true;
        }

        if !live {
            break;
        }
        if progressed {
            continue;
        }

        // Idle policy: spin while any hot worker busy-polls, otherwise
        // park on the set's notifier — a delivery or disconnect on any
        // member CQ wakes the loop immediately, so the timeout only bounds
        // how often host-side conditions the notifier cannot observe
        // (the shutdown flag, new connections on the listeners) are
        // re-polled. Adaptive workers park too: their spin window is
        // *virtual* time, which an idle host thread cannot observe passing;
        // the window is enforced where it matters — in the billing decision
        // against the next completion's virtual timestamp. A turn without
        // progress served no completion, so no worker changed its mode
        // since the sweep.
        if spin {
            std::hint::spin_loop();
            std::thread::yield_now();
        } else if setting_up {
            // A connection is still being set up: the notifier cannot see
            // listener activity, so wait with the accept-poll interval
            // instead of a bare sleep — queued completions still wake the
            // loop instantly.
            cqset.wait(SETUP_ACCEPT_POLL);
        } else {
            cqset.wait(Duration::from_millis(50));
        }
    }

    for slot in &mut workers {
        retire_worker(slot, &mut cqset);
    }
}

/// Per-lease cold-start cost breakdown produced by the allocator, matching
/// the stacked bars of Fig. 9.
#[derive(Debug, Clone)]
pub struct AllocationBreakdown {
    /// Sandbox + executor-process + worker spawn costs.
    pub spawn: SpawnBreakdown,
    /// Cost of transferring and loading the code package.
    pub code_submission: SimDuration,
}

impl AllocationBreakdown {
    /// Total allocator-side cold-start cost.
    pub fn total(&self) -> SimDuration {
        self.spawn.total() + self.code_submission
    }
}

/// Result of a successful allocation: where to connect, and what it cost.
#[derive(Debug)]
pub struct AllocationResult {
    /// Executor-process identifier.
    pub process_id: u64,
    /// One entry per spawned worker thread.
    pub workers: Vec<WorkerEndpointInfo>,
    /// Cold-start cost breakdown.
    pub breakdown: AllocationBreakdown,
    /// The code package loaded into the executor; the client uses it to map
    /// function names to the indices carried in invocation immediates.
    pub package: CodePackage,
}

/// An executor process: one sandbox hosting a set of worker threads that all
/// serve the same code package on behalf of one lease.
#[derive(Debug)]
pub struct ExecutorProcess {
    id: u64,
    lease_id: u64,
    sandbox: Sandbox,
    workers: Vec<WorkerHandle>,
    /// The one event-loop thread multiplexing every worker's receive CQ.
    dispatcher: Option<JoinHandle<()>>,
    /// Set once the process stops serving; the dispatcher then retires every
    /// worker and exits.
    dispatcher_shutdown: Arc<AtomicBool>,
    /// The process-wide shared receive queue the dispatcher's workers
    /// consume from (kept for statistics; the dispatcher owns a clone).
    srq: SharedReceiveQueue,
    /// Cores reserved from the node pool at allocation time (`lease.cores`,
    /// not the worker count — oversubscribed allocations spawn more workers
    /// than they reserve cores).
    leased_cores: u32,
    memory_mib: u64,
    deadline: Arc<LeaseDeadline>,
    created_at: SimTime,
    /// How the sandbox was provisioned, and — for forked processes — the
    /// shared fault state over the parent snapshot's page map.
    policy: AllocationPolicy,
    fork: Option<Arc<ForkFaultState>>,
    /// Shared slot the dispatcher reads stateful invocations' binding from;
    /// the allocator fills it when the client attaches a state plane.
    state_binding: Arc<OrderedMutex<Option<ExecutorStateBinding>>>,
}

impl ExecutorProcess {
    /// Process identifier.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The lease this process belongs to.
    pub fn lease_id(&self) -> u64 {
        self.lease_id
    }

    /// Worker handles (read-only).
    pub fn workers(&self) -> &[WorkerHandle] {
        &self.workers
    }

    /// Cores reserved from the node pool for this process.
    pub fn leased_cores(&self) -> u32 {
        self.leased_cores
    }

    /// The (renewable) lease deadline shared with this process's dispatcher.
    pub fn deadline(&self) -> &Arc<LeaseDeadline> {
        &self.deadline
    }

    /// Aggregate statistics over all workers.
    pub fn stats(&self) -> WorkerStats {
        let mut total = WorkerStats::default();
        for w in &self.workers {
            let s = w.stats();
            total.invocations += s.invocations;
            total.rejected += s.rejected;
            total.failed += s.failed;
            total.expired += s.expired;
            total.demotions += s.demotions;
            total.busy_time += s.busy_time;
            total.hot_poll_time += s.hot_poll_time;
            total.fork_faults += s.fork_faults;
            total.fork_fault_time += s.fork_fault_time;
            total.state_invocations += s.state_invocations;
            total.state_time += s.state_time;
        }
        total
    }

    /// The allocation policy this process was provisioned under.
    pub fn policy(&self) -> AllocationPolicy {
        self.policy
    }

    /// Fault state of a forked process (`None` for cold/warm provisioning).
    pub fn fork_state(&self) -> Option<Arc<ForkFaultState>> {
        self.fork.clone()
    }

    /// Client-side counters of the process's state-plane attachment
    /// (`None` when no plane is attached).
    pub fn state_stats(&self) -> Option<StateClientStats> {
        self.state_binding.lock().as_ref().map(|b| b.client.stats())
    }

    /// Statistics of the process-wide shared receive queue: depth, posted
    /// slots, in-flight receives and the depth high watermark.
    pub fn srq_stats(&self) -> SrqStats {
        self.srq.stats()
    }

    /// Latest virtual time observed by any worker of this process.
    pub fn latest_worker_time(&self) -> SimTime {
        self.workers
            .iter()
            .map(|w| w.clock().now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Stop serving: shut every worker down and join the dispatcher. The
    /// sandbox stays alive so the caller can park it as a warm parent.
    fn stop_serving(&mut self) {
        self.dispatcher_shutdown.store(true, Ordering::Release);
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
    }

    fn shutdown(&mut self) -> SimDuration {
        self.stop_serving();
        self.sandbox.terminate().unwrap_or(SimDuration::ZERO)
    }
}

impl Drop for ExecutorProcess {
    fn drop(&mut self) {
        // A process dropped without `stop_serving` (its executor went away)
        // still stops its dispatcher, which retires every worker on its next
        // turn.
        self.dispatcher_shutdown.store(true, Ordering::Release);
    }
}

struct AllocatorState {
    available: NodeResources,
    processes: BTreeMap<u64, Arc<OrderedMutex<ExecutorProcess>>>,
}

/// The lightweight allocator of one spot executor (A2 in Fig. 4): connects
/// new clients, manages executor processes, removes idle processes and
/// accounts resource consumption.
pub struct LightweightAllocator {
    node_name: String,
    fabric: Arc<Fabric>,
    node: Arc<FabricNode>,
    config: RFaasConfig,
    registry: FunctionRegistry,
    images: ImageRegistry,
    state: OrderedMutex<AllocatorState>,
    clock: Arc<VirtualClock>,
    billing: OrderedMutex<Option<Arc<BillingClient>>>,
    /// Parked warm parents per `(SandboxType, package)` — deallocation parks
    /// a sandbox here (when capacity admits it) instead of tearing it down,
    /// and fork/warm-pool allocations consult it before a full spawn.
    warm_pool: WarmPool,
    // Cleared when the node dies or is reclaimed: a dead allocator refuses
    // new allocations instead of spawning processes on a gone machine.
    alive: AtomicBool,
    // Testing hook: index of the first worker-thread spawn forced to fail
    // (usize::MAX disables it). Lets tests exercise the mid-allocation
    // rollback path, which real `thread::spawn` failures make untestable.
    spawn_fail_at: AtomicUsize,
}

impl std::fmt::Debug for LightweightAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LightweightAllocator")
            .field("node", &self.node_name)
            .finish()
    }
}

impl LightweightAllocator {
    fn new(
        fabric: Arc<Fabric>,
        node: Arc<FabricNode>,
        node_name: String,
        resources: NodeResources,
        registry: FunctionRegistry,
        images: ImageRegistry,
        config: RFaasConfig,
    ) -> LightweightAllocator {
        let config_warm_capacity = config.warm_pool_capacity;
        LightweightAllocator {
            node_name,
            fabric,
            node,
            config,
            registry,
            images,
            state: OrderedMutex::new(
                ranks::EXECUTOR_ALLOCATOR,
                AllocatorState {
                    available: resources,
                    processes: BTreeMap::new(),
                },
            ),
            clock: VirtualClock::shared(),
            billing: OrderedMutex::new(ranks::EXECUTOR_BILLING, None),
            warm_pool: WarmPool::with_capacity(config_warm_capacity),
            alive: AtomicBool::new(true),
            spawn_fail_at: AtomicUsize::new(usize::MAX),
        }
    }

    /// Force the `index`-th worker-thread spawn of the next allocation to
    /// fail (testing hook for the rollback path).
    #[doc(hidden)]
    pub fn inject_spawn_failure(&self, index: usize) {
        self.spawn_fail_at.store(index, Ordering::Release);
    }

    /// Attach the billing client created by the resource manager.
    pub fn attach_billing(&self, billing: Arc<BillingClient>) {
        *self.billing.lock() = Some(billing);
    }

    /// Resources currently available for new allocations.
    pub fn available(&self) -> NodeResources {
        self.state.lock().available
    }

    /// Number of live executor processes.
    pub fn process_count(&self) -> usize {
        self.state.lock().processes.len()
    }

    /// The allocator's virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// Allocate an executor process for `lease` with `workers` workers in
    /// polling `mode`, round-robin over one core slot per leased core.
    /// Requesting more workers than leased cores oversubscribes the cores,
    /// which makes warm invocations subject to rejection (Sec. III-D). The
    /// fork and warm-pool [`AllocationPolicy`] tiers consult the executor's
    /// [`WarmPool`] before paying for a full `Sandbox::spawn`, and fall back
    /// to the cold path on a miss.
    pub fn allocate(
        &self,
        lease: &Lease,
        workers: usize,
        mode: PollingMode,
        policy: AllocationPolicy,
    ) -> Result<AllocationResult> {
        if workers == 0 {
            return Err(RFaasError::Internal("cannot allocate zero workers".into()));
        }
        if !self.alive.load(Ordering::Acquire) {
            return Err(RFaasError::ExecutorLost(self.node_name.clone()));
        }
        let package = self
            .registry
            .fetch(&lease.package)
            .ok_or_else(|| RFaasError::UnknownPackage(lease.package.clone()))?;
        let request = NodeResources {
            cores: lease.cores,
            memory_mib: lease.memory_mib,
        };
        {
            let mut state = self.state.lock();
            if !state.available.can_fit(&request) {
                return Err(RFaasError::InsufficientResources {
                    requested_cores: request.cores,
                    requested_memory_mib: request.memory_mib,
                });
            }
            state.available = state.available.saturating_sub(&request);
        }

        // Provision the sandbox per the policy and charge its cost on the
        // allocator clock. The fork and warm-pool tiers consult the warm
        // pool first; a miss degrades to the cold path. A micro-cost hit
        // (resume or fork setup) is reported through the spawn breakdown's
        // `sandbox_create` slot so clients see it in their cold-start bars.
        let cold_spawn = |images: &ImageRegistry| {
            let (mut sandbox, spawn) = Sandbox::spawn(
                lease.sandbox,
                workers,
                lease.memory_mib * 1024 * 1024,
                images,
                package.image(),
            );
            let code_submission = self
                .registry
                .code_submission_cost(&lease.package)
                .unwrap_or(SimDuration::ZERO)
                + sandbox.load_package(package.clone());
            (sandbox, spawn, code_submission)
        };
        let micro_spawn = |setup: SimDuration| SpawnBreakdown {
            image_pull: SimDuration::ZERO,
            sandbox_create: setup,
            executor_start: SimDuration::ZERO,
            workers: SimDuration::ZERO,
        };
        let mut fork_state: Option<Arc<ForkFaultState>> = None;
        let (mut sandbox, spawn, code_submission) = match policy {
            AllocationPolicy::Cold => cold_spawn(&self.images),
            AllocationPolicy::WarmPool => {
                match self.warm_pool.lease(lease.sandbox, &lease.package) {
                    Some(parent) => {
                        // The parent leaves the pool and becomes this
                        // lease's sandbox: resume it, no code submission —
                        // the package is already loaded and warm.
                        let mut sandbox = parent.into_sandbox();
                        let resume = sandbox.resume().unwrap_or(SimDuration::ZERO);
                        sandbox.set_workers(workers);
                        (sandbox, micro_spawn(resume), SimDuration::ZERO)
                    }
                    None => cold_spawn(&self.images),
                }
            }
            AllocationPolicy::Fork => {
                match self.warm_pool.fork_source(lease.sandbox, &lease.package) {
                    Some(snapshot) => {
                        // Clone the executor skeleton from the parent's
                        // snapshot; the parent stays parked and serves the
                        // child's page faults via one-sided READs.
                        let (sandbox, setup) = Sandbox::fork_from(&snapshot, workers);
                        fork_state = Some(Arc::new(ForkFaultState::new(
                            &snapshot,
                            self.fabric.profile(),
                            self.config.fork_prefetch_window,
                        )));
                        (sandbox, micro_spawn(setup), SimDuration::ZERO)
                    }
                    None => cold_spawn(&self.images),
                }
            }
        };
        self.clock.advance(spawn.total() + code_submission);
        let start_time = self.clock.now();

        // One core slot per leased core; workers round-robin over them.
        let cores: Vec<Arc<CoreSlot>> = (0..lease.cores.max(1))
            .map(|_| Arc::new(CoreSlot::default()))
            .collect();
        let device_function = if lease.sandbox.uses_virtual_function() {
            DeviceFunction::Virtual
        } else {
            DeviceFunction::Physical
        };

        // The process-wide shared receive queue: every worker QP consumes
        // pre-posted receives from it, so receive memory scales with the SRQ
        // depth — sublinear in the worker count — instead of one full ring
        // per connection. The depth grows with √workers on top of a
        // two-ring floor, clamped to what the device supports.
        let dispatch_endpoint = Endpoint {
            fabric: Arc::clone(&self.fabric),
            node: Arc::clone(&self.node),
            clock: Arc::new(VirtualClock::starting_at(start_time)),
            pd: rdma_fabric::ProtectionDomain::new(),
            function: device_function,
        };
        let max_depth = self.fabric.profile().max_recv_queue_depth;
        let srq_depth = (self.config.recv_queue_depth * (2 + integer_sqrt(workers))).clamp(
            self.config.recv_queue_depth.min(max_depth).max(1),
            max_depth,
        );
        let srq = SharedReceiveQueue::new(&dispatch_endpoint, srq_depth);
        let shared_ring = ReceiveRing::on_srq(&dispatch_endpoint, &srq, srq_depth, 8);

        let process_id = NEXT_PROCESS_ID.fetch_add(1, Ordering::Relaxed);
        let billing = self.billing.lock().clone();
        let deadline = Arc::new(LeaseDeadline::new(lease.expires_at));
        let mut infos = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        let mut slots = Vec::with_capacity(workers);
        let mut spawn_error = shared_ring
            .as_ref()
            .err()
            .map(|e| RFaasError::Internal(format!("failed to build shared receive ring: {e}")));
        for worker_idx in 0..workers {
            if spawn_error.is_some() {
                break;
            }
            if worker_idx == self.spawn_fail_at.load(Ordering::Acquire) {
                self.spawn_fail_at.store(usize::MAX, Ordering::Release);
                spawn_error = Some(RFaasError::Internal(format!(
                    "failed to spawn worker: injected failure at index {worker_idx}"
                )));
                break;
            }
            let worker_id = NEXT_WORKER_ID.fetch_add(1, Ordering::Relaxed);
            let address = format!("rfaas://{}/{}/{}", self.node_name, process_id, worker_id);
            let listener = Listener::bind(&self.fabric, &address);
            let worker_clock = Arc::new(VirtualClock::starting_at(start_time));
            let shared = Arc::new(WorkerShared {
                stats: OrderedMutex::new(ranks::EXECUTOR_STATS, WorkerStats::default()),
                clock: Arc::clone(&worker_clock),
            });
            let endpoint = Endpoint {
                fabric: Arc::clone(&self.fabric),
                node: Arc::clone(&self.node),
                clock: worker_clock,
                pd: rdma_fabric::ProtectionDomain::new(),
                function: device_function,
            };
            infos.push(WorkerEndpointInfo { address });
            handles.push(WorkerHandle {
                mode,
                shared: Arc::clone(&shared),
            });
            slots.push(WorkerSlot {
                listener,
                endpoint,
                shared,
                core: Arc::clone(&cores[worker_idx % cores.len()]),
                mode,
                conn: None,
                done: false,
            });
        }

        // One dispatcher thread per process serves every worker slot.
        let dispatcher_shutdown = Arc::new(AtomicBool::new(false));
        let state_slot: Arc<OrderedMutex<Option<ExecutorStateBinding>>> =
            Arc::new(OrderedMutex::new(ranks::EXECUTOR_STATE_BINDING, None));
        let mut dispatcher = None;
        if spawn_error.is_none() {
            if let Ok(ring) = shared_ring {
                let workers = std::mem::take(&mut slots);
                let context = DispatcherContext {
                    package: package.clone(),
                    config: self.config.clone(),
                    billing,
                    shutdown: Arc::clone(&dispatcher_shutdown),
                    deadline: Arc::clone(&deadline),
                    srq: srq.clone(),
                    ring,
                    fork: fork_state.clone(),
                    state_binding: Arc::clone(&state_slot),
                };
                match std::thread::Builder::new()
                    .name(format!("rfaas-dispatch-{process_id}"))
                    .spawn(move || dispatcher_main(workers, context))
                {
                    Ok(thread) => dispatcher = Some(thread),
                    Err(e) => {
                        spawn_error = Some(RFaasError::Internal(format!(
                            "failed to spawn dispatcher: {e}"
                        )));
                    }
                }
            }
        }
        if let Some(error) = spawn_error {
            // Roll back the partial allocation: drop the worker handles and
            // slots built so far (nothing is serving them — the dispatcher
            // never started), terminate the sandbox and return the
            // reservation to the node pool.
            drop(handles);
            drop(slots);
            if let Some(teardown) = sandbox.terminate() {
                self.clock.advance(teardown);
            }
            let mut state = self.state.lock();
            state.available = state.available.add(&request);
            return Err(error);
        }

        let process = ExecutorProcess {
            id: process_id,
            lease_id: lease.id,
            sandbox,
            workers: handles,
            dispatcher,
            dispatcher_shutdown,
            srq,
            leased_cores: lease.cores,
            memory_mib: lease.memory_mib,
            deadline,
            created_at: start_time,
            policy,
            fork: fork_state,
            state_binding: state_slot,
        };
        self.state.lock().processes.insert(
            process_id,
            Arc::new(OrderedMutex::new(ranks::EXECUTOR_PROCESS, process)),
        );

        Ok(AllocationResult {
            process_id,
            workers: infos,
            breakdown: AllocationBreakdown {
                spawn,
                code_submission,
            },
            package,
        })
    }

    /// Look up an executor process.
    pub fn process(&self, process_id: u64) -> Option<Arc<OrderedMutex<ExecutorProcess>>> {
        self.state.lock().processes.get(&process_id).cloned()
    }

    /// The executor's warm pool of parked fork parents.
    pub fn warm_pool(&self) -> &WarmPool {
        &self.warm_pool
    }

    /// Evict warm parents idle past the configured timeout, finally tearing
    /// their sandboxes down. Returns the number evicted.
    pub fn evict_warm_parents(&self, now: SimTime) -> usize {
        self.warm_pool
            .evict_idle(now, self.config.warm_pool_idle_timeout)
            .len()
    }

    /// Attach a state-plane client to one executor process: stateful
    /// invocations dispatched to the process materialise their declared keys
    /// through it. Replaces any previous attachment.
    pub fn attach_state_client(&self, process_id: u64, client: StateClient) -> Result<()> {
        let process = self
            .process(process_id)
            .ok_or(RFaasError::UnknownLease(process_id))?;
        let slot = Arc::clone(&process.lock().state_binding);
        *slot.lock() = Some(ExecutorStateBinding::new(client));
        Ok(())
    }

    /// Register the declared key set of `function` on one process's state
    /// binding (bind-time validation already happened client-side).
    pub fn bind_state_spec(&self, process_id: u64, function: &str, spec: StateSpec) -> Result<()> {
        let process = self
            .process(process_id)
            .ok_or(RFaasError::UnknownLease(process_id))?;
        let slot = Arc::clone(&process.lock().state_binding);
        let mut guard = slot.lock();
        let binding = guard.as_mut().ok_or_else(|| {
            RFaasError::StatePlane(StateError::Protocol(
                "no state plane is attached to this executor process".into(),
            ))
        })?;
        binding.bind(function, spec);
        Ok(())
    }

    /// All live executor processes, in ascending process-id order (used by
    /// experiments and tests to reach worker handles without the id).
    pub fn processes(&self) -> Vec<Arc<OrderedMutex<ExecutorProcess>>> {
        let state = self.state.lock();
        let mut ids: Vec<u64> = state.processes.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter()
            .map(|id| Arc::clone(&state.processes[&id]))
            .collect()
    }

    /// Deallocate an executor process, returning its resources to the pool
    /// and flushing the allocation-time billing record.
    pub fn deallocate(&self, process_id: u64) -> Result<WorkerStats> {
        let process = self
            .state
            .lock()
            .processes
            .remove(&process_id)
            .ok_or(RFaasError::UnknownLease(process_id))?;
        let mut process = process.lock();
        let stats = process.stats();
        let allocation_time = process
            .latest_worker_time()
            .saturating_since(process.created_at);
        let memory_mib = process.memory_mib;
        // Restore the reservation actually taken at allocation time — the
        // leased cores, not the worker count, which oversubscribed
        // allocations inflate past the reservation.
        let cores = process.leased_cores;
        process.stop_serving();
        // Offer the sandbox to the warm pool before destroying it: a parked
        // parent turns a later allocation of the same (sandbox, package)
        // into a µs-scale resume or fork source. Admission decides (pool
        // disabled or key at capacity → normal teardown, billed once).
        let parked = self
            .warm_pool
            .park(process.sandbox.clone(), self.clock.now())
            .is_some();
        if !parked {
            if let Some(teardown) = process.sandbox.terminate() {
                self.clock.advance(teardown);
            }
        }
        if let Some(billing) = self.billing.lock().as_ref() {
            billing.record_allocation(allocation_time, memory_mib);
            let _ = billing.flush();
        }
        // Release the process guard before re-taking the allocator lock:
        // allocator state ranks below the process lock (reaping holds it
        // while locking individual processes), so holding the process
        // across this acquisition would invert the order.
        drop(process);
        let mut state = self.state.lock();
        state.available = state.available.add(&NodeResources { cores, memory_mib });
        Ok(stats)
    }

    /// Push the lease deadline of every process serving `lease_id` forward to
    /// `expires_at` (lease renewal reaching the executor). Returns the number
    /// of processes whose deadline was extended.
    pub fn extend_lease(&self, lease_id: u64, expires_at: SimTime) -> usize {
        let processes: Vec<Arc<OrderedMutex<ExecutorProcess>>> =
            self.state.lock().processes.values().cloned().collect();
        let mut extended = 0;
        for process in processes {
            let process = process.lock();
            if process.lease_id == lease_id {
                process.deadline.extend(expires_at);
                extended += 1;
            }
        }
        extended
    }

    /// Deallocate processes whose lease deadline has passed at `now`,
    /// returning their reservations to the node pool. Returns the number of
    /// processes reaped.
    pub fn reap_expired(&self, now: SimTime) -> usize {
        let expired_ids: Vec<u64> = {
            let state = self.state.lock();
            state
                .processes
                .iter()
                .filter(|(_, p)| p.lock().deadline.is_expired(now))
                .map(|(id, _)| *id)
                .collect()
        };
        let mut count = 0;
        for id in expired_ids {
            // Re-check right before tearing down: a renewal may have pushed
            // the deadline forward between the snapshot and this point, and
            // reaping a freshly renewed lease would strand its client.
            let still_expired = self
                .state
                .lock()
                .processes
                .get(&id)
                .is_some_and(|p| p.lock().deadline.is_expired(now));
            if still_expired && self.deallocate(id).is_ok() {
                count += 1;
            }
        }
        count
    }

    /// Tear down every executor process without returning resources to the
    /// pool (the node itself was reclaimed or failed) and refuse future
    /// allocations. Returns the number of processes terminated.
    pub fn terminate_all(&self) -> usize {
        self.alive.store(false, Ordering::Release);
        let processes: Vec<Arc<OrderedMutex<ExecutorProcess>>> = {
            let mut state = self.state.lock();
            std::mem::take(&mut state.processes).into_values().collect()
        };
        let count = processes.len();
        for process in processes {
            process.lock().shutdown();
        }
        count
    }
}

/// A spot executor: one node's worth of harvested resources offered to rFaaS.
pub struct SpotExecutor {
    name: String,
    node: Arc<FabricNode>,
    resources: NodeResources,
    allocator: LightweightAllocator,
    last_heartbeat_sent: OrderedMutex<Option<SimTime>>,
}

impl std::fmt::Debug for SpotExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpotExecutor")
            .field("name", &self.name)
            .field("resources", &self.resources)
            .finish()
    }
}

impl SpotExecutor {
    /// Offer `resources` of node `name` to the platform.
    pub fn new(
        fabric: &Arc<Fabric>,
        name: &str,
        resources: NodeResources,
        registry: FunctionRegistry,
        config: RFaasConfig,
    ) -> Arc<SpotExecutor> {
        let node = fabric.add_node(name);
        Arc::new(SpotExecutor {
            name: name.to_string(),
            node: Arc::clone(&node),
            resources,
            allocator: LightweightAllocator::new(
                Arc::clone(fabric),
                node,
                name.to_string(),
                resources,
                registry,
                ImageRegistry::new(),
                config,
            ),
            last_heartbeat_sent: OrderedMutex::new(ranks::EXECUTOR_HEARTBEAT, None),
        })
    }

    /// Node name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fabric node the executor runs on.
    pub fn node(&self) -> &Arc<FabricNode> {
        &self.node
    }

    /// Total resources offered.
    pub fn resources(&self) -> NodeResources {
        self.resources
    }

    /// The node's lightweight allocator.
    pub fn allocator(&self) -> &LightweightAllocator {
        &self.allocator
    }

    /// Whether the node is still up and heartbeating.
    pub fn is_alive(&self) -> bool {
        self.allocator.alive.load(Ordering::Acquire)
    }

    /// Simulate the node being reclaimed by the batch system (or crashing):
    /// heartbeats stop and every executor process is torn down, which
    /// disconnects the clients holding leases here. Returns the number of
    /// processes terminated.
    pub fn fail(&self) -> usize {
        self.allocator.terminate_all()
    }

    /// Emit a heartbeat if one is due at `now` (the allocator pings the
    /// manager every `interval`, Sec. III-B). Dead executors emit nothing —
    /// that silence is what the manager's failure detector keys on. Returns
    /// the heartbeat timestamp when one was emitted.
    pub fn emit_heartbeat_if_due(&self, now: SimTime, interval: SimDuration) -> Option<SimTime> {
        if !self.is_alive() {
            return None;
        }
        let mut last = self.last_heartbeat_sent.lock();
        let due = match *last {
            None => true,
            Some(previous) => now.saturating_since(previous) >= interval,
        };
        if due {
            *last = Some(now);
            Some(now)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sandbox::echo_function;

    fn test_lease(cores: u32, package: &str) -> Lease {
        Lease {
            id: 1,
            executor_node: "exec-0".into(),
            cores,
            memory_mib: 1024,
            expires_at: SimTime::from_secs(3600),
            sandbox: SandboxType::BareMetal,
            package: package.into(),
            billing_slot: 0,
        }
    }

    /// Allocate `lease` the way a default session does: one hot worker per
    /// leased core, cold-spawned.
    fn allocate_hot(exec: &SpotExecutor, lease: &Lease) -> Result<AllocationResult> {
        let workers = lease.cores as usize;
        exec.allocator()
            .allocate(lease, workers, PollingMode::Hot, AllocationPolicy::Cold)
    }

    fn fork_state(exec: &SpotExecutor, process_id: u64) -> Option<Arc<ForkFaultState>> {
        exec.allocator().process(process_id)?.lock().fork_state()
    }

    fn registry_with_echo() -> FunctionRegistry {
        let registry = FunctionRegistry::new();
        registry.deploy(CodePackage::minimal("echo-pkg").with_function(echo_function()));
        registry
    }

    fn executor() -> Arc<SpotExecutor> {
        let fabric = Fabric::with_defaults();
        SpotExecutor::new(
            &fabric,
            "exec-0",
            NodeResources {
                cores: 8,
                memory_mib: 32 * 1024,
            },
            registry_with_echo(),
            RFaasConfig::default(),
        )
    }

    fn executor_with_pool(capacity: usize) -> Arc<SpotExecutor> {
        let fabric = Fabric::with_defaults();
        let config = RFaasConfig {
            warm_pool_capacity: capacity,
            ..RFaasConfig::default()
        };
        SpotExecutor::new(
            &fabric,
            "exec-0",
            NodeResources {
                cores: 8,
                memory_mib: 32 * 1024,
            },
            registry_with_echo(),
            config,
        )
    }

    /// Allocate and deallocate once so a warm parent is parked for
    /// `echo-pkg`, returning the pool-enabled executor.
    fn executor_with_parked_parent() -> Arc<SpotExecutor> {
        let exec = executor_with_pool(2);
        let first = allocate_hot(&exec, &test_lease(1, "echo-pkg")).unwrap();
        exec.allocator().deallocate(first.process_id).unwrap();
        assert_eq!(
            exec.allocator()
                .warm_pool()
                .idle_for(SandboxType::BareMetal, "echo-pkg"),
            1
        );
        exec
    }

    #[test]
    fn core_slot_is_exclusive() {
        let slot = CoreSlot::default();
        assert!(slot.try_acquire());
        assert!(!slot.try_acquire());
        slot.release();
        assert!(slot.try_acquire());
    }

    #[test]
    fn allocation_reserves_and_deallocation_restores_resources() {
        let exec = executor();
        let lease = test_lease(4, "echo-pkg");
        let result = allocate_hot(&exec, &lease).unwrap();
        assert_eq!(result.workers.len(), 4);
        assert_eq!(exec.allocator().available().cores, 4);
        assert_eq!(exec.allocator().process_count(), 1);
        let stats = exec.allocator().deallocate(result.process_id).unwrap();
        assert_eq!(stats.invocations, 0);
        assert_eq!(exec.allocator().available().cores, 8);
        assert_eq!(exec.allocator().process_count(), 0);
    }

    #[test]
    fn allocation_fails_for_unknown_package() {
        let exec = executor();
        let lease = test_lease(1, "missing-pkg");
        let err = allocate_hot(&exec, &lease).unwrap_err();
        assert!(matches!(err, RFaasError::UnknownPackage(_)));
        // Resources must not leak on the failure path.
        assert_eq!(exec.allocator().available().cores, 8);
    }

    #[test]
    fn allocation_fails_when_resources_exhausted() {
        let exec = executor();
        let lease = test_lease(6, "echo-pkg");
        let first = allocate_hot(&exec, &lease).unwrap();
        let err = allocate_hot(&exec, &test_lease(6, "echo-pkg")).unwrap_err();
        assert!(matches!(err, RFaasError::InsufficientResources { .. }));
        exec.allocator().deallocate(first.process_id).unwrap();
    }

    #[test]
    fn cold_start_breakdown_matches_sandbox_scale() {
        let exec = executor();
        let result = allocate_hot(&exec, &test_lease(1, "echo-pkg")).unwrap();
        let total = result.breakdown.total().as_millis_f64();
        assert!(
            (10.0..80.0).contains(&total),
            "bare-metal cold start {total} ms"
        );
        assert!(result.breakdown.code_submission.as_millis_f64() < 10.0);
        exec.allocator().deallocate(result.process_id).unwrap();
    }

    #[test]
    fn docker_allocation_is_slower_and_uses_virtual_function() {
        let exec = executor();
        let mut lease = test_lease(1, "echo-pkg");
        lease.sandbox = SandboxType::Docker;
        let result = allocate_hot(&exec, &lease).unwrap();
        assert!(result.breakdown.total().as_secs_f64() > 2.0);
        exec.allocator().deallocate(result.process_id).unwrap();
    }

    #[test]
    fn deallocate_unknown_process_errors() {
        let exec = executor();
        assert!(matches!(
            exec.allocator().deallocate(999),
            Err(RFaasError::UnknownLease(999))
        ));
    }

    #[test]
    fn zero_worker_allocation_is_rejected() {
        let exec = executor();
        let err = exec
            .allocator()
            .allocate(
                &test_lease(1, "echo-pkg"),
                0,
                PollingMode::Hot,
                AllocationPolicy::Cold,
            )
            .unwrap_err();
        assert!(matches!(err, RFaasError::Internal(_)));
    }

    #[test]
    fn oversubscribed_deallocate_restores_exactly_the_leased_cores() {
        let exec = executor();
        let lease = test_lease(2, "echo-pkg");
        // 4 workers over 2 leased cores: only 2 cores are reserved.
        let result = exec
            .allocator()
            .allocate(
                &lease,
                2 * lease.cores as usize,
                PollingMode::Warm,
                AllocationPolicy::Cold,
            )
            .unwrap();
        assert_eq!(result.workers.len(), 4);
        assert_eq!(exec.allocator().available().cores, 6);
        exec.allocator().deallocate(result.process_id).unwrap();
        // Regression: restoring workers.len() cores would inflate the pool
        // to 10 here (and leak cores for undersubscribed allocations).
        assert_eq!(exec.allocator().available().cores, 8);
        assert_eq!(
            exec.allocator().available().memory_mib,
            exec.resources().memory_mib
        );
    }

    #[test]
    fn spawn_failure_rolls_back_reservation_and_partial_state() {
        let exec = executor();
        exec.allocator().inject_spawn_failure(2);
        let err = exec
            .allocator()
            .allocate(
                &test_lease(4, "echo-pkg"),
                4,
                PollingMode::Hot,
                AllocationPolicy::Cold,
            )
            .unwrap_err();
        assert!(matches!(err, RFaasError::Internal(_)));
        // Regression: the reservation debited before spawning must be
        // restored, no half-built process may linger, and the two workers
        // spawned before the failure must be shut down (drop joins them).
        assert_eq!(exec.allocator().available().cores, 8);
        assert_eq!(
            exec.allocator().available().memory_mib,
            exec.resources().memory_mib
        );
        assert_eq!(exec.allocator().process_count(), 0);
        // The hook disarms itself: the next allocation succeeds.
        let result = allocate_hot(&exec, &test_lease(4, "echo-pkg")).unwrap();
        exec.allocator().deallocate(result.process_id).unwrap();
    }

    #[test]
    fn reap_expired_reclaims_processes_after_the_deadline() {
        let exec = executor();
        let mut lease = test_lease(2, "echo-pkg");
        lease.expires_at = SimTime::from_secs(10);
        let result = allocate_hot(&exec, &lease).unwrap();
        assert_eq!(exec.allocator().reap_expired(SimTime::from_secs(9)), 0);
        assert_eq!(exec.allocator().process_count(), 1);
        assert_eq!(exec.allocator().reap_expired(SimTime::from_secs(10)), 1);
        assert_eq!(exec.allocator().process_count(), 0);
        assert_eq!(exec.allocator().available().cores, 8);
        assert!(exec.allocator().process(result.process_id).is_none());
    }

    #[test]
    fn extend_lease_pushes_the_process_deadline_forward() {
        let exec = executor();
        let mut lease = test_lease(1, "echo-pkg");
        lease.expires_at = SimTime::from_secs(10);
        let result = allocate_hot(&exec, &lease).unwrap();
        assert_eq!(
            exec.allocator()
                .extend_lease(lease.id, SimTime::from_secs(50)),
            1
        );
        // Extending an unknown lease touches nothing.
        assert_eq!(
            exec.allocator().extend_lease(999, SimTime::from_secs(99)),
            0
        );
        assert_eq!(exec.allocator().reap_expired(SimTime::from_secs(20)), 0);
        let process = exec.allocator().process(result.process_id).unwrap();
        assert_eq!(
            process.lock().deadline().expires_at(),
            SimTime::from_secs(50)
        );
        // The deadline is monotonic: an earlier extension is ignored.
        process.lock().deadline().extend(SimTime::from_secs(30));
        assert_eq!(
            process.lock().deadline().expires_at(),
            SimTime::from_secs(50)
        );
        exec.allocator().deallocate(result.process_id).unwrap();
    }

    #[test]
    fn failed_executor_terminates_processes_and_stops_heartbeating() {
        let exec = executor();
        allocate_hot(&exec, &test_lease(2, "echo-pkg")).unwrap();
        assert!(exec.is_alive());
        let interval = SimDuration::from_secs(5);
        assert!(exec
            .emit_heartbeat_if_due(SimTime::from_secs(1), interval)
            .is_some());
        // Not due again until a full interval elapsed.
        assert!(exec
            .emit_heartbeat_if_due(SimTime::from_secs(3), interval)
            .is_none());
        assert!(exec
            .emit_heartbeat_if_due(SimTime::from_secs(6), interval)
            .is_some());
        assert_eq!(exec.fail(), 1);
        assert!(!exec.is_alive());
        assert_eq!(exec.allocator().process_count(), 0);
        assert!(exec
            .emit_heartbeat_if_due(SimTime::from_secs(11), interval)
            .is_none());
    }

    #[test]
    fn dropping_the_executor_stops_workers_nobody_connected_to() {
        let fabric = Fabric::with_defaults();
        let resources = NodeResources {
            cores: 2,
            memory_mib: 4096,
        };
        let exec = SpotExecutor::new(
            &fabric,
            "exec-0",
            resources,
            registry_with_echo(),
            RFaasConfig::default(),
        );
        let result = allocate_hot(&exec, &test_lease(2, "echo-pkg")).unwrap();
        drop(exec);
        // The dropped process stops its dispatcher, which retires the
        // workers and unbinds their listeners.
        let client = Endpoint::new(&fabric, &fabric.add_node("client"));
        let started = std::time::Instant::now();
        for worker in &result.workers {
            loop {
                match rdma_fabric::connect_with_timeout(
                    &client,
                    &worker.address,
                    Duration::from_millis(10),
                ) {
                    Err(rdma_fabric::FabricError::UnknownAddress(_)) => break,
                    other => assert!(
                        started.elapsed() < Duration::from_secs(1),
                        "{} still reachable after 1 s: {other:?}",
                        worker.address
                    ),
                }
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn heartbeat_at_time_zero_still_rate_limits() {
        let exec = executor();
        let interval = SimDuration::from_secs(5);
        // Regression: a ZERO sentinel made an emission at t=0 invisible, so
        // every later call emitted regardless of the interval.
        assert!(exec
            .emit_heartbeat_if_due(SimTime::ZERO, interval)
            .is_some());
        assert!(exec
            .emit_heartbeat_if_due(SimTime::from_secs(1), interval)
            .is_none());
        assert!(exec
            .emit_heartbeat_if_due(SimTime::from_secs(5), interval)
            .is_some());
    }

    #[test]
    fn integer_sqrt_floors() {
        assert_eq!(integer_sqrt(0), 0);
        assert_eq!(integer_sqrt(1), 1);
        assert_eq!(integer_sqrt(3), 1);
        assert_eq!(integer_sqrt(4), 2);
        assert_eq!(integer_sqrt(15), 3);
        assert_eq!(integer_sqrt(16), 4);
        assert_eq!(integer_sqrt(17), 4);
    }

    #[test]
    fn srq_depth_is_sublinear_in_worker_count() {
        let exec = executor();
        let one = exec
            .allocator()
            .allocate(
                &test_lease(2, "echo-pkg"),
                1,
                PollingMode::Warm,
                AllocationPolicy::Cold,
            )
            .unwrap();
        let sixteen = exec
            .allocator()
            .allocate(
                &test_lease(2, "echo-pkg"),
                16,
                PollingMode::Warm,
                AllocationPolicy::Cold,
            )
            .unwrap();
        let config = RFaasConfig::default();
        let depth = |id| {
            exec.allocator()
                .process(id)
                .unwrap()
                .lock()
                .srq_stats()
                .max_depth
        };
        let depth1 = depth(one.process_id);
        let depth16 = depth(sixteen.process_id);
        // A single worker still gets at least its old private ring depth.
        assert!(depth1 >= config.recv_queue_depth);
        // 16 workers share far fewer receive slots than 16 private rings
        // would pin — receive memory is sublinear in the connection count.
        assert!(
            depth16 < 16 * config.recv_queue_depth,
            "16-worker SRQ depth {depth16} should undercut 16 private rings"
        );
        assert!(depth16 * 4 <= 16 * depth1, "depth must grow sublinearly");
        exec.allocator().deallocate(one.process_id).unwrap();
        exec.allocator().deallocate(sixteen.process_id).unwrap();
    }

    #[test]
    fn deallocate_parks_into_warm_pool_when_enabled() {
        let exec = executor_with_pool(2);
        let result = allocate_hot(&exec, &test_lease(4, "echo-pkg")).unwrap();
        exec.allocator().deallocate(result.process_id).unwrap();
        // The sandbox was parked, not torn down, and the reservation was
        // still restored in full.
        let pool = exec.allocator().warm_pool();
        assert_eq!(pool.idle_for(SandboxType::BareMetal, "echo-pkg"), 1);
        assert_eq!(pool.stats().returned, 1);
        assert_eq!(exec.allocator().available().cores, 8);
    }

    #[test]
    fn disabled_pool_never_parks() {
        let exec = executor();
        let result = allocate_hot(&exec, &test_lease(1, "echo-pkg")).unwrap();
        exec.allocator().deallocate(result.process_id).unwrap();
        let pool = exec.allocator().warm_pool();
        assert_eq!(pool.idle_for(SandboxType::BareMetal, "echo-pkg"), 0);
        assert_eq!(pool.stats().rejected, 1);
    }

    #[test]
    fn fork_allocation_is_microseconds_and_faults_lazily() {
        let exec = executor_with_parked_parent();
        let result = exec
            .allocator()
            .allocate(
                &test_lease(1, "echo-pkg"),
                1,
                PollingMode::Warm,
                AllocationPolicy::Fork,
            )
            .unwrap();
        // Fork setup is µs-scale — orders of magnitude below the ~17 ms
        // bare-metal cold spawn — and submits no code (the snapshot already
        // holds the package).
        let total = result.breakdown.total().as_micros_f64();
        assert!(total < 100.0, "forked allocation took {total} µs");
        assert!(result.breakdown.code_submission.is_zero());
        // The child starts with an empty address space: every page is still
        // to be faulted in over one-sided READs, none served yet.
        let fork = fork_state(&exec, result.process_id).unwrap();
        assert!(fork.total_pages() > 0);
        assert_eq!(fork.pages_faulted(), 0);
        assert!(!fork.is_complete());
        // The parent stays parked and can seed further forks.
        assert_eq!(
            exec.allocator()
                .warm_pool()
                .idle_for(SandboxType::BareMetal, "echo-pkg"),
            1
        );
    }

    #[test]
    fn warm_pool_hit_resumes_the_parked_parent() {
        let exec = executor_with_parked_parent();
        let result = exec
            .allocator()
            .allocate(
                &test_lease(1, "echo-pkg"),
                1,
                PollingMode::Warm,
                AllocationPolicy::WarmPool,
            )
            .unwrap();
        // A pool hit pays only the paused→running resume (150 µs scale) and
        // consumes the parked parent.
        let total = result.breakdown.total().as_micros_f64();
        assert!(
            (100.0..1000.0).contains(&total),
            "warm-pool hit took {total} µs"
        );
        assert!(result.breakdown.code_submission.is_zero());
        assert!(fork_state(&exec, result.process_id).is_none());
        assert_eq!(
            exec.allocator()
                .warm_pool()
                .idle_for(SandboxType::BareMetal, "echo-pkg"),
            0
        );
        assert_eq!(exec.allocator().warm_pool().stats().hits, 1);
    }

    #[test]
    fn fork_and_warm_pool_degrade_to_cold_on_a_miss() {
        for policy in [AllocationPolicy::Fork, AllocationPolicy::WarmPool] {
            let exec = executor_with_pool(2); // enabled but empty
            let result = exec
                .allocator()
                .allocate(&test_lease(1, "echo-pkg"), 1, PollingMode::Hot, policy)
                .unwrap();
            assert!(
                result.breakdown.total().as_millis_f64() > 10.0,
                "a pool miss must pay the full cold spawn"
            );
            assert!(fork_state(&exec, result.process_id).is_none());
            assert_eq!(exec.allocator().warm_pool().stats().misses, 1);
        }
    }

    #[test]
    fn idle_warm_parents_are_evicted_after_the_timeout() {
        let exec = executor_with_parked_parent();
        let clock = Arc::clone(exec.allocator().clock());
        // Under the 120 s idle timeout nothing is evicted.
        assert_eq!(exec.allocator().evict_warm_parents(clock.now()), 0);
        let late = clock.now() + SimDuration::from_secs(3600);
        assert_eq!(exec.allocator().evict_warm_parents(late), 1);
        assert_eq!(
            exec.allocator()
                .warm_pool()
                .idle_for(SandboxType::BareMetal, "echo-pkg"),
            0
        );
        assert_eq!(exec.allocator().warm_pool().stats().evictions, 1);
    }
}
