//! The typed session API: allocation builder, function handles and batched
//! completion sets.
//!
//! This is the surface client applications are meant to program against
//! (Listing 2 of the paper, minus the transport plumbing). A [`Session`] is
//! one leased allocation, built fluently through an [`AllocationBuilder`];
//! it hands out typed [`FunctionHandle`]s whose [`Codec`]s infer payload
//! lengths and buffer sizes, so callers never thread
//! `(function, buffer, payload_len, buffer)` tuples by hand. Scatter/gather
//! work goes through [`FunctionHandle::map_workers`], which posts each wave
//! of one-invocation-per-worker behind one shared doorbell (the chained-WQE
//! path of [`rdma_fabric::QueuePair::post_send_batch`]) and returns a
//! [`CompletionSet`] with `wait_any`/`wait_all`.
//!
//! Callers that manage registered buffers and payload lengths themselves
//! (the invocation-spectrum tests, the latency microbenchmarks) pair
//! [`Session::allocator`] with [`Session::invoke_raw`].
//!
//! Lease recovery is first-class here: the allocation epoch each submission
//! observed flows through [`TypedFuture`] and [`CompletionSet`], and a lease
//! that expires or an executor that disappears is transparently replaced up
//! to three times per invocation before the original error surfaces.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use rdma_fabric::{ConnectionPool, DatagramSocket, Fabric, ProtectionDomain};
use sandbox::SandboxType;
use sim_core::sync::{ranks, OrderedMutex};
use sim_core::{SimDuration, SimTime, VirtualClock};

use crate::client::{
    ActiveAllocation, BatchStats, Buffer, BufferAllocator, ColdStartBreakdown,
    ConnectionPlaneStats, InvocationFuture, InvocationSpec,
};
use crate::codec::Codec;
use crate::config::{PollingMode, RFaasConfig};
use crate::error::{RFaasError, Result};
use crate::executor::{AllocationPolicy, ForkFaultState};
use crate::manager::ResourceManager;
use crate::protocol::{Lease, LeaseRequest};
use crate::reactor::Reactor;
use state_plane::{StateClient, StateClientStats, StateError, StateKey, StatePlane, StateSpec};

/// Smallest output buffer the typed layer registers when the caller gives no
/// explicit capacity: results at least as large as a small page are common
/// (echo-style functions return the input; most others return less), and a
/// floor keeps tiny inputs from allocating unusably small result buffers.
const MIN_OUTPUT_CAPACITY: usize = 4096;

/// Upper bound on buffer pairs the session's pool retains; beyond it, the
/// smaller of a released pair and the smallest pooled pair is deregistered.
const MAX_POOLED_PAIRS: usize = 64;

/// Fluent builder for a [`Session`]: lease shape, sandbox, polling mode and
/// shared client resources in one place.
#[derive(Debug, Clone)]
pub struct AllocationBuilder {
    fabric: Arc<Fabric>,
    client_node: String,
    manager: Arc<ResourceManager>,
    config: RFaasConfig,
    package: String,
    cores: u32,
    memory_mib: u64,
    sandbox: SandboxType,
    lease_timeout: Option<SimDuration>,
    mode: PollingMode,
    start_at: Option<SimTime>,
    policy: AllocationPolicy,
    reactor: Option<Reactor>,
    clock: Option<Arc<VirtualClock>>,
    pool: Option<ConnectionPool>,
    state_plane: Option<StatePlane>,
}

impl AllocationBuilder {
    /// Start building a session for `client_node` against `manager`,
    /// requesting the deployed code package `package`. Defaults: one worker,
    /// 512 MiB, bare-metal sandbox, hot polling, a cold-spawn allocation
    /// policy, and the manager's configuration defaults for lease timeout.
    /// Reactor, clock and connection pool are private to the session unless
    /// shared through the builder.
    pub fn new(
        fabric: &Arc<Fabric>,
        client_node: &str,
        manager: &Arc<ResourceManager>,
        package: &str,
    ) -> AllocationBuilder {
        AllocationBuilder {
            fabric: Arc::clone(fabric),
            client_node: client_node.to_string(),
            manager: Arc::clone(manager),
            config: RFaasConfig::default(),
            package: package.to_string(),
            cores: 1,
            memory_mib: 512,
            sandbox: SandboxType::BareMetal,
            lease_timeout: None,
            mode: PollingMode::Hot,
            start_at: None,
            policy: AllocationPolicy::default(),
            reactor: None,
            clock: None,
            pool: None,
            state_plane: None,
        }
    }

    /// Use an explicit platform configuration (cost calibration, payload
    /// limits, connect timeout) instead of the default paper calibration.
    pub fn config(mut self, config: RFaasConfig) -> AllocationBuilder {
        self.config = config;
        self
    }

    /// Number of executor workers (= parallel function instances) to lease.
    pub fn workers(mut self, cores: u32) -> AllocationBuilder {
        self.cores = cores;
        self
    }

    /// Memory to lease for the executor process, in MiB.
    pub fn memory_mib(mut self, memory_mib: u64) -> AllocationBuilder {
        self.memory_mib = memory_mib;
        self
    }

    /// Sandbox technology isolating the executor.
    pub fn sandbox(mut self, sandbox: SandboxType) -> AllocationBuilder {
        self.sandbox = sandbox;
        self
    }

    /// Lease lifetime (defaults to the request default of ten minutes).
    pub fn lease_timeout(mut self, timeout: SimDuration) -> AllocationBuilder {
        self.lease_timeout = Some(timeout);
        self
    }

    /// How the leased workers wait for invocations (hot busy-polling, warm
    /// blocking, or adaptive).
    pub fn polling(mut self, mode: PollingMode) -> AllocationBuilder {
        self.mode = mode;
        self
    }

    /// How the allocator provisions the executor sandbox: a full cold spawn
    /// (the default), a remote fork from a parked warm parent's snapshot
    /// ([`AllocationPolicy::Fork`]), or a warm-pool resume
    /// ([`AllocationPolicy::WarmPool`]). Fork and warm-pool silently degrade
    /// to a cold spawn when no suitable parent is parked on the chosen
    /// executor. Re-allocations after a lost lease use the same policy.
    pub fn allocation_policy(mut self, policy: AllocationPolicy) -> AllocationBuilder {
        self.policy = policy;
        self
    }

    /// Advance the session's virtual clock to `at` before allocating (for
    /// trace-driven clients whose requests arrive at a known instant).
    pub fn starting_at(mut self, at: SimTime) -> AllocationBuilder {
        self.start_at = Some(at);
        self
    }

    /// Drive this session's completions from a shared [`Reactor`]: sessions
    /// built against the same reactor are pumped by one event loop, so a
    /// single client thread sustains in-flight invocations across all of
    /// them at once.
    pub fn reactor(mut self, reactor: &Reactor) -> AllocationBuilder {
        self.reactor = Some(reactor.clone());
        self
    }

    /// Share a virtual clock with other sessions (they model one client
    /// thread, whose virtual time advances across all of them).
    pub fn clock(mut self, clock: &Arc<VirtualClock>) -> AllocationBuilder {
        self.clock = Some(Arc::clone(clock));
        self
    }

    /// Lease worker connections through a shared [`ConnectionPool`]:
    /// sessions built against the same pool reuse connection warmth left by
    /// earlier leases to the same executor node, so re-allocation after
    /// churn pays the warm setup tier instead of the full handshake.
    pub fn connection_pool(mut self, pool: &ConnectionPool) -> AllocationBuilder {
        self.pool = Some(pool.clone());
        self
    }

    /// Attach a [`StatePlane`] to the session: [`Session::state`] gains the
    /// zero-copy get/put surface, and function handles may declare key
    /// dependencies via [`FunctionHandle::with_state`]. The executor process
    /// is bound to the same plane at allocation time (and re-bound across
    /// transparent re-allocations).
    pub fn state_plane(mut self, plane: &StatePlane) -> AllocationBuilder {
        self.state_plane = Some(plane.clone());
        self
    }

    /// Acquire the lease, spin up the workers and connect to them (the cold
    /// path of Fig. 5/6), returning the live [`Session`].
    pub fn connect(self) -> Result<Session> {
        let pd = ProtectionDomain::new();
        let session = Session {
            fabric: self.fabric,
            clock: self.clock.unwrap_or_else(VirtualClock::shared),
            reactor: self.reactor.unwrap_or_default(),
            buffers: BufferPool::new(BufferAllocator { pd: pd.clone() }),
            pd,
            node_name: self.client_node,
            config: self.config,
            manager: self.manager,
            connection_pool: self.pool.unwrap_or_default(),
            control: OrderedMutex::new(ranks::CLIENT_CONTROL, None),
            connections_opened: AtomicU64::new(0),
            active: OrderedMutex::new(ranks::CLIENT_ACTIVE, None),
            last_request: OrderedMutex::new(ranks::CLIENT_LAST_REQUEST, None),
            recovery_lock: OrderedMutex::new(ranks::CLIENT_RECOVERY, ()),
            allocation_epoch: AtomicU64::new(0),
            next_invocation: AtomicU32::new(1),
            round_robin: AtomicUsize::new(0),
            cold_start: OrderedMutex::new(ranks::CLIENT_COLD_START, None),
            recoveries: AtomicU32::new(0),
            policy: self.policy,
            state_plane: self.state_plane,
            session_state: OrderedMutex::new(ranks::CLIENT_SESSION_STATE, None),
        };
        if let Some(at) = self.start_at {
            session.clock.advance_to(at);
        }
        let mut request = LeaseRequest::single_worker(&self.package)
            .with_cores(self.cores)
            .with_memory_mib(self.memory_mib)
            .with_sandbox(self.sandbox);
        if let Some(timeout) = self.lease_timeout {
            request.timeout = timeout;
        }
        session.allocate(request, self.mode)?;
        Ok(session)
    }
}

/// Pool of registered (input, output) buffer pairs reused across typed
/// invocations, so steady-state invocations never re-register memory.
struct BufferPool {
    allocator: BufferAllocator,
    free: OrderedMutex<Vec<(Buffer, Buffer)>>,
}

/// Registered bytes of a buffer pair.
fn pair_bytes((input, output): &(Buffer, Buffer)) -> usize {
    input.region().len() + output.region().len()
}

impl BufferPool {
    fn new(allocator: BufferAllocator) -> BufferPool {
        BufferPool {
            allocator,
            free: OrderedMutex::new(ranks::SESSION_BUFFER_POOL, Vec::new()),
        }
    }

    fn acquire(&self, input_capacity: usize, output_capacity: usize) -> (Buffer, Buffer) {
        let mut free = self.free.lock();
        if let Some(position) = free
            .iter()
            .position(|(i, o)| i.capacity() >= input_capacity && o.capacity() >= output_capacity)
        {
            return free.swap_remove(position);
        }
        drop(free);
        (
            self.allocator.input(input_capacity),
            self.allocator.output(output_capacity),
        )
    }

    /// Return a pair whose invocation completed. A full pool keeps the
    /// larger of `pair` and its smallest pair, so payloads that grow from
    /// wave to wave stop registering fresh memory once the pool has caught
    /// up. The pair that leaves is deregistered: its `wait` succeeded, so no
    /// write into it can still be in flight.
    fn release(&self, pair: (Buffer, Buffer)) {
        let mut free = self.free.lock();
        if free.len() < MAX_POOLED_PAIRS {
            free.push(pair);
            return;
        }
        let smallest = (0..free.len())
            .min_by_key(|&i| pair_bytes(&free[i]))
            .expect("a full pool is not empty");
        let evicted = if pair_bytes(&pair) > pair_bytes(&free[smallest]) {
            std::mem::replace(&mut free[smallest], pair)
        } else {
            pair
        };
        drop(free);
        self.allocator.pd.deregister(evicted.0.region());
        self.allocator.pd.deregister(evicted.1.region());
    }
}

/// One leased allocation and the typed invocation surface on top of it (the
/// `rfaas::invoker` of Listing 2).
///
/// A session owns the lease, the direct worker connections, the recovery
/// state and a pool of registered buffers shared by every [`FunctionHandle`]
/// it hands out. Its transport internals (allocation, connection setup,
/// posting, recovery) live in [`crate::client`]. Dropping the session
/// releases the lease.
pub struct Session {
    pub(crate) fabric: Arc<Fabric>,
    pub(crate) clock: Arc<VirtualClock>,
    /// Every worker connection is registered with this reactor and one
    /// [`Reactor::turn`] pumps them all.
    pub(crate) reactor: Reactor,
    pub(crate) pd: ProtectionDomain,
    pub(crate) node_name: String,
    pub(crate) config: RFaasConfig,
    pub(crate) manager: Arc<ResourceManager>,
    /// Warmth pool worker connects draw from; shared across sessions (see
    /// [`AllocationBuilder::connection_pool`]) so lease churn back to the
    /// same executor reuses the warm re-establishment tier.
    pub(crate) connection_pool: ConnectionPool,
    /// Datagram socket for first contact with the resource manager, bound
    /// lazily on the first allocation and reused for every re-allocation.
    pub(crate) control: OrderedMutex<Option<DatagramSocket>>,
    pub(crate) connections_opened: AtomicU64,
    pub(crate) active: OrderedMutex<Option<ActiveAllocation>>,
    /// The request that produced the current lease, replayed by the
    /// transparent recovery path (Sec. III-B: clients re-allocate when an
    /// executor disappears or a lease expires).
    pub(crate) last_request: OrderedMutex<Option<(LeaseRequest, PollingMode)>>,
    /// Serialises recovery: two futures discovering the same dead
    /// allocation must produce one re-allocation, not two (the loser would
    /// overwrite — and leak — the winner's allocation).
    pub(crate) recovery_lock: OrderedMutex<()>,
    pub(crate) allocation_epoch: AtomicU64,
    pub(crate) next_invocation: AtomicU32,
    pub(crate) round_robin: AtomicUsize,
    pub(crate) cold_start: OrderedMutex<Option<ColdStartBreakdown>>,
    pub(crate) recoveries: AtomicU32,
    /// How allocations (re-allocations included) provision the sandbox.
    pub(crate) policy: AllocationPolicy,
    /// The state plane every allocation attaches the executor process to.
    pub(crate) state_plane: Option<StatePlane>,
    /// The session-side caching state client, attached lazily on the first
    /// allocation and kept across re-allocations (the cache region and its
    /// datagram endpoint belong to the client node, not to any lease).
    pub(crate) session_state: OrderedMutex<Option<StateClient>>,
    buffers: BufferPool,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("node", &self.node_name)
            .field("workers", &self.worker_count())
            .finish()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.deallocate();
    }
}

impl Session {
    /// Start building a session (see [`AllocationBuilder`]).
    pub fn builder(
        fabric: &Arc<Fabric>,
        client_node: &str,
        manager: &Arc<ResourceManager>,
        package: &str,
    ) -> AllocationBuilder {
        AllocationBuilder::new(fabric, client_node, manager, package)
    }

    /// Resolve `name` in the allocated code package and return a typed
    /// handle for it. Unknown functions fail here, at handle creation, not at
    /// the first invocation.
    pub fn function<I, O>(&self, name: &str) -> Result<FunctionHandle<'_, I, O>>
    where
        I: Codec + ?Sized,
        O: Codec + ?Sized,
    {
        let known = self
            .active
            .lock()
            .as_ref()
            .is_some_and(|a| a.package.function_by_name(name).is_some());
        if !known {
            return Err(RFaasError::UnknownFunction(name.to_string()));
        }
        Ok(FunctionHandle {
            session: self,
            name: Arc::from(name),
            output_capacity: None,
            _typed: PhantomData,
        })
    }

    /// Invoke `function` on `payload_len` bytes already written into the
    /// registered `input` buffer, with the result written straight into
    /// `output`; returns the result length and the client-observed round
    /// trip. The zero-copy path for callers that manage buffers from
    /// [`Session::allocator`] themselves (spectrum tests, latency
    /// microbenchmarks).
    pub fn invoke_raw(
        &self,
        function: &str,
        input: &Buffer,
        payload_len: usize,
        output: &Buffer,
    ) -> Result<(usize, SimDuration)> {
        let start = self.clock.now();
        let future = self.submit(&InvocationSpec {
            worker: None,
            function: Arc::from(function),
            input: input.clone(),
            payload_len,
            output: output.clone(),
        })?;
        let len = future.wait()?;
        Ok((len, self.clock.now().saturating_since(start)))
    }

    /// The session's virtual clock (latency measurements are deltas of it).
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// Buffer allocator bound to the session's protection domain (for
    /// [`Session::invoke_raw`] alongside the typed surface).
    pub fn allocator(&self) -> BufferAllocator {
        BufferAllocator {
            pd: self.pd.clone(),
        }
    }

    /// The active lease, if any.
    pub fn lease(&self) -> Option<Lease> {
        self.active.lock().as_ref().map(|a| a.lease.clone())
    }

    /// Cold-start breakdown of the session's last allocation.
    pub fn cold_start(&self) -> Option<ColdStartBreakdown> {
        self.cold_start.lock().clone()
    }

    /// One unified snapshot of the session's runtime counters: the
    /// connection plane, the fork fault state (when provisioned by
    /// [`AllocationPolicy::Fork`]), both sides of the state plane (when one
    /// is attached), worker count and transparent recoveries.
    pub fn stats(&self) -> SessionStats {
        let pool = self.connection_pool.stats();
        let state_session = self.state().stats();
        let active = self.active.lock();
        let process = active
            .as_ref()
            .and_then(|a| a.executor.allocator().process(a.process_id));
        let process = process.as_ref().map(|p| p.lock());
        SessionStats {
            connections: ConnectionPlaneStats {
                connections_opened: self.connections_opened.load(Ordering::Relaxed),
                pool_hits: pool.hits,
                pool_misses: pool.misses,
                srq_depth_high_watermark: process
                    .as_ref()
                    .map_or(0, |p| p.srq_stats().depth_high_watermark),
            },
            fork: process.as_ref().and_then(|p| p.fork_state()),
            state_session,
            state_executor: process.as_ref().and_then(|p| p.state_stats()),
            workers: active.as_ref().map_or(0, |a| a.connections.len()),
            recoveries: self.recoveries(),
        }
    }

    /// Typed surface over the session's state-plane attachment (see
    /// [`AllocationBuilder::state_plane`]). Operations fail with
    /// [`RFaasError::StatePlane`] when no plane is attached.
    pub fn state(&self) -> SessionState<'_> {
        SessionState { session: self }
    }

    /// Number of connected executor workers.
    pub fn worker_count(&self) -> usize {
        self.active
            .lock()
            .as_ref()
            .map_or(0, |a| a.connections.len())
    }

    /// How many times the session transparently re-allocated after a lease
    /// expiry or executor loss.
    pub fn recoveries(&self) -> u32 {
        self.recoveries.load(Ordering::Relaxed)
    }

    /// Renew the lease: a manager round trip pushing the expiry to
    /// `now + extension` (charged at the lease-renewal processing cost), then
    /// the executor-side deadline update, so long-running clients keep their
    /// hot workers. Returns the new expiry instant.
    pub fn extend_lease(&self, extension: SimDuration) -> Result<SimTime> {
        let (lease_id, executor) = {
            let active = self.active.lock();
            let active = active.as_ref().ok_or(RFaasError::NotAllocated)?;
            (active.lease.id, Arc::clone(&active.executor))
        };
        // Submitting the renewal request costs the same as submitting an
        // allocation; the manager then charges its processing cost.
        self.clock.advance(self.config.allocation_submit_cost);
        let renewed = self.manager.renew_lease(lease_id, extension, &self.clock)?;
        if executor
            .allocator()
            .extend_lease(lease_id, renewed.expires_at)
            == 0
        {
            // The executor process is already gone (reaped or its node
            // failed under us): the manager-side renewal succeeded but there is no
            // worker left to keep hot. Surface it so the caller re-allocates
            // instead of invoking into a dead connection.
            return Err(RFaasError::ExecutorLost(renewed.executor_node));
        }
        if let Some(active) = self.active.lock().as_mut() {
            if active.lease.id == lease_id {
                active.lease = renewed.clone();
            }
        }
        Ok(renewed.expires_at)
    }

    /// Release the lease and all executor resources.
    pub fn close(self) -> Result<()> {
        self.deallocate();
        Ok(())
    }
}

/// Unified runtime counters of one [`Session`] (see [`Session::stats`]).
///
/// Marked `#[non_exhaustive]`: new planes will add fields here instead of
/// adding accessors on the session, so construct it only through
/// [`Session::stats`] and keep a `..` pattern when destructuring.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SessionStats {
    /// Connection-plane counters: physical connects, pool hits/misses and
    /// the executor's shared-receive-queue depth high watermark.
    pub connections: ConnectionPlaneStats,
    /// Fault state of a fork-provisioned sandbox (`None` otherwise).
    pub fork: Option<Arc<ForkFaultState>>,
    /// Session-side state-cache counters (`None` without a state plane).
    pub state_session: Option<StateClientStats>,
    /// Executor-side state-cache counters (`None` without a state plane or
    /// an active allocation).
    pub state_executor: Option<StateClientStats>,
    /// Connected executor workers.
    pub workers: usize,
    /// Transparent re-allocations after lease expiry or executor loss.
    pub recoveries: u32,
}

/// The session's window onto its attached state plane: zero-copy reads out
/// of the pre-registered cache, push-model writes, and typed in-place views
/// through a [`Codec`].
#[derive(Clone, Copy)]
pub struct SessionState<'s> {
    session: &'s Session,
}

impl std::fmt::Debug for SessionState<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionState")
            .field("attached", &self.is_attached())
            .finish()
    }
}

impl SessionState<'_> {
    /// Whether a state plane is attached to the session.
    fn is_attached(&self) -> bool {
        self.session.state_plane.is_some()
    }

    /// Run `f` over the session's state client, surfacing the missing-plane
    /// case as a typed error.
    fn with_client<R>(
        &self,
        f: impl FnOnce(&mut StateClient) -> std::result::Result<R, StateError>,
    ) -> Result<R> {
        match self.session.session_state.lock().as_mut() {
            Some(client) => f(client).map_err(RFaasError::StatePlane),
            None => Err(no_state_plane()),
        }
    }

    /// Whether `key` currently exists in the plane (false when no plane is
    /// attached).
    pub fn contains(&self, key: &str) -> bool {
        self.session
            .state_plane
            .as_ref()
            .is_some_and(|p| p.contains(key))
    }

    /// Store `value` under `key` (push-model RDMA write; the session's own
    /// cache is write-through, so a following `get` is a local hit).
    pub fn put(&self, key: &str, value: &[u8]) -> Result<()> {
        self.with_client(|c| c.put(key, value))
    }

    /// Read `key` into an owned vector (hot keys come straight out of the
    /// local cache; cold keys pay one one-sided RDMA read).
    pub fn get(&self, key: &str) -> Result<Vec<u8>> {
        self.with_client(|c| c.get(key))
    }

    /// Read `key` and decode it *in place* through `C`'s
    /// [`Codec::decode_view`]: `f` runs over a typed view borrowing the
    /// cached bytes where they lie — no staging copy leaves the
    /// pre-registered cache region.
    pub fn view<C, R>(&self, key: &str, f: impl FnOnce(C::View<'_>) -> R) -> Result<R>
    where
        C: Codec + ?Sized,
    {
        self.with_client(|c| c.get_with(key, |bytes| C::decode_view(bytes).map(f)))?
    }

    /// Delete `key`; returns whether it existed.
    pub fn delete(&self, key: &str) -> Result<bool> {
        self.with_client(|c| c.delete(key))
    }

    /// Session-side cache counters (`None` before the first allocation).
    pub fn stats(&self) -> Option<StateClientStats> {
        self.session
            .session_state
            .lock()
            .as_ref()
            .map(|c| c.stats())
    }
}

/// The error of a state operation on a session without a state plane.
fn no_state_plane() -> RFaasError {
    RFaasError::StatePlane(StateError::Protocol(
        "no state plane is attached to this session".into(),
    ))
}

/// Zero-sized marker tying a handle to its input/output codec types without
/// imposing `Send`/`Sync` or ownership semantics on either.
type HandleTypes<I, O> = PhantomData<(fn(&I), fn() -> O)>;

/// A typed handle on one deployed function: payload sizing, buffer pooling
/// and submission all derive from the input/output [`Codec`]s.
pub struct FunctionHandle<'s, I: ?Sized, O: ?Sized> {
    session: &'s Session,
    /// Shared with every spec the handle builds, so a submission copies no
    /// string.
    name: Arc<str>,
    output_capacity: Option<usize>,
    _typed: HandleTypes<I, O>,
}

impl<I: ?Sized, O: ?Sized> std::fmt::Debug for FunctionHandle<'_, I, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunctionHandle")
            .field("function", &self.name)
            .finish()
    }
}

impl<I: ?Sized, O: ?Sized> Clone for FunctionHandle<'_, I, O> {
    fn clone(&self) -> Self {
        FunctionHandle {
            session: self.session,
            name: Arc::clone(&self.name),
            output_capacity: self.output_capacity,
            _typed: PhantomData,
        }
    }
}

impl<'s, I, O> FunctionHandle<'s, I, O>
where
    I: Codec + ?Sized,
    O: Codec + ?Sized,
{
    /// The function's deployed name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reserve result buffers of at least `bytes` for this handle's
    /// invocations. Without this, the result capacity defaults to the encoded
    /// input length (floored at a small page) — right for echo-shaped
    /// functions, too small for functions whose output outgrows their input.
    pub fn with_output_capacity(mut self, bytes: usize) -> Self {
        self.output_capacity = Some(bytes);
        self
    }

    /// Declare the state-plane keys this handle's invocations touch and how
    /// ([`StateKey::read`] / [`StateKey::read_write`]). Validated here, at
    /// bind time: the session must have a plane attached and every declared
    /// key must exist, so a typo'd key fails the bind instead of the Nth
    /// invocation. The executor materialises exactly the declared set before
    /// dispatch and writes dirty read-write keys back after completion; any
    /// access outside the declaration fails the invocation.
    pub fn with_state(self, keys: impl IntoIterator<Item = StateKey>) -> Result<Self> {
        let state = self.session.state();
        if !state.is_attached() {
            return Err(no_state_plane());
        }
        let spec = StateSpec::new(keys);
        for key in spec.keys() {
            if !state.contains(&key.name) {
                return Err(RFaasError::StatePlane(StateError::UnknownKey(
                    key.name.clone(),
                )));
            }
        }
        self.session.bind_state_spec(&self.name, spec)?;
        Ok(self)
    }

    /// Build the invocation spec for `input`: size the buffers from the
    /// codec, draw them from the session pool, and encode the payload.
    fn spec_for(&self, worker: Option<usize>, input: &I) -> Result<InvocationSpec> {
        let payload_len = input.encoded_len();
        let output_capacity = self
            .output_capacity
            .unwrap_or_else(|| payload_len.max(MIN_OUTPUT_CAPACITY));
        let (input_buffer, output_buffer) =
            self.session.buffers.acquire(payload_len, output_capacity);
        input_buffer.write_encoded(input)?;
        Ok(InvocationSpec {
            worker,
            function: Arc::clone(&self.name),
            input: input_buffer,
            payload_len,
            output: output_buffer,
        })
    }

    /// Submit asynchronously; the returned future resolves to the decoded
    /// result. Dropping the future without waiting abandons the invocation.
    pub fn submit(&self, input: &I) -> Result<TypedFuture<'s, O>> {
        self.submit_on(None, input)
    }

    /// Submit asynchronously to a specific worker (explicit partitioning).
    pub fn submit_to_worker(&self, worker: usize, input: &I) -> Result<TypedFuture<'s, O>> {
        self.submit_on(Some(worker), input)
    }

    fn submit_on(&self, worker: Option<usize>, input: &I) -> Result<TypedFuture<'s, O>> {
        let spec = self.spec_for(worker, input)?;
        Ok(TypedFuture {
            future: self.session.submit(&spec)?,
            _typed: PhantomData,
        })
    }

    /// Invoke synchronously and decode the result.
    pub fn invoke(&self, input: &I) -> Result<O::Owned> {
        self.submit(input)?.wait()
    }

    /// Invoke synchronously, returning the decoded result and the
    /// client-observed round-trip time.
    pub fn invoke_timed(&self, input: &I) -> Result<(O::Owned, SimDuration)> {
        let start = self.session.clock().now();
        let value = self.invoke(input)?;
        Ok((value, self.session.clock().now().saturating_since(start)))
    }

    /// Scatter one invocation per input across the session's workers (input
    /// `i` goes to worker `i mod worker_count`), posting each wave of up to
    /// `worker_count` submissions behind one shared doorbell: the wave's
    /// first WQE pays the full issue cost, the rest ride the chained-WQE
    /// path of [`rdma_fabric::QueuePair::post_send_batch`]. Returns a
    /// [`CompletionSet`] for gathering the results.
    ///
    /// Waves exist because each worker exposes a single registered input
    /// slot (one in-flight invocation per worker, as in the paper's
    /// protocol): a second write to the same worker before the first is
    /// consumed would clobber its header and payload. With more inputs than
    /// workers, the completion set posts the next wave as the previous one
    /// is gathered — callers still see one scatter and one result vector.
    /// Payloads are encoded into registered buffers for the whole scatter up
    /// front (peak registration scales with the input count, bounded by the
    /// session pool's recycling); keep individual scatters to what the
    /// client can afford to register at once.
    pub fn map_workers<'i, It>(&self, inputs: It) -> Result<CompletionSet<'s, O>>
    where
        It: IntoIterator<Item = &'i I>,
        I: 'i,
    {
        let workers = self.session.worker_count();
        if workers == 0 {
            return Err(RFaasError::NotAllocated);
        }
        let mut queued = VecDeque::new();
        for (index, input) in inputs.into_iter().enumerate() {
            queued.push_back((index, self.spec_for(Some(index % workers), input)?));
        }
        let mut set = CompletionSet {
            entries: (0..queued.len()).map(|_| None).collect(),
            queued,
            wave: workers,
            session: self.session,
            stats: BatchStats::default(),
            ready: Arc::new(OrderedMutex::new(ranks::REACTOR_READY, VecDeque::new())),
        };
        set.submit_next_wave()?;
        Ok(set)
    }
}

/// The in-flight result of one typed submission; waiting decodes the output
/// through `O`'s [`Codec`] and recycles the invocation's buffers into the
/// session pool. Rejected invocations are transparently redirected to another
/// worker, and lost or expired leases transparently re-allocated. Dropping
/// the future without waiting abandons the invocation: its result is
/// discarded on arrival.
pub struct TypedFuture<'s, O: ?Sized> {
    future: InvocationFuture<'s>,
    _typed: PhantomData<fn() -> O>,
}

impl<O: ?Sized> std::fmt::Debug for TypedFuture<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.future.fmt(f)
    }
}

impl<O> TypedFuture<'_, O>
where
    O: Codec + ?Sized,
{
    /// The invocation identifier carried in the immediate value.
    pub fn id(&self) -> u32 {
        self.future.id()
    }

    /// Number of transparent lease re-allocations this invocation consumed
    /// so far.
    pub fn recoveries(&self) -> u32 {
        self.future.recoveries()
    }

    /// Non-blocking completion probe: one reactor turn pumps every
    /// connection, then this invocation's result is checked. A `true` result
    /// makes the next [`TypedFuture::wait`] return without further polling
    /// (modulo transparent redirections).
    pub fn is_complete(&self) -> bool {
        self.future.is_complete()
    }

    /// Block until the result is available, decode it, and return the
    /// invocation's buffers to the session pool.
    pub fn wait(self) -> Result<O::Owned> {
        let session = self.future.session();
        let buffers = self.future.buffers();
        let len = self.future.wait()?;
        let value = buffers.1.read_decoded::<O>(len)?;
        session.buffers.release(buffers);
        Ok(value)
    }
}

/// A set of in-flight typed invocations submitted as doorbell-batched waves
/// ([`FunctionHandle::map_workers`]).
///
/// Results are gathered with [`CompletionSet::wait_all`] (submission order)
/// or drained one at a time with [`CompletionSet::wait_any`]. When the
/// scatter holds more inputs than workers, only one wave (one invocation
/// per worker) is in flight at a time — each worker has a single input
/// slot — and the next wave posts automatically once the current one has
/// been fully gathered. Dropping the set abandons whatever is in flight.
pub struct CompletionSet<'s, O: ?Sized> {
    /// One slot per input; `Some` while that invocation is in flight,
    /// `None` before its wave posts and after its result is gathered.
    entries: Vec<Option<TypedFuture<'s, O>>>,
    /// Not-yet-posted (index, spec) pairs, in submission order.
    queued: VecDeque<(usize, InvocationSpec)>,
    /// Submissions per wave (= the session's worker count at scatter time).
    wave: usize,
    session: &'s Session,
    stats: BatchStats,
    /// Entry indices whose results the reactor has dispatched, in completion
    /// order. `wait_any` pops this queue instead of rescanning every entry —
    /// the old rescan made gathering an n-entry scatter quadratic. Indices
    /// are hints: a duplicate (from the post-registration stash re-check) is
    /// skipped because its entry slot is already `None`.
    ready: Arc<OrderedMutex<VecDeque<usize>>>,
}

impl<O: ?Sized> std::fmt::Debug for CompletionSet<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionSet")
            .field("pending", &self.pending())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<O: ?Sized> CompletionSet<'_, O> {
    /// Number of invocations not yet gathered (in flight or queued for a
    /// later wave).
    pub fn pending(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count() + self.queued.len()
    }

    /// Whether every invocation has been gathered.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Doorbell accounting across every wave posted so far: how many WQEs
    /// shared how many doorbells, and what the posting bursts cost on the
    /// client clock. A scatter of one invocation per worker is a single
    /// wave and therefore a single doorbell.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Post the next wave of queued specs (one per worker at most) behind a
    /// shared doorbell. No-op while the current wave still has in-flight
    /// entries — a worker's single input slot must be free before the next
    /// write to it.
    fn submit_next_wave(&mut self) -> Result<()> {
        if self.queued.is_empty() || self.entries.iter().any(|e| e.is_some()) {
            return Ok(());
        }
        let take = self.wave.min(self.queued.len());
        let (indices, specs): (Vec<usize>, Vec<InvocationSpec>) = self.queued.drain(..take).unzip();
        let (futures, stats) = self.session.submit_specs(&specs)?;
        for (index, future) in indices.into_iter().zip(futures) {
            // Arm the continuation, then re-check the stash: a concurrent
            // reactor turn may have pumped this result before the
            // continuation existed, in which case the ready push happens
            // here (a duplicate hint is harmless, a missing one would hang).
            let (token, id) = future.reactor_key();
            self.session
                .reactor
                .register_continuation(token, id, &self.ready, index);
            if future.has_stashed_result() {
                self.ready.lock().push_back(index);
            }
            self.entries[index] = Some(TypedFuture {
                future,
                _typed: PhantomData,
            });
        }
        self.stats.submissions += stats.submissions;
        self.stats.doorbells += stats.doorbells;
        self.stats.chained_wqes += stats.chained_wqes;
        self.stats.post_time += stats.post_time;
        Ok(())
    }
}

impl<O: ?Sized> Drop for CompletionSet<'_, O> {
    fn drop(&mut self) {
        // Continuations of never-gathered entries must not outlive the set:
        // their ready queue dies with it, and the 24-bit invocation ids
        // eventually wrap around onto fresh submissions. The entries
        // themselves abandon their invocations as they drop.
        for entry in self.entries.iter().flatten() {
            let (token, id) = entry.future.reactor_key();
            self.session.reactor.cancel_continuation(token, id);
        }
    }
}

impl<'s, O> CompletionSet<'s, O>
where
    O: Codec + ?Sized,
{
    /// Disarm the entry's continuation (its hint either fired already or is
    /// now moot) and gather its result.
    fn gather(&self, future: TypedFuture<'s, O>) -> Result<O::Owned> {
        let (token, id) = future.future.reactor_key();
        self.session.reactor.cancel_continuation(token, id);
        future.wait()
    }

    /// Wait for the next available result, in completion order: the reactor
    /// dispatches each finished invocation's index onto the set's ready
    /// queue, so a gather is O(1) instead of a rescan of every entry (the
    /// old rescan made draining an n-entry scatter quadratic). If nothing is
    /// ready the reactor is driven until something completes. Once a wave is
    /// fully gathered the next queued wave posts. Returns the submission
    /// index with the decoded result, or `None` once everything has been
    /// gathered.
    pub fn wait_any(&mut self) -> Result<Option<(usize, O::Owned)>> {
        self.submit_next_wave()?;
        loop {
            // Completions the reactor already dispatched, oldest first.
            let hint = self.ready.lock().pop_front();
            if let Some(index) = hint {
                if let Some(future) = self.entries[index].take() {
                    return Ok(Some((index, self.gather(future)?)));
                }
                // Stale duplicate hint for an already-gathered entry.
                continue;
            }
            if self.entries.iter().all(|e| e.is_none()) {
                return Ok(None);
            }
            // Nothing dispatched yet: drive the shared event loop. An empty
            // sweep can also mean a connection died (its continuation will
            // never fire) — fall back to a blocking gather on the first such
            // entry, whose wait() runs the transparent recovery path.
            if self.session.reactor.turn() == 0 {
                let lost = (0..self.entries.len()).find(|&i| {
                    self.entries[i]
                        .as_ref()
                        .is_some_and(|f| f.future.connection_lost())
                });
                if let Some(index) = lost {
                    let future = self.entries[index].take().expect("checked is_some");
                    return Ok(Some((index, self.gather(future)?)));
                }
                std::hint::spin_loop();
                std::thread::yield_now();
            }
        }
    }

    /// Wait for every still-pending result, returned in submission order
    /// (results already gathered through [`CompletionSet::wait_any`] are not
    /// repeated).
    pub fn wait_all(mut self) -> Result<Vec<O::Owned>> {
        let mut slots: Vec<Option<O::Owned>> = (0..self.entries.len()).map(|_| None).collect();
        while let Some((index, value)) = self.wait_any()? {
            slots[index] = Some(value);
        }
        Ok(slots.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SpotExecutor;
    use cluster_sim::NodeResources;
    use sandbox::{echo_function, failing_function, CodePackage, FunctionRegistry};

    fn platform(cores: u32) -> (Arc<Fabric>, Arc<ResourceManager>, Session) {
        let fabric = Fabric::with_defaults();
        let registry = FunctionRegistry::new();
        registry.deploy(
            CodePackage::minimal("pkg")
                .with_function(echo_function())
                .with_function(failing_function("intentional")),
        );
        let manager = ResourceManager::new(&fabric, RFaasConfig::default());
        let executor = SpotExecutor::new(
            &fabric,
            "exec-0",
            NodeResources {
                cores: 36,
                memory_mib: 128 * 1024,
            },
            registry,
            RFaasConfig::default(),
        );
        manager.register_executor(&executor);
        let session = Session::builder(&fabric, "client-0", &manager, "pkg")
            .workers(cores)
            .connect()
            .unwrap();
        (fabric, manager, session)
    }

    #[test]
    fn typed_invoke_round_trips_bytes_and_f64() {
        let (_f, _m, session) = platform(1);
        let echo_bytes = session.function::<[u8], [u8]>("echo").unwrap();
        assert_eq!(echo_bytes.invoke(&[1u8, 2, 3][..]).unwrap(), vec![1, 2, 3]);

        let echo_f64 = session.function::<[f64], [f64]>("echo").unwrap();
        let values = [1.5f64, -2.25, 4.0];
        let (reply, rtt) = echo_f64.invoke_timed(&values[..]).unwrap();
        assert_eq!(reply, values.to_vec());
        assert!(rtt.as_micros_f64() > 0.0);
    }

    #[test]
    fn unknown_functions_fail_at_handle_creation() {
        let (_f, _m, session) = platform(1);
        assert!(matches!(
            session.function::<[u8], [u8]>("nope"),
            Err(RFaasError::UnknownFunction(_))
        ));
        assert!(session.function::<[u8], [u8]>("echo").is_ok());
    }

    #[test]
    fn map_workers_batches_behind_one_doorbell_and_preserves_order() {
        let (_f, _m, session) = platform(4);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let inputs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 256]).collect();
        let set = echo
            .map_workers(inputs.iter().map(|v| v.as_slice()))
            .unwrap();
        let stats = set.stats();
        assert_eq!(stats.submissions, 4);
        assert_eq!(stats.doorbells, 1);
        assert_eq!(stats.chained_wqes, 3);
        assert_eq!(set.pending(), 4);
        let results = set.wait_all().unwrap();
        assert_eq!(results, inputs);
    }

    #[test]
    fn batched_submission_posts_cheaper_than_sequential() {
        // The whole point of the shared doorbell: N scatter submissions cost
        // the client clock less than N individually posted submissions.
        let (_f, _m, session) = platform(8);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let inputs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 2048]).collect();
        // Warm the buffer pool so both measurements reuse registered memory.
        echo.map_workers(inputs.iter().map(|v| v.as_slice()))
            .unwrap()
            .wait_all()
            .unwrap();

        let set = echo
            .map_workers(inputs.iter().map(|v| v.as_slice()))
            .unwrap();
        let batched = set.stats().post_time;
        set.wait_all().unwrap();

        let start = session.clock().now();
        let futures: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(w, v)| echo.submit_to_worker(w, v.as_slice()).unwrap())
            .collect();
        let sequential = session.clock().now().saturating_since(start);
        for f in futures {
            f.wait().unwrap();
        }
        assert!(
            batched < sequential,
            "batched posting {batched} must beat sequential posting {sequential}"
        );
    }

    #[test]
    fn map_workers_accepts_more_inputs_than_workers() {
        // 64 inputs on 4 workers: each worker has ONE input slot, so the
        // scatter proceeds in 16 waves of 4, each wave behind one doorbell,
        // and every input must come back intact and in submission order
        // (regression: a single 64-wide burst used to clobber the workers'
        // input slots, returning the last payload — or nothing — for all
        // but the final wave).
        let (_f, _m, session) = platform(4);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let inputs: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 32]).collect();
        let set = echo
            .map_workers(inputs.iter().map(|v| v.as_slice()))
            .unwrap();
        // Only the first wave has posted so far.
        assert_eq!(set.stats().submissions, 4);
        assert_eq!(set.stats().doorbells, 1);
        assert_eq!(set.pending(), 64);
        let results = set.wait_all().unwrap();
        assert_eq!(results, inputs);
    }

    #[test]
    fn wait_any_crosses_wave_boundaries() {
        let (_f, _m, session) = platform(2);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let inputs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i + 1; 16]).collect();
        let mut set = echo
            .map_workers(inputs.iter().map(|v| v.as_slice()))
            .unwrap();
        let mut seen = [false; 6];
        while let Some((index, value)) = set.wait_any().unwrap() {
            assert!(!seen[index]);
            seen[index] = true;
            assert_eq!(value, inputs[index]);
        }
        assert!(seen.iter().all(|&s| s));
        // 3 waves of 2 → 3 doorbells, 6 submissions total.
        assert_eq!(set.stats().submissions, 6);
        assert_eq!(set.stats().doorbells, 3);
        assert_eq!(set.stats().chained_wqes, 3);
    }

    #[test]
    fn wait_any_drains_the_set_exactly_once_per_entry() {
        let (_f, _m, session) = platform(3);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let inputs: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i + 1; 64]).collect();
        let mut set = echo
            .map_workers(inputs.iter().map(|v| v.as_slice()))
            .unwrap();
        let mut seen = [false; 3];
        while let Some((index, value)) = set.wait_any().unwrap() {
            assert!(!seen[index], "index {index} returned twice");
            seen[index] = true;
            assert_eq!(value, inputs[index]);
        }
        assert!(seen.iter().all(|&s| s));
        assert!(set.is_empty());
    }

    #[test]
    fn output_capacity_override_allows_results_larger_than_the_input() {
        let (_f, _m, session) = platform(1);
        // Default capacity = max(input len, one page); echo fits trivially,
        // so exercise the override path and the handle clone.
        let echo = session
            .function::<[u8], [u8]>("echo")
            .unwrap()
            .with_output_capacity(1 << 20);
        let big = vec![7u8; 512 * 1024];
        assert_eq!(echo.invoke(&big[..]).unwrap(), big);
        let cloned = echo.clone();
        assert_eq!(cloned.name(), "echo");
    }

    #[test]
    fn typed_futures_recover_from_lease_expiry() {
        let (_f, _m, session) = platform(1);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        echo.invoke(&[9u8; 16][..]).unwrap();
        assert_eq!(session.recoveries(), 0);
        // Jump past the lease expiry: the executor refuses with LeaseExpired
        // and the typed future transparently replays on a fresh lease.
        session.clock().advance(SimDuration::from_secs(3600));
        assert_eq!(echo.invoke(&[9u8; 16][..]).unwrap(), vec![9u8; 16]);
        assert_eq!(session.recoveries(), 1);
    }

    #[test]
    fn exhausted_recovery_budget_surfaces_the_original_error() {
        // The only executor leaves the manager, so every transparent
        // re-allocation is denied: once the default budget is spent, the
        // lease expiry that triggered recovery surfaces, for a single
        // invocation and for a scatter alike.
        let (fabric, manager, single) = platform(1);
        let scatter = Session::builder(&fabric, "client-1", &manager, "pkg")
            .connect()
            .unwrap();
        manager.deregister_executor("exec-0");
        for session in [&single, &scatter] {
            session.clock().advance(SimDuration::from_secs(3600));
        }

        let lease = single.lease().unwrap();
        let echo = single.function::<[u8], [u8]>("echo").unwrap();
        assert!(matches!(
            echo.invoke(&[1u8; 8][..]),
            Err(RFaasError::LeaseExpired(id)) if id == lease.id
        ));
        assert_eq!(single.recoveries(), 0);

        let lease = scatter.lease().unwrap();
        let echo = scatter.function::<[u8], [u8]>("echo").unwrap();
        let inputs = [[2u8; 8], [3u8; 8]];
        let gathered = echo
            .map_workers(inputs.iter().map(|v| &v[..]))
            .unwrap()
            .wait_all();
        assert!(matches!(
            gathered,
            Err(RFaasError::LeaseExpired(id)) if id == lease.id
        ));
        assert_eq!(scatter.recoveries(), 0);
    }

    #[test]
    fn builder_knobs_shape_the_lease() {
        let fabric = Fabric::with_defaults();
        let registry = FunctionRegistry::new();
        registry.deploy(CodePackage::minimal("pkg").with_function(echo_function()));
        let manager = ResourceManager::new(&fabric, RFaasConfig::default());
        let executor = SpotExecutor::new(
            &fabric,
            "exec-0",
            NodeResources {
                cores: 36,
                memory_mib: 128 * 1024,
            },
            registry,
            RFaasConfig::default(),
        );
        manager.register_executor(&executor);
        let start = SimTime::from_secs(42);
        let session = Session::builder(&fabric, "c", &manager, "pkg")
            .workers(2)
            .memory_mib(2048)
            .lease_timeout(SimDuration::from_secs(120))
            .starting_at(start)
            .connect()
            .unwrap();
        assert_eq!(session.worker_count(), 2);
        let lease = session.lease().unwrap();
        assert_eq!(lease.cores, 2);
        assert_eq!(lease.memory_mib, 2048);
        assert!(session.clock().now() >= start);
        assert!(session.cold_start().is_some());
        session.close().unwrap();
        assert_eq!(manager.lease_count(), 0);
    }

    #[test]
    fn shared_connection_pool_warms_reallocation_to_the_same_executor() {
        let fabric = Fabric::with_defaults();
        let registry = FunctionRegistry::new();
        registry.deploy(CodePackage::minimal("pkg").with_function(echo_function()));
        let manager = ResourceManager::new(&fabric, RFaasConfig::default());
        let executor = SpotExecutor::new(
            &fabric,
            "exec-0",
            NodeResources {
                cores: 36,
                memory_mib: 128 * 1024,
            },
            registry,
            RFaasConfig::default(),
        );
        manager.register_executor(&executor);

        let pool = ConnectionPool::new();
        let first = Session::builder(&fabric, "c", &manager, "pkg")
            .workers(2)
            .connection_pool(&pool)
            .connect()
            .unwrap();
        let stats = first.stats().connections;
        assert_eq!(stats.connections_opened, 2);
        assert_eq!(stats.pool_hits, 0);
        assert_eq!(stats.pool_misses, 2);
        assert!(stats.srq_depth_high_watermark <= 1, "no invocations yet");
        first.close().unwrap();
        // Teardown returned both connections' warmth to the pool.
        assert_eq!(pool.idle_for("exec-0"), 2);

        // A new session on the same pool re-connects warm.
        let second = Session::builder(&fabric, "c", &manager, "pkg")
            .workers(2)
            .connection_pool(&pool)
            .config(RFaasConfig {
                connect_timeout: std::time::Duration::from_secs(2),
                ..RFaasConfig::default()
            })
            .connect()
            .unwrap();
        let stats = second.stats().connections;
        assert_eq!(stats.connections_opened, 2);
        // Pool counters are cumulative across the sessions sharing it: the
        // first session's two misses plus the second session's two hits.
        assert_eq!(stats.pool_hits, 2);
        assert_eq!(stats.pool_misses, 2);
        let echo = second.function::<[u8], [u8]>("echo").unwrap();
        assert_eq!(echo.invoke(&[5u8; 8][..]).unwrap(), vec![5u8; 8]);
        assert!(second.stats().connections.srq_depth_high_watermark >= 1);
        second.close().unwrap();
    }

    #[test]
    fn pooled_buffers_are_reused_across_invocations() {
        let (_f, _m, session) = platform(1);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        echo.invoke(&[1u8; 100][..]).unwrap();
        assert_eq!(session.buffers.free.lock().len(), 1);
        // Same-size invocation reuses the pooled pair instead of growing it.
        echo.invoke(&[2u8; 100][..]).unwrap();
        assert_eq!(session.buffers.free.lock().len(), 1);
        // A larger invocation allocates a second pair.
        echo.invoke(&vec![3u8; 100_000][..]).unwrap();
        assert_eq!(session.buffers.free.lock().len(), 2);
    }

    #[test]
    fn ascending_payload_waves_keep_registrations_bounded() {
        // Regression: a full pool used to drop released pairs without
        // deregistering them and never traded a small pair for a larger one,
        // so every wave of a larger payload registered fresh memory for good.
        let (_f, _m, session) = platform(4);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let pd = &session.buffers.allocator.pd;
        let baseline = pd.region_count();
        const IN_FLIGHT: usize = 8;
        for wave in 0..40 {
            let inputs: Vec<Vec<u8>> = (0..IN_FLIGHT)
                .map(|i| vec![i as u8; 4096 + 1024 * wave])
                .collect();
            let results = echo
                .map_workers(inputs.iter().map(|v| v.as_slice()))
                .unwrap()
                .wait_all()
                .unwrap();
            assert_eq!(results, inputs);
            // Two regions per pair: the pooled pairs plus one scatter's worth.
            let bound = baseline + 2 * (MAX_POOLED_PAIRS + IN_FLIGHT);
            assert!(
                pd.region_count() <= bound,
                "wave {wave}: {} regions registered, bound {bound}",
                pd.region_count()
            );
        }
        assert_eq!(session.buffers.free.lock().len(), MAX_POOLED_PAIRS);
    }

    #[test]
    fn worker_counters_are_exact_as_soon_as_wait_returns() {
        // Regression: the executor bumped `invocations`/`failed` only after
        // posting the result, so a read right after `wait` could miss one.
        let (_f, manager, session) = platform(1);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        let fails = session.function::<[u8], [u8]>("always-fails").unwrap();
        let process = manager
            .executor("exec-0")
            .unwrap()
            .allocator()
            .processes()
            .pop()
            .unwrap();
        let (mut served, mut failed) = (0, 0);
        for i in 0..1000u32 {
            if i % 10 == 9 {
                assert!(fails.invoke(&[1u8; 8][..]).is_err());
                failed += 1;
            } else {
                echo.invoke(&i.to_le_bytes()[..]).unwrap();
                served += 1;
            }
            let stats = process.lock().stats();
            assert_eq!(
                (stats.invocations, stats.failed),
                (served, failed),
                "after wait {i}"
            );
        }
    }

    /// Platform with a state plane attached: the package carries a stateful
    /// counter plus two misbehaving functions used by the rejection tests.
    fn stateful_platform() -> (Arc<Fabric>, Arc<ResourceManager>, StatePlane, Session) {
        use sandbox::SharedFunction;
        let fabric = Fabric::with_defaults();
        let registry = FunctionRegistry::new();
        let counter = SharedFunction::from_stateful_fn("counter", |input, state, output| {
            let mut value = {
                let bytes = state.read("counter")?;
                if bytes.is_empty() {
                    0u64
                } else {
                    u64::from_le_bytes(bytes.try_into().map_err(|_| {
                        sandbox::FunctionError::StateAccess("counter is not 8 bytes".into())
                    })?)
                }
            };
            value += input.len() as u64;
            let slot = state.write("counter")?;
            slot.clear();
            slot.extend_from_slice(&value.to_le_bytes());
            output[..8].copy_from_slice(&value.to_le_bytes());
            Ok(8)
        });
        let rogue_writer = SharedFunction::from_stateful_fn("rogue-writer", |_in, state, _out| {
            state.write("model")?;
            Ok(0)
        });
        let ghost_reader = SharedFunction::from_stateful_fn("ghost-reader", |_in, state, _out| {
            state.read("ghost")?;
            Ok(0)
        });
        registry.deploy(
            CodePackage::minimal("pkg")
                .with_function(echo_function())
                .with_function(counter)
                .with_function(rogue_writer)
                .with_function(ghost_reader),
        );
        let manager = ResourceManager::new(&fabric, RFaasConfig::default());
        let executor = SpotExecutor::new(
            &fabric,
            "exec-0",
            NodeResources {
                cores: 36,
                memory_mib: 128 * 1024,
            },
            registry,
            RFaasConfig::default(),
        );
        manager.register_executor(&executor);
        let plane = StatePlane::new(&fabric, "state-0", 64 * 1024 * 1024);
        let session = Session::builder(&fabric, "client-0", &manager, "pkg")
            .state_plane(&plane)
            .connect()
            .unwrap();
        (fabric, manager, plane, session)
    }

    #[test]
    fn stateful_invocations_round_trip_through_the_plane() {
        let (_f, _m, _plane, session) = stateful_platform();
        session.state().put("counter", &0u64.to_le_bytes()).unwrap();
        let counter = session
            .function::<[u8], [u8]>("counter")
            .unwrap()
            .with_state([StateKey::read_write("counter")])
            .unwrap();

        // Each invocation reads the running total from the plane, adds the
        // payload length, and writes the new total back.
        let reply = counter.invoke(&[0u8; 5][..]).unwrap();
        assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), 5);
        let reply = counter.invoke(&[0u8; 3][..]).unwrap();
        assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), 8);

        // The committed total is visible from the session side, and both the
        // session-side and executor-side clients show up in unified stats.
        let total = session.state().get("counter").unwrap();
        assert_eq!(u64::from_le_bytes(total.try_into().unwrap()), 8);
        let stats = session.stats();
        assert_eq!(stats.state_session.unwrap().puts, 1);
        let exec = stats.state_executor.unwrap();
        assert_eq!(exec.puts, 2, "one write-back per invocation");
        assert_eq!(exec.gets, 2, "one materialisation per invocation");
        session.close().unwrap();
    }

    #[test]
    fn with_state_requires_a_plane_and_known_keys() {
        // No plane attached to the session: declaring state is rejected.
        let (_f, _m, session) = platform(1);
        let err = session
            .function::<[u8], [u8]>("echo")
            .unwrap()
            .with_state([StateKey::read("counter")])
            .unwrap_err();
        assert!(matches!(
            err,
            RFaasError::StatePlane(StateError::Protocol(_))
        ));

        // Plane attached but the key was never put: rejected at bind time.
        let (_f2, _m2, _plane, stateful) = stateful_platform();
        let err = stateful
            .function::<[u8], [u8]>("counter")
            .unwrap()
            .with_state([StateKey::read_write("missing")])
            .unwrap_err();
        assert!(matches!(
            err,
            RFaasError::StatePlane(StateError::UnknownKey(ref k)) if k == "missing"
        ));
    }

    #[test]
    fn session_state_views_decode_in_place_and_reject_malformed_values() {
        let (_f, _m, _plane, session) = stateful_platform();
        let weights = [0.5f64, -1.25, 3.0];
        let bytes: Vec<u8> = weights.iter().flat_map(|w| w.to_le_bytes()).collect();
        session.state().put("weights", &bytes).unwrap();

        // The typed view decodes straight over the client's cached bytes.
        let sum = session
            .state()
            .view::<[f64], _>("weights", |v| {
                (0..v.len()).map(|i| v.get(i).unwrap()).sum::<f64>()
            })
            .unwrap();
        assert_eq!(sum, 2.25);

        // A value whose shape violates the codec is rejected by the view...
        session.state().put("weights", &[1u8, 2, 3]).unwrap();
        assert!(matches!(
            session.state().view::<[f64], _>("weights", |v| v.len()),
            Err(RFaasError::Codec(_))
        ));
        // ...and a missing key surfaces the state plane's error untouched.
        assert!(matches!(
            session.state().view::<[f64], _>("absent", |v| v.len()),
            Err(RFaasError::StatePlane(StateError::UnknownKey(_)))
        ));
    }

    #[test]
    fn state_misuse_fails_the_invocation() {
        let (_f, _m, _plane, session) = stateful_platform();
        session.state().put("model", &[1u8; 16]).unwrap();

        // Writing through a read-only declaration fails the invocation.
        let rogue = session
            .function::<[u8], [u8]>("rogue-writer")
            .unwrap()
            .with_state([StateKey::read("model")])
            .unwrap();
        assert!(matches!(
            rogue.invoke(&[0u8; 1][..]).unwrap_err(),
            RFaasError::Function(_)
        ));

        // Touching a key that was never declared fails the invocation.
        let ghost = session
            .function::<[u8], [u8]>("ghost-reader")
            .unwrap()
            .with_state([StateKey::read("model")])
            .unwrap();
        assert!(matches!(
            ghost.invoke(&[0u8; 1][..]).unwrap_err(),
            RFaasError::Function(_)
        ));

        // A stateful function dispatched without any declaration also fails
        // (its keys were never bound, so every access is undeclared).
        let undeclared = session.function::<[u8], [u8]>("counter").unwrap();
        assert!(matches!(
            undeclared.invoke(&[0u8; 1][..]).unwrap_err(),
            RFaasError::Function(_)
        ));
    }
}
