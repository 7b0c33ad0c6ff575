//! The rFaaS client transport: RDMA buffers, worker connections and
//! invocation futures.
//!
//! This is the Rust equivalent of the paper's C++ programming model
//! (Sec. IV-B, Fig. 7, Listing 2). [`crate::Session`] plays the
//! `rfaas::invoker`: it acquires leases, connects directly to the executor
//! workers, and submits function invocations by writing the header and
//! payload straight into the workers' registered memory. Results land
//! directly in client-side [`Buffer`]s written remotely by the executor. The
//! session's public surface lives in [`crate::session`]; this module holds
//! its transport internals (allocation, worker connections, posting and
//! transparent recovery) as further `impl Session` blocks.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use rdma_fabric::{
    connect_pooled, AccessFlags, DatagramSocket, Endpoint, MemoryRegion, ProtectionDomain,
    QueuePair, ReceiveRing, RecvRequest, RemoteMemoryHandle, SendRequest, Sge,
};
use sandbox::CodePackage;
use sim_core::sync::{ranks, OrderedMutex};
use sim_core::SimDuration;
use state_plane::StateSpec;

use crate::codec::Codec;
use crate::config::PollingMode;
use crate::error::{RFaasError, Result};
use crate::executor::SpotExecutor;
use crate::protocol::{
    ControlFrame, ImmValue, InvocationHeader, Lease, LeaseRequest, ResultStatus,
    INVOCATION_HEADER_BYTES,
};
use crate::reactor::CompletionSource;
use crate::session::Session;

/// A registered, page-aligned client buffer.
///
/// Input buffers reserve space for the invocation header in front of the
/// payload, exactly like the paper's allocator ("automatically expanded with
/// the function's header"); output buffers are registered with remote-write
/// access so the executor can deposit results without client involvement.
#[derive(Debug, Clone)]
pub struct Buffer {
    region: MemoryRegion,
    header_space: usize,
}

impl Buffer {
    /// Bytes of payload the buffer can hold.
    pub fn capacity(&self) -> usize {
        self.region.len() - self.header_space
    }

    /// The underlying registered region (header space included).
    pub fn region(&self) -> &MemoryRegion {
        &self.region
    }

    /// Offset of the payload within the region.
    pub fn payload_offset(&self) -> usize {
        self.header_space
    }

    /// Copy `data` into the payload area. Returns the payload length.
    pub fn write_payload(&self, data: &[u8]) -> Result<usize> {
        if data.len() > self.capacity() {
            return Err(RFaasError::PayloadTooLarge {
                payload: data.len(),
                capacity: self.capacity(),
            });
        }
        self.region
            .write(self.header_space, data)
            .map_err(RFaasError::from)?;
        Ok(data.len())
    }

    /// Copy `len` payload bytes out of the buffer. A `len` beyond the
    /// buffer's payload capacity is rejected — silently clamping used to hand
    /// callers a short read they would misinterpret as the full result.
    pub fn read_payload(&self, len: usize) -> Result<Vec<u8>> {
        crate::codec::check_capacity(len, self.capacity())?;
        self.region
            .read(self.header_space, len)
            .map_err(RFaasError::from)
    }

    /// Encode `value` into the payload area through its [`Codec`], returning
    /// the payload length (the typed equivalent of [`Buffer::write_payload`]).
    pub fn write_encoded<C: Codec + ?Sized>(&self, value: &C) -> Result<usize> {
        let len = value.encoded_len();
        // Guards the slice below, not just the encode: encode_into checks
        // against the slice it receives, which must exist first.
        crate::codec::check_capacity(len, self.capacity())?;
        let start = self.header_space;
        self.region
            .with_bytes_mut(start, len, |bytes| value.encode_into(bytes))?
    }

    /// Decode `len` payload bytes through codec `C` (the typed equivalent of
    /// [`Buffer::read_payload`]), straight from the registered region.
    pub fn read_decoded<C: Codec + ?Sized>(&self, len: usize) -> Result<C::Owned> {
        crate::codec::check_capacity(len, self.capacity())?;
        let start = self.header_space;
        self.region.with_bytes(start, len, C::decode)?
    }

    /// Remote handle covering the payload area (what the executor writes to).
    pub fn remote_handle(&self) -> RemoteMemoryHandle {
        self.region
            .remote_handle_range(self.header_space, self.capacity())
            .expect("payload range within region")
    }
}

/// Allocates RDMA-registered buffers from the session's protection domain
/// (the `rfaas::allocator` of Listing 2).
#[derive(Debug, Clone)]
pub struct BufferAllocator {
    pub(crate) pd: ProtectionDomain,
}

impl BufferAllocator {
    /// Allocate an input buffer for payloads of up to `capacity` bytes; the
    /// header slot is added in front automatically.
    pub fn input(&self, capacity: usize) -> Buffer {
        Buffer {
            region: self
                .pd
                .register(INVOCATION_HEADER_BYTES + capacity, AccessFlags::LOCAL_ONLY),
            header_space: INVOCATION_HEADER_BYTES,
        }
    }

    /// Allocate an output buffer of `capacity` bytes the executor may write
    /// into remotely.
    pub fn output(&self, capacity: usize) -> Buffer {
        Buffer {
            region: self.pd.register(capacity, AccessFlags::REMOTE_WRITE),
            header_space: 0,
        }
    }
}

/// Breakdown of a cold start as observed by the client (Fig. 9's stacked
/// bars: connect to manager, submit allocation, spawn worker, submit code,
/// plus the direct worker connections).
#[derive(Debug, Clone, Default)]
pub struct ColdStartBreakdown {
    /// Establishing the connection to the resource manager.
    pub connect_to_manager: SimDuration,
    /// Submitting the allocation request and the manager's placement work.
    pub submit_allocation: SimDuration,
    /// Sandbox creation and worker-thread spawn on the executor node.
    pub spawn_workers: SimDuration,
    /// Transferring and loading the code package.
    pub submit_code: SimDuration,
    /// Establishing the direct RDMA connections to every worker.
    pub connect_to_workers: SimDuration,
}

impl ColdStartBreakdown {
    /// Total cold-start latency.
    pub fn total(&self) -> SimDuration {
        self.connect_to_manager
            + self.submit_allocation
            + self.spawn_workers
            + self.submit_code
            + self.connect_to_workers
    }
}

/// Connection-plane counters of one session: how many worker connections
/// were physically established, how the warmth pool performed, and how deep
/// the executor side reached into its shared receive queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectionPlaneStats {
    /// Worker RC connections established over the session's lifetime.
    pub connections_opened: u64,
    /// Connects that redeemed a pool warmth token (warm re-establishment).
    pub pool_hits: u64,
    /// Connects that paid the full first-contact handshake.
    pub pool_misses: u64,
    /// Highest concurrent buffer use of the active executor process's shared
    /// receive queue (0 when nothing is allocated).
    pub srq_depth_high_watermark: usize,
}

/// Results pumped off one connection's ring, keyed by invocation id, plus the
/// ids whose futures were dropped without a wait: their results are
/// discarded on arrival so the in-flight reservation comes back.
#[derive(Default)]
struct ResultStash {
    results: HashMap<u32, (usize, ResultStatus)>,
    abandoned: HashSet<u32>,
}

pub(crate) struct WorkerConnection {
    qp: QueuePair,
    remote_input: RemoteMemoryHandle,
    /// Pre-posted result-notification slots, re-posted automatically as
    /// results are picked up: submissions within the ring depth never pay a
    /// `post_recv` on the critical path.
    ring: ReceiveRing,
    /// Scratch for overflow receives posted when more invocations are in
    /// flight than the ring holds slots.
    overflow_scratch: MemoryRegion,
    outstanding: AtomicUsize,
    completed: OrderedMutex<ResultStash>,
    /// Token under which this connection is registered with the session's
    /// reactor (set right after registration, before any submission).
    reactor_token: AtomicU64,
    index: usize,
}

impl WorkerConnection {
    /// Whether a result for `invocation_id` is already stashed.
    fn has_result(&self, invocation_id: u32) -> bool {
        self.completed.lock().results.contains_key(&invocation_id)
    }

    /// Remove a stashed result, returning the in-flight reservation with it.
    fn take_result(&self, invocation_id: u32) -> Option<(usize, ResultStatus)> {
        let result = self.completed.lock().results.remove(&invocation_id)?;
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        Some(result)
    }

    /// Give up on `invocation_id`: a stashed result is discarded now, a
    /// pending one when it arrives; either way the reservation comes back.
    fn abandon(&self, invocation_id: u32) {
        let mut stash = self.completed.lock();
        if stash.results.remove(&invocation_id).is_some() {
            self.outstanding.fetch_sub(1, Ordering::Relaxed);
        } else {
            stash.abandoned.insert(invocation_id);
        }
    }

    fn token(&self) -> u64 {
        self.reactor_token.load(Ordering::Relaxed)
    }
}

impl CompletionSource for WorkerConnection {
    /// Drain the receive ring into the result stash, reporting each pumped
    /// invocation id. `ring.poll_one` charges the busy-poll pickup on the
    /// client clock per completion — the reactor sweep costs exactly what
    /// the old per-connection rescan did.
    fn pump(&self, sink: &mut dyn FnMut(u32)) {
        while let Some(completion) = self.ring.poll_one() {
            let wc = completion.wc;
            let (id, status) = ImmValue::parse_response(wc.imm.unwrap_or(0));
            let mut stash = self.completed.lock();
            // The emptiness check keeps the common case from hashing `id`.
            if !stash.abandoned.is_empty() && stash.abandoned.remove(&id) {
                self.outstanding.fetch_sub(1, Ordering::Relaxed);
            } else {
                stash.results.insert(id, (wc.byte_len, status));
            }
            drop(stash);
            sink(id);
        }
    }

    fn is_connected(&self) -> bool {
        self.qp.is_connected()
    }
}

/// Everything the session holds while a lease is active. Kept behind one
/// lock so the recovery path can atomically swap the whole allocation
/// (lease, executor, connections) from `&self` while invocation futures are
/// waiting.
pub(crate) struct ActiveAllocation {
    /// Monotonic counter distinguishing successive allocations: a future
    /// observing its allocation die only triggers a re-allocation if the
    /// active epoch still matches what it used — otherwise another future
    /// already recovered and it just resubmits on the fresh connections.
    epoch: u64,
    pub(crate) lease: Lease,
    pub(crate) executor: Arc<SpotExecutor>,
    pub(crate) process_id: u64,
    pub(crate) package: CodePackage,
    pub(crate) connections: Vec<Arc<WorkerConnection>>,
}

/// Maximum lease re-allocations one invocation attempts before surfacing the
/// failure (guards against a platform that keeps handing out instantly-dying
/// leases).
pub(crate) const DEFAULT_RECOVERY_BUDGET: u32 = 3;

/// Everything one invocation needs to be posted (and transparently
/// replayed): target worker, function name, payload location and length, and
/// the result buffer.
#[derive(Clone)]
pub(crate) struct InvocationSpec {
    pub(crate) worker: Option<usize>,
    pub(crate) function: Arc<str>,
    pub(crate) input: Buffer,
    pub(crate) payload_len: usize,
    pub(crate) output: Buffer,
}

/// Doorbell accounting of one batched submission
/// ([`crate::FunctionHandle::map_workers`]): all WQEs of the batch are built
/// back-to-back and ride one doorbell, so only the first pays the full issue
/// cost and the rest are billed at the chained-WQE rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Invocations submitted in the batch.
    pub submissions: usize,
    /// Doorbells rung (one per batch on the happy path).
    pub doorbells: usize,
    /// WQEs that joined an already-open chain instead of ringing their own
    /// doorbell.
    pub chained_wqes: usize,
    /// Client-side virtual time spent posting the whole batch.
    pub post_time: SimDuration,
}

impl Session {
    /// Register the declared key set of `function` with the active executor
    /// process (the executor side of [`crate::FunctionHandle::with_state`]).
    pub(crate) fn bind_state_spec(&self, function: &str, spec: StateSpec) -> Result<()> {
        let active = self.active.lock();
        let active = active.as_ref().ok_or(RFaasError::NotAllocated)?;
        active
            .executor
            .allocator()
            .bind_state_spec(active.process_id, function, spec)
    }

    /// Drive the reactor until `invocation_id`'s result lands on
    /// `connection`, then take it. Every wait path funnels through here: the
    /// turn pumps *all* registered connections, so one waiting thread keeps
    /// every other in-flight invocation moving too.
    fn await_result(
        &self,
        connection: &Arc<WorkerConnection>,
        invocation_id: u32,
    ) -> Result<(usize, ResultStatus)> {
        loop {
            if let Some(result) = connection.take_result(invocation_id) {
                return Ok(result);
            }
            let progressed = self.reactor.turn();
            if progressed == 0 {
                // Re-check after the empty sweep: a concurrent turner may
                // have stashed our result between the take above and now.
                if let Some(result) = connection.take_result(invocation_id) {
                    return Ok(result);
                }
                // The final (empty) drain has run, so a dead connection can
                // never produce this result any more.
                if !connection.qp.is_connected() {
                    return Err(RFaasError::ExecutorLost(format!(
                        "worker {}",
                        connection.index
                    )));
                }
                std::hint::spin_loop();
                std::thread::yield_now();
            }
        }
    }

    /// Acquire a lease and spin up executor workers (the cold invocation path
    /// of Fig. 5/6). `mode` selects hot busy-polling or warm blocking waits
    /// on the executor side. The request is kept for transparent recovery.
    pub(crate) fn allocate(&self, request: LeaseRequest, mode: PollingMode) -> Result<()> {
        *self.last_request.lock() = Some((request.clone(), mode));
        self.allocate_internal(&request, mode)
    }

    fn allocate_internal(&self, request: &LeaseRequest, mode: PollingMode) -> Result<()> {
        if self.active.lock().is_some() {
            self.deallocate_internal();
        }
        let mut breakdown = ColdStartBreakdown::default();

        // Step 1: first contact with the resource manager rides the datagram
        // transport — a UD-style endpoint an order of magnitude cheaper to
        // set up than a reliable connection. Bound once, reused by
        // re-allocations.
        let t0 = self.clock.now();
        self.ensure_control_socket();
        breakdown.connect_to_manager = self.clock.now().saturating_since(t0);

        // Step 2: submit the allocation request as a control frame, wait for
        // the verdict datagram.
        let t1 = self.clock.now();
        self.clock.advance(self.config.allocation_submit_cost);
        let (lease, executor) = self.allocate_via_control(request)?;
        breakdown.submit_allocation = self.clock.now().saturating_since(t1);

        // Step 3 + 4: the allocator spawns the sandboxed executor process and
        // loads the code package; the client waits for the whole thing. From
        // here on every error path must release the lease just granted, or
        // the manager's reservation leaks until the lease expires.
        let t2 = self.clock.now();
        let workers = request.cores as usize;
        let allocation = match executor
            .allocator()
            .allocate(&lease, workers, mode, self.policy)
        {
            Ok(allocation) => allocation,
            Err(e) => {
                let _ = self.manager.release_lease(lease.id);
                return Err(e);
            }
        };
        self.clock.advance(allocation.breakdown.spawn.total());
        breakdown.spawn_workers = self.clock.now().saturating_since(t2);
        let t3 = self.clock.now();
        self.clock.advance(allocation.breakdown.code_submission);
        breakdown.submit_code = self.clock.now().saturating_since(t3);

        // Step 5: establish a direct RDMA connection to every worker thread
        // and learn where its input buffer lives.
        let t4 = self.clock.now();
        let connections = match self.connect_workers(&allocation.workers, &lease.executor_node) {
            Ok(connections) => connections,
            Err(e) => {
                let _ = executor.allocator().deallocate(allocation.process_id);
                let _ = self.manager.release_lease(lease.id);
                return Err(e);
            }
        };
        breakdown.connect_to_workers = self.clock.now().saturating_since(t4);

        // Step 6 (stateful sessions only): bind the fresh executor process
        // to the state plane, and attach the session-side cache on the first
        // allocation. Re-allocations repeat the executor attach — the new
        // process starts with a cold state cache, the session cache survives.
        if let Some(plane) = &self.state_plane {
            let mut session_state = self.session_state.lock();
            if session_state.is_none() {
                *session_state = Some(plane.attach(
                    &self.node_name,
                    &self.fabric.add_node(&self.node_name),
                    &self.clock,
                    self.config.state_cache_bytes,
                ));
            }
            let exec_client = plane.attach(
                &format!("{}-exec", lease.executor_node),
                executor.node(),
                executor.allocator().clock(),
                self.config.state_cache_bytes,
            );
            executor
                .allocator()
                .attach_state_client(allocation.process_id, exec_client)?;
        }

        let fresh = ActiveAllocation {
            epoch: self.allocation_epoch.fetch_add(1, Ordering::Relaxed) + 1,
            lease,
            executor,
            process_id: allocation.process_id,
            package: allocation.package.clone(),
            connections,
        };
        // Defensive: if another allocation raced in since the teardown above,
        // swap it out and release it instead of silently leaking its lease.
        if let Some(displaced) = self.active.lock().replace(fresh) {
            self.teardown(displaced);
        }
        *self.cold_start.lock() = Some(breakdown);
        Ok(())
    }

    /// Epoch of the current allocation (0 when none is active).
    fn current_epoch(&self) -> u64 {
        self.active.lock().as_ref().map_or(0, |a| a.epoch)
    }

    /// Bind the control datagram socket on first use. The bind charges the
    /// cheap `datagram_setup` tier once; later allocations reuse the socket
    /// for free — exactly the first-contact amortisation the paper's leases
    /// give the data plane.
    fn ensure_control_socket(&self) {
        let mut control = self.control.lock();
        if control.is_none() {
            static NEXT_CONTROL_ID: AtomicU64 = AtomicU64::new(1);
            let endpoint = Endpoint {
                fabric: Arc::clone(&self.fabric),
                node: self.fabric.add_node(&self.node_name),
                clock: Arc::clone(&self.clock),
                pd: self.pd.clone(),
                function: rdma_fabric::DeviceFunction::Physical,
            };
            let address = format!(
                "rfaas-clt://{}/{}",
                self.node_name,
                NEXT_CONTROL_ID.fetch_add(1, Ordering::Relaxed)
            );
            *control = Some(DatagramSocket::bind(&endpoint, &address));
        }
    }

    /// One allocation round trip over the datagram control plane: send the
    /// `Allocate` frame, drive the manager's poller (the manager is not a
    /// thread in this simulation), and decode the verdict.
    fn allocate_via_control(&self, request: &LeaseRequest) -> Result<(Lease, Arc<SpotExecutor>)> {
        let control = self.control.lock();
        let socket = control.as_ref().expect("control socket bound");
        let frame = ControlFrame::Allocate {
            reply_to: socket.address().to_string(),
            request: request.clone(),
        };
        socket.send_to(self.manager.control_address(), &frame.encode())?;
        self.manager.poll_control();
        let reply = socket.recv_timeout(self.config.connect_timeout)?;
        match ControlFrame::decode(&reply.payload)? {
            ControlFrame::Granted { lease } => {
                let executor = self
                    .manager
                    .executor(&lease.executor_node)
                    .ok_or_else(|| RFaasError::ExecutorLost(lease.executor_node.clone()))?;
                Ok((lease, executor))
            }
            ControlFrame::Denied { .. } => Err(RFaasError::InsufficientResources {
                requested_cores: request.cores,
                requested_memory_mib: request.memory_mib,
            }),
            ControlFrame::Allocate { .. } => Err(RFaasError::Internal(
                "unexpected allocate frame on the client control socket".into(),
            )),
        }
    }

    fn connect_workers(
        &self,
        workers: &[crate::executor::WorkerEndpointInfo],
        pool_key: &str,
    ) -> Result<Vec<Arc<WorkerConnection>>> {
        let client_node = self.fabric.add_node(&self.node_name);
        let mut connections = Vec::with_capacity(workers.len());
        for (index, worker) in workers.iter().enumerate() {
            let endpoint = Endpoint {
                fabric: Arc::clone(&self.fabric),
                node: Arc::clone(&client_node),
                clock: Arc::clone(&self.clock),
                pd: self.pd.clone(),
                function: rdma_fabric::DeviceFunction::Physical,
            };
            // Worker addresses are fresh per lease, but the executor *node*
            // stays warm across lease churn: a pooled token keyed by the node
            // buys the cheap re-establishment tier.
            let (qp, _warm) = connect_pooled(
                &endpoint,
                &worker.address,
                &self.connection_pool,
                pool_key,
                self.config.connect_timeout,
            )?;
            self.connections_opened.fetch_add(1, Ordering::Relaxed);
            // Receive the worker's "hello" advertising its input buffer.
            let hello = self
                .pd
                .register(INVOCATION_HEADER_BYTES, AccessFlags::LOCAL_ONLY);
            qp.post_recv(RecvRequest {
                wr_id: u64::MAX,
                local: Sge::whole(&hello),
            })?;
            let wc = qp
                .recv_cq()
                .blocking_wait_timeout(self.config.connect_timeout)
                .ok_or_else(|| RFaasError::ExecutorLost(worker.address.clone()))?;
            if !wc.is_success() {
                return Err(RFaasError::ExecutorLost(worker.address.clone()));
            }
            let advertised = InvocationHeader::decode(&hello.read_all())?;
            let remote_input = RemoteMemoryHandle {
                rkey: advertised.result_rkey,
                offset: advertised.result_offset as usize,
                len: advertised.result_capacity as usize,
            };
            // Clamp to the device limit: a shallower result ring only means
            // overflow receives kick in earlier, not a failed connection.
            let ring_depth = self
                .config
                .recv_queue_depth
                .clamp(1, self.fabric.profile().max_recv_queue_depth);
            let ring = ReceiveRing::new(&qp, ring_depth, 8)?;
            let overflow_scratch = self.pd.register(8, AccessFlags::LOCAL_ONLY);
            let connection = Arc::new(WorkerConnection {
                qp,
                remote_input,
                ring,
                overflow_scratch,
                outstanding: AtomicUsize::new(0),
                completed: OrderedMutex::new(ranks::CLIENT_COMPLETED, ResultStash::default()),
                reactor_token: AtomicU64::new(0),
                index,
            });
            // Register with the reactor before the connection can carry an
            // invocation: every result on this ring is picked up by the
            // shared event loop.
            let token = self
                .reactor
                .register_source(Arc::clone(&connection) as Arc<dyn CompletionSource>);
            connection.reactor_token.store(token, Ordering::Relaxed);
            connections.push(connection);
        }
        Ok(connections)
    }

    /// Tear down the current allocation and replay the last lease request:
    /// fresh lease, fresh executor process, fresh connections. Called by the
    /// transparent recovery path after `LeaseExpired` / `ExecutorLost`.
    ///
    /// `observed_epoch` is the epoch of the allocation the caller saw fail.
    /// If the active allocation has already moved past it (another future
    /// recovered first), this is a no-op — the caller just resubmits on the
    /// fresh connections instead of destroying them.
    fn recover(&self, observed_epoch: u64) -> Result<()> {
        let _serialised = self.recovery_lock.lock();
        if self
            .active
            .lock()
            .as_ref()
            .is_some_and(|a| a.epoch != observed_epoch)
        {
            return Ok(());
        }
        let (request, mode) = self
            .last_request
            .lock()
            .clone()
            .ok_or(RFaasError::NotAllocated)?;
        self.deallocate_internal();
        self.allocate_internal(&request, mode)?;
        self.recoveries.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Submit one invocation: a batch of one on the shared posting path.
    pub(crate) fn submit(&self, spec: &InvocationSpec) -> Result<InvocationFuture<'_>> {
        let (mut futures, _) = self.submit_specs(std::slice::from_ref(spec))?;
        Ok(futures.pop().expect("one future per spec"))
    }

    /// Submit a batch of invocations behind one doorbell: every WQE of the
    /// batch is built back-to-back and posted on the chained path
    /// ([`rdma_fabric::QueuePair::post_send_batch`] semantics, spanning the
    /// per-worker queue pairs of one NIC), so only the first submission pays
    /// the full issue cost. A dead connection at submission time (the
    /// executor node was reclaimed under us) is recovered exactly like a
    /// mid-wait loss: the whole batch is replayed on a fresh allocation.
    pub(crate) fn submit_specs(
        &self,
        specs: &[InvocationSpec],
    ) -> Result<(Vec<InvocationFuture<'_>>, BatchStats)> {
        if specs.is_empty() {
            return Ok((Vec::new(), BatchStats::default()));
        }
        // Captured BEFORE the attempt: if the attempt fails because the
        // allocation died, recover() must only tear down that allocation —
        // a fresh one another future raced in is detected as a newer epoch
        // and reused, never destroyed.
        let observed_epoch = self.current_epoch();
        match self.try_submit_specs(specs) {
            Err(cause) if connection_is_lost(&cause) => {
                self.recover_and_resubmit(specs, observed_epoch, DEFAULT_RECOVERY_BUDGET, cause)
            }
            result => result,
        }
    }

    /// The one recovery loop: re-allocate after the allocation observed
    /// failing at `observed_epoch`, then replay `specs`. A failed recovery
    /// or a fresh connection loss consumes budget and is retried against
    /// whatever epoch is live now (the manager's round robin moves to a
    /// different executor each attempt); once `budget` attempts are spent
    /// the original `cause` surfaces. Every returned future records the
    /// attempts consumed, so a later mid-wait recovery draws on what remains.
    fn recover_and_resubmit(
        &self,
        specs: &[InvocationSpec],
        mut observed_epoch: u64,
        budget: u32,
        cause: RFaasError,
    ) -> Result<(Vec<InvocationFuture<'_>>, BatchStats)> {
        let mut used = 0;
        loop {
            used += 1;
            if used > budget {
                return Err(cause);
            }
            if self.recover(observed_epoch).is_err() {
                continue;
            }
            observed_epoch = self.current_epoch();
            match self.try_submit_specs(specs) {
                Ok((mut futures, stats)) => {
                    for future in &mut futures {
                        future.recoveries = used;
                    }
                    return Ok((futures, stats));
                }
                Err(e) if connection_is_lost(&e) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Resolve a spec against the active allocation: function index, target
    /// connection and allocation epoch, plus the wire-capacity checks that
    /// must precede any posting.
    fn resolve_spec(&self, spec: &InvocationSpec) -> Result<(u8, Arc<WorkerConnection>, u64)> {
        let (function_index, connection, epoch) = {
            let active = self.active.lock();
            let active = active.as_ref().ok_or(RFaasError::NotAllocated)?;
            if active.connections.is_empty() {
                return Err(RFaasError::NotAllocated);
            }
            // Resolve the function while the lock is held — cloning the code
            // package per submission would put two heap allocations on the
            // microsecond-scale hot path.
            let (function_index, _) = active
                .package
                .function_by_name(&spec.function)
                .ok_or_else(|| RFaasError::UnknownFunction(spec.function.to_string()))?;
            let connection = match spec.worker {
                Some(idx) => active
                    .connections
                    .get(idx)
                    .cloned()
                    .ok_or(RFaasError::NotAllocated)?,
                None => self.pick_connection(&active.connections),
            };
            (function_index, connection, active.epoch)
        };
        if function_index > u8::MAX as usize {
            return Err(RFaasError::Internal("function index exceeds 255".into()));
        }
        if spec.payload_len > spec.input.capacity() {
            return Err(RFaasError::PayloadTooLarge {
                payload: spec.payload_len,
                capacity: spec.input.capacity(),
            });
        }
        let wire_len = INVOCATION_HEADER_BYTES + spec.payload_len;
        if wire_len > connection.remote_input.len {
            return Err(RFaasError::PayloadTooLarge {
                payload: wire_len,
                capacity: connection.remote_input.len,
            });
        }
        Ok((function_index as u8, connection, epoch))
    }

    /// One attempt at posting a batch behind a shared doorbell. Every spec is
    /// resolved and capacity-checked *before* the first WQE is built; a post
    /// that still fails mid-batch (a lost connection, or a device limit such
    /// as an exhausted receive queue) reaps the already-posted invocations
    /// before the error surfaces, so no in-flight reservation or undrained
    /// completion outlives the failed attempt.
    fn try_submit_specs(
        &self,
        specs: &[InvocationSpec],
    ) -> Result<(Vec<InvocationFuture<'_>>, BatchStats)> {
        let mut futures = Vec::with_capacity(specs.len());
        for spec in specs {
            let (function_index, connection, epoch) = self.resolve_spec(spec)?;
            futures.push(InvocationFuture {
                session: self,
                connection,
                invocation_id: 0,
                function_index,
                pending: false,
                spec: spec.clone(),
                redirections: 0,
                recoveries: 0,
                epoch,
            });
        }
        let started = self.clock.now();
        for i in 0..futures.len() {
            let future = &mut futures[i];
            future.invocation_id =
                self.next_invocation.fetch_add(1, Ordering::Relaxed) & 0x00FF_FFFF;
            // Reserve the in-flight slot *before* deciding whether an extra
            // receive is needed: the previous value tells this submission
            // alone whether it fits the ring, so concurrent submits cannot
            // both read a stale count and under-post receives (a lost result
            // would hang the waiter forever).
            let reserved = future
                .connection
                .outstanding
                .fetch_add(1, Ordering::Relaxed);
            if let Err(e) = self.post_invocation(future, reserved, i > 0) {
                future
                    .connection
                    .outstanding
                    .fetch_sub(1, Ordering::Relaxed);
                // The earlier posts of this attempt already executed. Wait
                // their completions out, discarding the results, so the
                // failed attempt leaves no reservation or stashed result
                // behind. A connection that died has nothing left to drain;
                // the error says exactly that.
                for posted in &mut futures[..i] {
                    let _ = posted.take();
                }
                return Err(e);
            }
            future.pending = true;
        }
        let stats = BatchStats {
            submissions: specs.len(),
            doorbells: 1,
            chained_wqes: specs.len().saturating_sub(1),
            post_time: self.clock.now().saturating_since(started),
        };
        Ok((futures, stats))
    }

    /// Post `future`'s invocation onto its connection: the overflow receive
    /// when this submission's reserved slot (`reserved`, the pre-increment
    /// in-flight count) exceeds the ring, then header + payload — inline when
    /// the wire fits the device's WQE inline capacity, buffered otherwise. A
    /// `chained` post joins the WQE chain opened by the previous post of the
    /// batch (descriptor build only, no doorbell) and always takes the
    /// buffered path, since inline WQEs cannot join a chain that spans queue
    /// pairs.
    fn post_invocation(
        &self,
        future: &InvocationFuture<'_>,
        reserved: usize,
        chained: bool,
    ) -> Result<()> {
        // Payload-vs-capacity bounds were already enforced by resolve_spec
        // (every future is resolved before posting), so the spec is trusted
        // here.
        let connection = &future.connection;
        let (input, payload_len, output) = (
            &future.spec.input,
            future.spec.payload_len,
            &future.spec.output,
        );

        // The connection's receive ring holds one pre-posted slot per
        // in-flight result; only past the ring depth does a submission pay an
        // extra receive on the critical path.
        if reserved >= connection.ring.depth() {
            connection.qp.post_recv(RecvRequest {
                wr_id: u64::MAX,
                local: Sge::whole(&connection.overflow_scratch),
            })?;
        }

        let wire_len = INVOCATION_HEADER_BYTES + payload_len;
        // Fill the header in front of the payload: where the executor should
        // write the result.
        self.clock.advance(self.config.header_write_cost);
        let header = InvocationHeader::for_result_buffer(&output.remote_handle());
        let imm = ImmValue::request(future.invocation_id, future.function_index);
        // Stack staging area for inline wires — the hot path must not touch
        // the heap (the default inline capacity is 128 B; a profile offering
        // more simply falls back to the buffered path beyond this bound).
        const INLINE_STACK: usize = 512;
        if !chained && wire_len <= self.fabric.profile().max_inline_data && wire_len <= INLINE_STACK
        {
            // Zero-copy hot path (Sec. IV-A): header and payload ride inside
            // the WQE — no staging write into the input region, no DMA
            // fetch, no heap allocation.
            let mut wire = [0u8; INLINE_STACK];
            wire[..INVOCATION_HEADER_BYTES].copy_from_slice(&header.encode());
            input
                .region()
                .with_bytes(input.payload_offset(), payload_len, |payload| {
                    wire[INVOCATION_HEADER_BYTES..wire_len].copy_from_slice(payload)
                })?;
            connection.qp.post_write_inline(
                future.invocation_id as u64,
                &wire[..wire_len],
                &connection.remote_input.slice(0, wire_len),
                Some(imm),
                false,
            )?;
        } else {
            // Buffered path: stage the header in front of the payload and
            // gather both from the registered input region.
            input
                .region()
                .write(0, &header.encode())
                .map_err(RFaasError::from)?;
            connection.qp.post_send_chained(
                future.invocation_id as u64,
                SendRequest::WriteWithImm {
                    local: Sge::range(input.region(), 0, wire_len),
                    remote: connection.remote_input.slice(0, wire_len),
                    imm,
                },
                false,
                chained,
            )?;
        }
        Ok(())
    }

    fn pick_connection(&self, connections: &[Arc<WorkerConnection>]) -> Arc<WorkerConnection> {
        // Prefer an idle worker; otherwise round-robin over all of them.
        let start = self.round_robin.fetch_add(1, Ordering::Relaxed);
        let n = connections.len();
        for i in 0..n {
            let conn = &connections[(start + i) % n];
            if conn.outstanding.load(Ordering::Relaxed) == 0 {
                return Arc::clone(conn);
            }
        }
        Arc::clone(&connections[start % n])
    }

    /// Release all executor resources and the lease (Listing 2's
    /// `invoker.deallocate()`), and forget the request recovery would replay.
    pub(crate) fn deallocate(&self) {
        *self.last_request.lock() = None;
        self.deallocate_internal();
    }

    fn deallocate_internal(&self) {
        if let Some(active) = self.active.lock().take() {
            self.teardown(active);
        }
    }

    fn teardown(&self, active: ActiveAllocation) {
        for conn in &active.connections {
            conn.qp.disconnect();
            self.reactor.unregister_source(conn.token());
            // The remote node's state (path records, exchanged attributes)
            // survives the teardown: park a warmth token so a re-allocation
            // landing on the same executor reconnects at the warm tier.
            self.connection_pool
                .release(&active.lease.executor_node, self.clock.now());
        }
        // Both calls tolerate the other side being gone already: a failed
        // executor has no process left to deallocate, and the lifecycle
        // driver may have released or terminated the lease before us.
        let _ = active.executor.allocator().deallocate(active.process_id);
        let _ = self.manager.release_lease(active.lease.id);
    }
}

/// Whether an error means the executor connection is gone (as opposed to a
/// protocol or application failure), making transparent re-allocation the
/// right response.
fn connection_is_lost(error: &RFaasError) -> bool {
    match error {
        RFaasError::ExecutorLost(_) => true,
        RFaasError::Fabric(e) => matches!(
            e,
            rdma_fabric::FabricError::ConnectionLost
                | rdma_fabric::FabricError::NotConnected
                | rdma_fabric::FabricError::InvalidQpState { .. }
        ),
        _ => false,
    }
}

/// The in-flight result of a submitted invocation (`std::future`-style,
/// Sec. IV-B). Waiting busy-polls the client-side completion queue, which is
/// what the paper's invoker does to minimise latency. A future dropped
/// without a wait abandons its invocation: the result is discarded when it
/// lands and the connection's in-flight reservation comes back.
pub(crate) struct InvocationFuture<'a> {
    session: &'a Session,
    connection: Arc<WorkerConnection>,
    invocation_id: u32,
    function_index: u8,
    /// Whether `invocation_id` was posted and still owes a result on
    /// `connection` (cleared once the result is taken).
    pending: bool,
    spec: InvocationSpec,
    redirections: u32,
    recoveries: u32,
    // Allocation epoch the current connection belongs to; recovery uses it to
    // detect that another future already replaced a dead allocation.
    epoch: u64,
}

impl std::fmt::Debug for InvocationFuture<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvocationFuture")
            .field("id", &self.invocation_id)
            .field("function", &self.spec.function)
            .finish()
    }
}

impl Drop for InvocationFuture<'_> {
    fn drop(&mut self) {
        if self.pending {
            self.connection.abandon(self.invocation_id);
        }
    }
}

impl<'a> InvocationFuture<'a> {
    /// The session the invocation was submitted through.
    pub(crate) fn session(&self) -> &'a Session {
        self.session
    }

    /// The invocation identifier carried in the immediate value.
    pub(crate) fn id(&self) -> u32 {
        self.invocation_id
    }

    /// Number of times the invocation was replayed onto a fresh lease after
    /// an expiry or executor loss.
    pub(crate) fn recoveries(&self) -> u32 {
        self.recoveries
    }

    /// The invocation's input and output buffers (used by the typed session
    /// layer to return pooled buffers after the wait).
    pub(crate) fn buffers(&self) -> (Buffer, Buffer) {
        (self.spec.input.clone(), self.spec.output.clone())
    }

    /// Non-blocking completion probe: one reactor turn pumps every
    /// registered connection, then this invocation's stash is checked. A
    /// `true` result makes the next [`InvocationFuture::wait`] return without
    /// further polling (modulo transparent redirections).
    pub(crate) fn is_complete(&self) -> bool {
        self.session.reactor.turn();
        self.connection.has_result(self.invocation_id)
    }

    /// Whether the result is already stashed, without pumping anything.
    /// The completion-set fast path: ready-queue hits resolve through this.
    pub(crate) fn has_stashed_result(&self) -> bool {
        self.connection.has_result(self.invocation_id)
    }

    /// The `(source token, invocation id)` key under which a continuation
    /// for this future registers with the session's reactor.
    pub(crate) fn reactor_key(&self) -> (u64, u32) {
        (self.connection.token(), self.invocation_id)
    }

    /// Whether the future's connection is gone (its continuation can never
    /// fire; only a blocking wait — which runs recovery — resolves it).
    pub(crate) fn connection_lost(&self) -> bool {
        !self.connection.qp.is_connected()
    }

    /// Drive the reactor until this invocation's result lands, and take it.
    fn take(&mut self) -> Result<(usize, ResultStatus)> {
        let result = self
            .session
            .await_result(&self.connection, self.invocation_id)?;
        self.pending = false;
        Ok(result)
    }

    /// Continue as the resubmitted `retry`: its connection, invocation id,
    /// epoch and pending result become this future's, and the recoveries it
    /// consumed add to this future's count.
    fn adopt(&mut self, mut retry: InvocationFuture<'a>) {
        std::mem::swap(&mut self.connection, &mut retry.connection);
        self.invocation_id = retry.invocation_id;
        self.epoch = retry.epoch;
        self.recoveries += retry.recoveries;
        self.pending = std::mem::replace(&mut retry.pending, false);
    }

    /// Re-allocate through the manager and replay this invocation on the
    /// fresh connections, drawing on the future's remaining recovery budget.
    /// The replay is not pinned to the dead worker index: the round robin
    /// moves it to whatever the fresh allocation offers.
    fn recover(&mut self, cause: RFaasError) -> Result<()> {
        let mut spec = self.spec.clone();
        spec.worker = None;
        let budget = DEFAULT_RECOVERY_BUDGET.saturating_sub(self.recoveries);
        let (mut retry, _) = self.session.recover_and_resubmit(
            std::slice::from_ref(&spec),
            self.epoch,
            budget,
            cause,
        )?;
        self.adopt(retry.pop().expect("one future per spec"));
        Ok(())
    }

    /// Block (busy-polling) until the result is available; returns the number
    /// of output bytes written into the output buffer.
    ///
    /// Rejected invocations (oversubscribed warm executors) are transparently
    /// redirected to another worker, as in Fig. 6. Invocations refused
    /// because the lease expired — or stranded because the executor node
    /// disappeared — are transparently replayed onto a fresh lease obtained
    /// from the resource manager (Sec. III-B failure handling).
    pub(crate) fn wait(mut self) -> Result<usize> {
        loop {
            let (byte_len, status) = match self.take() {
                Ok(result) => result,
                Err(e) if connection_is_lost(&e) => {
                    self.recover(e)?;
                    continue;
                }
                Err(e) => return Err(e),
            };
            match status {
                ResultStatus::Success => return Ok(byte_len),
                ResultStatus::FunctionFailed => {
                    return Err(RFaasError::Function(
                        sandbox::FunctionError::ExecutionFailed(format!(
                            "function '{}' failed on the executor",
                            self.spec.function
                        )),
                    ))
                }
                ResultStatus::LeaseExpired => {
                    let lease_id = self.session.lease().map(|l| l.id).unwrap_or_default();
                    self.recover(RFaasError::LeaseExpired(lease_id))?;
                }
                ResultStatus::Rejected => {
                    // Redirect to a different worker; give up once every
                    // worker rejected the request.
                    self.redirections += 1;
                    let workers = self.session.worker_count();
                    if self.redirections as usize > workers {
                        return Err(RFaasError::AllWorkersBusy);
                    }
                    let mut spec = self.spec.clone();
                    spec.worker = Some((self.connection.index + 1) % workers);
                    let retry = self.session.submit(&spec)?;
                    self.adopt(retry);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RFaasConfig;
    use crate::manager::ResourceManager;
    use cluster_sim::NodeResources;
    use rdma_fabric::Fabric;
    use sandbox::{echo_function, failing_function, CodePackage, FunctionRegistry};

    fn platform(workers: u32) -> (Arc<Fabric>, Arc<ResourceManager>, Session) {
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
            .workers(workers)
            .connect()
            .unwrap();
        (fabric, manager, session)
    }

    /// A raw spec for `function` on caller-managed buffers.
    fn raw_spec(
        function: &str,
        input: &Buffer,
        payload_len: usize,
        output: &Buffer,
    ) -> InvocationSpec {
        InvocationSpec {
            worker: None,
            function: Arc::from(function),
            input: input.clone(),
            payload_len,
            output: output.clone(),
        }
    }

    #[test]
    fn buffers_round_trip_payloads() {
        let (_fabric, _manager, session) = platform(1);
        let alloc = session.allocator();
        let input = alloc.input(64);
        assert_eq!(input.capacity(), 64);
        assert_eq!(input.payload_offset(), INVOCATION_HEADER_BYTES);
        assert_eq!(input.write_payload(&[1, 2, 3]).unwrap(), 3);
        assert_eq!(input.read_payload(3).unwrap(), vec![1, 2, 3]);
        assert!(input.write_payload(&[0u8; 65]).is_err());

        let output = alloc.output(32);
        assert_eq!(output.payload_offset(), 0);
        let values = [1.5f64, -2.25, 3.0];
        assert_eq!(output.write_encoded(&values[..]).unwrap(), 24);
        assert_eq!(output.read_decoded::<[f64]>(24).unwrap(), values);
    }

    #[test]
    fn read_payload_rejects_len_past_the_buffer_extent() {
        // Regression: read_payload used to clamp an oversized `len`
        // silently, handing back a short read the caller would misinterpret
        // as the complete result.
        let (_fabric, _manager, session) = platform(1);
        let alloc = session.allocator();
        let buf = alloc.output(32);
        buf.write_payload(&[1u8; 32]).unwrap();
        assert_eq!(buf.read_payload(32).unwrap().len(), 32);
        assert!(matches!(
            buf.read_payload(33),
            Err(RFaasError::PayloadTooLarge {
                payload: 33,
                capacity: 32
            })
        ));
        assert!(matches!(
            buf.read_decoded::<[f64]>(40),
            Err(RFaasError::PayloadTooLarge { .. })
        ));
        // Input buffers bound against the payload capacity, not the region
        // (which is header_space bytes larger).
        let input = alloc.input(16);
        assert!(input.read_payload(16).is_ok());
        assert!(input.read_payload(17).is_err());
    }

    #[test]
    fn small_invocations_ride_the_inline_path_without_staging_the_header() {
        let (_fabric, _manager, session) = platform(1);
        let alloc = session.allocator();
        let input = alloc.input(4096);
        let output = alloc.output(4096);
        input.write_payload(&[3u8; 8]).unwrap();
        let (len, _) = session.invoke_raw("echo", &input, 8, &output).unwrap();
        assert_eq!(len, 8);
        // Zero-copy check: the inline path never wrote the 24-byte header
        // into the client's input region — it travelled inside the WQE.
        assert_eq!(
            input.region().read(0, INVOCATION_HEADER_BYTES).unwrap(),
            vec![0u8; INVOCATION_HEADER_BYTES]
        );
        // A payload past the inline capacity takes the buffered path and
        // stages the header.
        input.write_payload(&[5u8; 2048]).unwrap();
        let (len, _) = session.invoke_raw("echo", &input, 2048, &output).unwrap();
        assert_eq!(len, 2048);
        assert_ne!(
            input.region().read(0, INVOCATION_HEADER_BYTES).unwrap(),
            vec![0u8; INVOCATION_HEADER_BYTES]
        );
    }

    // The demotion behaviour itself (mode switch, capped billing, warm
    // latency, one-shot) is pinned end-to-end in tests/invocation_spectrum.rs;
    // here only the negative case stays, close to the billing arithmetic.
    #[test]
    fn sub_timeout_gaps_do_not_demote() {
        let (_fabric, manager, session) = platform(1);
        let timeout = RFaasConfig::default().hot_poll_timeout;
        let alloc = session.allocator();
        let input = alloc.input(64);
        let output = alloc.output(64);
        input.write_payload(&[1u8; 8]).unwrap();
        session.invoke_raw("echo", &input, 8, &output).unwrap();
        for _ in 0..3 {
            session.clock().advance(timeout / 2);
            session.invoke_raw("echo", &input, 8, &output).unwrap();
        }
        let executor = manager.executor("exec-0").unwrap();
        let process = executor.allocator().processes().pop().unwrap();
        let process = process.lock();
        assert_eq!(process.workers()[0].mode(), PollingMode::Hot);
        let stats = process.stats();
        assert_eq!(stats.demotions, 0);
        // Every sub-budget spin is billed in full.
        assert!(stats.hot_poll_time >= (timeout / 2).saturating_mul(3));
    }

    #[test]
    fn allocate_invoke_deallocate_round_trip() {
        let (_fabric, manager, session) = platform(1);
        assert_eq!(session.worker_count(), 1);
        assert!(session.lease().is_some());
        let cold = session.cold_start().unwrap();
        assert!(cold.total().as_millis_f64() > 10.0);

        let alloc = session.allocator();
        let input = alloc.input(1024);
        let output = alloc.output(1024);
        let payload: Vec<u8> = (0..100u8).collect();
        input.write_payload(&payload).unwrap();
        let (len, rtt) = session
            .invoke_raw("echo", &input, payload.len(), &output)
            .unwrap();
        assert_eq!(len, 100);
        assert_eq!(output.read_payload(100).unwrap(), payload);
        assert!(
            rtt.as_micros_f64() > 1.0 && rtt.as_micros_f64() < 100.0,
            "rtt {rtt}"
        );

        session.deallocate();
        assert_eq!(session.worker_count(), 0);
        assert_eq!(manager.lease_count(), 0);
    }

    #[test]
    fn hot_invocation_latency_matches_paper_range() {
        let (_fabric, _manager, session) = platform(1);
        let alloc = session.allocator();
        let input = alloc.input(64);
        let output = alloc.output(64);
        input.write_payload(&[7u8; 8]).unwrap();
        // Warm up the executor, then measure.
        session.invoke_raw("echo", &input, 8, &output).unwrap();
        let mut samples = Vec::new();
        for _ in 0..50 {
            let (_, rtt) = session.invoke_raw("echo", &input, 8, &output).unwrap();
            samples.push(rtt.as_micros_f64());
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        // Paper: ~3.96 us hot latency for small payloads.
        assert!((3.0..6.0).contains(&median), "hot median {median} us");
    }

    #[test]
    fn failed_allocation_releases_the_manager_lease() {
        let fabric = Fabric::with_defaults();
        let registry = FunctionRegistry::new();
        registry.deploy(CodePackage::minimal("pkg").with_function(echo_function()));
        let manager = ResourceManager::new(&fabric, RFaasConfig::default());
        let executor = SpotExecutor::new(
            &fabric,
            "exec-0",
            NodeResources {
                cores: 8,
                memory_mib: 32 * 1024,
            },
            registry,
            RFaasConfig::default(),
        );
        manager.register_executor(&executor);

        // The manager grants the lease (it does not validate packages), then
        // the allocator rejects the unknown package. Regression: the granted
        // lease and its reserved resources must be released, not leaked.
        let err = Session::builder(&fabric, "client", &manager, "missing-pkg")
            .workers(2)
            .connect()
            .unwrap_err();
        assert!(matches!(err, RFaasError::UnknownPackage(_)));
        assert_eq!(manager.lease_count(), 0);
        assert_eq!(manager.available_resources().cores, 8);

        // Same contract when the executor-side worker spawn fails.
        executor.allocator().inject_spawn_failure(0);
        let err = Session::builder(&fabric, "client", &manager, "pkg")
            .workers(2)
            .connect()
            .unwrap_err();
        assert!(matches!(err, RFaasError::Internal(_)));
        assert_eq!(manager.lease_count(), 0);
        assert_eq!(manager.available_resources().cores, 8);
        assert_eq!(executor.allocator().available().cores, 8);
    }

    #[test]
    fn extend_lease_requires_an_allocation() {
        let (_fabric, _manager, session) = platform(1);
        session.deallocate();
        assert!(matches!(
            session.extend_lease(SimDuration::from_secs(60)),
            Err(RFaasError::NotAllocated)
        ));
    }

    #[test]
    fn extend_lease_pushes_expiry_and_updates_executor_deadline() {
        let (_fabric, manager, session) = platform(1);
        let before = session.lease().unwrap();
        let new_expiry = session.extend_lease(SimDuration::from_secs(3600)).unwrap();
        assert!(new_expiry > before.expires_at);
        let after = session.lease().unwrap();
        assert_eq!(after.expires_at, new_expiry);
        assert_eq!(manager.lease(after.id).unwrap().expires_at, new_expiry);
        // The executor-side process deadline moved with the lease.
        let executor = manager.executor(&after.executor_node).unwrap();
        assert_eq!(executor.allocator().reap_expired(before.expires_at), 0);
    }

    #[test]
    fn failing_function_propagates_error() {
        let (_fabric, _manager, session) = platform(1);
        let alloc = session.allocator();
        let input = alloc.input(16);
        let output = alloc.output(16);
        input.write_payload(&[1]).unwrap();
        let err = session
            .invoke_raw("always-fails", &input, 1, &output)
            .unwrap_err();
        assert!(matches!(err, RFaasError::Function(_)));
    }

    #[test]
    fn unknown_function_is_rejected_client_side() {
        let (_fabric, _manager, session) = platform(1);
        let alloc = session.allocator();
        let input = alloc.input(16);
        let output = alloc.output(16);
        let err = session.invoke_raw("nope", &input, 0, &output).unwrap_err();
        assert!(matches!(err, RFaasError::UnknownFunction(_)));
    }

    #[test]
    fn submit_without_allocation_fails() {
        let (_fabric, _manager, session) = platform(1);
        session.deallocate();
        let alloc = session.allocator();
        let input = alloc.input(16);
        let output = alloc.output(16);
        assert!(matches!(
            session.invoke_raw("echo", &input, 0, &output),
            Err(RFaasError::NotAllocated)
        ));
    }

    #[test]
    fn oversized_payload_is_rejected_before_transmission() {
        let (_fabric, _manager, session) = platform(1);
        let alloc = session.allocator();
        let huge = RFaasConfig::default().max_payload_bytes + 1024;
        let input = alloc.input(huge);
        let output = alloc.output(64);
        let err = session
            .invoke_raw("echo", &input, huge, &output)
            .unwrap_err();
        assert!(matches!(err, RFaasError::PayloadTooLarge { .. }));
    }

    #[test]
    fn parallel_invocations_on_multiple_workers() {
        let (_fabric, _manager, session) = platform(4);
        assert_eq!(session.worker_count(), 4);
        let alloc = session.allocator();
        let inputs: Vec<Buffer> = (0..4).map(|_| alloc.input(1024)).collect();
        let outputs: Vec<Buffer> = (0..4).map(|_| alloc.output(1024)).collect();
        let mut futures = Vec::new();
        for (i, (input, output)) in inputs.iter().zip(outputs.iter()).enumerate() {
            let payload = vec![i as u8; 256];
            input.write_payload(&payload).unwrap();
            futures.push(
                session
                    .submit(&raw_spec("echo", input, 256, output))
                    .unwrap(),
            );
        }
        for (i, future) in futures.into_iter().enumerate() {
            let len = future.wait().unwrap();
            assert_eq!(len, 256);
            assert_eq!(outputs[i].read_payload(4).unwrap(), vec![i as u8; 4]);
        }
    }

    #[test]
    fn results_land_directly_in_output_buffer() {
        let (_fabric, _manager, session) = platform(1);
        let alloc = session.allocator();
        let input = alloc.input(4096);
        let output = alloc.output(4096);
        let data: Vec<f64> = (0..256).map(|i| i as f64 * 0.5).collect();
        let len = input.write_encoded(&data[..]).unwrap();
        let (out_len, _) = session.invoke_raw("echo", &input, len, &output).unwrap();
        assert_eq!(out_len, len);
        assert_eq!(output.read_decoded::<[f64]>(out_len).unwrap(), data);
    }

    #[test]
    fn worker_connect_surfaces_a_typed_timeout() {
        // Regression: the connect deadline was a hardcoded ten seconds; a
        // worker that never accepts must now fail within the configured
        // timeout with a typed error, not hang or panic.
        let (fabric, _manager, mut session) = platform(1);
        session.config.connect_timeout = std::time::Duration::from_millis(50);
        // A listener nobody ever accepts on: the client's connect request
        // sits in the accept queue until the client gives up.
        let _silent = rdma_fabric::Listener::bind(&fabric, "rfaas://dead-node/1/1");
        let worker = crate::executor::WorkerEndpointInfo {
            address: "rfaas://dead-node/1/1".to_string(),
        };
        let started = std::time::Instant::now();
        let err = match session.connect_workers(std::slice::from_ref(&worker), "dead-node") {
            Ok(_) => panic!("connect to a silent worker unexpectedly succeeded"),
            Err(err) => err,
        };
        assert!(
            matches!(
                err,
                RFaasError::Fabric(rdma_fabric::FabricError::Timeout {
                    operation: "connect"
                })
            ),
            "expected typed connect timeout, got {err:?}"
        );
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn dropped_futures_return_their_reservation_and_result() {
        // Regression: a future dropped without a wait used to keep its
        // connection counted as in flight and its result stashed until the
        // session closed.
        let (_fabric, _manager, session) = platform(1);
        let echo = session.function::<[u8], [u8]>("echo").unwrap();
        for round in 0..100u8 {
            drop(echo.submit(&[round; 8][..]).unwrap());
            assert_eq!(echo.invoke(&[round; 8][..]).unwrap(), vec![round; 8]);
        }
        let active = session.active.lock();
        let connection = &active.as_ref().unwrap().connections[0];
        assert_eq!(connection.outstanding.load(Ordering::Relaxed), 0);
        let stash = connection.completed.lock();
        assert!(stash.results.is_empty());
        assert!(stash.abandoned.is_empty());
    }
}
