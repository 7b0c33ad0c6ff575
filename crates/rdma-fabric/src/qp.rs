//! Queue pairs: the send/receive endpoints of an RDMA connection.
//!
//! A [`QueuePair`] is owned by exactly one actor (its virtual clock) and is
//! connected to exactly one peer queue pair, mirroring the reliable-connected
//! (RC) transport rFaaS uses. Posting to the send queue is non-blocking — the
//! actor only pays the WQE/doorbell cost — while the simulated NIC streams
//! the data and delivers completions with fabric-model timestamps.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use sim_core::{SimTime, VirtualClock};

use crate::cq::CompletionQueue;
use crate::device::{DeviceFunction, NicProfile};
use crate::error::{FabricError, Result};
use crate::fabric::{Fabric, FabricNode};
use crate::memory::RemoteMemoryHandle;
use crate::pd::ProtectionDomain;
use crate::srq::SharedReceiveQueue;
use crate::verbs::{CompletionStatus, OpCode, RecvRequest, SendRequest, Sge, WorkCompletion};

/// Everything needed to create queue pairs for one actor on one node.
#[derive(Clone)]
pub struct Endpoint {
    /// The fabric the endpoint attaches to.
    pub fabric: Arc<Fabric>,
    /// The node (machine) the actor runs on.
    pub node: Arc<FabricNode>,
    /// The actor's virtual clock.
    pub clock: Arc<VirtualClock>,
    /// The protection domain holding the actor's registrations.
    pub pd: ProtectionDomain,
    /// Physical function (bare metal) or SR-IOV virtual function (container).
    pub function: DeviceFunction,
}

impl Endpoint {
    /// Create an endpoint on `node` with a fresh clock and protection domain,
    /// attached to the physical function.
    pub fn new(fabric: &Arc<Fabric>, node: &Arc<FabricNode>) -> Endpoint {
        Endpoint {
            fabric: Arc::clone(fabric),
            node: Arc::clone(node),
            clock: VirtualClock::shared(),
            pd: ProtectionDomain::new(),
            function: DeviceFunction::Physical,
        }
    }

    /// Replace the clock (actors that share a clock across several QPs).
    pub fn with_clock(mut self, clock: Arc<VirtualClock>) -> Endpoint {
        self.clock = clock;
        self
    }

    /// Replace the protection domain.
    pub fn with_pd(mut self, pd: ProtectionDomain) -> Endpoint {
        self.pd = pd;
        self
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("node", &self.node.name())
            .field("function", &self.function)
            .finish()
    }
}

/// Connection state of a queue pair (a simplified RESET→INIT→RTS ladder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpState {
    /// Created but not yet connected; receives may be pre-posted.
    Init,
    /// Connected to a peer; all verbs allowed.
    Connected,
    /// Torn down; all verbs fail.
    Disconnected,
}

impl QpState {
    fn name(self) -> &'static str {
        match self {
            QpState::Init => "INIT",
            QpState::Connected => "CONNECTED",
            QpState::Disconnected => "DISCONNECTED",
        }
    }
}

static NEXT_QP_NUM: AtomicU32 = AtomicU32::new(1);

pub(crate) struct QpInner {
    qp_num: u32,
    fabric: Arc<Fabric>,
    node: Arc<FabricNode>,
    clock: Arc<VirtualClock>,
    pd: ProtectionDomain,
    function: DeviceFunction,
    send_cq: CompletionQueue,
    recv_cq: CompletionQueue,
    recv_queue: Mutex<VecDeque<RecvRequest>>,
    /// When set, incoming messages consume buffers from this shared queue
    /// instead of the private `recv_queue` (ibv SRQ association).
    srq: RwLock<Option<SharedReceiveQueue>>,
    peer: RwLock<Option<Arc<QpInner>>>,
    state: RwLock<QpState>,
    ops_posted: AtomicU64,
}

impl std::fmt::Debug for QpInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QpInner")
            .field("qp_num", &self.qp_num)
            .field("node", &self.node.name())
            .field("state", &*self.state.read())
            .finish()
    }
}

/// One endpoint of a reliable RDMA connection.
#[derive(Debug, Clone)]
pub struct QueuePair {
    inner: Arc<QpInner>,
}

impl QueuePair {
    /// Create an unconnected queue pair for `endpoint`.
    pub fn new(endpoint: &Endpoint) -> QueuePair {
        let profile = endpoint.fabric.profile().clone();
        let send_cq = CompletionQueue::new(
            Arc::clone(&endpoint.clock),
            Arc::clone(&endpoint.node),
            profile.clone(),
            endpoint.function,
        );
        let recv_cq = CompletionQueue::new(
            Arc::clone(&endpoint.clock),
            Arc::clone(&endpoint.node),
            profile,
            endpoint.function,
        );
        QueuePair {
            inner: Arc::new(QpInner {
                qp_num: NEXT_QP_NUM.fetch_add(1, Ordering::Relaxed),
                fabric: Arc::clone(&endpoint.fabric),
                node: Arc::clone(&endpoint.node),
                clock: Arc::clone(&endpoint.clock),
                pd: endpoint.pd.clone(),
                function: endpoint.function,
                send_cq,
                recv_cq,
                recv_queue: Mutex::new(VecDeque::new()),
                srq: RwLock::new(None),
                peer: RwLock::new(None),
                state: RwLock::new(QpState::Init),
                ops_posted: AtomicU64::new(0),
            }),
        }
    }

    /// Queue pair number.
    pub fn qp_num(&self) -> u32 {
        self.inner.qp_num
    }

    /// Current connection state.
    pub fn state(&self) -> QpState {
        *self.inner.state.read()
    }

    /// The completion queue receiving send-side completions.
    pub fn send_cq(&self) -> &CompletionQueue {
        &self.inner.send_cq
    }

    /// The completion queue receiving receive-side completions.
    pub fn recv_cq(&self) -> &CompletionQueue {
        &self.inner.recv_cq
    }

    /// The protection domain the QP validates remote keys against.
    pub fn pd(&self) -> &ProtectionDomain {
        &self.inner.pd
    }

    /// The owning actor's virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.inner.clock
    }

    /// The node this endpoint runs on.
    pub fn node(&self) -> &Arc<FabricNode> {
        &self.inner.node
    }

    /// Device function (physical or SR-IOV virtual) of this endpoint.
    pub fn function(&self) -> DeviceFunction {
        self.inner.function
    }

    /// Number of send-queue operations posted so far.
    pub fn ops_posted(&self) -> u64 {
        self.inner.ops_posted.load(Ordering::Relaxed)
    }

    /// Connect two queue pairs directly (used by the connection manager and
    /// by tests). Both must be in the `Init` state.
    pub fn connect_pair(a: &QueuePair, b: &QueuePair) -> Result<()> {
        for qp in [a, b] {
            let state = qp.state();
            if state != QpState::Init {
                return Err(FabricError::InvalidQpState {
                    operation: "connect",
                    state: state.name(),
                });
            }
        }
        *a.inner.peer.write() = Some(Arc::clone(&b.inner));
        *b.inner.peer.write() = Some(Arc::clone(&a.inner));
        *a.inner.state.write() = QpState::Connected;
        *b.inner.state.write() = QpState::Connected;
        Ok(())
    }

    /// Associate this queue pair with a shared receive queue: incoming
    /// messages will consume buffers from `srq` (with a flow-control budget
    /// of `credit` concurrently held buffers) instead of the private receive
    /// queue. Mirrors passing `srq` to `ibv_create_qp`. Completions still
    /// land on this QP's own receive CQ.
    pub fn attach_srq(&self, srq: &SharedReceiveQueue, credit: usize) {
        srq.attach(self.inner.qp_num, credit);
        *self.inner.srq.write() = Some(srq.clone());
    }

    /// The shared receive queue this QP consumes from, if any.
    pub fn srq(&self) -> Option<SharedReceiveQueue> {
        self.inner.srq.read().clone()
    }

    /// Tear down the connection. Peers observe `ConnectionLost` on their next
    /// operation and blocked completion waits wake with `None`.
    pub fn disconnect(&self) {
        let peer = self.inner.peer.write().take();
        *self.inner.state.write() = QpState::Disconnected;
        self.inner.send_cq.disconnect();
        self.inner.recv_cq.disconnect();
        if let Some(srq) = self.inner.srq.write().take() {
            srq.detach(self.inner.qp_num);
        }
        if let Some(peer) = peer {
            *peer.state.write() = QpState::Disconnected;
            peer.peer.write().take();
            peer.send_cq.disconnect();
            peer.recv_cq.disconnect();
            if let Some(srq) = peer.srq.write().take() {
                srq.detach(peer.qp_num);
            }
        }
    }

    /// Whether the peer endpoint is still connected.
    pub fn is_connected(&self) -> bool {
        self.state() == QpState::Connected && self.inner.peer.read().is_some()
    }

    /// Post a receive work request: a buffer waiting for a SEND or
    /// WRITE_WITH_IMM from the peer.
    pub fn post_recv(&self, recv: RecvRequest) -> Result<()> {
        let state = self.state();
        if state == QpState::Disconnected {
            return Err(FabricError::InvalidQpState {
                operation: "post_recv",
                state: state.name(),
            });
        }
        if self.inner.srq.read().is_some() {
            return Err(FabricError::UnsupportedOperation(
                "post_recv on an SRQ-attached queue pair (post to the SRQ instead)",
            ));
        }
        let profile = self.profile();
        validate_sge(&recv.local)?;
        let mut queue = self.inner.recv_queue.lock();
        if queue.len() >= profile.max_recv_queue_depth {
            return Err(FabricError::DeviceLimitExceeded {
                limit: "receive queue depth",
            });
        }
        queue.push_back(recv);
        drop(queue);
        self.inner.clock.advance(profile.post_recv_overhead);
        Ok(())
    }

    /// Number of receive work requests currently posted.
    pub fn posted_receives(&self) -> usize {
        self.inner.recv_queue.lock().len()
    }

    /// Post a send-queue work request (write, write-with-immediate, send,
    /// read or atomic). `signaled` controls whether a send-side completion is
    /// generated.
    ///
    /// The call is non-blocking: the caller's virtual clock only advances by
    /// the posting overhead, while transfer timing is reflected in the
    /// completion timestamps.
    pub fn post_send(&self, wr_id: u64, request: SendRequest, signaled: bool) -> Result<()> {
        self.post_send_inner(wr_id, request, signaled, false)
    }

    /// Post a chain of send-queue work requests behind a single doorbell.
    ///
    /// Real verbs accept a linked list of WQEs per `ibv_post_send`; only the
    /// first pays the doorbell MMIO, the rest pay the (cheaper) descriptor
    /// build. Requests execute in order; on the first failure the error is
    /// returned and the remaining requests are not posted (the earlier ones
    /// already executed, as on real hardware). Returns the number posted.
    pub fn post_send_batch(&self, requests: Vec<(u64, SendRequest, bool)>) -> Result<usize> {
        let mut posted = 0;
        for (wr_id, request, signaled) in requests {
            self.post_send_chained(wr_id, request, signaled, posted > 0)?;
            posted += 1;
        }
        Ok(posted)
    }

    /// Post one send-queue work request as an explicit link of a
    /// caller-managed WQE chain: `chained = false` opens a chain (full
    /// doorbell issue cost), `chained = true` appends to one (descriptor
    /// build only). This is the primitive [`QueuePair::post_send_batch`] is
    /// built on, exposed so a caller coordinating a burst across several
    /// queue pairs on the same NIC (one WQE per peer, all descriptors built
    /// before the doorbells are rung, as the mlx5 driver does for post
    /// bursts) can bill the chain across connections.
    pub fn post_send_chained(
        &self,
        wr_id: u64,
        request: SendRequest,
        signaled: bool,
        chained: bool,
    ) -> Result<()> {
        self.post_send_inner(wr_id, request, signaled, chained)
    }

    /// Post a write(-with-immediate) whose payload is *inlined* into the
    /// WQE: the NIC copies the bytes at post time, so no registered local
    /// buffer (and no DMA fetch) is involved — the zero-copy fast path rFaaS
    /// uses for small invocations. Fails with [`FabricError::InlineTooLarge`]
    /// beyond the device's `max_inline_data`.
    pub fn post_write_inline(
        &self,
        wr_id: u64,
        data: &[u8],
        remote: &RemoteMemoryHandle,
        imm: Option<u32>,
        signaled: bool,
    ) -> Result<()> {
        let max = self.profile().max_inline_data;
        if data.len() > max {
            return Err(FabricError::InlineTooLarge {
                len: data.len(),
                max,
            });
        }
        let peer = self.connected_peer("post_send")?;
        self.inner.ops_posted.fetch_add(1, Ordering::Relaxed);
        self.write_remote_bytes(wr_id, data, remote, imm, &peer, signaled, false)
    }

    fn post_send_inner(
        &self,
        wr_id: u64,
        request: SendRequest,
        signaled: bool,
        chained: bool,
    ) -> Result<()> {
        let peer = self.connected_peer("post_send")?;
        validate_sge(request.local())?;
        self.inner.ops_posted.fetch_add(1, Ordering::Relaxed);

        match &request {
            SendRequest::Send { local } => {
                self.execute_send(wr_id, local, &peer, signaled, chained)
            }
            SendRequest::Write { local, remote } => {
                self.execute_write(wr_id, local, remote, None, &peer, signaled, chained)
            }
            SendRequest::WriteWithImm { local, remote, imm } => {
                self.execute_write(wr_id, local, remote, Some(*imm), &peer, signaled, chained)
            }
            SendRequest::Read { local, remote } => {
                self.execute_read(wr_id, local, remote, &peer, signaled, chained)
            }
            SendRequest::AtomicFetchAdd { local, remote, add } => self.execute_atomic(
                wr_id,
                local,
                remote,
                AtomicOp::FetchAdd(*add),
                &peer,
                signaled,
                chained,
            ),
            SendRequest::AtomicCompareSwap {
                local,
                remote,
                compare,
                swap,
            } => self.execute_atomic(
                wr_id,
                local,
                remote,
                AtomicOp::CompareSwap {
                    compare: *compare,
                    swap: *swap,
                },
                &peer,
                signaled,
                chained,
            ),
        }
    }

    /// Consume the receive buffer an incoming message lands in: from the
    /// peer's SRQ when one is attached (honouring its credit), otherwise
    /// from its private receive queue — FIFO either way.
    ///
    /// An SRQ that is momentarily *empty* — every posted buffer in flight
    /// to the dispatcher — is not a receiver failure: the NIC answers with
    /// an RNR NAK and the sender retransmits, so this path spins until the
    /// consumer reposts (bounded by a generous wall-clock window). Only a
    /// genuine per-QP credit overrun, the flow-control contract that stops
    /// one tenant starving the shared queue, fails the post immediately.
    /// Retries never touch the virtual clock, so timestamps stay
    /// deterministic.
    fn consume_peer_recv(peer: &Arc<QpInner>) -> Result<RecvRequest> {
        const RNR_RETRY_WINDOW: std::time::Duration = std::time::Duration::from_secs(5);
        let srq = peer.srq.read().clone();
        match srq {
            Some(srq) => {
                let mut deadline = None;
                loop {
                    match srq.pop_for(peer.qp_num) {
                        Err(FabricError::ReceiverNotReady) if !srq.over_credit(peer.qp_num) => {
                            // simlint::allow(wall_clock, reason = "RNR retry window bounds the host-side spin; the retry itself is billed in virtual time")
                            let now = std::time::Instant::now();
                            match deadline {
                                None => deadline = Some(now + RNR_RETRY_WINDOW),
                                Some(d) if now >= d => return Err(FabricError::ReceiverNotReady),
                                Some(_) => {}
                            }
                            std::thread::yield_now();
                        }
                        other => return other,
                    }
                }
            }
            None => peer
                .recv_queue
                .lock()
                .pop_front()
                .ok_or(FabricError::ReceiverNotReady),
        }
    }

    fn connected_peer(&self, operation: &'static str) -> Result<Arc<QpInner>> {
        let state = self.state();
        if state != QpState::Connected {
            return Err(FabricError::InvalidQpState {
                operation,
                state: state.name(),
            });
        }
        let peer = self
            .inner
            .peer
            .read()
            .clone()
            .ok_or(FabricError::NotConnected)?;
        if *peer.state.read() != QpState::Connected {
            return Err(FabricError::ConnectionLost);
        }
        Ok(peer)
    }

    fn profile(&self) -> NicProfile {
        self.inner.fabric.profile().clone()
    }

    fn issue(&self, payload: usize, chained: bool) -> SimTime {
        let profile = self.profile();
        let issue = if chained {
            profile.issue_cost_chained(payload)
        } else {
            profile.issue_cost(payload)
        };
        let cost = issue + self.inner.function.message_overhead(&profile);
        self.inner.clock.advance(cost)
    }

    fn execute_send(
        &self,
        wr_id: u64,
        local: &Sge,
        peer: &Arc<QpInner>,
        signaled: bool,
        chained: bool,
    ) -> Result<()> {
        let profile = self.profile();
        let recv = Self::consume_peer_recv(peer)?;
        if recv.local.len < local.len {
            // The message is lost and the receive is consumed, as with a real
            // RC transport length error; report it to the initiator.
            return Err(FabricError::ReceiveBufferTooSmall {
                message_len: local.len,
                buffer_len: recv.local.len,
            });
        }
        let data = local.region.read(local.offset, local.len)?;
        recv.local.region.write(recv.local.offset, &data)?;

        let ready = self.issue(local.len, chained);
        let timing = self
            .inner
            .fabric
            .transfer(&self.inner.node, &peer.node, local.len, ready);
        peer.recv_cq.push(WorkCompletion {
            wr_id: recv.wr_id,
            opcode: OpCode::Recv,
            status: CompletionStatus::Success,
            byte_len: local.len,
            imm: None,
            timestamp: timing.arrive,
            qp_num: peer.qp_num,
        });
        if signaled {
            self.inner.send_cq.push(WorkCompletion {
                wr_id,
                opcode: OpCode::Send,
                status: CompletionStatus::Success,
                byte_len: local.len,
                imm: None,
                timestamp: timing.depart + profile.local_completion,
                qp_num: self.inner.qp_num,
            });
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn execute_write(
        &self,
        wr_id: u64,
        local: &Sge,
        remote: &RemoteMemoryHandle,
        imm: Option<u32>,
        peer: &Arc<QpInner>,
        signaled: bool,
        chained: bool,
    ) -> Result<()> {
        let data = local.region.read(local.offset, local.len)?;
        self.write_remote_bytes(wr_id, &data, remote, imm, peer, signaled, chained)
    }

    /// Shared body of buffered and inline writes: `data` already left the
    /// initiator's memory (gathered from the SGE or copied into the WQE).
    #[allow(clippy::too_many_arguments)]
    fn write_remote_bytes(
        &self,
        wr_id: u64,
        data: &[u8],
        remote: &RemoteMemoryHandle,
        imm: Option<u32>,
        peer: &Arc<QpInner>,
        signaled: bool,
        chained: bool,
    ) -> Result<()> {
        let profile = self.profile();
        let len = data.len();
        let target = peer.pd.lookup(remote.rkey)?;
        if !target.access().remote_write {
            return Err(FabricError::RemoteAccessDenied {
                required: "REMOTE_WRITE",
            });
        }
        if remote.offset + len > target.len() {
            return Err(FabricError::RemoteAccessOutOfBounds {
                offset: remote.offset,
                len,
                region_len: target.len(),
            });
        }
        // Write-with-immediate additionally consumes a posted receive so the
        // remote CPU learns about the delivery.
        let consumed_recv = if imm.is_some() {
            Some(Self::consume_peer_recv(peer)?)
        } else {
            None
        };

        target.write(remote.offset, data)?;

        let ready = self.issue(len, chained);
        let timing = self
            .inner
            .fabric
            .transfer(&self.inner.node, &peer.node, len, ready);
        if let Some(recv) = consumed_recv {
            peer.recv_cq.push(WorkCompletion {
                wr_id: recv.wr_id,
                opcode: OpCode::WriteWithImm,
                status: CompletionStatus::Success,
                byte_len: len,
                imm,
                timestamp: timing.arrive,
                qp_num: peer.qp_num,
            });
        }
        if signaled {
            self.inner.send_cq.push(WorkCompletion {
                wr_id,
                opcode: if imm.is_some() {
                    OpCode::WriteWithImm
                } else {
                    OpCode::Write
                },
                status: CompletionStatus::Success,
                byte_len: len,
                imm: None,
                timestamp: timing.depart + profile.local_completion,
                qp_num: self.inner.qp_num,
            });
        }
        Ok(())
    }

    fn execute_read(
        &self,
        wr_id: u64,
        local: &Sge,
        remote: &RemoteMemoryHandle,
        peer: &Arc<QpInner>,
        signaled: bool,
        chained: bool,
    ) -> Result<()> {
        let profile = self.profile();
        let source = peer.pd.lookup(remote.rkey)?;
        if !source.access().remote_read {
            return Err(FabricError::RemoteAccessDenied {
                required: "REMOTE_READ",
            });
        }
        if remote.offset + local.len > source.len() {
            return Err(FabricError::RemoteAccessOutOfBounds {
                offset: remote.offset,
                len: local.len,
                region_len: source.len(),
            });
        }
        let data = source.read(remote.offset, local.len)?;
        local.region.write(local.offset, &data)?;

        // Request travels to the target, the response streams the data back.
        let ready = self.issue(0, chained);
        let request_arrival = ready + profile.one_way_latency;
        let timing =
            self.inner
                .fabric
                .transfer(&peer.node, &self.inner.node, local.len, request_arrival);
        if signaled {
            self.inner.send_cq.push(WorkCompletion {
                wr_id,
                opcode: OpCode::Read,
                status: CompletionStatus::Success,
                byte_len: local.len,
                imm: None,
                timestamp: timing.arrive,
                qp_num: self.inner.qp_num,
            });
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn execute_atomic(
        &self,
        wr_id: u64,
        local: &Sge,
        remote: &RemoteMemoryHandle,
        op: AtomicOp,
        peer: &Arc<QpInner>,
        signaled: bool,
        chained: bool,
    ) -> Result<()> {
        let profile = self.profile();
        let target = peer.pd.lookup(remote.rkey)?;
        if !target.access().remote_atomic {
            return Err(FabricError::RemoteAccessDenied {
                required: "REMOTE_ATOMIC",
            });
        }
        if !remote.offset.is_multiple_of(8) || remote.offset + 8 > target.len() {
            return Err(FabricError::InvalidAtomicTarget {
                offset: remote.offset,
            });
        }
        if local.len < 8 {
            return Err(FabricError::LocalAccessOutOfBounds {
                offset: local.offset,
                len: 8,
                region_len: local.len,
            });
        }
        // The read-modify-write is atomic because the region lock is held for
        // the whole update.
        let original = target.with_bytes_mut(remote.offset, 8, |slot| {
            let old = u64::from_le_bytes(slot.try_into().expect("8-byte slot"));
            let new = match op {
                AtomicOp::FetchAdd(add) => old.wrapping_add(add),
                AtomicOp::CompareSwap { compare, swap } => {
                    if old == compare {
                        swap
                    } else {
                        old
                    }
                }
            };
            slot.copy_from_slice(&new.to_le_bytes());
            old
        })?;
        local.region.write(local.offset, &original.to_le_bytes())?;

        let ready = self.issue(8, chained);
        let completion_time =
            ready + profile.one_way_latency + profile.atomic_execution + profile.one_way_latency;
        if signaled {
            self.inner.send_cq.push(WorkCompletion {
                wr_id,
                opcode: match op {
                    AtomicOp::FetchAdd(_) => OpCode::AtomicFetchAdd,
                    AtomicOp::CompareSwap { .. } => OpCode::AtomicCompareSwap,
                },
                status: CompletionStatus::Success,
                byte_len: 8,
                imm: None,
                timestamp: completion_time,
                qp_num: self.inner.qp_num,
            });
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
enum AtomicOp {
    FetchAdd(u64),
    CompareSwap { compare: u64, swap: u64 },
}

fn validate_sge(sge: &Sge) -> Result<()> {
    let region_len = sge.region.len();
    if sge
        .offset
        .checked_add(sge.len)
        .map(|end| end <= region_len)
        .unwrap_or(false)
    {
        Ok(())
    } else {
        Err(FabricError::LocalAccessOutOfBounds {
            offset: sge.offset,
            len: sge.len,
            region_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::AccessFlags;

    /// Two directly connected endpoints on different nodes.
    fn connected_pair() -> (QueuePair, QueuePair, Arc<Fabric>) {
        let fabric = Fabric::with_defaults();
        let n1 = fabric.add_node("client");
        let n2 = fabric.add_node("server");
        let e1 = Endpoint::new(&fabric, &n1);
        let e2 = Endpoint::new(&fabric, &n2);
        let a = QueuePair::new(&e1);
        let b = QueuePair::new(&e2);
        QueuePair::connect_pair(&a, &b).unwrap();
        (a, b, fabric)
    }

    #[test]
    fn write_moves_bytes_into_remote_region() {
        let (client, server, _f) = connected_pair();
        let src = client
            .pd()
            .register_from(vec![5u8; 64], AccessFlags::LOCAL_ONLY);
        let dst = server.pd().register(64, AccessFlags::REMOTE_WRITE);
        client
            .post_send(
                1,
                SendRequest::Write {
                    local: Sge::whole(&src),
                    remote: dst.remote_handle(),
                },
                true,
            )
            .unwrap();
        assert_eq!(dst.read_all(), vec![5u8; 64]);
        let wc = client.send_cq().poll_one().unwrap();
        assert!(wc.is_success());
        assert_eq!(wc.opcode, OpCode::Write);
        assert_eq!(wc.byte_len, 64);
    }

    #[test]
    fn write_with_imm_delivers_immediate_and_consumes_recv() {
        let (client, server, _f) = connected_pair();
        let src = client
            .pd()
            .register_from(vec![9u8; 32], AccessFlags::LOCAL_ONLY);
        let dst = server.pd().register(32, AccessFlags::REMOTE_WRITE);
        let scratch = server.pd().register(8, AccessFlags::LOCAL_ONLY);
        server
            .post_recv(RecvRequest {
                wr_id: 77,
                local: Sge::whole(&scratch),
            })
            .unwrap();
        client
            .post_send(
                2,
                SendRequest::WriteWithImm {
                    local: Sge::whole(&src),
                    remote: dst.remote_handle(),
                    imm: 0xABCD,
                },
                false,
            )
            .unwrap();
        let wc = server.recv_cq().poll_one().unwrap();
        assert_eq!(wc.wr_id, 77);
        assert_eq!(wc.imm, Some(0xABCD));
        assert_eq!(wc.opcode, OpCode::WriteWithImm);
        assert_eq!(dst.read_all(), vec![9u8; 32]);
        assert_eq!(server.posted_receives(), 0);
        // Unsignaled send generates no local completion.
        assert_eq!(client.send_cq().pending(), 0);
    }

    #[test]
    fn write_with_imm_without_posted_recv_is_rejected() {
        let (client, server, _f) = connected_pair();
        let src = client.pd().register(16, AccessFlags::LOCAL_ONLY);
        let dst = server.pd().register(16, AccessFlags::REMOTE_WRITE);
        let err = client
            .post_send(
                3,
                SendRequest::WriteWithImm {
                    local: Sge::whole(&src),
                    remote: dst.remote_handle(),
                    imm: 1,
                },
                true,
            )
            .unwrap_err();
        assert_eq!(err, FabricError::ReceiverNotReady);
    }

    #[test]
    fn send_recv_round_trip() {
        let (client, server, _f) = connected_pair();
        let src = client
            .pd()
            .register_from(b"hello".to_vec(), AccessFlags::LOCAL_ONLY);
        let dst = server.pd().register(16, AccessFlags::LOCAL_ONLY);
        server
            .post_recv(RecvRequest {
                wr_id: 10,
                local: Sge::whole(&dst),
            })
            .unwrap();
        client
            .post_send(
                4,
                SendRequest::Send {
                    local: Sge::whole(&src),
                },
                true,
            )
            .unwrap();
        let wc = server.recv_cq().poll_one().unwrap();
        assert_eq!(wc.opcode, OpCode::Recv);
        assert_eq!(wc.byte_len, 5);
        assert_eq!(&dst.read(0, 5).unwrap(), b"hello");
    }

    #[test]
    fn send_to_small_buffer_fails() {
        let (client, server, _f) = connected_pair();
        let src = client.pd().register(64, AccessFlags::LOCAL_ONLY);
        let dst = server.pd().register(8, AccessFlags::LOCAL_ONLY);
        server
            .post_recv(RecvRequest {
                wr_id: 1,
                local: Sge::whole(&dst),
            })
            .unwrap();
        let err = client
            .post_send(
                5,
                SendRequest::Send {
                    local: Sge::whole(&src),
                },
                true,
            )
            .unwrap_err();
        assert!(matches!(err, FabricError::ReceiveBufferTooSmall { .. }));
    }

    #[test]
    fn read_fetches_remote_bytes() {
        let (client, server, _f) = connected_pair();
        let remote = server
            .pd()
            .register_from(vec![1, 2, 3, 4, 5, 6, 7, 8], AccessFlags::REMOTE_ALL);
        let local = client.pd().register(8, AccessFlags::LOCAL_ONLY);
        client
            .post_send(
                6,
                SendRequest::Read {
                    local: Sge::whole(&local),
                    remote: remote.remote_handle(),
                },
                true,
            )
            .unwrap();
        let wc = client.send_cq().poll_one().unwrap();
        assert_eq!(wc.opcode, OpCode::Read);
        assert_eq!(local.read_all(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn access_permissions_are_enforced() {
        let (client, server, _f) = connected_pair();
        let local = client.pd().register(8, AccessFlags::LOCAL_ONLY);
        let no_write = server.pd().register(
            8,
            AccessFlags {
                remote_write: false,
                ..AccessFlags::REMOTE_ALL
            },
        );
        let err = client
            .post_send(
                7,
                SendRequest::Write {
                    local: Sge::whole(&local),
                    remote: no_write.remote_handle(),
                },
                true,
            )
            .unwrap_err();
        assert!(matches!(err, FabricError::RemoteAccessDenied { .. }));

        let no_read = server.pd().register(8, AccessFlags::REMOTE_WRITE);
        let err = client
            .post_send(
                8,
                SendRequest::Read {
                    local: Sge::whole(&local),
                    remote: no_read.remote_handle(),
                },
                true,
            )
            .unwrap_err();
        assert!(matches!(err, FabricError::RemoteAccessDenied { .. }));

        let no_atomic = server.pd().register(8, AccessFlags::REMOTE_WRITE);
        let err = client
            .post_send(
                9,
                SendRequest::AtomicFetchAdd {
                    local: Sge::whole(&local),
                    remote: no_atomic.remote_handle(),
                    add: 1,
                },
                true,
            )
            .unwrap_err();
        assert!(matches!(err, FabricError::RemoteAccessDenied { .. }));
    }

    #[test]
    fn remote_out_of_bounds_is_rejected() {
        let (client, server, _f) = connected_pair();
        let local = client.pd().register(64, AccessFlags::LOCAL_ONLY);
        let dst = server.pd().register(16, AccessFlags::REMOTE_ALL);
        let err = client
            .post_send(
                10,
                SendRequest::Write {
                    local: Sge::whole(&local),
                    remote: dst.remote_handle(),
                },
                true,
            )
            .unwrap_err();
        assert!(matches!(err, FabricError::RemoteAccessOutOfBounds { .. }));
    }

    #[test]
    fn unknown_rkey_is_rejected() {
        let (client, _server, _f) = connected_pair();
        let local = client.pd().register(8, AccessFlags::LOCAL_ONLY);
        let err = client
            .post_send(
                11,
                SendRequest::Write {
                    local: Sge::whole(&local),
                    remote: RemoteMemoryHandle {
                        rkey: 0xffff_ffff,
                        offset: 0,
                        len: 8,
                    },
                },
                true,
            )
            .unwrap_err();
        assert!(matches!(err, FabricError::InvalidRemoteKey(_)));
    }

    #[test]
    fn atomic_fetch_add_accumulates() {
        let (client, server, _f) = connected_pair();
        let counter = server.pd().register(8, AccessFlags::REMOTE_ALL);
        let old_buf = client.pd().register(8, AccessFlags::LOCAL_ONLY);
        for i in 0..5u64 {
            client
                .post_send(
                    100 + i,
                    SendRequest::AtomicFetchAdd {
                        local: Sge::whole(&old_buf),
                        remote: counter.remote_handle(),
                        add: 10,
                    },
                    true,
                )
                .unwrap();
            let wc = client.send_cq().poll_one().unwrap();
            assert_eq!(wc.opcode, OpCode::AtomicFetchAdd);
            assert_eq!(old_buf.read_u64(0).unwrap(), i * 10);
        }
        assert_eq!(counter.read_u64(0).unwrap(), 50);
    }

    #[test]
    fn atomic_compare_swap_behaviour() {
        let (client, server, _f) = connected_pair();
        let word = server.pd().register(8, AccessFlags::REMOTE_ALL);
        word.write_u64(0, 42).unwrap();
        let old_buf = client.pd().register(8, AccessFlags::LOCAL_ONLY);
        // Successful CAS.
        client
            .post_send(
                1,
                SendRequest::AtomicCompareSwap {
                    local: Sge::whole(&old_buf),
                    remote: word.remote_handle(),
                    compare: 42,
                    swap: 99,
                },
                true,
            )
            .unwrap();
        assert_eq!(old_buf.read_u64(0).unwrap(), 42);
        assert_eq!(word.read_u64(0).unwrap(), 99);
        // Failed CAS leaves the value untouched and returns the current one.
        client
            .post_send(
                2,
                SendRequest::AtomicCompareSwap {
                    local: Sge::whole(&old_buf),
                    remote: word.remote_handle(),
                    compare: 42,
                    swap: 7,
                },
                true,
            )
            .unwrap();
        assert_eq!(old_buf.read_u64(0).unwrap(), 99);
        assert_eq!(word.read_u64(0).unwrap(), 99);
    }

    #[test]
    fn atomic_on_misaligned_offset_is_rejected() {
        let (client, server, _f) = connected_pair();
        let word = server.pd().register(16, AccessFlags::REMOTE_ALL);
        let old_buf = client.pd().register(8, AccessFlags::LOCAL_ONLY);
        let err = client
            .post_send(
                1,
                SendRequest::AtomicFetchAdd {
                    local: Sge::whole(&old_buf),
                    remote: word.remote_handle_range(4, 8).unwrap(),
                    add: 1,
                },
                true,
            )
            .unwrap_err();
        assert!(matches!(err, FabricError::InvalidAtomicTarget { .. }));
    }

    #[test]
    fn post_send_requires_connection() {
        let fabric = Fabric::with_defaults();
        let node = fabric.add_node("solo");
        let qp = QueuePair::new(&Endpoint::new(&fabric, &node));
        let mr = qp.pd().register(8, AccessFlags::LOCAL_ONLY);
        let err = qp
            .post_send(
                1,
                SendRequest::Send {
                    local: Sge::whole(&mr),
                },
                true,
            )
            .unwrap_err();
        assert!(matches!(err, FabricError::InvalidQpState { .. }));
    }

    #[test]
    fn disconnect_propagates_to_peer() {
        let (client, server, _f) = connected_pair();
        client.disconnect();
        assert_eq!(client.state(), QpState::Disconnected);
        assert_eq!(server.state(), QpState::Disconnected);
        assert!(!server.is_connected());
        let mr = server.pd().register(8, AccessFlags::LOCAL_ONLY);
        assert!(server
            .post_send(
                1,
                SendRequest::Send {
                    local: Sge::whole(&mr)
                },
                true
            )
            .is_err());
    }

    #[test]
    fn posting_clock_cost_is_small_and_independent_of_payload() {
        // RDMA posts are asynchronous: a 1 MiB write must not block the
        // caller's virtual clock for the serialization time.
        let (client, server, _f) = connected_pair();
        let src = client.pd().register(1024 * 1024, AccessFlags::LOCAL_ONLY);
        let dst = server.pd().register(1024 * 1024, AccessFlags::REMOTE_WRITE);
        let before = client.clock().now();
        client
            .post_send(
                1,
                SendRequest::Write {
                    local: Sge::whole(&src),
                    remote: dst.remote_handle(),
                },
                false,
            )
            .unwrap();
        let elapsed = client.clock().now().saturating_since(before);
        assert!(elapsed.as_micros_f64() < 1.0, "posting took {elapsed}");
    }

    #[test]
    fn receive_queue_depth_is_bounded() {
        let (_client, server, _f) = connected_pair();
        let mr = server.pd().register(8, AccessFlags::LOCAL_ONLY);
        let depth = Fabric::with_defaults().profile().max_recv_queue_depth;
        for i in 0..depth {
            server
                .post_recv(RecvRequest {
                    wr_id: i as u64,
                    local: Sge::whole(&mr),
                })
                .unwrap();
        }
        let err = server
            .post_recv(RecvRequest {
                wr_id: 0,
                local: Sge::whole(&mr),
            })
            .unwrap_err();
        assert!(matches!(err, FabricError::DeviceLimitExceeded { .. }));
    }

    #[test]
    fn inline_write_moves_bytes_without_a_local_region() {
        let (client, server, _f) = connected_pair();
        let dst = server.pd().register(64, AccessFlags::REMOTE_WRITE);
        let scratch = server.pd().register(8, AccessFlags::LOCAL_ONLY);
        server
            .post_recv(RecvRequest {
                wr_id: 5,
                local: Sge::whole(&scratch),
            })
            .unwrap();
        client
            .post_write_inline(1, b"inline!", &dst.remote_handle(), Some(0x42), false)
            .unwrap();
        let wc = server.recv_cq().poll_one().unwrap();
        assert_eq!(wc.imm, Some(0x42));
        assert_eq!(wc.byte_len, 7);
        assert_eq!(&dst.read(0, 7).unwrap(), b"inline!");
    }

    #[test]
    fn inline_write_respects_the_device_capacity() {
        let (client, server, fabric) = connected_pair();
        let max = fabric.profile().max_inline_data;
        let dst = server.pd().register(max + 64, AccessFlags::REMOTE_WRITE);
        let err = client
            .post_write_inline(1, &vec![0u8; max + 1], &dst.remote_handle(), None, false)
            .unwrap_err();
        assert!(matches!(err, FabricError::InlineTooLarge { .. }));
        // Exactly at the limit is fine (plain write, no immediate → no recv).
        client
            .post_write_inline(2, &vec![7u8; max], &dst.remote_handle(), None, false)
            .unwrap();
        assert_eq!(dst.read(0, max).unwrap(), vec![7u8; max]);
    }

    #[test]
    fn batched_posts_share_one_doorbell() {
        let (client, server, fabric) = connected_pair();
        let profile = fabric.profile().clone();
        let src = client.pd().register(8, AccessFlags::LOCAL_ONLY);
        let dst = server.pd().register(64, AccessFlags::REMOTE_ALL);
        let n = 4;
        let batch: Vec<(u64, SendRequest, bool)> = (0..n)
            .map(|i| {
                (
                    i,
                    SendRequest::Write {
                        local: Sge::whole(&src),
                        remote: dst.remote_handle_range(8 * i as usize, 8).unwrap(),
                    },
                    false,
                )
            })
            .collect();
        let before = client.clock().now();
        assert_eq!(client.post_send_batch(batch).unwrap(), n as usize);
        let elapsed = client.clock().now().saturating_since(before);
        let expected = profile.issue_cost(8) + profile.issue_cost_chained(8).saturating_mul(n - 1);
        assert_eq!(elapsed, expected);
        assert_eq!(client.ops_posted(), n);

        // The same posts issued individually cost strictly more clock time.
        let before = client.clock().now();
        for i in 0..n {
            client
                .post_send(
                    i,
                    SendRequest::Write {
                        local: Sge::whole(&src),
                        remote: dst.remote_handle_range(8 * i as usize, 8).unwrap(),
                    },
                    false,
                )
                .unwrap();
        }
        let unbatched = client.clock().now().saturating_since(before);
        assert!(unbatched > elapsed, "{unbatched} <= {elapsed}");
    }

    #[test]
    fn batch_stops_at_the_first_failure() {
        let (client, server, _f) = connected_pair();
        let src = client.pd().register(8, AccessFlags::LOCAL_ONLY);
        let good = server.pd().register(8, AccessFlags::REMOTE_WRITE);
        let sealed = server.pd().register(8, AccessFlags::LOCAL_ONLY);
        let err = client
            .post_send_batch(vec![
                (
                    1,
                    SendRequest::Write {
                        local: Sge::whole(&src),
                        remote: good.remote_handle(),
                    },
                    false,
                ),
                (
                    2,
                    SendRequest::Write {
                        local: Sge::whole(&src),
                        remote: sealed.remote_handle(),
                    },
                    false,
                ),
                (
                    3,
                    SendRequest::Write {
                        local: Sge::whole(&src),
                        remote: good.remote_handle(),
                    },
                    false,
                ),
            ])
            .unwrap_err();
        assert!(matches!(err, FabricError::RemoteAccessDenied { .. }));
        // The first write executed, the third never ran.
        assert_eq!(client.ops_posted(), 2); // first + failing second
    }

    #[test]
    fn qp_numbers_are_unique() {
        let (a, b, _f) = connected_pair();
        assert_ne!(a.qp_num(), b.qp_num());
        assert!(a.ops_posted() == 0);
    }
}
