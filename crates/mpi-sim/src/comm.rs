//! Point-to-point communication and the world/rank runtime.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use parking_lot::Mutex;
use sim_core::{SimDuration, SimTime, VirtualClock};

/// Communication cost constants of the message-passing layer.
#[derive(Debug, Clone)]
pub struct MpiCostModel {
    /// One-way message latency (same switch as the RDMA fabric).
    pub latency: SimDuration,
    /// Link bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Per-message software overhead on each side (matching, progress engine).
    pub per_message_overhead: SimDuration,
}

impl MpiCostModel {
    /// MPI over the evaluation cluster's 100 Gb/s RoCE link.
    pub fn cluster_100g() -> MpiCostModel {
        MpiCostModel {
            latency: SimDuration::from_nanos(1_700),
            bandwidth_bytes_per_sec: 11_686.4 * 1024.0 * 1024.0,
            per_message_overhead: SimDuration::from_nanos(450),
        }
    }

    /// Transfer duration of `bytes` on the wire.
    pub fn serialization(&self, bytes: usize) -> SimDuration {
        if bytes == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec)
        }
    }
}

impl Default for MpiCostModel {
    fn default() -> Self {
        MpiCostModel::cluster_100g()
    }
}

/// A message in flight between two ranks.
#[derive(Debug, Clone)]
pub(crate) struct Message {
    pub(crate) source: usize,
    pub(crate) tag: u32,
    pub(crate) data: Vec<u8>,
    pub(crate) arrival: SimTime,
}

/// Result of one rank's execution.
#[derive(Debug, Clone)]
pub struct RankResult<R> {
    /// The rank index.
    pub rank: usize,
    /// The value the rank's body returned.
    pub value: R,
    /// The rank's virtual clock at the end of its body.
    pub finish_time: SimTime,
}

/// The handle a rank body uses to communicate.
pub struct Rank {
    rank: usize,
    size: usize,
    clock: Arc<VirtualClock>,
    cost: MpiCostModel,
    senders: Vec<Sender<Message>>,
    receiver: Receiver<Message>,
    // Messages received but not yet requested (out-of-order matching).
    stash: Mutex<Vec<Message>>,
}

impl Rank {
    /// This rank's index in `[0, size)`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The rank's virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// Charge local computation time.
    pub fn compute(&self, work: SimDuration) {
        self.clock.advance(work);
    }

    /// Send `data` to `dest` with the given tag (non-blocking, eager).
    pub fn send(&self, dest: usize, tag: u32, data: &[u8]) {
        assert!(dest < self.size, "destination rank {dest} out of range");
        let ready = self.clock.advance(self.cost.per_message_overhead);
        let arrival = ready + self.cost.latency + self.cost.serialization(data.len());
        let message = Message {
            source: self.rank,
            tag,
            data: data.to_vec(),
            arrival,
        };
        self.senders[dest]
            .send(message)
            .expect("rank channel closed");
    }

    /// Send a slice of `f64`s.
    pub fn send_f64(&self, dest: usize, tag: u32, data: &[f64]) {
        let mut bytes = Vec::with_capacity(data.len() * 8);
        for v in data {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.send(dest, tag, &bytes);
    }

    /// Blocking receive of the next message from `source` with `tag`.
    pub fn recv(&self, source: usize, tag: u32) -> Vec<u8> {
        // First look in the stash for an already-delivered match.
        {
            let mut stash = self.stash.lock();
            if let Some(pos) = stash
                .iter()
                .position(|m| m.source == source && m.tag == tag)
            {
                let message = stash.remove(pos);
                self.clock
                    .advance_to_then(message.arrival, self.cost.per_message_overhead);
                return message.data;
            }
        }
        loop {
            let message = self.receiver.recv().expect("rank channel closed");
            if message.source == source && message.tag == tag {
                self.clock
                    .advance_to_then(message.arrival, self.cost.per_message_overhead);
                return message.data;
            }
            self.stash.lock().push(message);
        }
    }

    /// Receive a slice of `f64`s.
    pub fn recv_f64(&self, source: usize, tag: u32) -> Vec<f64> {
        self.recv(source, tag)
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect()
    }
}

/// The MPI world: spawns one thread per rank and runs a body on each.
#[derive(Debug, Clone, Default)]
pub struct MpiWorld {
    cost: MpiCostModel,
}

impl MpiWorld {
    /// A world with the default cluster cost model.
    pub fn new() -> MpiWorld {
        MpiWorld {
            cost: MpiCostModel::default(),
        }
    }

    /// A world with an explicit cost model.
    pub fn with_cost_model(cost: MpiCostModel) -> MpiWorld {
        MpiWorld { cost }
    }

    /// Run `body` on `size` ranks and collect each rank's result, sorted by
    /// rank index.
    pub fn run<R, F>(&self, size: usize, body: F) -> Vec<RankResult<R>>
    where
        R: Send,
        F: Fn(&Rank) -> R + Send + Sync,
    {
        assert!(size > 0, "world size must be positive");
        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let body = &body;
        let cost = &self.cost;
        let senders = &senders;
        let mut results: Vec<RankResult<R>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(size);
            for (rank_idx, receiver) in receivers.into_iter().enumerate() {
                handles.push(scope.spawn(move || {
                    let rank = Rank {
                        rank: rank_idx,
                        size,
                        clock: VirtualClock::shared(),
                        cost: cost.clone(),
                        senders: senders.to_vec(),
                        receiver,
                        stash: Mutex::new(Vec::new()),
                    };
                    let value = body(&rank);
                    RankResult {
                        rank: rank_idx,
                        value,
                        finish_time: rank.clock.now(),
                    }
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        });
        results.sort_by_key(|r| r.rank);
        results
    }

    /// Parallel-application makespan: the latest finish time over all ranks.
    pub fn makespan<R>(results: &[RankResult<R>]) -> SimTime {
        results
            .iter()
            .map(|r| r.finish_time)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_moves_data_and_time() {
        let world = MpiWorld::new();
        let results = world.run(2, |rank| {
            if rank.rank() == 0 {
                rank.send(1, 7, &[1, 2, 3, 4]);
                rank.recv(1, 8)
            } else {
                let data = rank.recv(0, 7);
                rank.send(0, 8, &data);
                data
            }
        });
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].value, vec![1, 2, 3, 4]);
        assert_eq!(results[1].value, vec![1, 2, 3, 4]);
        // A ping-pong costs at least two latencies on rank 0's clock.
        assert!(results[0].finish_time.as_micros_f64() > 3.0);
    }

    #[test]
    fn f64_send_recv_round_trip() {
        let world = MpiWorld::new();
        let results = world.run(2, |rank| {
            if rank.rank() == 0 {
                rank.send_f64(1, 1, &[1.5, -2.5, 1e300]);
                Vec::new()
            } else {
                rank.recv_f64(0, 1)
            }
        });
        assert_eq!(results[1].value, vec![1.5, -2.5, 1e300]);
    }

    #[test]
    fn out_of_order_tags_are_matched() {
        let world = MpiWorld::new();
        let results = world.run(2, |rank| {
            if rank.rank() == 0 {
                rank.send(1, 100, b"first");
                rank.send(1, 200, b"second");
                0usize
            } else {
                // Receive in reverse tag order: the stash must hold "first".
                let second = rank.recv(0, 200);
                let first = rank.recv(0, 100);
                assert_eq!(second, b"second");
                assert_eq!(first, b"first");
                first.len() + second.len()
            }
        });
        assert_eq!(results[1].value, 11);
    }

    #[test]
    fn compute_advances_only_local_clock() {
        let world = MpiWorld::new();
        let results = world.run(2, |rank| {
            if rank.rank() == 0 {
                rank.compute(SimDuration::from_millis(5));
            }
            rank.clock().now()
        });
        assert!(results[0].value.as_millis_f64() >= 5.0);
        assert!(results[1].value.as_millis_f64() < 1.0);
        assert!(MpiWorld::makespan(&results).as_millis_f64() >= 5.0);
    }

    #[test]
    fn large_messages_charge_bandwidth() {
        let world = MpiWorld::new();
        let payload = vec![0u8; 16 * 1024 * 1024];
        let results = world.run(2, |rank| {
            if rank.rank() == 0 {
                rank.send(1, 0, &payload);
                SimDuration::ZERO
            } else {
                let start = rank.clock().now();
                rank.recv(0, 0);
                rank.clock().now().saturating_since(start)
            }
        });
        let transfer = results[1].value.as_millis_f64();
        // 16 MiB at ~12 GB/s ≈ 1.3 ms.
        assert!(
            (1.0..2.5).contains(&transfer),
            "16 MiB transfer {transfer} ms"
        );
    }

    #[test]
    #[should_panic]
    fn zero_rank_world_panics() {
        MpiWorld::new().run(0, |_| ());
    }
}
