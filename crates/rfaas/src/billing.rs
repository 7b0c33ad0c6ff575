//! Billing: the pay-as-you-go accounting of Sec. IV-C.
//!
//! The total cost of a lease is `C = Ca·ta + Cc·tc + Ch·th`, where `ta` is the
//! allocation time weighted by the leased memory, `tc` the active computation
//! time and `th` the hot-polling time. The paper implements the accumulation
//! with RDMA fetch-and-add operations into a global database owned by the
//! resource manager, so that lightweight allocators never need an RPC to
//! report usage — and this module does exactly that over the software fabric:
//! every executor registration reserves a 3-word slot in the manager's
//! registered billing region, and the executor flushes the usage of every
//! lease it hosts into that slot with remote atomics. A lease's usage
//! (`ResourceManager::lease_usage`) is therefore the cumulative usage of the
//! executor hosting it.

use rdma_fabric::{
    AccessFlags, Endpoint, MemoryRegion, QueuePair, RemoteMemoryHandle, SendRequest, Sge,
};
use sim_core::sync::{ranks, OrderedMutex};
use sim_core::SimDuration;

use crate::config::RFaasConfig;
use crate::error::Result;

/// Number of 8-byte words per billing slot: allocation, compute, hot-poll.
const WORDS_PER_SLOT: usize = 3;
/// Maximum number of executor registrations the billing database can account
/// simultaneously.
pub const BILLING_SLOTS: usize = 4096;

/// Usage accumulated by one executor across the leases it hosts, in microseconds
/// of virtual time (allocation time is additionally weighted by GiB).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UsageRecord {
    /// Allocation time × memory, in GiB·µs.
    pub allocation_gib_us: u64,
    /// Active computation time, in µs.
    pub compute_us: u64,
    /// Hot-polling time, in µs.
    pub hot_poll_us: u64,
}

impl UsageRecord {
    /// Merge another record into this one.
    pub fn accumulate(&mut self, other: &UsageRecord) {
        self.allocation_gib_us += other.allocation_gib_us;
        self.compute_us += other.compute_us;
        self.hot_poll_us += other.hot_poll_us;
    }

    /// Whether the record is empty (nothing to flush).
    pub fn is_empty(&self) -> bool {
        *self == UsageRecord::default()
    }

    /// Monetary cost of this usage under the configured rates.
    pub fn cost(&self, config: &RFaasConfig) -> f64 {
        let seconds = 1.0e-6;
        config.price_allocation * (self.allocation_gib_us as f64 * seconds)
            + config.price_compute * (self.compute_us as f64 * seconds)
            + config.price_hot_polling * (self.hot_poll_us as f64 * seconds)
    }
}

/// The manager-side billing database: a registered memory region of
/// per-executor counters updated by remote atomics, so reads never race with
/// executor updates.
#[derive(Debug)]
pub struct BillingDatabase {
    region: MemoryRegion,
    next_slot: OrderedMutex<usize>,
}

impl BillingDatabase {
    /// Create the database inside the manager's protection domain.
    pub fn new(manager_endpoint: &Endpoint) -> BillingDatabase {
        let region = manager_endpoint
            .pd
            .register(BILLING_SLOTS * WORDS_PER_SLOT * 8, AccessFlags::REMOTE_ALL);
        BillingDatabase {
            region,
            next_slot: OrderedMutex::new(ranks::BILLING_SLOTS, 0),
        }
    }

    /// Reserve a slot for a newly registered executor. Slots are recycled
    /// only when the database wraps, which is fine for the simulated
    /// horizons.
    pub fn reserve_slot(&self) -> usize {
        let mut next = self.next_slot.lock();
        let slot = *next % BILLING_SLOTS;
        *next += 1;
        slot
    }

    /// Remote handle an executor needs to update `slot` with atomics.
    pub fn slot_handle(&self, slot: usize) -> RemoteMemoryHandle {
        self.region
            .remote_handle_range(slot * WORDS_PER_SLOT * 8, WORDS_PER_SLOT * 8)
            .expect("billing slot within region")
    }

    /// Read the accumulated usage of a slot.
    pub fn read_slot(&self, slot: usize) -> UsageRecord {
        let base = slot * WORDS_PER_SLOT * 8;
        UsageRecord {
            allocation_gib_us: self.region.read_u64(base).expect("slot in range"),
            compute_us: self.region.read_u64(base + 8).expect("slot in range"),
            hot_poll_us: self.region.read_u64(base + 16).expect("slot in range"),
        }
    }

    /// Total cost accumulated across all slots.
    pub fn total_cost(&self, config: &RFaasConfig) -> f64 {
        (0..BILLING_SLOTS)
            .map(|slot| self.read_slot(slot).cost(config))
            .sum()
    }
}

/// Executor-side billing client: accumulates usage locally and flushes it to
/// the manager's database with RDMA fetch-and-add.
#[derive(Debug)]
pub struct BillingClient {
    qp: QueuePair,
    slot: RemoteMemoryHandle,
    scratch: MemoryRegion,
    pending: OrderedMutex<UsageRecord>,
}

impl BillingClient {
    /// Create a client flushing into `slot` over the (already connected)
    /// queue pair `qp`.
    pub fn new(qp: QueuePair, slot: RemoteMemoryHandle) -> BillingClient {
        let scratch = qp.pd().register(8, AccessFlags::LOCAL_ONLY);
        BillingClient {
            qp,
            slot,
            scratch,
            pending: OrderedMutex::new(ranks::BILLING_PENDING, UsageRecord::default()),
        }
    }

    /// Record usage locally (cheap, no network).
    pub fn record(&self, usage: UsageRecord) {
        self.pending.lock().accumulate(&usage);
    }

    /// Record compute time.
    pub fn record_compute(&self, time: SimDuration) {
        self.record(UsageRecord {
            compute_us: time.as_micros_f64().round() as u64,
            ..UsageRecord::default()
        });
    }

    /// Record hot-polling time.
    pub fn record_hot_poll(&self, time: SimDuration) {
        self.record(UsageRecord {
            hot_poll_us: time.as_micros_f64().round() as u64,
            ..UsageRecord::default()
        });
    }

    /// Record allocation time for `memory_mib` of leased memory.
    pub fn record_allocation(&self, time: SimDuration, memory_mib: u64) {
        let gib = memory_mib as f64 / 1024.0;
        self.record(UsageRecord {
            allocation_gib_us: (time.as_micros_f64() * gib).round() as u64,
            ..UsageRecord::default()
        });
    }

    /// Flush pending usage to the manager's database with up to three remote
    /// fetch-and-add operations chained behind a single doorbell (the
    /// executor pays one MMIO per flush, not one per counter). A no-op when
    /// nothing is pending.
    pub fn flush(&self) -> Result<()> {
        let pending = {
            let mut guard = self.pending.lock();
            let snapshot = *guard;
            *guard = UsageRecord::default();
            snapshot
        };
        if pending.is_empty() {
            return Ok(());
        }
        let words = [
            pending.allocation_gib_us,
            pending.compute_us,
            pending.hot_poll_us,
        ];
        let batch: Vec<(u64, SendRequest, bool)> = words
            .iter()
            .enumerate()
            .filter(|(_, add)| **add != 0)
            .map(|(i, add)| {
                (
                    i as u64,
                    SendRequest::AtomicFetchAdd {
                        local: Sge::whole(&self.scratch),
                        remote: self.slot.slice(i * 8, 8),
                        add: *add,
                    },
                    true,
                )
            })
            .collect();
        let posted = self.qp.post_send_batch(batch)?;
        // Consume the completions so the send queue does not fill up.
        self.qp.send_cq().poll(posted + 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_fabric::Fabric;

    fn setup() -> (BillingDatabase, BillingClient) {
        let fabric = Fabric::with_defaults();
        let manager_node = fabric.add_node("manager");
        let executor_node = fabric.add_node("executor");
        let manager_ep = Endpoint::new(&fabric, &manager_node);
        let executor_ep = Endpoint::new(&fabric, &executor_node);
        let db = BillingDatabase::new(&manager_ep);
        let manager_qp = QueuePair::new(&manager_ep);
        let executor_qp = QueuePair::new(&executor_ep);
        QueuePair::connect_pair(&manager_qp, &executor_qp).unwrap();
        let slot = db.reserve_slot();
        let client = BillingClient::new(executor_qp, db.slot_handle(slot));
        (db, client)
    }

    #[test]
    fn usage_record_arithmetic_and_cost() {
        let mut a = UsageRecord {
            allocation_gib_us: 10,
            compute_us: 20,
            hot_poll_us: 30,
        };
        let b = UsageRecord {
            allocation_gib_us: 1,
            compute_us: 2,
            hot_poll_us: 3,
        };
        a.accumulate(&b);
        assert_eq!(
            a,
            UsageRecord {
                allocation_gib_us: 11,
                compute_us: 22,
                hot_poll_us: 33
            }
        );
        assert!(!a.is_empty());
        assert!(UsageRecord::default().is_empty());
        let config = RFaasConfig::default();
        let cost = a.cost(&config);
        assert!(cost > 0.0);
        // Compute and hot-poll seconds are priced equally.
        let compute_only = UsageRecord {
            compute_us: 1_000_000,
            ..Default::default()
        };
        let hot_only = UsageRecord {
            hot_poll_us: 1_000_000,
            ..Default::default()
        };
        assert!((compute_only.cost(&config) - hot_only.cost(&config)).abs() < 1e-12);
    }

    #[test]
    fn slots_are_distinct_and_in_range() {
        let fabric = Fabric::with_defaults();
        let ep = Endpoint::new(&fabric, &fabric.add_node("m"));
        let db = BillingDatabase::new(&ep);
        let a = db.reserve_slot();
        let b = db.reserve_slot();
        assert_ne!(a, b);
        assert!(a < BILLING_SLOTS && b < BILLING_SLOTS);
        let h = db.slot_handle(b);
        assert_eq!(h.len, 24);
        assert_eq!(h.offset, b * 24);
    }

    #[test]
    fn flush_accumulates_into_manager_database() {
        let (db, client) = setup();
        client.record_compute(SimDuration::from_millis(3));
        client.record_hot_poll(SimDuration::from_micros(500));
        client.record_allocation(SimDuration::from_secs(1), 2048);
        client.flush().unwrap();
        let usage = db.read_slot(0);
        assert_eq!(usage.compute_us, 3_000);
        assert_eq!(usage.hot_poll_us, 500);
        assert_eq!(usage.allocation_gib_us, 2_000_000);
        // A second flush adds on top (fetch-and-add semantics).
        client.record_compute(SimDuration::from_millis(1));
        client.flush().unwrap();
        assert_eq!(db.read_slot(0).compute_us, 4_000);
        // Three fetch-and-adds for the first flush, one for the second.
        assert_eq!(client.qp.ops_posted(), 4);
    }

    #[test]
    fn empty_flush_is_a_noop() {
        let (db, client) = setup();
        client.flush().unwrap();
        assert!(db.read_slot(0).is_empty());
        assert_eq!(client.qp.ops_posted(), 0);
    }

    #[test]
    fn total_cost_reflects_rates() {
        let (db, client) = setup();
        client.record_compute(SimDuration::from_secs(10));
        client.flush().unwrap();
        let config = RFaasConfig::default();
        let expected = config.price_compute * 10.0;
        assert!((db.total_cost(&config) - expected).abs() < 1e-6);
    }
}
