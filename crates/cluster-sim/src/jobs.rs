//! Batch jobs and a simple FCFS + backfilling scheduler.
//!
//! The job generator produces an arrival process whose steady-state node
//! utilisation sits in the 80–94% band reported for petascale systems
//! (Sec. II-A) while memory stays largely free, with enough burstiness that
//! idle windows open and close over minutes — the behaviour Fig. 2 shows for
//! Piz Daint.

use std::collections::VecDeque;

use sim_core::{DeterministicRng, SimDuration, SimTime};

use crate::node::{ClusterNode, NodeResources};

/// One batch job.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Job identifier.
    pub id: u64,
    /// Submission time.
    pub submit_time: SimTime,
    /// Number of nodes requested (jobs are node-exclusive per node count).
    pub nodes: usize,
    /// Per-node resource request.
    pub per_node: NodeResources,
    /// Requested wall time.
    pub duration: SimDuration,
}

/// Generates a synthetic batch workload.
#[derive(Debug)]
pub struct JobGenerator {
    rng: DeterministicRng,
    next_id: u64,
    /// Mean inter-arrival time.
    mean_interarrival: SimDuration,
    /// Node shape used to size per-job memory requests.
    node_shape: NodeResources,
    cluster_nodes: usize,
}

impl JobGenerator {
    /// Generator for a cluster of `cluster_nodes` nodes of `node_shape`.
    pub fn new(seed: u64, cluster_nodes: usize, node_shape: NodeResources) -> JobGenerator {
        JobGenerator {
            rng: DeterministicRng::new(seed),
            next_id: 1,
            // Calibrated so that the scheduler keeps ~85-90% of cores busy.
            mean_interarrival: SimDuration::from_secs(45),
            node_shape,
            cluster_nodes,
        }
    }

    /// Generate all jobs submitted within `horizon`, in submission order.
    pub fn generate(&mut self, horizon: SimDuration) -> Vec<BatchJob> {
        let mut jobs = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            let gap = SimDuration::from_secs_f64(
                self.rng.exponential(self.mean_interarrival.as_secs_f64()),
            );
            t += gap;
            if t.saturating_since(SimTime::ZERO) > horizon {
                break;
            }
            jobs.push(self.next_job(t));
        }
        jobs
    }

    fn next_job(&mut self, submit_time: SimTime) -> BatchJob {
        let id = self.next_id;
        self.next_id += 1;
        // Node counts follow a heavy-ish tail: mostly small jobs, a few wide.
        let nodes = match self.rng.range_u64(0, 100) {
            0..=59 => self.rng.range_u64(1, 3) as usize,
            60..=84 => {
                self.rng
                    .range_u64(2, (self.cluster_nodes as u64 / 4).max(3)) as usize
            }
            85..=95 => {
                self.rng
                    .range_u64(2, (self.cluster_nodes as u64 / 2).max(3)) as usize
            }
            _ => self.rng.range_u64(
                (self.cluster_nodes as u64 / 2).max(2),
                self.cluster_nodes as u64 + 1,
            ) as usize,
        };
        // HPC jobs request (nearly) all cores but typically use a quarter of
        // the memory (Sec. II-A cites ~75% of memory unused).
        let core_fraction = self.rng.range_f64(0.85, 1.0);
        let memory_fraction = self.rng.range_f64(0.08, 0.45);
        let per_node = NodeResources {
            cores: ((self.node_shape.cores as f64) * core_fraction).round() as u32,
            memory_mib: ((self.node_shape.memory_mib as f64) * memory_fraction) as u64,
        };
        // Runtimes from minutes to a few hours, log-ish distribution.
        let minutes = self.rng.range_f64(3.0, 30.0) * self.rng.range_f64(1.0, 8.0);
        BatchJob {
            id,
            submit_time,
            nodes: nodes.max(1),
            per_node,
            duration: SimDuration::from_secs_f64(minutes * 60.0),
        }
    }
}

/// A running job's placement.
#[derive(Debug, Clone)]
struct RunningJob {
    job: BatchJob,
    node_indices: Vec<usize>,
    end_time: SimTime,
}

/// First-come-first-served scheduler with trivial backfilling: a job runs as
/// soon as enough nodes have the requested per-node resources free.
#[derive(Debug)]
pub struct BatchScheduler {
    nodes: Vec<ClusterNode>,
    queue: VecDeque<BatchJob>,
    running: Vec<RunningJob>,
    completed: usize,
}

impl BatchScheduler {
    /// Scheduler over `node_count` nodes of shape `node_shape`.
    pub fn new(node_count: usize, node_shape: NodeResources) -> BatchScheduler {
        BatchScheduler {
            nodes: (0..node_count)
                .map(|i| ClusterNode::new(&format!("nid{i:05}"), node_shape))
                .collect(),
            queue: VecDeque::new(),
            running: Vec::new(),
            completed: 0,
        }
    }

    /// Submit a job to the queue.
    pub fn submit(&mut self, job: BatchJob) {
        self.queue.push_back(job);
    }

    /// Advance the scheduler to `now`: finish jobs whose wall time elapsed and
    /// start queued jobs that fit.
    pub fn advance_to(&mut self, now: SimTime) {
        // Complete finished jobs.
        let mut still_running = Vec::with_capacity(self.running.len());
        for run in self.running.drain(..) {
            if run.end_time <= now {
                for &idx in &run.node_indices {
                    self.nodes[idx].release_batch(run.job.per_node);
                }
                self.completed += 1;
            } else {
                still_running.push(run);
            }
        }
        self.running = still_running;

        // Start queued jobs (FCFS with skip-over backfilling).
        let mut remaining = VecDeque::new();
        while let Some(job) = self.queue.pop_front() {
            if job.submit_time > now {
                remaining.push_back(job);
                continue;
            }
            match self.try_place(&job) {
                Some(node_indices) => {
                    let end_time = now + job.duration;
                    self.running.push(RunningJob {
                        job,
                        node_indices,
                        end_time,
                    });
                }
                None => remaining.push_back(job),
            }
        }
        self.queue = remaining;
    }

    fn try_place(&mut self, job: &BatchJob) -> Option<Vec<usize>> {
        let candidates: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.idle().can_fit(&job.per_node))
            .map(|(i, _)| i)
            .take(job.nodes)
            .collect();
        if candidates.len() < job.nodes {
            return None;
        }
        for &idx in &candidates {
            assert!(self.nodes[idx].allocate_batch(job.per_node));
        }
        Some(candidates)
    }

    /// Immutable view of the cluster nodes.
    pub fn nodes(&self) -> &[ClusterNode] {
        &self.nodes
    }

    /// Mutable view (used by the harvester to reserve idle resources).
    pub fn nodes_mut(&mut self) -> &mut [ClusterNode] {
        &mut self.nodes
    }

    /// Number of queued (not yet started) jobs.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Number of running jobs.
    pub fn running(&self) -> usize {
        self.running.len()
    }

    /// Number of completed jobs.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Cluster-wide fraction of cores allocated to batch jobs.
    pub fn core_utilization(&self) -> f64 {
        let total: u64 = self.nodes.iter().map(|n| n.total.cores as u64).sum();
        let used: u64 = self
            .nodes
            .iter()
            .map(|n| n.batch_allocated.cores.min(n.total.cores) as u64)
            .sum();
        if total == 0 {
            0.0
        } else {
            used as f64 / total as f64
        }
    }

    /// Cluster-wide fraction of memory free.
    pub fn free_memory_fraction(&self) -> f64 {
        let total: u64 = self.nodes.iter().map(|n| n.total.memory_mib).sum();
        let used: u64 = self
            .nodes
            .iter()
            .map(|n| n.batch_allocated.memory_mib.min(n.total.memory_mib))
            .sum();
        if total == 0 {
            0.0
        } else {
            1.0 - used as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> NodeResources {
        NodeResources::xeon_gold_6154_dual()
    }

    #[test]
    fn generator_is_deterministic() {
        let horizon = SimDuration::from_secs(3600);
        let a = JobGenerator::new(7, 16, shape()).generate(horizon);
        let b = JobGenerator::new(7, 16, shape()).generate(horizon);
        assert_eq!(a.len(), b.len());
        assert!(a.len() > 10);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.nodes, y.nodes);
            assert_eq!(x.duration, y.duration);
        }
    }

    #[test]
    fn generated_jobs_fit_the_node_shape() {
        let jobs = JobGenerator::new(11, 16, shape()).generate(SimDuration::from_secs(7200));
        for job in &jobs {
            assert!(job.per_node.cores <= shape().cores);
            assert!(job.per_node.memory_mib <= shape().memory_mib);
            assert!(job.nodes >= 1 && job.nodes <= 16);
            assert!(job.duration.as_secs_f64() > 60.0);
        }
    }

    #[test]
    fn scheduler_starts_and_completes_jobs() {
        let mut sched = BatchScheduler::new(4, shape());
        sched.submit(BatchJob {
            id: 1,
            submit_time: SimTime::ZERO,
            nodes: 2,
            per_node: NodeResources {
                cores: 36,
                memory_mib: 1024,
            },
            duration: SimDuration::from_secs(100),
        });
        sched.advance_to(SimTime::from_secs(1));
        assert_eq!(sched.running(), 1);
        assert_eq!(sched.queued(), 0);
        assert!(sched.core_utilization() > 0.4);
        sched.advance_to(SimTime::from_secs(200));
        assert_eq!(sched.running(), 0);
        assert_eq!(sched.completed(), 1);
        assert_eq!(sched.core_utilization(), 0.0);
    }

    #[test]
    fn oversized_jobs_wait_in_queue() {
        let mut sched = BatchScheduler::new(2, shape());
        let big = BatchJob {
            id: 1,
            submit_time: SimTime::ZERO,
            nodes: 3,
            per_node: NodeResources {
                cores: 36,
                memory_mib: 1024,
            },
            duration: SimDuration::from_secs(10),
        };
        sched.submit(big);
        sched.advance_to(SimTime::from_secs(1));
        assert_eq!(sched.running(), 0);
        assert_eq!(sched.queued(), 1);
    }

    #[test]
    fn utilization_lands_in_the_hpc_band() {
        // Drive a 32-node cluster with the synthetic workload for 12 hours of
        // virtual time and check the time-averaged utilisation band.
        let nodes = 32;
        let mut sched = BatchScheduler::new(nodes, shape());
        let mut gen = JobGenerator::new(42, nodes, shape());
        let jobs = gen.generate(SimDuration::from_secs(12 * 3600));
        for job in jobs {
            sched.submit(job);
        }
        let mut samples = Vec::new();
        let mut free_mem = Vec::new();
        for minute in 0..(12 * 60) {
            sched.advance_to(SimTime::from_secs(minute * 60));
            if minute > 120 {
                samples.push(sched.core_utilization());
                free_mem.push(sched.free_memory_fraction());
            }
        }
        let avg = samples.iter().sum::<f64>() / samples.len() as f64;
        let avg_free_mem = free_mem.iter().sum::<f64>() / free_mem.len() as f64;
        assert!((0.70..0.99).contains(&avg), "core utilization {avg}");
        assert!(avg_free_mem > 0.55, "free memory {avg_free_mem}");
        // Idle windows must exist (otherwise there is nothing to harvest).
        assert!(samples.iter().any(|&u| u < 0.97));
    }
}
