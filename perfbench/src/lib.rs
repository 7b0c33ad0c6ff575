//! The rFaaS benchmark: four closed-loop workloads driven from one client
//! thread through the platform's public API, measured on the virtual clock
//! (what a tenant would see) and on the wall clock (what the implementation
//! costs). See `README.md` in this directory for the metrics, the workloads
//! and how to run it.

pub mod alloc;
pub mod harness;
pub mod metrics;
pub mod procfs;
pub mod trace;
pub mod workloads;

use std::time::Instant;

pub use harness::{Harness, Length, RunSpec};
use metrics::{result_json, Metrics, END_TO_END, PER_LAYER};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One hot worker, small echo at depth 1: the per-invocation fixed cost.
    HotSmall,
    /// 32 hot workers, one doorbell-batched scatter per wave, 4–64 KiB.
    ScatterGather,
    /// Connect, a few warm invocations, close — over warm pool and fork.
    LeaseChurn,
    /// Stateful reads beside state-plane writes.
    StateRw,
}

impl Workload {
    /// Every workload, in the order the notes list them.
    pub const ALL: [Workload; 4] = [
        Workload::HotSmall,
        Workload::ScatterGather,
        Workload::LeaseChurn,
        Workload::StateRw,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotSmall => "hot_small",
            Workload::ScatterGather => "scatter_gather",
            Workload::LeaseChurn => "lease_churn",
            Workload::StateRw => "state_rw",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// A digest of the inputs the workload generates from `seed` (for the
    /// check that seeds change inputs).
    pub fn inputs_digest(self, seed: u64) -> u64 {
        match self {
            Workload::HotSmall => workloads::hot_small::inputs_digest(seed),
            Workload::ScatterGather => workloads::scatter_gather::inputs_digest(seed),
            Workload::LeaseChurn => workloads::lease_churn::inputs_digest(seed),
            Workload::StateRw => workloads::state_rw::inputs_digest(seed),
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// No op failed and every check held.
    pub correct: bool,
    /// Ops attempted (plus one per violated invariant).
    pub attempted: u64,
    /// Ops that failed (plus one per violated invariant).
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics (from the untraced phase).
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Metrics,
    /// Samples behind the end-to-end percentiles.
    pub samples: u64,
    /// Ops per wall second of each window of the untraced phase.
    pub window_rates: Vec<f64>,
    /// Wall seconds of each set-up repetition.
    pub setup_times: Vec<f64>,
}

impl Report {
    /// The result line: end-to-end metrics, or per-layer ones when traced.
    pub fn json(&self, traced: bool) -> String {
        let (names, values) = if traced {
            (PER_LAYER, &self.per_layer)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        result_json(self.correct, self.attempted, self.failed, names, values)
    }
}

/// Run one workload. `process_start` is when the process began (the first
/// set-up is timed from it).
pub fn run(spec: RunSpec, process_start: Instant) -> Report {
    let mut h = Harness::new(spec, process_start);
    match h.spec.workload {
        Workload::HotSmall => workloads::hot_small::run(&mut h),
        Workload::ScatterGather => workloads::scatter_gather::run(&mut h),
        Workload::LeaseChurn => workloads::lease_churn::run(&mut h),
        Workload::StateRw => workloads::state_rw::run(&mut h),
    }
    if let Some(path) = h.spec.trace_file.clone().filter(|_| h.spec.trace) {
        if let Err(e) = h.tracer.write_jsonl(&path) {
            h.violation(format!("writing spans to {}: {e}", path.display()));
        }
    }
    let (attempted, failed, failures) = h.outcome();
    let (attempted, failed, failures) = (attempted, failed, failures.to_vec());
    Report {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        failures,
        end_to_end: h.end_to_end(),
        per_layer: if h.spec.trace {
            h.per_layer()
        } else {
            Metrics::new()
        },
        samples: h.sample_count(),
        window_rates: h.window_rates(),
        setup_times: h.setup_times().to_vec(),
    }
}
