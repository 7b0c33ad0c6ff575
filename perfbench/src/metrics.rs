//! Metric names, units and the small statistics the report needs.
//!
//! The two lists below are the benchmark's contract: a run without tracing
//! reports exactly [`END_TO_END`], a traced run exactly [`PER_LAYER`], for
//! every workload. A layer that does no work on a workload reports 0.

use std::collections::BTreeMap;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_ops_per_s", "ops/s"),
    ("wall_op_us_p50", "us"),
    ("wall_op_us_p90", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mib", "MiB"),
    ("virt_op_us_p50", "us"),
    ("virt_op_us_p99", "us"),
    ("virt_ops_per_s", "ops/s"),
    ("billed_usd_per_mop", "USD"),
    ("success_ratio", "1"),
];

/// Per-layer metrics of the traced run: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    // rfaas::session
    ("session.submit.wall_us_p50", "us"),
    ("session.submit.wall_us_p99", "us"),
    ("session.wait.wall_us_p50", "us"),
    ("session.wait.wall_us_p99", "us"),
    ("session.allocs_per_op", "count"),
    ("session.alloc_bytes_per_op", "B"),
    ("session.ascending_sizes.alloc_bytes_per_op", "B"),
    ("session.recoveries", "count"),
    // rfaas::codec
    ("codec.encode.wall_ns_per_kib", "ns/KiB"),
    ("codec.decode.wall_ns_per_kib", "ns/KiB"),
    // rfaas::reactor
    ("reactor.turns_per_op", "count"),
    ("reactor.dispatched_per_turn", "1"),
    ("reactor.pumped_minus_dispatched", "count"),
    // rfaas::client batching and connection plane
    ("batch.doorbells_per_wave", "count"),
    ("batch.chained_wqes_per_wave", "count"),
    ("batch.post.virt_us_p50", "us"),
    ("conn.opened", "count"),
    ("conn.pool_hit_ratio", "1"),
    ("conn.srq_high_watermark", "count"),
    // allocation path: manager + executor allocator + connection manager
    ("alloc.connect.wall_us_p50", "us"),
    ("alloc.connect.wall_us_p99", "us"),
    ("alloc.close.wall_us_p50", "us"),
    ("alloc.manager.virt_us_p50", "us"),
    ("alloc.request.virt_us_p50", "us"),
    ("alloc.spawn.virt_us_p50", "us"),
    ("alloc.code.virt_us_p50", "us"),
    ("alloc.workers.virt_us_p50", "us"),
    // rfaas::executor
    ("worker.invocations", "count"),
    ("worker.rejected", "count"),
    ("worker.failed", "count"),
    ("worker.demotions", "count"),
    ("worker.busy.virt_us_per_op", "us"),
    ("worker.hot_poll.virt_us_per_op", "us"),
    // rfaas::billing
    ("billing.compute_us_per_op", "us"),
    ("billing.hot_poll_us_per_op", "us"),
    ("billing.allocation_gib_us_per_op", "GiB.us"),
    ("billing.compute_to_busy_ratio", "1"),
    // sandbox: warm pool and fork
    ("warm_pool.hit_ratio", "1"),
    ("warm_pool.evictions", "count"),
    ("warm_pool.rejected", "count"),
    ("fork.pages_faulted_per_episode", "count"),
    ("fork.fault.virt_us_per_episode", "us"),
    // state-plane
    ("state.put.wall_us_p50", "us"),
    ("state.put.virt_us_p50", "us"),
    ("state.cache_hit_ratio", "1"),
    ("state.remote_reads_per_op", "count"),
    ("state.bytes_read_per_op", "B"),
    ("state.control_frames_per_op", "count"),
    // rdma-fabric
    ("fabric.raw_rtt.virt_us", "us"),
    ("rfaas.overhead_over_rdma.virt_ns", "ns"),
    // process
    ("proc.threads_peak", "count"),
    ("proc.ctx_switches_per_op", "count"),
    ("proc.cpu_user_us_per_op", "us"),
    ("proc.cpu_sys_us_per_op", "us"),
    // self time per span name (wall, traced phase)
    ("self.op.wall_us_per_op", "us"),
    ("self.session.submit.wall_us_per_op", "us"),
    ("self.session.wait.wall_us_per_op", "us"),
    ("self.codec.encode.wall_us_per_op", "us"),
    ("self.codec.decode.wall_us_per_op", "us"),
    ("self.alloc.connect.wall_us_per_op", "us"),
    ("self.alloc.close.wall_us_per_op", "us"),
    ("self.state.put.wall_us_per_op", "us"),
    // tracer
    ("trace.overhead_pct", "%"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// Nearest-rank percentile `q` (0..=1) of `samples`, sorting them in place.
/// Empty input gives 0.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    let (_, value, _) = samples.select_nth_unstable(rank - 1);
    *value
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Render one result line: the JSON object the benchmark prints last, with
/// the listed metrics in order and their units.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &Metrics,
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = values.get(*name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count);
    }
}
