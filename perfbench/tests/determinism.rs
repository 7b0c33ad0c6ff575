//! Virtual time is the model's claim about the hardware, so for a fixed
//! seed and a fixed number of steps it must not depend on how the host
//! schedules threads. These tests run each workload twice at the same seed
//! and compare the virtual metrics and the bill bit for bit.
//!
//! `scatter_gather` is the known exception: the order in which a wave's
//! completions are gathered depends on how the client thread and the
//! executor's dispatcher thread interleave, and each invocation's virtual
//! latency with it. Its spread is printed, not asserted.

use std::time::Instant;

use rfaas_perfbench::{run, Length, Report, RunSpec, Workload};

const VIRTUAL: [&str; 4] = [
    "virt_op_us_p50",
    "virt_op_us_p99",
    "virt_ops_per_s",
    "billed_usd_per_mop",
];

fn short_run(workload: Workload, seed: u64, steps: u64) -> Report {
    let report = run(
        RunSpec {
            workload,
            seed,
            length: Length::Steps(steps),
            trace: false,
            trace_file: None,
        },
        Instant::now(),
    );
    assert!(
        report.correct,
        "{} seed {seed} failed: {:?}",
        workload.name(),
        report.failures
    );
    report
}

fn virtual_bits(report: &Report) -> Vec<(&'static str, u64)> {
    VIRTUAL
        .iter()
        .map(|name| (*name, report.end_to_end[*name].to_bits()))
        .collect()
}

fn assert_repeatable(workload: Workload, steps: u64) {
    let first = short_run(workload, 7, steps);
    let second = short_run(workload, 7, steps);
    assert_eq!(
        virtual_bits(&first),
        virtual_bits(&second),
        "{}: virtual metrics differ across two runs of one seed",
        workload.name()
    );
    for name in VIRTUAL {
        assert!(first.end_to_end[name] > 0.0, "{name} must be measured");
    }
}

#[test]
fn hot_small_virtual_time_is_a_function_of_the_seed() {
    assert_repeatable(Workload::HotSmall, 400);
}

#[test]
fn state_rw_virtual_time_is_a_function_of_the_seed() {
    assert_repeatable(Workload::StateRw, 400);
}

#[test]
fn lease_churn_virtual_time_is_a_function_of_the_seed() {
    assert_repeatable(Workload::LeaseChurn, 40);
}

#[test]
fn scatter_gather_virtual_spread_is_reported_not_asserted() {
    let runs: Vec<Report> = (0..2)
        .map(|_| short_run(Workload::ScatterGather, 7, 120))
        .collect();
    for name in VIRTUAL {
        let values: Vec<f64> = runs.iter().map(|r| r.end_to_end[name]).collect();
        println!("scatter_gather {name} over two runs of seed 7: {values:?}");
    }
}

#[test]
fn seeds_change_the_generated_inputs() {
    for workload in Workload::ALL {
        assert_eq!(
            workload.inputs_digest(1),
            workload.inputs_digest(1),
            "{}: one seed must give one input set",
            workload.name()
        );
        assert_ne!(
            workload.inputs_digest(1),
            workload.inputs_digest(2),
            "{}: another seed must give other inputs",
            workload.name()
        );
    }
}
