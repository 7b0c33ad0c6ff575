//! Ablation bench: the RDMA message-inlining threshold (Sec. V-A's 128-byte
//! anomaly). Sweeps the payload across the inline boundary and reports the
//! virtual-time RTT of raw RDMA and of an rFaaS hot invocation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rfaas::PollingMode;
use rfaas_bench::Testbed;
use sandbox::SandboxType;
use sim_core::median;

fn inline_threshold(c: &mut Criterion) {
    let profile = rdma_fabric::NicProfile::mellanox_cx5_100g();
    println!(
        "[inline] threshold = {} bytes, non-inline DMA fetch = {}",
        profile.max_inline_data, profile.non_inline_dma_fetch
    );
    for payload in [64usize, 96, 128, 160, 256] {
        println!(
            "[inline] raw RDMA write ping-pong {payload} B: {:.3} us",
            profile.write_pingpong_rtt(payload).as_micros_f64()
        );
    }

    let testbed = Testbed::new(1);
    // The inline threshold is a zero-copy measurement: drive pre-registered
    // buffers through `Session::invoke_raw`, not the typed codec surface.
    let session =
        testbed.allocated_session("inline-client", 1, SandboxType::BareMetal, PollingMode::Hot);
    let alloc = session.allocator();
    let mut group = c.benchmark_group("inline_threshold");
    group.sample_size(15);
    for payload in [64usize, 96, 128, 160, 256] {
        let input = alloc.input(payload);
        let output = alloc.output(payload);
        input.write_payload(&vec![1u8; payload]).unwrap();
        session
            .invoke_raw("echo", &input, payload, &output)
            .unwrap();
        let virtual_us: Vec<f64> = (0..40)
            .map(|_| {
                session
                    .invoke_raw("echo", &input, payload, &output)
                    .unwrap()
                    .1
                    .as_micros_f64()
            })
            .collect();
        println!(
            "[inline] rFaaS hot {payload} B: median {:.3} us (header pushes the wire message past the inline limit earlier than raw RDMA)",
            median(&virtual_us)
        );
        group.bench_with_input(BenchmarkId::from_parameter(payload), &payload, |b, &p| {
            b.iter(|| session.invoke_raw("echo", &input, p, &output).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, inline_threshold);
criterion_main!(benches);
