//! Criterion bench: end-to-end PSA-flow runtime per benchmark and mode —
//! the cost of *regenerating Fig. 5's designs* from scratch (parse →
//! dynamic analyses → strategy → transforms → DSE → codegen).
//!
//! Reduced-size analysis workloads keep each iteration sub-second; the
//! design decisions are workload-size-invariant for these apps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psaflow_core::{full_psa_flow, FlowMode, PsaParams, ScaleFactors};

/// Small-workload variants of the five benchmarks (same structure, faster
/// dynamic analyses).
fn small_suite() -> Vec<(&'static str, String, bool)> {
    vec![
        ("rushlarsen", psa_benchsuite::rushlarsen::source(48), false),
        ("nbody", psa_benchsuite::nbody::source(48), true),
        ("bezier", psa_benchsuite::bezier::source(10), true),
        (
            "adpredictor",
            psa_benchsuite::adpredictor::source(128),
            true,
        ),
        ("kmeans", psa_benchsuite::kmeans::source(256), true),
    ]
}

fn params(sp_safe: bool) -> PsaParams {
    PsaParams {
        sp_safe,
        scale: ScaleFactors {
            compute: 1000.0,
            data: 1000.0,
            threads: 1000.0,
        },
        ..PsaParams::default()
    }
}

fn bench_flows(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_full_flow");
    group.sample_size(10);
    for (key, source, sp_safe) in small_suite() {
        group.bench_with_input(BenchmarkId::new("informed", key), &source, |b, src| {
            b.iter(|| full_psa_flow(src, key, FlowMode::Informed, params(sp_safe)).expect("runs"))
        });
        group.bench_with_input(BenchmarkId::new("uninformed", key), &source, |b, src| {
            b.iter(|| full_psa_flow(src, key, FlowMode::Uninformed, params(sp_safe)).expect("runs"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_flows);
criterion_main!(benches);
