//! Fault-tolerance overhead benchmark: the full five-benchmark sweep under
//! each failure policy, with **no fault plan installed** — measuring what
//! the robustness machinery (policy dispatch, catch_unwind at every task
//! and path, seam probes, deadline checks) costs when nothing ever fails.
//!
//! Hand-timed harness (`harness = false`): each sample is a cold
//! `run_all` with a fresh evaluation cache on the sequential
//! engine (single-threaded, so medians are not scheduler noise). Emits
//! machine-readable results to `BENCH_robustness.json` at the workspace
//! root; CI guards `max_overhead_pct <= 5`.
//!
//! Run with: `cargo bench -p psa-bench --bench robustness_overhead`

use psa_bench::run_all;
use psaflow_core::{EvalCache, FailurePolicy, FlowEngine};
use std::sync::Arc;
use std::time::Instant;

const SAMPLES: usize = 5;

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn time_policy(policy: FailurePolicy) -> f64 {
    let engine = FlowEngine::sequential().with_policy(policy);
    // Warmup (also validates the run).
    let rows = run_all(engine, Arc::new(EvalCache::new())).expect("sweep runs");
    assert_eq!(rows.len(), 5, "all five benchmarks produce rows");
    assert!(
        rows.iter().all(|(_, o)| o.failures.is_empty()),
        "no fault plan is installed, so nothing may fail"
    );
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            let r = run_all(engine, Arc::new(EvalCache::new())).expect("sweep runs");
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(r.len(), rows.len(), "non-deterministic sweep");
            elapsed
        })
        .collect();
    median_ms(samples)
}

fn main() {
    let policies = [
        ("failfast", FailurePolicy::FailFast),
        ("degrade", FailurePolicy::DegradePaths),
        (
            "retry",
            FailurePolicy::parse("retry:3").expect("valid policy"),
        ),
    ];
    println!("{:<10} {:>12} {:>12}", "policy", "sweep ms", "overhead %");
    let mut rows = Vec::new();
    let mut baseline_ms = 0.0;
    for (name, policy) in policies {
        let ms = time_policy(policy);
        if rows.is_empty() {
            baseline_ms = ms;
        }
        let overhead_pct = (ms - baseline_ms) / baseline_ms * 100.0;
        println!("{name:<10} {ms:>12.3} {overhead_pct:>+12.2}");
        rows.push((name, ms, overhead_pct));
    }
    let max_overhead_pct = rows
        .iter()
        .map(|&(_, _, o)| o)
        .fold(f64::NEG_INFINITY, f64::max);
    println!("max overhead vs failfast: {max_overhead_pct:+.2}%");

    // Machine-readable record (hand-formatted; the compat serde shim has no
    // serializer for ad-hoc structs and this keeps the schema explicit).
    let mut json = String::from("{\n  \"benchmark\": \"robustness_overhead\",\n");
    json.push_str(&format!(
        "  \"unit\": \"ms_median_of_{SAMPLES}_cold_sequential_sweeps\",\n  \"policies\": [\n"
    ));
    for (i, (name, ms, overhead_pct)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"policy\": \"{name}\", \"sweep_ms\": {ms:.3}, \"overhead_pct\": {overhead_pct:.2}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"baseline_ms\": {baseline_ms:.3},\n  \"max_overhead_pct\": {max_overhead_pct:.2}\n}}\n"
    ));

    // Workspace root = two levels above this crate's manifest.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = format!("{root}/BENCH_robustness.json");
    std::fs::write(&path, json).expect("write BENCH_robustness.json");
    println!("wrote {path}");
}
