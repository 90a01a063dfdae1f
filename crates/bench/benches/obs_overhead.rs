//! Flight-recorder overhead benchmark: the full five-benchmark sweep with
//! the recorder off (one relaxed atomic load per instrumentation site)
//! versus armed (span stack, ring journaling, span table) — measuring what
//! `--recorder-dump=` costs while no dump is ever written.
//!
//! Hand-timed harness (`harness = false`): each sample is a cold
//! `run_all` with a fresh evaluation cache on the sequential
//! engine (single-threaded, so medians are not scheduler noise). Emits
//! machine-readable results to `BENCH_obs.json` at the workspace root; CI
//! guards `overhead_pct <= 5`.
//!
//! Run with: `cargo bench -p psa-bench --bench obs_overhead`

use psa_bench::run_all;
use psaflow_core::{EvalCache, FlowEngine};
use std::sync::Arc;
use std::time::Instant;

const SAMPLES: usize = 15;

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// One cold sweep per repetition; a sample aggregates [`SWEEPS`] of them
/// so single-sweep jitter (±15% on a busy box) averages down before the
/// pair ratio is taken.
const SWEEPS: usize = 3;

fn one_sweep(engine: FlowEngine) -> f64 {
    psa_obs::recorder::reset();
    let start = Instant::now();
    let r = run_all(engine, Arc::new(EvalCache::new())).expect("sweep runs");
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(r.len(), 5, "all five benchmarks produce rows");
    elapsed
}

fn one_sample(engine: FlowEngine) -> f64 {
    (0..SWEEPS).map(|_| one_sweep(engine)).sum::<f64>() / SWEEPS as f64
}

fn main() {
    let engine = FlowEngine::sequential();
    // Warmup both legs (also validates the runs).
    psa_obs::recorder::set_enabled(false);
    one_sweep(engine);
    psa_obs::recorder::set_enabled(true);
    one_sweep(engine);

    // Machine load on a shared box drifts on timescales far longer than
    // one ~80 ms sweep, so absolute medians (or even minima) of separately
    // run legs swing by ±10%. Two *adjacent* sweeps, however, see the same
    // load — so the overhead is estimated as the median of per-pair
    // on/off ratios, with the in-pair order alternating to cancel any
    // systematic first/second-run effect.
    let mut off = Vec::with_capacity(SAMPLES);
    let mut on = Vec::with_capacity(SAMPLES);
    let mut pair_pct = Vec::with_capacity(SAMPLES);
    for i in 0..SAMPLES {
        let (o, r) = if i % 2 == 0 {
            psa_obs::recorder::set_enabled(false);
            let o = one_sample(engine);
            psa_obs::recorder::set_enabled(true);
            (o, one_sample(engine))
        } else {
            psa_obs::recorder::set_enabled(true);
            let r = one_sample(engine);
            psa_obs::recorder::set_enabled(false);
            (one_sample(engine), r)
        };
        off.push(o);
        on.push(r);
        pair_pct.push((r / o - 1.0) * 100.0);
        if std::env::var_os("OBS_BENCH_VERBOSE").is_some() {
            eprintln!("pair {i}: off {o:.3} on {r:.3} -> {:+.2}%", pair_pct[i]);
        }
    }
    // Events journaled by the last recorded sweep (ring residue + evicted).
    let snapshot = psa_obs::recorder::snapshot();
    let events_recorded: u64 = snapshot
        .workers
        .iter()
        .map(|w| w.dropped + w.events.len() as u64)
        .sum();
    psa_obs::recorder::set_enabled(false);

    let baseline_ms = median(off);
    let recorder_ms = median(on);
    let overhead_pct = median(pair_pct);
    println!("{:<10} {:>12} {:>12}", "recorder", "sweep ms", "overhead %");
    println!("{:<10} {baseline_ms:>12.3} {:>+12.2}", "off", 0.0);
    println!("{:<10} {recorder_ms:>12.3} {overhead_pct:>+12.2}", "on");
    println!("events recorded per sweep: {events_recorded}");

    // Machine-readable record (hand-formatted; the compat serde shim has no
    // serializer for ad-hoc structs and this keeps the schema explicit).
    let json = format!(
        "{{\n  \"benchmark\": \"obs_overhead\",\n  \
         \"unit\": \"median_pct_of_{SAMPLES}_paired_cold_sequential_sweeps\",\n  \
         \"baseline_ms\": {baseline_ms:.3},\n  \
         \"recorder_ms\": {recorder_ms:.3},\n  \
         \"overhead_pct\": {overhead_pct:.2},\n  \
         \"events_recorded\": {events_recorded}\n}}\n"
    );

    // Workspace root = two levels above this crate's manifest.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = format!("{root}/BENCH_obs.json");
    std::fs::write(&path, json).expect("write BENCH_obs.json");
    println!("wrote {path}");
}
