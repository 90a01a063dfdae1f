//! # psa-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§IV):
//!
//! | Artefact | Binary | What it prints |
//! |----------|--------|----------------|
//! | Fig. 5   | `fig5`   | hotspot speedups of all generated designs vs the 1-thread reference, paper vs measured |
//! | Table I  | `table1` | added LOC per generated design |
//! | Fig. 6   | `fig6`   | relative FPGA/GPU cost across price ratios |
//! | Table II | `table2` | the related-work capability matrix |
//!
//! The library half hosts the shared runner: apply the full PSA-flow (both
//! modes) to each of the five benchmarks and collect measured speedups.

pub mod faultargs;
pub mod obsout;

use psa_benchsuite::Benchmark;
use psaflow_core::{
    run_flow_job, DeviceKind, EvalCache, ExecMode, FlowEngine, FlowJob, FlowMode, FlowOutcome,
    PsaParams, TargetKind,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Measured counterpart of one Fig. 5 row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasuredRow {
    pub key: String,
    pub name: String,
    pub auto_selected: Option<f64>,
    pub omp: Option<f64>,
    pub hip_1080: Option<f64>,
    pub hip_2080: Option<f64>,
    pub oneapi_a10: Option<f64>,
    pub oneapi_s10: Option<f64>,
    /// Target family the informed strategy selected.
    pub selected_target: Option<TargetKind>,
    /// Reference (1-thread CPU) time at the evaluation workload.
    pub reference_time_s: f64,
}

/// The flow parameters for one suite benchmark
/// (see [`PsaParams::for_benchmark`]).
pub fn params_for(bench: &Benchmark) -> PsaParams {
    PsaParams::for_benchmark(bench)
}

/// Run the uninformed flow (all design versions) and the informed decision
/// for one benchmark; collect speedups per device. With the parallel engine
/// the two flow modes also run concurrently; with the sequential engine
/// everything stays on the calling thread. Both modes share `cache`, so the
/// uninformed sweep hits the profiled runs and model estimates the informed
/// flow already paid for (and vice versa); outputs are identical either way.
pub fn run_benchmark(
    engine: FlowEngine,
    bench: &Benchmark,
    cache: Arc<EvalCache>,
) -> Result<(MeasuredRow, FlowOutcome), String> {
    let params = PsaParams::for_benchmark(bench);
    let run = |mode: FlowMode, params: PsaParams| {
        let job = FlowJob::new(&bench.source, &bench.key, mode, params);
        run_flow_job(
            engine,
            FlowJob {
                cache: Arc::clone(&cache),
                ..job
            },
        )
    };
    let (uninformed, informed) = if engine.mode() == ExecMode::Parallel {
        let uninformed_params = params.clone();
        crossbeam::thread::scope(|s| {
            let u = s.spawn(|_| run(FlowMode::Uninformed, uninformed_params));
            let i = s.spawn(|_| run(FlowMode::Informed, params));
            (
                u.join().expect("uninformed flow panicked"),
                i.join().expect("informed flow panicked"),
            )
        })
        .expect("benchmark mode scope")
    } else {
        (
            run(FlowMode::Uninformed, params.clone()),
            run(FlowMode::Informed, params),
        )
    };
    let uninformed = uninformed.map_err(|e| format!("{}: {e}", bench.key))?;
    let informed = informed.map_err(|e| format!("{}: {e}", bench.key))?;

    let speedup = |device: DeviceKind| -> Option<f64> {
        uninformed
            .design_for(device)?
            .speedup(uninformed.reference_time_s)
    };

    // Auto-Selected: the fastest design generated by the *informed* flow
    // (for GPU/FPGA targets that is the best of the two device variants).
    let auto_selected = informed.auto_selected_speedup();

    let row = MeasuredRow {
        key: bench.key.clone(),
        name: bench.name.clone(),
        auto_selected,
        omp: speedup(DeviceKind::Epyc7543),
        hip_1080: speedup(DeviceKind::Gtx1080Ti),
        hip_2080: speedup(DeviceKind::Rtx2080Ti),
        oneapi_a10: speedup(DeviceKind::Arria10),
        oneapi_s10: speedup(DeviceKind::Stratix10),
        selected_target: informed.selected_target,
        reference_time_s: uninformed.reference_time_s,
    };
    Ok((row, uninformed))
}

/// Run all five benchmarks, each on its own thread under the parallel
/// engine (one at a time under the sequential one, for timing baselines
/// and debugging). Results are collected in benchmark order, so the rows
/// are identical either way. Every benchmark and both flow modes share
/// `cache`: pass [`EvalCache::disabled`] to measure the uncached baseline,
/// or reuse one cache across repeated sweeps for fully warm runs.
pub fn run_all(
    engine: FlowEngine,
    cache: Arc<EvalCache>,
) -> Result<Vec<(MeasuredRow, FlowOutcome)>, String> {
    let benches = psa_benchsuite::all();
    if engine.mode() == ExecMode::Sequential {
        return benches
            .iter()
            .map(|b| run_benchmark(engine, b, Arc::clone(&cache)))
            .collect();
    }
    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = benches
            .iter()
            .map(|b| {
                let cache = Arc::clone(&cache);
                s.spawn(move |_| run_benchmark(engine, b, cache))
            })
            .collect();
        // Join every handle before folding: a short-circuiting collect
        // would drop unjoined handles on the first benchmark error, and
        // the scope would panic instead of returning it.
        let joined: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("benchmark thread panicked"))
            .collect();
        joined.into_iter().collect()
    })
    .expect("benchmark scope")
}

/// Format an optional speedup.
pub fn fmt_speedup(v: Option<f64>) -> String {
    match v {
        Some(x) if x >= 100.0 => format!("{x:.0}x"),
        Some(x) => format!("{x:.1}x"),
        None => "n/a".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_speedup_forms() {
        assert_eq!(fmt_speedup(Some(751.4)), "751x");
        assert_eq!(fmt_speedup(Some(1.42)), "1.4x");
        assert_eq!(fmt_speedup(None), "n/a");
    }
}
