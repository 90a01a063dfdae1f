//! Fault-tolerance soak: deterministic fault injection across all five
//! benchmarks under both engines.
//!
//! Each case installs a **context-local** [`FaultPlan`] (so concurrently
//! running tests never see each other's faults) that kills every task in
//! one device's sub-flow, then checks the paper's sweep under
//! [`FailurePolicy::DegradePaths`]:
//!
//! * the flow still completes, and the injured device's design is gone;
//! * every surviving design is **byte-identical** to the fault-free run's,
//!   in the same (path-index) order — degradation is surgical;
//! * the failure is logged with the right branch and path label, and the
//!   error is the injected one.
//!
//! Under the default `FailFast` policy the same plan turns into a typed
//! flow error (never a panic or a hang).

use psaflow::benchsuite;
use psaflow::core::{
    run_flow_job, DeviceKind, FailurePolicy, FlowEngine, FlowError, FlowJob, FlowMode, FlowOutcome,
    PsaParams,
};
use psaflow::faults::{FaultPlan, Seam};
use std::sync::Arc;

fn run(
    engine: FlowEngine,
    bench: &benchsuite::Benchmark,
    faults: Option<Arc<FaultPlan>>,
) -> Result<FlowOutcome, FlowError> {
    let params = PsaParams::for_benchmark(bench);
    let job = FlowJob::new(&bench.source, &bench.key, FlowMode::Uninformed, params);
    run_flow_job(engine, FlowJob { faults, ..job })
}

/// A plan whose task seam kills everything inside one device's sub-flow
/// (flow names embed the device label, so the site is path-unique and the
/// plan fires identically under both engines, whatever the schedule).
fn kill_device(device: DeviceKind) -> Arc<FaultPlan> {
    let prefix = match device.target() {
        psaflow::core::TargetKind::CpuGpu => "gpu-",
        psaflow::core::TargetKind::CpuFpga => "fpga-",
        psaflow::core::TargetKind::MultiThreadCpu => "cpu-",
    };
    Arc::new(FaultPlan::new(0x50AC).fail(
        Seam::Task,
        &format!("{prefix}{}", device.label()),
        "transform",
        "soak: injected toolchain failure",
    ))
}

#[test]
fn degrade_paths_soak_all_benchmarks_both_engines() {
    let injured = DeviceKind::Rtx2080Ti;
    for engine in [FlowEngine::parallel(), FlowEngine::sequential()] {
        for bench in benchsuite::all() {
            let ctx = format!("{} ({:?})", bench.key, engine.mode());
            let baseline = run(engine, &bench, None).expect("fault-free sweep runs");
            assert!(
                baseline.failures.is_empty(),
                "{ctx}: clean run logs nothing"
            );

            let faulted = run(
                engine.with_policy(FailurePolicy::DegradePaths),
                &bench,
                Some(kill_device(injured)),
            )
            .unwrap_or_else(|e| panic!("{ctx}: degraded sweep must survive: {e}"));

            // The injured device's design is gone; nothing else moved.
            assert!(
                faulted.design_for(injured).is_none(),
                "{ctx}: injured design must be dropped"
            );
            let surviving: Vec<_> = baseline
                .designs
                .iter()
                .filter(|d| d.device != injured)
                .collect();
            assert_eq!(
                faulted.designs.len(),
                surviving.len(),
                "{ctx}: exactly the injured designs are missing"
            );
            for (f, b) in faulted.designs.iter().zip(&surviving) {
                assert_eq!(f.device, b.device, "{ctx}: survivor order (path index)");
                assert_eq!(f.source, b.source, "{ctx}: survivor sources byte-equal");
                assert_eq!(
                    f.estimated_time_s, b.estimated_time_s,
                    "{ctx}: survivor estimates equal"
                );
            }

            // The degradation is logged against the GPU device branch with
            // the injected error.
            assert!(!faulted.failures.is_empty(), "{ctx}: failure logged");
            for failure in &faulted.failures {
                assert_eq!(failure.branch, "B (GPU device)", "{ctx}");
                assert_eq!(failure.label, "rtx-2080-ti", "{ctx}");
                assert_eq!(
                    failure.error,
                    FlowError::transform("soak: injected toolchain failure"),
                    "{ctx}"
                );
            }
        }
    }
}

#[test]
fn fpga_degradation_is_equally_surgical() {
    let injured = DeviceKind::Stratix10;
    let bench = benchsuite::by_key("adpredictor").unwrap();
    for engine in [FlowEngine::parallel(), FlowEngine::sequential()] {
        let baseline = run(engine, &bench, None).expect("fault-free sweep runs");
        let faulted = run(
            engine.with_policy(FailurePolicy::DegradePaths),
            &bench,
            Some(kill_device(injured)),
        )
        .expect("degraded sweep survives");
        assert!(faulted.design_for(injured).is_none());
        assert!(faulted.design_for(DeviceKind::Arria10).is_some());
        assert_eq!(faulted.designs.len(), baseline.designs.len() - 1);
        assert!(faulted
            .failures
            .iter()
            .all(|f| f.branch == "C (FPGA device)" && f.label == "stratix10"));
    }
}

#[test]
fn failfast_surfaces_the_injected_error_as_a_typed_failure() {
    let bench = benchsuite::by_key("nbody").unwrap();
    for engine in [FlowEngine::parallel(), FlowEngine::sequential()] {
        let err = run(engine, &bench, Some(kill_device(DeviceKind::Rtx2080Ti)))
            .expect_err("failfast propagates the injected error");
        assert_eq!(
            err,
            FlowError::transform("soak: injected toolchain failure")
        );
    }
}

#[test]
fn panic_injection_degrades_without_tearing_down_the_sweep() {
    let bench = benchsuite::by_key("bezier").unwrap();
    let plan = Arc::new(FaultPlan::new(1).panic_at(
        Seam::Task,
        "gpu-GeForce RTX 2080 Ti",
        "soak: injected panic",
    ));
    let outcome = run(
        FlowEngine::parallel().with_policy(FailurePolicy::DegradePaths),
        &bench,
        Some(plan),
    )
    .expect("panicking path degrades, sweep survives");
    assert!(outcome.design_for(DeviceKind::Rtx2080Ti).is_none());
    assert!(outcome.design_for(DeviceKind::Gtx1080Ti).is_some());
    assert!(outcome.failures.iter().any(|f| {
        matches!(&f.error, FlowError::Internal { message }
            if message.contains("panicked") && message.contains("soak: injected panic"))
    }));
}
