//! Process-global fault plans: the ambient `psa_faults::install` path and
//! the seams that live *below* the flow layer (platform-model estimates,
//! cache lookups), which have no `FlowContext` to carry a plan.
//!
//! This file is deliberately its own integration-test binary: a global
//! plan is process-wide, and sharing a process with the context-local soak
//! tests would inject faults into their fault-free baselines. Tests here
//! still serialise against each other via a mutex (one global slot).

use psaflow::benchsuite;
use psaflow::core::{
    run_flow_job, DeviceKind, FailurePolicy, FlowEngine, FlowJob, FlowMode, PsaParams,
};
use psaflow::faults::{FaultPlan, Seam};
use std::sync::{Arc, Mutex};

static GLOBAL_PLAN_SLOT: Mutex<()> = Mutex::new(());

fn run_kmeans(engine: FlowEngine) -> Result<psaflow::core::FlowOutcome, psaflow::core::FlowError> {
    let bench = benchsuite::by_key("kmeans").unwrap();
    let params = PsaParams::for_benchmark(&bench);
    run_flow_job(
        engine,
        FlowJob::new(&bench.source, &bench.key, FlowMode::Uninformed, params),
    )
}

#[test]
fn estimate_seam_faults_fire_inside_platform_models() {
    // The estimate seam sits in the platform crate's cached entry points.
    // `psa_faults::apply` panics on Error actions, and the engine's task
    // span converts the panic into a typed internal error — under
    // `DegradePaths` only the device whose model "backend" is down drops.
    let _guard = GLOBAL_PLAN_SLOT.lock().unwrap();
    let plan = Arc::new(FaultPlan::new(2).fail(
        Seam::Estimate,
        "gpu-estimate/GeForce RTX 2080 Ti",
        "analysis",
        "soak: model backend down",
    ));
    psaflow::faults::install(Arc::clone(&plan));
    let outcome = run_kmeans(FlowEngine::parallel().with_policy(FailurePolicy::DegradePaths));
    psaflow::faults::clear();
    let outcome = outcome.expect("degraded sweep survives");
    assert!(plan.fired() > 0, "the estimate seam fired");
    assert!(outcome.design_for(DeviceKind::Rtx2080Ti).is_none());
    assert!(outcome.design_for(DeviceKind::Gtx1080Ti).is_some());
    assert!(outcome
        .failures
        .iter()
        .any(|f| f.error.message().contains("soak: model backend down")));
}

#[test]
fn cache_seam_delays_are_harmless_and_counted() {
    // A delay at the cache seam exercises the probe plumbing end-to-end
    // without changing any result: outputs are identical to a clean run.
    let _guard = GLOBAL_PLAN_SLOT.lock().unwrap();
    let baseline = run_kmeans(FlowEngine::parallel()).expect("clean run");
    let plan = Arc::new(FaultPlan::parse("seed=3; cache:platform/gpu-estimate@1=delay:1").unwrap());
    psaflow::faults::install(Arc::clone(&plan));
    let delayed = run_kmeans(FlowEngine::parallel());
    psaflow::faults::clear();
    let delayed = delayed.expect("delayed run still succeeds");
    assert_eq!(plan.fired(), 1, "the @1 occurrence fired exactly once");
    assert_eq!(baseline.log, delayed.log, "rendered traces byte-equal");
    assert_eq!(baseline.designs.len(), delayed.designs.len());
}
