//! Integration: the paper's Fig. 5 qualitative claims, asserted end-to-end
//! through the full PSA-flow over all five benchmarks.
//!
//! Absolute speedups depend on the calibrated platform models and are
//! recorded in EXPERIMENTS.md; these tests pin the *shape*: which target
//! each application maps to, who wins within each application, and the
//! cross-device orderings the paper narrates.

use psaflow::benchsuite::{self, paper};
use psaflow::core::{full_psa_flow, DeviceKind, FlowMode, FlowOutcome, PsaParams, TargetKind};

fn run(key: &str, mode: FlowMode) -> FlowOutcome {
    let bench = benchsuite::by_key(key).expect("benchmark exists");
    full_psa_flow(&bench.source, key, mode, PsaParams::for_benchmark(&bench))
        .unwrap_or_else(|e| panic!("{key}: {e}"))
}

fn speedup(outcome: &FlowOutcome, device: DeviceKind) -> Option<f64> {
    outcome
        .design_for(device)?
        .speedup(outcome.reference_time_s)
}

#[test]
fn informed_flow_selects_the_papers_target_for_every_benchmark() {
    for row in paper::fig5() {
        let outcome = run(row.key, FlowMode::Informed);
        let expected = match row.target {
            paper::PaperTarget::MultiThreadCpu => TargetKind::MultiThreadCpu,
            paper::PaperTarget::CpuGpu => TargetKind::CpuGpu,
            paper::PaperTarget::CpuFpga => TargetKind::CpuFpga,
        };
        assert_eq!(
            outcome.selected_target,
            Some(expected),
            "{}: wrong target\ntrace:\n{}",
            row.key,
            outcome.log.join("\n")
        );
    }
}

#[test]
fn informed_selection_is_the_best_of_all_generated_designs() {
    // "As shown, the informed PSA-flow selects the best target for all of
    // the five benchmarks."
    for row in paper::fig5() {
        let uninformed = run(row.key, FlowMode::Uninformed);
        let best = uninformed.best_design().expect("a best design exists");
        let informed_target = run(row.key, FlowMode::Informed).selected_target.unwrap();
        assert_eq!(
            best.target, informed_target,
            "{}: best uninformed design is on {:?} but informed chose {:?}",
            row.key, best.target, informed_target
        );
    }
}

#[test]
fn openmp_speedups_sit_near_the_core_count() {
    // "achieving speedups ranging from 28-30X… close to the number of
    // cores (32), as expected."
    for row in paper::fig5() {
        let outcome = run(row.key, FlowMode::Uninformed);
        let omp = speedup(&outcome, DeviceKind::Epyc7543).expect("OMP design");
        assert!(
            (25.0..32.0).contains(&omp),
            "{}: OMP speedup {omp}",
            row.key
        );
    }
}

#[test]
fn rtx_2080_ti_never_loses_to_gtx_1080_ti() {
    // "Generally, the RTX 2080 outperforms the GTX 1080, as expected."
    for row in paper::fig5() {
        let outcome = run(row.key, FlowMode::Uninformed);
        let g1080 = speedup(&outcome, DeviceKind::Gtx1080Ti).expect("1080 design");
        let g2080 = speedup(&outcome, DeviceKind::Rtx2080Ti).expect("2080 design");
        assert!(
            g2080 >= g1080 * 0.99,
            "{}: 2080 ({g2080:.1}x) lost to 1080 ({g1080:.1}x)",
            row.key
        );
    }
}

#[test]
fn stratix10_beats_arria10_wherever_designs_exist() {
    // "In general for the CPU+FPGA designs, the Stratix10 performs better
    // than the Arria10."
    for row in paper::fig5() {
        let outcome = run(row.key, FlowMode::Uninformed);
        let a10 = speedup(&outcome, DeviceKind::Arria10);
        let s10 = speedup(&outcome, DeviceKind::Stratix10);
        if let (Some(a10), Some(s10)) = (a10, s10) {
            assert!(s10 > a10, "{}: S10 {s10:.1}x <= A10 {a10:.1}x", row.key);
        }
    }
}

#[test]
fn rushlarsen_fpga_designs_are_not_synthesizable() {
    // "the resulting designs are sizeable and exceed the capacity of our
    // current FPGA devices."
    let outcome = run("rushlarsen", FlowMode::Uninformed);
    for device in [DeviceKind::Arria10, DeviceKind::Stratix10] {
        let d = outcome
            .design_for(device)
            .expect("design text still generated");
        assert!(!d.synthesizable, "{:?} must overmap", device);
        assert!(d.estimated_time_s.is_none());
        assert!(
            d.notes.iter().any(|n| n.contains("overmap")),
            "{:?}",
            d.notes
        );
    }
}

#[test]
fn rushlarsen_register_pressure_hurts_the_1080_more() {
    // "the GPU design requires 255 registers per thread, saturating the GTX
    // 1080 but not the RTX 2080" — 98× vs 63× is a 1.56× gap, far above
    // the generic ~1.2× peak-rate gap.
    let outcome = run("rushlarsen", FlowMode::Uninformed);
    let g1080 = speedup(&outcome, DeviceKind::Gtx1080Ti).unwrap();
    let g2080 = speedup(&outcome, DeviceKind::Rtx2080Ti).unwrap();
    assert!(g2080 / g1080 > 1.4, "gap {:.2} too small", g2080 / g1080);
}

#[test]
fn nbody_saturates_both_gpus_with_a_wide_gap() {
    // "the N-Body Simulation workload fully saturates both GPUs, allowing
    // the RTX 2080 to achieve more than 2 times faster performance."
    let outcome = run("nbody", FlowMode::Uninformed);
    let g1080 = speedup(&outcome, DeviceKind::Gtx1080Ti).unwrap();
    let g2080 = speedup(&outcome, DeviceKind::Rtx2080Ti).unwrap();
    assert!(g2080 / g1080 > 1.8, "gap {:.2}", g2080 / g1080);
    assert!(g2080 > 400.0, "N-Body 2080 speedup {g2080:.0}x");
    // The FPGA designs barely beat a single CPU thread (1.1× / 1.4×).
    let a10 = speedup(&outcome, DeviceKind::Arria10).unwrap();
    let s10 = speedup(&outcome, DeviceKind::Stratix10).unwrap();
    assert!(
        a10 < 4.0 && s10 < 6.0,
        "N-Body FPGA must crawl: {a10:.1}/{s10:.1}"
    );
}

#[test]
fn bezier_leaves_both_gpus_unsaturated_and_close() {
    // "where neither GPU is fully saturated, the difference in performance
    // is less substantial (67X vs 63X)."
    let outcome = run("bezier", FlowMode::Uninformed);
    let g1080 = speedup(&outcome, DeviceKind::Gtx1080Ti).unwrap();
    let g2080 = speedup(&outcome, DeviceKind::Rtx2080Ti).unwrap();
    let gap = g2080 / g1080;
    assert!(
        (0.95..1.25).contains(&gap),
        "Bezier GPU gap {gap:.2} should be small"
    );
}

#[test]
fn adpredictor_wins_on_the_stratix10() {
    // "the Stratix10 CPU+FPGA design achieves the best performance across
    // all targets (32X speedup)" while the GPUs only reach ~10×.
    let outcome = run("adpredictor", FlowMode::Uninformed);
    let s10 = speedup(&outcome, DeviceKind::Stratix10).unwrap();
    let best = outcome.best_design().unwrap();
    assert_eq!(
        best.device,
        DeviceKind::Stratix10,
        "S10 must win: {s10:.1}x"
    );
    let g2080 = speedup(&outcome, DeviceKind::Rtx2080Ti).unwrap();
    assert!(
        g2080 < s10 / 2.0,
        "GPUs must trail badly: {g2080:.1} vs {s10:.1}"
    );
}

#[test]
fn kmeans_is_memory_bound_and_stays_on_the_cpu() {
    // "Since the identified hotspot is a memory-bound computation, the
    // informed PSA strategy automatically selects the multi-thread CPU
    // branch" and the OpenMP design is the best of the five.
    let informed = run("kmeans", FlowMode::Informed);
    assert_eq!(informed.selected_target, Some(TargetKind::MultiThreadCpu));
    assert_eq!(informed.designs.len(), 1, "CPU branch generates one design");
    let uninformed = run("kmeans", FlowMode::Uninformed);
    assert_eq!(
        uninformed.best_design().unwrap().device,
        DeviceKind::Epyc7543
    );
}

#[test]
fn uninformed_mode_generates_five_designs_per_app() {
    // "generating all design versions (one OpenMP multi-threaded CPU, two
    // HIP CPU+GPU, and two oneAPI CPU+FPGA designs) for all applications."
    for row in paper::fig5() {
        let outcome = run(row.key, FlowMode::Uninformed);
        assert_eq!(outcome.designs.len(), 5, "{}: {:?}", row.key, outcome.log);
    }
}
