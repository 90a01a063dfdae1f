//! Integration: the generated design artefacts themselves — framework
//! idioms in the emitted text, Table I LOC orderings, and the
//! human-readability round-trip the paper emphasises.

use psaflow::benchsuite::{self, Benchmark};
use psaflow::core::{full_psa_flow, DeviceKind, FlowMode, FlowOutcome, PsaParams};
use psaflow::minicpp::canonicalise;

fn run_uninformed(key: &str) -> (Benchmark, FlowOutcome) {
    let bench = benchsuite::by_key(key).expect("benchmark exists");
    let outcome = full_psa_flow(
        &bench.source,
        key,
        FlowMode::Uninformed,
        PsaParams::for_benchmark(&bench),
    )
    .unwrap();
    (bench, outcome)
}

fn ref_loc(bench: &Benchmark) -> usize {
    canonicalise(&bench.source, &bench.key)
        .unwrap()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count()
}

#[test]
fn designs_carry_their_frameworks_idioms() {
    for bench in benchsuite::all() {
        let (_, outcome) = run_uninformed(&bench.key);
        for d in &outcome.designs {
            match d.device {
                DeviceKind::Epyc7543 => {
                    assert!(
                        d.source.contains("#pragma omp parallel for"),
                        "{}",
                        bench.key
                    );
                    assert!(d.source.contains("omp_set_num_threads("), "{}", bench.key);
                }
                DeviceKind::Gtx1080Ti | DeviceKind::Rtx2080Ti => {
                    assert!(d.source.contains("__global__"), "{}", bench.key);
                    assert!(d.source.contains("hipLaunchKernelGGL"), "{}", bench.key);
                    assert!(
                        d.source.contains("hipHostRegister"),
                        "{}: pinned",
                        bench.key
                    );
                }
                DeviceKind::Arria10 => {
                    assert!(d.source.contains("single_task"), "{}", bench.key);
                    assert!(d.source.contains("sycl::buffer"), "{}", bench.key);
                }
                DeviceKind::Stratix10 => {
                    assert!(d.source.contains("single_task"), "{}", bench.key);
                    assert!(d.source.contains("malloc_host"), "{}: zero-copy", bench.key);
                }
            }
        }
    }
}

#[test]
fn sp_transforms_show_up_in_gpu_designs_where_safe() {
    // SP-safe apps get float kernels on the GPU; Rush Larsen stays double.
    let (_, nbody) = run_uninformed("nbody");
    let hip = nbody.design_for(DeviceKind::Rtx2080Ti).unwrap();
    assert!(hip.source.contains("float"), "N-Body GPU kernel is SP");
    assert!(
        hip.source.contains("rsqrtf(") || hip.source.contains("rsqrt("),
        "specialised math"
    );

    let (_, rl) = run_uninformed("rushlarsen");
    let hip = rl.design_for(DeviceKind::Rtx2080Ti).unwrap();
    assert!(
        !hip.source.contains("expf("),
        "Rush Larsen must stay double precision"
    );
    assert!(hip.source.contains("exp("));
}

#[test]
fn fpga_designs_carry_the_dse_unroll_pragma() {
    let (_, ad) = run_uninformed("adpredictor");
    let s10 = ad.design_for(DeviceKind::Stratix10).unwrap();
    let unroll = s10.params.unroll.expect("DSE ran");
    if unroll > 1 {
        assert!(
            s10.source.contains(&format!("#pragma unroll {unroll}")),
            "chosen factor must be in the exported design:\n{}",
            s10.source
        );
    }
    // The fixed feature loop carries its full-unroll hint.
    assert!(
        s10.source.contains("#pragma unroll\n") || s10.source.contains("#pragma unroll "),
        "{}",
        s10.source
    );
}

#[test]
fn loc_orderings_match_table1() {
    // Per application: OMP adds the least, HIP more, oneAPI the most, and
    // the S10 design exceeds the A10 design.
    for bench in benchsuite::all() {
        let (bench, outcome) = run_uninformed(&bench.key);
        let reference = ref_loc(&bench);
        let loc = |d: DeviceKind| outcome.design_for(d).map(|x| x.loc);
        let omp = loc(DeviceKind::Epyc7543).unwrap();
        let hip = loc(DeviceKind::Rtx2080Ti).unwrap();
        assert!(omp > reference, "{}: OMP adds code", bench.key);
        assert!(
            hip > omp,
            "{}: HIP management exceeds OMP's pragmas",
            bench.key
        );
        if let (Some(a10), Some(s10)) = (loc(DeviceKind::Arria10), loc(DeviceKind::Stratix10)) {
            assert!(s10 > a10, "{}: S10 {s10} vs A10 {a10}", bench.key);
            assert!(a10 > omp, "{}: oneAPI exceeds OMP", bench.key);
        }
    }
}

#[test]
fn rushlarsen_has_the_smallest_relative_deltas() {
    // Table I: the biggest reference gets the smallest percentage deltas.
    let (rl_bench, rl) = run_uninformed("rushlarsen");
    let (km_bench, km) = run_uninformed("kmeans");
    let delta = |outcome: &FlowOutcome, reference: usize, d: DeviceKind| {
        let loc = outcome.design_for(d).unwrap().loc as f64;
        (loc - reference as f64) / reference as f64
    };
    let rl_ref = ref_loc(&rl_bench);
    let km_ref = ref_loc(&km_bench);
    assert!(
        delta(&rl, rl_ref, DeviceKind::Rtx2080Ti) < delta(&km, km_ref, DeviceKind::Rtx2080Ti) / 3.0,
        "Rush Larsen HIP delta must be far below K-Means'"
    );
    assert!(
        delta(&rl, rl_ref, DeviceKind::Epyc7543) < 0.10,
        "RL OMP delta tiny"
    );
}

#[test]
fn working_ast_stays_human_readable_and_reparseable() {
    // "output implementations are human-readable and can be further
    // hand-tuned if desired" — the MiniC++ working form must round-trip
    // through the parser after all transforms.
    for bench in benchsuite::all() {
        let params = PsaParams::for_benchmark(&bench);
        let informed =
            full_psa_flow(&bench.source, &bench.key, FlowMode::Informed, params).unwrap();
        // Every design's source is non-empty, line-structured text.
        for d in &informed.designs {
            assert!(d.loc > 10, "{}: design too small", bench.key);
            assert!(d.source.lines().count() >= d.loc);
        }
    }
}
