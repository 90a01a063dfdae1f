//! Integration: Fig. 6's cost/performance trade-off claims.

use psaflow::benchsuite::{self, Benchmark};
use psaflow::core::{full_psa_flow, DeviceKind, FlowMode, PsaParams};
use psaflow::platform::pricing::CostCase;

fn cost_case(key: &str) -> Option<CostCase> {
    let bench: Benchmark = benchsuite::by_key(key)?;
    let params = PsaParams::for_benchmark(&bench);
    let outcome = full_psa_flow(&bench.source, key, FlowMode::Uninformed, params).ok()?;
    let t_fpga_s = outcome
        .design_for(DeviceKind::Stratix10)?
        .estimated_time_s?;
    let t_gpu_s = outcome
        .design_for(DeviceKind::Rtx2080Ti)?
        .estimated_time_s?;
    Some(CostCase {
        app: key.into(),
        t_fpga_s,
        t_gpu_s,
    })
}

#[test]
fn adpredictor_crossover_matches_the_paper() {
    // "if the FPGA price per unit time is > 3.2 times the GPU price, it is
    // more cost effective to execute on the CPU+GPU 2080 Ti platform,
    // although AdPredictor executes fastest on the Stratix10."
    let case = cost_case("adpredictor").expect("both designs exist");
    let crossover = case.crossover_price_ratio();
    assert!(
        (2.0..5.0).contains(&crossover),
        "AdPredictor crossover {crossover:.2} should sit near the paper's 3.2"
    );
    assert!(
        case.fpga_more_cost_effective(1.0),
        "at equal prices the FPGA wins"
    );
    assert!(!case.fpga_more_cost_effective(crossover * 1.5));
}

#[test]
fn bezier_favours_the_gpu_until_its_price_inflates() {
    // "if the GPU price is > 2.5 times the FPGA price, it is more cost
    // effective to execute Bezier on the Stratix10 CPU+FPGA platform,
    // despite being slower."
    let case = cost_case("bezier").expect("both designs exist");
    let crossover = case.crossover_price_ratio();
    assert!(crossover < 1.0, "GPU is the faster Bezier target");
    let gpu_price_multiple = 1.0 / crossover;
    assert!(
        (1.5..12.0).contains(&gpu_price_multiple),
        "Bezier flips to the FPGA once the GPU price exceeds {gpu_price_multiple:.1}× \
         (paper: 2.5×)"
    );
    // At equal prices the GPU is cheaper; at an inflated GPU price it is not.
    assert!(!case.fpga_more_cost_effective(1.0));
    assert!(case.fpga_more_cost_effective(crossover * 0.5));
}

#[test]
fn kmeans_sits_inside_the_figures_axis() {
    let case = cost_case("kmeans").expect("both designs exist");
    let crossover = case.crossover_price_ratio();
    assert!(
        (0.25..4.0).contains(&crossover),
        "K-Means crossover {crossover:.2} lies within Fig. 6's 1/4…4 sweep"
    );
}

#[test]
fn relative_cost_is_monotone_in_the_price_ratio() {
    let case = cost_case("adpredictor").unwrap();
    let ratios = psaflow::platform::pricing::fig6_price_ratios();
    let costs: Vec<f64> = ratios.iter().map(|&r| case.relative_cost(r)).collect();
    assert!(costs.windows(2).all(|w| w[0] < w[1]), "{costs:?}");
}

#[test]
fn rushlarsen_has_no_cost_case() {
    // Unsynthesizable FPGA designs cannot enter the cost study.
    assert!(cost_case("rushlarsen").is_none());
}
