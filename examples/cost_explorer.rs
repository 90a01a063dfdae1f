//! Cost/performance trade-off exploration (the paper's §IV-D): with the
//! uninformed flow's full design set in hand, sweep cloud price ratios and
//! report which resource is the most cost-effective for each benchmark —
//! "the most performant design for a given application and workload might
//! not be the most cost effective."
//!
//! ```sh
//! cargo run --release --example cost_explorer
//! ```

use psaflow::benchsuite;
use psaflow::core::{full_psa_flow, DeviceKind, FlowMode, PsaParams};
use psaflow::platform::pricing::CostCase;

fn main() {
    println!("=== cloud cost explorer (Stratix10 FPGA vs 2080 Ti GPU) ===\n");

    for bench in benchsuite::all() {
        let params = PsaParams::for_benchmark(&bench);
        let outcome = full_psa_flow(&bench.source, &bench.key, FlowMode::Uninformed, params)
            .expect("flow runs");

        let fpga = outcome
            .design_for(DeviceKind::Stratix10)
            .and_then(|d| d.estimated_time_s);
        let gpu = outcome
            .design_for(DeviceKind::Rtx2080Ti)
            .and_then(|d| d.estimated_time_s);
        let (Some(t_fpga), Some(t_gpu)) = (fpga, gpu) else {
            println!(
                "{:<14} FPGA design not synthesizable — GPU is the only accelerator option",
                bench.key
            );
            continue;
        };

        let case = CostCase {
            app: bench.key.clone(),
            t_fpga_s: t_fpga,
            t_gpu_s: t_gpu,
        };
        let crossover = case.crossover_price_ratio();
        let faster = if t_fpga < t_gpu { "FPGA" } else { "GPU" };
        println!(
            "{:<14} t_FPGA={:.3e}s t_GPU={:.3e}s — {faster} faster; equal cost at \
             price ratio p_FPGA/p_GPU = {crossover:.2}",
            bench.key, t_fpga, t_gpu
        );
        for ratio in [0.5, 1.0, 2.0] {
            let rel = case.relative_cost(ratio);
            println!(
                "    at p = {ratio:<4} the {} is {:.1}× cheaper",
                if rel < 1.0 { "FPGA" } else { "GPU" },
                if rel < 1.0 { 1.0 / rel } else { rel },
            );
        }
    }
}
