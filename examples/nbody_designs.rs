//! Generate all five designs for the paper's N-Body benchmark (uninformed
//! mode) and write the emitted sources to `target/generated-designs/`.
//!
//! This is the paper's §IV-B experiment for one application: one
//! technology-agnostic source in, five specialised implementations out.
//!
//! ```sh
//! cargo run --release --example nbody_designs
//! ```

use psaflow::benchsuite;
use psaflow::core::{full_psa_flow, FlowMode, PsaParams};
use std::fs;
use std::path::Path;

fn main() {
    let bench = benchsuite::by_key("nbody").expect("benchmark registered");
    let params = PsaParams::for_benchmark(&bench);

    println!("Running the uninformed PSA-flow over {} …\n", bench.name);
    let outcome =
        full_psa_flow(&bench.source, &bench.key, FlowMode::Uninformed, params).expect("flow runs");

    let out_dir = Path::new("target/generated-designs");
    fs::create_dir_all(out_dir).expect("create output directory");

    println!(
        "{:<24} {:>8} {:>14} {:>10}   file",
        "device", "LOC", "est. time", "speedup"
    );
    for design in &outcome.designs {
        let ext = match design.target {
            psaflow::core::TargetKind::MultiThreadCpu => "omp.cpp",
            psaflow::core::TargetKind::CpuGpu => "hip.cpp",
            psaflow::core::TargetKind::CpuFpga => "oneapi.cpp",
        };
        let file = out_dir.join(format!(
            "nbody_{}_{ext}",
            design.device.label().replace(' ', "_").to_lowercase()
        ));
        fs::write(&file, &design.source).expect("write design");
        println!(
            "{:<24} {:>8} {:>14} {:>10}   {}",
            design.device.label(),
            design.loc,
            design
                .estimated_time_s
                .map_or("n/a".into(), |t| format!("{t:.3e} s")),
            design
                .speedup(outcome.reference_time_s)
                .map_or("n/a".into(), |s| format!("{s:.0}x")),
            file.display()
        );
    }

    let best = outcome.best_design().expect("at least one design");
    println!(
        "\nBest design: {} at {:.0}x over the single-thread reference.",
        best.device.label(),
        best.speedup(outcome.reference_time_s).unwrap()
    );
    println!("Generated sources written to {}.", out_dir.display());
}
