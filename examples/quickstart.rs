//! Quickstart: run the full informed PSA-flow over a small technology-
//! agnostic application and inspect what it decided and generated.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use psaflow::core::{full_psa_flow, FlowMode, PsaParams, ScaleFactors};

/// An "unoptimised high-level description": plain sequential C-like code,
/// no pragmas, no target knowledge.
const APP: &str = r#"
// Gaussian blur weights applied across a signal (toy hotspot).
int main() {
    int n = 8192;
    double* signal = alloc_double(n);
    double* out = alloc_double(n);
    fill_random(signal, n, 42);
    for (int i = 0; i < n; i++) {
        double x = signal[i];
        out[i] = exp(-(x * x) * 0.5) * 0.3989422804014327 + sqrt(x + 1.0);
    }
    double checksum = 0.0;
    for (int i = 0; i < n; i++) {
        checksum += out[i];
    }
    sink(checksum);
    return 0;
}
"#;

fn main() {
    println!("=== psaflow quickstart ===\n");
    // The analysis workload (n = 8192, baked into main) runs through the
    // interpreter quickly; the *evaluation* workload the models price is
    // 128× larger (n ≈ 1M), declared via the scale factors.
    let params = PsaParams {
        scale: ScaleFactors {
            compute: 128.0,
            data: 128.0,
            threads: 128.0,
        },
        ..PsaParams::default()
    };
    let outcome =
        full_psa_flow(APP, "quickstart", FlowMode::Informed, params).expect("the PSA-flow runs");

    println!("--- flow trace ---");
    for line in &outcome.log {
        println!("  {line}");
    }

    println!("\n--- decision ---");
    println!("informed PSA selected: {:?}", outcome.selected_target);
    println!(
        "single-thread reference time (modelled): {:.3e} s",
        outcome.reference_time_s
    );

    println!("\n--- generated designs ---");
    for design in &outcome.designs {
        println!(
            "\n### {} ({} LOC, est. {} — speedup {})",
            design.device.label(),
            design.loc,
            design
                .estimated_time_s
                .map_or("n/a".into(), |t| format!("{t:.3e} s")),
            design
                .speedup(outcome.reference_time_s)
                .map_or("n/a".into(), |s| format!("{s:.1}x")),
        );
        // Print the first lines of the generated source — the full text is
        // a complete, human-readable program.
        for line in design.source.lines().take(12) {
            println!("    {line}");
        }
        println!("    ...");
    }
}
