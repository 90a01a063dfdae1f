//! The paper's future-work extension (§VI): an **ML-based PSA strategy**.
//!
//! 1. Run the *uninformed* flow over the five benchmarks to obtain ground
//!    truth (all designs generated → the fastest target is known).
//! 2. Extract each kernel's analysis feature vector and train a small
//!    decision tree.
//! 3. Plug the learned tree into the standard Fig. 4 flow at branch point
//!    A and check it agrees with both the ground truth and the hand-written
//!    Fig. 3 strategy.
//!
//! ```sh
//! cargo run --release --example learned_strategy
//! ```

use psaflow::benchsuite;
use psaflow::core::context::FlowContext;
use psaflow::core::flows::full_psa_flow_with_strategy;
use psaflow::core::strategy::ml::{self, Example, KernelFeatures, MlTargetSelect};
use psaflow::core::task::Task;
use psaflow::core::tasks::tindep;
use psaflow::core::{full_psa_flow, FlowMode, PsaParams};

/// Extract the branch-A feature vector for one benchmark.
fn features_of(bench: &benchsuite::Benchmark) -> KernelFeatures {
    let ast = psaflow::artisan::Ast::from_source(&bench.source, &bench.key).unwrap();
    let mut ctx = FlowContext::new(ast, PsaParams::for_benchmark(bench));
    tindep::IdentifyHotspotLoops.run(&mut ctx).unwrap();
    tindep::HotspotLoopExtraction {
        kernel_name: "knl".into(),
    }
    .run(&mut ctx)
    .unwrap();
    psaflow::core::tasks::ensure_analysis(&mut ctx).unwrap();
    KernelFeatures::from_context(&ctx).unwrap()
}

fn main() {
    println!("=== learned PSA strategy (decision tree) ===\n");

    // 1. Ground truth from uninformed runs.
    let mut examples = Vec::new();
    let mut truth = Vec::new();
    for bench in benchsuite::all() {
        let outcome = full_psa_flow(
            &bench.source,
            &bench.key,
            FlowMode::Uninformed,
            PsaParams::for_benchmark(&bench),
        )
        .expect("uninformed flow");
        let best = outcome.best_design().expect("a design wins").target;
        let features = features_of(&bench);
        println!(
            "{:<14} ground truth {:<16} features: AI={:.2} parallel={} unrollable={} gather={:.2}",
            bench.key,
            best.label(),
            features.ai,
            features.outer_parallel,
            features.inner_unrollable,
            features.gather_fraction
        );
        examples.push(Example {
            features,
            label: best,
        });
        truth.push((bench, best));
    }

    // 2. Train.
    let tree = ml::train(&examples, 3);
    println!(
        "\nlearned tree ({} splits):\n{}",
        tree.splits(),
        tree.render()
    );
    println!(
        "training accuracy: {:.0}%",
        ml::accuracy(&tree, &examples) * 100.0
    );

    // 3. Deploy the tree at branch point A.
    println!("\ndeploying the learned strategy in the full flow:");
    let mut agreements = 0;
    for (bench, expected) in &truth {
        let outcome = full_psa_flow_with_strategy(
            &bench.source,
            &bench.key,
            MlTargetSelect { tree: tree.clone() },
            PsaParams::for_benchmark(bench),
        )
        .expect("ml flow");
        let selected = outcome.selected_target.expect("decided");
        let ok = selected == *expected;
        agreements += usize::from(ok);
        println!(
            "  {:<14} ml chose {:<16} ({} designs) — {}",
            bench.key,
            selected.label(),
            outcome.designs.len(),
            if ok {
                "matches ground truth"
            } else {
                "MISMATCH"
            }
        );
    }
    println!(
        "\n{agreements}/{} benchmarks mapped identically to the hand-written Fig. 3 strategy.",
        truth.len()
    );
}
