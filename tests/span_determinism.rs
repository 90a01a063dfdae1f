//! Span-id and forensic-bundle determinism: under a fixed seed and the
//! sequential engine, two runs of the same flow must produce **identical
//! span ids and identical dump bundles** once wall-clock fields are
//! zeroed. This is the tier-1 guarantee that makes recorder dumps
//! comparable across runs (and bisectable across commits).
//!
//! One test function on purpose: the flight recorder is process-global
//! state, and a sibling test flipping the gate mid-run would corrupt the
//! snapshots. (Other recorder tests live in `psa-obs` and serialise via
//! an in-crate lock.)

use psaflow::benchsuite;
use psaflow::core::{run_flow_job, FlowEngine, FlowJob, FlowMode, PsaParams};
use psaflow::obs::recorder::{self, Snapshot};

fn recorded_run() -> Snapshot {
    recorder::reset();
    let bench = benchsuite::by_key("kmeans").unwrap();
    let params = PsaParams::for_benchmark(&bench);
    run_flow_job(
        FlowEngine::sequential(),
        FlowJob::new(&bench.source, &bench.key, FlowMode::Informed, params),
    )
    .expect("flow runs clean");
    let mut snapshot = recorder::snapshot();
    // Wall-clock is the one legitimately non-deterministic field.
    for w in &mut snapshot.workers {
        for e in &mut w.events {
            e.wall_ns = 0;
        }
    }
    snapshot
}

#[test]
fn two_seeded_runs_produce_identical_span_ids_and_bundles() {
    recorder::set_enabled(true);
    let first = recorded_run();
    let second = recorded_run();
    recorder::set_enabled(false);

    // Span ids are structural (FNV over names + seed), so the span tables
    // must match entry for entry — same ids, same order, same labels.
    assert!(!first.spans.is_empty(), "the run opened spans");
    assert_eq!(
        first.spans, second.spans,
        "span ids must be deterministic under a fixed seed"
    );

    // And the rendered forensic bundles must be byte-identical modulo the
    // wall-clock fields zeroed above.
    let a = recorder::render_bundle(&first);
    let b = recorder::render_bundle(&second);
    assert_eq!(a, b, "dump bundles must be byte-identical");

    // The causal chain in the bundle reaches the flow root: every parent
    // id is either the zero sentinel or present in the span table.
    let ids: Vec<u64> = first.spans.iter().map(|s| s.ctx.span_id).collect();
    let mut roots = 0;
    for s in &first.spans {
        if s.ctx.parent_id == 0 {
            roots += 1;
        } else {
            assert!(
                ids.contains(&s.ctx.parent_id),
                "span {:016x} has a dangling parent {:016x}",
                s.ctx.span_id,
                s.ctx.parent_id
            );
        }
    }
    assert!(roots >= 1, "at least the flow root span is parentless");
}
