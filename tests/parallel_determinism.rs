//! The parallel flow engine must be indistinguishable from the sequential
//! one on every benchmark: same designs (sources, estimates, tuned
//! parameters), same selected targets, same rendered trace — byte for
//! byte. Wall-clock durations live only in the structured trace and are
//! never rendered, so this comparison is exact.

use psaflow::benchsuite;
use psaflow::core::{run_flow_job, trace, EvalCache, FlowEngine, FlowJob, FlowMode, PsaParams};
use std::sync::Arc;

fn job(bench: &benchsuite::Benchmark, mode: FlowMode) -> FlowJob<'_> {
    FlowJob::new(
        &bench.source,
        &bench.key,
        mode,
        PsaParams::for_benchmark(bench),
    )
}

/// One full sweep: every benchmark × both flow modes, DAG-scheduled with a
/// pinned multi-worker pool (so work stealing is exercised even on
/// single-CPU hosts) against the single-threaded reference scheduler.
fn assert_dag_matches_sequential_reference() {
    for bench in benchsuite::all() {
        for mode in [FlowMode::Informed, FlowMode::Uninformed] {
            let par = run_flow_job(FlowEngine::parallel().with_workers(4), job(&bench, mode))
                .unwrap_or_else(|e| panic!("{} {mode:?} (parallel): {e}", bench.key));
            let seq = run_flow_job(FlowEngine::sequential(), job(&bench, mode))
                .unwrap_or_else(|e| panic!("{} {mode:?} (sequential): {e}", bench.key));

            let ctx = format!("{} {mode:?}", bench.key);
            assert_eq!(par.log, seq.log, "{ctx}: rendered traces diverge");
            assert_eq!(
                par.selected_target, seq.selected_target,
                "{ctx}: selected target"
            );
            assert_eq!(
                par.reference_time_s, seq.reference_time_s,
                "{ctx}: reference time"
            );
            assert_eq!(par.designs.len(), seq.designs.len(), "{ctx}: design count");
            for (p, s) in par.designs.iter().zip(&seq.designs) {
                assert_eq!(
                    p.source, s.source,
                    "{ctx}: design source for {:?}",
                    p.device
                );
                // Everything else (estimates, params, notes, flags) via the
                // full Debug form: identical computations give identical
                // bits, so the formatted values match exactly.
                assert_eq!(format!("{p:?}"), format!("{s:?}"), "{ctx}: design metadata");
            }
        }
    }
}

#[test]
fn parallel_engine_matches_sequential_on_all_benchmarks() {
    assert_dag_matches_sequential_reference();
}

/// The same sweep must hold under *both* interpreter engines. The engine
/// default is process-global (`OnceLock`), so each engine gets a child
/// process: re-run this test binary with `PSA_INTERP_ENGINE` pinned and
/// only the ignored child test selected.
#[test]
fn dag_determinism_holds_under_both_interp_engines() {
    let exe = std::env::current_exe().expect("test binary path");
    for engine in ["tree", "vm"] {
        let status = std::process::Command::new(&exe)
            .args([
                "--exact",
                "dag_vs_sequential_child",
                "--include-ignored",
                "--test-threads=1",
            ])
            .env("PSA_INTERP_ENGINE", engine)
            .status()
            .expect("spawn child sweep");
        assert!(
            status.success(),
            "DAG determinism broke under the {engine} interp engine"
        );
    }
}

#[test]
#[ignore = "child of dag_determinism_holds_under_both_interp_engines"]
fn dag_vs_sequential_child() {
    assert_dag_matches_sequential_reference();
}

/// The legacy chain builder and the native graph builder describe the same
/// Fig. 4 flow: executing either representation produces byte-identical
/// rendered traces and designs.
#[test]
fn chain_and_graph_forms_are_byte_identical() {
    use psaflow::artisan::Ast;
    use psaflow::core::context::FlowContext;
    use psaflow::core::flows::{build_flow, build_graph};

    let bench = &benchsuite::all()[0];
    for mode in [FlowMode::Informed, FlowMode::Uninformed] {
        let make_ctx = || {
            FlowContext::new(
                Ast::from_source(&bench.source, &bench.key).expect("benchmark parses"),
                PsaParams::for_benchmark(bench),
            )
        };
        let engine = FlowEngine::parallel().with_workers(4);
        let mut chain_ctx = make_ctx();
        engine
            .execute(&build_flow(mode), &mut chain_ctx)
            .unwrap_or_else(|e| panic!("{mode:?} (chain): {e}"));
        let mut graph_ctx = make_ctx();
        engine
            .execute_graph(&build_graph(mode), &mut graph_ctx)
            .unwrap_or_else(|e| panic!("{mode:?} (graph): {e}"));
        assert_eq!(
            chain_ctx.trace_lines(),
            graph_ctx.trace_lines(),
            "{mode:?}: rendered traces diverge between chain and graph forms"
        );
        let sources = |c: &FlowContext| -> Vec<String> {
            c.designs.iter().map(|d| d.source.clone()).collect()
        };
        assert_eq!(
            sources(&chain_ctx),
            sources(&graph_ctx),
            "{mode:?}: designs"
        );
    }
}

/// The evaluation cache must be semantically invisible: a flow over a live
/// shared cache (even one pre-warmed by a previous flow) produces exactly
/// the designs and rendered trace of a flow with caching disabled.
#[test]
fn cache_never_changes_designs_or_rendered_traces() {
    let live = Arc::new(EvalCache::new());
    for bench in benchsuite::all() {
        for mode in [FlowMode::Informed, FlowMode::Uninformed] {
            let cached = run_flow_job(
                FlowEngine::parallel(),
                FlowJob {
                    cache: Arc::clone(&live),
                    ..job(&bench, mode)
                },
            )
            .unwrap_or_else(|e| panic!("{} {mode:?} (cached): {e}", bench.key));
            let uncached = run_flow_job(
                FlowEngine::parallel(),
                FlowJob {
                    cache: Arc::new(EvalCache::disabled()),
                    ..job(&bench, mode)
                },
            )
            .unwrap_or_else(|e| panic!("{} {mode:?} (uncached): {e}", bench.key));

            let ctx = format!("{} {mode:?}", bench.key);
            assert_eq!(cached.log, uncached.log, "{ctx}: rendered traces diverge");
            assert_eq!(
                cached.selected_target, uncached.selected_target,
                "{ctx}: selected target"
            );
            assert_eq!(
                cached.reference_time_s, uncached.reference_time_s,
                "{ctx}: reference time"
            );
            assert_eq!(
                cached.designs.len(),
                uncached.designs.len(),
                "{ctx}: design count"
            );
            for (c, u) in cached.designs.iter().zip(&uncached.designs) {
                assert_eq!(format!("{c:?}"), format!("{u:?}"), "{ctx}: design");
            }
        }
    }
    // The second mode of every benchmark reruns over state the first mode
    // warmed — the shared cache must actually have been exercised.
    let stats = live.stats();
    assert!(stats.hits > 0, "shared cache saw no hits: {stats:?}");
    assert!(stats.entries > 0, "shared cache stored nothing: {stats:?}");
}

#[test]
fn outcome_log_is_the_rendering_of_the_structured_trace() {
    let bench = &benchsuite::all()[0];
    let outcome = run_flow_job(FlowEngine::parallel(), job(bench, FlowMode::Uninformed)).unwrap();
    assert_eq!(outcome.log, trace::render_lines(&outcome.trace));
    let json = trace::to_json(&outcome.trace);
    assert!(
        json.starts_with('[') && json.ends_with(']'),
        "JSON export well-formed"
    );
    assert!(
        json.contains("\"kind\":\"task\""),
        "trace carries task spans"
    );
    assert!(
        json.contains("\"kind\":\"branch\""),
        "trace carries branch events"
    );
    assert!(json.contains("\"wall_ns\""), "task spans carry durations");
}
