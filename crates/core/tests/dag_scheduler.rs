//! Scheduler edge cases over the public graph API: trivial and diamond
//! topologies, wide fan-outs, failing nodes under every failure policy,
//! and fault injection at DAG task seams (`{flow}/{module}` sites).
//!
//! Every shape is executed three ways — sequential reference, parallel
//! with the default worker derivation, and parallel with a pinned
//! multi-worker pool (so the work-stealing path is exercised even on
//! single-CPU hosts) — and must be byte-identical across all of them.

use psa_artisan::Ast;
use psaflow_core::prelude::*;
use psaflow_core::report::DesignParams;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A module that logs, sleeps `delay_ms` (so parallel completion order
/// differs from topo order), and appends one design.
struct Emit {
    name: &'static str,
    delay_ms: u64,
}

impl Emit {
    fn new(name: &'static str) -> Self {
        Emit { name, delay_ms: 0 }
    }
    fn slow(name: &'static str, delay_ms: u64) -> Self {
        Emit { name, delay_ms }
    }
}

impl Module for Emit {
    fn info(&self) -> TaskInfo {
        TaskInfo::new(self.name, TaskClass::CodeGen, false)
    }
    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        std::thread::sleep(std::time::Duration::from_millis(self.delay_ms));
        ctx.log(format!("ran {}", self.name));
        ctx.designs.push(DesignArtifact {
            target: TargetKind::MultiThreadCpu,
            device: DeviceKind::Epyc7543,
            source: format!("// {}", self.name),
            loc: 1,
            estimated_time_s: Some(1.0),
            synthesizable: true,
            params: DesignParams::default(),
            notes: vec![],
        });
        Ok(())
    }
}

struct Failing(&'static str);
impl Module for Failing {
    fn info(&self) -> TaskInfo {
        TaskInfo::new(self.0, TaskClass::Transform, false)
    }
    fn run(&self, _ctx: &mut FlowContext) -> Result<(), FlowError> {
        Err(FlowError::transform(format!("{} induced failure", self.0)))
    }
}

/// Fails the first `failures` attempts, then succeeds; marked transient so
/// the retry policy applies.
struct Flaky {
    failures: usize,
    attempts: Arc<AtomicUsize>,
}
impl Module for Flaky {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("flaky", TaskClass::Transform, false).transient()
    }
    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        let n = self.attempts.fetch_add(1, Ordering::SeqCst);
        if n < self.failures {
            return Err(FlowError::transform("transient glitch"));
        }
        ctx.log("flaky finally succeeded");
        Ok(())
    }
}

struct All;
impl PsaStrategy for All {
    fn name(&self) -> &str {
        "all"
    }
    fn select(&self, bp: &BranchPoint, _ctx: &mut FlowContext) -> Result<Selection, FlowError> {
        Ok(Selection::Many((0..bp.paths.len()).collect()))
    }
}

fn ctx() -> FlowContext {
    FlowContext::new(
        Ast::from_source("int main() { return 0; }", "t").unwrap(),
        PsaParams::default(),
    )
}

fn sources(c: &FlowContext) -> Vec<String> {
    c.designs.iter().map(|d| d.source.clone()).collect()
}

/// Run `graph` under the three engine configurations and assert rendered
/// traces and design lists agree bytewise; returns the sequential context.
fn assert_deterministic(graph: &FlowGraph) -> FlowContext {
    let mut seq = ctx();
    FlowEngine::sequential()
        .execute_graph(graph, &mut seq)
        .unwrap();
    for engine in [
        FlowEngine::parallel(),
        FlowEngine::parallel().with_workers(4),
    ] {
        let mut par = ctx();
        engine.execute_graph(graph, &mut par).unwrap();
        assert_eq!(par.trace_lines(), seq.trace_lines(), "traces diverge");
        assert_eq!(sources(&par), sources(&seq), "designs diverge");
    }
    seq
}

#[test]
fn single_node_graph_runs_once() {
    let mut b = GraphBuilder::new("solo");
    b.add(Emit::new("only"));
    let g = b.finish().unwrap();
    let c = assert_deterministic(&g);
    assert_eq!(sources(&c), ["// only"]);
    assert_eq!(c.trace_lines(), ["[solo] task `only` (CG)", "ran only"]);
}

#[test]
fn diamond_merges_in_stable_topo_order() {
    let mut b = GraphBuilder::new("diamond");
    let a = b.add(Emit::new("a"));
    // The slow arm is inserted first: if merge order followed completion
    // order the designs would come out [a, c, b, d].
    let l = b.add_after(Emit::slow("b", 20), &[a]);
    let r = b.add_after(Emit::new("c"), &[a]);
    b.add_after(Emit::new("d"), &[l, r]);
    let g = b.finish().unwrap();
    assert_eq!(g.width(), 2);
    let c = assert_deterministic(&g);
    assert_eq!(sources(&c), ["// a", "// b", "// c", "// d"]);
}

#[test]
fn wide_fan_out_over_64_nodes_is_deterministic() {
    const N: usize = 80;
    let names: Vec<String> = (0..N).map(|i| format!("n{i:02}")).collect();
    let leaked: Vec<&'static str> = names
        .into_iter()
        .map(|s| &*Box::leak(s.into_boxed_str()))
        .collect();
    let mut b = GraphBuilder::new("wide");
    let mut mid = Vec::new();
    let root = b.add(Emit::new("root"));
    for name in &leaked {
        // Stagger tiny delays so workers finish out of insertion order.
        let delay = (name.as_bytes()[2] as u64) % 3;
        mid.push(b.add_after(Emit::slow(name, delay), &[root]));
    }
    b.add_after(Emit::new("sink"), &mid);
    let g = b.finish().unwrap();
    assert_eq!(g.width(), N);
    let c = assert_deterministic(&g);
    let got = sources(&c);
    assert_eq!(got.len(), N + 2);
    assert_eq!(got[0], "// root");
    assert_eq!(got[N + 1], "// sink");
    let mut expected: Vec<String> = leaked.iter().map(|n| format!("// {n}")).collect();
    expected.sort(); // insertion order happens to be sorted (n00..n79)
    assert_eq!(&got[1..=N], &expected[..]);
}

#[test]
fn failing_node_under_fail_fast_cuts_at_its_topo_position() {
    let mut b = GraphBuilder::new("ff");
    let p = b.add(Emit::new("prep"));
    let f = b.add_after(Failing("boom"), &[p]);
    let s = b.add_after(Emit::new("sibling"), &[p]);
    b.add_after(Emit::new("sink"), &[f, s]);
    let g = b.finish().unwrap();

    for engine in [
        FlowEngine::sequential(),
        FlowEngine::parallel().with_workers(4),
    ] {
        let mut c = ctx();
        let err = engine.execute_graph(&g, &mut c).unwrap_err();
        assert_eq!(err, FlowError::transform("boom induced failure"));
        // Deltas are kept up to and including the failing node's stable
        // topological position; the sibling (after it) and the sink
        // (skipped) contribute nothing.
        assert_eq!(sources(&c), ["// prep"]);
    }
}

#[test]
fn degrade_paths_drops_a_failing_branch_path_but_not_a_failing_node() {
    // Inside a Many-branch, DegradePaths survives a failing path...
    let paths = vec![
        ("bad".to_string(), Flow::new("bad").then(Failing("bad"))),
        (
            "good".to_string(),
            Flow::new("good").then(Emit::new("good")),
        ),
    ];
    let flow = Flow::new("deg")
        .branch("B", All, paths)
        .then(Emit::new("after"));
    let mut c = ctx();
    FlowEngine::parallel()
        .with_workers(4)
        .with_policy(FailurePolicy::DegradePaths)
        .execute(&flow, &mut c)
        .unwrap();
    assert_eq!(sources(&c), ["// good", "// after"]);
    assert_eq!(c.failures.len(), 1, "the dropped path is recorded");

    // ...but a failing plain node still fails the whole graph: the policy
    // scopes to path merges, not to arbitrary dataflow nodes.
    let mut b = GraphBuilder::new("deg-node");
    let p = b.add(Emit::new("prep"));
    b.add_after(Failing("node"), &[p]);
    let g = b.finish().unwrap();
    let mut c = ctx();
    let err = FlowEngine::parallel()
        .with_policy(FailurePolicy::DegradePaths)
        .execute_graph(&g, &mut c)
        .unwrap_err();
    assert_eq!(err, FlowError::transform("node induced failure"));
}

#[test]
fn retry_policy_reruns_transient_nodes_in_a_dag() {
    let attempts = Arc::new(AtomicUsize::new(0));
    let mut b = GraphBuilder::new("retry");
    let p = b.add(Emit::new("prep"));
    let f = b.add_after(
        Flaky {
            failures: 2,
            attempts: Arc::clone(&attempts),
        },
        &[p],
    );
    b.add_after(Emit::new("sink"), &[f]);
    let g = b.finish().unwrap();
    let mut c = ctx();
    FlowEngine::parallel()
        .with_workers(2)
        .with_policy(FailurePolicy::parse("retry:3:10:2").unwrap())
        .execute_graph(&g, &mut c)
        .unwrap();
    assert_eq!(attempts.load(Ordering::SeqCst), 3);
    assert_eq!(sources(&c), ["// prep", "// sink"]);

    // Exhaustion: more failures than attempts surfaces the last error and
    // skips the downstream node.
    let attempts = Arc::new(AtomicUsize::new(0));
    let mut b = GraphBuilder::new("retry");
    let p = b.add(Emit::new("prep"));
    let f = b.add_after(
        Flaky {
            failures: 9,
            attempts: Arc::clone(&attempts),
        },
        &[p],
    );
    b.add_after(Emit::new("sink"), &[f]);
    let g = b.finish().unwrap();
    let mut c = ctx();
    let err = FlowEngine::sequential()
        .with_policy(FailurePolicy::parse("retry:3:10:2").unwrap())
        .execute_graph(&g, &mut c)
        .unwrap_err();
    assert_eq!(err, FlowError::transform("transient glitch"));
    assert_eq!(attempts.load(Ordering::SeqCst), 3);
    assert_eq!(sources(&c), ["// prep"]);
}

#[test]
fn injected_fault_at_a_dag_task_site_is_deterministic() {
    use psa_faults::{FaultPlan, Seam};
    // DAG sites are `{flow}/{module}` — identical to chain sites, so
    // existing fault specs keep working on graph-shaped flows.
    let plan = Arc::new(FaultPlan::new(7).fail(
        Seam::Task,
        "g/estimate-b",
        "analysis",
        "injected estimate failure",
    ));
    let build = || {
        let mut b = GraphBuilder::new("g");
        let p = b.add(Emit::new("prep"));
        let ea = b.add_after(Emit::new("estimate-a"), &[p]);
        let eb = b.add_after(Emit::new("estimate-b"), &[p]);
        b.add_after(Emit::new("merge"), &[ea, eb]);
        b.finish().unwrap()
    };
    for engine in [
        FlowEngine::sequential(),
        FlowEngine::parallel().with_workers(4),
    ] {
        let before = plan.fired();
        let mut c = ctx().with_faults(Arc::clone(&plan));
        let err = engine.execute_graph(&build(), &mut c).unwrap_err();
        assert_eq!(err, FlowError::analysis("injected estimate failure"));
        assert_eq!(plan.fired() - before, 1, "exactly one probe fires");
        // estimate-b sits at topo position 2: prep and estimate-a keep
        // their deltas, merge is skipped.
        assert_eq!(sources(&c), ["// prep", "// estimate-a"]);
    }
}
