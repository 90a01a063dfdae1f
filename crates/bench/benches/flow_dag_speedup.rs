//! DAG-scheduling benchmark: wall-clock of graph-shaped flows versus the
//! legacy chain shape. Emits `BENCH_dag.json` at the workspace root.
//!
//! Two measurements:
//!
//! 1. **Multi-device estimate fan-out** (the fig5/table1 shape): one
//!    preparation module feeding five per-device estimate modules and a
//!    collector. Each estimate performs a real profiled interpreter run
//!    plus a modeled device round-trip latency (an external-toolchain
//!    query, which blocks but does not compute). Chain-shaped, the five
//!    round-trips serialize; DAG-shaped they overlap, so the speedup holds
//!    even on a single-CPU host.
//! 2. **Full PSA-flow on every benchmark**: the chain form
//!    (`build_flow(...).graph()`, width 1) versus the native DAG form
//!    (`build_graph`), both on the default engine. This guards the other
//!    direction: graph scheduling must not make any real flow slower.
//!
//! Run with: `cargo bench -p psa-bench --bench flow_dag_speedup`

use psa_artisan::Ast;
use psaflow_core::context::{FlowContext, PsaParams};
use psaflow_core::flows::{build_flow, build_graph};
use psaflow_core::{
    DeviceKind, Flow, FlowEngine, FlowError, FlowGraph, FlowMode, GraphBuilder, Module, TaskClass,
    TaskInfo,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SAMPLES: usize = 5;
/// Modeled device/toolchain round-trip per estimate (blocking, not CPU).
const DEVICE_LATENCY_MS: u64 = 20;

/// A small compute kernel the estimate modules actually execute.
const ESTIMATE_SRC: &str = "int main() {\
    int n = 64;\
    double* a = alloc_double(n);\
    fill_random(a, n, 3);\
    double s = 0.0;\
    for (int i = 0; i < n; i++) { s = s + a[i] * 1.5; }\
    sink(s);\
    return 0;\
}";

struct Prep;
impl Module for Prep {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Prepare Estimates", TaskClass::Analysis, false)
    }
    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        ctx.log("preparing device estimates");
        Ok(())
    }
}

/// One per-device platform estimate: a profiled run of the kernel (real
/// CPU work) plus the modeled round-trip to the device's toolchain.
struct EstimateOnDevice {
    device: DeviceKind,
    module: Arc<psa_minicpp::Module>,
}
impl Module for EstimateOnDevice {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Estimate On Device", TaskClass::Analysis, true)
    }
    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        let run = psa_interp::run_main_profiled(&self.module, psa_interp::RunConfig::default())
            .map_err(|e| FlowError::analysis(format!("estimate run failed: {e}")))?;
        std::thread::sleep(Duration::from_millis(DEVICE_LATENCY_MS));
        ctx.log(format!(
            "estimated {:?}: {} cycles",
            self.device, run.profile.total_cycles
        ));
        Ok(())
    }
}

struct Collect;
impl Module for Collect {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Collect Estimates", TaskClass::Analysis, false)
    }
    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        ctx.log("collected device estimates");
        Ok(())
    }
}

const DEVICES: [DeviceKind; 5] = [
    DeviceKind::Epyc7543,
    DeviceKind::Gtx1080Ti,
    DeviceKind::Rtx2080Ti,
    DeviceKind::Arria10,
    DeviceKind::Stratix10,
];

fn estimate_kernel() -> Arc<psa_minicpp::Module> {
    Arc::new(psa_minicpp::parse_module(ESTIMATE_SRC, "estimate").expect("kernel parses"))
}

/// The fan-out shape as a chain: estimates run one after another.
fn fanout_chain() -> FlowGraph {
    let kernel = estimate_kernel();
    let mut flow = Flow::new("estimates").then(Prep);
    for device in DEVICES {
        flow = flow.then(EstimateOnDevice {
            device,
            module: Arc::clone(&kernel),
        });
    }
    flow.then(Collect).graph()
}

/// The same modules as a DAG: all five estimates depend only on `Prep`.
fn fanout_graph() -> FlowGraph {
    let kernel = estimate_kernel();
    let mut b = GraphBuilder::new("estimates");
    let prep = b.add(Prep);
    let estimates: Vec<_> = DEVICES
        .iter()
        .map(|&device| {
            b.add_after(
                EstimateOnDevice {
                    device,
                    module: Arc::clone(&kernel),
                },
                &[prep],
            )
        })
        .collect();
    b.add_after(Collect, &estimates);
    b.finish().expect("fan-out graph validates")
}

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn time_graph(engine: FlowEngine, graph: &FlowGraph) -> f64 {
    let ctx = || {
        FlowContext::new(
            Ast::from_source("int main() { return 0; }", "t").unwrap(),
            PsaParams::default(),
        )
    };
    // Warmup (also validates the run).
    engine.execute_graph(graph, &mut ctx()).expect("flow runs");
    let samples = (0..SAMPLES)
        .map(|_| {
            let mut c = ctx();
            let start = Instant::now();
            engine.execute_graph(graph, &mut c).expect("flow runs");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median_ms(samples)
}

struct AppRow {
    key: String,
    chain_ms: f64,
    dag_ms: f64,
}

fn time_full_flow(bench: &psa_benchsuite::Benchmark, graph: &FlowGraph) -> f64 {
    let params = PsaParams::for_benchmark(bench);
    let ctx = || {
        FlowContext::new(
            Ast::from_source(&bench.source, &bench.key).expect("benchmark parses"),
            params.clone(),
        )
    };
    let engine = FlowEngine::parallel();
    engine.execute_graph(graph, &mut ctx()).expect("flow runs");
    let samples = (0..SAMPLES)
        .map(|_| {
            let mut c = ctx();
            let start = Instant::now();
            engine.execute_graph(graph, &mut c).expect("flow runs");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median_ms(samples)
}

fn main() {
    // Fan-out: chain runs the five round-trips back to back; the DAG
    // overlaps them (workers pinned so the overlap is exercised even where
    // `available_parallelism` is 1 — the latency is blocking, not CPU).
    let chain_ms = time_graph(FlowEngine::parallel(), &fanout_chain());
    let dag_ms = time_graph(
        FlowEngine::parallel().with_workers(DEVICES.len()),
        &fanout_graph(),
    );
    let fanout_speedup = chain_ms / dag_ms;
    println!(
        "{:<22} {:>12} {:>12} {:>9}",
        "shape", "chain ms", "dag ms", "speedup"
    );
    println!(
        "{:<22} {:>12.3} {:>12.3} {:>8.2}x",
        "estimate fan-out", chain_ms, dag_ms, fanout_speedup
    );

    // Full flows: the DAG form must not be slower than the chain form.
    let mut apps = Vec::new();
    for bench in psa_benchsuite::all() {
        let chain = build_flow(FlowMode::Uninformed).graph();
        let dag = build_graph(FlowMode::Uninformed);
        let chain_ms = time_full_flow(&bench, &chain);
        let dag_ms = time_full_flow(&bench, &dag);
        println!(
            "{:<22} {:>12.3} {:>12.3} {:>8.2}x",
            bench.key,
            chain_ms,
            dag_ms,
            chain_ms / dag_ms
        );
        apps.push(AppRow {
            key: bench.key.clone(),
            chain_ms,
            dag_ms,
        });
    }
    let max_full_ratio = apps
        .iter()
        .map(|r| r.dag_ms / r.chain_ms)
        .fold(0.0f64, f64::max);

    // Machine-readable record (hand-formatted; the compat serde shim has no
    // serializer for ad-hoc structs and this keeps the schema explicit).
    let mut json = String::from("{\n  \"benchmark\": \"flow_dag_speedup\",\n");
    json.push_str(&format!(
        "  \"unit\": \"ms_median_of_{SAMPLES}_runs\",\n  \"device_latency_ms\": {DEVICE_LATENCY_MS},\n"
    ));
    json.push_str(&format!(
        "  \"fanout\": {{\"chain_ms\": {chain_ms:.3}, \"dag_ms\": {dag_ms:.3}, \"speedup\": {fanout_speedup:.2}}},\n"
    ));
    json.push_str(&format!(
        "  \"min_fanout_speedup\": {fanout_speedup:.2},\n  \"apps\": [\n"
    ));
    for (i, r) in apps.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"key\": \"{}\", \"chain_ms\": {:.3}, \"dag_ms\": {:.3}, \"ratio\": {:.3}}}{}\n",
            r.key,
            r.chain_ms,
            r.dag_ms,
            r.dag_ms / r.chain_ms,
            if i + 1 < apps.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"max_full_ratio\": {max_full_ratio:.3}\n}}\n"
    ));

    // Workspace root = two levels above this crate's manifest.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = format!("{root}/BENCH_dag.json");
    std::fs::write(&path, json).expect("write BENCH_dag.json");
    println!("wrote {path}");
}
