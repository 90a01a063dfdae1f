//! # psaflow-core — PSA-flows: design-flow automation with path selection
//!
//! The paper's primary contribution (§II): **programmatic, customizable and
//! reusable design-flows** capable of generating multiple implementations
//! (CPU, GPU, FPGA) from a single technology-agnostic high-level source,
//! with **branch points** whose paths are chosen automatically by **Path
//! Selection Automation (PSA)** strategies.
//!
//! The moving parts:
//!
//! * [`task`] — the design-flow task abstraction (Analysis / Transform /
//!   Code-Generation / Optimisation classes, static vs dynamic), plus the
//!   [`context::FlowContext`] state every task reads and writes;
//! * [`tasks`] — the codified task repository from the paper's Fig. 4
//!   (target-independent, CPU, GPU, FPGA task groups);
//! * [`dse`] — the **O**-class DSE meta-programs: `unroll-until-overmap`
//!   (Fig. 2), GPU blocksize DSE, OpenMP thread-count DSE;
//! * [`ports`] — typed module ports: the declared dataflow signature
//!   ([`ports::ModulePorts`]) connecting modules through named
//!   [`context::FlowContext`] slots;
//! * [`graph`] — flows as first-class dependency DAGs:
//!   [`graph::FlowGraph`] built and validated by [`graph::GraphBuilder`]
//!   (cycle / dangling-input / duplicate-output detection);
//! * [`flow`] — the chain-shaped frontend: linear task sequences +
//!   [`flow::BranchPoint`]s with pluggable [`strategy::PsaStrategy`]
//!   selectors, converted to graphs by [`flow::Flow::graph`];
//! * [`engine`] — the [`engine::FlowEngine`] executor: work-stealing
//!   parallel (default) or sequential reference scheduling with
//!   byte-identical outputs;
//! * [`trace`] — the structured [`trace::TraceEvent`] tree the engine
//!   records (task spans, branch decisions with evidence, DSE results),
//!   with a renderer for the legacy human-readable lines and JSON export;
//! * [`strategy`] — the Fig. 3 target-selection strategy (transfer-time vs
//!   CPU-time, arithmetic-intensity threshold, parallel-outer and
//!   fully-unrollable-inner tests, cost/budget feedback);
//! * [`flows`] — the complete implemented PSA-flow of Fig. 4, in informed
//!   and uninformed modes;
//! * [`work`] — builds the platform models' workload record from analysis
//!   evidence;
//! * evaluation caching — every expensive evaluation (profiled interpreter
//!   runs, dynamic analyses, platform-model estimates) goes through a
//!   shared content-addressed [`EvalCache`] held on the
//!   [`context::FlowContext`]; keys combine the AST's structural
//!   fingerprint with workload/config parameters, so transformed programs
//!   never collide with their ancestors and repeated evaluations are free;
//! * [`report`] — flow outcomes: generated designs, estimated times,
//!   speedups vs the single-thread reference;
//! * [`related`] — the Table II capability matrix, encoded as data.

pub mod cancel;
pub mod context;
pub mod dse;
pub mod engine;
pub mod flow;
pub mod flows;
pub mod graph;
pub mod obs_export;
pub mod ports;
pub mod prelude;
pub mod related;
pub mod report;
pub mod strategy;
pub mod task;
pub mod tasks;
pub mod trace;
pub mod work;

pub(crate) mod sched;

pub use cancel::CancelToken;
pub use context::{FlowContext, PsaParams};
pub use engine::{Backoff, ExecMode, FailurePolicy, FlowEngine};
pub use flow::{BranchPoint, Flow, FlowError, Selection, Step};
pub use flows::{full_psa_flow, run_flow_job, FlowJob, FlowMode};
pub use graph::{FlowGraph, GraphBuilder, GraphError, GraphNode, NodeId};
pub use ports::{ModulePorts, Port, PortSet};
pub use psa_benchsuite::ScaleFactors;
pub use psa_evalcache::{CacheKey, CacheStats, EvalCache, KeyBuilder};
pub use report::{DesignArtifact, DeviceKind, FlowOutcome, PathFailure, TargetKind};
pub use strategy::{PsaStrategy, TargetSelect};
pub use task::{Module, ModuleInfo, Task, TaskClass, TaskInfo};
pub use trace::{DecisionEvidence, DseTrace, SelectionTrace, TraceEvent};

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end smoke: the full informed flow over a tiny synthetic app.
    #[test]
    fn informed_flow_runs_end_to_end() {
        let src = "int main() {\
            int n = 96;\
            double* a = alloc_double(n);\
            double* b = alloc_double(n);\
            fill_random(a, n, 3);\
            for (int i = 0; i < n; i++) {\
                double x = a[i];\
                b[i] = exp(x) * sqrt(x + 1.0) + x * x;\
            }\
            double s = 0.0;\
            for (int i = 0; i < n; i++) { s += b[i]; }\
            sink(s);\
            return 0;\
        }";
        let outcome = full_psa_flow(src, "smoke", FlowMode::Informed, PsaParams::default())
            .expect("flow runs");
        assert!(!outcome.designs.is_empty(), "{:?}", outcome.log);
        assert!(outcome.reference_time_s > 0.0);
        for d in &outcome.designs {
            if d.synthesizable {
                assert!(d.estimated_time_s.unwrap() > 0.0);
            }
        }
    }
}
