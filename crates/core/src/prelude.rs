//! One-stop imports for building and running flows:
//! `use psaflow_core::prelude::*;`.
//!
//! Brings in the graph and chain builders, the engine with its policy
//! types, the module (task) traits, ports, context, strategies, and the
//! report/outcome types — everything a flow author touches, nothing a flow
//! author doesn't.

pub use crate::context::{FlowContext, PsaParams};
pub use crate::engine::{Backoff, ExecMode, FailurePolicy, FlowEngine};
pub use crate::flow::{BranchPoint, Flow, FlowError, Selection};
pub use crate::flows::{full_psa_flow, FlowMode};
pub use crate::graph::{FlowGraph, GraphBuilder, GraphError, NodeId};
pub use crate::ports::{ModulePorts, Port, PortSet};
pub use crate::report::{DesignArtifact, DeviceKind, FlowOutcome, TargetKind};
pub use crate::strategy::{PsaStrategy, TargetSelect};
pub use crate::task::{Module, Task, TaskClass, TaskInfo};
pub use crate::trace::TraceEvent;
pub use psa_evalcache::EvalCache;

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_names_resolve() {
        use super::*;
        // A couple of spot checks that the re-exports are the real types.
        let _: FlowEngine = FlowEngine::sequential();
        let _: Flow = Flow::new("p");
        let _: PortSet = PortSet::of(&[Port::Ast]);
        assert_eq!(TaskClass::Analysis.code(), "A");
    }
}
