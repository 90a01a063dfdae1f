//! The design-flow module abstraction.
//!
//! "Each task encapsulates a distinct code analysis, transformation, or
//! optimization" (Fig. 1). Since the flow-graph redesign the engine calls
//! these **modules**: graph nodes with a declared dataflow signature
//! ([`Module::ports`]) in addition to the paper's repository metadata.
//! Modules are classified exactly as the paper's repository table:
//! **A**nalysis, **T**ransform, **C**ode-**G**eneration, **O**ptimisation;
//! dynamic modules (⚡) execute the program.
//!
//! `Task` remains as an alias of `Module` — every existing
//! `impl Task for …` keeps compiling unchanged.

use crate::context::FlowContext;
use crate::flow::FlowError;
use crate::ports::ModulePorts;

/// The paper's A / T / CG / O classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskClass {
    Analysis,
    Transform,
    CodeGen,
    Optimisation,
}

impl TaskClass {
    /// The single-letter code used in the paper's repository listing.
    pub fn code(&self) -> &'static str {
        match self {
            TaskClass::Analysis => "A",
            TaskClass::Transform => "T",
            TaskClass::CodeGen => "CG",
            TaskClass::Optimisation => "O",
        }
    }
}

/// Static description of a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskInfo {
    /// Name as listed in the paper's repository (e.g. "Identify Hotspot
    /// Loops").
    pub name: &'static str,
    pub class: TaskClass,
    /// ⚡ — requires program execution.
    pub dynamic: bool,
    /// Whether a failure of this module is plausibly transient (it wraps a
    /// flaky external toolchain — profilers, vendor compilers, HLS runs).
    /// Only transient modules are re-run under
    /// [`crate::engine::FailurePolicy::Retry`].
    pub transient: bool,
}

impl TaskInfo {
    pub const fn new(name: &'static str, class: TaskClass, dynamic: bool) -> Self {
        TaskInfo {
            name,
            class,
            dynamic,
            transient: false,
        }
    }

    /// Mark the module's failures as transient (builder style).
    pub const fn transient(mut self) -> Self {
        self.transient = true;
        self
    }
}

/// A codified design-flow module: one node of a
/// [`crate::graph::FlowGraph`].
pub trait Module: Send + Sync {
    /// Repository metadata.
    fn info(&self) -> TaskInfo;

    /// The module's declared dataflow signature: which [`FlowContext`]
    /// slots it reads and writes. Defaults to [`ModulePorts::opaque`]
    /// (unspecified) — opaque modules are ordered only by explicit graph
    /// edges and skip construct-time input checking. Declare ports to get
    /// dangling-input / duplicate-output validation and precise join
    /// merging.
    fn ports(&self) -> ModulePorts {
        ModulePorts::opaque()
    }

    /// Execute against the flow context.
    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError>;
}

/// The pre-redesign name of [`Module`]; same trait, so existing
/// `impl Task for …` blocks and `Arc<dyn Task>` values are unaffected.
pub use Module as Task;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_codes_match_the_figure() {
        assert_eq!(TaskClass::Analysis.code(), "A");
        assert_eq!(TaskClass::Transform.code(), "T");
        assert_eq!(TaskClass::CodeGen.code(), "CG");
        assert_eq!(TaskClass::Optimisation.code(), "O");
    }

    #[test]
    fn task_alias_is_the_module_trait() {
        struct Nop;
        // Implemented under the legacy name…
        impl Task for Nop {
            fn info(&self) -> TaskInfo {
                TaskInfo::new("nop", TaskClass::Analysis, false)
            }
            fn run(&self, _ctx: &mut FlowContext) -> Result<(), FlowError> {
                Ok(())
            }
        }
        // …usable under both names, with the default opaque signature.
        let m: &dyn Module = &Nop;
        assert!(!m.ports().is_declared());
        let t: &dyn Task = &Nop;
        assert_eq!(t.info().name, "nop");
    }
}
