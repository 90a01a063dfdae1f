//! Structured flow tracing.
//!
//! The engine records what a flow did as a tree of [`TraceEvent`]s instead
//! of a flat string log: task spans carry their class and wall-clock
//! duration, branch events carry the deciding strategy's evidence and the
//! selection with one sub-trace per followed path, and DSE events carry the
//! explored design space as data. Two consumers are supported:
//!
//! * [`render_lines`] flattens the tree back into exactly the
//!   human-readable lines the flat log used to contain (so existing log
//!   assertions and reports keep working, and so parallel and sequential
//!   engine runs can be compared byte-for-byte — wall-clock durations are
//!   deliberately *not* rendered);
//! * [`to_json`] exports the full tree, durations included, for machine
//!   consumption. The encoder is hand-rolled because the in-tree `serde`
//!   compat shim is marker-only (see `compat/serde`).

use crate::flow::FlowError;
use psa_obs::json::write_str;
use std::fmt::Write as _;

/// One node of a flow's execution trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A free-form line recorded by a task or strategy via
    /// [`crate::context::FlowContext::log`].
    Note { text: String },
    /// A task execution span. `events` holds everything the task recorded
    /// while running; `wall_ns` is the measured host-side duration.
    Task {
        /// Name of the flow the task ran in.
        flow: String,
        /// Task name from its [`crate::task::TaskInfo`].
        name: String,
        /// Class code: `A`, `T`, `CG` or `O`.
        class: String,
        /// Whether the task executes the program (the paper's ⚡ marker).
        dynamic: bool,
        /// Host wall-clock duration of the task's `run`, nanoseconds.
        wall_ns: u64,
        /// Estimated duration of the work the task modelled, seconds, when
        /// the task produced one (DSE and code-generation tasks do).
        virtual_s: Option<f64>,
        /// Events recorded while the task ran.
        events: Vec<TraceEvent>,
    },
    /// A branch-point decision plus every followed path's sub-trace.
    Branch {
        /// Name of the flow the branch belongs to.
        flow: String,
        /// Branch-point name, e.g. `A (target mapping)`.
        branch: String,
        /// Name of the deciding strategy.
        strategy: String,
        /// Events the strategy recorded while deciding (its evidence
        /// lines).
        evidence: Vec<TraceEvent>,
        /// Typed evidence recorded via
        /// [`crate::context::FlowContext::record_decision`], when the
        /// strategy provides it.
        decision: Option<DecisionEvidence>,
        /// What was selected.
        selection: SelectionTrace,
        /// One sub-trace per followed path, in path-index order.
        paths: Vec<PathTrace>,
    },
    /// A design-space-exploration result.
    Dse(DseTrace),
    /// Evaluation-cache summary for one flow run: how the shared
    /// content-addressed cache behaved while the flow executed. Recorded in
    /// the structured trace (JSON export) but deliberately *not* rendered
    /// into the legacy lines — hit/miss counts legitimately differ between
    /// parallel and sequential engines (concurrent misses on the same key
    /// both count), and rendered traces must stay byte-identical.
    CacheStats {
        /// Name of the flow the summary belongs to.
        flow: String,
        /// Cache hits while the flow ran.
        hits: u64,
        /// Cache misses while the flow ran.
        misses: u64,
        /// FIFO evictions while the flow ran.
        evictions: u64,
        /// Live entries at the end of the run.
        entries: u64,
    },
    /// A `Many`-branch path that failed and was dropped under
    /// [`crate::engine::FailurePolicy::DegradePaths`] (or failed under
    /// `FailFast`, where the error also propagates). Appended to the
    /// injured path's own event list so the rendered trace shows exactly
    /// where the sweep degraded.
    PathFailed {
        /// Name of the flow the branch belongs to.
        flow: String,
        /// Branch-point name.
        branch: String,
        /// Index of the failed path.
        index: usize,
        /// The failed path's label.
        label: String,
        /// Why the path failed.
        error: FlowError,
    },
    /// One retry of a transient task under
    /// [`crate::engine::FailurePolicy::Retry`]. Recorded inside the task's
    /// span; `backoff_ms` is the *virtual* backoff (deterministic, never
    /// slept).
    TaskRetry {
        /// Name of the flow the task ran in.
        flow: String,
        /// The retried task's name.
        task: String,
        /// 1-based retry number.
        attempt: u32,
        /// Virtual backoff before this retry, milliseconds.
        backoff_ms: u64,
        /// Message of the error the previous attempt failed with.
        error: String,
    },
}

/// The selection a strategy made, mirroring [`crate::flow::Selection`] but
/// carrying the labels needed to render the legacy lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectionTrace {
    /// No path; the flow terminated.
    None,
    /// A single path.
    One { index: usize, label: String },
    /// Several paths, executed in index order.
    Many {
        indices: Vec<usize>,
        labels: Vec<String>,
    },
}

/// The recorded execution of one followed branch path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathTrace {
    /// Index into the branch point's `paths`.
    pub index: usize,
    /// The path's label.
    pub label: String,
    /// Everything the path's sub-flow recorded. Sibling paths never see
    /// each other's events (or any other context state).
    pub events: Vec<TraceEvent>,
}

/// Typed evidence behind a target-mapping decision (the quantities Fig. 3
/// compares). Strategies fill in what they actually measured.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DecisionEvidence {
    /// Whether pointer analysis observed aliasing kernel arguments.
    pub may_alias: Option<bool>,
    /// Measured arithmetic intensity, FLOPs/byte.
    pub ai: Option<f64>,
    /// The strategy's AI threshold (the paper's `X`).
    pub ai_threshold: Option<f64>,
    /// Estimated accelerator transfer time, seconds.
    pub t_transfer_s: Option<f64>,
    /// Estimated single-thread CPU time, seconds.
    pub t_cpu_s: Option<f64>,
    /// Whether the outer hotspot loop is parallel.
    pub outer_parallel: Option<bool>,
    /// Number of dependence-carrying inner loops.
    pub inner_dep_loops: Option<usize>,
    /// Whether those inner loops are all fully unrollable.
    pub inner_unrollable: Option<bool>,
    /// The chosen target's label, or `None` when the flow terminated.
    pub chosen: Option<String>,
}

/// A DSE task's explored-and-chosen summary. Each variant renders to the
/// exact line the flat log used to carry.
#[derive(Debug, Clone, PartialEq)]
pub enum DseTrace {
    /// OpenMP thread-count sweep.
    OmpThreads { threads: u32, est_s: f64 },
    /// GPU launch-geometry sweep on one device.
    Blocksize {
        device: String,
        blocksize: u32,
        occupancy: f64,
        est_s: f64,
        evaluated: u32,
    },
    /// Fig. 2 unroll-until-overmap on one FPGA.
    Unroll {
        device: String,
        factor: u64,
        lut_util: f64,
        iterations: u32,
    },
    /// The un-unrolled design already overmaps the device.
    UnrollOvermapped { device: String, lut_util: f64 },
}

impl DseTrace {
    /// The legacy log line for this event.
    pub fn render(&self) -> String {
        match self {
            DseTrace::OmpThreads { threads, est_s } => {
                format!("OMP threads DSE: {threads} threads, estimated {est_s:.3e}s")
            }
            DseTrace::Blocksize { device, blocksize, occupancy, est_s, evaluated } => format!(
                "blocksize DSE on {device}: {blocksize} threads/block \
                 (occupancy {occupancy:.2}, est. {est_s:.3e}s, {evaluated} configs)"
            ),
            DseTrace::Unroll { device, factor, lut_util, iterations } => format!(
                "unroll DSE on {device}: factor {factor} (LUT {:.0}%, {iterations} partial compiles)",
                lut_util * 100.0
            ),
            DseTrace::UnrollOvermapped { device, lut_util } => format!(
                "unroll DSE: design overmaps {device} at unroll 1 (LUT {:.0}%)",
                lut_util * 100.0
            ),
        }
    }
}

/// Flatten a trace back into the legacy human-readable lines, in exactly
/// the order the sequential string-log engine produced them.
pub fn render_lines(events: &[TraceEvent]) -> Vec<String> {
    let mut out = Vec::new();
    for event in events {
        render_event(event, &mut out);
    }
    out
}

fn render_event(event: &TraceEvent, out: &mut Vec<String>) {
    match event {
        TraceEvent::Note { text } => out.push(text.clone()),
        TraceEvent::Task {
            flow,
            name,
            class,
            dynamic,
            events,
            ..
        } => {
            out.push(format!(
                "[{flow}] task `{name}` ({class}{})",
                if *dynamic { ", dynamic" } else { "" }
            ));
            for child in events {
                render_event(child, out);
            }
        }
        TraceEvent::Branch {
            flow,
            branch,
            evidence,
            selection,
            paths,
            ..
        } => {
            for child in evidence {
                render_event(child, out);
            }
            match selection {
                SelectionTrace::None => out.push(format!(
                    "[{flow}] branch `{branch}`: no path selected; flow terminates"
                )),
                SelectionTrace::One { label, .. } => out.push(format!(
                    "[{flow}] branch `{branch}`: selected path `{label}`"
                )),
                SelectionTrace::Many { labels, .. } => out.push(format!(
                    "[{flow}] branch `{branch}`: selected paths {labels:?}"
                )),
            }
            for path in paths {
                for child in &path.events {
                    render_event(child, out);
                }
            }
        }
        TraceEvent::Dse(dse) => out.push(dse.render()),
        // Cache statistics are engine-schedule-dependent (see the variant
        // doc); like task wall-clocks they are recorded but never rendered.
        TraceEvent::CacheStats { .. } => {}
        TraceEvent::PathFailed {
            flow,
            branch,
            index,
            label,
            error,
        } => out.push(format!(
            "[{flow}] branch `{branch}`: path {index} `{label}` failed: {}",
            error.message()
        )),
        TraceEvent::TaskRetry {
            flow,
            task,
            attempt,
            backoff_ms,
            error,
        } => out.push(format!(
            "[{flow}] task `{task}` retry {attempt} after {backoff_ms}ms (virtual): {error}"
        )),
    }
}

/// Export a trace as a JSON array (durations included).
pub fn to_json(events: &[TraceEvent]) -> String {
    let mut s = String::new();
    write_events(&mut s, events);
    s
}

fn write_events(s: &mut String, events: &[TraceEvent]) {
    s.push('[');
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write_event(s, e);
    }
    s.push(']');
}

fn write_event(s: &mut String, event: &TraceEvent) {
    match event {
        TraceEvent::Note { text } => {
            s.push_str("{\"kind\":\"note\",\"text\":");
            write_str(s, text);
            s.push('}');
        }
        TraceEvent::Task {
            flow,
            name,
            class,
            dynamic,
            wall_ns,
            virtual_s,
            events,
        } => {
            s.push_str("{\"kind\":\"task\",\"flow\":");
            write_str(s, flow);
            s.push_str(",\"name\":");
            write_str(s, name);
            s.push_str(",\"class\":");
            write_str(s, class);
            let _ = write!(s, ",\"dynamic\":{dynamic},\"wall_ns\":{wall_ns}");
            if let Some(v) = virtual_s {
                let _ = write!(s, ",\"virtual_s\":{}", json_f64(*v));
            }
            s.push_str(",\"events\":");
            write_events(s, events);
            s.push('}');
        }
        TraceEvent::Branch {
            flow,
            branch,
            strategy,
            evidence,
            decision,
            selection,
            paths,
        } => {
            s.push_str("{\"kind\":\"branch\",\"flow\":");
            write_str(s, flow);
            s.push_str(",\"branch\":");
            write_str(s, branch);
            s.push_str(",\"strategy\":");
            write_str(s, strategy);
            s.push_str(",\"evidence\":");
            write_events(s, evidence);
            if let Some(d) = decision {
                s.push_str(",\"decision\":");
                write_decision(s, d);
            }
            s.push_str(",\"selection\":");
            match selection {
                SelectionTrace::None => s.push_str("{\"kind\":\"none\"}"),
                SelectionTrace::One { index, label } => {
                    let _ = write!(s, "{{\"kind\":\"one\",\"index\":{index},\"label\":");
                    write_str(s, label);
                    s.push('}');
                }
                SelectionTrace::Many { indices, labels } => {
                    let _ = write!(
                        s,
                        "{{\"kind\":\"many\",\"indices\":{indices:?},\"labels\":["
                    );
                    for (i, l) in labels.iter().enumerate() {
                        if i > 0 {
                            s.push(',');
                        }
                        write_str(s, l);
                    }
                    s.push_str("]}");
                }
            }
            s.push_str(",\"paths\":[");
            for (i, p) in paths.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{{\"index\":{},\"label\":", p.index);
                write_str(s, &p.label);
                s.push_str(",\"events\":");
                write_events(s, &p.events);
                s.push('}');
            }
            s.push_str("]}");
        }
        TraceEvent::Dse(dse) => {
            s.push_str("{\"kind\":\"dse\",");
            match dse {
                DseTrace::OmpThreads { threads, est_s } => {
                    let _ = write!(
                        s,
                        "\"dse\":\"omp-threads\",\"threads\":{threads},\"est_s\":{}",
                        json_f64(*est_s)
                    );
                }
                DseTrace::Blocksize {
                    device,
                    blocksize,
                    occupancy,
                    est_s,
                    evaluated,
                } => {
                    s.push_str("\"dse\":\"blocksize\",\"device\":");
                    write_str(s, device);
                    let _ = write!(
                        s,
                        ",\"blocksize\":{blocksize},\"occupancy\":{},\"est_s\":{},\"evaluated\":{evaluated}",
                        json_f64(*occupancy),
                        json_f64(*est_s)
                    );
                }
                DseTrace::Unroll {
                    device,
                    factor,
                    lut_util,
                    iterations,
                } => {
                    s.push_str("\"dse\":\"unroll\",\"device\":");
                    write_str(s, device);
                    let _ = write!(
                        s,
                        ",\"factor\":{factor},\"lut_util\":{},\"iterations\":{iterations}",
                        json_f64(*lut_util)
                    );
                }
                DseTrace::UnrollOvermapped { device, lut_util } => {
                    s.push_str("\"dse\":\"unroll-overmapped\",\"device\":");
                    write_str(s, device);
                    let _ = write!(s, ",\"lut_util\":{}", json_f64(*lut_util));
                }
            }
            s.push('}');
        }
        TraceEvent::CacheStats {
            flow,
            hits,
            misses,
            evictions,
            entries,
        } => {
            s.push_str("{\"kind\":\"cache-stats\",\"flow\":");
            write_str(s, flow);
            let _ = write!(
                s,
                ",\"hits\":{hits},\"misses\":{misses},\"evictions\":{evictions},\"entries\":{entries}}}"
            );
        }
        TraceEvent::PathFailed {
            flow,
            branch,
            index,
            label,
            error,
        } => {
            s.push_str("{\"kind\":\"path-failed\",\"flow\":");
            write_str(s, flow);
            s.push_str(",\"branch\":");
            write_str(s, branch);
            let _ = write!(s, ",\"index\":{index},\"label\":");
            write_str(s, label);
            s.push_str(",\"error\":");
            write_str(s, &error.message());
            s.push('}');
        }
        TraceEvent::TaskRetry {
            flow,
            task,
            attempt,
            backoff_ms,
            error,
        } => {
            s.push_str("{\"kind\":\"task-retry\",\"flow\":");
            write_str(s, flow);
            s.push_str(",\"task\":");
            write_str(s, task);
            let _ = write!(
                s,
                ",\"attempt\":{attempt},\"backoff_ms\":{backoff_ms},\"error\":"
            );
            write_str(s, error);
            s.push('}');
        }
    }
}

fn write_decision(s: &mut String, d: &DecisionEvidence) {
    s.push('{');
    let mut first = true;
    let mut field = |s: &mut String, name: &str, value: String| {
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(s, "\"{name}\":{value}");
    };
    if let Some(v) = d.may_alias {
        field(s, "may_alias", v.to_string());
    }
    if let Some(v) = d.ai {
        field(s, "ai", json_f64(v));
    }
    if let Some(v) = d.ai_threshold {
        field(s, "ai_threshold", json_f64(v));
    }
    if let Some(v) = d.t_transfer_s {
        field(s, "t_transfer_s", json_f64(v));
    }
    if let Some(v) = d.t_cpu_s {
        field(s, "t_cpu_s", json_f64(v));
    }
    if let Some(v) = d.outer_parallel {
        field(s, "outer_parallel", v.to_string());
    }
    if let Some(v) = d.inner_dep_loops {
        field(s, "inner_dep_loops", v.to_string());
    }
    if let Some(v) = d.inner_unrollable {
        field(s, "inner_unrollable", v.to_string());
    }
    if let Some(v) = &d.chosen {
        let mut quoted = String::new();
        write_str(&mut quoted, v);
        field(s, "chosen", quoted);
    }
    s.push('}');
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no Infinity/NaN; encode as null.
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn note(text: &str) -> TraceEvent {
        TraceEvent::Note { text: text.into() }
    }

    #[test]
    fn renders_task_header_before_nested_events() {
        let events = vec![TraceEvent::Task {
            flow: "psa-flow".into(),
            name: "Pointer Analysis".into(),
            class: "A".into(),
            dynamic: true,
            wall_ns: 1234,
            virtual_s: None,
            events: vec![note(
                "pointer analysis: no aliasing across 1 kernel call(s)",
            )],
        }];
        assert_eq!(
            render_lines(&events),
            vec![
                "[psa-flow] task `Pointer Analysis` (A, dynamic)",
                "pointer analysis: no aliasing across 1 kernel call(s)",
            ]
        );
    }

    #[test]
    fn renders_branch_evidence_then_selection_then_paths_in_index_order() {
        let events = vec![TraceEvent::Branch {
            flow: "cpu+gpu".into(),
            branch: "B (GPU device)".into(),
            strategy: "select-all".into(),
            evidence: vec![note("[PSA A] some evidence")],
            decision: None,
            selection: SelectionTrace::Many {
                indices: vec![0, 1],
                labels: vec!["gtx-1080-ti".into(), "rtx-2080-ti".into()],
            },
            paths: vec![
                PathTrace {
                    index: 0,
                    label: "gtx-1080-ti".into(),
                    events: vec![note("p0")],
                },
                PathTrace {
                    index: 1,
                    label: "rtx-2080-ti".into(),
                    events: vec![note("p1")],
                },
            ],
        }];
        assert_eq!(
            render_lines(&events),
            vec![
                "[PSA A] some evidence",
                "[cpu+gpu] branch `B (GPU device)`: selected paths [\"gtx-1080-ti\", \"rtx-2080-ti\"]",
                "p0",
                "p1",
            ]
        );
    }

    #[test]
    fn dse_events_render_the_legacy_lines() {
        assert_eq!(
            DseTrace::OmpThreads {
                threads: 32,
                est_s: 1.5e-3
            }
            .render(),
            "OMP threads DSE: 32 threads, estimated 1.500e-3s"
        );
        assert_eq!(
            DseTrace::Blocksize {
                device: "GeForce RTX 2080 Ti".into(),
                blocksize: 256,
                occupancy: 0.875,
                est_s: 2.0e-4,
                evaluated: 6,
            }
            .render(),
            "blocksize DSE on GeForce RTX 2080 Ti: 256 threads/block (occupancy 0.88, est. 2.000e-4s, 6 configs)"
        );
        assert_eq!(
            DseTrace::Unroll {
                device: "PAC Arria10".into(),
                factor: 8,
                lut_util: 0.62,
                iterations: 5,
            }
            .render(),
            "unroll DSE on PAC Arria10: factor 8 (LUT 62%, 5 partial compiles)"
        );
        assert_eq!(
            DseTrace::UnrollOvermapped {
                device: "PAC Arria10".into(),
                lut_util: 1.34
            }
            .render(),
            "unroll DSE: design overmaps PAC Arria10 at unroll 1 (LUT 134%)"
        );
    }

    #[test]
    fn json_export_escapes_and_nests() {
        let events = vec![
            note("say \"hi\"\n"),
            TraceEvent::Dse(DseTrace::OmpThreads {
                threads: 8,
                est_s: 0.25,
            }),
        ];
        let json = to_json(&events);
        assert_eq!(
            json,
            "[{\"kind\":\"note\",\"text\":\"say \\\"hi\\\"\\n\"},\
             {\"kind\":\"dse\",\"dse\":\"omp-threads\",\"threads\":8,\"est_s\":0.25}]"
        );
    }

    #[test]
    fn cache_stats_export_to_json_but_never_render() {
        let events = vec![
            note("before"),
            TraceEvent::CacheStats {
                flow: "psa-flow".into(),
                hits: 12,
                misses: 3,
                evictions: 0,
                entries: 3,
            },
        ];
        assert_eq!(render_lines(&events), vec!["before"]);
        let json = to_json(&events);
        assert!(
            json.contains(
                "{\"kind\":\"cache-stats\",\"flow\":\"psa-flow\",\
                 \"hits\":12,\"misses\":3,\"evictions\":0,\"entries\":3}"
            ),
            "{json}"
        );
    }

    #[test]
    fn json_export_handles_branches_and_decisions() {
        let events = vec![TraceEvent::Branch {
            flow: "f".into(),
            branch: "A".into(),
            strategy: "fig3-target-select".into(),
            evidence: vec![note("[PSA A] offload test")],
            decision: Some(DecisionEvidence {
                ai: Some(1.5),
                ai_threshold: Some(0.5),
                outer_parallel: Some(true),
                chosen: Some("CPU+GPU".into()),
                ..DecisionEvidence::default()
            }),
            selection: SelectionTrace::One {
                index: 0,
                label: "cpu+gpu".into(),
            },
            paths: vec![PathTrace {
                index: 0,
                label: "cpu+gpu".into(),
                events: vec![],
            }],
        }];
        let json = to_json(&events);
        assert!(json.contains("\"decision\":{\"ai\":1.5,\"ai_threshold\":0.5,\"outer_parallel\":true,\"chosen\":\"CPU+GPU\"}"), "{json}");
        assert!(
            json.contains("\"selection\":{\"kind\":\"one\",\"index\":0,\"label\":\"cpu+gpu\"}"),
            "{json}"
        );
    }
}
