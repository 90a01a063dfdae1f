//! In-memory spans for the traced run. The harness opens a span around each
//! call it makes into a public layer; a flow span gets one child per task
//! the engine recorded in `FlowOutcome.trace`, sized by the task's
//! `wall_ns`. Nothing inside the program is instrumented.

use psaflow_core::TraceEvent;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Append-only span store with one time origin.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: u64,
    ) -> usize {
        let span = Span {
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            job,
        };
        self.push(span)
    }

    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Nest the engine's task timings under the flow span `flow`. The
    /// sequential engine runs tasks one after another, so they are laid
    /// out back to back from the flow's start.
    pub fn nest_tasks(&mut self, flow: usize, tasks: &[TaskTime]) {
        let (mut at, job) = (self.spans[flow].start_ns, self.spans[flow].job);
        for t in tasks {
            self.push(Span {
                name: format!("task/{}/{}", t.class, t.name),
                start_ns: at,
                end_ns: at + t.wall_ns,
                parent: Some(flow),
                job,
            });
            at += t.wall_ns;
        }
    }

    /// A span's duration minus the part of its interval its children
    /// cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let span = &self.spans[idx];
        let mut covered: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
            .filter(|(s, e)| s < e)
            .collect();
        covered.sort_unstable();
        let mut union = 0;
        let mut reach = span.start_ns;
        for (s, e) in covered {
            let s = s.max(reach);
            if e > s {
                union += e - s;
                reach = e;
            }
        }
        span.duration_ns().saturating_sub(union)
    }

    /// The spans as one JSON document, with each span's self time.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push('{');
            let _ = write!(out, "\"id\":{i},\"name\":");
            psa_serve::proto::push_json_str(&mut out, &s.name);
            let _ = write!(
                out,
                ",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"job\":{}}}",
                s.start_ns,
                s.end_ns,
                self.self_ns(i),
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.job
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// One task execution from a flow trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskTime {
    pub name: String,
    /// `A`, `T`, `CG` or `O`.
    pub class: String,
    pub dynamic: bool,
    pub wall_ns: u64,
}

/// Every task span in `events`, in execution order, descending into the
/// paths of branch points. A task's own events are not descended into:
/// its `wall_ns` already covers them.
pub fn task_times(events: &[TraceEvent]) -> Vec<TaskTime> {
    let mut out = Vec::new();
    collect(events, &mut out);
    out
}

fn collect(events: &[TraceEvent], out: &mut Vec<TaskTime>) {
    for ev in events {
        match ev {
            TraceEvent::Task {
                name,
                class,
                dynamic,
                wall_ns,
                ..
            } => out.push(TaskTime {
                name: name.clone(),
                class: class.clone(),
                dynamic: *dynamic,
                wall_ns: *wall_ns,
            }),
            TraceEvent::Branch { paths, .. } => {
                for p in paths {
                    collect(&p.events, out);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psaflow_core::trace::PathTrace;
    use psaflow_core::SelectionTrace;

    fn task(
        name: &str,
        class: &str,
        dynamic: bool,
        wall_ns: u64,
        events: Vec<TraceEvent>,
    ) -> TraceEvent {
        TraceEvent::Task {
            flow: "psa-flow".into(),
            name: name.into(),
            class: class.into(),
            dynamic,
            wall_ns,
            virtual_s: None,
            events,
        }
    }

    fn tree() -> Vec<TraceEvent> {
        vec![
            task("profile", "A", true, 30, vec![]),
            TraceEvent::Note { text: "n".into() },
            TraceEvent::Branch {
                flow: "psa-flow".into(),
                branch: "A (target mapping)".into(),
                strategy: "s".into(),
                evidence: vec![],
                decision: None,
                selection: SelectionTrace::Many {
                    indices: vec![0, 1],
                    labels: vec!["gpu".into(), "fpga".into()],
                },
                paths: vec![
                    PathTrace {
                        index: 0,
                        label: "gpu".into(),
                        events: vec![task("unroll", "T", false, 20, vec![])],
                    },
                    PathTrace {
                        index: 1,
                        label: "fpga".into(),
                        events: vec![task(
                            "dse",
                            "O",
                            false,
                            15,
                            // Nested inside the DSE task's own span: must not
                            // be counted a second time.
                            vec![task("inner", "CG", false, 5, vec![])],
                        )],
                    },
                ],
            },
        ]
    }

    #[test]
    fn task_times_descend_into_branch_paths_only() {
        let t = task_times(&tree());
        let names: Vec<&str> = t.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["profile", "unroll", "dse"]);
        assert_eq!(t.iter().filter(|t| t.dynamic).count(), 1);
    }

    #[test]
    fn self_time_subtracts_nested_tasks() {
        let mut rec = Recorder::new();
        let flow = rec.push(Span {
            name: "flow".into(),
            start_ns: 1_000,
            end_ns: 1_100,
            parent: None,
            job: 7,
        });
        rec.nest_tasks(flow, &task_times(&tree()));
        assert_eq!(rec.spans.len(), 4);
        assert!(rec.spans[1..]
            .iter()
            .all(|s| s.parent == Some(flow) && s.job == 7));
        assert_eq!(rec.spans[3].start_ns, 1_050);
        // 100 ns of flow minus 30 + 20 + 15 ns of tasks.
        assert_eq!(rec.self_ns(flow), 35);
        assert_eq!(rec.self_ns(1), 30);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let mut rec = Recorder::new();
        let p = rec.push(Span {
            name: "p".into(),
            start_ns: 0,
            end_ns: 100,
            parent: None,
            job: 0,
        });
        for (s, e) in [(10, 40), (30, 60), (90, 150)] {
            rec.push(Span {
                name: "c".into(),
                start_ns: s,
                end_ns: e,
                parent: Some(p),
                job: 0,
            });
        }
        // Covered: [10, 60) and [90, 100).
        assert_eq!(rec.self_ns(p), 40);
        let json = rec.to_json();
        assert!(json.contains("\"self_ns\":40"), "{json}");
        psa_obs::json::parse(&json).expect("span dump is valid JSON");
    }
}
