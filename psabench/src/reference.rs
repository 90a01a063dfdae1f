//! The output check. A child process pinned to the tree-walking
//! interpreter (the engine default is first-caller-wins, so it cannot be
//! switched inside the measuring process) recomputes every distinct job
//! content of a workload and replays its submission stream through a
//! paused server's admission control. The parent then compares every job
//! status, failure detail, rendered outcome and refusal byte for byte.
//!
//! Child output, one JSON object per line:
//! `{"key":…,"status":…,"detail":…,"outcome":…|null}` per content and
//! `{"rejected":…}` per refused submission id.

use crate::gen::{self, FlowSpec};
use crate::Workload;
use psa_evalcache::EvalCache;
use psa_serve::proto::push_json_str;
use psa_serve::{JobSpec, Request, Response, Server, ServerConfig};
use psaflow_core::{FlowEngine, FlowError, FlowJob, FlowMode, FlowOutcome, PsaParams};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;

/// What a job with some content must produce.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    pub status: String,
    pub detail: String,
    pub outcome: Option<String>,
}

/// The reference for one run.
#[derive(Debug, Default)]
pub struct Reference {
    pub contents: BTreeMap<String, Expect>,
    pub rejected: BTreeSet<String>,
}

/// Counts mismatches, reporting the first few.
#[derive(Debug, Default)]
pub struct Checker {
    pub mismatches: u64,
}

impl Checker {
    pub fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        if self.mismatches <= 5 {
            eprintln!("psabench: mismatch: {what}");
        }
    }

    /// Compare one finished job against the content it names. `app` is the
    /// `(content key, job id)` pair when the job's app name is its id
    /// (inline-source jobs): the reference ran under the content key.
    pub fn check(
        &mut self,
        reference: &Reference,
        key: &str,
        id: &str,
        got: &Expect,
        app: Option<(&str, &str)>,
    ) -> bool {
        let Some(want) = reference.contents.get(key) else {
            self.mismatch(format!("{id}: no reference for content {key}"));
            return false;
        };
        let want_outcome = match (app, &want.outcome) {
            (Some((from, to)), Some(o)) => Some(rename_app(o, from, to)),
            (_, o) => o.clone(),
        };
        if got.status != want.status || got.detail != want.detail || got.outcome != want_outcome {
            self.mismatch(format!(
                "{id} ({key}): got status {} detail {:?}, want status {} detail {:?}{}",
                got.status,
                got.detail,
                want.status,
                want.detail,
                if got.outcome != want_outcome {
                    "; rendered outcomes differ"
                } else {
                    ""
                }
            ));
            return false;
        }
        true
    }

    /// Compare the set of refused submission ids.
    pub fn check_rejected(&mut self, reference: &Reference, got: &BTreeSet<String>) {
        if *got != reference.rejected {
            let extra: Vec<&String> = got.difference(&reference.rejected).take(3).collect();
            let missing: Vec<&String> = reference.rejected.difference(got).take(3).collect();
            self.mismatch(format!(
                "refused {} submissions, reference refused {} (extra {extra:?}, missing {missing:?})",
                got.len(),
                reference.rejected.len()
            ));
        }
    }
}

/// Replace the leading `"app"` field of a rendered outcome.
fn rename_app(outcome: &str, from: &str, to: &str) -> String {
    let (mut f, mut t) = (String::from("{\"app\":"), String::from("{\"app\":"));
    push_json_str(&mut f, from);
    push_json_str(&mut t, to);
    match outcome.strip_prefix(f.as_str()) {
        Some(rest) => t + rest,
        None => outcome.to_owned(),
    }
}

/// The observable result of an offline flow.
pub fn flow_result(r: &Result<FlowOutcome, FlowError>) -> Expect {
    match r {
        Ok(o) => Expect {
            status: "done".into(),
            detail: String::new(),
            outcome: Some(psa_serve::render_outcome(o)),
        },
        Err(e) => Expect {
            status: "failed".into(),
            detail: e.message(),
            outcome: None,
        },
    }
}

/// The observable result of a served job.
pub fn job_result(r: &psa_serve::JobResult) -> Expect {
    Expect {
        status: r.status.label().to_owned(),
        detail: r.detail.clone(),
        outcome: r.outcome.clone(),
    }
}

/// Run the reference child for `workload` and parse its lines. `jobs` is
/// the number of stream submissions the measured run made.
pub fn fetch(workload: Workload, seed: u64, jobs: usize) -> Result<Reference, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--reference",
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--jobs",
            &jobs.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the reference process: {e}"))?;
    if !out.status.success() {
        return Err(format!("reference process exited with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("reference output: {e}"))?;
    parse(&text)
}

fn parse(text: &str) -> Result<Reference, String> {
    let mut r = Reference::default();
    for line in text.lines() {
        let j = psa_obs::json::parse(line).map_err(|e| format!("reference line {line:?}: {e}"))?;
        if let Some(id) = j.get("rejected").and_then(|v| v.as_str()) {
            r.rejected.insert(id.to_owned());
            continue;
        }
        let field = |k: &str| {
            j.get(k)
                .and_then(|v| v.as_str())
                .map(str::to_owned)
                .ok_or_else(|| format!("reference line lacks {k}: {line}"))
        };
        r.contents.insert(
            field("key")?,
            Expect {
                status: field("status")?,
                detail: field("detail")?,
                outcome: j.get("outcome").and_then(|v| v.as_str()).map(str::to_owned),
            },
        );
    }
    Ok(r)
}

fn content_line(key: &str, e: &Expect) -> String {
    let mut s = String::from("{\"key\":");
    push_json_str(&mut s, key);
    s.push_str(",\"status\":");
    push_json_str(&mut s, &e.status);
    s.push_str(",\"detail\":");
    push_json_str(&mut s, &e.detail);
    s.push_str(",\"outcome\":");
    match &e.outcome {
        Some(o) => push_json_str(&mut s, o),
        None => s.push_str("null"),
    }
    s.push('}');
    s
}

fn rejected_line(id: &str) -> String {
    let mut s = String::from("{\"rejected\":");
    push_json_str(&mut s, id);
    s.push('}');
    s
}

/// Benchmark parameters of an app, as the offline harness passes them.
pub fn bench_params(app: &str) -> PsaParams {
    psa_bench::params_for(&psa_benchsuite::by_key(app).expect("known app"))
}

/// Run one offline flow job, the way offline_cold measures it.
pub fn offline_job(
    spec: &FlowSpec,
    params: PsaParams,
    cache: Arc<EvalCache>,
) -> Result<FlowOutcome, FlowError> {
    psaflow_core::run_flow_job(
        FlowEngine::sequential(),
        FlowJob {
            source: &spec.source,
            app_name: spec.app,
            mode: spec.mode,
            params,
            cache,
            faults: None,
            span_root: None,
            cancel: None,
        },
    )
}

/// Refusals of `stream` under `cfg`'s admission control, replayed on a
/// paused server so nothing executes. Admission runs on the stream's
/// virtual clock, so a live server must refuse exactly these.
fn replay_admission(cfg: &ServerConfig, stream: &[Request]) -> Vec<String> {
    let server = Server::new(ServerConfig {
        paused: true,
        ..cfg.clone()
    });
    let mut refused = Vec::new();
    for req in stream {
        if let Some(Response::Rejected { id, .. }) = server.handle_request(req).first() {
            refused.push(id.clone());
        }
    }
    refused
}

/// Serve `contents` (id = content key) on a paused server with an
/// unbounded cache and report each job's result.
fn serve_contents(cfg: &ServerConfig, contents: Vec<JobSpec>) -> Vec<(String, Expect)> {
    let server = Server::new(ServerConfig {
        paused: true,
        queue_capacity: 1 << 20,
        default_policy: crate::layers::WIDE_OPEN,
        tenants: Vec::new(),
        cache_capacity: 1 << 20,
        cache_domain_quota: None,
        ..cfg.clone()
    });
    for spec in contents {
        let resp = server.handle_request(&Request::Submit(spec));
        assert!(
            matches!(resp.first(), Some(Response::Accepted { .. })),
            "reference server admits everything"
        );
    }
    server
        .handle_request(&Request::Wait)
        .into_iter()
        .filter_map(|r| match r {
            Response::Result(r) => Some((r.id.clone(), job_result(&r))),
            _ => None,
        })
        .collect()
}

/// Entry point of the reference child process.
pub fn child_main(workload: Workload, seed: u64, jobs: usize) -> ExitCode {
    if !psa_interp::set_default_engine(psa_interp::Engine::Tree) {
        eprintln!("psabench reference: interpreter engine already chosen");
        return ExitCode::FAILURE;
    }
    crate::quiet_injected_panics();
    let mut lines = Vec::new();
    match workload {
        Workload::OfflineCold => {
            // Two threads, one per core, each taking every other job.
            let pool = gen::offline_pool(seed);
            let cache = Arc::new(EvalCache::with_capacity(1 << 20));
            let run = |parity: usize| {
                (parity..pool.len())
                    .step_by(2)
                    .map(|i| {
                        let r =
                            offline_job(&pool[i], bench_params(pool[i].app), Arc::clone(&cache));
                        (i, content_line(&i.to_string(), &flow_result(&r)))
                    })
                    .collect::<Vec<_>>()
            };
            let mut done: Vec<(usize, String)> = std::thread::scope(|s| {
                let odd = s.spawn(|| run(1));
                let mut even = run(0);
                even.extend(odd.join().expect("reference thread panicked"));
                even
            });
            done.sort_unstable_by_key(|(i, _)| *i);
            lines.extend(done.into_iter().map(|(_, line)| line));
        }
        Workload::ServeWarm => {
            let cfg = crate::serve_warm::config();
            let stream = gen::warm_stream(seed, jobs);
            lines.extend(
                replay_admission(&cfg, &stream)
                    .iter()
                    .map(|id| rejected_line(id)),
            );
            let mut contents = Vec::new();
            for app in gen::APPS {
                for mode in [FlowMode::Informed, FlowMode::Uninformed] {
                    contents.push(crate::serve_warm::pair_spec(app, mode));
                }
            }
            for (key, e) in serve_contents(&cfg, contents) {
                lines.push(content_line(&key, &e));
            }
        }
        Workload::ServeChurn => {
            let cfg = crate::serve_churn::config();
            let churn = gen::churn(seed, jobs);
            let stream: Vec<Request> = churn
                .jobs
                .iter()
                .map(|j| Request::Submit(j.spec.clone()))
                .collect();
            let refused = replay_admission(&cfg, &stream);
            let refused_set: BTreeSet<&String> = refused.iter().collect();
            lines.extend(refused.iter().map(|id| rejected_line(id)));
            let mut contents: BTreeMap<&str, JobSpec> = BTreeMap::new();
            for j in churn
                .jobs
                .iter()
                .filter(|j| !refused_set.contains(&j.spec.id))
            {
                contents.entry(&j.content).or_insert_with(|| JobSpec {
                    id: j.content.clone(),
                    tenant: "reference".into(),
                    deadline_ms: None,
                    arrive_ms: 0,
                    ..j.spec.clone()
                });
            }
            let contents = contents.into_values().collect();
            for (key, e) in serve_contents(&cfg, contents) {
                lines.push(content_line(&key, &e));
            }
        }
    }
    let mut out = std::io::stdout().lock();
    for line in lines {
        if writeln!(out, "{line}").is_err() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_lines_round_trip() {
        let e = Expect {
            status: "done".into(),
            detail: "tab\tquote\" newline\n".into(),
            outcome: Some("{\"app\":\"p3-x\",\"designs\":[]}".into()),
        };
        let text = format!(
            "{}\n{}\n{}\n",
            content_line("p3-x", &e),
            content_line(
                "k2",
                &Expect {
                    outcome: None,
                    ..e.clone()
                }
            ),
            rejected_line("alpha-00001")
        );
        let r = parse(&text).expect("parses");
        assert_eq!(r.contents["p3-x"], e);
        assert_eq!(r.contents["k2"].outcome, None);
        assert!(r.rejected.contains("alpha-00001"));
    }

    #[test]
    fn checker_renames_the_app_and_counts_mismatches() {
        let mut r = Reference::default();
        r.contents.insert(
            "p3".into(),
            Expect {
                status: "done".into(),
                detail: String::new(),
                outcome: Some("{\"app\":\"p3\",\"x\":1}".into()),
            },
        );
        let got = Expect {
            status: "done".into(),
            detail: String::new(),
            outcome: Some("{\"app\":\"alpha-00007\",\"x\":1}".into()),
        };
        let mut c = Checker::default();
        assert!(c.check(&r, "p3", "alpha-00007", &got, Some(("p3", "alpha-00007"))));
        assert!(!c.check(&r, "p3", "alpha-00007", &got, None));
        assert!(!c.check(&r, "p9", "alpha-00007", &got, None));
        let mut refused = BTreeSet::new();
        refused.insert("bravo-00002".to_owned());
        c.check_rejected(&r, &refused);
        assert_eq!(c.mismatches, 3);
    }
}
