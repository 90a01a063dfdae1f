//! serve_churn: `Server::handle_request` in process with two workers,
//! inline programs drawn Zipf-skewed from a corpus whose working set
//! exceeds the shared cache's per-domain quota, the psa-load tenant mix
//! with a rate-limited flooding tenant, and seeded failure policies and
//! fault plans. The cache takes writes and FIFO evictions beside hits,
//! both workers contend on its mutex, and admission refusals, retries,
//! degraded paths and caught panics all occur.

use crate::gen::{self, CHURN_DOMAIN_QUOTA, CHURN_FLOOD_POLICY, TENANTS};
use crate::layers::{
    self, slice_traced, CacheLayers, SliceRates, TRACE_SLICES, WIDE_OPEN, WINDOW, WORKERS,
};
use crate::reference::{self, Checker};
use crate::spans::Recorder;
use crate::stats::{CountedLatency, POLL};
use crate::{metric, Args, EndToEnd, RssProbe, RunResult, Workload};
use psa_evalcache::EvalCache;
use psa_serve::{encode_request, Request, Response, Server, ServerConfig};
use psaflow_core::{FailurePolicy, FlowEngine, FlowJob, PsaParams};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; the median is reported.
const SETUPS: usize = 9;
/// Stream jobs generated per measured second; far above the service's
/// rate, so the stream outlasts the run.
const JOBS_PER_SECOND: f64 = 400.0;
/// Accepted jobs the traced run replays outside the server to break flows
/// down by task class.
const FLOW_PROBE_JOBS: usize = 60;

pub fn config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        queue_capacity: 1 << 20,
        default_policy: WIDE_OPEN,
        tenants: vec![(TENANTS[0].to_owned(), CHURN_FLOOD_POLICY)],
        cache_domain_quota: Some(CHURN_DOMAIN_QUOTA),
        ..ServerConfig::default()
    }
}

/// What one submission phase saw.
struct Phase {
    sent: usize,
    accepted: u64,
    refused: Vec<String>,
    submit_us: Vec<f64>,
    latency: CountedLatency,
    /// From the first submit until every accepted job finished.
    wall_s: f64,
}

fn finished(server: &Server) -> usize {
    match server.handle_request(&Request::Stats).first() {
        Some(Response::Stats(s)) => s.finished_total() as usize,
        _ => 0,
    }
}

/// Submit `stream` in order, keeping at most [`WINDOW`] jobs unfinished,
/// until `budget` is spent or the stream runs out; then poll until every
/// accepted job finished.
fn phase(
    server: &Server,
    stream: &[Request],
    budget: Duration,
    rss: &mut RssProbe,
    rec: Option<&mut Recorder>,
) -> Result<Phase, String> {
    let before = finished(server);
    let mut latency = CountedLatency::default();
    let poll = |latency: &mut CountedLatency| {
        latency.finished(finished(server) - before, Instant::now());
    };
    let start = Instant::now();
    let mut sent = 0usize;
    let (mut refused, mut submit_us) = (Vec::new(), Vec::new());
    let mut spans = Vec::new();
    while sent < stream.len() && start.elapsed() < budget {
        while latency.open() >= WINDOW {
            poll(&mut latency);
            rss.observe(latency.completed());
            if latency.open() >= WINDOW {
                std::thread::sleep(POLL);
            }
        }
        let t = Instant::now();
        let resp = server.handle_request(&stream[sent]);
        let end = Instant::now();
        submit_us.push((end - t).as_secs_f64() * 1e6);
        spans.push((t, end, sent));
        match resp.into_iter().next() {
            Some(Response::Accepted { .. }) => latency.submitted(t),
            Some(Response::Rejected { id, .. }) => refused.push(id),
            other => return Err(format!("submit answered with {other:?}")),
        }
        sent += 1;
    }
    while latency.open() > 0 {
        std::thread::sleep(POLL);
        poll(&mut latency);
        rss.observe(latency.completed());
    }
    if let Some(rec) = rec {
        for (s, e, i) in spans {
            rec.record("serve/handle_request(submit)", s, e, None, i as u64);
        }
    }
    Ok(Phase {
        sent,
        accepted: (sent - refused.len()) as u64,
        refused,
        submit_us,
        latency,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// Every result since the server started, in submission order.
fn collect(server: &Server) -> Vec<psa_serve::JobResult> {
    server
        .handle_request(&Request::Wait)
        .into_iter()
        .filter_map(|r| match r {
            Response::Result(r) => Some(*r),
            _ => None,
        })
        .collect()
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let jobs = (args.seconds * JOBS_PER_SECOND).ceil() as usize;
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        // Drop the previous server (joins its workers) outside the timing.
        drop(prepared.take());
        let t = Instant::now();
        let churn = gen::churn(args.seed, jobs);
        let stream: Vec<Request> = churn
            .jobs
            .iter()
            .map(|j| Request::Submit(j.spec.clone()))
            .collect();
        let server = Server::new(config());
        setups.push(t.elapsed().as_secs_f64());
        prepared = Some((churn, stream, server));
    }
    let (churn, stream, server) = prepared.expect("at least one set-up");
    let budget = Duration::from_secs_f64(args.seconds);
    let mut rss = RssProbe::default();
    let mut metrics = Vec::new();
    let mut e2e = None;

    let (results, sent, refused) = if args.trace {
        let exec_before = layers::exec_ms_totals();
        let dse_before = layers::dse_evaluations();
        let mut rec = Recorder::new();
        let mut caches = CacheLayers::default();
        let mut rates = SliceRates::default();
        let (mut sent, mut refused) = (0usize, BTreeSet::new());
        let (mut traced, mut submit_us, mut traced_s, mut n) = (Vec::new(), Vec::new(), 0.0, 0);
        for k in 0..TRACE_SLICES {
            let on = slice_traced(k);
            psa_obs::set_enabled(on);
            let cache_before = CacheLayers::of(server.cache());
            let p = phase(
                &server,
                &stream[sent..],
                budget / TRACE_SLICES as u32,
                &mut rss,
                on.then_some(&mut rec),
            )?;
            rates.push(on, p.accepted as f64 / p.wall_s);
            if on {
                caches.add(&CacheLayers::of(server.cache()).since(&cache_before));
                traced.extend(
                    churn.jobs[sent..sent + p.sent]
                        .iter()
                        .filter(|j| !p.refused.contains(&j.spec.id)),
                );
                submit_us.extend(p.submit_us);
                traced_s += p.wall_s;
                n += p.accepted;
            }
            sent += p.sent;
            refused.extend(p.refused);
        }
        psa_obs::set_enabled(true);
        let results = collect(&server);
        let t = Instant::now();
        server.handle_request(&Request::Wait);
        let collect_ms = t.elapsed().as_secs_f64() * 1e3;
        metrics.extend(layers::submit_metrics(&submit_us)?);
        metrics.extend(layers::serve_metrics(
            exec_before,
            WORKERS,
            traced_s,
            collect_ms,
            refused.len() as u64,
        ));
        metrics.extend(caches.metrics(n));
        metrics.push(metric(
            "core.dse_evals",
            "count",
            (layers::dse_evaluations() - dse_before) as f64 / n as f64,
            n,
        ));
        metrics.push(rates.overhead_metric());
        metrics.extend(churn_flow_layers(&traced, &mut rec).metrics());
        let job_sources: Vec<&str> = traced
            .iter()
            .filter_map(|j| j.spec.source.as_deref())
            .collect();
        let programs: Vec<&str> = churn.corpus.iter().map(String::as_str).collect();
        metrics.extend(layers::program_probe(&job_sources, &programs)?);
        let lines: Vec<String> = traced
            .iter()
            .map(|j| encode_request(&Request::Submit(j.spec.clone())))
            .collect();
        let ids: BTreeSet<&str> = traced.iter().map(|j| j.spec.id.as_str()).collect();
        let traced_results: Vec<psa_serve::JobResult> = results
            .iter()
            .filter(|r| ids.contains(r.id.as_str()))
            .cloned()
            .collect();
        metrics.extend(layers::proto_probe(&lines, &traced_results, n));
        layers::write_spans(&rec, Workload::ServeChurn.name(), args.seed);
        (results, sent, refused)
    } else {
        let p = phase(&server, &stream, budget, &mut rss, None)?;
        let t = Instant::now();
        let results = collect(&server);
        e2e = Some(EndToEnd::new(
            &setups,
            p.accepted,
            p.wall_s + t.elapsed().as_secs_f64(),
            p.latency.latencies_ms(),
            &rss,
        ));
        (results, p.sent, p.refused.into_iter().collect())
    };
    server.handle_request(&Request::Drain);

    let reference = reference::fetch(Workload::ServeChurn, args.seed, sent)?;
    let mut checker = Checker::default();
    let mut done = 0u64;
    let by_id: HashMap<&str, &gen::ChurnJob> =
        churn.jobs.iter().map(|j| (j.spec.id.as_str(), j)).collect();
    for r in &results {
        let Some(job) = by_id.get(r.id.as_str()) else {
            checker.mismatch(format!("result for unknown job {}", r.id));
            continue;
        };
        let got = reference::job_result(r);
        let renamed = Some((job.content.as_str(), r.id.as_str()));
        if checker.check(&reference, &job.content, &r.id, &got, renamed) && got.status == "done" {
            done += 1;
        }
    }
    checker.check_rejected(&reference, &refused);
    let attempted = sent as u64;
    if let Some(e2e) = e2e {
        metrics = e2e.metrics(done, attempted)?;
    }
    Ok(RunResult {
        attempted,
        mismatches: checker.mismatches,
        metrics,
    })
}

/// Task-class breakdown of churn flows: the first traced accepted jobs,
/// replayed on the sequential engine against a cache with the server's
/// quota.
fn churn_flow_layers(traced: &[&gen::ChurnJob], rec: &mut Recorder) -> layers::FlowLayers {
    let cache = Arc::new(EvalCache::with_domain_quota(
        psa_serve::ServerConfig::default().cache_capacity,
        CHURN_DOMAIN_QUOTA,
    ));
    layers::flow_probe(
        rec,
        traced.iter().take(FLOW_PROBE_JOBS).map(|j| {
            let policy = FailurePolicy::parse(&j.spec.policy).expect("generated policies parse");
            let faults = j.spec.faults.as_deref().map(|p| {
                Arc::new(psa_faults::FaultPlan::parse(p).expect("generated fault plans parse"))
            });
            let job = FlowJob {
                source: j.spec.source.as_deref().unwrap_or_default(),
                app_name: &j.spec.id,
                mode: j.spec.mode,
                params: PsaParams::default(),
                cache: Arc::clone(&cache),
                faults,
                span_root: None,
                cancel: None,
            };
            (FlowEngine::sequential().with_policy(policy), job)
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use psaflow_core::FlowMode;

    /// Programs recur across jobs only through the platform-model domains
    /// (inline jobs are named by their id, which the interpreter and
    /// analysis keys include), so one of those must outgrow the quota.
    #[test]
    fn corpus_working_set_exceeds_the_domain_quota() {
        let cache = Arc::new(EvalCache::with_capacity(1 << 20));
        for (i, src) in gen::churn_corpus(1).iter().enumerate() {
            let name = format!("corpus-{i}");
            psaflow_core::run_flow_job(
                FlowEngine::sequential(),
                FlowJob {
                    source: src,
                    app_name: &name,
                    mode: FlowMode::Uninformed,
                    params: PsaParams::default(),
                    cache: Arc::clone(&cache),
                    faults: None,
                    span_root: None,
                    cancel: None,
                },
            )
            .expect("corpus flows run");
        }
        let platform = cache
            .domain_stats()
            .into_iter()
            .filter(|(d, _)| d.starts_with("platform/"))
            .map(|(d, s)| (s.entries, d))
            .max()
            .expect("flows evaluate platform models");
        assert!(
            platform.0 > 2 * CHURN_DOMAIN_QUOTA as u64,
            "largest platform domain {} holds {} entries",
            platform.1,
            platform.0
        );
    }
}
