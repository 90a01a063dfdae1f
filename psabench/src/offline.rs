//! offline_cold: one client in a closed loop, each job a full PSA flow on
//! the sequential engine with a fresh evaluation cache, so every job pays
//! the profiled interpreter runs and the dynamic analyses.

use crate::gen::{self, FlowSpec};
use crate::layers::{self, slice_traced, CacheLayers, FlowLayers, SliceRates, TRACE_SLICES};
use crate::reference::{self, Checker, Expect};
use crate::spans::Recorder;
use crate::{metric, Args, EndToEnd, RssProbe, RunResult, Workload};
use psa_evalcache::EvalCache;
use psa_serve::{JobResult, JobSpec, JobStatus, Request};
use psaflow_core::{FlowMode, PsaParams};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; the median is reported.
const SETUPS: usize = 9;
/// Flows a run needs so that ten samples lie beyond its p90.
const MIN_FLOWS: usize = 100;

struct Pool {
    specs: Vec<FlowSpec>,
    params: Vec<PsaParams>,
}

/// Generate the job pool and run one fixed warm-up flow, so lazy
/// process-wide initialisation is not charged to the first timed flow.
fn setup(seed: u64) -> Result<Pool, String> {
    let specs = gen::offline_pool(seed);
    let params: Vec<PsaParams> = specs
        .iter()
        .map(|s| reference::bench_params(s.app))
        .collect();
    let warm = FlowSpec {
        app: gen::APPS[0],
        size: gen::analysis_size(gen::APPS[0]),
        mode: FlowMode::Informed,
        source: gen::app_source(gen::APPS[0], gen::analysis_size(gen::APPS[0])),
    };
    reference::offline_job(
        &warm,
        reference::bench_params(warm.app),
        Arc::new(EvalCache::new()),
    )
    .map_err(|e| format!("warm-up flow {}: {}", warm.key(), e.message()))?;
    Ok(Pool { specs, params })
}

/// What the loop observed: the pool index of every job run, and each pool
/// job's distinct results with how often each occurred. Keeping distinct
/// results only keeps memory flat however many flows a run completes.
#[derive(Default)]
struct Observed {
    jobs: Vec<usize>,
    results: BTreeMap<usize, Vec<(Expect, u64)>>,
}

impl Observed {
    fn push(&mut self, idx: usize, result: Expect) {
        self.jobs.push(idx);
        let seen = self.results.entry(idx).or_default();
        match seen.iter_mut().find(|(r, _)| *r == result) {
            Some((_, n)) => *n += 1,
            None => seen.push((result, 1)),
        }
    }

    fn len(&self) -> usize {
        self.jobs.len()
    }
}

struct Traced<'a> {
    rec: &'a mut Recorder,
    flows: &'a mut FlowLayers,
    caches: &'a mut CacheLayers,
}

/// Closed loop over the pool for `budget` and at least `min_flows` flows;
/// returns per-flow latencies (ms) and the loop's wall time.
fn run_loop(
    pool: &Pool,
    budget: Duration,
    min_flows: usize,
    observed: &mut Observed,
    rss: &mut RssProbe,
    mut traced: Option<Traced<'_>>,
) -> (Vec<f64>, f64) {
    let start = Instant::now();
    let mut latencies = Vec::new();
    let mut i = observed.len();
    while start.elapsed() < budget || latencies.len() < min_flows {
        let idx = i % pool.specs.len();
        let cache = Arc::new(EvalCache::new());
        let t0 = Instant::now();
        let r = reference::offline_job(
            &pool.specs[idx],
            pool.params[idx].clone(),
            Arc::clone(&cache),
        );
        let t1 = Instant::now();
        latencies.push((t1 - t0).as_secs_f64() * 1e3);
        if let Some(t) = traced.as_mut() {
            t.flows.add(t.rec, i as u64, t0, t1, &r);
            t.caches.add(&CacheLayers::of(&cache));
        }
        observed.push(idx, reference::flow_result(&r));
        i += 1;
        rss.observe(latencies.len());
    }
    (latencies, start.elapsed().as_secs_f64())
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let mut setups = Vec::new();
    let mut pool = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        let t = Instant::now();
        pool = Some(setup(args.seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let pool = pool.expect("at least one set-up");
    let budget = Duration::from_secs_f64(args.seconds);
    let mut observed = Observed::default();
    let mut rss = RssProbe::default();
    let mut metrics = Vec::new();
    let mut e2e = None;

    if args.trace {
        let dse_before = layers::dse_evaluations();
        let mut rec = Recorder::new();
        let (mut flows, mut caches) = (FlowLayers::default(), CacheLayers::default());
        let mut rates = SliceRates::default();
        // Positions in `observed.jobs` of the traced flows.
        let mut traced = Vec::new();
        for k in 0..TRACE_SLICES {
            let on = slice_traced(k);
            psa_obs::set_enabled(on);
            let first = observed.len();
            let (latencies, wall) = run_loop(
                &pool,
                budget / TRACE_SLICES as u32,
                0,
                &mut observed,
                &mut rss,
                on.then_some(Traced {
                    rec: &mut rec,
                    flows: &mut flows,
                    caches: &mut caches,
                }),
            );
            rates.push(on, latencies.len() as f64 / wall);
            if on {
                traced.extend(first..observed.len());
            }
        }
        psa_obs::set_enabled(true);
        let n = traced.len() as u64;
        metrics.extend(flows.metrics());
        metrics.extend(caches.metrics(n));
        metrics.push(metric(
            "core.dse_evals",
            "count",
            (layers::dse_evaluations() - dse_before) as f64 / n as f64,
            n,
        ));
        metrics.push(rates.overhead_metric());
        let traced: Vec<usize> = traced.into_iter().map(|at| observed.jobs[at]).collect();
        let job_sources: Vec<&str> = traced
            .iter()
            .map(|idx| pool.specs[*idx].source.as_str())
            .collect();
        let programs: Vec<&str> = pool.specs.iter().map(|s| s.source.as_str()).collect();
        metrics.extend(layers::program_probe(&job_sources, &programs)?);
        let specs = inline_specs(&pool.specs);
        let lines: Vec<String> = specs
            .iter()
            .map(|s| psa_serve::encode_request(&Request::Submit(s.clone())))
            .collect();
        let results = served_view(&observed, &traced);
        metrics.extend(layers::proto_probe(&lines, &results, n));
        metrics.extend(layers::serve_probe(&specs)?);
        layers::write_spans(&rec, Workload::OfflineCold.name(), args.seed);
    } else {
        let (latencies, wall) = run_loop(&pool, budget, MIN_FLOWS, &mut observed, &mut rss, None);
        let n = latencies.len() as u64;
        e2e = Some(EndToEnd::new(&setups, n, wall, latencies, &rss));
    }

    let reference = reference::fetch(Workload::OfflineCold, args.seed, 0)?;
    let mut checker = Checker::default();
    let mut done = 0u64;
    for (idx, seen) in &observed.results {
        for (got, times) in seen {
            let (key, id) = (idx.to_string(), pool.specs[*idx].key());
            for _ in 0..*times {
                if checker.check(&reference, &key, &id, got, None) && got.status == "done" {
                    done += 1;
                }
            }
        }
    }
    let attempted = observed.len() as u64;
    if let Some(e2e) = e2e {
        metrics = e2e.metrics(done, attempted)?;
    }
    Ok(RunResult {
        attempted,
        mismatches: checker.mismatches,
        metrics,
    })
}

/// The pool as inline-source service jobs, for the protocol and service
/// probes.
fn inline_specs(specs: &[FlowSpec]) -> Vec<JobSpec> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| JobSpec {
            id: format!("offline-{i:03}"),
            tenant: "offline".into(),
            bench: None,
            source: Some(s.source.clone()),
            mode: s.mode,
            policy: "failfast".into(),
            deadline_ms: None,
            arrive_ms: i as u64,
            faults: None,
        })
        .collect()
}

/// The outcomes of the pool jobs `traced`, in order, as the service would
/// return them.
fn served_view(observed: &Observed, traced: &[usize]) -> Vec<JobResult> {
    traced
        .iter()
        .enumerate()
        .map(|(seq, idx)| {
            let e = &observed.results[idx][0].0;
            JobResult {
                seq: seq as u64,
                id: format!("offline-{idx:03}"),
                tenant: "offline".into(),
                status: if e.status == "done" {
                    JobStatus::Done
                } else {
                    JobStatus::Failed
                },
                detail: e.detail.clone(),
                outcome: e.outcome.clone(),
                trace_id: 0,
                queue_wait_ms: 0,
            }
        })
        .collect()
}
