//! Per-layer measurements for the traced run: accumulators fed from flow
//! traces and cache counters, and probes that time each layer's public
//! functions directly on a workload's own programs and messages.

use crate::spans::{task_times, Recorder};
use crate::stats::{mean, median, tail_percentile};
use crate::{metric, Metric};
use psa_evalcache::{CacheStats, EvalCache};
use psa_interp::{Program, RunConfig, Vm};
use psa_serve::{JobResult, JobSpec, Request, Response, Server, ServerConfig, TenantPolicy};
use psaflow_core::{FlowEngine, FlowError, FlowJob, FlowOutcome};
use std::sync::Arc;
use std::time::Instant;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn since_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Task-class time per flow, from the engine's own `wall_ns` records.
#[derive(Default)]
pub struct FlowLayers {
    flows: u64,
    flow_ns: u64,
    dynamic_ns: u64,
    transform_ns: u64,
    emit_ns: u64,
    dse_ns: u64,
    task_ns: u64,
}

impl FlowLayers {
    /// Record one flow that ran from `start` to `end` as a span, nest its
    /// tasks under it, and add its task classes to the totals.
    pub fn add(
        &mut self,
        rec: &mut Recorder,
        job: u64,
        start: Instant,
        end: Instant,
        outcome: &Result<FlowOutcome, FlowError>,
    ) {
        let flow = rec.record("core/run_flow_job", start, end, None, job);
        let Ok(outcome) = outcome else { return };
        let tasks = task_times(&outcome.trace);
        rec.nest_tasks(flow, &tasks);
        self.flows += 1;
        self.flow_ns += rec.spans[flow].duration_ns();
        for t in &tasks {
            self.task_ns += t.wall_ns;
            if t.dynamic {
                self.dynamic_ns += t.wall_ns;
            }
            match t.class.as_str() {
                "T" => self.transform_ns += t.wall_ns,
                "CG" => self.emit_ns += t.wall_ns,
                "O" => self.dse_ns += t.wall_ns,
                _ => {}
            }
        }
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.flows.max(1) as f64;
        let per_flow = |ns: u64| ms(ns) / n;
        vec![
            metric(
                "interp.dynamic_task_ms",
                "ms",
                per_flow(self.dynamic_ns),
                self.flows,
            ),
            metric(
                "interp.dynamic_task_frac",
                "ratio",
                self.dynamic_ns as f64 / self.flow_ns.max(1) as f64,
                self.flows,
            ),
            metric(
                "artisan.transform_ms",
                "ms",
                per_flow(self.transform_ns),
                self.flows,
            ),
            metric("codegen.emit_ms", "ms", per_flow(self.emit_ns), self.flows),
            metric("core.dse_ms", "ms", per_flow(self.dse_ns), self.flows),
            metric(
                "core.engine_self_ms",
                "ms",
                per_flow(self.flow_ns.saturating_sub(self.task_ns)),
                self.flows,
            ),
        ]
    }
}

/// Evaluation-cache counters summed over one or more caches.
#[derive(Default, Clone)]
pub struct CacheLayers {
    total: CacheStats,
    interp_hits: u64,
    interp_misses: u64,
    platform_misses: u64,
}

impl CacheLayers {
    /// The counters of `cache` since it was built.
    pub fn of(cache: &EvalCache) -> CacheLayers {
        let mut c = CacheLayers {
            total: cache.stats(),
            ..CacheLayers::default()
        };
        for (domain, d) in cache.domain_stats() {
            if domain.starts_with("interp/") {
                c.interp_hits += d.hits;
                c.interp_misses += d.misses;
            } else if domain.starts_with("platform/") {
                c.platform_misses += d.misses;
            }
        }
        c
    }

    pub fn add(&mut self, other: &CacheLayers) {
        self.total.hits += other.total.hits;
        self.total.misses += other.total.misses;
        self.total.evictions += other.total.evictions;
        self.total.entries += other.total.entries;
        self.interp_hits += other.interp_hits;
        self.interp_misses += other.interp_misses;
        self.platform_misses += other.platform_misses;
    }

    /// Counter deltas since `earlier`, entries included.
    pub fn since(&self, earlier: &CacheLayers) -> CacheLayers {
        let mut total = self.total.since(&earlier.total);
        total.entries = self.total.entries.saturating_sub(earlier.total.entries);
        CacheLayers {
            total,
            interp_hits: self.interp_hits - earlier.interp_hits,
            interp_misses: self.interp_misses - earlier.interp_misses,
            platform_misses: self.platform_misses - earlier.platform_misses,
        }
    }

    /// `flows` is the number of flows the caches served.
    pub fn metrics(&self, flows: u64) -> Vec<Metric> {
        let t = &self.total;
        let lookups = t.hits + t.misses;
        vec![
            metric(
                "platform.model_evals",
                "count",
                self.platform_misses as f64 / flows.max(1) as f64,
                flows,
            ),
            metric("evalcache.hit_ratio", "ratio", t.hit_rate(), lookups),
            metric(
                "evalcache.interp_hit_ratio",
                "ratio",
                self.interp_hits as f64 / (self.interp_hits + self.interp_misses).max(1) as f64,
                self.interp_hits + self.interp_misses,
            ),
            metric("evalcache.evictions", "count", t.evictions as f64, lookups),
            // Every miss whose result was kept added an entry (some since
            // evicted); the rest duplicated a concurrent miss on the key.
            metric(
                "evalcache.useful_miss_frac",
                "ratio",
                if t.misses == 0 {
                    1.0
                } else {
                    (t.entries + t.evictions) as f64 / t.misses as f64
                },
                t.misses,
            ),
        ]
    }
}

/// Design-space points evaluated so far (needs the metrics registry on).
pub fn dse_evaluations() -> u64 {
    ["unroll", "blocksize", "omp-threads"]
        .iter()
        .map(|k| {
            psa_obs::global()
                .counter("psa_dse_evaluations_total", &[("dse", k)])
                .get()
        })
        .sum()
}

/// `(sum, count)` of the service's per-job execution histogram.
pub fn exec_ms_totals() -> (u64, u64) {
    let h = psa_obs::global().histogram("psa_serve_exec_ms", &[]);
    (h.sum(), h.count())
}

/// Times the parser, bytecode compiler, VM, hotspot extraction and kernel
/// analysis on each distinct program, plus the parser on every job source.
pub fn program_probe(job_sources: &[&str], programs: &[&str]) -> Result<Vec<Metric>, String> {
    let mut parse = Vec::new();
    for src in job_sources {
        let t = Instant::now();
        let m = psa_minicpp::parse_module(src, "probe");
        parse.push(since_ms(t));
        m.map_err(|e| format!("probe parse: {e}"))?;
    }
    let (mut compile, mut run, mut hotspot, mut kernel) = (vec![], vec![], vec![], vec![]);
    let (mut dispatches, mut spec) = (0u64, 0u64);
    for src in programs {
        let module = psa_minicpp::parse_module(src, "probe").map_err(|e| e.to_string())?;
        let config = RunConfig::default();
        let t = Instant::now();
        let program = Arc::new(Program::compile(&module, &config));
        compile.push(since_ms(t));
        let mut vm = Vm::with_program(program, config);
        let t = Instant::now();
        vm.run_main().map_err(|e| format!("probe run: {e}"))?;
        run.push(since_ms(t));
        dispatches += vm.dispatches();
        spec += vm.specialized_dispatches();

        let mut extracted = module.clone();
        let t = Instant::now();
        let found = psa_analyses::hotspot::detect_and_extract(&mut extracted, "hotspot_0");
        hotspot.push(since_ms(t));
        let (k, _) = found.map_err(|e| format!("probe hotspot: {e}"))?;
        let t = Instant::now();
        let analysis = psa_analyses::analyze_kernel(&extracted, &k.name);
        kernel.push(since_ms(t));
        analysis.map_err(|e| format!("probe kernel analysis: {e}"))?;
    }
    let p = programs.len() as u64;
    Ok(vec![
        metric("minicpp.parse_ms", "ms", mean(&parse), parse.len() as u64),
        metric("interp.compile_ms", "ms", mean(&compile), p),
        metric("interp.run_ms", "ms", mean(&run), p),
        metric("interp.dispatches", "count", dispatches as f64, p),
        metric(
            "interp.spec_dispatch_frac",
            "ratio",
            spec as f64 / dispatches.max(1) as f64,
            p,
        ),
        metric("analyses.hotspot_ms", "ms", mean(&hotspot), p),
        metric("analyses.kernel_ms", "ms", mean(&kernel), p),
    ])
}

/// Times `decode_request` on each request line and `Response::encode` on
/// each result; wire size counts both directions per job.
pub fn proto_probe(request_lines: &[String], results: &[JobResult], jobs: u64) -> Vec<Metric> {
    let mut decode = Vec::new();
    for line in request_lines {
        let t = Instant::now();
        let ok = psa_serve::decode_request(line).is_ok();
        decode.push(t.elapsed().as_secs_f64() * 1e6);
        debug_assert!(ok, "generated requests decode");
    }
    let mut encode = Vec::new();
    let mut result_bytes = 0usize;
    for r in results {
        let resp = Response::Result(Box::new(r.clone()));
        let t = Instant::now();
        let line = resp.encode();
        encode.push(t.elapsed().as_secs_f64() * 1e6);
        result_bytes += line.len() + 1;
    }
    let request_bytes: usize = request_lines.iter().map(|l| l.len() + 1).sum();
    let per_job = |bytes: usize, n: usize| bytes as f64 / n.max(1) as f64;
    vec![
        metric("proto.decode_us", "us", mean(&decode), decode.len() as u64),
        metric("proto.encode_us", "us", mean(&encode), encode.len() as u64),
        metric(
            "proto.wire_kb_per_job",
            "KB",
            (per_job(request_bytes, request_lines.len()) + per_job(result_bytes, results.len()))
                / 1024.0,
            jobs,
        ),
    ]
}

/// Submit-latency percentiles from samples in microseconds.
pub fn submit_metrics(submit_us: &[f64]) -> Result<Vec<Metric>, String> {
    let p50 = tail_percentile(submit_us, 0.5)?;
    let p90 = tail_percentile(submit_us, 0.9)?;
    Ok(vec![
        metric("serve.submit_us_p50", "us", p50.value, p50.samples as u64),
        metric("serve.submit_us_p90", "us", p90.value, p90.samples as u64),
    ])
}

/// Service-side figures of one served run.
pub fn serve_metrics(
    exec_before: (u64, u64),
    workers: usize,
    wall_s: f64,
    collect_ms: f64,
    rejected: u64,
) -> Vec<Metric> {
    let (sum, count) = exec_ms_totals();
    let (sum, count) = (sum - exec_before.0, count - exec_before.1);
    vec![
        metric(
            "serve.exec_ms_mean",
            "ms",
            sum as f64 / count.max(1) as f64,
            count,
        ),
        metric(
            "serve.worker_busy_frac",
            "ratio",
            sum as f64 / (workers as f64 * wall_s * 1e3),
            count,
        ),
        metric("serve.collect_ms", "ms", collect_ms, 1),
        metric("serve.rejected", "count", rejected as f64, rejected),
    ]
}

/// Admission wide open: no rate limit, quota or queue bound can refuse a
/// job of a benchmark-sized stream.
pub const WIDE_OPEN: TenantPolicy = TenantPolicy {
    rate_per_sec: 1e12,
    burst: 1e12,
    max_in_flight: 1 << 20,
};

/// Workers of every benchmark server.
pub const WORKERS: usize = 2;

/// Jobs a service client keeps submitted but unfinished: one running and
/// three queued per worker. The client refills the window after a 1 ms
/// poll sleep, and the queue must outlast that wake-up on a busy host, or
/// workers idle. Interleaved serve_warm runs with windows of 4, 8 and 16
/// gave the same median throughput (437, 443 and 436 jobs/s over four
/// runs each), but at 4 the runs ranged over 29% of the median against
/// 16% and 18% at 8 and 16; the median latency grows with the window
/// (8, 17 and 35 ms), so the smallest steady window is used.
pub const WINDOW: usize = 4 * WORKERS;

/// Submissions of a service probe: enough for a p90 with ten beyond it.
const PROBE_SUBMITS: usize = 100;

/// Runs `specs`, cycled to [`PROBE_SUBMITS`] submissions, through a live
/// two-worker server with a cold cache: submit latency, execution time,
/// worker occupancy and collection time of the service layer on a
/// workload's own jobs.
pub fn serve_probe(specs: &[JobSpec]) -> Result<Vec<Metric>, String> {
    psa_obs::set_enabled(true);
    let exec_before = exec_ms_totals();
    let server = Server::new(ServerConfig {
        workers: WORKERS,
        queue_capacity: 1 << 20,
        default_policy: WIDE_OPEN,
        ..ServerConfig::default()
    });
    let start = Instant::now();
    let mut submit_us = Vec::new();
    for (i, spec) in specs.iter().cycle().take(PROBE_SUBMITS).enumerate() {
        let req = Request::Submit(JobSpec {
            id: format!("{}-probe{i:03}", spec.id),
            ..spec.clone()
        });
        let t = Instant::now();
        let resp = server.handle_request(&req);
        submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !matches!(resp.first(), Some(Response::Accepted { .. })) {
            return Err(format!("serve probe refused {}: {resp:?}", spec.id));
        }
    }
    server.handle_request(&Request::Wait);
    let wall_s = start.elapsed().as_secs_f64();
    let t = Instant::now();
    server.handle_request(&Request::Wait);
    let collect_ms = since_ms(t);
    server.handle_request(&Request::Drain);
    let mut out = submit_metrics(&submit_us)?;
    out.extend(serve_metrics(exec_before, WORKERS, wall_s, collect_ms, 0));
    Ok(out)
}

/// Runs `jobs` outside any server to break served flows down by task
/// class; their cache is primed the way the workload primes the server's.
pub fn flow_probe<'a>(
    rec: &mut Recorder,
    jobs: impl IntoIterator<Item = (FlowEngine, FlowJob<'a>)>,
) -> FlowLayers {
    let mut layers = FlowLayers::default();
    for (i, (engine, job)) in jobs.into_iter().enumerate() {
        let start = Instant::now();
        let outcome = psaflow_core::run_flow_job(engine, job);
        layers.add(rec, i as u64, start, Instant::now(), &outcome);
    }
    layers
}

/// Slices of a traced run. They alternate untraced and traced, so drift
/// in the host's speed falls on both kinds alike.
pub const TRACE_SLICES: usize = 8;

/// Whether slice `k` of a traced run is traced; the first is not.
pub fn slice_traced(k: usize) -> bool {
    k % 2 == 1
}

/// Job rates of a traced run's untraced and traced slices.
#[derive(Debug, Default)]
pub struct SliceRates {
    untraced: Vec<f64>,
    traced: Vec<f64>,
}

impl SliceRates {
    pub fn push(&mut self, traced: bool, rate: f64) {
        if traced {
            self.traced.push(rate);
        } else {
            self.untraced.push(rate);
        }
    }

    /// `(untraced − traced) / traced` median slice rate, percent.
    pub fn overhead_metric(&self) -> Metric {
        let traced = median(&self.traced);
        metric(
            "obs.trace_overhead_pct",
            "%",
            (median(&self.untraced) / traced.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
            self.traced.len() as u64,
        )
    }
}

/// Write the traced run's spans to `out/spans-<workload>-<seed>.json`
/// beside the benchmark's manifest.
pub fn write_spans(rec: &Recorder, workload: &str, seed: u64) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{workload}-{seed}.json"));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rec.to_json()));
    match written {
        Ok(()) => eprintln!(
            "psabench: {} spans written to {}",
            rec.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("psabench: writing {} failed: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_overhead_compares_median_slice_rates() {
        let mut r = SliceRates::default();
        for (k, rate) in [100.0, 80.0, 90.0, 75.0, 10.0, 70.0]
            .into_iter()
            .enumerate()
        {
            r.push(slice_traced(k), rate);
        }
        // Untraced 100, 90, 10 (median 90); traced 80, 75, 70 (median 75).
        let m = r.overhead_metric();
        assert!((m.value - 20.0).abs() < 1e-9, "{}", m.value);
        assert_eq!(m.samples, 3);
    }
}
