//! serve_warm: an in-process `serve_tcp` daemon on loopback, one client
//! connection with a writer and a reader thread, replaying a psa-load
//! benchmark-key stream. Set-up warms every (bench, mode) pair, so every
//! evaluation hits the cache: the interpreter is bypassed, and parsing,
//! engine self time, DSE over cached estimates, code generation, the
//! protocol and the queue remain.

use crate::gen::{self, mode_label};
use crate::layers::{
    self, slice_traced, CacheLayers, FlowLayers, SliceRates, TRACE_SLICES, WIDE_OPEN, WINDOW,
    WORKERS,
};
use crate::reference::{self, Checker, Expect};
use crate::spans::Recorder;
use crate::stats::{CountedLatency, POLL};
use crate::{metric, Args, EndToEnd, RssProbe, RunResult, Workload};
use psa_evalcache::EvalCache;
use psa_serve::{encode_request, serve_tcp, JobSpec, Request, Response, Server, ServerConfig};
use psaflow_core::{FlowEngine, FlowJob, FlowMode};
use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Set-ups per run; the median is reported.
const SETUPS: usize = 9;
/// Stream jobs generated per measured second; far above the service's
/// rate, so the stream outlasts the run.
const JOBS_PER_SECOND: f64 = 1500.0;

pub fn config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        queue_capacity: 1 << 20,
        default_policy: WIDE_OPEN,
        ..ServerConfig::default()
    }
}

/// The warm-up job for one (bench, mode) pair; its id is the content key.
pub fn pair_spec(app: &str, mode: FlowMode) -> JobSpec {
    JobSpec {
        id: content_key(app, mode),
        tenant: "warmup".into(),
        bench: Some(app.to_owned()),
        source: None,
        mode,
        policy: "degrade".into(),
        deadline_ms: None,
        arrive_ms: 0,
        faults: None,
    }
}

fn content_key(app: &str, mode: FlowMode) -> String {
    format!("{app}/{}", mode_label(mode))
}

struct Session {
    server: Arc<Server>,
    acceptor: JoinHandle<std::io::Result<()>>,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// Jobs accepted on this connection so far; all have finished between
    /// phases.
    finished: u64,
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn send(stream: &mut TcpStream, line: &str) -> Result<(), String> {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(io("send"))
}

fn read_line(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut line = String::new();
    match reader.read_line(&mut line).map_err(io("receive"))? {
        0 => Err("server closed the connection".to_owned()),
        _ => Ok(line.trim_end().to_owned()),
    }
}

/// Start the daemon on an ephemeral loopback port, connect, and warm every
/// (bench, mode) pair.
fn setup() -> Result<Session, String> {
    let server = Arc::new(Server::new(config()));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io("bind"))?;
    let addr = listener.local_addr().map_err(io("local address"))?;
    let acceptor = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || serve_tcp(&server, listener))
    };
    let mut stream = TcpStream::connect(addr).map_err(io("connect"))?;
    stream.set_nodelay(true).map_err(io("nodelay"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(io("clone"))?);
    let mut pairs = 0;
    for app in gen::APPS {
        for mode in [FlowMode::Informed, FlowMode::Uninformed] {
            send(
                &mut stream,
                &encode_request(&Request::Submit(pair_spec(app, mode))),
            )?;
            pairs += 1;
        }
    }
    send(&mut stream, &encode_request(&Request::Wait))?;
    for _ in 0..2 * pairs {
        let line = read_line(&mut reader)?;
        if line.contains("\"ok\":false") {
            return Err(format!("warm-up failed: {line}"));
        }
    }
    Ok(Session {
        server,
        acceptor,
        stream,
        reader,
        finished: pairs,
    })
}

fn teardown(mut s: Session) -> Result<(), String> {
    send(&mut s.stream, &encode_request(&Request::Drain))?;
    while !read_line(&mut s.reader)?.contains("\"op\":\"drain\"") {}
    drop(s.stream);
    drop(s.reader);
    s.acceptor
        .join()
        .map_err(|_| "acceptor thread panicked".to_owned())?
        .map_err(io("acceptor"))
}

/// What one submission phase saw.
struct Phase {
    sent: usize,
    accepted: u64,
    refused: Vec<String>,
    latency: CountedLatency,
    /// From the first submit until every accepted job finished.
    wall_s: f64,
}

/// Submission replies the reader thread collected.
struct Replies {
    accepted: u64,
    refused: Vec<String>,
}

/// Read submission replies until the reply to the closing `stats`.
fn read_replies(
    reader: &mut BufReader<TcpStream>,
    refused_n: &AtomicUsize,
) -> Result<Replies, String> {
    let (mut accepted, mut refused) = (0u64, Vec::new());
    loop {
        let line = read_line(reader)?;
        if line.starts_with("{\"ok\":true,\"op\":\"submit\"") {
            accepted += 1;
        } else if line.starts_with("{\"ok\":false,\"op\":\"submit\"") {
            let j = psa_obs::json::parse(&line).map_err(|e| format!("reply: {e}"))?;
            let id = j.get("id").and_then(|v| v.as_str()).unwrap_or_default();
            refused.push(id.to_owned());
            refused_n.fetch_add(1, Ordering::SeqCst);
        } else if line.starts_with("{\"ok\":true,\"op\":\"stats\"") {
            return Ok(Replies { accepted, refused });
        } else {
            return Err(format!("unexpected reply: {line}"));
        }
    }
}

/// Submit `lines` in order, keeping at most [`WINDOW`] jobs unfinished,
/// until `budget` is spent or the lines run out, and poll until every
/// accepted job finished. A reader thread drains the replies concurrently,
/// so neither side of the socket fills up; a closing `stats` tells it the
/// last reply has come. The finished count is polled in process: the
/// protocol has no completion message short of `wait`, and a `stats`
/// round trip on the connection would add its own delivery delay to every
/// job's latency.
fn phase(
    s: &mut Session,
    lines: &[String],
    budget: Duration,
    rss: &mut RssProbe,
    mut rec: Option<&mut Recorder>,
) -> Result<Phase, String> {
    let before = s.finished;
    let refused_n = AtomicUsize::new(0);
    let server = Arc::clone(&s.server);
    let mut writer = s.stream.try_clone().map_err(io("clone"))?;
    let reader = &mut s.reader;
    let (sent, latency, wall_s, replies) = std::thread::scope(|scope| -> Result<_, String> {
        let refused_n = &refused_n;
        let read = scope.spawn(move || read_replies(reader, refused_n));
        let mut latency = CountedLatency::default();
        // Record completions; refused submissions never occupy the
        // window.
        let poll = |latency: &mut CountedLatency| {
            if let Some(Response::Stats(st)) = server.handle_request(&Request::Stats).first() {
                latency.finished(
                    st.finished_total() as usize - before as usize,
                    Instant::now(),
                );
            }
        };
        let start = Instant::now();
        let mut sent = 0usize;
        while sent < lines.len() && start.elapsed() < budget {
            while latency.open() - refused_n.load(Ordering::SeqCst) >= WINDOW {
                poll(&mut latency);
                rss.observe(latency.completed());
                if latency.open() - refused_n.load(Ordering::SeqCst) >= WINDOW {
                    std::thread::sleep(POLL);
                }
            }
            let t = Instant::now();
            send(&mut writer, &lines[sent])?;
            latency.submitted(t);
            if let Some(r) = rec.as_deref_mut() {
                r.record("proto/send_submit", t, Instant::now(), None, sent as u64);
            }
            sent += 1;
        }
        send(&mut writer, &encode_request(&Request::Stats))?;
        let replies = read
            .join()
            .map_err(|_| "reader thread panicked".to_owned())??;
        while latency.open() > replies.refused.len() {
            std::thread::sleep(POLL);
            poll(&mut latency);
            rss.observe(latency.completed());
        }
        Ok((sent, latency, start.elapsed().as_secs_f64(), replies))
    })?;
    s.finished += replies.accepted;
    Ok(Phase {
        sent,
        accepted: replies.accepted,
        refused: replies.refused,
        latency,
        wall_s,
    })
}

/// `wait` on the connection: every result line since the daemon started.
fn collect(s: &mut Session, rec: Option<&mut Recorder>) -> Result<Vec<String>, String> {
    let t = Instant::now();
    send(&mut s.stream, &encode_request(&Request::Wait))?;
    let mut results = Vec::new();
    while (results.len() as u64) < s.finished {
        let line = read_line(&mut s.reader)?;
        if !line.starts_with("{\"ok\":true,\"op\":\"result\"") {
            return Err(format!("unexpected reply to wait: {line}"));
        }
        results.push(line);
    }
    if let Some(r) = rec {
        r.record("serve/wait", t, Instant::now(), None, 0);
    }
    Ok(results)
}

/// `(id, observed result)` of each result line.
fn parse_result(line: &str) -> Result<(String, Expect), String> {
    let j = psa_obs::json::parse(line).map_err(|e| format!("result line: {e}"))?;
    let s = |k: &str| j.get(k).and_then(|v| v.as_str()).map(str::to_owned);
    Ok((
        s("id").ok_or("result without id")?,
        Expect {
            status: s("status").ok_or("result without status")?,
            detail: s("detail").unwrap_or_default(),
            outcome: s("outcome"),
        },
    ))
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let jobs = (args.seconds * JOBS_PER_SECOND).ceil() as usize;
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        if let Some((old, _, _)) = prepared.take() {
            teardown(old)?;
        }
        let t = Instant::now();
        let stream = gen::warm_stream(args.seed, jobs);
        let lines: Vec<String> = stream.iter().map(encode_request).collect();
        let session = setup()?;
        setups.push(t.elapsed().as_secs_f64());
        prepared = Some((session, stream, lines));
    }
    let (mut session, stream, lines) = prepared.expect("at least one set-up");
    let budget = Duration::from_secs_f64(args.seconds);
    let mut metrics = Vec::new();
    let mut e2e = None;

    let mut rss = RssProbe::default();
    let (results, sent, refused) = if args.trace {
        let exec_before = layers::exec_ms_totals();
        let dse_before = layers::dse_evaluations();
        let mut rec = Recorder::new();
        let mut caches = CacheLayers::default();
        let mut rates = SliceRates::default();
        let (mut sent, mut refused) = (0usize, BTreeSet::new());
        let (mut traced, mut traced_s, mut n) = (Vec::new(), 0.0, 0);
        for k in 0..TRACE_SLICES {
            let on = slice_traced(k);
            psa_obs::set_enabled(on);
            let cache_before = CacheLayers::of(session.server.cache());
            let p = phase(
                &mut session,
                &lines[sent..],
                budget / TRACE_SLICES as u32,
                &mut rss,
                on.then_some(&mut rec),
            )?;
            rates.push(on, p.accepted as f64 / p.wall_s);
            if on {
                caches.add(&CacheLayers::of(session.server.cache()).since(&cache_before));
                traced.extend(sent..sent + p.sent);
                traced_s += p.wall_s;
                n += p.accepted;
            }
            sent += p.sent;
            refused.extend(p.refused);
        }
        psa_obs::set_enabled(true);
        let results = collect(&mut session, Some(&mut rec))?;
        let t = Instant::now();
        let collected = session.server.handle_request(&Request::Wait);
        let collect_ms = t.elapsed().as_secs_f64() * 1e3;
        let traced_ids: BTreeSet<&str> = traced
            .iter()
            .filter_map(|i| match &stream[*i] {
                Request::Submit(j) => Some(j.id.as_str()),
                _ => None,
            })
            .collect();
        let traced_results: Vec<psa_serve::JobResult> = collected
            .into_iter()
            .filter_map(|r| match r {
                Response::Result(r) if traced_ids.contains(r.id.as_str()) => Some(*r),
                _ => None,
            })
            .collect();
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
        metrics.extend(warm_flow_layers(&mut rec).metrics());

        let measured: Vec<String> = traced.iter().map(|i| lines[*i].clone()).collect();
        let sources: Vec<String> = gen::APPS
            .iter()
            .map(|a| psa_benchsuite::by_key(a).expect("known app").source)
            .collect();
        let job_sources: Vec<&str> = traced
            .iter()
            .filter_map(|i| match &stream[*i] {
                Request::Submit(j) => j.bench.as_deref(),
                _ => None,
            })
            .map(|b| sources[gen::APPS.iter().position(|a| *a == b).expect("known app")].as_str())
            .collect();
        let programs: Vec<&str> = sources.iter().map(String::as_str).collect();
        metrics.extend(layers::program_probe(&job_sources, &programs)?);
        metrics.extend(layers::proto_probe(&measured, &traced_results, n));
        let pairs: Vec<JobSpec> = gen::APPS
            .iter()
            .flat_map(|a| [FlowMode::Informed, FlowMode::Uninformed].map(|m| pair_spec(a, m)))
            .collect();
        let probe = layers::serve_probe(&pairs)?;
        metrics.extend(
            probe
                .into_iter()
                .filter(|m| m.name.starts_with("serve.submit")),
        );
        layers::write_spans(&rec, Workload::ServeWarm.name(), args.seed);
        (results, sent, refused)
    } else {
        let p = phase(&mut session, &lines, budget, &mut rss, None)?;
        let t = Instant::now();
        let results = collect(&mut session, None)?;
        e2e = Some(EndToEnd::new(
            &setups,
            p.accepted,
            p.wall_s + t.elapsed().as_secs_f64(),
            p.latency.latencies_ms(),
            &rss,
        ));
        (results, p.sent, p.refused.into_iter().collect())
    };
    teardown(session)?;

    // Check every measured job against the reference.
    let reference = reference::fetch(Workload::ServeWarm, args.seed, sent)?;
    let keys: HashMap<&str, String> = stream[..sent]
        .iter()
        .filter_map(|r| match r {
            Request::Submit(j) => Some((j.id.as_str(), content_key(j.bench.as_deref()?, j.mode))),
            _ => None,
        })
        .collect();
    let mut checker = Checker::default();
    let mut done = 0u64;
    for line in &results {
        let (id, got) = parse_result(line)?;
        let Some(key) = keys.get(id.as_str()) else {
            continue; // a warm-up pair
        };
        if checker.check(&reference, key, &id, &got, None) && got.status == "done" {
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

/// Task-class breakdown of a warm flow: every pair once on a fresh cache,
/// then once more, traced, on the now-warm cache.
fn warm_flow_layers(rec: &mut Recorder) -> FlowLayers {
    let cache = Arc::new(EvalCache::new());
    let benches: Vec<psa_benchsuite::Benchmark> = gen::APPS
        .iter()
        .map(|a| psa_benchsuite::by_key(a).expect("known app"))
        .collect();
    let jobs = || {
        benches.iter().flat_map(|b| {
            [FlowMode::Informed, FlowMode::Uninformed].map(|mode| {
                let job = FlowJob {
                    source: &b.source,
                    app_name: &b.key,
                    mode,
                    params: psa_bench::params_for(b),
                    cache: Arc::clone(&cache),
                    faults: None,
                    span_root: None,
                    cancel: None,
                };
                (FlowEngine::sequential(), job)
            })
        })
    };
    layers::flow_probe(&mut Recorder::new(), jobs());
    layers::flow_probe(rec, jobs())
}
