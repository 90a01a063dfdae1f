//! Integration tests for the psa-serve daemon core: deterministic
//! admission, typed rejections, fault isolation, cancellation, deadlines,
//! ordered results, EOF drain and the TCP front-end.

use psa_serve::loadgen::{script, LoadConfig};
use psa_serve::{
    JobSpec, JobStatus, RejectReason, Request, Response, Server, ServerConfig, TenantPolicy,
};
use psaflow_core::{FailurePolicy, FlowEngine, FlowJob, FlowMode, PsaParams};
use std::io::Cursor;
use std::sync::Arc;

const SMOKE_SRC: &str = "int main() { int n = 96; double* a = alloc_double(n);\
    double* b = alloc_double(n); fill_random(a, n, 3);\
    for (int i = 0; i < n; i++) { double x = a[i];\
    b[i] = exp(x) * sqrt(x + 1.0) + x * x; }\
    double s = 0.0;\
    for (int i = 0; i < n; i++) { s += b[i]; }\
    sink(s); return 0; }";

fn job(id: &str, tenant: &str, arrive_ms: u64) -> JobSpec {
    JobSpec {
        id: id.to_owned(),
        tenant: tenant.to_owned(),
        bench: None,
        source: Some(SMOKE_SRC.to_owned()),
        mode: FlowMode::Informed,
        policy: "degrade".to_owned(),
        deadline_ms: None,
        arrive_ms,
        faults: None,
    }
}

fn paused_server(queue: usize, policy: TenantPolicy) -> Server {
    Server::new(ServerConfig {
        workers: 2,
        queue_capacity: queue,
        default_policy: policy,
        paused: true,
        ..ServerConfig::default()
    })
}

fn one(server: &Server, req: Request) -> Response {
    let mut responses = server.handle_request(&req);
    assert_eq!(responses.len(), 1, "{req:?}");
    responses.remove(0)
}

#[test]
fn quota_rate_and_queue_rejections_are_typed() {
    let server = paused_server(
        3,
        TenantPolicy {
            rate_per_sec: 0.0,
            burst: 2.0,
            max_in_flight: 2,
        },
    );
    // Burst admits two; the third bounces on the in-flight quota (checked
    // before the bucket), and with the queue then full the fourth sheds.
    assert!(matches!(
        one(&server, Request::Submit(job("a", "t", 0))),
        Response::Accepted { .. }
    ));
    assert!(matches!(
        one(&server, Request::Submit(job("b", "t", 1))),
        Response::Accepted { .. }
    ));
    match one(&server, Request::Submit(job("c", "t", 2))) {
        Response::Rejected { reason, .. } => {
            assert_eq!(reason, RejectReason::InFlightQuota);
            assert_eq!(reason.code(), 429);
        }
        other => panic!("{other:?}"),
    }
    // A different tenant passes the quota but the bucket is dry (rate 0,
    // burst spent by... fresh tenant has its own bucket), so fill the
    // queue first: a third slot remains, then tenant "u" exhausts burst.
    assert!(matches!(
        one(&server, Request::Submit(job("d", "u", 3))),
        Response::Accepted { .. }
    ));
    match one(&server, Request::Submit(job("e", "u", 4))) {
        Response::Rejected { reason, .. } => {
            assert_eq!(reason, RejectReason::QueueFull);
            assert_eq!(reason.code(), 503);
        }
        other => panic!("{other:?}"),
    }
    drop(server);
}

#[test]
fn rate_limit_refills_on_the_virtual_clock() {
    let server = paused_server(
        100,
        TenantPolicy {
            rate_per_sec: 1.0,
            burst: 1.0,
            max_in_flight: 100,
        },
    );
    assert!(matches!(
        one(&server, Request::Submit(job("a", "t", 0))),
        Response::Accepted { .. }
    ));
    match one(&server, Request::Submit(job("b", "t", 10))) {
        Response::Rejected { reason, .. } => assert_eq!(reason, RejectReason::RateLimit),
        other => panic!("{other:?}"),
    }
    // One virtual second later the bucket holds a fresh token.
    assert!(matches!(
        one(&server, Request::Submit(job("c", "t", 1010))),
        Response::Accepted { .. }
    ));
}

#[test]
fn results_are_ordered_and_byte_identical_to_offline_runs() {
    let server = paused_server(100, TenantPolicy::default());
    for (i, id) in ["first", "second", "third"].iter().enumerate() {
        assert!(matches!(
            one(&server, Request::Submit(job(id, "t", i as u64))),
            Response::Accepted { .. }
        ));
    }
    let results = server.handle_request(&Request::Wait);
    assert_eq!(results.len(), 3);
    let offline = psaflow_core::run_flow_job(
        FlowEngine::sequential().with_policy(FailurePolicy::DegradePaths),
        FlowJob::new(SMOKE_SRC, "first", FlowMode::Informed, PsaParams::default()),
    )
    .expect("offline flow runs");
    let offline_rendering = {
        // Same app name as the served job so renderings are comparable.
        psa_serve::render_outcome(&offline)
    };
    for (i, (resp, id)) in results.iter().zip(["first", "second", "third"]).enumerate() {
        match resp {
            Response::Result(r) => {
                assert_eq!(r.seq, i as u64);
                assert_eq!(r.id, id);
                assert_eq!(r.status, JobStatus::Done);
                let served = r.outcome.as_deref().expect("done job has outcome");
                // Identical program ⇒ identical designs; only the app
                // name differs between the three served renderings.
                if id == "first" {
                    assert_eq!(served, offline_rendering, "served != offline");
                }
            }
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn panicking_jobs_are_isolated_from_the_daemon() {
    let server = paused_server(100, TenantPolicy::default());
    let mut bad = job("boom", "t", 0);
    // A fault plan that panics the trunk flow's first task; under
    // failfast the flow dies (somewhere between a typed error and a
    // caught panic), and the daemon must shrug it off.
    bad.policy = "failfast".to_owned();
    bad.faults = Some("seed=1; task:psa-flow=panic:injected".to_owned());
    assert!(matches!(
        one(&server, Request::Submit(bad)),
        Response::Accepted { .. }
    ));
    assert!(matches!(
        one(&server, Request::Submit(job("ok", "t", 1))),
        Response::Accepted { .. }
    ));
    let results = server.handle_request(&Request::Wait);
    assert_eq!(results.len(), 2);
    match &results[0] {
        Response::Result(r) => {
            assert_ne!(r.status, JobStatus::Done, "fault must surface");
            assert!(!r.detail.is_empty());
        }
        other => panic!("{other:?}"),
    }
    match &results[1] {
        Response::Result(r) => assert_eq!(r.status, JobStatus::Done),
        other => panic!("{other:?}"),
    }
}

#[test]
fn cancel_op_trips_queued_jobs_cooperatively() {
    let server = paused_server(100, TenantPolicy::default());
    assert!(matches!(
        one(&server, Request::Submit(job("doomed", "t", 0))),
        Response::Accepted { .. }
    ));
    match one(
        &server,
        Request::Cancel {
            id: "doomed".to_owned(),
        },
    ) {
        Response::CancelAck { found, .. } => assert!(found),
        other => panic!("{other:?}"),
    }
    // Unknown ids are acknowledged but not found.
    match one(
        &server,
        Request::Cancel {
            id: "nope".to_owned(),
        },
    ) {
        Response::CancelAck { found, .. } => assert!(!found),
        other => panic!("{other:?}"),
    }
    let results = server.handle_request(&Request::Wait);
    match &results[0] {
        Response::Result(r) => {
            assert_eq!(r.status, JobStatus::Cancelled);
            assert!(r.detail.contains("cancelled"), "{}", r.detail);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn queue_wait_counts_against_the_deadline_on_the_virtual_clock() {
    let server = paused_server(100, TenantPolicy::default());
    let mut tight = job("tight", "t", 0);
    tight.deadline_ms = Some(5);
    assert!(matches!(
        one(&server, Request::Submit(tight)),
        Response::Accepted { .. }
    ));
    // A later arrival advances the virtual clock past the deadline.
    assert!(matches!(
        one(&server, Request::Submit(job("late", "t", 100))),
        Response::Accepted { .. }
    ));
    let results = server.handle_request(&Request::Wait);
    match &results[0] {
        Response::Result(r) => {
            assert_eq!(r.status, JobStatus::DeadlineExpired);
            assert_eq!(r.queue_wait_ms, 100);
            assert!(r.detail.contains("deadline"), "{}", r.detail);
        }
        other => panic!("{other:?}"),
    }
    match &results[1] {
        Response::Result(r) => assert_eq!(r.status, JobStatus::Done),
        other => panic!("{other:?}"),
    }
}

#[test]
fn live_servers_thread_real_deadlines_through_the_engine() {
    // Unpaused server: the remaining deadline budget is armed as the
    // engine's flow deadline. A delay fault stalls the first trunk task
    // well past the budget, so the engine itself times the flow out.
    let server = Server::new(ServerConfig {
        workers: 1,
        queue_capacity: 8,
        paused: false,
        ..ServerConfig::default()
    });
    let mut slow = job("slow", "t", 0);
    slow.deadline_ms = Some(80);
    slow.faults = Some("seed=1; task:psa-flow=delay:300".to_owned());
    assert!(matches!(
        one(&server, Request::Submit(slow)),
        Response::Accepted { .. }
    ));
    let results = server.handle_request(&Request::Wait);
    match &results[0] {
        Response::Result(r) => {
            assert_eq!(r.status, JobStatus::DeadlineExpired, "{:?}", r.detail);
            assert!(r.detail.contains("deadline"), "{}", r.detail);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn identical_streams_produce_identical_sessions() {
    let cfg = LoadConfig {
        seed: 11,
        jobs: 40,
        deadline_frac: 0.15,
        fault_frac: 0.25,
        ..LoadConfig::default()
    };
    let input = script(&cfg);
    let run = || {
        let server = Server::new(ServerConfig {
            workers: 3,
            queue_capacity: 32,
            default_policy: TenantPolicy {
                rate_per_sec: 20.0,
                burst: 10.0,
                max_in_flight: 16,
            },
            paused: true,
            ..ServerConfig::default()
        });
        let mut out = Vec::new();
        server
            .serve_lines(Cursor::new(input.clone()), &mut out)
            .expect("session runs");
        String::from_utf8(out).expect("utf8 output")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same stream, same bytes");
    assert!(a.contains("\"op\":\"drain\""));
}

#[test]
fn bad_lines_get_400_without_killing_the_session() {
    let server = paused_server(100, TenantPolicy::default());
    let input = format!(
        "{}\n{}\n{}\n{}\n",
        "this is not json",
        "{\"op\":\"launch\"}",
        psa_serve::encode_request(&Request::Submit(job("ok", "t", 0))),
        psa_serve::encode_request(&Request::Drain),
    );
    let mut out = Vec::new();
    server
        .serve_lines(Cursor::new(input), &mut out)
        .expect("session survives garbage");
    let out = String::from_utf8(out).expect("utf8");
    let lines: Vec<&str> = out.lines().collect();
    assert!(lines[0].contains("\"code\":400") && lines[0].contains("bad_json"));
    assert!(lines[1].contains("\"code\":400") && lines[1].contains("unknown_op"));
    assert!(lines[2].contains("\"status\":\"accepted\""));
    assert!(lines.last().expect("output").contains("\"op\":\"drain\""));
}

#[test]
fn eof_implies_graceful_drain() {
    let server = paused_server(100, TenantPolicy::default());
    let input = format!(
        "{}\n",
        psa_serve::encode_request(&Request::Submit(job("only", "t", 0)))
    );
    let mut out = Vec::new();
    server
        .serve_lines(Cursor::new(input), &mut out)
        .expect("session runs");
    let out = String::from_utf8(out).expect("utf8");
    assert!(
        out.lines()
            .last()
            .expect("output")
            .contains("\"completed\":1"),
        "{out}"
    );
    assert!(server.is_shutdown());
}

#[test]
fn tcp_smoke() {
    let server = Arc::new(Server::new(ServerConfig {
        workers: 2,
        queue_capacity: 16,
        paused: true,
        ..ServerConfig::default()
    }));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let acceptor = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || psa_serve::serve_tcp(&server, listener))
    };
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    {
        use std::io::Write;
        let mut session = String::new();
        for req in [
            Request::Submit(job("tcp-1", "t", 0)),
            Request::Submit(job("tcp-2", "t", 1)),
            Request::Wait,
            Request::Drain,
        ] {
            session.push_str(&psa_serve::encode_request(&req));
            session.push('\n');
        }
        stream.write_all(session.as_bytes()).expect("send");
    }
    let mut lines = Vec::new();
    {
        use std::io::BufRead;
        let reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
        for line in reader.lines() {
            lines.push(line.expect("line"));
        }
    }
    assert_eq!(lines.len(), 5, "{lines:?}");
    assert!(lines[0].contains("accepted") && lines[1].contains("accepted"));
    assert!(lines[2].contains("\"status\":\"done\""));
    assert!(lines[3].contains("\"status\":\"done\""));
    assert!(lines[4].contains("\"op\":\"drain\""));
    acceptor
        .join()
        .expect("acceptor joins")
        .expect("acceptor io");
    assert!(server.is_shutdown());
}
