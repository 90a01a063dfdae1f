//! psa-serve soak: thousands of queued jobs from three tenants, seeded
//! fault plans injecting panics, delays and errors — and the daemon must
//! come out the other side with *exact, reproducible* numbers.
//!
//! The gates:
//!
//! * the daemon survives the whole session (every request answered, the
//!   drain completes, `serve_lines` returns cleanly);
//! * per-tenant quotas and rate limits actually fire, with typed
//!   429/503 rejections;
//! * two runs of the same seeded stream produce **byte-identical**
//!   session transcripts (admission, results, stats — everything);
//! * accepted + rejected counts reconcile exactly with the submission
//!   count, and every accepted job reaches a terminal state;
//! * sampled successful results are **byte-identical** to offline
//!   [`run_flow_job`] runs of the same spec — the service
//!   layer adds failure isolation, not behavioural drift.
//!
//! `soak_mini` keeps the property under continuous test at tier-1 cost;
//! `soak_full` is the ≥2000-job version CI's `serve-soak` job runs in
//! release mode with `--include-ignored`.

use psaflow::core::{run_flow_job, FailurePolicy, FlowEngine, FlowJob, PsaParams};
use psaflow::obs::json::{parse, Json};
use psaflow::serve::loadgen::{generate, script, LoadConfig};
use psaflow::serve::{JobSpec, Request, Server, ServerConfig, TenantPolicy};
use std::collections::HashMap;
use std::io::Cursor;
use std::sync::Arc;

fn soak_load(jobs: usize) -> LoadConfig {
    LoadConfig {
        seed: 7,
        jobs,
        tenants: vec!["alpha".into(), "bravo".into(), "charlie".into()],
        arrive_step_ms: 3,
        deadline_frac: 0.04,
        fault_frac: 0.12,
    }
}

fn soak_server(jobs: usize) -> Server {
    Server::new(ServerConfig {
        workers: 4,
        // Sized so the paused queue overflows partway through the
        // stream: queue-full shedding is part of the deterministic count.
        queue_capacity: jobs / 3,
        default_policy: TenantPolicy {
            rate_per_sec: 150.0,
            burst: 120.0,
            max_in_flight: jobs,
        },
        tenants: vec![
            // The flooding tenant trips its in-flight quota.
            (
                "alpha".into(),
                TenantPolicy {
                    rate_per_sec: 400.0,
                    burst: 400.0,
                    max_in_flight: jobs / 6,
                },
            ),
            // The rate-limited tenant trips its bucket.
            (
                "bravo".into(),
                TenantPolicy {
                    rate_per_sec: 5.0,
                    burst: 10.0,
                    max_in_flight: jobs,
                },
            ),
        ],
        paused: true,
        cache_capacity: 8192,
        cache_domain_quota: Some(2048),
        ..ServerConfig::default()
    })
}

fn run_session(jobs: usize) -> String {
    let input = script(&soak_load(jobs));
    let server = soak_server(jobs);
    let mut out = Vec::new();
    server
        .serve_lines(Cursor::new(input), &mut out)
        .expect("daemon survives the session");
    assert!(server.is_shutdown(), "drain completed");
    String::from_utf8(out).expect("utf8 transcript")
}

fn num(doc: &Json, key: &str) -> u64 {
    doc.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats field {key}"))
}

fn soak(jobs: usize) {
    let first = run_session(jobs);
    let second = run_session(jobs);
    assert_eq!(first, second, "same seed, same transcript bytes");

    // --- reconcile the stats line exactly ---
    let stats_line = first
        .lines()
        .find(|l| l.contains("\"op\":\"stats\""))
        .expect("stats line");
    let stats = parse(stats_line).expect("stats parses");
    let accepted = num(&stats, "accepted");
    let rejected = stats.get("rejected").expect("rejected block");
    let (rate, quota, qfull, drain) = (
        num(rejected, "rate_limit"),
        num(rejected, "in_flight_quota"),
        num(rejected, "queue_full"),
        num(rejected, "draining"),
    );
    assert_eq!(
        accepted + rate + quota + qfull + drain,
        jobs as u64,
        "every submission accounted for"
    );
    assert!(rate > 0, "rate-limit rejections fired");
    assert!(quota > 0, "in-flight-quota rejections fired");
    assert!(qfull > 0, "queue-full shedding fired");
    let finished = num(&stats, "done")
        + num(&stats, "failed")
        + num(&stats, "panicked")
        + num(&stats, "deadline")
        + num(&stats, "cancelled");
    assert_eq!(
        finished, accepted,
        "every accepted job reached a terminal state"
    );
    assert!(num(&stats, "done") > 0, "some jobs succeed");
    assert!(num(&stats, "failed") > 0, "fault plans fail some jobs");
    assert!(
        num(&stats, "deadline") > 0,
        "tight deadlines expire in queue"
    );
    assert_eq!(num(&stats, "queued"), 0);
    assert_eq!(num(&stats, "running"), 0);

    // --- result lines: one per accepted job, in submission order ---
    let results: Vec<Json> = first
        .lines()
        .filter(|l| l.contains("\"op\":\"result\""))
        .map(|l| parse(l).expect("result parses"))
        .collect();
    assert_eq!(results.len() as u64, accepted);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(num(r, "seq"), i as u64, "submission order");
    }

    // --- sampled successes are byte-identical to offline runs ---
    let specs: HashMap<String, JobSpec> = generate(&soak_load(jobs))
        .into_iter()
        .filter_map(|req| match req {
            Request::Submit(spec) => Some((spec.id.clone(), spec)),
            _ => None,
        })
        .collect();
    let done: Vec<&Json> = results
        .iter()
        .filter(|r| r.get("status").and_then(Json::as_str) == Some("done"))
        .collect();
    assert!(!done.is_empty());
    let stride = (done.len() / 8).max(1);
    for r in done.iter().step_by(stride).take(8) {
        let id = r.get("id").and_then(Json::as_str).expect("id");
        let served = r
            .get("outcome")
            .and_then(Json::as_str)
            .expect("done result has outcome");
        let spec = &specs[id];
        let bench = psaflow::benchsuite::by_key(spec.bench.as_deref().expect("bench job"))
            .expect("known benchmark");
        let params = PsaParams::for_benchmark(&bench);
        let engine = FlowEngine::sequential()
            .with_policy(FailurePolicy::parse(&spec.policy).expect("valid policy"));
        let plan = spec
            .faults
            .as_deref()
            .map(|f| Arc::new(psaflow::faults::FaultPlan::parse(f).expect("valid plan")));
        let job = FlowJob::new(&bench.source, &bench.key, spec.mode, params);
        let offline = run_flow_job(
            engine,
            FlowJob {
                faults: plan,
                ..job
            },
        )
        .unwrap_or_else(|e| panic!("offline {id}: {e}"));
        assert_eq!(
            served,
            psaflow::serve::render_outcome(&offline),
            "served result for {id} drifted from the offline reference"
        );
    }
}

#[test]
fn soak_mini() {
    soak(260);
}

#[test]
#[ignore = "2000+-job soak: run in release via CI's serve-soak job (--include-ignored)"]
fn soak_full() {
    soak(2200);
}
