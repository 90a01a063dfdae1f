//! psabench — the repository benchmark for PSA design flows and the
//! psa-serve flow service.
//!
//! ```text
//! psabench --workload <offline_cold|serve_warm|serve_churn> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with the program's
//! metrics registry and flight recorder off; with `--trace 1` it runs the
//! workload in slices that alternate untraced and traced, then probes each
//! layer's public functions on the workload's own inputs, and reports the
//! per-layer metrics. Every run checks each job's status and
//! rendered outcome, and every admission refusal, against a reference
//! computed by a child process pinned to the tree-walking interpreter. The
//! last stdout line is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! A mismatch makes the command exit non-zero.

mod gen;
mod layers;
mod offline;
mod reference;
mod serve_churn;
mod serve_warm;
mod spans;
mod stats;

use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OfflineCold,
    ServeWarm,
    ServeChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OfflineCold,
        Workload::ServeWarm,
        Workload::ServeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineCold => "offline_cold",
            Workload::ServeWarm => "serve_warm",
            Workload::ServeChurn => "serve_churn",
        }
    }

    fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload \"{s}\""))
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (jobs, flows, set-ups, programs, …).
    pub samples: u64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64, samples: u64) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

/// What one run measured and how many of its outputs disagreed with the
/// reference.
pub struct RunResult {
    pub attempted: u64,
    pub mismatches: u64,
    pub metrics: Vec<Metric>,
}

/// Jobs a run finishes before its peak RSS is read.
const RSS_AFTER_JOBS: usize = 500;

/// Peak RSS read once [`RSS_AFTER_JOBS`] jobs have finished, so the figure
/// does not grow with however many jobs the host's speed let a run finish
/// (the service keeps every result until drain).
#[derive(Debug, Default)]
pub struct RssProbe(Option<f64>);

impl RssProbe {
    /// `finished` jobs have finished so far.
    pub fn observe(&mut self, finished: usize) {
        if self.0.is_none() && finished >= RSS_AFTER_JOBS {
            self.0 = Some(peak_rss_mb());
        }
    }

    /// The reading, or the current peak if fewer jobs finished.
    pub fn mb(&self) -> f64 {
        self.0.unwrap_or_else(peak_rss_mb)
    }
}

/// The end-to-end figures of an untraced run.
pub struct EndToEnd {
    setup_s: f64,
    setups: u64,
    jobs: u64,
    wall_s: f64,
    latencies_ms: Vec<f64>,
    peak_rss_mb: f64,
}

impl EndToEnd {
    /// `jobs` finished in `wall_s`.
    pub fn new(
        setups_s: &[f64],
        jobs: u64,
        wall_s: f64,
        latencies_ms: Vec<f64>,
        rss: &RssProbe,
    ) -> EndToEnd {
        EndToEnd {
            setup_s: stats::median(setups_s),
            setups: setups_s.len() as u64,
            jobs,
            wall_s,
            latencies_ms,
            peak_rss_mb: rss.mb(),
        }
    }

    /// `done` of `attempted` jobs finished as done with the reference's
    /// output.
    pub fn metrics(self, done: u64, attempted: u64) -> Result<Vec<Metric>, String> {
        let n = self.latencies_ms.len() as u64;
        let p90 = stats::tail_percentile(&self.latencies_ms, 0.9)?;
        Ok(vec![
            metric("setup_s", "s", self.setup_s, self.setups),
            metric(
                "jobs_per_s",
                "jobs/s",
                self.jobs as f64 / self.wall_s,
                self.jobs,
            ),
            metric("job_ms_p50", "ms", stats::median(&self.latencies_ms), n),
            metric("job_ms_p90", "ms", p90.value, p90.samples as u64),
            metric(
                "done_share",
                "ratio",
                done as f64 / attempted.max(1) as f64,
                attempted,
            ),
            metric("peak_rss_mb", "MB", self.peak_rss_mb, 1),
        ])
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn usage() -> &'static str {
    "usage: psabench --workload <offline_cold|serve_warm|serve_churn> --seed <n> \
     --seconds <s> --trace <0|1>"
}

enum Mode {
    Measure(Args),
    /// Child process: print the tree-walker reference for a workload.
    Reference {
        workload: Workload,
        seed: u64,
        jobs: usize,
    },
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut reference = false;
    let mut jobs = 0usize;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace \"{other}\": expected 0 or 1")),
                })
            }
            "--reference" => reference = true,
            "--jobs" => jobs = value()?.parse().map_err(|e| format!("bad --jobs: {e}"))?,
            other => return Err(format!("unknown argument \"{other}\"")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if reference {
        return Ok(Mode::Reference {
            workload,
            seed,
            jobs,
        });
    }
    Ok(Mode::Measure(Args {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fault plans make flows panic on purpose, and the program catches and
/// reports each one; the default hook would also print every one of them.
pub fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        if !msg.is_some_and(|m| m.contains(gen::INJECTED_PANIC)) {
            default(info);
        }
    }));
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&argv) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("psabench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let args = match mode {
        Mode::Reference {
            workload,
            seed,
            jobs,
        } => return reference::child_main(workload, seed, jobs),
        Mode::Measure(args) => args,
    };
    psa_obs::set_enabled(false);
    psa_obs::recorder::set_enabled(false);
    quiet_injected_panics();
    let result = match args.workload {
        Workload::OfflineCold => offline::run(&args),
        Workload::ServeWarm => serve_warm::run(&args),
        Workload::ServeChurn => serve_churn::run(&args),
    };
    let result = result.and_then(|r| match r.metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("metric {} is {}", m.name, m.value)),
        None => Ok(r),
    });
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("psabench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };

    for m in &result.metrics {
        println!(
            "{:<28} {:>14.4} {:<7} workload={} samples={}",
            m.name,
            m.value,
            m.unit,
            args.workload.name(),
            m.samples
        );
    }
    let correct = result.mismatches == 0;
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.attempted,
        result.mismatches,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "psabench: {} of {} outputs differ from the reference",
            result.mismatches, result.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        match parse_args(&args(
            "--workload serve_churn --seed 7 --seconds 10 --trace 1",
        )) {
            Ok(Mode::Measure(a)) => {
                assert_eq!(a.workload, Workload::ServeChurn);
                assert_eq!(a.seed, 7);
                assert_eq!(a.seconds, 10.0);
                assert!(a.trace);
            }
            _ => panic!("expected a measuring run"),
        }
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args(
            "--workload serve_warm --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload serve_warm --seed 1 --trace 0")).is_err());
    }
}
