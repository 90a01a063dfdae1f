//! Seeded input generation. Every workload's inputs are a pure function of
//! the `--seed` argument: the same seed gives the same programs, modes,
//! streams and tenant/policy/fault mix, byte for byte.

use psa_benchsuite::{adpredictor, bezier, kmeans, nbody, rushlarsen};
use psa_serve::loadgen::{self, LoadConfig, Rng};
use psa_serve::{JobSpec, Request, TenantPolicy};
use psaflow_core::FlowMode;

/// The five paper applications, in Table I order.
pub const APPS: [&str; 5] = ["rushlarsen", "nbody", "bezier", "adpredictor", "kmeans"];

/// Tenants of the psa-load mix; the first floods.
pub const TENANTS: [&str; 3] = ["alpha", "bravo", "charlie"];

/// The analysis-workload size an app's source is built around.
pub fn analysis_size(app: &str) -> usize {
    match app {
        "rushlarsen" => rushlarsen::ANALYSIS_CELLS,
        "nbody" => nbody::ANALYSIS_BODIES,
        "bezier" => bezier::ANALYSIS_RES,
        "adpredictor" => adpredictor::ANALYSIS_IMPRESSIONS,
        "kmeans" => kmeans::ANALYSIS_POINTS,
        other => panic!("unknown app {other}"),
    }
}

/// The app's MiniC++ source at size `n`.
pub fn app_source(app: &str, n: usize) -> String {
    match app {
        "rushlarsen" => rushlarsen::source(n),
        "nbody" => nbody::source(n),
        "bezier" => bezier::source(n),
        "adpredictor" => adpredictor::source(n),
        "kmeans" => kmeans::source(n),
        other => panic!("unknown app {other}"),
    }
}

fn unit(rng: &mut Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn pick(rng: &mut Rng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn chance(rng: &mut Rng, p: f64) -> bool {
    unit(rng) < p
}

fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, pick(rng, i + 1));
    }
}

/// One size per stratum `0..n` of `[lo, hi)` times the app's analysis
/// size, seeded within each stratum. Strata `k` and `n - 1 - k` take
/// mirrored offsets, so every seed's sizes have the same total and the
/// seed changes the programs without changing the load.
fn stratified_sizes(rng: &mut Rng, app: &str, n: usize, lo: f64, hi: f64) -> Vec<usize> {
    let mut offset = vec![0.5; n];
    for k in 0..n / 2 {
        offset[k] = unit(rng);
        offset[n - 1 - k] = 1.0 - offset[k];
    }
    (0..n)
        .map(|k| {
            let f = lo + (hi - lo) * (k as f64 + offset[k]) / n as f64;
            ((analysis_size(app) as f64 * f).round() as usize).max(2)
        })
        .collect()
}

/// One offline flow job: an app at a seeded size, in a seeded mode.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    pub app: &'static str,
    pub size: usize,
    pub mode: FlowMode,
    pub source: String,
}

impl FlowSpec {
    /// Names the job for reports and the reference.
    pub fn key(&self) -> String {
        format!("{}-{}-{}", self.app, self.size, mode_label(self.mode))
    }
}

pub fn mode_label(mode: FlowMode) -> &'static str {
    match mode {
        FlowMode::Informed => "informed",
        FlowMode::Uninformed => "uninformed",
    }
}

/// Jobs per app in the offline pool; half run informed, half uninformed.
pub const OFFLINE_PER_APP: usize = 8;

/// The offline_cold job pool: every app at [`OFFLINE_PER_APP`] sizes
/// between 0.5x and 1.5x its analysis size, in seeded order. The closed
/// loop cycles through it.
pub fn offline_pool(seed: u64) -> Vec<FlowSpec> {
    let mut rng = Rng::new(seed ^ 0x6f66_666c_696e_6521);
    let mut pool = Vec::new();
    for app in APPS {
        // Strata 0, 3, 4 and 7 take one mode and 1, 2, 5 and 6 the other,
        // so both modes see the same mean size under every seed.
        let flip = chance(&mut rng, 0.5);
        let sizes = stratified_sizes(&mut rng, app, OFFLINE_PER_APP, 0.5, 1.5);
        for (k, size) in sizes.into_iter().enumerate() {
            let informed = matches!(k % 4, 0 | 3) != flip;
            pool.push(FlowSpec {
                app,
                size,
                mode: if informed {
                    FlowMode::Informed
                } else {
                    FlowMode::Uninformed
                },
                source: app_source(app, size),
            });
        }
    }
    shuffle(&mut rng, &mut pool);
    pool
}

/// The serve_warm stream: psa-load's benchmark-key mix with no faults, no
/// tight deadlines. Admission is opened wide by the server config.
pub fn warm_stream(seed: u64, jobs: usize) -> Vec<Request> {
    loadgen::generate(&LoadConfig {
        seed,
        jobs,
        tenants: TENANTS.iter().map(|t| t.to_string()).collect(),
        deadline_frac: 0.0,
        fault_frac: 0.0,
        ..LoadConfig::default()
    })
}

/// Size strata of each app's serve_churn programs, hottest rank first:
/// middle sizes are drawn most often, the extremes least.
const CHURN_STRATA: [usize; 8] = [4, 3, 5, 2, 6, 1, 7, 0];
/// Programs in the serve_churn corpus.
pub const CHURN_CORPUS: usize = APPS.len() * CHURN_STRATA.len();
/// Zipf exponent of the serve_churn program draw: Zipf's law proper.
pub const CHURN_ZIPF_S: f64 = 1.0;
/// Per-domain entry quota of the serve_churn server's shared cache. The
/// corpus's working set exceeds it (checked by a self-test).
pub const CHURN_DOMAIN_QUOTA: usize = 64;
/// Admission policy of the flooding tenant: a finite rate on the virtual
/// clock, so exactly the same submissions are refused on every run.
pub const CHURN_FLOOD_POLICY: TenantPolicy = TenantPolicy {
    rate_per_sec: 100.0,
    burst: 20.0,
    max_in_flight: 1 << 20,
};

/// The message of the panics psa-load's fault plans inject.
pub const INJECTED_PANIC: &str = "injected fault";

/// One serve_churn submission plus the content it names: jobs with the
/// same content must produce the same outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnJob {
    pub spec: JobSpec,
    pub content: String,
}

/// The serve_churn inputs: a corpus of inline programs and a submission
/// stream drawing from it.
#[derive(Debug, Clone, PartialEq)]
pub struct Churn {
    pub corpus: Vec<String>,
    pub jobs: Vec<ChurnJob>,
}

/// The serve_churn corpus, ordered by Zipf rank: rank `r` is app
/// `r mod 5`, and its `r / 5`-th program takes a size from the matching
/// stratum of [`CHURN_STRATA`] between 0.5x and 1.5x the app's analysis
/// size, the offline pool's range. Only the size within each stratum is
/// seeded, so the hot ranks carry the same amount of work under every
/// seed.
pub fn churn_corpus(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x6368_7572_6e21);
    let sizes: Vec<Vec<usize>> = APPS
        .iter()
        .map(|app| stratified_sizes(&mut rng, app, CHURN_STRATA.len(), 0.5, 1.5))
        .collect();
    (0..CHURN_CORPUS)
        .map(|r| {
            let a = r % APPS.len();
            app_source(APPS[a], sizes[a][CHURN_STRATA[r / APPS.len()]])
        })
        .collect()
}

/// Draw ranks from a Zipf(`s`) law over `n` items.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let u = unit(rng);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The serve_churn stream: psa-load's own stream (tenant mix, modes,
/// failure policies, generous or absent deadlines, and its default share
/// of fault plans, with no tight deadlines), each benchmark key replaced
/// by an inline program drawn Zipf-skewed from the corpus.
pub fn churn(seed: u64, jobs: usize) -> Churn {
    let corpus = churn_corpus(seed);
    let zipf = Zipf::new(corpus.len(), CHURN_ZIPF_S);
    let mut rng = Rng::new(seed ^ 0x7a69_7066);
    let stream = loadgen::generate(&LoadConfig {
        seed,
        jobs,
        tenants: TENANTS.iter().map(|t| t.to_string()).collect(),
        deadline_frac: 0.0,
        ..LoadConfig::default()
    });
    let jobs = stream
        .into_iter()
        .filter_map(|req| match req {
            Request::Submit(spec) => Some(spec),
            _ => None,
        })
        .map(|spec| {
            let program = zipf.draw(&mut rng);
            // A plan's seed only drives probabilistic (`@~p`) rules, which
            // psa-load does not write, so the rules alone name the content.
            let rules = spec
                .faults
                .as_deref()
                .map_or("", |f| f.split_once("; ").map_or(f, |(_, r)| r));
            let content = format!(
                "p{program}-{}-{}-{rules}",
                mode_label(spec.mode),
                spec.policy
            );
            ChurnJob {
                spec: JobSpec {
                    bench: None,
                    source: Some(corpus[program].clone()),
                    ..spec
                },
                content,
            }
        })
        .collect();
    Churn { corpus, jobs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_serve::encode_request;

    fn warm_script(seed: u64) -> Vec<String> {
        warm_stream(seed, 200).iter().map(encode_request).collect()
    }

    #[test]
    fn offline_pool_is_a_function_of_the_seed() {
        assert_eq!(offline_pool(3), offline_pool(3));
        assert_ne!(offline_pool(3), offline_pool(4));
    }

    #[test]
    fn offline_pool_is_stratified() {
        let pool = offline_pool(11);
        assert_eq!(pool.len(), APPS.len() * OFFLINE_PER_APP);
        for app in APPS {
            let jobs: Vec<&FlowSpec> = pool.iter().filter(|j| j.app == app).collect();
            assert_eq!(jobs.len(), OFFLINE_PER_APP);
            let informed = jobs.iter().filter(|j| j.mode == FlowMode::Informed).count();
            assert_eq!(informed, OFFLINE_PER_APP / 2);
            let base = analysis_size(app) as f64;
            for j in jobs {
                let f = j.size as f64 / base;
                assert!((0.45..=1.55).contains(&f), "{} at {f}", j.key());
            }
        }
    }

    #[test]
    fn warm_stream_is_a_function_of_the_seed() {
        assert_eq!(warm_script(5), warm_script(5));
        assert_ne!(warm_script(5), warm_script(6));
    }

    #[test]
    fn churn_stream_is_a_function_of_the_seed() {
        assert_eq!(churn(9, 300), churn(9, 300));
        assert_ne!(churn(9, 300).jobs, churn(10, 300).jobs);
        assert_ne!(churn_corpus(9), churn_corpus(10));
    }

    #[test]
    fn churn_mix_has_rejectable_floods_faults_and_skew() {
        let c = churn(2, 2000);
        let flood = c
            .jobs
            .iter()
            .filter(|j| j.spec.tenant == TENANTS[0])
            .count();
        assert!(flood > 1000, "the first tenant floods: {flood}");
        let faulted = c.jobs.iter().filter(|j| j.spec.faults.is_some()).count();
        let expected = LoadConfig::default().fault_frac * c.jobs.len() as f64;
        assert!(
            (faulted as f64 - expected).abs() < expected / 3.0,
            "{faulted} faulted, about {expected} expected"
        );
        let hottest = c
            .jobs
            .iter()
            .filter(|j| j.spec.source.as_deref() == Some(c.corpus[0].as_str()))
            .count();
        let coldest = c
            .jobs
            .iter()
            .filter(|j| j.spec.source.as_deref() == Some(c.corpus[CHURN_CORPUS - 1].as_str()))
            .count();
        assert!(hottest > 10 * coldest.max(1), "{hottest} vs {coldest}");
        for j in &c.jobs {
            psa_serve::decode_request(&encode_request(&Request::Submit(j.spec.clone())))
                .expect("every generated submission decodes");
        }
    }
}
