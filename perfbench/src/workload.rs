//! The three benchmark workloads and one end-to-end pass ("rep") of each.
//!
//! A rep is what a user of the campaign CLI waits for: build the exhaustive
//! NASBench database, load the warm cache (guided-warm only), run the sweep
//! through `ShardedDriver::run`, merge each scenario's Pareto front and
//! score it, then write the JSONL/CSV exports (and, guided-warm only, save
//! the grown cache to a fresh path).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use codesign_core::{CodesignSpace, SurrogateConfig};
use codesign_engine::{
    Campaign, CampaignReport, ShardObserver, ShardResult, ShardedDriver, SharedEvalCache,
    StrategyKind,
};
use codesign_nasbench::NasbenchDatabase;

/// Worker threads of every timed sweep.
pub const WORKERS: usize = 2;

/// Offset of the guided-warm prime's seed range from the workload's seeds,
/// so the prime never contains the measured shards' own evaluations.
const PRIME_SEED_OFFSET: u64 = 100;

/// Which of the three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's §III RL comparison: combined/phase/separate controllers.
    RlSweep,
    /// The ≤6-vertex database plus controller-free search strategies.
    PaperScale,
    /// Surrogate-guided search warm-started from a persisted cache.
    GuidedWarm,
}

/// A workload: its campaign, its database size, and (guided-warm) the
/// campaign that writes its warm-start prime.
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub max_vertices: usize,
    /// Cells the exhaustive database must hold at `max_vertices`.
    pub expected_cells: usize,
    pub campaign: Campaign,
    pub prime: Option<Campaign>,
}

fn seed_range(base: u64, count: u64) -> Vec<u64> {
    (0..count).map(|i| base.wrapping_add(i)).collect()
}

impl Workload {
    /// The named workload with its campaign seeds derived from `seed`.
    pub fn new(name: &str, seed: u64) -> Option<Self> {
        let presets = codesign_core::ScenarioSpec::paper_presets;
        let workload = match name {
            "rl-sweep" => Self {
                kind: Kind::RlSweep,
                name: "rl-sweep",
                max_vertices: 5,
                expected_cells: 2_532,
                campaign: Campaign::new(CodesignSpace::with_max_vertices(5))
                    .scenarios(presets())
                    .strategies(vec![
                        StrategyKind::Combined,
                        StrategyKind::Phase,
                        StrategyKind::Separate,
                    ])
                    .seeds(seed_range(seed, 4))
                    .steps(400),
                prime: None,
            },
            "paper-scale" => Self {
                kind: Kind::PaperScale,
                name: "paper-scale",
                max_vertices: 6,
                expected_cells: 64_542,
                campaign: Campaign::new(CodesignSpace::with_max_vertices(6))
                    .scenarios(presets())
                    .strategies(vec![
                        StrategyKind::Random,
                        StrategyKind::Evolution,
                        StrategyKind::Nsga { population: 40 },
                    ])
                    .seeds(seed_range(seed, 3))
                    .steps(4_000),
                prime: None,
            },
            "guided-warm" => {
                let guided = |seeds: Vec<u64>| {
                    Campaign::new(CodesignSpace::with_max_vertices(5))
                        .scenarios(presets())
                        .strategies(vec![
                            StrategyKind::Evolution,
                            StrategyKind::Nsga {
                                population: StrategyKind::DEFAULT_NSGA_POPULATION,
                            },
                        ])
                        .seeds(seeds)
                        .steps(400)
                        .with_surrogate(Some(SurrogateConfig {
                            overproduce: 4,
                            retrain: 32,
                        }))
                };
                Self {
                    kind: Kind::GuidedWarm,
                    name: "guided-warm",
                    max_vertices: 5,
                    expected_cells: 2_532,
                    campaign: guided(seed_range(seed, 3)),
                    prime: Some(guided(seed_range(seed.wrapping_add(PRIME_SEED_OFFSET), 3))),
                }
            }
            _ => return None,
        };
        Some(workload)
    }

    /// Σ step budgets over the campaign's shards.
    pub fn budget(&self) -> usize {
        self.campaign.shards().iter().map(|s| s.steps).sum()
    }
}

/// A sweep that panicked (a shard's search panicked inside a worker).
pub struct SweepPanicked;

/// Runs `campaign` on `workers` threads, timing the `ShardedDriver::run`
/// call. A panicking shard is caught so it counts as failed work instead of
/// aborting the benchmark.
pub fn sweep(
    campaign: &Campaign,
    db: &Arc<NasbenchDatabase>,
    workers: usize,
    cache: Option<Arc<SharedEvalCache>>,
    observer: Option<ShardObserver>,
) -> Result<(CampaignReport, Duration), SweepPanicked> {
    let mut driver = ShardedDriver::new(workers);
    if let Some(cache) = cache {
        driver = driver.with_cache(cache);
    }
    if let Some(observer) = observer {
        driver = driver.with_shard_observer(observer);
    }
    let started = Instant::now();
    let report =
        catch_unwind(AssertUnwindSafe(|| driver.run(campaign, db))).map_err(|_| SweepPanicked)?;
    Ok((report, started.elapsed()))
}

/// Shards that failed: missing from the report, or run to a step count
/// other than their budget. (A panicked sweep fails every shard.)
pub fn failed_shards(campaign: &Campaign, report: &CampaignReport) -> usize {
    let ok = campaign
        .shards()
        .iter()
        .filter(|spec| {
            report
                .shards
                .iter()
                .any(|r| r.spec.index == spec.index && r.steps == spec.steps)
        })
        .count();
    campaign.shards().len() - ok
}

/// One shard's outcome digest: front points (metric bits and payloads),
/// hypervolume bits, best point, and step counts. Equal digests mean
/// bit-identical search outcomes.
pub fn shard_digest(shard: &ShardResult) -> u64 {
    let mut h = DefaultHasher::new();
    shard.spec.index.hash(&mut h);
    shard.steps.hash(&mut h);
    shard.feasible_steps.hash(&mut h);
    shard.invalid_steps.hash(&mut h);
    shard.hypervolume.to_bits().hash(&mut h);
    for (metrics, payload) in shard.front.iter() {
        metrics.to_bits().hash(&mut h);
        payload.hash(&mut h);
    }
    match &shard.best {
        Some(best) => {
            best.cell.hash(&mut h);
            best.config.hash(&mut h);
            best.reward.to_bits().hash(&mut h);
            best.step.hash(&mut h);
            for value in [
                best.evaluation.accuracy,
                best.evaluation.latency_ms,
                best.evaluation.area_mm2,
                best.evaluation.power_w,
            ] {
                value.to_bits().hash(&mut h);
            }
        }
        None => 0u8.hash(&mut h),
    }
    h.finish()
}

/// Per-shard digests in grid order.
pub fn digest(report: &CampaignReport) -> Vec<u64> {
    report.shards.iter().map(shard_digest).collect()
}

/// How many grid positions differ between two digests (a length mismatch
/// counts every missing position).
pub fn digest_mismatches(a: &[u64], b: &[u64]) -> usize {
    let common = a.iter().zip(b).filter(|(x, y)| x != y).count();
    common + a.len().abs_diff(b.len())
}

/// Every timing and output of one end-to-end rep.
pub struct Rep {
    pub db: Arc<NasbenchDatabase>,
    /// The shared evaluation cache the sweep ran against.
    pub cache: Arc<SharedEvalCache>,
    pub report: CampaignReport,
    pub wall: Duration,
    pub build: Duration,
    pub load: Duration,
    pub sweep: Duration,
    pub merge: Duration,
    pub save: Duration,
    pub saved_bytes: u64,
    /// Entries the warm cache held right after loading (guided-warm).
    pub loaded_entries: usize,
    /// Entries written by the save, re-read from the saved file.
    pub saved_entries_reloaded: Option<usize>,
    pub hv_mean: f64,
    pub front_points: usize,
    pub best_reward_mean: f64,
}

impl Rep {
    pub fn setup(&self) -> Duration {
        self.build + self.load
    }

    /// Σ steps the sweep ran per second of `ShardedDriver::run`.
    pub fn evals_per_s(&self) -> f64 {
        let steps: usize = self.report.shards.iter().map(|s| s.steps).sum();
        steps as f64 / self.sweep.as_secs_f64()
    }
}

/// Loads a persisted cache written against `db`.
pub fn load_cache(path: &Path, db: &NasbenchDatabase) -> Result<Arc<SharedEvalCache>, String> {
    SharedEvalCache::load_from_path(path, db.fingerprint())
        .map(Arc::new)
        .map_err(|e| format!("load {}: {e}", path.display()))
}

/// The set-up part of a rep: the database and, guided-warm only, the warm
/// cache, with how long each took.
pub struct Setup {
    pub db: Arc<NasbenchDatabase>,
    pub cache: Option<Arc<SharedEvalCache>>,
    pub build: Duration,
    pub load: Duration,
}

/// Builds the workload's database and, when `prime` is given, loads the
/// warm cache from it.
pub fn setup(workload: &Workload, prime: Option<&Path>) -> Result<Setup, String> {
    let started = Instant::now();
    let db = Arc::new(NasbenchDatabase::exhaustive(workload.max_vertices));
    let build = started.elapsed();
    let started = Instant::now();
    let cache = prime.map(|path| load_cache(path, &db)).transpose()?;
    let load = if cache.is_some() {
        started.elapsed()
    } else {
        Duration::ZERO
    };
    Ok(Setup {
        db,
        cache,
        build,
        load,
    })
}

/// Mean over scenarios of the merged-front hypervolume, and the merged
/// fronts' total size.
pub fn merged_hypervolume(report: &CampaignReport) -> (f64, usize) {
    let names = report.scenario_names();
    let mut total = 0.0;
    let mut points = 0;
    for name in &names {
        let reference = report
            .shards
            .iter()
            .find(|s| s.spec.scenario_name() == name)
            .expect("scenario names come from shards")
            .spec
            .scenario
            .hypervolume_reference();
        let front = report.merged_front(name);
        points += front.len();
        total += front.hypervolume(&reference);
    }
    (total / names.len().max(1) as f64, points)
}

/// Mean best feasible (unshaped) reward over the shards that found one.
pub fn best_reward_mean(report: &CampaignReport) -> f64 {
    let rewards: Vec<f64> = report
        .shards
        .iter()
        .filter_map(|s| s.best.as_ref().map(|b| b.reward))
        .collect();
    rewards.iter().sum::<f64>() / rewards.len().max(1) as f64
}

/// Runs one end-to-end rep, writing its exports under `out`. Guided-warm
/// reps load `prime` read-only and save the grown cache to
/// `out/cache-<tag>.bin`, a path no other rep uses.
pub fn run_rep(
    workload: &Workload,
    out: &Path,
    tag: &str,
    prime: Option<&Path>,
    observer: Option<ShardObserver>,
) -> Result<Result<Rep, SweepPanicked>, String> {
    let started = Instant::now();
    let Setup {
        db,
        cache,
        build,
        load,
    } = setup(workload, prime)?;
    let loaded_entries = cache.as_ref().map_or(0, |c| c.len());
    let warm = cache.is_some();
    // A cold rep's cache is created here rather than inside `ShardedDriver`, so
    // the traced pass can replay shards against what the sweep saw.
    let cache = cache.unwrap_or_default();
    let (report, sweep_time) = match sweep(
        &workload.campaign,
        &db,
        WORKERS,
        Some(Arc::clone(&cache)),
        observer,
    ) {
        Ok(done) => done,
        Err(panicked) => return Ok(Err(panicked)),
    };

    let merge_started = Instant::now();
    let (hv_mean, front_points) = merged_hypervolume(&report);
    let merge = merge_started.elapsed();

    let jsonl = out.join(format!("campaign-{tag}.jsonl"));
    let file = std::fs::File::create(&jsonl).map_err(|e| format!("{}: {e}", jsonl.display()))?;
    let mut writer = std::io::BufWriter::new(file);
    report
        .write_jsonl(&mut writer)
        .and_then(|()| std::io::Write::flush(&mut writer))
        .map_err(|e| format!("{}: {e}", jsonl.display()))?;
    let csv = out.join(format!("campaign-{tag}.csv"));
    report
        .write_csv(&csv)
        .map_err(|e| format!("{}: {e}", csv.display()))?;

    let mut save = Duration::ZERO;
    let mut saved_bytes = 0;
    let mut saved_path: Option<PathBuf> = None;
    if warm {
        let path = out.join(format!("cache-{tag}.bin"));
        let save_started = Instant::now();
        cache
            .save_to_path(&path, db.fingerprint())
            .map_err(|e| format!("save {}: {e}", path.display()))?;
        save = save_started.elapsed();
        saved_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        saved_path = Some(path);
    }
    let wall = started.elapsed();

    // Not part of the timed rep: re-read the saved cache to check it.
    let saved_entries_reloaded = saved_path.map(|path| {
        SharedEvalCache::load_from_path(&path, db.fingerprint()).map_or(0, |c| c.len())
    });
    Ok(Ok(Rep {
        best_reward_mean: best_reward_mean(&report),
        db,
        cache,
        report,
        wall,
        build,
        load,
        sweep: sweep_time,
        merge,
        save,
        saved_bytes,
        loaded_entries,
        saved_entries_reloaded,
        hv_mean,
        front_points,
    }))
}

/// Writes the guided-warm prime: a cold guided sweep over the disjoint
/// prime seed range, saved once per invocation with the code under test.
pub fn write_prime(workload: &Workload, path: &Path) -> Result<usize, String> {
    let prime = workload
        .prime
        .as_ref()
        .expect("only guided-warm writes a prime");
    let db = Arc::new(NasbenchDatabase::exhaustive(workload.max_vertices));
    let cache = Arc::new(SharedEvalCache::new());
    sweep(prime, &db, WORKERS, Some(Arc::clone(&cache)), None)
        .map_err(|_| "the prime sweep panicked".to_owned())?;
    cache
        .save_to_path(path, db.fingerprint())
        .map_err(|e| format!("save prime {}: {e}", path.display()))?;
    Ok(cache.len())
}
