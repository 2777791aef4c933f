//! The traced run: per-layer numbers measured from outside the program.
//!
//! Nothing here reaches inside the crates under test. Layers are timed by
//! wrapping their public calls:
//!
//! * a [`ShardObserver`] collects every shard's `ShardResult::wall_us`;
//! * [`TimedCache`], an `EvalCache` around `ShardCacheView`, counts and
//!   times the evaluator's pair `get`/`put` calls;
//! * [`replay_shard`] re-runs a `combined` or `random` shard through the
//!   same public calls the shipped strategy makes (`ReinforceTrainer::
//!   propose`, `CodesignSpace::decode`, `Evaluator::evaluate`,
//!   `SearchRecorder::record`, `ReinforceTrainer::learn`), each wrapped in
//!   a span, and returns a `ShardResult` that must equal the sweep's shard
//!   bit for bit;
//! * [`replay_guide`] drives a `SurrogateGuide` through the work a guided
//!   shard gives it: `warm_start(snapshot_labeled())`, then one `observe`
//!   and `k` `predict_eval` calls per real evaluation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use codesign_accel::AcceleratorConfig;
use codesign_core::{
    pair_features, CodesignSpace, EvalCache, EvalOutcome, Evaluator, LabeledSample, PairEvaluation,
    Proposal, SearchRecorder, SurrogateGuide, CELL_FEATURE_DIM,
};
use codesign_engine::{
    Campaign, ShardCacheView, ShardObserver, ShardResult, ShardSpec, SharedEvalCache, StrategyKind,
};
use codesign_nasbench::NasbenchDatabase;
use codesign_rl::{LstmPolicy, PolicyConfig, ReinforceConfig, ReinforceTrainer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Accumulated span time of one kind of call.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub calls: u64,
    pub total: Duration,
}

impl Span {
    /// Runs `f` inside this span.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = f();
        self.add(started.elapsed());
        value
    }

    pub fn add(&mut self, elapsed: Duration) {
        self.calls += 1;
        self.total += elapsed;
    }

    /// Mean span length in µs (0 with no calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e6 / self.calls as f64
        }
    }
}

/// Every span the replays record.
#[derive(Debug, Default)]
pub struct Layers {
    pub propose: Span,
    pub learn: Span,
    pub decode: Span,
    pub eval_hit: Span,
    pub eval_miss: Span,
    pub eval_invalid: Span,
    pub record: Span,
    /// Whole replayed shards, set-up to `finish`.
    pub shard: Span,
    /// `warm_start`/`observe` calls that ran a training round.
    pub fit: Span,
    /// Σ observations buffered at each fit.
    pub fit_samples: u64,
    pub predict: Span,
    pub cache_get: Span,
    pub cache_put: Span,
}

impl Layers {
    fn absorb_cache(&mut self, cache: &TimedCache) {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        self.cache_get.calls += load(&cache.get_calls);
        self.cache_get.total += Duration::from_nanos(load(&cache.get_ns));
        self.cache_put.calls += load(&cache.put_calls);
        self.cache_put.total += Duration::from_nanos(load(&cache.put_ns));
    }
}

/// A benchmark-owned `EvalCache` around the engine's per-shard view that
/// counts and times pair lookups and stores.
pub struct TimedCache {
    inner: ShardCacheView,
    get_calls: AtomicU64,
    get_hits: AtomicU64,
    get_ns: AtomicU64,
    put_calls: AtomicU64,
    put_ns: AtomicU64,
}

impl TimedCache {
    pub fn new(cache: Arc<SharedEvalCache>) -> Self {
        Self {
            inner: ShardCacheView::new(cache),
            get_calls: AtomicU64::new(0),
            get_hits: AtomicU64::new(0),
            get_ns: AtomicU64::new(0),
            put_calls: AtomicU64::new(0),
            put_ns: AtomicU64::new(0),
        }
    }

    fn hits(&self) -> u64 {
        self.get_hits.load(Ordering::Relaxed)
    }
}

fn nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

impl EvalCache for TimedCache {
    fn get(&self, cell_hash: u128, config: &AcceleratorConfig) -> Option<PairEvaluation> {
        let started = Instant::now();
        let found = self.inner.get(cell_hash, config);
        self.get_ns
            .fetch_add(nanos(started.elapsed()), Ordering::Relaxed);
        self.get_calls.fetch_add(1, Ordering::Relaxed);
        if found.is_some() {
            self.get_hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn put(&self, cell_hash: u128, config: &AcceleratorConfig, eval: PairEvaluation) {
        let started = Instant::now();
        self.inner.put(cell_hash, config, eval);
        self.put_ns
            .fetch_add(nanos(started.elapsed()), Ordering::Relaxed);
        self.put_calls.fetch_add(1, Ordering::Relaxed);
    }

    fn get_accuracy(&self, cell_hash: u128) -> Option<f64> {
        self.inner.get_accuracy(cell_hash)
    }

    fn put_accuracy(&self, cell_hash: u128, accuracy: f64) {
        self.inner.put_accuracy(cell_hash, accuracy);
    }

    fn wants_cell_features(&self) -> bool {
        self.inner.wants_cell_features()
    }

    fn put_cell_features(&self, cell_hash: u128, features: [f64; CELL_FEATURE_DIM]) {
        self.inner.put_cell_features(cell_hash, features);
    }

    fn snapshot_labeled(&self) -> Vec<LabeledSample> {
        self.inner.snapshot_labeled()
    }
}

/// Shard wall times reported through `ShardedDriver`'s observer hook.
pub fn shard_wall_observer() -> (ShardObserver, Arc<Mutex<Vec<u64>>>) {
    let walls = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&walls);
    let observer = Arc::new(move |result: &ShardResult| {
        sink.lock()
            .expect("observer sink poisoned")
            .push(result.wall_us);
    }) as ShardObserver;
    (observer, walls)
}

/// A fresh evaluator over `db` whose shared cache is a [`TimedCache`]
/// around `cache`.
fn timed_evaluator(
    db: &Arc<NasbenchDatabase>,
    cache: &Arc<SharedEvalCache>,
) -> (Evaluator, Arc<TimedCache>) {
    let timed = Arc::new(TimedCache::new(Arc::clone(cache)));
    let evaluator = Evaluator::with_shared_database(Arc::clone(db))
        .with_shared_cache(Arc::clone(&timed) as Arc<dyn EvalCache>);
    (evaluator, timed)
}

/// `Evaluator::evaluate` inside a span chosen by its outcome: a pair-cache
/// hit, a miss that computed the metrics, or a wasted (invalid) step.
fn evaluate(
    layers: &mut Layers,
    evaluator: &mut Evaluator,
    cache: &TimedCache,
    proposal: &Proposal,
) -> EvalOutcome {
    let hits_before = cache.hits();
    let started = Instant::now();
    let outcome = evaluator.evaluate(proposal);
    let elapsed = started.elapsed();
    let span = match &outcome {
        EvalOutcome::Valid(_) if cache.hits() > hits_before => &mut layers.eval_hit,
        EvalOutcome::Valid(_) => &mut layers.eval_miss,
        _ => &mut layers.eval_invalid,
    };
    span.add(elapsed);
    outcome
}

/// Replays one `combined` or `random` shard through the public calls of
/// the shipped strategy loop and returns its result.
///
/// The replay reads the cache the sweep itself ran against: every pair
/// the shard evaluated is there with the value the shard saw, so the
/// replay reproduces the shard bit for bit even where concurrent shards
/// wrote that pair first (cache hits and recomputation can differ; see
/// `perfbench/README.md`). The cost of a cache miss is then timed by
/// evaluating the shard's valid proposals once more against an empty
/// cache.
pub fn replay_shard(
    campaign: &Campaign,
    shard: &ShardSpec,
    db: &Arc<NasbenchDatabase>,
    sweep_cache: &Arc<SharedEvalCache>,
    layers: &mut Layers,
) -> ShardResult {
    let started = Instant::now();
    let (mut evaluator, timed) = timed_evaluator(db, sweep_cache);
    let config = shard.search_config(&campaign.base_config);
    let scenario = shard.scenario.as_ref();
    let space: &CodesignSpace = &campaign.space;
    let mut rng = SmallRng::seed_from_u64(shard.rng_seed);
    let name = shard.strategy.name();
    let mut recorder = SearchRecorder::new(name, config.steps, scenario);
    let mut valid: Vec<Proposal> = Vec::new();
    let mut step = |layers: &mut Layers, proposal: Proposal| {
        let outcome = evaluate(layers, &mut evaluator, &timed, &proposal);
        let reward = layers.record.time(|| {
            recorder.record(
                scenario,
                &outcome,
                proposal.cell.as_ref().ok(),
                &proposal.config,
            )
        });
        if matches!(outcome, EvalOutcome::Valid(_)) {
            valid.push(proposal);
        }
        reward
    };
    match shard.strategy {
        StrategyKind::Combined => {
            let policy = LstmPolicy::new(PolicyConfig::new(space.vocab_sizes()), &mut rng);
            let mut trainer = ReinforceTrainer::new(
                policy,
                ReinforceConfig {
                    learning_rate: config.learning_rate,
                    baseline_decay: config.baseline_decay,
                    entropy_beta: config.entropy_beta,
                },
            );
            for _ in 0..config.steps {
                let rollout = layers.propose.time(|| trainer.propose(&mut rng));
                let proposal = layers.decode.time(|| space.decode(&rollout.actions));
                let reward = step(layers, proposal);
                layers.learn.time(|| trainer.learn(&rollout, reward));
            }
        }
        StrategyKind::Random => {
            let vocab = space.vocab_sizes();
            for _ in 0..config.steps {
                let actions: Vec<usize> = vocab.iter().map(|&v| rng.gen_range(0..v)).collect();
                let proposal = layers.decode.time(|| space.decode(&actions));
                step(layers, proposal);
            }
        }
        other => panic!("no replay for the '{}' strategy", other.name()),
    }
    let outcome = recorder.finish();
    let elapsed = started.elapsed();
    layers.shard.add(elapsed);
    layers.absorb_cache(&timed);

    let (mut cold, cold_cache) = timed_evaluator(db, &Arc::new(SharedEvalCache::new()));
    for proposal in &valid {
        evaluate(layers, &mut cold, &cold_cache, proposal);
    }
    layers.absorb_cache(&cold_cache);

    ShardResult::from_outcome(
        shard.clone(),
        outcome,
        u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        false,
    )
}

/// Runs `f` on the guide; a call that raised `train_rounds` was a fit.
fn guide_call(
    layers: &mut Layers,
    guide: &mut SurrogateGuide,
    f: impl FnOnce(&mut SurrogateGuide),
) {
    let rounds = guide.stats().train_rounds;
    let started = Instant::now();
    f(guide);
    let elapsed = started.elapsed();
    if guide.stats().train_rounds > rounds {
        layers.fit.add(elapsed);
        layers.fit_samples += guide.samples() as u64;
    }
}

/// Drives a `SurrogateGuide` through one guided shard's workload: a warm
/// start from the cache's labeled snapshot, one `observe` for each of the
/// shard's valid real evaluations (`steps − invalid_steps`), and the
/// shard's guided candidates spread evenly over its steps. A guided step
/// of `k`-fold over-production notes `k` candidates where an unguided step
/// notes one, so the shard ranked `(candidates − verified) · k / (k − 1)`
/// candidates; as in the shipped strategies, only the decodable ones reach
/// `predict_eval`. The guide takes its model seed from the shard's stream,
/// as the shipped strategy does; candidates and observed pairs are drawn
/// uniformly from the space (the strategies' genome operators are not
/// public). Returns the number of training rounds the replay ran.
pub fn replay_guide(
    campaign: &Campaign,
    shard: &ShardResult,
    db: &Arc<NasbenchDatabase>,
    cache: &Arc<SharedEvalCache>,
    layers: &mut Layers,
) -> usize {
    let started = Instant::now();
    let config = shard.spec.surrogate.expect("guided shard");
    let stats = shard.surrogate.expect("guided shard stats");
    let k = config.overproduce;
    let ranked = (stats.candidates - stats.verified) * k / (k - 1);
    let space = &campaign.space;
    let vocab = space.vocab_sizes();
    let (mut evaluator, timed) = timed_evaluator(db, cache);
    let mut rng = SmallRng::seed_from_u64(shard.spec.rng_seed);
    let mut guide = SurrogateGuide::from_stream(config, &mut rng);
    let snapshot = timed.snapshot_labeled();
    guide_call(layers, &mut guide, |g| g.warm_start(&snapshot));
    let observed = shard.steps - shard.invalid_steps;
    for step in 0..shard.steps {
        let candidates = (step + 1) * ranked / shard.steps - step * ranked / shard.steps;
        for _ in 0..candidates {
            let actions: Vec<usize> = vocab.iter().map(|&v| rng.gen_range(0..v)).collect();
            let proposal = space.decode(&actions);
            if let (true, Ok(cell)) = (guide.ready(), &proposal.cell) {
                let features = pair_features(cell, evaluator.net_config(), &proposal.config);
                let predicted = layers.predict.time(|| guide.predict_eval(&features));
                std::hint::black_box(predicted);
            }
        }
        if step >= observed {
            continue;
        }
        loop {
            let actions: Vec<usize> = vocab.iter().map(|&v| rng.gen_range(0..v)).collect();
            let proposal = layers.decode.time(|| space.decode(&actions));
            let outcome = evaluate(layers, &mut evaluator, &timed, &proposal);
            if let (Ok(cell), EvalOutcome::Valid(eval)) = (&proposal.cell, &outcome) {
                let features = pair_features(cell, evaluator.net_config(), &proposal.config);
                guide_call(layers, &mut guide, |g| g.observe(features, eval));
                break;
            }
        }
    }
    layers.absorb_cache(&timed);
    layers.shard.add(started.elapsed());
    guide.stats().train_rounds
}
