//! `codesign-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload rl-sweep|paper-scale|guided-warm --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload end to end, repeating it until `--seconds` have been
//! measured, checks its outputs, and prints one JSON object as the last
//! line of standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a separate traced pass with `--trace 1`. See
//! `perfbench/README.md`.

mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use codesign_engine::{CampaignReport, StrategyKind};

use trace::Layers;
use workload::{Kind, Rep, Workload, WORKERS};

const USAGE: &str = "usage: perfbench --workload rl-sweep|paper-scale|guided-warm \
                     --seed N --seconds S --trace 0|1";

/// Set-up passes a run collects at least, when one pass is cheap.
const SETUP_SAMPLES: usize = 9;

/// Standing program defects the determinism checks run into. Their checks
/// are reported on every run (XFAIL, or XPASS when the defect did not
/// show) but do not make the run incorrect.
const ISOMORPH_DEFECT: &str = "known defect: the shared cache keys a pair by canonical cell \
                               hash, but isomorphic cells can evaluate to different latencies, \
                               so a hit may return another isomorph's metrics and a shard's \
                               outcome depends on which shard evaluated the pair first";
const GUIDED_DEFECT: &str = "known defect: SharedEvalCache::snapshot_labeled joins warm pair \
                             entries with cell-feature rows that concurrent shards write, so \
                             a guided shard's training set depends on scheduling";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_: std::num::ParseIntError| format!("invalid value '{value}' for {flag}");
        let bad_f = |_: std::num::ParseFloatError| format!("invalid value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(bad_f)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Named output checks. A hard failure makes the run incorrect; a check
/// against a known, standing defect is reported (XFAIL / XPASS) but does
/// not.
#[derive(Default)]
struct Checks {
    failed: Vec<String>,
}

impl Checks {
    fn check(&mut self, name: &str, pass: bool, detail: &str) {
        println!(
            "check {name}: {} ({detail})",
            if pass { "ok" } else { "FAIL" }
        );
        if !pass {
            self.failed.push(name.to_owned());
        }
    }

    fn check_known_defect(&mut self, name: &str, pass: bool, detail: &str, defect: &str) {
        let verdict = if pass {
            "XPASS (the known defect did not show on this run)"
        } else {
            "XFAIL"
        };
        println!("check {name}: {verdict} ({detail}; {defect})");
    }
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Work counted into the result's `attempted` / `failed`: shards scheduled
/// by every sweep of the run, and shards that panicked, went missing, or
/// ran a step count other than their budget.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    /// Tallies one sweep; `None` is a sweep that panicked.
    fn sweep(&mut self, campaign: &codesign_engine::Campaign, report: Option<&CampaignReport>) {
        let scheduled = campaign.shards().len();
        self.attempted += scheduled;
        self.failed += report.map_or(scheduled, |r| workload::failed_shards(campaign, r));
    }
}

struct Bench {
    workload: Workload,
    out: PathBuf,
    prime: Option<PathBuf>,
    prime_entries: usize,
    checks: Checks,
    tally: Tally,
}

impl Bench {
    /// One end-to-end rep, tallied and checked.
    fn rep(
        &mut self,
        tag: &str,
        observer: Option<codesign_engine::ShardObserver>,
    ) -> Result<Option<Rep>, String> {
        let rep = workload::run_rep(
            &self.workload,
            &self.out,
            tag,
            self.prime.as_deref(),
            observer,
        )?;
        self.tally.sweep(
            &self.workload.campaign,
            rep.as_ref().ok().map(|r| &r.report),
        );
        let Ok(rep) = rep else {
            self.checks
                .check(&format!("{tag}.no_panic"), false, "a shard panicked");
            return Ok(None);
        };
        self.check_rep(tag, &rep);
        Ok(Some(rep))
    }

    fn check_rep(&mut self, tag: &str, rep: &Rep) {
        let w = &self.workload;
        let cells = rep.db.len();
        self.checks.check(
            &format!("{tag}.nasbench_cells"),
            cells == w.expected_cells,
            &format!(
                "{cells} cells at <= {} vertices, expected {}",
                w.max_vertices, w.expected_cells
            ),
        );
        let steps: usize = rep.report.shards.iter().map(|s| s.steps).sum();
        self.checks.check(
            &format!("{tag}.steps_budget"),
            steps == w.budget() && !rep.report.cancelled,
            &format!("{steps} steps run, {} scheduled", w.budget()),
        );
        self.checks.check(
            &format!("{tag}.scores_finite"),
            rep.hv_mean.is_finite() && rep.hv_mean > 0.0 && rep.best_reward_mean.is_finite(),
            &format!(
                "hv_mean {}, best_reward_mean {}",
                rep.hv_mean, rep.best_reward_mean
            ),
        );
        if w.kind == Kind::GuidedWarm {
            let stats = rep.report.cache.unwrap_or_default();
            self.checks.check(
                &format!("{tag}.prime_loaded"),
                rep.loaded_entries == self.prime_entries
                    && stats.preloaded as usize == self.prime_entries,
                &format!(
                    "{} entries loaded, {} in the prime",
                    rep.loaded_entries, self.prime_entries
                ),
            );
            self.checks.check(
                &format!("{tag}.warm_hits"),
                stats.total_warm_hits() > 0,
                &format!("{} warm hits", stats.total_warm_hits()),
            );
            self.checks.check(
                &format!("{tag}.saved_cache_reloads"),
                rep.saved_entries_reloaded == Some(stats.entries),
                &format!(
                    "{:?} entries re-read, {} saved",
                    rep.saved_entries_reloaded, stats.entries
                ),
            );
        }
    }

    /// Compares a run's per-shard digests with the first rep's. Runs of
    /// one campaign can differ through the standing cache defects, so the
    /// comparison is a known-defect check.
    fn check_digest(&mut self, name: &str, reference: &[u64], other: &[u64]) {
        let differ = workload::digest_mismatches(reference, other);
        let detail = format!("{differ} of {} shards differ", reference.len());
        let defect = if self.workload.kind == Kind::GuidedWarm {
            format!("{ISOMORPH_DEFECT}; {GUIDED_DEFECT}")
        } else {
            ISOMORPH_DEFECT.to_owned()
        };
        self.checks
            .check_known_defect(name, differ == 0, &detail, &defect);
    }

    /// Compares the digest with the one an earlier invocation of the same
    /// workload and seed left in this checkout, or records it.
    fn check_digest_across_invocations(&mut self, seed: u64, digest: &[u64]) -> Result<(), String> {
        let dir = self.out.parent().expect("out has a parent").join("digests");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-seed{seed}.txt", self.workload.name));
        let text: String = digest.iter().map(|d| format!("{d:016x}\n")).collect();
        match std::fs::read_to_string(&path) {
            Ok(previous) => {
                let previous: Vec<u64> = previous
                    .lines()
                    .filter_map(|l| u64::from_str_radix(l, 16).ok())
                    .collect();
                self.check_digest("digest_equals_earlier_invocation", &previous, digest);
            }
            Err(_) => {
                std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
                println!("digest recorded for later invocations: {}", path.display());
            }
        }
        Ok(())
    }
}

fn run(args: &Args) -> Result<(bool, Tally, Metrics), String> {
    let workload = Workload::new(&args.workload, args.seed)
        .ok_or_else(|| format!("unknown workload '{}'\n{USAGE}", args.workload))?;
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let out = root.join(workload.name);
    // Every invocation starts clean: no cache or export of an earlier run
    // can leak into this one.
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut bench = Bench {
        workload,
        out,
        prime: None,
        prime_entries: 0,
        checks: Checks::default(),
        tally: Tally::default(),
    };
    bench.checks.check(
        "telemetry_off",
        !codesign_telemetry::enabled(),
        "the program's own spans and metrics stay disabled",
    );
    println!(
        "workload {} seed {}: {} shards, {} steps, {WORKERS} workers",
        bench.workload.name,
        args.seed,
        bench.workload.campaign.shards().len(),
        bench.workload.budget()
    );

    if bench.workload.prime.is_some() {
        let path = bench.out.join("prime.bin");
        bench.prime_entries = workload::write_prime(&bench.workload, &path)?;
        println!(
            "prime: {} entries written to {}",
            bench.prime_entries,
            path.display()
        );
        bench.prime = Some(path);
    }

    // Untraced reps, until --seconds have been measured.
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        match bench.rep(&format!("rep{}", reps.len()), None)? {
            Some(rep) => reps.push(rep),
            None => break,
        }
    }
    if reps.is_empty() {
        return Err("no rep completed".into());
    }
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup().as_secs_f64()).collect();
    let mut hv_runs: Vec<(String, f64)> = reps
        .iter()
        .enumerate()
        .map(|(i, r)| (format!("rep{i}"), r.hv_mean))
        .collect();
    let first = workload::digest(&reps[0].report);
    for (i, rep) in reps.iter().enumerate().skip(1) {
        bench.check_digest(
            &format!("digest_rep{i}_equals_rep0"),
            &first,
            &workload::digest(&rep.report),
        );
    }

    // Once per invocation: the same campaign on one worker, on the last
    // rep's database and (guided-warm) a fresh load of the prime.
    let db = Arc::clone(&reps.last().expect("at least one rep").db);
    let cache = match bench.prime.as_deref() {
        Some(path) => Some(workload::load_cache(path, &db)?),
        None => None,
    };
    let single = workload::sweep(&bench.workload.campaign, &db, 1, cache, None).ok();
    bench
        .tally
        .sweep(&bench.workload.campaign, single.as_ref().map(|(r, _)| r));
    match &single {
        Some((report, _)) => {
            hv_runs.push(("1-worker".into(), workload::merged_hypervolume(report).0));
            bench.check_digest(
                "digest_1_worker_equals_rep0",
                &first,
                &workload::digest(report),
            );
        }
        None => bench
            .checks
            .check("1_worker.no_panic", false, "a shard panicked"),
    }
    while setups.len() < SETUP_SAMPLES && median(&setups) < 1.0 {
        let setup = workload::setup(&bench.workload, bench.prime.as_deref())?;
        setups.push((setup.build + setup.load).as_secs_f64());
    }

    let mut metrics = Metrics::default();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall.as_secs_f64()).collect();
    if args.trace {
        let (traced_metrics, traced_hv) = traced(&mut bench, &first, median(&walls))?;
        hv_runs.push(("traced".into(), traced_hv));
        metrics = traced_metrics;
    } else {
        let evals: Vec<f64> = reps.iter().map(Rep::evals_per_s).collect();
        let hv: Vec<f64> = reps.iter().map(|r| r.hv_mean).collect();
        let best: Vec<f64> = reps.iter().map(|r| r.best_reward_mean).collect();
        metrics.push("wall_s", median(&walls), "s");
        metrics.push("setup_s", median(&setups), "s");
        metrics.push("evals_per_s", median(&evals), "1/s");
        let peak_rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        metrics.push("peak_rss_mb", peak_rss, "MB");
        metrics.push("hv_mean", median(&hv), "hv");
        metrics.push("best_reward_mean", median(&best), "reward");
        let listed: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
        println!(
            "{} reps in {:.1} s; set-up samples (s): {}",
            reps.len(),
            started.elapsed().as_secs_f64(),
            listed.join(", ")
        );
    }
    bench.check_digest_across_invocations(args.seed, &first)?;

    let hv: Vec<f64> = hv_runs.iter().map(|(_, v)| *v).collect();
    let (lo, hi) = hv
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let listed: Vec<String> = hv_runs
        .iter()
        .map(|(tag, v)| format!("{tag} {v}"))
        .collect();
    println!(
        "hv_mean per run: {}; spread {:.6}% of the median",
        listed.join(", "),
        (hi - lo) / median(&hv) * 100.0
    );

    for (name, value, unit) in &metrics.0 {
        if !value.is_finite() {
            bench
                .checks
                .check(&format!("metric.{name}"), false, "not a finite number");
        }
        println!("metric {name} = {value} {unit}");
    }
    if !bench.checks.failed.is_empty() {
        println!("failed checks: {}", bench.checks.failed.join(", "));
    }
    Ok((bench.checks.failed.is_empty(), bench.tally, metrics))
}

/// The traced pass: one observed rep plus the replays and side sweeps
/// that time each layer. Returns the per-layer metrics and the traced
/// rep's `hv_mean`.
fn traced(bench: &mut Bench, first: &[u64], untraced_wall: f64) -> Result<(Metrics, f64), String> {
    let (observer, shard_walls) = trace::shard_wall_observer();
    let Some(rep) = bench.rep("traced", Some(observer))? else {
        return Err("the traced rep panicked".into());
    };
    bench.check_digest(
        "digest_traced_equals_rep0",
        first,
        &workload::digest(&rep.report),
    );
    let campaign = bench.workload.campaign.clone();
    let mut layers = Layers::default();
    let mut overhead_ratio = 0.0;

    match bench.workload.kind {
        Kind::RlSweep | Kind::PaperScale => {
            let replayed_kind = if bench.workload.kind == Kind::RlSweep {
                StrategyKind::Combined
            } else {
                StrategyKind::Random
            };
            let (mut replayed, mut differ) = (0, 0);
            for shard in rep
                .report
                .shards
                .iter()
                .filter(|s| s.spec.strategy == replayed_kind)
            {
                let replay =
                    trace::replay_shard(&campaign, &shard.spec, &rep.db, &rep.cache, &mut layers);
                replayed += 1;
                if workload::shard_digest(&replay) != workload::shard_digest(shard) {
                    differ += 1;
                }
            }
            bench.checks.check(
                "replay_equivalence",
                replayed > 0 && differ == 0,
                &format!(
                    "{replayed} {} shards replayed, {differ} differ from the sweep",
                    replayed_kind.name()
                ),
            );
        }
        Kind::GuidedWarm => {
            let prime = bench.prime.clone().expect("guided-warm has a prime");
            let cache = workload::load_cache(&prime, &rep.db)?;
            let (mut fits_real, mut fits_replay) = (0, 0);
            for shard in &rep.report.shards {
                fits_replay += trace::replay_guide(&campaign, shard, &rep.db, &cache, &mut layers);
                fits_real += shard.surrogate.map_or(0, |s| s.train_rounds);
            }
            bench.checks.check(
                "replay_guide_fits",
                fits_replay == fits_real && fits_real > 0,
                &format!("{fits_replay} training rounds replayed, {fits_real} in the sweep"),
            );
            let unguided_campaign = campaign.clone().with_surrogate(None);
            let cache = workload::load_cache(&prime, &rep.db)?;
            let unguided =
                workload::sweep(&unguided_campaign, &rep.db, WORKERS, Some(cache), None).ok();
            bench
                .tally
                .sweep(&unguided_campaign, unguided.as_ref().map(|(r, _)| r));
            match unguided {
                Some((_, wall)) => overhead_ratio = rep.sweep.as_secs_f64() / wall.as_secs_f64(),
                None => bench
                    .checks
                    .check("unguided.no_panic", false, "a shard panicked"),
            }
        }
    }

    let report = &rep.report;
    let stats = report.cache.unwrap_or_default();
    let mut walls = shard_walls.lock().expect("observer sink poisoned").clone();
    walls.sort_unstable();
    let steps: usize = report.shards.iter().map(|s| s.steps).sum();
    let invalid: usize = report.shards.iter().map(|s| s.invalid_steps).sum();
    let (candidates, verified) = report
        .shards
        .iter()
        .filter_map(|s| s.surrogate)
        .fold((0, 0), |(c, v), s| (c + s.candidates, v + s.verified));
    let lookups = stats.hits + stats.misses;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let build_s = rep.build.as_secs_f64();
    let rl_s = (layers.propose.total + layers.learn.total).as_secs_f64();
    let guide_s = (layers.fit.total + layers.predict.total).as_secs_f64();
    let shard_wall_s = walls.iter().sum::<u64>() as f64 / 1e6;

    let mut m = Metrics::default();
    m.push("nasbench.build_s", build_s, "s");
    m.push("nasbench.cells", rep.db.len() as f64, "count");
    m.push(
        "nasbench.cells_per_s",
        ratio(rep.db.len() as f64, build_s),
        "1/s",
    );
    m.push("rl.propose_us", layers.propose.mean_us(), "us");
    m.push("rl.learn_us", layers.learn.mean_us(), "us");
    m.push(
        "rl.share",
        ratio(rl_s, layers.shard.total.as_secs_f64()),
        "fraction",
    );
    m.push("core.decode_us", layers.decode.mean_us(), "us");
    m.push("core.eval_hit_us", layers.eval_hit.mean_us(), "us");
    m.push("core.eval_miss_us", layers.eval_miss.mean_us(), "us");
    m.push(
        "core.invalid_frac",
        ratio(invalid as f64, steps as f64),
        "fraction",
    );
    m.push("moo.record_us", layers.record.mean_us(), "us");
    m.push("moo.merge_ms", rep.merge.as_secs_f64() * 1e3, "ms");
    m.push("moo.front_points", rep.front_points as f64, "count");
    m.push("surrogate.fits", layers.fit.calls as f64, "count");
    m.push("surrogate.fit_ms", layers.fit.mean_us() / 1e3, "ms");
    m.push(
        "surrogate.fit_samples_mean",
        ratio(layers.fit_samples as f64, layers.fit.calls as f64),
        "count",
    );
    m.push("surrogate.pred_us", layers.predict.mean_us(), "us");
    m.push(
        "surrogate.verify_rate",
        ratio(verified as f64, candidates as f64),
        "fraction",
    );
    m.push("surrogate.overhead_ratio", overhead_ratio, "ratio");
    m.push("cache.get_calls", lookups as f64, "count");
    m.push("cache.get_us", layers.cache_get.mean_us(), "us");
    m.push("cache.put_calls", stats.inserts as f64, "count");
    m.push("cache.put_us", layers.cache_put.mean_us(), "us");
    m.push("cache.hit_rate", stats.hit_rate(), "fraction");
    m.push(
        "cache.warm_hit_rate",
        ratio(stats.warm_hits as f64, lookups as f64),
        "fraction",
    );
    m.push("persist.load_ms", rep.load.as_secs_f64() * 1e3, "ms");
    m.push("persist.save_ms", rep.save.as_secs_f64() * 1e3, "ms");
    m.push("persist.bytes", rep.saved_bytes as f64, "bytes");
    m.push(
        "engine.shard_p50_ms",
        walls
            .get(walls.len() / 2)
            .map_or(0.0, |&us| us as f64 / 1e3),
        "ms",
    );
    m.push(
        "engine.shard_max_ms",
        walls.last().map_or(0.0, |&us| us as f64 / 1e3),
        "ms",
    );
    m.push(
        "engine.worker_util",
        ratio(shard_wall_s, WORKERS as f64 * rep.sweep.as_secs_f64()),
        "fraction",
    );
    m.push(
        "trace.overhead_pct",
        (rep.wall.as_secs_f64() / untraced_wall - 1.0) * 100.0,
        "%",
    );

    let wall_s = rep.wall.as_secs_f64();
    let confirm = match bench.workload.kind {
        Kind::RlSweep => format!(
            "rl.share {:.3} of replayed shard time (expected >= 0.9)",
            ratio(rl_s, layers.shard.total.as_secs_f64())
        ),
        Kind::PaperScale => format!(
            "nasbench.build_s {build_s:.2} s is {:.3} of the rep's {wall_s:.2} s (expected >= 0.8)",
            build_s / wall_s
        ),
        Kind::GuidedWarm => format!(
            "surrogate fit + predict {guide_s:.2} s (replayed) is {:.3} of the sweep's {shard_wall_s:.2} s \
             of shard time (expected >= 0.8)",
            ratio(guide_s, shard_wall_s)
        ),
    };
    println!("dominant layer: {confirm}");
    Ok((m, rep.hv_mean))
}

fn result_json(correct: bool, tally: &Tally, metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    match run(&args) {
        Ok((correct, tally, metrics)) => {
            eprintln!(
                "perfbench: finished in {:.1} s",
                started.elapsed().as_secs_f64()
            );
            println!("{}", result_json(correct, &tally, &metrics));
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}
