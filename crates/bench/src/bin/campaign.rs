//! The general campaign driver: any scenarios × strategies × seeds × steps
//! sweep, sharded across worker threads with a shared evaluation cache.
//!
//! Scenarios are open: beyond the paper's three presets, any declarative
//! `ScenarioSpec` runs — from a versioned JSON file (`--scenarios-file`) or
//! the compact CLI grammar (`--scenario 'lat<100; w=acc:0.9,area:0.1'`).
//! Scenario names flow into the JSONL/CSV exports and into the persisted
//! cache's provenance.
//!
//! With `--cache-path`, the evaluation cache persists across invocations:
//! the first run computes and saves, later runs warm-start from the file
//! and report how many lookups the previous runs already paid for. The
//! file is salted with the database fingerprint, so a cache built against
//! a different `--max-vertices` (or database build) is rejected, not
//! silently reused. The path picks the persistence layout: `.json` keeps
//! the legacy v2 JSON document, a `.d` suffix or existing directory means
//! a sharded `shard-NN.bin` directory, anything else is the v4 binary
//! format. `--cache-migrate OLD.json NEW` converts a legacy v2 JSON
//! cache to v4 (single file, or sharded when NEW ends in `.d`) and exits.
//!
//! Scenarios with auto-ranged normalizations (`"norm": "auto"` in a file,
//! `norm=acc:auto` in the compact grammar) are resolved from a
//! deterministic 256-sample enumeration probe before the sweep starts.
//! With `--calibrate`, a short probe sweep (`max(steps / 10, 20)` steps,
//! first seed only) runs first, its measured per-shard wall times become
//! the campaign's `CostModel`, and the full sweep is re-dispatched with
//! measured scheduling weights automatically.
//!
//! `--reward-shaping hv:W` turns on hypervolume-gradient reward shaping
//! for the RL controllers: each step's scalar reward gains `W × ΔHV`, the
//! proposal's marginal dominated-hypervolume contribution to the shard's
//! running Pareto front (incremental staircase kernel — no per-step full
//! recompute). Best-point tracking stays on the unshaped reward, the
//! shard JSONL records `reward_shaping` and the total `hv_bonus`, and
//! shaped sweeps remain bit-identical across worker counts.
//!
//! `--surrogate k:R` turns on predict-then-verify guidance for the
//! generational strategies (evolution/nsga): each generation over-produces
//! `k×` candidates, ranks them with a cheap cache-trained predictor
//! (retrained every `R` real evaluations), and spends real evaluations
//! only on the top slice. The predictor trains on warm cache entries plus
//! the shard's own evaluation stream, so guided sweeps stay bit-identical
//! across worker counts and a persisted `--cache-path` from *other*
//! scenarios warm-starts the predictor for free. The shard JSONL records
//! `surrogate`, `verify_rate`, and `pred_mae`; the RL and random
//! strategies ignore the flag (and export `surrogate: "off"`).
//!
//! The `nsga` strategy is the true multi-objective searcher: selection by
//! non-dominated sorting + crowding over the scenario's own axes instead
//! of a scalarized reward. `--population` sizes its generations and
//! `--generations` expresses the step budget as `population × generations`
//! (overriding `--steps`); every nsga shard exports its per-generation
//! front hypervolume in the JSONL.
//!
//! # One job description
//!
//! The job flags — scenarios, strategies, seeds, budget, `--population`,
//! `--generations`, `--reward-shaping` and `--surrogate` — are turned into
//! a `codesign_server::JobSpec` job object and validated by
//! `JobSpec::from_json`, the same validator `serve` applies to submit
//! frames. `JobSpec::to_campaign` then builds the campaign, auto norms
//! included. A one-shot run, a `submit`, and a raw submit frame carrying
//! the same job therefore run the same campaign and produce the same shard
//! records. Invalid input of any kind prints a message and exits 2.
//!
//! Run: `cargo run --release -p codesign-bench --bin campaign`
//! Args: `[--steps N] [--repeats R] [--max-vertices V] [--workers W]`
//!       `[--scenario PRESET-INDEX|PRESET-NAME|COMPACT-SPEC]`
//!       `[--scenarios-file FILE] [--list-scenarios] [--check-scenarios]`
//!       `[--strategies separate,combined,phase,random,evolution,nsga]`
//!       `(--strategy is a singular alias; reinforce = combined)`
//!       `[--population P] [--generations G] [--reward-shaping hv:W]`
//!       `[--surrogate k:R]`
//!       `[--seed-base S] [--no-cache] [--backend atomic|work-stealing]`
//!       `[--cache-path FILE|DIR.d|FILE.json] [--cache-capacity N]`
//!       `[--cache-mmap] [--cache-migrate OLD.json NEW] [--calibrate]`
//!       `[--trace-out FILE] [--metrics-out FILE] [--progress]`
//!
//! Telemetry is off by default (a disabled check is one relaxed atomic
//! load; the campaign's exports are bit-identical either way). Any of the
//! three flags turns it on: `--trace-out` writes a Chrome trace-event JSON
//! (open in Perfetto or `chrome://tracing`), `--metrics-out` writes every
//! span and metric as JSONL, and `--progress` streams a live
//! shards-done / ETA / cache-hit-rate line to stderr while the sweep runs.
//!
//! # Server mode
//!
//! `campaign serve` keeps the database and evaluation cache resident and
//! accepts newline-delimited JSON job frames (see `codesign-server`):
//!
//! ```text
//! campaign serve --stdio [--max-vertices V] [--workers W]
//!                [--queue-capacity N] [--cache-path P] [--cache-mmap]
//!                [--cache-sync-secs S] ...
//! campaign serve --listen /tmp/campaign.sock ...
//! campaign submit --connect /tmp/campaign.sock [job flags]
//! ```
//!
//! `submit` takes the one-shot job flags with the one-shot defaults
//! (`--repeats 3 --steps 1000`, strategies
//! `separate,combined,phase,random`). A raw submit frame keeps the
//! protocol defaults documented on `JobSpec::from_json`.
//!
//! Every job warm-starts from the previous jobs' evaluations. With
//! `--cache-path DIR.d`, saves go through merge-on-save (`flock` +
//! `merge_bytes` + atomic rename), so a fleet of processes sharing one
//! cache directory produces the union of their entries;
//! `--cache-sync-secs S` re-merges periodically while serving. SIGINT or
//! SIGTERM cancels at the next shard boundary, flushes the cache, and
//! prints the telemetry summary before exiting — in serve *and* one-shot
//! modes.

use std::sync::Arc;

use codesign_bench::{out_dir, Args};
use codesign_core::{CodesignSpace, ScenarioSpec};
use codesign_engine::{backend_from_name, CancelToken, ShardedDriver, SharedEvalCache};
use codesign_nasbench::{Json, NasbenchDatabase, MAX_VERTICES};
use codesign_server::job::AUTO_NORM_SAMPLES;
use codesign_server::JobSpec;

/// The one-shot sweep's strategies when no `--strategies` is given.
const DEFAULT_STRATEGIES: &str = "separate,combined,phase,random";

/// Prints `message` and exits with the usage-error status 2.
fn die(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Serve mode keeps stdout clean for the JSONL event stream; its humans
/// read stderr.
fn log(to_stderr: bool, line: &str) {
    if to_stderr {
        eprintln!("{line}");
    } else {
        println!("{line}");
    }
}

/// `--max-vertices` (default 4), checked before the database build: an
/// out-of-range bound exits 2 instead of building for minutes and
/// panicking.
fn max_vertices(args: &Args) -> usize {
    let max_v = args.get_usize("max-vertices", 4);
    if !(2..=MAX_VERTICES).contains(&max_v) {
        die(format!(
            "--max-vertices must be in 2..={MAX_VERTICES}, got {max_v}"
        ));
    }
    max_v
}

/// Builds the exhaustive `<= max_v`-vertex database inside a
/// `database.build` telemetry span and logs its size and build time.
fn build_database(max_v: usize, log_to_stderr: bool) -> Arc<NasbenchDatabase> {
    let prefix = if log_to_stderr { "serve: " } else { "" };
    log(
        log_to_stderr,
        &format!("{prefix}building exhaustive <= {max_v}-vertex database..."),
    );
    let start = std::time::Instant::now();
    let mut span = codesign_telemetry::span("database.build", "nasbench");
    let db = NasbenchDatabase::exhaustive(max_v);
    span.add_arg("cells", db.len());
    drop(span);
    log(
        log_to_stderr,
        &format!(
            "{prefix}database: {} cells in {:.2} s",
            db.len(),
            start.elapsed().as_secs_f64()
        ),
    );
    Arc::new(db)
}

/// Creates `path` and writes it through a buffer, flushed before success
/// is reported.
fn write_file(
    path: &str,
    write: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut writer = std::io::BufWriter::new(std::fs::File::create(path)?);
    write(&mut writer)?;
    std::io::Write::flush(&mut writer)
}

/// How the evaluation cache persists across invocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheFormat {
    /// One v4 binary file (the default).
    Binary,
    /// One legacy v2 JSON document.
    Json,
    /// A directory of `shard-NN.bin` v4 files.
    Sharded,
}

impl CacheFormat {
    /// The path decides: `.json` keeps the legacy document, a `.d` suffix
    /// or an existing directory means sharded, anything else is the v4
    /// binary file.
    fn from_path(path: &str) -> Self {
        if path.ends_with(".d") || std::path::Path::new(path).is_dir() {
            CacheFormat::Sharded
        } else if path.ends_with(".json") {
            CacheFormat::Json
        } else {
            CacheFormat::Binary
        }
    }
}

/// `--cache-migrate OLD.json NEW`: one-shot conversion of a legacy v2
/// JSON cache to the v4 binary format (sharded when NEW ends in `.d` or
/// is an existing directory). The original file's own salt is carried
/// through unchanged, so the migrated cache warm-starts exactly the runs
/// the original would have. Exits the process.
fn run_cache_migrate(src: &str, dst: &str) -> ! {
    let file = std::fs::File::open(src)
        .unwrap_or_else(|e| die(format!("cache-migrate: cannot open {src}: {e}")));
    let (cache, salt) = SharedEvalCache::load_json_with_salt(std::io::BufReader::new(file))
        .unwrap_or_else(|e| die(format!("cache-migrate: {src}: {e}")));
    let sharded = dst.ends_with(".d") || std::path::Path::new(dst).is_dir();
    let result = if sharded {
        cache.save_sharded(dst, salt).map(|_| ())
    } else {
        cache.save_to_path(dst, salt)
    };
    if let Err(e) = result {
        die(format!("cache-migrate: cannot write {dst}: {e}"));
    }
    println!(
        "cache-migrate: {src} -> {dst} ({} pair entries, salt {salt:016x}, {})",
        cache.len(),
        if sharded { "sharded v4" } else { "v4 binary" }
    );
    std::process::exit(0);
}

/// Opens (or cold-creates) the persisted evaluation cache for `salt`.
///
/// Warm-start: reuse a persisted cache when its salt matches this
/// database. A missing file just means a cold start, and so does a file
/// written by an older format version — the cache is a rebuildable
/// artifact, so a stale format is rebuilt in the current one rather than
/// aborting the sweep. Everything else (salt mismatch, corruption) is
/// returned as an error: those files may belong to a *different database*
/// and silently overwriting them would destroy work.
///
/// `use_mmap` routes the v4 binary formats through `mmap(2)` instead of a
/// buffered read — the kernel pages the records in on demand.
fn open_cache(
    cache_path: &str,
    cache_format: CacheFormat,
    salt: u64,
    cache_capacity: usize,
    use_mmap: bool,
    log_to_stderr: bool,
) -> Result<Option<Arc<SharedEvalCache>>, String> {
    if cache_path.is_empty() {
        return Ok(None);
    }
    let bounded = |cache: SharedEvalCache| {
        if cache_capacity > 0 {
            cache.bounded(cache_capacity)
        } else {
            cache
        }
    };
    if !std::path::Path::new(cache_path).exists() {
        log(
            log_to_stderr,
            &format!("cache: cold start ({cache_path} not found; will create it)"),
        );
        return Ok(Some(Arc::new(bounded(SharedEvalCache::new()))));
    }
    let load_result = match (cache_format, use_mmap) {
        (CacheFormat::Binary, false) => SharedEvalCache::load_from_path(cache_path, salt),
        (CacheFormat::Binary, true) => SharedEvalCache::load_from_path_mmap(cache_path, salt),
        (CacheFormat::Json, _) => std::fs::File::open(cache_path)
            .map_err(codesign_engine::CacheLoadError::from)
            .and_then(|f| SharedEvalCache::load_json(std::io::BufReader::new(f), salt)),
        (CacheFormat::Sharded, false) => SharedEvalCache::load_sharded(cache_path, salt),
        (CacheFormat::Sharded, true) => SharedEvalCache::load_sharded_mmap(cache_path, salt),
    };
    let loaded = match load_result {
        Ok(loaded) => Some(loaded),
        Err(codesign_engine::CacheLoadError::WrongVersion { found }) => {
            eprintln!(
                "cache: {cache_path} uses format version {found} (current {}); \
                 cold-starting and rewriting it in the current format \
                 (or convert it once with --cache-migrate)",
                codesign_engine::CACHE_VERSION
            );
            None
        }
        Err(e) => return Err(format!("cannot reuse cache {cache_path}: {e}")),
    };
    let loaded = bounded(loaded.unwrap_or_default());
    if loaded.stats().preloaded > 0 {
        log(
            log_to_stderr,
            &format!(
                "cache: warm start from {cache_path} ({} pair entries preloaded; built by: {})",
                loaded.stats().preloaded,
                match loaded.provenance().len() {
                    0 => "unknown scenarios".to_owned(),
                    _ => loaded.provenance().join(", "),
                }
            ),
        );
    }
    Ok(Some(Arc::new(loaded)))
}

/// Persists the cache in its configured format. Sharded directories go
/// through merge-on-save ([`SharedEvalCache::sync_sharded`]): the on-disk
/// entries are merged in under per-shard file locks before the union is
/// written back, so concurrent processes sharing one `cache.d` lose
/// nothing regardless of save order.
fn persist_cache(
    cache: &SharedEvalCache,
    cache_path: &str,
    cache_format: CacheFormat,
    salt: u64,
    log_to_stderr: bool,
) -> Result<(), String> {
    let result = match cache_format {
        CacheFormat::Binary => cache
            .save_to_path(cache_path, salt)
            .map_err(|e| e.to_string()),
        CacheFormat::Json => {
            write_file(cache_path, |w| cache.save_json(w, salt)).map_err(|e| e.to_string())
        }
        CacheFormat::Sharded => cache
            .sync_sharded(cache_path, salt)
            .map(|_| ())
            .map_err(|e| e.to_string()),
    };
    result.map_err(|e| format!("cannot persist cache to {cache_path}: {e}"))?;
    let line = format!(
        "cache persisted to {cache_path} ({} pair entries, {} format)",
        cache.len(),
        match cache_format {
            CacheFormat::Binary => "v4 binary",
            CacheFormat::Json => "v2 json",
            CacheFormat::Sharded => "sharded v4 (merge-on-save)",
        }
    );
    log(log_to_stderr, &line);
    Ok(())
}

/// Drains telemetry once and feeds every sink from the same snapshot, so
/// the trace, the event log, and the summary all describe the identical
/// run. No-op while telemetry is disabled.
fn telemetry_exports(trace_out: &str, metrics_out: &str) -> Result<(), String> {
    if !codesign_telemetry::enabled() {
        return Ok(());
    }
    let spans = codesign_telemetry::drain_spans();
    let metrics = codesign_telemetry::metrics_snapshot();
    if !trace_out.is_empty() {
        let threads = codesign_telemetry::thread_names();
        write_file(trace_out, |w| {
            codesign_telemetry::write_chrome_trace(w, &spans, &threads)
        })
        .map_err(|e| format!("cannot write trace {trace_out}: {e}"))?;
        println!(
            "chrome trace written to {trace_out} ({} spans; open in Perfetto or chrome://tracing)",
            spans.len()
        );
    }
    if !metrics_out.is_empty() {
        write_file(metrics_out, |w| {
            codesign_telemetry::write_events_jsonl(w, &spans, &metrics)
        })
        .map_err(|e| format!("cannot write telemetry events {metrics_out}: {e}"))?;
        println!("telemetry events written to {metrics_out}");
    }
    println!(
        "\ntelemetry summary:\n{}",
        codesign_telemetry::render_summary(&spans, &metrics)
    );
    Ok(())
}

/// `campaign serve`: boot the resident job service. `--stdio` serves one
/// session over stdin/stdout; `--listen PATH` serves a Unix-domain socket
/// until a signal or a `shutdown` frame. Either way the database and
/// cache are loaded once and shared by every job.
fn run_serve(args: &Args) -> ! {
    use codesign_server::{CampaignServer, ServerConfig};

    let trace_out = args.get_str("trace-out", "");
    let metrics_out = args.get_str("metrics-out", "");
    if !trace_out.is_empty() || !metrics_out.is_empty() {
        codesign_telemetry::set_enabled(true);
    }

    let max_v = max_vertices(args);
    let workers = args.get_usize("workers", 0);
    let queue_capacity = args.get_usize("queue-capacity", 16);
    let cache_path = args.get_str("cache-path", "");
    let cache_capacity = args.get_usize("cache-capacity", 0);
    let cache_format = CacheFormat::from_path(&cache_path);
    let use_mmap = args.flag("cache-mmap");
    let sync_secs = args.get_usize("cache-sync-secs", 0);

    codesign_server::install_shutdown_handler();
    let db = build_database(max_v, true);
    let salt = db.fingerprint();
    let cache = open_cache(
        &cache_path,
        cache_format,
        salt,
        cache_capacity,
        use_mmap,
        true,
    )
    .unwrap_or_else(|err| die(err))
    .unwrap_or_else(|| Arc::new(SharedEvalCache::new()));
    let server = CampaignServer::start(
        CodesignSpace::with_max_vertices(max_v),
        db,
        Arc::clone(&cache),
        ServerConfig {
            workers: if workers == 0 {
                ServerConfig::default().workers
            } else {
                workers
            },
            queue_capacity,
        },
    );
    let inner = server.inner();

    // Periodic re-merge: while serving, fold sibling processes' entries in
    // (and publish ours) every --cache-sync-secs.
    if sync_secs > 0 && !cache_path.is_empty() && cache_format == CacheFormat::Sharded {
        let cache = Arc::clone(&cache);
        let path = cache_path.clone();
        let inner = server.inner();
        std::thread::spawn(move || loop {
            for _ in 0..sync_secs * 10 {
                if inner.is_shutting_down() || codesign_server::shutdown_requested() {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            match cache.sync_sharded(&path, salt) {
                Ok(_) => eprintln!("serve: cache re-merged ({} pair entries)", cache.len()),
                Err(e) => eprintln!("serve: cache sync failed: {e}"),
            }
        });
    }

    // Signal path: cancel the running job at its shard boundary, fail the
    // queue, flush the cache (merge-on-save), print the telemetry summary,
    // exit. The session may be blocked reading stdin (glibc restarts the
    // read around the handler), so the watcher owns the exit.
    {
        let inner = Arc::clone(&inner);
        let cache = Arc::clone(&cache);
        let cache_path = cache_path.clone();
        let (trace_out, metrics_out) = (trace_out.clone(), metrics_out.clone());
        std::thread::spawn(move || {
            while !codesign_server::shutdown_requested() {
                if inner.is_shutting_down() {
                    return; // EOF/shutdown-frame path owns the flush
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            inner.abort();
            if !cache_path.is_empty() {
                if let Err(err) = persist_cache(&cache, &cache_path, cache_format, salt, true) {
                    eprintln!("{err}");
                }
            }
            if let Err(err) = telemetry_exports(&trace_out, &metrics_out) {
                eprintln!("{err}");
            }
            eprintln!("serve: shut down on signal");
            std::process::exit(130);
        });
    }

    let listen = args.get_str("listen", "");
    if args.flag("stdio") {
        server.serve_stdio();
    } else if listen.is_empty() {
        die("usage: campaign serve (--stdio | --listen SOCKET-PATH) [options]");
    } else {
        #[cfg(unix)]
        server
            .serve_unix(std::path::Path::new(&listen))
            .unwrap_or_else(|e| die(format!("serve: cannot listen on {listen}: {e}")));
        #[cfg(not(unix))]
        die("serve: --listen requires unix domain sockets; use --stdio");
    }
    server.join();
    if !cache_path.is_empty() {
        persist_cache(&cache, &cache_path, cache_format, salt, true).unwrap_or_else(|err| die(err));
    }
    telemetry_exports(&trace_out, &metrics_out).unwrap_or_else(|err| die(err));
    std::process::exit(0);
}

/// `campaign submit`: one-shot client for a `campaign serve --listen`
/// server. Builds the job from the one-shot flags ([`job_from_flags`]),
/// streams the server's event lines to stdout, and exits 0 on `job_done`
/// (1 on an `error` event, 2 on usage errors).
#[cfg(unix)]
fn run_submit(args: &Args) -> ! {
    use codesign_server::{Event, Request};
    use std::io::{BufRead, Write};

    let path = args.get_str("connect", "");
    if path.is_empty() {
        die("usage: campaign submit --connect SOCKET-PATH [job flags]");
    }
    let job = job_from_flags(args).unwrap_or_else(|err| die(format!("invalid job: {err}")));

    let stream = std::os::unix::net::UnixStream::connect(&path)
        .unwrap_or_else(|e| die(format!("submit: cannot connect to {path}: {e}")));
    let mut writer = stream.try_clone().expect("clone socket");
    writeln!(writer, "{}", Request::Submit(job).to_line()).expect("send job");
    // Half-close: the server sees EOF, drains this session's jobs, and
    // closes its end — so "read until the stream ends" is the protocol.
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close socket");

    let mut failed = false;
    for line in std::io::BufReader::new(stream).lines() {
        let Ok(line) = line else { break };
        println!("{line}");
        if let Ok(Event::Error { .. }) = Event::parse_line(&line) {
            failed = true;
        }
    }
    std::process::exit(i32::from(failed));
}

#[cfg(not(unix))]
fn run_submit(_args: &Args) -> ! {
    die("submit: requires unix domain sockets");
}

/// Turns the job flags into a [`JobSpec`]. Flag values go into a job
/// object as given, so [`JobSpec::from_json`] — the validator `serve`
/// applies to submit frames — is the only place they are checked. The
/// defaults are the one-shot sweep's: the paper presets, the four paper
/// strategies, 3 seeds and 1000 steps.
fn job_from_flags(args: &Args) -> Result<JobSpec, String> {
    // `--scenarios-file` and `--scenario` may both be given; the file's
    // scenarios come first.
    let mut scenarios = Vec::new();
    let file = args.get_str("scenarios-file", "");
    if !file.is_empty() {
        let specs = ScenarioSpec::load_file(&file).map_err(|e| format!("{file}: {e}"))?;
        scenarios.extend(specs.iter().map(ScenarioSpec::to_json));
    }
    let inline = args.get_str("scenario", "");
    if !inline.is_empty() {
        scenarios.push(Json::Str(inline));
    }
    // `--strategy` is accepted as a singular alias for `--strategies`.
    let strategies = match args.get_str("strategies", "") {
        list if list.is_empty() => args.get_str("strategy", DEFAULT_STRATEGIES),
        list => list,
    };
    let mut fields = vec![("strategies", Json::Str(strategies))];
    if !scenarios.is_empty() {
        fields.push(("scenarios", Json::Arr(scenarios)));
    }
    for (flag, key, default) in [
        ("seed-base", "seed_base", "0"),
        ("repeats", "repeats", "3"),
        ("steps", "steps", "1000"),
        ("population", "population", ""),
        ("generations", "generations", ""),
    ] {
        let raw = args.get_str(flag, default);
        if !raw.is_empty() {
            // A value that is not a number stays a string, which the
            // validator rejects with the key's own message.
            fields.push((key, raw.parse::<f64>().map_or(Json::Str(raw), Json::Num)));
        }
    }
    for (flag, key) in [
        ("reward-shaping", "reward_shaping"),
        ("surrogate", "surrogate"),
    ] {
        let raw = args.get_str(flag, "");
        if !raw.is_empty() {
            fields.push((key, Json::Str(raw)));
        }
    }
    JobSpec::from_json(&Json::obj(fields))
}

fn describe(spec: &ScenarioSpec) {
    let objectives: Vec<String> = spec
        .objectives()
        .iter()
        .map(|o| {
            let mut s = format!("{}:{}", o.metric(), o.weight());
            if let Some(t) = o.threshold() {
                let op = if o.metric().maximize() { '>' } else { '<' };
                s.push_str(&format!(" ({}{op}{t})", o.metric()));
            }
            s
        })
        .collect();
    println!("  {:<24} {}", spec.name(), objectives.join(", "));
}

fn main() {
    let args = Args::parse();

    // Subcommands and --cache-migrate's two positional operands are not
    // expressible in the `--key value` Args grammar; pre-parse the raw
    // argv. `Args` skips bare words, so the flags still parse normally.
    let raw: Vec<String> = std::env::args().collect();
    match raw.get(1).map(String::as_str) {
        Some("serve") => run_serve(&args),
        Some("submit") => run_submit(&args),
        _ => {}
    }
    if let Some(i) = raw.iter().position(|a| a == "--cache-migrate") {
        match (raw.get(i + 1), raw.get(i + 2)) {
            (Some(src), Some(dst)) if !src.starts_with("--") && !dst.starts_with("--") => {
                run_cache_migrate(src, dst)
            }
            _ => die("usage: campaign --cache-migrate OLD.json NEW[.d]"),
        }
    }

    if args.flag("list-scenarios") {
        println!("built-in presets (usable via --scenario INDEX or --scenario NAME):");
        for spec in ScenarioSpec::paper_presets() {
            describe(&spec);
        }
        println!("\ncustom scenarios: --scenario 'lat<100; w=acc:0.9,area:0.1'");
        println!("                  --scenarios-file FILE (see examples/scenarios/)");
        return;
    }

    let job = job_from_flags(&args).unwrap_or_else(|err| die(format!("invalid job: {err}")));
    if args.flag("check-scenarios") {
        println!("{} scenario(s) valid:", job.scenarios.len());
        for spec in &job.scenarios {
            describe(spec);
        }
        return;
    }

    // Telemetry: any of the three flags enables the subsystem for the whole
    // process (including the --calibrate probe sweep). Off, every
    // instrumentation site is a single relaxed atomic load.
    let trace_out = args.get_str("trace-out", "");
    let metrics_out = args.get_str("metrics-out", "");
    let progress = args.flag("progress");
    if !trace_out.is_empty() || !metrics_out.is_empty() || progress {
        codesign_telemetry::set_enabled(true);
    }

    let max_v = max_vertices(&args);
    let workers = args.get_usize("workers", 0);
    let backend_name = args.get_str("backend", "atomic");
    let backend = backend_from_name(&backend_name).unwrap_or_else(|| {
        die(format!(
            "unknown --backend '{backend_name}' (atomic|work-stealing)"
        ))
    });
    let cache_path = args.get_str("cache-path", "");
    let cache_capacity = args.get_usize("cache-capacity", 0);
    let cache_format = CacheFormat::from_path(&cache_path);
    if args.flag("no-cache") && !cache_path.is_empty() {
        die("--no-cache and --cache-path are contradictory");
    }

    println!(
        "campaign: {} shards ({} scenarios x {} strategies x {} seeds x {} steps)",
        job.shard_count(),
        job.scenarios.len(),
        job.strategies.len(),
        job.seeds.len(),
        job.steps,
    );
    if job.reward_shaping.is_active() {
        println!(
            "reward shaping: {} (marginal-hypervolume bonus on the controller reward)",
            job.reward_shaping
        );
    }
    if let Some(cfg) = job.surrogate {
        println!("surrogate: {cfg} (predict-then-verify on the evolution/nsga strategies)");
    }
    for spec in &job.scenarios {
        describe(spec);
    }

    let db = build_database(max_v, false);
    println!();

    // The cache's salt is the database fingerprint, so a stale or corrupt
    // cache is caught right after the build, before any probing.
    let salt = db.fingerprint();
    let cache = open_cache(
        &cache_path,
        cache_format,
        salt,
        cache_capacity,
        args.flag("cache-mmap"),
        false,
    )
    .unwrap_or_else(|err| die(err));

    let auto_norms = job.scenarios.iter().any(ScenarioSpec::has_auto_norms);
    if auto_norms {
        println!("auto norms: probing {AUTO_NORM_SAMPLES} enumeration samples...");
    }
    let mut campaign = job
        .to_campaign(CodesignSpace::with_max_vertices(max_v), &db)
        .unwrap_or_else(|err| die(err));
    if auto_norms {
        for (declared, resolved) in job.scenarios.iter().zip(&campaign.scenarios) {
            for (objective, ranged) in declared.objectives().iter().zip(resolved.objectives()) {
                if objective.norm_is_auto() {
                    let (lo, hi) = ranged.norm();
                    println!(
                        "  {}: {} ranged to [{lo:.4}, {hi:.4}]",
                        resolved.name(),
                        ranged.metric()
                    );
                }
            }
        }
        println!();
    }

    let mut driver = ShardedDriver::new(workers).with_backend(backend);
    if args.flag("no-cache") {
        driver = driver.without_shared_cache();
    }
    if let Some(cache) = &cache {
        driver = driver.with_cache(Arc::clone(cache));
    }

    // SIGINT/SIGTERM: cancel at the next shard boundary instead of dying
    // mid-sweep. Completed shards are reported, the cache is persisted,
    // and the telemetry summary still prints — an interrupted sweep's
    // evaluations warm-start the next one.
    let cancel = CancelToken::new();
    if codesign_server::install_shutdown_handler() {
        let cancel = cancel.clone();
        std::thread::spawn(move || {
            while !codesign_server::shutdown_requested() {
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            eprintln!("\ninterrupted: cancelling at the next shard boundary...");
            cancel.cancel();
        });
    }
    driver = driver.with_cancel_token(cancel);

    // --progress: a ticker thread polls the metrics registry (shards done,
    // cache hit rate) and repaints one stderr line until the sweep — probe
    // and full — finishes. Reads only counters; never touches results.
    let progress_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let progress_ticker = progress.then(|| {
        let stop = Arc::clone(&progress_stop);
        std::thread::spawn(move || {
            use std::sync::atomic::Ordering;
            let started = std::time::Instant::now();
            let paint = |final_paint: bool| {
                let snap = codesign_telemetry::metrics_snapshot();
                let total = snap.counter("engine.shards_total").unwrap_or(0);
                // The final repaint reads the counters *after* the sweep
                // returned, so done == total and the line closes at 100%.
                let done = snap.counter("engine.shards_done").unwrap_or(0);
                let percent = if total > 0 {
                    100.0 * done as f64 / total as f64
                } else {
                    0.0
                };
                let hits = snap.counter("cache.pair_hits").unwrap_or(0)
                    + snap.counter("cache.warm_hits").unwrap_or(0);
                let misses = snap.counter("cache.pair_misses").unwrap_or(0);
                let hit_rate = if hits + misses > 0 {
                    100.0 * hits as f64 / (hits + misses) as f64
                } else {
                    0.0
                };
                let elapsed = started.elapsed().as_secs_f64();
                let eta = if final_paint {
                    "0s".to_owned()
                } else if done > 0 && total > done {
                    format!("{:.0}s", elapsed / done as f64 * (total - done) as f64)
                } else {
                    "-".to_owned()
                };
                eprint!(
                    "\rshards {done}/{total} ({percent:.0}%)  cache hit-rate {hit_rate:.1}%  \
                     elapsed {elapsed:.0}s  eta {eta}   "
                );
                let _ = std::io::Write::flush(&mut std::io::stderr());
            };
            while !stop.load(Ordering::Relaxed) {
                paint(false);
                std::thread::sleep(std::time::Duration::from_millis(250));
            }
            paint(true);
            eprintln!();
        })
    });

    // --calibrate: run a short probe sweep, derive a measured CostModel
    // from its per-shard wall times, and re-dispatch the full sweep with
    // measured scheduling weights (ShardSpec::estimated_cost). Cost
    // weights only move dispatch order, never results — and the probe's
    // evaluations land in the shared cache, so its work is not wasted.
    if args.flag("calibrate") {
        let probe_steps = (job.steps / 10).max(20);
        let probe_campaign = campaign
            .clone()
            .seeds(vec![job.seeds[0]])
            .steps(probe_steps);
        println!(
            "calibrate: probe sweep ({} shards x {probe_steps} steps)...",
            probe_campaign.shards().len()
        );
        let probe_report = driver.run(&probe_campaign, &db);
        let model = campaign.calibrated_costs(&probe_report);
        if model.is_empty() {
            println!("calibrate: shards too fast to measure; keeping static cost premiums\n");
        } else {
            for spec in &campaign.scenarios {
                println!(
                    "  {:<24} measured cost weight {:.3}/step",
                    spec.name(),
                    model.weight_for(spec)
                );
            }
            campaign = campaign.with_cost_model(model);
            println!("calibrate: re-dispatching the full sweep with measured costs\n");
        }
    }

    let report = driver.run(&campaign, &db);
    progress_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    if let Some(ticker) = progress_ticker {
        let _ = ticker.join();
    }
    println!("{report}");
    if let Some(stats) = &report.cache {
        println!(
            "cache warm hits: {} (evaluations paid for by previous invocations)",
            stats.total_warm_hits()
        );
    }

    for spec in &campaign.scenarios {
        let front = report.merged_front(spec.name());
        println!(
            "{:<24} merged front: {} points over axes [{}]",
            spec.name(),
            front.len(),
            front.schema()
        );
    }

    // Output failures are reported after every other output is written.
    let mut failed = false;
    if let Some(cache) = &cache {
        // Stamp the sweep's scenario names into the persisted provenance.
        cache.note_scenarios(report.scenario_names());
        if let Err(err) = persist_cache(cache, &cache_path, cache_format, salt, false) {
            eprintln!("{err}");
            failed = true;
        }
    }

    let jsonl = out_dir().join("campaign.jsonl");
    let csv = out_dir().join("campaign.csv");
    report
        .write_jsonl(std::fs::File::create(&jsonl).expect("create jsonl"))
        .expect("write jsonl");
    report.write_csv(&csv).expect("write csv");
    println!(
        "\nreports written to {} and {}",
        jsonl.display(),
        csv.display()
    );

    if let Err(err) = telemetry_exports(&trace_out, &metrics_out) {
        eprintln!("{err}");
        failed = true;
    }
    if failed {
        std::process::exit(2);
    }
}
