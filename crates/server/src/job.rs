//! Job specifications: the one description of a campaign. A `submit`
//! frame carries one, and the `campaign` CLI turns its flags into one
//! before a one-shot run or a `submit`, so one job gives one result
//! however it is launched.

use codesign_core::{
    probe_pair_evaluations, CodesignSpace, RewardShaping, ScenarioSpec, SurrogateConfig,
};
use codesign_engine::{Campaign, StrategyKind};
use codesign_nasbench::{Dataset, Json, NasbenchDatabase};

/// Upper bound on one job's step budget per shard.
pub const MAX_STEPS: usize = 1_000_000;

/// Upper bound on one job's grid size (scenarios × strategies × seeds).
pub const MAX_SHARDS: usize = 100_000;

/// Padding applied to probe-measured normalization ranges so the probe's
/// extremes do not saturate at exactly 0 or 1.
pub const AUTO_NORM_PAD: f64 = 0.05;

/// Enumeration probe pairs sampled to range auto normalizations.
pub const AUTO_NORM_SAMPLES: usize = 256;

/// Every key a job object may carry. Anything else is rejected, so a
/// misspelt or unsupported setting fails loudly instead of being dropped.
const KEYS: [&str; 10] = [
    "scenarios",
    "strategies",
    "seeds",
    "seed_base",
    "repeats",
    "steps",
    "population",
    "generations",
    "reward_shaping",
    "surrogate",
];

/// A validated campaign job: the grid a `submit` frame asks the server to
/// run. The job never names a database — it runs against whatever database
/// (and `--max-vertices`) the server was started with, which is exactly
/// what makes job N+1 warm-start from job N's cache entries.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Scenario axis (never empty; defaults to the paper presets).
    pub scenarios: Vec<ScenarioSpec>,
    /// Strategy axis (never empty; defaults to `random`).
    pub strategies: Vec<StrategyKind>,
    /// Seed axis (never empty; defaults to `[0]`).
    pub seeds: Vec<u64>,
    /// Step budget per shard.
    pub steps: usize,
    /// Hypervolume-gradient reward shaping for every shard.
    pub reward_shaping: RewardShaping,
    /// Predict-then-verify guidance for the generational strategies.
    pub surrogate: Option<SurrogateConfig>,
}

impl JobSpec {
    /// Parses and validates a job object. Every key mirrors a `campaign`
    /// flag, and this is the only validator: the CLI builds the same
    /// object from its flags.
    ///
    /// ```text
    /// {
    ///   "scenarios":      ["0" | "1 Constraint" | "lat<100; w=acc:1.0"
    ///                      | {…ScenarioSpec JSON…}, …],  // default: presets
    ///   "strategies":     ["random", "nsga", …] | "random,nsga",
    ///                                     // default: "random"
    ///   "seeds":          [0, 1, 2],      // or "seed_base" (default 0)
    ///                                     // + "repeats" (default 1)
    ///   "steps":          200,            // default 200; or "generations",
    ///                                     // counted in "population" steps
    ///   "population":     32,             // nsga generation size (default 32)
    ///   "reward_shaping": "hv:0.5",       // default: "none"
    ///   "surrogate":      "4:16",         // default: "off"
    /// }
    /// ```
    ///
    /// Scenario strings resolve exactly like `campaign --scenario`: a
    /// preset index, a preset name, or the compact grammar. Scenario
    /// objects are full `ScenarioSpec` documents ([`ScenarioSpec::from_json`]).
    /// `reward_shaping` and `surrogate` take the flag syntax of
    /// [`RewardShaping::parse`] and [`SurrogateConfig::parse`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason (an unknown key is named); the
    /// server wraps it in a typed `invalid_job` error event.
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        let Json::Obj(pairs) = doc else {
            return Err("job must be an object".into());
        };
        if let Some((key, _)) = pairs.iter().find(|(key, _)| !KEYS.contains(&key.as_str())) {
            return Err(format!("unknown key '{key}'"));
        }

        let mut scenarios = Vec::new();
        match doc.get("scenarios") {
            None => scenarios = ScenarioSpec::paper_presets(),
            Some(Json::Arr(entries)) => {
                for (i, entry) in entries.iter().enumerate() {
                    scenarios
                        .push(resolve_scenario(entry).map_err(|e| format!("scenarios[{i}]: {e}"))?);
                }
            }
            Some(_) => return Err("'scenarios' must be an array".into()),
        }
        if scenarios.is_empty() {
            return Err("'scenarios' must not be empty".into());
        }
        codesign_core::check_unique_names(&scenarios).map_err(|e| e.to_string())?;

        // NSGA population: one knob for every nsga strategy in the job,
        // like the CLI's --population.
        let population =
            int_setting(doc, "population", 2)?.unwrap_or(StrategyKind::DEFAULT_NSGA_POPULATION);
        let strategy_names: Vec<String> = match doc.get("strategies") {
            None => vec!["random".to_owned()],
            Some(Json::Str(csv)) => csv.split(',').map(|s| s.trim().to_owned()).collect(),
            Some(Json::Arr(entries)) => entries
                .iter()
                .map(|e| {
                    e.as_str()
                        .map(str::to_owned)
                        .ok_or("'strategies' entries must be strings")
                })
                .collect::<Result<_, _>>()?,
            Some(_) => return Err("'strategies' must be an array or a comma list".into()),
        };
        let mut strategies = Vec::new();
        for name in &strategy_names {
            let kind = StrategyKind::from_name(name)
                .ok_or_else(|| format!("unknown strategy '{name}'"))?;
            strategies.push(match kind {
                StrategyKind::Nsga { .. } => StrategyKind::Nsga { population },
                other => other,
            });
        }
        if strategies.is_empty() {
            return Err("'strategies' must not be empty".into());
        }

        let seeds: Vec<u64> = match doc.get("seeds") {
            Some(Json::Arr(entries)) => entries
                .iter()
                .map(|e| {
                    e.as_f64()
                        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                        .map(|n| n as u64)
                        .ok_or("'seeds' entries must be non-negative integers")
                })
                .collect::<Result<_, _>>()?,
            Some(_) => return Err("'seeds' must be an array of integers".into()),
            None => {
                let base = int_setting(doc, "seed_base", 0)?.unwrap_or(0) as u64;
                let repeats = int_setting(doc, "repeats", 1)?.unwrap_or(1);
                // Bounded before the seeds are allocated.
                if repeats > MAX_SHARDS {
                    return Err(format!(
                        "{repeats} repeats exceed the {MAX_SHARDS}-shard cap"
                    ));
                }
                let end = base
                    .checked_add(repeats as u64)
                    .ok_or("'seed_base' + 'repeats' overflows the seed range")?;
                (base..end).collect()
            }
        };
        if seeds.is_empty() {
            return Err("'seeds' must not be empty".into());
        }

        // Step budget: explicit steps, or population × generations (the
        // generational unit, like the CLI's --generations). The product
        // saturates, so an overflowing budget fails the cap below.
        let steps = match int_setting(doc, "generations", 1)? {
            Some(generations) => population.saturating_mul(generations),
            None => int_setting(doc, "steps", 1)?.unwrap_or(200),
        };
        if steps > MAX_STEPS {
            return Err(format!(
                "steps {steps} exceeds the per-shard cap {MAX_STEPS}"
            ));
        }
        let shard_count = scenarios.len() * strategies.len() * seeds.len();
        if shard_count > MAX_SHARDS {
            return Err(format!(
                "grid of {shard_count} shards exceeds the {MAX_SHARDS}-shard cap"
            ));
        }

        let reward_shaping = RewardShaping::parse(string_setting(doc, "reward_shaping")?)
            .map_err(|e| format!("'reward_shaping': {e}"))?;
        let surrogate = SurrogateConfig::parse(string_setting(doc, "surrogate")?)
            .map_err(|e| format!("'surrogate': {e}"))?;

        Ok(JobSpec {
            scenarios,
            strategies,
            seeds,
            steps,
            reward_shaping,
            surrogate,
        })
    }

    /// The job as a submit payload. Scenarios are written as full
    /// `ScenarioSpec` documents (lossless — names, thresholds, weights and
    /// normalizations all survive), so `to_json` → [`JobSpec::from_json`]
    /// reconstructs an equivalent job.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            (
                "scenarios",
                Json::Arr(self.scenarios.iter().map(ScenarioSpec::to_json).collect()),
            ),
            (
                "strategies",
                Json::Arr(
                    self.strategies
                        .iter()
                        .map(|s| Json::Str(s.name().into()))
                        .collect(),
                ),
            ),
            (
                "seeds",
                Json::Arr(self.seeds.iter().map(|&s| Json::Num(s as f64)).collect()),
            ),
            ("steps", Json::Num(self.steps as f64)),
        ];
        // The one strategy parameter not captured by its name.
        if let Some(StrategyKind::Nsga { population }) = self
            .strategies
            .iter()
            .find(|s| matches!(s, StrategyKind::Nsga { .. }))
        {
            fields.push(("population", Json::Num(*population as f64)));
        }
        if self.reward_shaping.is_active() {
            fields.push(("reward_shaping", Json::Str(self.reward_shaping.to_string())));
        }
        if let Some(surrogate) = self.surrogate {
            fields.push(("surrogate", Json::Str(surrogate.to_string())));
        }
        Json::obj(fields)
    }

    /// The number of shards this job dispatches.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.scenarios.len() * self.strategies.len() * self.seeds.len()
    }

    /// Instantiates the campaign over `space`. Auto-ranged normalizations
    /// are resolved from a deterministic enumeration probe of `db`
    /// ([`AUTO_NORM_SAMPLES`] pairs, ranges padded by [`AUTO_NORM_PAD`]),
    /// so the same job compiles to the same campaign wherever it runs.
    ///
    /// # Errors
    ///
    /// Returns the reason when an auto-ranged metric cannot be ranged (the
    /// probe saw fewer than two distinct values of it).
    pub fn to_campaign(
        &self,
        space: CodesignSpace,
        db: &NasbenchDatabase,
    ) -> Result<Campaign, String> {
        let campaign = Campaign::new(space)
            .scenarios(self.scenarios.clone())
            .strategies(self.strategies.clone())
            .seeds(self.seeds.clone())
            .steps(self.steps)
            .with_reward_shaping(self.reward_shaping)
            .with_surrogate(self.surrogate);
        if !campaign.needs_auto_norms() {
            return Ok(campaign);
        }
        let probe = probe_pair_evaluations(db, Dataset::Cifar10, AUTO_NORM_SAMPLES);
        campaign
            .with_auto_norms(&probe, AUTO_NORM_PAD)
            .map_err(|e| format!("auto-norm resolution failed: {e}"))
    }
}

/// An optional integer setting of at least `min`.
fn int_setting(doc: &Json, key: &str, min: usize) -> Result<Option<usize>, String> {
    doc.get(key)
        .map(|value| {
            value
                .as_usize()
                .filter(|&n| n >= min)
                .ok_or_else(|| format!("'{key}' must be an integer >= {min}"))
        })
        .transpose()
}

/// An optional string-valued setting (`""` when absent).
fn string_setting<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    match doc.get(key) {
        None => Ok(""),
        Some(Json::Str(text)) => Ok(text),
        Some(_) => Err(format!("'{key}' must be a string")),
    }
}

/// Resolves one scenario entry: a preset index, a preset name, a compact
/// spec, or a full `ScenarioSpec` JSON object.
fn resolve_scenario(entry: &Json) -> Result<ScenarioSpec, String> {
    match entry {
        Json::Str(text) => {
            let presets = ScenarioSpec::paper_presets();
            match text.parse::<usize>() {
                Ok(index) if index < presets.len() => Ok(presets[index].clone()),
                Ok(index) => Err(format!(
                    "preset index {index} out of range (0..={})",
                    presets.len() - 1
                )),
                Err(_) => match ScenarioSpec::preset_by_name(text) {
                    Some(preset) => Ok(preset),
                    None => ScenarioSpec::parse_compact(text).map_err(|e| e.to_string()),
                },
            }
        }
        Json::Obj(_) => ScenarioSpec::from_json(entry).map_err(|e| e.to_string()),
        _ => Err("scenario entries must be strings or objects".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_fill_an_empty_job() {
        let job = JobSpec::from_json(&Json::obj(vec![])).unwrap();
        assert_eq!(job.scenarios.len(), 3, "paper presets by default");
        assert_eq!(job.strategies, vec![StrategyKind::Random]);
        assert_eq!(job.seeds, vec![0]);
        assert_eq!(job.steps, 200);
        assert_eq!(job.reward_shaping, RewardShaping::None);
        assert_eq!(job.surrogate, None);
    }

    #[test]
    fn job_json_round_trips() {
        let doc = Json::parse(
            r#"{"scenarios":["0","lat<100; w=acc:1.0"],"strategies":"random,nsga",
                "seeds":[3,4],"steps":120,"population":8,
                "reward_shaping":"hv:0.5","surrogate":"4:16"}"#,
        )
        .unwrap();
        let job = JobSpec::from_json(&doc).unwrap();
        assert_eq!(job.shard_count(), 2 * 2 * 2);
        assert_eq!(job.strategies[1], StrategyKind::Nsga { population: 8 });
        let back = JobSpec::from_json(&job.to_json()).unwrap();
        assert_eq!(back.steps, job.steps);
        assert_eq!(back.seeds, job.seeds);
        assert_eq!(back.strategies, job.strategies);
        assert_eq!(back.reward_shaping, RewardShaping::parse("hv:0.5").unwrap());
        assert_eq!(back.surrogate, SurrogateConfig::parse("4:16").unwrap());
        let names: Vec<&str> = back.scenarios.iter().map(ScenarioSpec::name).collect();
        let orig: Vec<&str> = job.scenarios.iter().map(ScenarioSpec::name).collect();
        assert_eq!(names, orig);
    }

    #[test]
    fn validation_rejects_bad_jobs() {
        let cases = [
            (r#"{"scenarios":[]}"#, "empty"),
            (r#"{"scenarios":["99"]}"#, "out of range"),
            (r#"{"strategies":["warp-drive"]}"#, "unknown strategy"),
            (r#"{"steps":0}"#, ">= 1"),
            (r#"{"steps":99000000}"#, "cap"),
            (r#"{"seeds":[-1]}"#, "non-negative"),
            (r#"{"scenarios":["0","0"]}"#, ""),
            (r#"{"repeats":0}"#, ">= 1"),
            (r#"{"repeats":1e12}"#, "cap"),
            (
                r#"{"seed_base":18446744073709551615,"repeats":2}"#,
                "overflows",
            ),
            (r#"{"population":1e18,"generations":1e18}"#, "cap"),
            (
                r#"{"steps":10,"surogate":"4:16"}"#,
                "unknown key 'surogate'",
            ),
            (r#"{"surrogate":"4"}"#, "'surrogate'"),
            (r#"{"surrogate":"1:16"}"#, "at least 2"),
            (r#"{"surrogate":4}"#, "must be a string"),
            (r#"{"reward_shaping":"hv:-1"}"#, "'reward_shaping'"),
            (r#"{"reward_shaping":"crowding"}"#, "unknown reward shaping"),
        ];
        for (text, needle) in cases {
            let doc = Json::parse(text).unwrap();
            let err = JobSpec::from_json(&doc).expect_err(text);
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn generations_express_the_budget_for_nsga() {
        let doc =
            Json::parse(r#"{"strategies":["nsga"],"population":10,"generations":7}"#).unwrap();
        let job = JobSpec::from_json(&doc).unwrap();
        assert_eq!(job.steps, 70);
    }
}
