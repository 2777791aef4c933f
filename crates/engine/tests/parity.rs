//! Parity acceptance test for the paper presets:
//! `ScenarioSpec::paper_presets()` drives the engine to the rewards the
//! paper's Eq. 3 defines, across every strategy at fixed seeds.
//!
//! The proof is deliberately non-circular: campaigns run through the
//! declarative scenario path, and every recorded step is then *re-scored
//! independently* by a test-local Eq. 3 over the recorded
//! `(−area, −lat, acc)` metrics, with the §III-C weights, norms and
//! thresholds written out as literals. If the declarative rewards diverged
//! from Eq. 3 by even one bit, the recorded controller rewards, feasible
//! counts, or best points could not all re-derive exactly.

use std::sync::Arc;

use codesign_core::{CodesignSpace, ScenarioSpec, INVALID_PROPOSAL_REWARD};
use codesign_engine::{Campaign, ShardedDriver, StrategyKind};
use codesign_nasbench::NasbenchDatabase;

/// One §III-C experiment over the signed `(−area, −lat, acc)` triple.
struct Preset {
    name: &'static str,
    weights: [f64; 3],
    /// Lower bounds in the all-maximize convention (`lat < 100 ms` is
    /// `−lat ≥ −100`).
    thresholds: [Option<f64>; 3],
}

const PRESETS: [Preset; 3] = [
    Preset {
        name: "Unconstrained",
        weights: [0.1, 0.8, 0.1],
        thresholds: [None, None, None],
    },
    Preset {
        name: "1 Constraint",
        weights: [0.1, 0.0, 0.9],
        thresholds: [None, Some(-100.0), None],
    },
    Preset {
        name: "2 Constraints",
        weights: [0.0, 1.0, 0.0],
        thresholds: [Some(-100.0), None, Some(0.92)],
    },
];

/// The presets' shared normalization ranges `N`, signed: area 45–215 mm²,
/// latency 5–400 ms, accuracy 0.80–0.95.
const NORMS: [(f64, f64); 3] = [(-215.0, -45.0), (-400.0, -5.0), (0.80, 0.95)];

/// Eq. 3: `(true, w · N(m))` when every threshold holds, otherwise
/// `(false, Rv)` with `Rv = −0.1 · (1 + min(violation, 10))`, the violation
/// summed over missed thresholds in units of each norm's span.
fn reference_reward(preset: &Preset, m: [f64; 3]) -> (bool, f64) {
    let mut violation = 0.0;
    let mut feasible = true;
    for (i, (lo, hi)) in NORMS.into_iter().enumerate() {
        if let Some(t) = preset.thresholds[i] {
            if m[i] < t {
                feasible = false;
                violation += (t - m[i]) / (hi - lo);
            }
        }
    }
    if !feasible {
        return (false, -(0.1 * (1.0 + violation.min(10.0))));
    }
    let mut reward = 0.0;
    for (i, (lo, hi)) in NORMS.into_iter().enumerate() {
        reward += preset.weights[i] * ((m[i] - lo) / (hi - lo)).clamp(0.0, 1.0);
    }
    (true, reward)
}

fn preset_campaign() -> Campaign {
    Campaign::new(CodesignSpace::with_max_vertices(4))
        .scenarios(ScenarioSpec::paper_presets())
        .strategies(
            StrategyKind::ALL
                .into_iter()
                .chain([StrategyKind::Evolution])
                .collect(),
        )
        .seeds(vec![0, 1])
        .steps(60)
        .record_histories(true)
}

#[test]
fn presets_rederive_bitwise_under_a_reference_eq3_reward() {
    // The paper presets are also what a campaign runs by default.
    assert_eq!(
        Campaign::new(CodesignSpace::with_max_vertices(4)).scenarios,
        ScenarioSpec::paper_presets()
    );
    let names: Vec<&str> = PRESETS.iter().map(|p| p.name).collect();
    let preset_names: Vec<String> = ScenarioSpec::paper_presets()
        .iter()
        .map(|s| s.name().to_owned())
        .collect();
    assert_eq!(names, preset_names);

    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let report = ShardedDriver::new(4).run(&preset_campaign(), &db);
    assert_eq!(report.shards.len(), 3 * 5 * 2);

    for shard in &report.shards {
        let preset = PRESETS
            .iter()
            .find(|p| p.name == shard.spec.scenario_name())
            .expect("a paper preset");
        let history = shard.history.as_ref().expect("histories recorded");
        let mut feasible = 0usize;
        let mut invalid = 0usize;
        let mut best_reward = f64::NEG_INFINITY;
        for (step, record) in history.iter().enumerate() {
            match record.metrics {
                Some(metrics) => {
                    let (is_feasible, reward) = reference_reward(preset, metrics);
                    assert_eq!(
                        record.reward.to_bits(),
                        reward.to_bits(),
                        "shard {} ({} / {} / seed {}) step {step}: recorded reward {} \
                         != Eq. 3 reward {reward}",
                        shard.spec.index,
                        shard.spec.scenario_name(),
                        shard.spec.strategy.name(),
                        shard.spec.seed,
                        record.reward,
                    );
                    assert_eq!(record.feasible, is_feasible);
                    if is_feasible {
                        feasible += 1;
                        best_reward = best_reward.max(reward);
                    }
                }
                None => {
                    assert_eq!(record.reward, INVALID_PROPOSAL_REWARD);
                    assert!(!record.feasible && !record.valid);
                    invalid += 1;
                }
            }
        }
        assert_eq!(shard.feasible_steps, feasible, "shard {}", shard.spec.index);
        assert_eq!(shard.invalid_steps, invalid, "shard {}", shard.spec.index);
        match &shard.best {
            Some(best) => {
                assert_eq!(
                    best.reward.to_bits(),
                    best_reward.to_bits(),
                    "shard {} best-point reward must be the max Eq. 3 reward",
                    shard.spec.index
                );
                // The stored best point re-scores to its stored reward.
                let (_, rescored) = reference_reward(preset, best.evaluation.metrics());
                assert_eq!(best.reward.to_bits(), rescored.to_bits());
            }
            None => assert_eq!(feasible, 0),
        }
    }
}
