//! Acceptance tests for the scenario-native Pareto pipeline.
//!
//! 1. **Brute-force parity** — a recorded paper-preset campaign,
//!    re-extracted with a brute-force `O(n²)` filter over the recorded
//!    `(−area, −lat, acc)` step diagnostics, is bit-identical to the
//!    runtime-dimension fronts: per-shard membership, order-independent
//!    set equality of the merged fronts, and equal dominated hypervolume.
//!    The proof is non-circular: the reference fronts are rebuilt from the
//!    step histories alone, with their own dominance test, never from the
//!    dyn fronts.
//! 2. **Scenario-native axes** — a two-metric accuracy × power scenario
//!    produces fronts and JSONL/CSV exports carrying exactly those two
//!    axes (`acc`, `power`), with no borrowed triple columns.

use std::sync::Arc;

use codesign_core::{CodesignSpace, MetricId, ScenarioSpec};
use codesign_engine::{Campaign, ShardedDriver, StrategyKind};
use codesign_moo::{hypervolume_3d, DynParetoFront};
use codesign_nasbench::{Json, NasbenchDatabase};

fn preset_campaign() -> Campaign {
    Campaign::new(CodesignSpace::with_max_vertices(4))
        .scenarios(ScenarioSpec::paper_presets())
        .strategies(StrategyKind::ALL.to_vec())
        .seeds(vec![0, 1])
        .steps(60)
        .record_histories(true)
}

/// The points no other point strictly dominates (at least as good
/// everywhere and not equal), under the all-maximize convention. Equal
/// points are all kept.
fn brute_force_front(points: &[[f64; 3]]) -> Vec<[f64; 3]> {
    let dominates = |q: &[f64; 3], p: &[f64; 3]| q != p && q.iter().zip(p).all(|(a, b)| a >= b);
    points
        .iter()
        .filter(|p| !points.iter().any(|q| dominates(q, p)))
        .copied()
        .collect()
}

fn sorted_bits(points: &[[f64; 3]]) -> Vec<Vec<u64>> {
    let mut bits: Vec<Vec<u64>> = points
        .iter()
        .map(|m| m.iter().map(|v| v.to_bits()).collect())
        .collect();
    bits.sort_unstable();
    bits
}

fn sorted_bits_dyn<T>(front: &DynParetoFront<T>) -> Vec<Vec<u64>> {
    let mut bits: Vec<Vec<u64>> = front.iter().map(|(m, _)| m.to_bits()).collect();
    bits.sort_unstable();
    bits
}

#[test]
fn dyn_fronts_rederive_bitwise_under_a_brute_force_filter() {
    let campaign = preset_campaign();
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let report = ShardedDriver::new(4).run(&campaign, &db);
    assert_eq!(report.shards.len(), 3 * 4 * 2);

    // Per-shard parity: brute-force filtering the recorded history must
    // reproduce the dyn front's member set exactly (the preset scenarios'
    // axes are the signed paper triple, in the same order).
    let mut visited: Vec<(String, Vec<[f64; 3]>)> = ScenarioSpec::paper_presets()
        .iter()
        .map(|s| (s.name().to_owned(), Vec::new()))
        .collect();
    for shard in &report.shards {
        assert_eq!(shard.front.schema().names(), ["area", "lat", "acc"]);
        let points: Vec<[f64; 3]> = shard
            .history
            .as_ref()
            .expect("histories recorded")
            .iter()
            .filter_map(|record| record.metrics)
            .collect();
        assert_eq!(
            sorted_bits(&brute_force_front(&points)),
            sorted_bits_dyn(&shard.front),
            "shard {} ({} / {} / seed {}): dyn front diverged from the brute-force front",
            shard.spec.index,
            shard.spec.scenario_name(),
            shard.spec.strategy.name(),
            shard.spec.seed,
        );
        visited
            .iter_mut()
            .find(|(name, _)| name == shard.spec.scenario_name())
            .expect("preset scenario")
            .1
            .extend(points);
    }

    // Merged-front parity, including equal hypervolume, compared
    // bit-for-bit, not approximately.
    for (name, points) in &visited {
        let reference_front = brute_force_front(points);
        let merged = report.merged_front(name);
        assert_eq!(
            sorted_bits(&reference_front),
            sorted_bits_dyn(&merged),
            "merged front diverged for {name}",
        );
        let compiled = ScenarioSpec::preset_by_name(name)
            .expect("preset")
            .compile();
        let reference = compiled.hypervolume_reference();
        assert_eq!(reference.len(), 3);
        let brute_hv = hypervolume_3d(&reference_front, [reference[0], reference[1], reference[2]]);
        let dyn_hv = merged.hypervolume(&reference);
        assert!(brute_hv > 0.0, "{name}: degenerate hypervolume");
        assert_eq!(
            brute_hv.to_bits(),
            dyn_hv.to_bits(),
            "{name}: hypervolume diverged (brute force {brute_hv}, dyn {dyn_hv})"
        );
    }
}

#[test]
fn two_metric_scenario_exports_exactly_its_own_axes() {
    let scenario = ScenarioSpec::builder("power-capped")
        .weight(MetricId::Accuracy, 1.0)
        .constraint(MetricId::PowerW, 6.0)
        .build()
        .expect("valid scenario");
    let campaign = Campaign::new(CodesignSpace::with_max_vertices(4))
        .scenarios(vec![scenario])
        .strategies(vec![StrategyKind::Random, StrategyKind::Combined])
        .seeds(vec![0])
        .steps(80);
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let report = ShardedDriver::new(2).run(&campaign, &db);

    // Fronts carry exactly the declared axes.
    let merged = report.merged_front("power-capped");
    assert_eq!(merged.schema().names(), ["acc", "power"]);
    assert!(!merged.is_empty());
    for (m, _) in merged.iter() {
        assert_eq!(m.len(), 2);
        assert!(m[0] > 0.0, "signed accuracy is positive");
        assert!(m[1] < 0.0, "signed power is negated");
    }
    assert_eq!(report.metric_columns(), ["acc", "power"]);

    // JSONL: the shard records name the two axes and nothing else.
    let mut jsonl = Vec::new();
    report.write_jsonl(&mut jsonl).unwrap();
    let text = String::from_utf8(jsonl).unwrap();
    assert!(text.contains(r#""metrics":["acc","power"]"#));
    for line in text.lines().skip(1) {
        let shard = Json::parse(line).unwrap();
        let names: Vec<&str> = shard
            .get("metrics")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(names, ["acc", "power"]);
        for row in shard.get("front").and_then(Json::as_arr).unwrap() {
            assert_eq!(row.as_arr().unwrap().len(), 2);
        }
        // The best-point record is written in the scenario's own metrics.
        let best = shard.get("best").unwrap();
        if !matches!(best, Json::Null) {
            assert!(best.get("acc").is_some() && best.get("power").is_some());
            assert!(best.get("area_mm2").is_none() && best.get("latency_ms").is_none());
        }
    }

    // CSV: the header carries the scenario's own columns — power, not area.
    let dir = std::env::temp_dir().join("codesign_front_parity_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("power_capped.csv");
    report.write_csv(&path).unwrap();
    let content = std::fs::read_to_string(&path).unwrap();
    let header = content.lines().next().unwrap();
    assert!(header.contains("best_acc") && header.contains("best_power"));
    assert!(!header.contains("best_area") && !header.contains("best_lat"));
    assert!(content.lines().skip(1).all(|row| row.contains("acc|power")));
}
