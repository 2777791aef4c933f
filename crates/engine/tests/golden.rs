//! Golden pins of end-to-end search results: FNV-1a digests of the bits a
//! refactor of the reward, front or filter code must not change.
//!
//! 1. **Preset campaign** — `v ≤ 4`, the paper presets, every strategy
//!    plus evolution, seeds 0 and 1, 60 steps, histories on. Each shard
//!    pins its per-step reward bits and feasible/valid flags, its feasible
//!    and invalid counts, its best reward's bits and its sorted front
//!    metric bits. Each preset pins its merged front's membership bits and
//!    the front's hypervolume bits against the scenario reference. The
//!    campaign runs on 1 and on 4 workers; both must match the same pins.
//! 2. **Full-space enumeration** — the exact `v ≤ 4` CIFAR-10 front of
//!    `enumerate_codesign_space`: every point's metric bits, cell and
//!    accelerator, in output order.
//! 3. **CIFAR-100 flow** — `run_cifar100_codesign` on the quick schedule:
//!    per-stage step and valid-point counts and every top point.
//!
//! A mismatch prints the new digests; a deliberate output change updates
//! the constants in the same commit and says why.

use std::sync::Arc;

use codesign_core::{
    enumerate_codesign_space, run_cifar100_codesign, Cifar100Config, CodesignSpace, ScenarioSpec,
};
use codesign_engine::{Campaign, CampaignReport, ShardedDriver, StrategyKind};
use codesign_moo::DynParetoFront;
use codesign_nasbench::{Dataset, NasbenchDatabase};

/// Per-shard digests, indexed by shard index.
const SHARD_PINS: [u64; 30] = [
    0x32e6_24c2_269a_0890,
    0x5837_0a9b_5089_bbbf,
    0xdfcc_2500_4aa8_f1f5,
    0xbf65_e5c3_d91d_b1b4,
    0x01ee_8849_d27c_98ea,
    0x0c3b_2199_2a21_89fa,
    0x4457_3929_1c98_16b9,
    0x4cc1_0ec4_b622_5651,
    0x829f_5488_ebd7_551a,
    0x2c70_d892_4e74_c82c,
    0x7678_dafa_576e_1a67,
    0x45f0_4db5_2aac_7ede,
    0x10d7_8da3_a30a_88a2,
    0xa4dd_bb7a_6a08_e4ed,
    0xe2d7_1738_5825_d7a1,
    0x3efb_3a53_df88_3950,
    0xbda8_c9cd_f3f7_8a7e,
    0x135d_8490_d3f9_5453,
    0x1d66_9a6b_a0c5_842e,
    0xbcfe_a511_4f6d_2598,
    0x3414_4743_a5ae_3da8,
    0x5703_b8be_3339_97a1,
    0x825a_49a0_4621_a35b,
    0xeb60_00d3_1142_552e,
    0x9edb_b855_8ae3_5072,
    0x3a0b_0f70_ceff_5044,
    0x93c6_9d3d_abf1_c693,
    0x2944_595a_f0f9_01b3,
    0xbc40_8556_1169_1931,
    0x985c_7817_f2d8_d66c,
];

/// `(preset, merged-front size, merged-front digest, hypervolume bits)`.
const PRESET_PINS: [(&str, usize, u64, u64); 3] = [
    (
        "Unconstrained",
        65,
        0x0a40_ba4f_082d_701c,
        0x40bf_d852_31e8_3f0c,
    ),
    (
        "1 Constraint",
        60,
        0xdc60_6061_ee12_4d40,
        0x40bf_d4a4_4ff6_4567,
    ),
    (
        "2 Constraints",
        67,
        0xe6c7_42c7_946f_30b2,
        0x40c0_3136_8970_e4ac,
    ),
];

/// `(front size, digest)` of the `v ≤ 4` CIFAR-10 enumeration.
const ENUMERATION_PIN: (usize, u64) = (401, 0x19dd_2833_c00c_4080);

/// `(total steps, total valid points, digest)` of the quick CIFAR-100 flow.
const CIFAR100_PIN: (usize, usize, u64) = (285, 80, 0xe27c_2bdb_ff75_3460);

/// 64-bit FNV-1a, fed in little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }
}

fn sorted_front_bits<T>(front: &DynParetoFront<T>) -> Vec<Vec<u64>> {
    let mut bits: Vec<Vec<u64>> = front.iter().map(|(m, _)| m.to_bits()).collect();
    bits.sort_unstable();
    bits
}

fn hash_front<T>(h: &mut Fnv, front: &DynParetoFront<T>) {
    let bits = sorted_front_bits(front);
    h.usize(bits.len());
    for point in bits {
        for b in point {
            h.u64(b);
        }
    }
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

fn shard_digests(report: &CampaignReport) -> Vec<u64> {
    report
        .shards
        .iter()
        .map(|shard| {
            let mut h = Fnv::new();
            for record in shard.history.as_ref().expect("histories recorded") {
                h.f64(record.reward);
                h.bytes(&[u8::from(record.feasible), u8::from(record.valid)]);
            }
            h.usize(shard.feasible_steps);
            h.usize(shard.invalid_steps);
            match &shard.best {
                Some(best) => h.f64(best.reward),
                None => h.bytes(b"none"),
            }
            hash_front(&mut h, &shard.front);
            h.0
        })
        .collect()
}

fn preset_digests(report: &CampaignReport) -> Vec<(String, usize, u64, u64)> {
    ScenarioSpec::paper_presets()
        .iter()
        .map(|spec| {
            let merged = report.merged_front(spec.name());
            let mut h = Fnv::new();
            hash_front(&mut h, &merged);
            let hv = merged.hypervolume(&spec.compile().hypervolume_reference());
            (spec.name().to_owned(), merged.len(), h.0, hv.to_bits())
        })
        .collect()
}

#[test]
fn preset_campaign_matches_pins_on_1_and_4_workers() {
    let db = Arc::new(NasbenchDatabase::exhaustive(4));
    let campaign = preset_campaign();
    for workers in [1, 4] {
        let report = ShardedDriver::new(workers).run(&campaign, &db);
        assert_eq!(report.shards.len(), SHARD_PINS.len());
        let shards = shard_digests(&report);
        let presets = preset_digests(&report);
        println!("{workers} workers: shards {shards:#018x?}");
        println!("{workers} workers: presets {presets:#018x?}");
        for (shard, (&got, &want)) in report.shards.iter().zip(shards.iter().zip(&SHARD_PINS)) {
            assert_eq!(
                got,
                want,
                "{workers} workers: shard {} ({} / {} / seed {})",
                shard.spec.index,
                shard.spec.scenario_name(),
                shard.spec.strategy.name(),
                shard.spec.seed,
            );
        }
        for (got, want) in presets.iter().zip(&PRESET_PINS) {
            assert_eq!(
                (got.0.as_str(), got.1, got.2, got.3),
                *want,
                "{workers} workers: merged front of {}",
                got.0
            );
        }
    }
}

#[test]
fn enumeration_front_matches_pin() {
    let db = NasbenchDatabase::exhaustive(4);
    let result = enumerate_codesign_space(&db, Dataset::Cifar10, 1);
    let mut h = Fnv::new();
    for point in &result.front {
        for v in point.metrics {
            h.f64(v);
        }
        h.usize(point.cell_index);
        h.debug(&point.config);
    }
    let got = (result.front.len(), h.0);
    println!("enumeration: ({}, {:#018x})", got.0, got.1);
    assert_eq!(got, ENUMERATION_PIN);
}

#[test]
fn cifar100_flow_matches_pin() {
    let result = run_cifar100_codesign(&Cifar100Config::quick(1));
    let mut h = Fnv::new();
    for stage in &result.stages {
        h.f64(stage.threshold);
        h.usize(stage.steps);
        h.usize(stage.valid_points);
        for point in &stage.top_points {
            h.bytes(&point.cell.canonical_hash().to_le_bytes());
            h.debug(&point.config);
            h.f64(point.accuracy);
            h.f64(point.latency_ms);
            h.f64(point.area_mm2);
            h.usize(point.step);
        }
    }
    h.usize(result.models_trained);
    h.f64(result.gpu_hours);
    let got = (result.total_steps, result.total_valid_points, h.0);
    println!("cifar100: ({}, {}, {:#018x})", got.0, got.1, got.2);
    assert_eq!(got, CIFAR100_PIN);
}
