//! Golden digests of the controller and the surrogate regressor.
//!
//! Each test drives a fixed-seed run through the public API and folds every
//! observable f64 (actions, `log_prob`/`entropy` bits, final parameter bits,
//! predictions) into one FNV-1a digest. A kernel or optimizer rewrite that
//! keeps every floating-point operation in its order leaves these digests
//! unchanged; one that reassociates a sum, fuses a multiply-add or reorders
//! a gradient accumulation moves them. The constants are never edited to
//! make a change pass: a change that moves them is a re-baseline and says
//! so.
//!
//! The runs are long enough (1,000 steps) to reach late-run Adam state and
//! include one run whose rewards are large enough that the global-norm clip
//! fires on dozens of steps.

use codesign_rl::{
    LstmPolicy, MlpRegressor, PolicyConfig, RegressorConfig, ReinforceConfig, ReinforceTrainer,
    Rollout, Sgd,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn rollout(&mut self, r: &Rollout) {
        for &a in &r.actions {
            self.word(a as u64);
        }
        self.f64(r.log_prob);
        self.f64(r.entropy);
    }

    fn params(&mut self, policy: &LstmPolicy) {
        let mut policy = policy.clone();
        let mut all = Vec::new();
        policy.visit_params(&mut |params, _| all.extend_from_slice(params));
        self.word(all.len() as u64);
        for v in all {
            self.f64(v);
        }
    }
}

/// The joint CNN×HW vocabulary: `[2; edges] ++ [3; ops] ++` the 8 CHaiDNN
/// decisions, for a cell of at most `max_vertices` vertices.
fn codesign_vocab(max_vertices: usize) -> Vec<usize> {
    let edges = max_vertices * (max_vertices - 1) / 2;
    let mut v = vec![2; edges];
    v.extend(std::iter::repeat_n(3, max_vertices - 2));
    v.extend([2, 5, 4, 3, 3, 2, 2, 6]);
    v
}

/// A deterministic, action-dependent reward in roughly `[-scale, scale]`.
fn reward_of(actions: &[usize], scale: f64) -> f64 {
    let mut h = 0u64;
    for (i, &a) in actions.iter().enumerate() {
        h = h
            .wrapping_mul(31)
            .wrapping_add((a as u64 + 1) * (i as u64 + 7));
    }
    let prefer_low = actions.iter().filter(|&&a| a == 0).count() as f64 / actions.len() as f64;
    scale * (prefer_low - 0.5 + 0.1 * ((h % 17) as f64 / 17.0))
}

/// Global L2 norm of the gradients a policy currently holds.
fn grad_norm(policy: &LstmPolicy) -> f64 {
    let mut policy = policy.clone();
    let mut sq = 0.0;
    policy.visit_params(&mut |_, grads| {
        for g in grads.iter() {
            sq += g * g;
        }
    });
    sq.sqrt()
}

/// Runs `steps` propose/learn steps and returns the digest and how many
/// steps had a pre-clip gradient norm above the 5.0 clip.
fn trainer_digest(vocab: Vec<usize>, seed: u64, steps: usize, reward_scale: f64) -> (u64, usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let policy = LstmPolicy::new(PolicyConfig::new(vocab), &mut rng);
    let mut trainer = ReinforceTrainer::new(policy, ReinforceConfig::default());
    let mut fnv = Fnv::new();
    let mut clipped = 0;
    for _ in 0..steps {
        let rollout = trainer.propose(&mut rng);
        fnv.rollout(&rollout);
        let reward = reward_of(&rollout.actions, reward_scale);
        trainer.learn(&rollout, reward);
        if grad_norm(trainer.policy()) > 5.0 {
            clipped += 1;
        }
    }
    fnv.params(trainer.policy());
    fnv.f64(trainer.baseline().unwrap_or(f64::NAN));
    (fnv.0, clipped)
}

#[test]
fn reinforce_paper_vocab_1000_steps() {
    let vocab = codesign_vocab(7);
    assert_eq!(vocab.len(), 34);
    let (digest, _) = trainer_digest(vocab, 11, 1000, 1.0);
    assert_eq!(digest, 0xc849_2d38_8a1d_507b, "digest {digest:#018x}");
}

#[test]
fn reinforce_v5_vocab_1000_steps() {
    let vocab = codesign_vocab(5);
    assert_eq!(vocab.len(), 21);
    let (digest, _) = trainer_digest(vocab, 12, 1000, 1.0);
    assert_eq!(digest, 0x2ea1_f4cc_deb2_fe49, "digest {digest:#018x}");
}

#[test]
fn reinforce_with_global_norm_clip_firing() {
    let (digest, clipped) = trainer_digest(codesign_vocab(5), 13, 300, 5000.0);
    assert!(
        clipped >= 50,
        "the clip fired on only {clipped} of 300 steps"
    );
    assert_eq!(digest, 0x45df_6272_8a62_2516, "digest {digest:#018x}");
}

#[test]
fn sgd_with_momentum() {
    let mut rng = SmallRng::seed_from_u64(14);
    let mut policy = LstmPolicy::new(PolicyConfig::new(codesign_vocab(5)), &mut rng);
    let mut sgd = Sgd::new(0.05);
    sgd.momentum = 0.9;
    let mut fnv = Fnv::new();
    for _ in 0..300 {
        let rollout = policy.rollout(&mut rng);
        fnv.rollout(&rollout);
        let advantage = reward_of(&rollout.actions, 1.0);
        policy.zero_grad();
        policy.accumulate_grad(&rollout, advantage, 0.01);
        sgd.step(&mut policy);
    }
    fnv.params(&policy);
    assert_eq!(fnv.0, 0xff6d_2c28_a661_08bf, "digest {:#018x}", fnv.0);
}

#[test]
fn regressor_fit_and_predict() {
    let mut rng = SmallRng::seed_from_u64(15);
    let xs: Vec<Vec<f64>> = (0..512)
        .map(|_| (0..18).map(|_| rng.gen_range(-2.0..2.0)).collect())
        .collect();
    let ys: Vec<Vec<f64>> = xs
        .iter()
        .map(|x| {
            let s: f64 = x.iter().sum();
            vec![s.tanh(), (x[0] * x[1]).exp().ln_1p(), 3.0 * x[17] - x[5]]
        })
        .collect();
    let mut model = MlpRegressor::new(18, 3, RegressorConfig::default(), &mut rng);
    model.fit(&xs, &ys);
    let mut fnv = Fnv::new();
    for x in xs.iter().step_by(7) {
        for y in model.predict(x) {
            fnv.f64(y);
        }
    }
    // A second fit warm-starts from the first one's weights.
    model.fit(&xs[..200], &ys[..200]);
    for x in xs.iter().step_by(5) {
        for y in model.predict(x) {
            fnv.f64(y);
        }
    }
    assert_eq!(fnv.0, 0xc7b5_f2b7_921e_db1c, "digest {:#018x}", fnv.0);
}
