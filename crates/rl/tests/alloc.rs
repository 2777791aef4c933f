//! Pins the controller's allocation budget: a warmed-up propose + learn
//! step makes the same small number of heap allocations whatever the
//! number of decisions: the rollout's action list and flat trace buffer,
//! one decoding scratch buffer and one backward-pass scratch buffer.
//!
//! This lives in its own integration-test binary with a single `#[test]`,
//! so the counting global allocator sees only this test's traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use codesign_rl::{LstmPolicy, PolicyConfig, ReinforceConfig, ReinforceTrainer};
use rand::rngs::SmallRng;
use rand::SeedableRng;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of one propose + learn step, after a few warm-up steps
/// (the optimizer sizes its moment buffers on its first step).
fn allocations_per_step(vocab: Vec<usize>) -> u64 {
    let mut rng = SmallRng::seed_from_u64(3);
    let policy = LstmPolicy::new(PolicyConfig::new(vocab), &mut rng);
    let mut trainer = ReinforceTrainer::new(policy, ReinforceConfig::default());
    let mut step = |i: u32| {
        let rollout = trainer.propose(&mut rng);
        trainer.learn(&rollout, f64::from(i % 3) - 1.0);
    };
    for i in 0..3 {
        step(i);
    }
    const STEPS: u32 = 10;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..STEPS {
        step(i);
    }
    let total = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(total % u64::from(STEPS), 0, "steps allocate unevenly");
    total / u64::from(STEPS)
}

#[test]
fn step_allocations_do_not_grow_with_the_decision_count() {
    // The 8 accelerator decisions alone, and the joint v <= 5 space.
    let hw = vec![2, 5, 4, 3, 3, 2, 2, 6];
    let mut joint = vec![2; 10];
    joint.extend([3, 3, 3]);
    joint.extend(&hw);
    assert_eq!(joint.len(), 21);

    let small = allocations_per_step(hw);
    let large = allocations_per_step(joint);
    assert_eq!(
        small, large,
        "8 decisions: {small} allocations per step, 21 decisions: {large}"
    );
    assert_eq!(small, 4, "propose + learn should allocate 4 times");
}
