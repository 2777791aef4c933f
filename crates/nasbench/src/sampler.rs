//! Random sampling and exhaustive enumeration of cell specs.

use std::collections::HashSet;
use std::ops::Range;

use rand::Rng;

use crate::canon::Neighbors;
use crate::graph::{AdjMatrix, MAX_VERTICES};
use crate::spec::MAX_EDGES;
use crate::{CellSpec, Op};

/// Random generator of valid cells, biased toward larger graphs like the
/// NASBench-101 population (most unique models use all 7 vertices).
///
/// # Examples
///
/// ```
/// use codesign_nasbench::SpecSampler;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let sampler = SpecSampler::default();
/// let cell = sampler.sample(&mut rng);
/// assert!(cell.num_edges() <= 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecSampler {
    /// Probability of including each candidate edge before validation.
    pub edge_prob: f64,
    /// Cumulative weights for picking the vertex count 2..=7.
    vertex_weights: [f64; MAX_VERTICES - 1],
}

impl Default for SpecSampler {
    fn default() -> Self {
        // Weights for V = 2, 3, 4, 5, 6, 7: heavily favor larger cells, like
        // the unique-model census of NASBench-101.
        Self::with_weights(0.5, [0.2, 1.0, 3.0, 8.0, 20.0, 68.0])
    }
}

impl SpecSampler {
    /// Creates a sampler with explicit vertex-count weights (for V = 2..=7)
    /// and edge-inclusion probability.
    ///
    /// # Panics
    ///
    /// Panics if `edge_prob` is outside `(0, 1]` or the weights are all zero.
    #[must_use]
    pub fn with_weights(edge_prob: f64, weights: [f64; MAX_VERTICES - 1]) -> Self {
        assert!(
            edge_prob > 0.0 && edge_prob <= 1.0,
            "edge_prob must be in (0, 1]"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "vertex weights must not all be zero");
        let mut cumulative = [0.0; MAX_VERTICES - 1];
        let mut acc = 0.0;
        for (c, w) in cumulative.iter_mut().zip(weights.iter()) {
            acc += w / total;
            *c = acc;
        }
        Self {
            edge_prob,
            vertex_weights: cumulative,
        }
    }

    /// Samples vertex count 2..=[`MAX_VERTICES`] from the configured weights.
    fn sample_vertices<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        for (i, &c) in self.vertex_weights.iter().enumerate() {
            if u <= c {
                return i + 2;
            }
        }
        MAX_VERTICES
    }

    /// Draws one raw (possibly invalid) spec attempt.
    ///
    /// A random backbone first guarantees every vertex sits on an
    /// input→output path (so large graphs survive pruning intact); extra
    /// edges are then sprinkled up to a random budget within [`MAX_EDGES`].
    fn sample_raw<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<CellSpec, crate::SpecError> {
        let v = self.sample_vertices(rng);
        let mut matrix = AdjMatrix::empty(v)?;
        // Backbone 1: every non-input vertex gets an in-edge from below.
        for i in 1..v {
            matrix.add_edge(rng.gen_range(0..i), i)?;
        }
        // Backbone 2: every non-output vertex gets an out-edge upward.
        for i in 0..v - 1 {
            if matrix.out_degree(i) == 0 {
                matrix.add_edge(i, rng.gen_range(i + 1..v))?;
            }
        }
        if matrix.num_edges() > MAX_EDGES {
            return Err(crate::SpecError::TooManyEdges {
                got: matrix.num_edges(),
                max: MAX_EDGES,
            });
        }
        // Extra edges up to a random budget.
        let budget = rng.gen_range(matrix.num_edges()..=MAX_EDGES);
        let mut all_slots: Vec<(usize, usize)> = Vec::new();
        for i in 0..v {
            for j in (i + 1)..v {
                if !matrix.has_edge(i, j) {
                    all_slots.push((i, j));
                }
            }
        }
        while matrix.num_edges() < budget && !all_slots.is_empty() {
            if !rng.gen_bool(self.edge_prob) {
                break;
            }
            let k = rng.gen_range(0..all_slots.len());
            let (i, j) = all_slots.swap_remove(k);
            matrix.add_edge(i, j)?;
        }
        let ops: Vec<Op> = (0..v.saturating_sub(2))
            .map(|_| Op::ALL[rng.gen_range(0..Op::COUNT)])
            .collect();
        CellSpec::new(matrix, ops)
    }

    /// Samples until a valid cell is produced.
    ///
    /// With the default parameters well over a third of raw draws validate,
    /// so this terminates in a handful of attempts in expectation.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> CellSpec {
        loop {
            if let Ok(cell) = self.sample_raw(rng) {
                return cell;
            }
        }
    }
}

/// Number of adjacency masks of a `vertices`-vertex cell: one bit per
/// upper-triangular slot `(i, j)`, `i < j`, in row-major order.
pub(crate) fn mask_count(vertices: usize) -> u64 {
    1 << (vertices * (vertices - 1) / 2)
}

/// Exhaustively enumerates every valid cell with **exactly** `vertices`
/// vertices before pruning, deduplicated by canonical hash.
///
/// Cells come in mask order, then op-labelling order, each at its first
/// occurrence. Pruning depends only on the mask, so each mask is pruned
/// once and skipped if it loses a vertex; each op labelling of a kept
/// mask then costs one allocation-free hash. In release mode on one
/// 2.0 GHz core, `vertices = 6` takes about 1 s (62,010 cells) and
/// `vertices = 7` about 11 s (359,082 cells).
/// [`NasbenchDatabase::exhaustive`] spreads the masks over all cores.
///
/// [`NasbenchDatabase::exhaustive`]: crate::NasbenchDatabase::exhaustive
///
/// # Panics
///
/// Panics if `vertices` exceeds [`MAX_VERTICES`] or is below 2.
#[must_use]
pub fn enumerate_cells(vertices: usize) -> Vec<CellSpec> {
    assert!(
        (2..=MAX_VERTICES).contains(&vertices),
        "vertices must be in 2..=7"
    );
    enumerate_masks(vertices, 0..mask_count(vertices))
}

/// [`enumerate_cells`] restricted to the adjacency masks in `masks`: the
/// unique cells of those masks, in the same order.
pub(crate) fn enumerate_masks(vertices: usize, masks: Range<u64>) -> Vec<CellSpec> {
    let interior = vertices - 2;
    let op_combos = Op::COUNT.pow(interior as u32);
    let mut seen = HashSet::new();
    let mut cells = Vec::new();
    let mut ops = [Op::Conv3x3; MAX_VERTICES - 2];
    let ops = &mut ops[..interior];
    for mask in masks {
        if (mask.count_ones() as usize) > MAX_EDGES {
            continue;
        }
        let matrix = mask_matrix(vertices, mask);
        // Only masks that keep every vertex count: a mask that loses
        // vertices to pruning is enumerated at its smaller size.
        match matrix.prune() {
            Ok((pruned, _)) if pruned.num_vertices() == vertices => {}
            _ => continue,
        }
        let neighbors = Neighbors::of(&matrix);
        for combo in 0..op_combos {
            let mut c = combo;
            for op in ops.iter_mut() {
                *op = Op::ALL[c % Op::COUNT];
                c /= Op::COUNT;
            }
            let hash = neighbors.hash(ops);
            if seen.insert(hash) {
                cells.push(CellSpec::from_pruned(matrix.clone(), ops, hash));
            }
        }
    }
    cells
}

/// The adjacency matrix of `mask` (see [`mask_count`]).
fn mask_matrix(vertices: usize, mask: u64) -> AdjMatrix {
    let mut matrix = AdjMatrix::empty(vertices).expect("vertex count checked by the caller");
    let mut bit = 0;
    for i in 0..vertices {
        for j in (i + 1)..vertices {
            if mask >> bit & 1 == 1 {
                matrix.add_edge(i, j).expect("i < j < vertices");
            }
            bit += 1;
        }
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn sampling_is_reproducible() {
        let sampler = SpecSampler::default();
        let a: Vec<u128> = {
            let mut rng = SmallRng::seed_from_u64(99);
            (0..20)
                .map(|_| sampler.sample(&mut rng).canonical_hash())
                .collect()
        };
        let b: Vec<u128> = {
            let mut rng = SmallRng::seed_from_u64(99);
            (0..20)
                .map(|_| sampler.sample(&mut rng).canonical_hash())
                .collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn samples_satisfy_all_invariants() {
        let sampler = SpecSampler::default();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..200 {
            let cell = sampler.sample(&mut rng);
            assert!(cell.num_vertices() >= 2 && cell.num_vertices() <= MAX_VERTICES);
            assert!(cell.num_edges() <= MAX_EDGES);
            assert_eq!(cell.ops().len(), cell.num_vertices() - 2);
        }
    }

    #[test]
    fn sampler_favors_large_cells() {
        let sampler = SpecSampler::default();
        let mut rng = SmallRng::seed_from_u64(11);
        let sizes: Vec<usize> = (0..500)
            .map(|_| sampler.sample(&mut rng).num_vertices())
            .collect();
        let large = sizes.iter().filter(|&&v| v >= 6).count();
        assert!(
            large > sizes.len() / 2,
            "only {large}/500 cells had >= 6 vertices"
        );
    }

    #[test]
    #[should_panic(expected = "edge_prob")]
    fn invalid_edge_prob_panics() {
        let _ = SpecSampler::with_weights(0.0, [1.0; 6]);
    }

    #[test]
    fn enumerate_two_vertex_space() {
        // Only one graph: input -> output.
        let cells = enumerate_cells(2);
        assert_eq!(cells.len(), 1);
    }

    #[test]
    fn enumerate_three_vertex_space() {
        // Valid 3-vertex cells: chain (0-1, 1-2) with/without skip, times 3 ops.
        let cells = enumerate_cells(3);
        assert_eq!(cells.len(), 6);
    }

    #[test]
    fn enumeration_contains_known_small_cells() {
        let cells = enumerate_cells(4);
        let resnet = crate::known_cells::resnet_cell();
        assert!(cells
            .iter()
            .any(|c| c.canonical_hash() == resnet.canonical_hash()));
    }

    #[test]
    fn enumeration_has_no_duplicate_hashes() {
        let cells = enumerate_cells(4);
        let mut hashes: Vec<u128> = cells.iter().map(CellSpec::canonical_hash).collect();
        let before = hashes.len();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(before, hashes.len());
        assert!(
            before > 50,
            "4-vertex space should have dozens of unique cells, got {before}"
        );
    }
}
