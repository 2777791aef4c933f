//! Isomorphism-invariant graph fingerprints.
//!
//! NASBench-101 deduplicates its ~510M raw graphs down to ~423k unique models
//! with an iterative neighborhood-hashing scheme (`graph_util.hash_module`):
//! every vertex starts from a hash of `(in-degree, out-degree, label)` and is
//! repeatedly re-hashed with the sorted hashes of its in- and out-neighbors;
//! the fingerprint is the hash of the sorted final vertex hashes. We implement
//! the same scheme with a 128-bit FNV-style mixer instead of MD5 — collisions
//! are astronomically unlikely at the scale of this search space, and the
//! property tests in this module verify invariance under vertex relabeling.

use crate::graph::{AdjMatrix, MAX_VERTICES};
use crate::Op;

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Separator after a vertex's sorted in-neighbour hashes.
const IN_END: u128 = u128::MAX;
/// Separator after a vertex's sorted out-neighbour hashes.
const OUT_END: u128 = u128::MAX - 1;

/// Folds one byte into a 128-bit FNV-1a state.
fn feed_byte(h: u128, b: u8) -> u128 {
    (h ^ u128::from(b)).wrapping_mul(FNV_PRIME)
}

/// Folds the 16 little-endian bytes of `part` into a 128-bit FNV-1a state.
fn feed(h: u128, part: u128) -> u128 {
    part.to_le_bytes().into_iter().fold(h, feed_byte)
}

/// Sorts `parts` in place and folds them into `h` in ascending order.
fn feed_sorted(h: u128, parts: &mut [u128]) -> u128 {
    parts.sort_unstable();
    parts.iter().fold(h, |h, &p| feed(h, p))
}

/// Folds the hashes of the vertices in `list`, sorted, into `h`.
fn feed_neighbors(h: u128, list: &[u8], hashes: &[u128; MAX_VERTICES]) -> u128 {
    let mut parts = [0u128; MAX_VERTICES];
    let parts = &mut parts[..list.len()];
    for (p, &u) in parts.iter_mut().zip(list) {
        *p = hashes[usize::from(u)];
    }
    feed_sorted(h, parts)
}

/// A graph's in- and out-neighbour lists in fixed arrays, so one matrix
/// can be hashed under many op labellings without allocating.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Neighbors {
    n: usize,
    ins: [[u8; MAX_VERTICES]; MAX_VERTICES],
    in_deg: [u8; MAX_VERTICES],
    outs: [[u8; MAX_VERTICES]; MAX_VERTICES],
    out_deg: [u8; MAX_VERTICES],
}

impl Neighbors {
    /// Collects the neighbour lists of `matrix`, ascending.
    pub(crate) fn of(matrix: &AdjMatrix) -> Self {
        let n = matrix.num_vertices();
        let mut nb = Self {
            n,
            ins: [[0; MAX_VERTICES]; MAX_VERTICES],
            in_deg: [0; MAX_VERTICES],
            outs: [[0; MAX_VERTICES]; MAX_VERTICES],
            out_deg: [0; MAX_VERTICES],
        };
        for u in 0..n {
            for w in (u + 1)..n {
                if matrix.has_edge(u, w) {
                    nb.outs[u][usize::from(nb.out_deg[u])] = w as u8;
                    nb.out_deg[u] += 1;
                    nb.ins[w][usize::from(nb.in_deg[w])] = u as u8;
                    nb.in_deg[w] += 1;
                }
            }
        }
        nb
    }

    /// The fingerprint of this graph labelled with `ops`; see
    /// [`canonical_hash`].
    pub(crate) fn hash(&self, ops: &[Op]) -> u128 {
        let n = self.n;
        let mut hashes = [0u128; MAX_VERTICES];
        for (v, slot) in hashes[..n].iter_mut().enumerate() {
            // Reserved labels: input = 250, output = 251, interior = op label.
            let label = if v == 0 {
                250
            } else if v == n - 1 {
                251
            } else {
                ops[v - 1].label()
            };
            *slot = [self.in_deg[v], self.out_deg[v], label]
                .into_iter()
                .fold(FNV_OFFSET, feed_byte);
        }
        for _round in 0..n {
            let mut next = [0u128; MAX_VERTICES];
            for (v, slot) in next[..n].iter_mut().enumerate() {
                let ins = &self.ins[v][..usize::from(self.in_deg[v])];
                let outs = &self.outs[v][..usize::from(self.out_deg[v])];
                let h = feed(feed_neighbors(FNV_OFFSET, ins, &hashes), IN_END);
                let h = feed(feed_neighbors(h, outs, &hashes), OUT_END);
                *slot = feed(h, hashes[v]);
            }
            hashes = next;
        }
        feed_sorted(FNV_OFFSET, &mut hashes[..n])
    }
}

/// Computes the isomorphism-invariant fingerprint of a pruned cell.
///
/// `ops[i]` labels interior vertex `i + 1`; the input and output vertices use
/// reserved labels so they can never be confused with interior operations.
///
/// Two graphs that differ only by a topological-order-preserving relabeling
/// of interior vertices receive the same fingerprint; graphs with different
/// structure or labels receive different fingerprints with overwhelming
/// probability.
///
/// Each vertex hash of a round is one FNV-1a stream over the vertex's
/// sorted in-neighbour hashes, a separator, its sorted out-neighbour
/// hashes, a second separator and its own hash, every hash fed as 16
/// little-endian bytes. The work happens in fixed arrays: nothing is
/// allocated.
///
/// # Examples
///
/// ```
/// use codesign_nasbench::{AdjMatrix, Op};
/// use codesign_nasbench::canon::canonical_hash;
///
/// # fn main() -> Result<(), codesign_nasbench::SpecError> {
/// let a = AdjMatrix::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])?;
/// // Swap the two parallel branches: isomorphic graph, same hash.
/// let h1 = canonical_hash(&a, &[Op::Conv3x3, Op::Conv1x1]);
/// let h2 = canonical_hash(&a, &[Op::Conv1x1, Op::Conv3x3]);
/// assert_eq!(h1, h2);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn canonical_hash(matrix: &AdjMatrix, ops: &[Op]) -> u128 {
    Neighbors::of(matrix).hash(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NasbenchDatabase, SpecSampler};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// 128-bit FNV-1a over a byte slice.
    fn fnv128(bytes: &[u8]) -> u128 {
        let mut h = FNV_OFFSET;
        for &b in bytes {
            h ^= u128::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    fn mix(parts: &[u128]) -> u128 {
        let mut bytes = Vec::with_capacity(parts.len() * 16);
        for p in parts {
            bytes.extend_from_slice(&p.to_le_bytes());
        }
        fnv128(&bytes)
    }

    /// The original allocating implementation: per vertex and round it
    /// collects the parts into `Vec`s and their bytes into another `Vec`.
    /// [`canonical_hash`] must match it bit for bit.
    fn reference_canonical_hash(matrix: &AdjMatrix, ops: &[Op]) -> u128 {
        let n = matrix.num_vertices();
        let label = |v: usize| -> u8 {
            if v == 0 {
                250
            } else if v == n - 1 {
                251
            } else {
                ops[v - 1].label()
            }
        };
        let mut hashes: Vec<u128> = (0..n)
            .map(|v| {
                fnv128(&[
                    matrix.in_degree(v) as u8,
                    matrix.out_degree(v) as u8,
                    label(v),
                ])
            })
            .collect();
        for _round in 0..n {
            let mut next = Vec::with_capacity(n);
            for v in 0..n {
                let mut in_h: Vec<u128> = matrix
                    .in_neighbors(v)
                    .into_iter()
                    .map(|u| hashes[u])
                    .collect();
                let mut out_h: Vec<u128> = matrix
                    .out_neighbors(v)
                    .into_iter()
                    .map(|w| hashes[w])
                    .collect();
                in_h.sort_unstable();
                out_h.sort_unstable();
                let mut parts = Vec::with_capacity(in_h.len() + out_h.len() + 3);
                parts.extend_from_slice(&in_h);
                parts.push(u128::MAX); // separator
                parts.extend_from_slice(&out_h);
                parts.push(u128::MAX - 1); // separator
                parts.push(hashes[v]);
                next.push(mix(&parts));
            }
            hashes = next;
        }
        hashes.sort_unstable();
        mix(&hashes)
    }

    proptest! {
        #[test]
        fn hash_matches_reference_on_sampled_cells(seed in 0u64..u64::MAX) {
            let cell = SpecSampler::default().sample(&mut SmallRng::seed_from_u64(seed));
            let expected = reference_canonical_hash(cell.matrix(), cell.ops());
            prop_assert_eq!(canonical_hash(cell.matrix(), cell.ops()), expected);
            prop_assert_eq!(cell.canonical_hash(), expected);
        }
    }

    #[test]
    fn hash_matches_reference_on_every_exhaustive_5_cell() {
        let db = NasbenchDatabase::exhaustive(5);
        assert_eq!(db.len(), 2_532);
        for entry in db.iter() {
            let spec = &entry.spec;
            assert_eq!(
                spec.canonical_hash(),
                reference_canonical_hash(spec.matrix(), spec.ops()),
                "{spec:?}"
            );
        }
    }

    fn hash_edges(n: usize, edges: &[(usize, usize)], ops: &[Op]) -> u128 {
        let m = AdjMatrix::from_edges(n, edges).unwrap();
        canonical_hash(&m, ops)
    }

    #[test]
    fn different_structure_different_hash() {
        let chain = hash_edges(4, &[(0, 1), (1, 2), (2, 3)], &[Op::Conv3x3, Op::Conv3x3]);
        let skip = hash_edges(
            4,
            &[(0, 1), (1, 2), (2, 3), (0, 3)],
            &[Op::Conv3x3, Op::Conv3x3],
        );
        assert_ne!(chain, skip);
    }

    #[test]
    fn different_ops_different_hash() {
        let a = hash_edges(3, &[(0, 1), (1, 2)], &[Op::Conv3x3]);
        let b = hash_edges(3, &[(0, 1), (1, 2)], &[Op::Conv1x1]);
        let c = hash_edges(3, &[(0, 1), (1, 2)], &[Op::MaxPool3x3]);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn parallel_branch_swap_is_isomorphic() {
        // Diamond with two parallel interior vertices of different ops.
        let h1 = hash_edges(
            4,
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            &[Op::Conv3x3, Op::MaxPool3x3],
        );
        let h2 = hash_edges(
            4,
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            &[Op::MaxPool3x3, Op::Conv3x3],
        );
        assert_eq!(h1, h2);
    }

    #[test]
    fn non_isomorphic_labelings_of_asymmetric_graph_differ() {
        // v1 feeds v2: which vertex holds which op matters.
        let h1 = hash_edges(
            4,
            &[(0, 1), (1, 2), (2, 3), (0, 2)],
            &[Op::Conv3x3, Op::Conv1x1],
        );
        let h2 = hash_edges(
            4,
            &[(0, 1), (1, 2), (2, 3), (0, 2)],
            &[Op::Conv1x1, Op::Conv3x3],
        );
        assert_ne!(h1, h2);
    }

    #[test]
    fn input_output_labels_are_distinct_from_ops() {
        // A 2-vertex identity cell must not collide with any 3-vertex cell.
        let id = hash_edges(2, &[(0, 1)], &[]);
        for op in Op::ALL {
            let three = hash_edges(3, &[(0, 1), (1, 2)], &[op]);
            assert_ne!(id, three);
        }
    }

    #[test]
    fn hash_is_deterministic() {
        let h1 = hash_edges(
            5,
            &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
            &[Op::Conv3x3, Op::Conv1x1, Op::MaxPool3x3],
        );
        let h2 = hash_edges(
            5,
            &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
            &[Op::Conv3x3, Op::Conv1x1, Op::MaxPool3x3],
        );
        assert_eq!(h1, h2);
    }

    #[test]
    fn three_parallel_branches_permutation_invariance() {
        let edges = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)];
        let perms: [[Op; 3]; 3] = [
            [Op::Conv3x3, Op::Conv1x1, Op::MaxPool3x3],
            [Op::MaxPool3x3, Op::Conv3x3, Op::Conv1x1],
            [Op::Conv1x1, Op::MaxPool3x3, Op::Conv3x3],
        ];
        let hashes: Vec<u128> = perms.iter().map(|p| hash_edges(5, &edges, p)).collect();
        assert_eq!(hashes[0], hashes[1]);
        assert_eq!(hashes[1], hashes[2]);
    }
}
