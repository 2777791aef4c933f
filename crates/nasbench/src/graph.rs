//! Upper-triangular adjacency matrices for cell DAGs.
//!
//! Cells in the NASBench-101 space are DAGs whose vertices are numbered in
//! topological order: vertex 0 is the cell input, the last vertex is the cell
//! output, and every edge points from a lower to a higher index. This module
//! provides the matrix representation plus the reachability and pruning
//! primitives the validation logic (see [`crate::CellSpec`]) is built on.

use crate::SpecError;

/// Maximum number of vertices per cell (input + output + 5 interior).
pub const MAX_VERTICES: usize = 7;

/// A strictly upper-triangular boolean adjacency matrix.
///
/// # Examples
///
/// ```
/// use codesign_nasbench::AdjMatrix;
///
/// # fn main() -> Result<(), codesign_nasbench::SpecError> {
/// // input -> v1 -> output, plus a skip connection input -> output
/// let m = AdjMatrix::from_edges(3, &[(0, 1), (1, 2), (0, 2)])?;
/// assert_eq!(m.num_vertices(), 3);
/// assert_eq!(m.num_edges(), 3);
/// assert!(m.has_edge(0, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AdjMatrix {
    vertices: u8,
    /// Bit `dst` of `rows[src]` is the edge `src -> dst`; only `src < dst`
    /// bits may be set. Fixed-size, so a matrix never allocates.
    rows: [u8; MAX_VERTICES],
}

impl AdjMatrix {
    /// Creates an empty (edge-free) matrix with `vertices` vertices.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::TooManyVertices`] above [`MAX_VERTICES`] and
    /// [`SpecError::TooFewVertices`] below 2.
    pub fn empty(vertices: usize) -> Result<Self, SpecError> {
        if vertices > MAX_VERTICES {
            return Err(SpecError::TooManyVertices {
                got: vertices,
                max: MAX_VERTICES,
            });
        }
        if vertices < 2 {
            return Err(SpecError::TooFewVertices { got: vertices });
        }
        Ok(Self {
            vertices: vertices as u8,
            rows: [0; MAX_VERTICES],
        })
    }

    /// Creates a matrix from an edge list.
    ///
    /// # Errors
    ///
    /// Propagates [`AdjMatrix::empty`] errors and returns
    /// [`SpecError::NotUpperTriangular`] / [`SpecError::EdgeOutOfBounds`] for
    /// malformed edges.
    pub fn from_edges(vertices: usize, edges: &[(usize, usize)]) -> Result<Self, SpecError> {
        let mut m = Self::empty(vertices)?;
        for &(src, dst) in edges {
            m.add_edge(src, dst)?;
        }
        Ok(m)
    }

    /// Creates a matrix from row-major `0/1` entries.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::NotUpperTriangular`] if any entry on or below the
    /// diagonal is set, and size errors as in [`AdjMatrix::empty`].
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not square.
    pub fn from_rows(rows: &[&[u8]]) -> Result<Self, SpecError> {
        let vertices = rows.len();
        let mut m = Self::empty(vertices)?;
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), vertices, "adjacency matrix must be square");
            for (j, &bit) in row.iter().enumerate() {
                if bit != 0 {
                    m.add_edge(i, j)?;
                }
            }
        }
        Ok(m)
    }

    /// Adds the edge `src -> dst`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::NotUpperTriangular`] when `src >= dst` and
    /// [`SpecError::EdgeOutOfBounds`] when either endpoint is out of range.
    pub fn add_edge(&mut self, src: usize, dst: usize) -> Result<(), SpecError> {
        if src >= self.num_vertices() || dst >= self.num_vertices() {
            return Err(SpecError::EdgeOutOfBounds {
                src,
                dst,
                vertices: self.num_vertices(),
            });
        }
        if src >= dst {
            return Err(SpecError::NotUpperTriangular { src, dst });
        }
        self.rows[src] |= 1 << dst;
        Ok(())
    }

    /// Number of vertices (including input and output).
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        usize::from(self.vertices)
    }

    /// Number of edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.rows.iter().map(|row| row.count_ones() as usize).sum()
    }

    /// Returns `true` when the edge `src -> dst` exists.
    #[must_use]
    pub fn has_edge(&self, src: usize, dst: usize) -> bool {
        src < self.num_vertices() && dst < self.num_vertices() && self.rows[src] >> dst & 1 == 1
    }

    /// Indices of vertices with an edge into `v`, ascending.
    #[must_use]
    pub fn in_neighbors(&self, v: usize) -> Vec<usize> {
        (0..self.num_vertices())
            .filter(|&u| self.has_edge(u, v))
            .collect()
    }

    /// Indices of vertices with an edge out of `v`, ascending.
    #[must_use]
    pub fn out_neighbors(&self, v: usize) -> Vec<usize> {
        (0..self.num_vertices())
            .filter(|&w| self.has_edge(v, w))
            .collect()
    }

    /// In-degree of `v`.
    #[must_use]
    pub fn in_degree(&self, v: usize) -> usize {
        (0..self.num_vertices())
            .filter(|&u| self.has_edge(u, v))
            .count()
    }

    /// Out-degree of `v`.
    #[must_use]
    pub fn out_degree(&self, v: usize) -> usize {
        (0..self.num_vertices())
            .filter(|&w| self.has_edge(v, w))
            .count()
    }

    /// Vertices reachable from vertex 0 (the input), as a membership mask.
    #[must_use]
    pub fn reachable_from_input(&self) -> Vec<bool> {
        let mut seen = vec![false; self.num_vertices()];
        seen[0] = true;
        // Topological order == index order, so one forward pass suffices.
        for v in 0..self.num_vertices() {
            if seen[v] {
                for w in self.out_neighbors(v) {
                    seen[w] = true;
                }
            }
        }
        seen
    }

    /// Vertices that can reach the output vertex, as a membership mask.
    #[must_use]
    pub fn reaching_output(&self) -> Vec<bool> {
        let last = self.num_vertices() - 1;
        let mut seen = vec![false; self.num_vertices()];
        seen[last] = true;
        for v in (0..self.num_vertices()).rev() {
            if seen[v] {
                for u in self.in_neighbors(v) {
                    seen[u] = true;
                }
            }
        }
        seen
    }

    /// Removes vertices that are not on any input→output path, compacting
    /// indices while preserving relative order. Returns the pruned matrix and
    /// the kept original indices.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Disconnected`] when the input cannot reach the
    /// output at all.
    pub fn prune(&self) -> Result<(AdjMatrix, Vec<usize>), SpecError> {
        let fwd = self.reachable_from_input();
        let bwd = self.reaching_output();
        let keep: Vec<usize> = (0..self.num_vertices())
            .filter(|&v| fwd[v] && bwd[v])
            .collect();
        // Input and output must both survive and be connected to each other.
        if !keep.contains(&0) || !keep.contains(&(self.num_vertices() - 1)) {
            return Err(SpecError::Disconnected);
        }
        if self.num_vertices() > 1 && !(fwd[self.num_vertices() - 1]) {
            return Err(SpecError::Disconnected);
        }
        let mut pruned = AdjMatrix::empty(keep.len())?;
        for (new_src, &old_src) in keep.iter().enumerate() {
            for (new_dst, &old_dst) in keep.iter().enumerate() {
                if self.has_edge(old_src, old_dst) {
                    pruned.add_edge(new_src, new_dst)?;
                }
            }
        }
        Ok((pruned, keep))
    }

    /// Length (in edges) of the longest input→output path.
    ///
    /// Returns 0 when the output is unreachable.
    #[must_use]
    pub fn longest_path(&self) -> usize {
        let mut dist = vec![usize::MAX; self.num_vertices()];
        dist[0] = 0;
        for v in 0..self.num_vertices() {
            if dist[v] == usize::MAX {
                continue;
            }
            for w in self.out_neighbors(v) {
                let cand = dist[v] + 1;
                if dist[w] == usize::MAX || cand > dist[w] {
                    dist[w] = cand;
                }
            }
        }
        match dist[self.num_vertices() - 1] {
            usize::MAX => 0,
            d => d,
        }
    }

    /// Maximum number of vertices that share the same longest-path depth —
    /// a cheap proxy for how parallel (wide) the cell is.
    #[must_use]
    pub fn max_width(&self) -> usize {
        let mut depth = vec![0usize; self.num_vertices()];
        for v in 0..self.num_vertices() {
            for w in self.out_neighbors(v) {
                depth[w] = depth[w].max(depth[v] + 1);
            }
        }
        let mut counts = std::collections::HashMap::new();
        for (v, d) in depth.iter().enumerate() {
            // Only interior vertices contribute to width.
            if v != 0 && v != self.num_vertices() - 1 {
                *counts.entry(*d).or_insert(0usize) += 1;
            }
        }
        counts.values().copied().max().unwrap_or(0)
    }

    /// Row-major `0/1` rendering, useful for debugging and persistence.
    #[must_use]
    pub fn to_rows(&self) -> Vec<Vec<u8>> {
        (0..self.num_vertices())
            .map(|i| {
                (0..self.num_vertices())
                    .map(|j| u8::from(self.has_edge(i, j)))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> AdjMatrix {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        AdjMatrix::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn empty_matrix_bounds() {
        assert!(AdjMatrix::empty(1).is_err());
        assert!(AdjMatrix::empty(2).is_ok());
        assert!(AdjMatrix::empty(7).is_ok());
        assert!(AdjMatrix::empty(8).is_err());
    }

    #[test]
    fn rejects_lower_triangular_edges() {
        let mut m = AdjMatrix::empty(3).unwrap();
        assert_eq!(
            m.add_edge(2, 1),
            Err(SpecError::NotUpperTriangular { src: 2, dst: 1 })
        );
        assert_eq!(
            m.add_edge(1, 1),
            Err(SpecError::NotUpperTriangular { src: 1, dst: 1 })
        );
    }

    #[test]
    fn rejects_out_of_bounds_edges() {
        let mut m = AdjMatrix::empty(3).unwrap();
        assert!(matches!(
            m.add_edge(0, 5),
            Err(SpecError::EdgeOutOfBounds { .. })
        ));
    }

    #[test]
    fn neighbors_and_degrees() {
        let m = AdjMatrix::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        assert_eq!(m.out_neighbors(0), vec![1, 2]);
        assert_eq!(m.in_neighbors(3), vec![1, 2]);
        assert_eq!(m.in_degree(3), 2);
        assert_eq!(m.out_degree(0), 2);
    }

    #[test]
    fn reachability_masks() {
        // Vertex 2 dangles: reachable from input but cannot reach output.
        let m = AdjMatrix::from_edges(4, &[(0, 1), (1, 3), (0, 2)]).unwrap();
        assert_eq!(m.reachable_from_input(), vec![true, true, true, true]);
        assert_eq!(m.reaching_output(), vec![true, true, false, true]);
    }

    #[test]
    fn prune_removes_dangling_vertices() {
        let m = AdjMatrix::from_edges(4, &[(0, 1), (1, 3), (0, 2)]).unwrap();
        let (pruned, kept) = m.prune().unwrap();
        assert_eq!(kept, vec![0, 1, 3]);
        assert_eq!(pruned.num_vertices(), 3);
        assert_eq!(pruned.num_edges(), 2);
        assert!(pruned.has_edge(0, 1) && pruned.has_edge(1, 2));
    }

    #[test]
    fn prune_detects_disconnection() {
        let m = AdjMatrix::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(m.prune().unwrap_err(), SpecError::Disconnected);
    }

    #[test]
    fn prune_keeps_fully_connected_graph_intact() {
        let m = chain(5);
        let (pruned, kept) = m.prune().unwrap();
        assert_eq!(kept.len(), 5);
        assert_eq!(pruned, m);
    }

    #[test]
    fn longest_path_on_diamond() {
        let m = AdjMatrix::from_edges(4, &[(0, 1), (1, 3), (0, 3), (0, 2), (2, 3)]).unwrap();
        assert_eq!(m.longest_path(), 2);
        assert_eq!(chain(6).longest_path(), 5);
    }

    #[test]
    fn longest_path_zero_when_disconnected() {
        let m = AdjMatrix::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(m.longest_path(), 0);
    }

    #[test]
    fn width_of_parallel_branches() {
        // input feeds three parallel interior vertices joined at output.
        let m =
            AdjMatrix::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]).unwrap();
        assert_eq!(m.max_width(), 3);
        assert_eq!(chain(4).max_width(), 1);
    }

    #[test]
    fn rows_roundtrip() {
        let m = AdjMatrix::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let rows = m.to_rows();
        let rows_ref: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
        let back = AdjMatrix::from_rows(&rows_ref).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn from_rows_rejects_diagonal() {
        let err = AdjMatrix::from_rows(&[&[1, 0], &[0, 0]]).unwrap_err();
        assert!(matches!(err, SpecError::NotUpperTriangular { .. }));
    }
}
