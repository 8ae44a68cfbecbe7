//! Bisection width of communication graphs (Lemma 4, Theorem 6).
//!
//! The paper's lower bound on two-dimensional clock skew rests on a
//! graph-theoretic quantity: the **minimum bisection width** `W(N)` —
//! the number of edges that must be cut to split a graph into two
//! roughly equal halves. Lemma 4 (Lipton–Eisenstat–DeMillo) says an
//! `n × n` mesh needs `Ω(n)` cuts; Theorem 6 turns any `W(N)` bound
//! into a clock-skew bound `σ = Ω(W(N))`.
//!
//! This module provides:
//!
//! * [`known_bisection_width`] — closed-form widths for the standard
//!   topologies (used as ground truth in experiments);
//! * [`estimate_bisection`] — a seeded randomized local-search
//!   partitioner giving an *upper bound* on the minimum bisection of an
//!   arbitrary graph (the true minimum is NP-hard).

use crate::graph::{CellId, CommGraph, Topology};
use sim_runtime::{SimRng, SliceRandom};

/// Closed-form minimum bisection width of the standard topologies,
/// counting undirected communication links.
///
/// Returns `None` for [`Topology::Custom`] graphs, whose width must be
/// estimated.
///
/// # Examples
///
/// ```
/// use array_layout::graph::CommGraph;
/// use array_layout::bisection::known_bisection_width;
///
/// let mesh = CommGraph::mesh(8, 8);
/// assert_eq!(known_bisection_width(&mesh), Some(8));
/// let tree = CommGraph::complete_binary_tree(5);
/// assert_eq!(known_bisection_width(&tree), Some(1));
/// ```
#[must_use]
pub fn known_bisection_width(comm: &CommGraph) -> Option<usize> {
    Some(match comm.topology() {
        Topology::Linear { n } => usize::from(n > 1),
        Topology::Ring { .. } => 2,
        // Cutting an r × c mesh across the shorter dimension severs
        // min(r, c) links.
        Topology::Mesh { rows, cols } => rows.min(cols),
        // A torus wraps, so any bisecting cut crosses twice.
        Topology::Torus { rows, cols } => 2 * rows.min(cols),
        // The hex array adds one diagonal per mesh square; a straight
        // cut across the shorter dimension severs the min(r,c) mesh
        // links plus min(r,c) - 1 diagonals.
        Topology::Hex { rows, cols } => 2 * rows.min(cols) - 1,
        // Removing one child edge of the root leaves subtrees of
        // (N-1)/2 and (N+1)/2 nodes.
        Topology::BinaryTree { .. } => 1,
        Topology::Custom => return None,
    })
}

/// A balanced two-way partition of a graph together with its cut size.
#[derive(Debug, Clone)]
pub struct Bisection {
    /// `side[i]` is `true` when cell `i` is in part B.
    side: Vec<bool>,
    cut: usize,
}

impl Bisection {
    /// Number of undirected communication links crossing the cut.
    #[must_use]
    pub fn cut_size(&self) -> usize {
        self.cut
    }

    /// Sizes of the two parts `(|A|, |B|)`.
    #[must_use]
    pub fn part_sizes(&self) -> (usize, usize) {
        let b = self.side.iter().filter(|&&s| s).count();
        (self.side.len() - b, b)
    }
}

/// Estimates the minimum bisection width of `comm` by seeded randomized
/// local search (greedy balanced swaps with restarts), returning the
/// best balanced partition found.
///
/// The result is an **upper bound** on the true minimum bisection
/// width; with a handful of restarts it is exact for the small regular
/// graphs used in the experiments.
///
/// # Examples
///
/// ```
/// use array_layout::graph::CommGraph;
/// use array_layout::bisection::estimate_bisection;
///
/// let linear = CommGraph::linear(16);
/// let b = estimate_bisection(&linear, 4, 7);
/// assert_eq!(b.cut_size(), 1);
/// ```
#[must_use]
pub fn estimate_bisection(comm: &CommGraph, restarts: usize, seed: u64) -> Bisection {
    let n = comm.node_count();
    if n < 2 {
        return Bisection {
            side: vec![false; n],
            cut: 0,
        };
    }
    let pairs = comm.communicating_pairs();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut best: Option<Bisection> = None;
    for _ in 0..restarts.max(1) {
        let candidate = local_search(comm, &pairs, &mut rng);
        if best
            .as_ref()
            .is_none_or(|b| candidate.cut < b.cut)
        {
            best = Some(candidate);
        }
    }
    best.expect("at least one restart ran")
}

fn cut_of(side: &[bool], pairs: &[(CellId, CellId)]) -> usize {
    pairs
        .iter()
        .filter(|(a, b)| side[a.index()] != side[b.index()])
        .count()
}

/// One Kernighan–Lin run from a random balanced start.
///
/// Each pass tentatively swaps the best remaining (A, B) pair — even at
/// negative gain — locks both nodes, and finally commits the prefix of
/// swaps with the best cumulative gain. Passes repeat until no pass
/// improves the cut. This escapes the zero-gain plateaus that defeat
/// plain greedy swapping (e.g. a path split into three runs).
fn local_search(
    comm: &CommGraph,
    pairs: &[(CellId, CellId)],
    rng: &mut SimRng,
) -> Bisection {
    let n = comm.node_count();
    // Random balanced start.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut side = vec![false; n];
    for &i in order.iter().take(n / 2) {
        side[i] = true;
    }
    let neighbor_lists: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            comm.undirected_neighbors(CellId::new(i))
                .into_iter()
                .map(CellId::index)
                .collect()
        })
        .collect();
    let adjacent = |a: usize, b: usize| neighbor_lists[a].contains(&b);

    loop {
        // D[v] = external − internal degree under the current sides.
        let mut d = vec![0i64; n];
        for (v, dv) in d.iter_mut().enumerate() {
            for &u in &neighbor_lists[v] {
                *dv += if side[u] != side[v] { 1 } else { -1 };
            }
        }
        let mut locked = vec![false; n];
        let mut tentative_side = side.clone();
        let mut swaps: Vec<(usize, usize, i64)> = Vec::new();
        let pair_steps = n / 2;
        for _ in 0..pair_steps {
            // Best unlocked pair; restrict the scan to the highest-D
            // candidates on each side for speed.
            let mut a_cands: Vec<usize> =
                (0..n).filter(|&v| !locked[v] && !tentative_side[v]).collect();
            let mut b_cands: Vec<usize> =
                (0..n).filter(|&v| !locked[v] && tentative_side[v]).collect();
            if a_cands.is_empty() || b_cands.is_empty() {
                break;
            }
            a_cands.sort_unstable_by_key(|&v| -d[v]);
            b_cands.sort_unstable_by_key(|&v| -d[v]);
            a_cands.truncate(12);
            b_cands.truncate(12);
            let mut best: Option<(usize, usize, i64)> = None;
            for &a in &a_cands {
                for &b in &b_cands {
                    let g = d[a] + d[b] - if adjacent(a, b) { 2 } else { 0 };
                    if best.is_none_or(|(_, _, bg)| g > bg) {
                        best = Some((a, b, g));
                    }
                }
            }
            let (a, b, g) = best.expect("candidate lists are non-empty");
            // Tentatively swap and update D for unlocked nodes.
            tentative_side[a] = true;
            tentative_side[b] = false;
            locked[a] = true;
            locked[b] = true;
            for v in 0..n {
                if locked[v] {
                    continue;
                }
                let (wa, wb) = (
                    i64::from(adjacent(v, a)),
                    i64::from(adjacent(v, b)),
                );
                // After a moves to B and b moves to A, links from an
                // A-side v to a become external, to b internal (and
                // symmetrically for B-side v).
                if !tentative_side[v] {
                    d[v] += 2 * wa - 2 * wb;
                } else {
                    d[v] += 2 * wb - 2 * wa;
                }
            }
            swaps.push((a, b, g));
        }
        // Best prefix of the tentative swap sequence.
        let mut best_prefix = 0usize;
        let mut best_gain = 0i64;
        let mut running = 0i64;
        for (k, &(_, _, g)) in swaps.iter().enumerate() {
            running += g;
            if running > best_gain {
                best_gain = running;
                best_prefix = k + 1;
            }
        }
        if best_gain <= 0 {
            break;
        }
        for &(a, b, _) in swaps.iter().take(best_prefix) {
            side[a] = true;
            side[b] = false;
        }
    }
    let cut = cut_of(&side, pairs);
    Bisection { side, cut }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_widths_match_structure() {
        assert_eq!(
            known_bisection_width(&CommGraph::linear(10)),
            Some(1)
        );
        assert_eq!(known_bisection_width(&CommGraph::linear(1)), Some(0));
        assert_eq!(known_bisection_width(&CommGraph::ring(8)), Some(2));
        assert_eq!(known_bisection_width(&CommGraph::mesh(6, 6)), Some(6));
        assert_eq!(known_bisection_width(&CommGraph::mesh(4, 9)), Some(4));
        assert_eq!(known_bisection_width(&CommGraph::torus(5, 5)), Some(10));
        assert_eq!(known_bisection_width(&CommGraph::hex(4, 4)), Some(7));
        assert_eq!(
            known_bisection_width(&CommGraph::complete_binary_tree(6)),
            Some(1)
        );
    }

    #[test]
    fn estimate_finds_linear_cut() {
        let g = CommGraph::linear(20);
        let b = estimate_bisection(&g, 6, 1);
        assert_eq!(b.cut_size(), 1);
        let (a, bb) = b.part_sizes();
        assert_eq!(a + bb, 20);
        assert_eq!(a, 10);
    }

    #[test]
    fn estimate_finds_tree_cut() {
        let g = CommGraph::complete_binary_tree(5);
        let b = estimate_bisection(&g, 8, 2);
        // Optimal is 1; local search should find at most a few.
        assert!(b.cut_size() <= 3, "cut {}", b.cut_size());
    }

    #[test]
    fn estimate_on_mesh_respects_lower_bound() {
        let g = CommGraph::mesh(6, 6);
        let b = estimate_bisection(&g, 8, 3);
        // The estimate is an upper bound on the minimum (6) and can
        // never beat it.
        assert!(b.cut_size() >= 6, "cut {}", b.cut_size());
        assert!(b.cut_size() <= 12, "cut {}", b.cut_size());
        let (pa, pb) = b.part_sizes();
        assert_eq!(pa, 18);
        assert_eq!(pb, 18);
    }

    #[test]
    fn estimate_is_deterministic_for_seed() {
        let g = CommGraph::mesh(5, 5);
        let b1 = estimate_bisection(&g, 4, 42);
        let b2 = estimate_bisection(&g, 4, 42);
        assert_eq!(b1.cut_size(), b2.cut_size());
    }

    #[test]
    fn estimate_handles_tiny_graphs() {
        let g = CommGraph::linear(1);
        let b = estimate_bisection(&g, 3, 0);
        assert_eq!(b.cut_size(), 0);
        let g2 = CommGraph::linear(2);
        let b2 = estimate_bisection(&g2, 3, 0);
        assert_eq!(b2.cut_size(), 1);
    }

    #[test]
    fn mesh_cut_grows_with_n() {
        // The paper's Lemma 4: bisection width of an n×n mesh is Ω(n).
        let mut prev = 0;
        for n in [4, 8, 12] {
            let g = CommGraph::mesh(n, n);
            let b = estimate_bisection(&g, 6, 9);
            assert!(b.cut_size() >= n, "n={n}: cut {}", b.cut_size());
            assert!(b.cut_size() >= prev);
            prev = b.cut_size();
        }
    }
}
