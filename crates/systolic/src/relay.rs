//! Running algorithms on graphs with pipeline relay registers
//! (Section VIII's concluding construction).
//!
//! The paper: for acyclic COMM graphs whose same-level edge lengths
//! are within a bounded ratio, "pipeline registers can be added on the
//! long edges, with the same number of registers on all of the edges
//! in a given level. This makes all wires have bounded length, thus
//! causing the time needed for a cell to operate and pass on its
//! results to be independent of the size of the tree."
//!
//! [`Relayed`] adapts a *latency-insensitive* [`ArrayAlgorithm`] (one
//! whose cells react to data presence, not to absolute cycle numbers —
//! the tree machine qualifies) to a
//! [`SubdividedComm`]: original
//! cells run the inner algorithm unchanged, relay cells forward their
//! single input one hop per cycle, exactly like a pipeline register.

use crate::exec::{ArrayAlgorithm, Item};
use array_layout::graph::{CellId, SubdividedComm};

/// Adapter running an algorithm on a register-subdivided graph.
///
/// # Examples
///
/// The tree machine still answers correctly — at the same one-query-
/// per-cycle throughput — when its H-tree wires carry pipeline
/// registers:
///
/// ```
/// use array_layout::prelude::*;
/// use systolic::prelude::*;
/// use systolic::relay::Relayed;
///
/// let keys = [1, 3, 5, 7];
/// let queries = [3, 4];
/// let mut machine = TreeSearchMachine::new(&keys, &queries);
/// let layout = Layout::htree_tree(machine.comm());
/// let plan = layout.pipeline_register_plan(2.0);
/// let sub = machine.comm().subdivided(&plan);
/// let mut exec = IdealExecutor::new(&sub.graph);
/// let mut relayed = Relayed::new(machine, &sub);
/// for _ in 0..64 { exec.cycle(&mut relayed); }
/// assert_eq!(relayed.inner().answers(), &[true, false]);
/// ```
#[derive(Debug, Clone)]
pub struct Relayed<A> {
    inner: A,
    original_cells: usize,
}

impl<A: ArrayAlgorithm> Relayed<A> {
    /// Wraps `inner` for execution on `sub`.
    #[must_use]
    pub fn new(inner: A, sub: &SubdividedComm) -> Self {
        Relayed {
            inner,
            original_cells: sub.original_cells,
        }
    }

    /// The wrapped algorithm (to collect its host-side outputs).
    #[must_use]
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Unwraps the adapter.
    #[must_use]
    pub fn into_inner(self) -> A {
        self.inner
    }
}

impl<A: ArrayAlgorithm> ArrayAlgorithm for Relayed<A> {
    fn step_cell(&mut self, cell: CellId, cycle: usize, inputs: &[Item], outputs: &mut [Item]) {
        if cell.index() < self.original_cells {
            self.inner.step_cell(cell, cycle, inputs, outputs);
        } else {
            // A pipeline register: forward the single input.
            outputs[0] = inputs[0];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::tree_machine::TreeSearchMachine;
    use crate::exec::IdealExecutor;
    use array_layout::layout::Layout;

    fn run_relayed(keys: &[i64], queries: &[i64], spacing: f64) -> (Vec<bool>, usize) {
        let machine = TreeSearchMachine::new(keys, queries);
        let layout = Layout::htree_tree(machine.comm());
        let plan = layout.pipeline_register_plan(spacing);
        let relays: usize = plan.iter().sum();
        let sub = machine.comm().subdivided(&plan);
        let mut exec = IdealExecutor::new(&sub.graph);
        let mut relayed = Relayed::new(machine, &sub);
        // Generous cycle budget: latency grows with the relays.
        let cycles = 8 * (sub.graph.node_count() + queries.len() + 4);
        exec.run(&mut relayed, cycles);
        (relayed.into_inner().answers().to_vec(), relays)
    }

    #[test]
    fn tree_machine_correct_with_registers() {
        let keys: Vec<i64> = (0..16).map(|i| 2 * i).collect();
        let queries: Vec<i64> = (0..20).collect();
        let expected = TreeSearchMachine::search(&keys, &queries);
        let (answers, relays) = run_relayed(&keys, &queries, 2.0);
        assert!(relays > 0, "H-tree must need registers at spacing 2");
        assert_eq!(answers, expected);
    }

    #[test]
    fn tighter_spacing_means_more_registers_same_answers() {
        let keys: Vec<i64> = (0..8).map(|i| 3 * i).collect();
        let queries: Vec<i64> = (0..15).collect();
        let expected = TreeSearchMachine::search(&keys, &queries);
        let (a_coarse, r_coarse) = run_relayed(&keys, &queries, 4.0);
        let (a_fine, r_fine) = run_relayed(&keys, &queries, 1.0);
        assert_eq!(a_coarse, expected);
        assert_eq!(a_fine, expected);
        assert!(r_fine > r_coarse, "{r_fine} vs {r_coarse}");
    }

    #[test]
    fn register_plan_uniform_per_level_on_htrees() {
        // "the same number of registers on all of the edges in a
        // given level" falls out of the H-tree's symmetric lengths.
        let comm = array_layout::graph::CommGraph::complete_binary_tree(6);
        let layout = Layout::htree_tree(&comm);
        let plan = layout.pipeline_register_plan(2.0);
        // Group downward edges by the depth of their source node.
        let mut by_level: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        let depth_of = |mut i: usize| {
            let mut d = 0;
            while i > 0 {
                i = (i - 1) / 2;
                d += 1;
            }
            d
        };
        for (e, edge) in comm.edges().iter().enumerate() {
            if edge.src < edge.dst {
                by_level
                    .entry(depth_of(edge.src.index()))
                    .or_default()
                    .push(plan[e]);
            }
        }
        for (level, counts) in &by_level {
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "level {level}: register counts differ: {counts:?}"
            );
        }
        // And deeper levels need no more registers than the root.
        let firsts: Vec<usize> = by_level.values().map(|v| v[0]).collect();
        assert!(firsts.windows(2).all(|w| w[0] >= w[1]), "{firsts:?}");
    }

    #[test]
    fn zero_register_plan_reduces_to_plain_execution() {
        let keys = [1, 2, 3, 4];
        let queries = [2, 9];
        let machine = TreeSearchMachine::new(&keys, &queries);
        let comm = machine.comm().clone();
        let sub = comm.subdivided(&vec![0; comm.edge_count()]);
        let mut exec = IdealExecutor::new(&sub.graph);
        let mut relayed = Relayed::new(machine, &sub);
        let cycles = 32;
        exec.run(&mut relayed, cycles);
        assert_eq!(
            relayed.inner().answers(),
            TreeSearchMachine::search(&keys, &queries)
        );
    }
}
