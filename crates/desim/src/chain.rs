//! The shared chain-topology builder: one source of truth for every
//! linear gate string in the workspace.
//!
//! Three experiment harnesses build long chains — [`inverter_string`]
//! (inverters), [`one_shot_string`] (one-shot pulse buffers), and
//! [`clocked_chain`] (the buffered clock spine) — and the million-gate
//! runs rebuild the same strings at scale. Rather than each
//! hand-rolling its own `for` loop over `add_<gate>`, a chain is
//! described as data ([`ChainStage`]) and instantiated into a
//! [`Netlist`] by [`build_chain`].
//!
//! [`inverter_string`]: crate::inverter_string
//! [`one_shot_string`]: crate::one_shot_string
//! [`clocked_chain`]: crate::clocked_chain

use crate::arena::{Netlist, WireId};
use crate::time::SimTime;

/// One stage of a linear chain, as pure data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainStage {
    /// An inverting stage with separate output-rise / output-fall
    /// delays.
    Inverter {
        /// Delay of an output-rising transition.
        rise: SimTime,
        /// Delay of an output-falling transition.
        fall: SimTime,
    },
    /// A non-inverting buffer stage.
    Buffer {
        /// Delay of an output-rising transition.
        rise: SimTime,
        /// Delay of an output-falling transition.
        fall: SimTime,
    },
    /// A one-shot pulse buffer: fires a fixed-width pulse on each
    /// rising input edge.
    OneShot {
        /// Input-to-output propagation delay.
        delay: SimTime,
        /// The wired-in width of the regenerated pulse.
        pulse_width: SimTime,
    },
}

/// Builds a linear chain of `stages` into `nl` and returns every wire
/// along it: element 0 is the chain input, element `k + 1` the output
/// of stage `k` (so the last element is the far end).
///
/// Wires are allocated in chain order and stages instantiated in chain
/// order, so a chain's wire ids are dense and ascending from its input.
pub fn build_chain(nl: &mut Netlist, stages: &[ChainStage]) -> Vec<WireId> {
    let mut nodes = Vec::with_capacity(stages.len() + 1);
    let mut prev = nl.add_wire();
    nodes.push(prev);
    for &stage in stages {
        let out = nl.add_wire();
        match stage {
            ChainStage::Inverter { rise, fall } => nl.add_inverter(prev, out, rise, fall),
            ChainStage::Buffer { rise, fall } => nl.add_buffer(prev, out, rise, fall),
            ChainStage::OneShot { delay, pulse_width } => {
                nl.add_one_shot(prev, out, delay, pulse_width)
            }
        };
        nodes.push(out);
        prev = out;
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NetSim;

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    #[test]
    fn builds_an_inverter_chain() {
        let mut nl = Netlist::new();
        let stages = vec![
            ChainStage::Inverter {
                rise: ps(100),
                fall: ps(100),
            };
            4
        ];
        let nodes = build_chain(&mut nl, &stages);
        assert_eq!(nodes.len(), 5);
        assert_eq!((nl.n_gates(), nl.n_wires()), (4, 5));
        let mut sim = NetSim::from_netlist(nl);
        sim.watch(nodes[4]);
        sim.schedule_input(nodes[0], ps(10), true);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        // Four inverters: the rising edge arrives inverted twice twice,
        // i.e. as a rising edge, 400 ps later.
        assert_eq!(sim.transitions(nodes[4]), &[(ps(410), true)]);
    }

    #[test]
    fn mixed_stages_instantiate_in_order() {
        let mut nl = Netlist::new();
        let stages = [
            ChainStage::Buffer {
                rise: ps(50),
                fall: ps(50),
            },
            ChainStage::OneShot {
                delay: ps(30),
                pulse_width: ps(200),
            },
        ];
        let nodes = build_chain(&mut nl, &stages);
        let mut sim = NetSim::from_netlist(nl);
        sim.watch(nodes[2]);
        sim.schedule_input(nodes[0], ps(10), true);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        // Buffer then one-shot: pulse rises at 10+50+30, falls 200 later.
        assert_eq!(
            sim.transitions(nodes[2]),
            &[(ps(90), true), (ps(290), false)]
        );
    }
}
