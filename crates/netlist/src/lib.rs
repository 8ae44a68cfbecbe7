//! `netlist`: million-gate workloads on the [`desim`] event engine.
//!
//! The engine itself — the flat struct-of-arrays arena
//! ([`Netlist`] / [`SealedNetlist`], CSR fanout) and [`NetSim`] with
//! its calendar-wheel scheduler — lives in [`desim`], so every
//! gate-level circuit in the workspace runs on one event loop. This
//! crate holds what the large-scale runs add on top:
//!
//! * [`faults`] — [`sim_faults::FaultPlan`] compiled to packed
//!   per-gate fault words, applied in one batch pass;
//! * [`mesh`] — the 2-D wavefront mesh builder (1000×1000 fault
//!   sweeps).
//!
//! The engine types are re-exported here so large-scale callers need
//! only this crate's prelude.
//!
//! # Examples
//!
//! ```
//! use netlist::prelude::*;
//! use desim::time::SimTime;
//!
//! let mut nl = Netlist::new();
//! let a = nl.add_wire();
//! let b = nl.add_wire();
//! nl.add_inverter(a, b, SimTime::from_ps(100), SimTime::from_ps(120));
//! let mut sim = NetSim::from_netlist(nl);
//! sim.watch(b);
//! sim.schedule_input(a, SimTime::from_ps(50), true);
//! sim.run_until(SimTime::from_ps(1_000));
//! assert!(!sim.value(b));
//! assert_eq!(sim.transitions_ps(b), &[(170, false)]);
//! ```

pub mod faults;
pub mod mesh;

pub use desim::arena::{GateId, GateKind, Netlist, SealedNetlist, WireId};
pub use desim::engine::NetSim;

/// The crate's commonly used types.
pub mod prelude {
    pub use crate::faults::{gate_fault_words, inject_fault_words, FaultWord, InjectionSummary};
    pub use crate::mesh::{Mesh, MeshSpec, WaveOutcome};
    pub use desim::arena::{GateId, GateKind, Netlist, SealedNetlist, WireId};
    pub use desim::engine::NetSim;
}
