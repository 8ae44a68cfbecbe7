//! A deterministic discrete-event digital-circuit simulator.
//!
//! Built as the experimental substrate for reproducing Section VII of
//! Fisher & Kung, *Synchronizing Large VLSI Processor Arrays* (1983):
//! the 2048-inverter pipelined-clocking trial. The paper ran the
//! experiment on a physical nMOS chip; this crate substitutes a
//! gate-level simulation that models the same mechanisms —
//! distance-proportional propagation, asymmetric rise/fall delays,
//! pulse swallowing (inertial delay), and register setup/hold
//! violations — on one event engine laid out for million-gate
//! circuits.
//!
//! * [`time`] — integer picosecond simulation time;
//! * [`arena`] — the flat struct-of-arrays netlist: [`Netlist`]
//!   builder, [`SealedNetlist`] with its CSR fanout table;
//! * [`engine`] — [`NetSim`], the event loop: calendar-wheel
//!   scheduler, inertial delay, fault hooks, setup/hold checking,
//!   budgeted runs;
//! * [`chain`] — linear chains as data ([`ChainStage`]);
//! * [`inverter_string`] — the Section VII experiment harness:
//!   equipotential vs pipelined clocking of a long inverter string;
//! * [`one_shot_string`], [`clocked_chain`], [`muller`],
//!   [`stoppable_clock`] — the other gate-level circuits;
//! * [`faults`] — fault-plan injection and run classification;
//! * [`vcd`] — waveform export;
//! * [`stats`] — Gaussian sampling and summary statistics.
//!
//! [`Netlist`]: arena::Netlist
//! [`SealedNetlist`]: arena::SealedNetlist
//! [`NetSim`]: engine::NetSim
//! [`ChainStage`]: chain::ChainStage
//!
//! # Example: skew causes synchronization failure
//!
//! ```
//! use desim::prelude::*;
//!
//! let mut nl = Netlist::new();
//! let (d, clk, q) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
//! nl.add_register(d, clk, q,
//!     SimTime::from_ps(100), SimTime::from_ps(100), SimTime::from_ps(20));
//! let mut sim = NetSim::from_netlist(nl);
//! // Data arrives 30 ps before the clock edge: setup violated.
//! sim.schedule_input(d, SimTime::from_ps(470), true);
//! sim.schedule_input(clk, SimTime::from_ps(500), true);
//! sim.run_until(SimTime::from_ns(1));
//! assert_eq!(sim.violations().len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
pub mod chain;
pub mod clocked_chain;
pub mod engine;
pub mod faults;
pub mod inverter_string;
pub mod muller;
pub mod one_shot_string;
pub mod stats;
pub mod stoppable_clock;
pub mod time;
pub mod vcd;
mod wheel;

/// Convenient re-exports of the crate's primary items.
pub mod prelude {
    pub use crate::arena::{GateFn, GateId, GateKind, Netlist, SealedNetlist, WireId};
    pub use crate::chain::{build_chain, ChainStage};
    pub use crate::clocked_chain::{analytic_min_period, run_chain, ChainOutcome, ClockedChainSpec};
    pub use crate::engine::{
        EngineStats, Halt, NetSim, RunBudget, StillActiveError, TimingViolation, ViolationKind,
    };
    pub use crate::faults::{classify_run, inject_wire_faults};
    pub use crate::inverter_string::{
        fabrication_yield, fabrication_yield_par, InverterString, InverterStringResult,
        InverterStringSpec,
    };
    pub use crate::muller::{MullerPipeline, MullerRun};
    pub use crate::one_shot_string::{OneShotString, OneShotStringSpec};
    pub use crate::stats::{linear_fit, mean_std, sample_normal};
    pub use crate::time::{SimTime, TimeOverflowError};
    pub use crate::stoppable_clock::{add_stoppable_clock, StoppableClock};
    pub use crate::vcd::{export_vcd, VcdWriter};
}
