//! Gate-level fault injection and run-outcome classification.
//!
//! Bridges a [`sim_faults::FaultPlan`] to the event engine:
//! [`inject_wire_faults`] walks a set of candidate wires, asks the
//! plan for each one's fate, and applies it through the engine's fault
//! hooks ([`NetSim::pin_wire`], [`NetSim::schedule_upset`],
//! [`NetSim::scale_wire_delay`]). [`classify_run`] turns the
//! watchdog's [`Halt`] plus the caller's completion check into a
//! structured [`RunOutcome`] — the form every fault-injected trial
//! must terminate in.

use crate::arena::WireId;
use crate::engine::{Halt, NetSim};
use crate::time::SimTime;
use sim_faults::{FaultPlan, GateFault, RunOutcome};

/// Applies the plan's gate faults to `wires`, using each wire's dense
/// index as its fault-plan site id. Transient upsets land at
/// `window * at_frac` (clamped to the simulated present). Returns the
/// number of faults injected.
///
/// Call once after building the circuit and before running it; with a
/// disabled plan this is a no-op.
pub fn inject_wire_faults(
    sim: &mut NetSim,
    plan: &FaultPlan,
    wires: &[WireId],
    window: SimTime,
) -> u64 {
    if !plan.is_enabled() {
        return 0;
    }
    let mut injected = 0;
    for &wire in wires {
        match plan.gate_fault(wire.index() as u64) {
            Some(GateFault::StuckAt(v)) => {
                sim.pin_wire(wire, v);
                injected += 1;
            }
            Some(GateFault::Transient { at_frac }) => {
                let at = SimTime::from_ps(
                    ((window.as_ps() as f64) * at_frac) as u64,
                )
                .max(sim.now());
                sim.schedule_upset(wire, at);
                injected += 1;
            }
            Some(GateFault::Delay { scale_pct }) => {
                sim.scale_wire_delay(wire, scale_pct);
                injected += 1;
            }
            None => {}
        }
    }
    injected
}

/// Classifies a watchdog-supervised run: recorded setup/hold
/// violations dominate; otherwise a quiescent circuit whose workload
/// finished is [`RunOutcome::Ok`], a quiescent circuit with pending
/// obligations (`done == false`) is a [`RunOutcome::Deadlock`], and an
/// exhausted sim-time or event budget is [`RunOutcome::Budget`]
/// (livelock or "too slow to count as working").
#[must_use]
pub fn classify_run(sim: &NetSim, halt: Halt, done: bool) -> RunOutcome {
    if !sim.violations().is_empty() {
        return RunOutcome::TimingViolation;
    }
    match halt {
        Halt::Quiescent { .. } if done => RunOutcome::Ok,
        Halt::Quiescent { .. } => RunOutcome::Deadlock,
        Halt::SimLimit { .. } | Halt::EventLimit { .. } => RunOutcome::Budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Netlist;
    use crate::engine::RunBudget;
    use sim_faults::FaultRates;

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    /// A clean inverter chain, ready for stimulus.
    fn chain(n: usize) -> (NetSim, Vec<WireId>) {
        let mut nl = Netlist::new();
        let wires: Vec<WireId> = (0..n).map(|_| nl.add_wire()).collect();
        for w in wires.windows(2) {
            nl.add_inverter(w[0], w[1], ps(100), ps(100));
        }
        (NetSim::from_netlist(nl), wires)
    }

    #[test]
    fn stuck_at_pin_blocks_all_later_drivers() {
        let (mut sim, wires) = chain(4);
        sim.pin_wire(wires[1], true);
        sim.schedule_input(wires[0], ps(500), true);
        sim.run_to_quiescence(ps(100_000)).expect("settles");
        // wires[1] would normally go low (inverted high input) — it is
        // pinned high instead, and the chain repeats from there.
        assert!(sim.value(wires[1]));
        assert!(!sim.value(wires[2]));
        assert!(sim.value(wires[3]));
        assert!(sim.stats().faults_injected >= 1);
    }

    #[test]
    fn upset_flips_and_circuit_reacts() {
        let (mut sim, wires) = chain(3);
        sim.watch(wires[2]);
        // No input stimulus at all; the SEU is the only activity.
        sim.schedule_upset(wires[0], ps(1_000));
        sim.run_to_quiescence(ps(100_000)).expect("settles");
        assert!(sim.value(wires[0]), "upset flipped the wire");
        // Chain parity: wire 2 follows wire 0 after 200 ps.
        assert_eq!(sim.transitions(wires[2]), &[(ps(1_200), true)]);
        assert_eq!(sim.stats().faults_injected, 1);
    }

    #[test]
    fn delay_fault_stretches_propagation() {
        let (mut sim, wires) = chain(2);
        sim.watch(wires[1]);
        sim.scale_wire_delay(wires[1], 300); // 3x nominal
        sim.schedule_input(wires[0], ps(1_000), true);
        sim.run_to_quiescence(ps(100_000)).expect("settles");
        assert_eq!(sim.transitions(wires[1]), &[(ps(1_300), false)]);
    }

    #[test]
    fn budgeted_run_classifies_quiescent_done_as_ok() {
        let (mut sim, wires) = chain(3);
        sim.schedule_input(wires[0], ps(100), true);
        let halt = sim.run_budgeted(RunBudget::new(ps(100_000), 1_000));
        assert!(matches!(halt, Halt::Quiescent { .. }));
        let done = sim.value(wires[2]); // workload: the edge arrived
        assert_eq!(classify_run(&sim, halt, done), RunOutcome::Ok);
    }

    #[test]
    fn watchdog_classifies_stalled_rendezvous_as_deadlock() {
        // A C-element rendezvous whose second input is stuck low: the
        // request propagates, the acknowledge never forms, the circuit
        // quiesces with the obligation unmet — a deadlock, detected
        // and classified instead of hanging.
        let mut nl = Netlist::new();
        let (req, peer, ack) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
        nl.add_c_element(req, peer, ack, ps(50));
        let mut sim = NetSim::from_netlist(nl);
        sim.pin_wire(peer, false); // the lost transition
        sim.schedule_input(req, ps(100), true);
        let halt = sim.run_budgeted(RunBudget::new(ps(1_000_000), 10_000));
        assert!(matches!(halt, Halt::Quiescent { .. }));
        let done = sim.value(ack); // obligation: the ack must rise
        assert_eq!(classify_run(&sim, halt, done), RunOutcome::Deadlock);
    }

    #[test]
    fn watchdog_classifies_oscillation_as_budget() {
        // A free-running clock never quiesces: the event budget trips.
        let (mut sim, wires) = chain(1);
        sim.schedule_clock(wires[0], ps(0), ps(1_000), ps(500), 100_000);
        let halt = sim.run_budgeted(RunBudget::new(ps(u64::MAX / 2), 500));
        assert!(matches!(halt, Halt::EventLimit { .. }));
        assert_eq!(classify_run(&sim, halt, false), RunOutcome::Budget);
        // And a sim-time budget trips on its own.
        let (mut sim, wires) = chain(1);
        sim.schedule_clock(wires[0], ps(0), ps(1_000), ps(500), 100_000);
        let halt = sim.run_budgeted(RunBudget::new(ps(10_000), u64::MAX));
        assert!(matches!(halt, Halt::SimLimit { .. }));
        assert_eq!(classify_run(&sim, halt, false), RunOutcome::Budget);
    }

    #[test]
    fn timing_violations_dominate_classification() {
        let mut nl = Netlist::new();
        let (d, clk, q) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
        nl.add_register(d, clk, q, ps(100), ps(100), ps(20));
        let mut sim = NetSim::from_netlist(nl);
        sim.schedule_input(d, ps(470), true);
        sim.schedule_input(clk, ps(500), true);
        let halt = sim.run_budgeted(RunBudget::new(ps(100_000), 1_000));
        assert_eq!(
            classify_run(&sim, halt, true),
            RunOutcome::TimingViolation
        );
    }

    #[test]
    fn plan_driven_injection_is_deterministic() {
        let plan = FaultPlan::new(1, 7, FaultRates::uniform(0.4));
        let run = || {
            let (mut sim, wires) = chain(32);
            let injected = inject_wire_faults(&mut sim, &plan, &wires, ps(10_000));
            sim.schedule_input(wires[0], ps(100), true);
            let halt = sim.run_budgeted(RunBudget::new(ps(1_000_000), 100_000));
            let values: Vec<bool> = wires.iter().map(|&w| sim.value(w)).collect();
            (injected, halt, values, sim.stats())
        };
        assert_eq!(run(), run());
        let (injected, ..) = run();
        assert!(injected > 0, "a 40% plan over 32 wires injects something");
        // A disabled plan injects nothing.
        let (mut sim, wires) = chain(8);
        assert_eq!(
            inject_wire_faults(&mut sim, &FaultPlan::disabled(), &wires, ps(1_000)),
            0
        );
        assert_eq!(sim.stats().faults_injected, 0);
    }

    #[test]
    fn upsets_appear_in_the_event_trace_and_pass_the_checker() {
        let (mut sim, wires) = chain(3);
        sim.enable_trace(1 << 10);
        sim.schedule_input(wires[0], ps(100), true);
        sim.schedule_upset(wires[1], ps(5_000));
        sim.run_to_quiescence(ps(100_000)).expect("settles");
        let buf = sim.take_trace().expect("tracing enabled");
        let (events, _) = buf.into_ordered();
        assert!(events.iter().any(|e| e.kind() == "fault_injected"
            && e.to_text().contains("site=net1 kind=seu_flip")));
        let mut trace = sim_observe::Trace::new();
        let mut buf2 = sim_observe::TraceBuf::new(events.len());
        for ev in events {
            buf2.record(ev);
        }
        trace.add_track("engine", buf2);
        let check = sim_observe::check_trace(&trace);
        assert!(check.is_ok(), "{:?}", check.violations);
    }
}
