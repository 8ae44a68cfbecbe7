//! Value-change-dump (VCD) export, for inspecting waveforms in
//! standard viewers (GTKWave etc.).
//!
//! Two layers:
//!
//! * [`VcdWriter`] — a general signal-registration API: any source can
//!   contribute `(name, initial value, transitions)` triples, so
//!   analytic models (e.g. clock-tap arrival times computed from a
//!   tree, with no event simulator behind them) dump waveforms next to
//!   simulated wires.
//! * [`export_vcd`] — the convenience wrapper: dump watched wires of a
//!   [`NetSim`] directly.

use crate::arena::WireId;
use crate::engine::NetSim;

/// One registered VCD signal: display name, initial value, and
/// `(time_ps, new_value)` transitions.
#[derive(Debug, Clone, PartialEq, Eq)]
struct VcdSignal {
    name: String,
    initial: bool,
    transitions: Vec<(u64, bool)>,
}

/// Builds a VCD document (1 ps timescale) from registered signals.
///
/// # Examples
///
/// Dumping a synthetic signal with no simulator behind it:
///
/// ```
/// use desim::vcd::VcdWriter;
///
/// let mut w = VcdWriter::new();
/// w.add_signal("tap0", false, [(100, true), (600, false)]);
/// let vcd = w.render();
/// assert!(vcd.contains("$var wire 1 ! tap0 $end"));
/// assert!(vcd.contains("#100"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VcdWriter {
    signals: Vec<VcdSignal>,
}

impl VcdWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        VcdWriter::default()
    }

    /// Registers one signal from raw transitions (`time_ps`,
    /// `new_value`), e.g. synthesized from an analytic model.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty, contains whitespace, or duplicates a
    /// registered signal.
    pub fn add_signal(
        &mut self,
        name: &str,
        initial: bool,
        transitions: impl IntoIterator<Item = (u64, bool)>,
    ) {
        assert!(
            !name.is_empty() && !name.contains(char::is_whitespace),
            "invalid VCD signal name {name:?}"
        );
        assert!(
            self.signals.iter().all(|s| s.name != name),
            "duplicate VCD signal name {name:?}"
        );
        self.signals.push(VcdSignal {
            name: name.to_owned(),
            initial,
            transitions: transitions.into_iter().collect(),
        });
    }

    /// Registers a simulator wire under `name`, using its recorded
    /// transitions (see [`NetSim::watch`]). A wire that was never
    /// watched (or never changed) appears with its initial value only.
    /// The initial value is inferred as the complement of the first
    /// recorded transition when one exists, else the wire's current
    /// value.
    ///
    /// # Panics
    ///
    /// As for [`VcdWriter::add_signal`].
    pub fn add_wire(&mut self, sim: &NetSim, wire: WireId, name: &str) {
        let transitions = sim.transitions_ps(wire);
        let initial = match transitions.first() {
            Some(&(_, first_value)) => !first_value,
            None => sim.value(wire),
        };
        self.add_signal(name, initial, transitions.iter().copied());
    }

    /// Number of registered signals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.signals.len()
    }

    /// Whether no signal has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.signals.is_empty()
    }

    /// Renders the VCD document.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("$timescale 1ps $end\n$scope module top $end\n");
        // VCD id chars: printable ASCII starting at '!'.
        let id_of = |i: usize| -> char {
            char::from_u32(33 + i as u32).expect("few enough signals for single-char ids")
        };
        for (i, sig) in self.signals.iter().enumerate() {
            out.push_str(&format!("$var wire 1 {} {} $end\n", id_of(i), sig.name));
        }
        out.push_str("$upscope $end\n$enddefinitions $end\n");
        out.push_str("$dumpvars\n");
        for (i, sig) in self.signals.iter().enumerate() {
            out.push_str(&format!("{}{}\n", u8::from(sig.initial), id_of(i)));
        }
        out.push_str("$end\n");
        // Merge all transitions, time-ordered (stable by signal order).
        let mut events: Vec<(u64, usize, bool)> = Vec::new();
        for (i, sig) in self.signals.iter().enumerate() {
            for &(t, v) in &sig.transitions {
                events.push((t, i, v));
            }
        }
        events.sort_by_key(|&(t, i, _)| (t, i));
        let mut last_time = None;
        for (t, i, v) in events {
            if last_time != Some(t) {
                out.push_str(&format!("#{t}\n"));
                last_time = Some(t);
            }
            out.push_str(&format!("{}{}\n", u8::from(v), id_of(i)));
        }
        out
    }
}

/// Renders the recorded transitions of the given `(wire, name)` pairs
/// as a VCD document with 1 ps timescale — the [`VcdWriter`]
/// convenience wrapper for pure-simulator dumps.
///
/// # Panics
///
/// Panics if two wires are given the same display name, or a name is
/// empty or contains whitespace.
///
/// # Examples
///
/// ```
/// use desim::prelude::*;
///
/// let mut nl = Netlist::new();
/// let (a, b) = (nl.add_wire(), nl.add_wire());
/// nl.add_buffer(a, b, SimTime::from_ps(5), SimTime::from_ps(5));
/// let mut sim = NetSim::from_netlist(nl);
/// sim.watch(a);
/// sim.watch(b);
/// sim.schedule_input(a, SimTime::from_ps(10), true);
/// sim.run_until(SimTime::from_ps(100));
/// let vcd = desim::vcd::export_vcd(&sim, &[(a, "a"), (b, "b")]);
/// assert!(vcd.contains("$var wire 1"));
/// assert!(vcd.contains("#10"));
/// ```
#[must_use]
pub fn export_vcd(sim: &NetSim, wires: &[(WireId, &str)]) -> String {
    let mut w = VcdWriter::new();
    for &(wire, name) in wires {
        w.add_wire(sim, wire, name);
    }
    w.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Netlist;
    use crate::time::SimTime;

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    /// `n` free wires, all watched.
    fn wires(n: usize) -> (NetSim, Vec<WireId>) {
        let mut nl = Netlist::new();
        let ws: Vec<WireId> = (0..n).map(|_| nl.add_wire()).collect();
        let mut sim = NetSim::from_netlist(nl);
        for &w in &ws {
            sim.watch(w);
        }
        (sim, ws)
    }

    #[test]
    fn exports_header_and_events() {
        let mut nl = Netlist::new();
        let (a, b) = (nl.add_wire(), nl.add_wire());
        nl.add_inverter(a, b, ps(20), ps(20));
        let mut sim = NetSim::from_netlist(nl);
        sim.watch(a);
        sim.watch(b);
        sim.schedule_input(a, ps(100), true);
        sim.schedule_input(a, ps(200), false);
        sim.run_until(ps(1_000));
        let vcd = export_vcd(&sim, &[(a, "req"), (b, "req_n")]);
        assert!(vcd.starts_with("$timescale 1ps $end"));
        assert!(vcd.contains("$var wire 1 ! req $end"));
        assert!(vcd.contains("$var wire 1 \" req_n $end"));
        // Initial dump: a starts 0, b starts 1 (inverter of low input).
        assert!(vcd.contains("$dumpvars\n0!\n1\"\n$end"));
        // Events at 100, 120, 200, 220.
        for t in [100, 120, 200, 220] {
            assert!(vcd.contains(&format!("#{t}\n")), "missing #{t}:\n{vcd}");
        }
    }

    #[test]
    fn unwatched_wire_dumps_current_value_only() {
        let mut nl = Netlist::new();
        let a = nl.add_wire();
        let sim = NetSim::from_netlist(nl);
        let vcd = export_vcd(&sim, &[(a, "idle")]);
        assert!(vcd.contains("0!"));
        assert!(!vcd.contains('#'));
    }

    #[test]
    fn synthetic_signals_mix_with_simulated_wires() {
        let (mut sim, ws) = wires(1);
        sim.schedule_input(ws[0], ps(50), true);
        sim.run_until(ps(100));
        let mut w = VcdWriter::new();
        w.add_wire(&sim, ws[0], "real");
        w.add_signal("model", false, [(10, true), (90, false)]);
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
        let vcd = w.render();
        for needle in ["$var wire 1 ! real $end", "$var wire 1 \" model $end", "#10", "#50", "#90"]
        {
            assert!(vcd.contains(needle), "missing {needle}:\n{vcd}");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate VCD signal name")]
    fn rejects_duplicate_names() {
        let (sim, ws) = wires(2);
        let _ = export_vcd(&sim, &[(ws[0], "x"), (ws[1], "x")]);
    }

    #[test]
    #[should_panic(expected = "invalid VCD signal name")]
    fn rejects_whitespace_names() {
        let (sim, ws) = wires(1);
        let _ = export_vcd(&sim, &[(ws[0], "bad name")]);
    }
}
