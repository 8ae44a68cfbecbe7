//! The flat netlist arena: struct-of-arrays gate/wire storage and the
//! CSR fanout table.
//!
//! A [`Netlist`] is the mutable builder: wires are plain `u32`
//! indices, gates append one entry to each column vector. [`seal`]
//! freezes it into a [`SealedNetlist`]: a compressed-sparse-row
//! fanout table (`fanout_offsets` / `fanout`, wire → driven gates),
//! per-wire inertial windows, and the delay bound the calendar-wheel
//! scheduler sizes itself from. Nothing here allocates per event —
//! everything is index math over contiguous arrays.
//!
//! Registers are the one gate kind with more parameters than the
//! columns hold: their setup/hold windows live in a side table that
//! stays empty (and unallocated) in register-free netlists, so the
//! propagation hot path never pays for them.
//!
//! [`seal`]: Netlist::seal

use crate::time::SimTime;
use std::fmt;

/// Sentinel for "no second input".
pub(crate) const NONE: u32 = u32::MAX;

/// Index of a wire in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WireId(pub(crate) u32);

impl WireId {
    /// The id for dense arena index `index` (bounds-checked by every
    /// API that consumes it).
    #[must_use]
    pub fn from_index(index: usize) -> WireId {
        WireId(u32::try_from(index).expect("wire index fits u32"))
    }

    /// The wire's dense arena index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WireId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Index of a gate in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// The id for dense arena index `index` (bounds-checked by every
    /// API that consumes it).
    #[must_use]
    pub fn from_index(index: usize) -> GateId {
        GateId(u32::try_from(index).expect("gate index fits u32"))
    }

    /// The gate's dense arena index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// The gate kinds the engine evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// Non-inverting buffer (`d_rise`/`d_fall` delays).
    Buffer,
    /// Inverter (`d_rise`/`d_fall` delays).
    Inverter,
    /// Two-input gate, evaluated through its function's truth table
    /// (`d_rise`/`d_fall` delays).
    Gate2(GateFn),
    /// One-shot pulse buffer: fires a fixed-width pulse on each
    /// rising input edge (`d_rise` = propagation delay, `d_fall` =
    /// pulse width).
    OneShot,
    /// Muller C-element: the output follows the inputs when they
    /// agree and holds when they differ (`d_rise` = `d_fall` = delay).
    CElement,
    /// Positive-edge D register, `in_a` = data, `in_b` = clock
    /// (`d_rise` = clock-to-q; `d_fall` = its slot in the setup/hold
    /// side table).
    Register,
}

// The kind column stays one byte per gate: `GateFn`'s unused
// discriminant values hold the other kinds.
const _: () = assert!(std::mem::size_of::<GateKind>() == 1);

/// Boolean function of a two-input gate. Each discriminant is the
/// function's truth table: bit `a | b << 1` is the output for inputs
/// `(a, b)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum GateFn {
    /// Logical AND.
    And = 0b1000,
    /// Logical OR.
    Or = 0b1110,
    /// Logical NAND.
    Nand = 0b0111,
    /// Logical NOR.
    Nor = 0b0001,
    /// Logical XOR.
    Xor = 0b0110,
    /// Logical XNOR (equivalence).
    Xnor = 0b1001,
}

impl GateFn {
    /// Evaluates the function by truth-table lookup.
    #[inline]
    pub(crate) fn eval(self, a: bool, b: bool) -> bool {
        (self as u8 >> (u8::from(a) | u8::from(b) << 1)) & 1 != 0
    }
}

/// A register's timing windows, in picoseconds (zero disables the
/// check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RegisterWindows {
    pub setup_ps: u64,
    pub hold_ps: u64,
}

/// The mutable struct-of-arrays netlist builder.
///
/// Wires carry no storage here at all — a wire is just an index the
/// engine later attaches state to. Gates are a kind column plus five
/// parallel `u32` columns. Delays are picoseconds in `u32` (a single gate delay
/// beyond ~4 ms would be a spec bug, and the narrow column keeps a
/// million-gate arena at ~20 MB).
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    pub(crate) kinds: Vec<GateKind>,
    pub(crate) in_a: Vec<u32>,
    pub(crate) in_b: Vec<u32>,
    pub(crate) outs: Vec<u32>,
    /// Rise delay; for one-shots the propagation delay.
    pub(crate) d_rise: Vec<u32>,
    /// Fall delay; for one-shots the pulse width, for registers the
    /// slot in `registers`.
    pub(crate) d_fall: Vec<u32>,
    /// Setup/hold windows, one slot per register.
    pub(crate) registers: Vec<RegisterWindows>,
    wires: u32,
    /// Which wires already have a driving gate (one driver per wire).
    driven: Vec<bool>,
}

fn delay_ps(t: SimTime, what: &str) -> u32 {
    let ps = t.as_ps();
    assert!(ps >= 1, "{what} must be at least 1 ps");
    assert!(
        ps <= u64::from(u32::MAX),
        "{what} of {ps} ps exceeds the u32 per-gate delay column"
    );
    ps as u32
}

impl Netlist {
    /// An empty netlist.
    #[must_use]
    pub fn new() -> Self {
        Netlist::default()
    }

    /// Allocates a fresh wire.
    ///
    /// # Panics
    ///
    /// Panics if the arena exceeds `u32` wire indices.
    pub fn add_wire(&mut self) -> WireId {
        assert!(self.wires < u32::MAX, "wire arena full");
        let id = WireId(self.wires);
        self.wires += 1;
        self.driven.push(false);
        id
    }

    /// Number of wires allocated so far.
    #[must_use]
    pub fn n_wires(&self) -> usize {
        self.wires as usize
    }

    /// Number of gates added so far.
    #[must_use]
    pub fn n_gates(&self) -> usize {
        self.kinds.len()
    }

    fn check_wire(&self, w: WireId) {
        assert!(w.0 < self.wires, "wire {w} is not in this netlist");
    }

    fn claim_output(&mut self, out: WireId) {
        self.check_wire(out);
        assert!(
            !self.driven[out.index()],
            "wire {out} already has a driver"
        );
        self.driven[out.index()] = true;
    }

    fn push_gate(
        &mut self,
        kind: GateKind,
        a: WireId,
        b: Option<WireId>,
        out: WireId,
        d_rise: u32,
        d_fall: u32,
    ) -> GateId {
        self.check_wire(a);
        assert_ne!(a, out, "gate input and output must differ");
        if let Some(b) = b {
            self.check_wire(b);
            assert_ne!(b, out, "gate input and output must differ");
            assert_ne!(a, b, "two-input gate needs distinct input wires");
        }
        self.claim_output(out);
        let id = GateId(u32::try_from(self.kinds.len()).expect("gate arena full"));
        self.kinds.push(kind);
        self.in_a.push(a.0);
        self.in_b.push(b.map_or(NONE, |w| w.0));
        self.outs.push(out.0);
        self.d_rise.push(d_rise);
        self.d_fall.push(d_fall);
        id
    }

    /// Adds a non-inverting buffer.
    ///
    /// # Panics
    ///
    /// Panics on zero delays, stale wire ids, or an already-driven
    /// output.
    pub fn add_buffer(&mut self, input: WireId, output: WireId, rise: SimTime, fall: SimTime) -> GateId {
        let (r, f) = (delay_ps(rise, "gate delay"), delay_ps(fall, "gate delay"));
        self.push_gate(GateKind::Buffer, input, None, output, r, f)
    }

    /// Adds an inverter.
    ///
    /// # Panics
    ///
    /// As for [`Netlist::add_buffer`].
    pub fn add_inverter(&mut self, input: WireId, output: WireId, rise: SimTime, fall: SimTime) -> GateId {
        let (r, f) = (delay_ps(rise, "gate delay"), delay_ps(fall, "gate delay"));
        self.push_gate(GateKind::Inverter, input, None, output, r, f)
    }

    /// Adds a two-input gate computing `func`.
    ///
    /// # Panics
    ///
    /// As for [`Netlist::add_buffer`], plus distinct-input checking.
    pub fn add_gate2(
        &mut self,
        func: GateFn,
        a: WireId,
        b: WireId,
        output: WireId,
        rise: SimTime,
        fall: SimTime,
    ) -> GateId {
        let (r, f) = (delay_ps(rise, "gate delay"), delay_ps(fall, "gate delay"));
        self.push_gate(GateKind::Gate2(func), a, Some(b), output, r, f)
    }

    /// Adds a Muller C-element: when inputs `a` and `b` agree, the
    /// output follows them after `delay`; when they disagree, the
    /// output holds. The canonical self-timed rendezvous gate.
    ///
    /// # Panics
    ///
    /// As for [`Netlist::add_gate2`].
    pub fn add_c_element(
        &mut self,
        a: WireId,
        b: WireId,
        output: WireId,
        delay: SimTime,
    ) -> GateId {
        let d = delay_ps(delay, "C-element delay");
        self.push_gate(GateKind::CElement, a, Some(b), output, d, d)
    }

    /// Adds a positive-edge-triggered D register.
    ///
    /// On each rising edge of `clk` the register samples `d` and
    /// drives `q` after `clk_to_q`. Violations of the `setup`/`hold`
    /// windows are recorded as [`crate::engine::TimingViolation`]s (the
    /// register still samples — possibly garbage, as in real
    /// hardware). A zero window disables its check. `q` has no
    /// inertial window: a register passes every sampled edge.
    ///
    /// # Panics
    ///
    /// As for [`Netlist::add_gate2`].
    pub fn add_register(
        &mut self,
        d: WireId,
        clk: WireId,
        q: WireId,
        setup: SimTime,
        hold: SimTime,
        clk_to_q: SimTime,
    ) -> GateId {
        let delay = delay_ps(clk_to_q, "clk-to-q delay");
        let slot = u32::try_from(self.registers.len()).expect("register table full");
        let id = self.push_gate(GateKind::Register, d, Some(clk), q, delay, slot);
        self.registers.push(RegisterWindows {
            setup_ps: setup.as_ps(),
            hold_ps: hold.as_ps(),
        });
        id
    }

    /// Adds a one-shot pulse buffer (rising-edge triggered, wired-in
    /// pulse width — the Section VII clock-buffer fix).
    ///
    /// # Panics
    ///
    /// As for [`Netlist::add_buffer`].
    pub fn add_one_shot(
        &mut self,
        input: WireId,
        output: WireId,
        delay: SimTime,
        pulse_width: SimTime,
    ) -> GateId {
        let (d, w) = (
            delay_ps(delay, "one-shot delay"),
            delay_ps(pulse_width, "one-shot pulse width"),
        );
        self.push_gate(GateKind::OneShot, input, None, output, d, w)
    }

    /// Freezes the arena: builds the CSR fanout table, per-wire
    /// inertial windows, and the scheduler's delay bound.
    #[must_use]
    pub fn seal(self) -> SealedNetlist {
        let n_wires = self.wires as usize;
        let n_gates = self.kinds.len();

        // CSR fanout: counting pass, prefix sum, fill pass. The fill
        // iterates gates in id order, so each wire's fanout list keeps
        // gate-insertion order — the order the engine evaluates a
        // wire's sinks in.
        let mut counts = vec![0u32; n_wires + 1];
        let bump = |w: u32, counts: &mut Vec<u32>| {
            counts[w as usize + 1] += 1;
        };
        for g in 0..n_gates {
            bump(self.in_a[g], &mut counts);
            if self.in_b[g] != NONE {
                bump(self.in_b[g], &mut counts);
            }
        }
        for i in 1..=n_wires {
            counts[i] += counts[i - 1];
        }
        let fanout_offsets = counts;
        let mut cursor = fanout_offsets.clone();
        let mut fanout = vec![0u32; fanout_offsets[n_wires] as usize];
        for g in 0..n_gates {
            let gi = g as u32;
            let a = self.in_a[g] as usize;
            fanout[cursor[a] as usize] = gi;
            cursor[a] += 1;
            let b = self.in_b[g];
            if b != NONE {
                fanout[cursor[b as usize] as usize] = gi;
                cursor[b as usize] += 1;
            }
        }

        // Per-wire inertial window: the driving gate's minimum edge
        // spacing (min of rise/fall for combinational gates and
        // C-elements, the pulse width for one-shots, none for register
        // outputs). Externally driven wires stay at zero.
        let mut min_sep = vec![0u32; n_wires];
        let mut max_delay: u64 = 1;
        for g in 0..n_gates {
            let out = self.outs[g] as usize;
            let (r, f) = (self.d_rise[g], self.d_fall[g]);
            let (sep, reach) = match self.kinds[g] {
                GateKind::OneShot => (f, u64::from(r) + u64::from(f)),
                GateKind::Register => (0, u64::from(r)),
                _ => (r.min(f), u64::from(r.max(f))),
            };
            min_sep[out] = sep;
            max_delay = max_delay.max(reach);
        }

        SealedNetlist {
            kinds: self.kinds,
            in_a: self.in_a,
            in_b: self.in_b,
            outs: self.outs,
            d_rise: self.d_rise,
            d_fall: self.d_fall,
            registers: self.registers,
            n_wires: n_wires as u32,
            fanout_offsets,
            fanout,
            min_sep,
            max_delay_ps: max_delay,
        }
    }
}

/// The frozen, simulation-ready netlist (see [`Netlist::seal`]).
#[derive(Debug, Clone)]
pub struct SealedNetlist {
    pub(crate) kinds: Vec<GateKind>,
    pub(crate) in_a: Vec<u32>,
    pub(crate) in_b: Vec<u32>,
    pub(crate) outs: Vec<u32>,
    pub(crate) d_rise: Vec<u32>,
    pub(crate) d_fall: Vec<u32>,
    pub(crate) registers: Vec<RegisterWindows>,
    pub(crate) n_wires: u32,
    /// CSR row offsets: wire `w` drives gates
    /// `fanout[fanout_offsets[w]..fanout_offsets[w + 1]]`.
    pub(crate) fanout_offsets: Vec<u32>,
    pub(crate) fanout: Vec<u32>,
    pub(crate) min_sep: Vec<u32>,
    /// Upper bound, in picoseconds, on how far into the future any
    /// gate schedules (delay-fault scaling excluded) — the calendar
    /// wheel's sizing input.
    pub(crate) max_delay_ps: u64,
}

impl SealedNetlist {
    /// Number of wires.
    #[must_use]
    pub fn n_wires(&self) -> usize {
        self.n_wires as usize
    }

    /// Number of gates.
    #[must_use]
    pub fn n_gates(&self) -> usize {
        self.kinds.len()
    }

    /// The output wire of gate `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is stale.
    #[must_use]
    pub fn gate_output(&self, g: GateId) -> WireId {
        WireId(self.outs[g.index()])
    }

    /// The scheduler's per-gate delay bound, in picoseconds.
    #[must_use]
    pub fn max_delay_ps(&self) -> u64 {
        self.max_delay_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    #[test]
    fn csr_fanout_preserves_gate_order() {
        let mut nl = Netlist::new();
        let a = nl.add_wire();
        let (x, y, z) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
        // Three gates all fed by `a`, added in order.
        nl.add_buffer(a, x, ps(10), ps(10));
        nl.add_inverter(a, y, ps(10), ps(10));
        let b = nl.add_gate2(GateFn::Or, a, x, z, ps(10), ps(10));
        assert_eq!(b.index(), 2);
        let sealed = nl.seal();
        let (s, e) = (
            sealed.fanout_offsets[a.index()] as usize,
            sealed.fanout_offsets[a.index() + 1] as usize,
        );
        assert_eq!(&sealed.fanout[s..e], &[0, 1, 2]);
        // `x` feeds only the OR gate.
        let (s, e) = (
            sealed.fanout_offsets[x.index()] as usize,
            sealed.fanout_offsets[x.index() + 1] as usize,
        );
        assert_eq!(&sealed.fanout[s..e], &[2]);
    }

    #[test]
    fn min_sep_and_delay_bound() {
        let mut nl = Netlist::new();
        let a = nl.add_wire();
        let b = nl.add_wire();
        let c = nl.add_wire();
        nl.add_inverter(a, b, ps(300), ps(100));
        nl.add_one_shot(b, c, ps(50), ps(800));
        let sealed = nl.seal();
        assert_eq!(sealed.min_sep[b.index()], 100);
        assert_eq!(sealed.min_sep[c.index()], 800);
        assert_eq!(sealed.min_sep[a.index()], 0);
        assert_eq!(sealed.max_delay_ps(), 850);
    }

    #[test]
    #[should_panic(expected = "already has a driver")]
    fn double_driver_rejected() {
        let mut nl = Netlist::new();
        let a = nl.add_wire();
        let b = nl.add_wire();
        nl.add_buffer(a, b, ps(1), ps(1));
        nl.add_inverter(a, b, ps(1), ps(1));
    }

    #[test]
    #[should_panic(expected = "at least 1 ps")]
    fn zero_delay_rejected() {
        let mut nl = Netlist::new();
        let a = nl.add_wire();
        let b = nl.add_wire();
        nl.add_buffer(a, b, ps(0), ps(1));
    }

    #[test]
    fn truth_tables_match_the_functions() {
        use GateFn::{And, Nand, Nor, Or, Xnor, Xor};
        for func in [And, Or, Nand, Nor, Xor, Xnor] {
            for (a, b) in [(false, false), (true, false), (false, true), (true, true)] {
                let want = match func {
                    GateFn::And => a && b,
                    GateFn::Or => a || b,
                    GateFn::Nand => !(a && b),
                    GateFn::Nor => !(a || b),
                    GateFn::Xor => a ^ b,
                    GateFn::Xnor => a == b,
                };
                assert_eq!(func.eval(a, b), want, "{func:?}({a}, {b})");
            }
        }
    }

    #[test]
    fn register_output_has_no_inertial_window() {
        let mut nl = Netlist::new();
        let (d, clk, q) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
        nl.add_register(d, clk, q, ps(50), ps(0), ps(300));
        let sealed = nl.seal();
        assert_eq!(sealed.min_sep[q.index()], 0);
        assert_eq!(sealed.max_delay_ps(), 300);
        assert_eq!(
            sealed.registers,
            vec![RegisterWindows {
                setup_ps: 50,
                hold_ps: 0
            }]
        );
    }
}
