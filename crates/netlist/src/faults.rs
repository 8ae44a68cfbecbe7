//! Precomputed per-gate fault words.
//!
//! The per-site flow ([`desim::faults::inject_wire_faults`]) asks
//! [`FaultPlan::gate_fault`] once per candidate wire — three RNG draws
//! and an enum per call, interleaved with the engine's fault hooks. At a
//! million gates that query belongs in a batch pass: this module
//! compiles a plan into one packed [`FaultWord`] per gate (a `u32`
//! column riding alongside the arena), and a single injection pass
//! applies the words to a [`NetSim`] through the engine's existing
//! fault hooks. Sweeps that reuse one sealed arena across trials pay
//! the RNG cost once per trial in a tight loop instead of once per
//! gate-build.
//!
//! Word layout (low to high bits):
//!
//! ```text
//! [1:0]   kind     0 = none, 1 = stuck-at, 2 = transient, 3 = delay
//! [2]     stuck-at value (kind 1)
//! [31:16] payload  kind 2: upset position, 1/65536ths of the window
//!                  kind 3: delay scale in percent (1..=10000)
//! ```

use desim::arena::{GateId, SealedNetlist, WireId};
use desim::engine::NetSim;
use desim::time::SimTime;
use sim_faults::{FaultPlan, GateFault};

const KIND_NONE: u32 = 0;
const KIND_STUCK: u32 = 1;
const KIND_TRANSIENT: u32 = 2;
const KIND_DELAY: u32 = 3;

/// One gate's fault assignment, packed (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultWord(u32);

impl FaultWord {
    /// The no-fault word.
    pub const NONE: FaultWord = FaultWord(0);

    /// Packs a drawn [`GateFault`] (or its absence).
    #[must_use]
    pub fn pack(fault: Option<GateFault>) -> FaultWord {
        match fault {
            None => FaultWord(KIND_NONE),
            Some(GateFault::StuckAt(v)) => FaultWord(KIND_STUCK | (u32::from(v) << 2)),
            Some(GateFault::Transient { at_frac }) => {
                // Quantize [0, 1) to 16 bits; the window mapping at
                // injection time reconstructs the fraction.
                let q = ((at_frac.clamp(0.0, 1.0) * 65_536.0) as u32).min(65_535);
                FaultWord(KIND_TRANSIENT | (q << 16))
            }
            Some(GateFault::Delay { scale_pct }) => {
                let pct = scale_pct.clamp(1, 10_000);
                FaultWord(KIND_DELAY | (pct << 16))
            }
        }
    }

    /// Unpacks back to the enum form (`None` for the no-fault word).
    #[must_use]
    pub fn unpack(self) -> Option<GateFault> {
        match self.0 & 0b11 {
            KIND_STUCK => Some(GateFault::StuckAt(self.0 & 0b100 != 0)),
            KIND_TRANSIENT => Some(GateFault::Transient {
                at_frac: f64::from(self.0 >> 16) / 65_536.0,
            }),
            KIND_DELAY => Some(GateFault::Delay {
                scale_pct: self.0 >> 16,
            }),
            _ => None,
        }
    }

    /// Whether this word carries any fault.
    #[must_use]
    pub fn is_faulty(self) -> bool {
        self.0 & 0b11 != KIND_NONE
    }
}

/// Draws the plan once per gate (site = gate index) into a packed
/// word column. An all-[`FaultWord::NONE`] column for a disabled plan
/// costs one branch per gate and no RNG.
#[must_use]
pub fn gate_fault_words(plan: &FaultPlan, nl: &SealedNetlist) -> Vec<FaultWord> {
    if !plan.is_enabled() {
        return vec![FaultWord::NONE; nl.n_gates()];
    }
    (0..nl.n_gates())
        .map(|g| FaultWord::pack(plan.gate_fault(g as u64)))
        .collect()
}

/// Tally of one injection pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectionSummary {
    /// Gates pinned stuck-at (output wedged).
    pub stuck: usize,
    /// Gates given one scheduled transient upset.
    pub transient: usize,
    /// Gates with scaled propagation delay.
    pub delayed: usize,
}

impl InjectionSummary {
    /// Total faulted gates.
    #[must_use]
    pub fn total(&self) -> usize {
        self.stuck + self.transient + self.delayed
    }
}

/// Applies a word column to a simulator: stuck-at pins the gate's
/// output wire, a transient schedules one upset inside
/// `[sim.now(), window_end)`, a delay fault scales the output wire's
/// delay. Words must come from the same sealed arena the simulator
/// runs.
///
/// # Panics
///
/// Panics if the column length does not match the arena, or if
/// `window_end` precedes the current sim time while transients are
/// present.
pub fn inject_fault_words(
    sim: &mut NetSim,
    words: &[FaultWord],
    window_end: SimTime,
) -> InjectionSummary {
    let nl = std::sync::Arc::clone(sim.netlist());
    assert_eq!(
        words.len(),
        nl.n_gates(),
        "fault-word column does not match the arena"
    );
    let start_ps = sim.now().as_ps();
    let mut summary = InjectionSummary::default();
    for (g, word) in words.iter().enumerate() {
        let Some(fault) = word.unpack() else { continue };
        let out: WireId = nl.gate_output(GateId::from_index(g));
        match fault {
            GateFault::StuckAt(v) => {
                sim.pin_wire(out, v);
                summary.stuck += 1;
            }
            GateFault::Transient { at_frac } => {
                let end_ps = window_end.as_ps();
                assert!(end_ps >= start_ps, "upset window ends in the past");
                let span = end_ps - start_ps;
                let t = start_ps + ((span as f64) * at_frac) as u64;
                sim.schedule_upset(out, SimTime::from_ps(t.max(start_ps)));
                summary.transient += 1;
            }
            GateFault::Delay { scale_pct } => {
                sim.scale_wire_delay(out, scale_pct.clamp(1, 10_000));
                summary.delayed += 1;
            }
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_faults::FaultRates;

    #[test]
    fn pack_unpack_roundtrip() {
        let cases = [
            None,
            Some(GateFault::StuckAt(true)),
            Some(GateFault::StuckAt(false)),
            Some(GateFault::Delay { scale_pct: 150 }),
            Some(GateFault::Delay { scale_pct: 10_000 }),
        ];
        for c in cases {
            assert_eq!(FaultWord::pack(c).unpack(), c, "{c:?}");
        }
        // Transients quantize: round-trip to within 1/65536.
        let w = FaultWord::pack(Some(GateFault::Transient { at_frac: 0.37 }));
        match w.unpack() {
            Some(GateFault::Transient { at_frac }) => {
                assert!((at_frac - 0.37).abs() < 1.0 / 65_536.0 + 1e-12);
            }
            other => panic!("expected transient, got {other:?}"),
        }
        assert!(w.is_faulty());
        assert!(!FaultWord::NONE.is_faulty());
    }

    #[test]
    fn word_column_matches_per_site_queries() {
        let mut nl = crate::Netlist::new();
        let mut prev = nl.add_wire();
        for _ in 0..64 {
            let next = nl.add_wire();
            nl.add_inverter(
                prev,
                next,
                SimTime::from_ps(10),
                SimTime::from_ps(12),
            );
            prev = next;
        }
        let sealed = nl.seal();
        let plan = FaultPlan::new(0xF15C, 3, FaultRates::uniform(0.2));
        let words = gate_fault_words(&plan, &sealed);
        assert_eq!(words.len(), sealed.n_gates());
        for (g, w) in words.iter().enumerate() {
            let direct = plan.gate_fault(g as u64);
            match (w.unpack(), direct) {
                (a, b) if a == b => {}
                // Transient fractions quantize through the word.
                (
                    Some(GateFault::Transient { at_frac: a }),
                    Some(GateFault::Transient { at_frac: b }),
                ) => assert!((a - b).abs() < 1.0 / 65_536.0 + 1e-12),
                (a, b) => panic!("site {g}: {a:?} != {b:?}"),
            }
        }
    }

    #[test]
    fn disabled_plan_is_all_none() {
        let mut nl = crate::Netlist::new();
        let a = nl.add_wire();
        let b = nl.add_wire();
        nl.add_buffer(a, b, SimTime::from_ps(5), SimTime::from_ps(5));
        let sealed = nl.seal();
        let words = gate_fault_words(&FaultPlan::disabled(), &sealed);
        assert!(words.iter().all(|w| !w.is_faulty()));
    }
}
