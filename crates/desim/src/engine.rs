//! The event engine: [`NetSim`] runs a [`SealedNetlist`].
//!
//! A circuit is a set of boolean *wires* connected by gates (buffers,
//! inverters, two-input gates, one-shots, C-elements, edge-triggered
//! registers). Value changes are events; gates react to changes on
//! their input wires and schedule changes on their outputs after
//! their propagation delays.
//!
//! Two properties matter for the paper's experiments:
//!
//! * **Inertial delay.** When a gate schedules an output change that
//!   conflicts with (precedes or duplicates) changes already in
//!   flight for that wire, the pending changes are cancelled — a pulse
//!   narrower than the gate can pass is swallowed, exactly the failure
//!   mode that limits pipelined clock rate in Section VII.
//! * **Setup/hold checking.** Registers record a [`TimingViolation`]
//!   whenever data changes too close to a sampling clock edge — the
//!   "synchronization failure" that clock skew causes (Section I).
//!
//! The machinery is laid out for million-gate circuits:
//!
//! * per-wire state lives in parallel `Vec`s indexed by the wire id;
//! * the pending-event set is a calendar [`Wheel`] (O(1) amortized
//!   push/dispatch under the bounded-delay model) plus a small sorted
//!   *far list* for the rare event beyond the wheel's horizon
//!   (pre-scheduled clock edges whole periods away, delay-fault
//!   scalings past nominal);
//! * fanout propagation runs through a dirty-flagged ring work queue
//!   over the CSR table, so settling needs no per-event allocation;
//! * register state (last clock edge, recorded violations) sits in
//!   side tables that stay empty for register-free circuits.
//!
//! The engine is fully deterministic. Events dispatch in `(time,
//! schedule order)`: wheel buckets and the far list both preserve push
//! order within a timestamp, upsets strike before events at the same
//! instant, and far entries (always scheduled from further back in
//! time) precede same-time wheel entries.
//!
//! Observability follows the workspace's one-branch `Option`
//! discipline: waveform watches and the [`TraceBuf`] lifecycle hooks
//! cost a predictable untaken branch each when disabled.

use crate::arena::{GateKind, SealedNetlist, WireId, NONE};
use crate::time::SimTime;
use crate::wheel::{Ev, Wheel};
use sim_observe::{TraceBuf, TraceEvent};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// A recorded setup or hold violation at a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingViolation {
    /// When the violation was detected.
    pub at: SimTime,
    /// The register's data wire.
    pub data_wire: WireId,
    /// Which constraint was violated.
    pub kind: ViolationKind,
}

/// The two register timing constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Data changed within the setup window before a clock edge.
    Setup,
    /// Data changed within the hold window after a clock edge.
    Hold,
}

/// Error returned by [`NetSim::run_to_quiescence`] when the circuit
/// is still active at the time limit (e.g. a free-running clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StillActiveError {
    /// The time limit that was reached.
    pub limit: SimTime,
}

impl fmt::Display for StillActiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "circuit still active at time limit {}", self.limit)
    }
}

impl std::error::Error for StillActiveError {}

/// Cumulative event-loop counters of one [`NetSim`].
///
/// Maintained as plain `u64` fields bumped inline on the event path —
/// no atomics, no locks, no allocation — so instrumentation costs a
/// handful of register increments per event. Snapshot with
/// [`NetSim::stats`]; export into a metric registry with
/// [`NetSim::record_metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events pushed into the queue (including ones later cancelled).
    pub events_scheduled: u64,
    /// Events popped and applied as real wire changes.
    pub events_processed: u64,
    /// Inertial cancellations: conflicting schedules that invalidated
    /// the in-flight events of a wire (a swallowed pulse bumps this).
    pub cancellations: u64,
    /// Events popped but discarded as stale (cancelled generation) or
    /// redundant (no value change).
    pub dead_events: u64,
    /// High-water mark of the event queue.
    pub peak_queue_depth: u64,
    /// Total settle iterations: gate evaluations performed while
    /// propagating applied events (the fanout work the event loop did,
    /// as opposed to the events it merely dispatched).
    pub settle_iterations: u64,
    /// Faults forced into the circuit (stuck-at pins, SEU upsets and
    /// delay scalings).
    pub faults_injected: u64,
}

impl EngineStats {
    /// Writes the counters into `metrics` under
    /// `{prefix}.events_scheduled`, `{prefix}.events_processed`,
    /// `{prefix}.cancellations`, `{prefix}.dead_events`,
    /// `{prefix}.settle_iterations`, and `{prefix}.peak_queue_depth`.
    /// Adds, so stats from several simulators aggregate under one
    /// prefix.
    pub fn record(&self, metrics: &mut sim_observe::Metrics, prefix: &str) {
        metrics.add(&format!("{prefix}.events_scheduled"), self.events_scheduled);
        metrics.add(&format!("{prefix}.events_processed"), self.events_processed);
        metrics.add(&format!("{prefix}.cancellations"), self.cancellations);
        metrics.add(&format!("{prefix}.dead_events"), self.dead_events);
        metrics.add(
            &format!("{prefix}.settle_iterations"),
            self.settle_iterations,
        );
        // Peak depth aggregates as a max, not a sum.
        let key = format!("{prefix}.peak_queue_depth");
        let prev = metrics.counter(&key);
        if self.peak_queue_depth > prev {
            metrics.add(&key, self.peak_queue_depth - prev);
        }
        // Only fault-injected runs carry the fault counter, so nominal
        // runs keep their metric set (and committed baselines) intact.
        if self.faults_injected > 0 {
            metrics.add(&format!("{prefix}.faults_injected"), self.faults_injected);
        }
    }
}

/// Sim-time and event budget of a watchdog-supervised run
/// ([`NetSim::run_budgeted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBudget {
    /// No event beyond this sim time is processed.
    pub sim_limit: SimTime,
    /// Maximum events applied (upsets included) before the watchdog
    /// halts the run — the livelock guard.
    pub max_events: u64,
}

impl RunBudget {
    /// A budget of `sim_limit` simulated time and `max_events` events.
    ///
    /// # Panics
    ///
    /// Panics if `max_events` is zero.
    #[must_use]
    pub fn new(sim_limit: SimTime, max_events: u64) -> Self {
        assert!(max_events > 0, "event budget must be positive");
        RunBudget {
            sim_limit,
            max_events,
        }
    }
}

/// How a budgeted run stopped — the watchdog's verdict. Combine with
/// the caller's completion check via
/// [`classify_run`](crate::faults::classify_run) to get a
/// `RunOutcome`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// Nothing left to do: the circuit quiesced at `at`. Whether that
    /// is success or deadlock depends on whether the workload
    /// finished — the engine cannot know, the caller does.
    Quiescent {
        /// Time of the last applied event.
        at: SimTime,
    },
    /// Pending work lies beyond the sim-time budget.
    SimLimit {
        /// Time the run stopped at.
        at: SimTime,
    },
    /// The event budget ran out — livelock or runaway oscillation.
    EventLimit {
        /// Time the run stopped at.
        at: SimTime,
    },
}

/// Outcome of one dispatch step.
enum Step {
    /// This many events (or one upset) were applied.
    Did(u64),
    /// Nothing is pending at all.
    Empty,
    /// The next pending action lies beyond the given limit.
    Beyond,
}

/// The event-driven simulator.
///
/// Build a [`crate::arena::Netlist`], [`seal`](crate::arena::Netlist::seal)
/// it, and hand it (in an [`Arc`], so sweeps share one arena) to
/// [`NetSim::new`].
///
/// # Examples
///
/// A two-inverter chain settles to the input value:
///
/// ```
/// use desim::prelude::*;
///
/// let mut nl = Netlist::new();
/// let (a, b, c) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
/// nl.add_inverter(a, b, SimTime::from_ps(100), SimTime::from_ps(100));
/// nl.add_inverter(b, c, SimTime::from_ps(100), SimTime::from_ps(100));
/// let mut sim = NetSim::from_netlist(nl);
/// sim.schedule_input(a, SimTime::from_ps(10), true);
/// sim.run_until(SimTime::from_ns(1));
/// assert!(sim.value(c));
/// ```
#[derive(Debug)]
pub struct NetSim {
    nl: Arc<SealedNetlist>,
    // ---- per-wire state, parallel to the arena ----
    value: Vec<bool>,
    scheduled: Vec<bool>,
    gen: Vec<u32>,
    last_event_ps: Vec<u64>,
    change_ps: Vec<u64>,
    stuck: Vec<bool>,
    /// Delay-fault scale, percent of nominal; 100 on the hot path.
    delay_scale: Vec<u16>,
    /// Index into `watches`, or `NONE`.
    watch_slot: Vec<u32>,
    watches: Vec<Vec<(u64, bool)>>,
    // ---- per-register state, parallel to the register side table ----
    last_clk_rise: Vec<Option<u64>>,
    violations: Vec<TimingViolation>,
    // ---- pending events ----
    wheel: Wheel,
    /// Events beyond the wheel horizon, sorted by fire time (stable:
    /// same-time entries keep insertion order). `far_next` is the
    /// dispatch cursor; entries before it are spent.
    far: Vec<Ev>,
    far_next: usize,
    /// Scheduled SEU upsets, sorted by `(time, wire)`.
    upsets: Vec<(u64, u32)>,
    next_upset: usize,
    /// Scratch bucket for wheel dispatch (buffers circulate).
    drain: Vec<Ev>,
    // ---- fanout work queue ----
    ring: VecDeque<u32>,
    dirty: Vec<bool>,
    // ---- clock + bookkeeping ----
    now_ps: u64,
    stats: EngineStats,
    trace: Option<Box<TraceBuf>>,
    clock_marks: Vec<(u32, String, u8)>,
}

impl NetSim {
    /// A simulator over the sealed arena.
    ///
    /// Initial state follows build order: externally driven wires
    /// start low; in gate order, buffer/inverter outputs are set
    /// consistently with their input (so chains alternate with no
    /// spurious start-up events), a C-element whose inputs agree
    /// starts at their value, and a two-input gate whose inputs
    /// disagree with its output resolves through a real scheduled
    /// event — so feedback loops such as gated ring oscillators see
    /// the change propagate.
    #[must_use]
    pub fn new(nl: Arc<SealedNetlist>) -> NetSim {
        let n = nl.n_wires();
        let n_gates = nl.n_gates();
        let wheel = Wheel::with_horizon(nl.max_delay_ps());
        let mut sim = NetSim {
            value: vec![false; n],
            scheduled: vec![false; n],
            gen: vec![0; n],
            last_event_ps: vec![0; n],
            change_ps: vec![0; n],
            stuck: vec![false; n],
            delay_scale: vec![100; n],
            watch_slot: vec![NONE; n],
            watches: Vec::new(),
            last_clk_rise: vec![None; nl.registers.len()],
            violations: Vec::new(),
            wheel,
            far: Vec::new(),
            far_next: 0,
            upsets: Vec::new(),
            next_upset: 0,
            drain: Vec::new(),
            ring: VecDeque::new(),
            dirty: vec![false; n_gates],
            now_ps: 0,
            stats: EngineStats::default(),
            trace: None,
            clock_marks: Vec::new(),
            nl,
        };
        let nl = Arc::clone(&sim.nl);
        for g in 0..n_gates {
            let a = nl.in_a[g] as usize;
            let out = nl.outs[g] as usize;
            match nl.kinds[g] {
                GateKind::Buffer | GateKind::Inverter => {
                    let v = sim.value[a] ^ (nl.kinds[g] == GateKind::Inverter);
                    sim.value[out] = v;
                    sim.scheduled[out] = v;
                }
                GateKind::Gate2(func) => {
                    let b = nl.in_b[g] as usize;
                    let v = func.eval(sim.value[a], sim.value[b]);
                    if sim.value[out] != v {
                        let delay = if v { nl.d_rise[g] } else { nl.d_fall[g] };
                        sim.schedule_change(out, u64::from(delay), v);
                    }
                }
                GateKind::CElement => {
                    let b = nl.in_b[g] as usize;
                    if sim.value[a] == sim.value[b] {
                        sim.value[out] = sim.value[a];
                        sim.scheduled[out] = sim.value[a];
                    }
                }
                GateKind::OneShot | GateKind::Register => {}
            }
        }
        sim
    }

    /// Convenience: seal-and-simulate in one step.
    #[must_use]
    pub fn from_netlist(nl: crate::arena::Netlist) -> NetSim {
        NetSim::new(Arc::new(nl.seal()))
    }

    /// The shared sealed arena this simulator runs.
    #[must_use]
    pub fn netlist(&self) -> &Arc<SealedNetlist> {
        &self.nl
    }

    fn check_wire(&self, w: WireId) {
        assert!((w.index()) < self.nl.n_wires(), "unknown wire {w}");
    }

    // ---- stimulus & fault API ----

    /// Schedules an externally driven change of `wire` at absolute
    /// time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the simulated past.
    pub fn schedule_input(&mut self, wire: WireId, t: SimTime, value: bool) {
        self.check_wire(wire);
        assert!(
            t.as_ps() >= self.now_ps,
            "cannot schedule input in the past"
        );
        self.schedule_change(wire.index(), t.as_ps(), value);
    }

    /// Schedules a periodic clock: rising edges at `start + k·period`,
    /// falling edges `high` later, for `cycles` cycles. Edge times are
    /// computed with the overflow-checked [`SimTime`] arithmetic, so a
    /// runaway period count fails with a structured diagnostic instead
    /// of wrapping the picosecond horizon.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < high < period`, or if an edge time
    /// overflows.
    pub fn schedule_clock(
        &mut self,
        wire: WireId,
        start: SimTime,
        period: SimTime,
        high: SimTime,
        cycles: usize,
    ) {
        assert!(
            SimTime::ZERO < high && high < period,
            "need 0 < high < period"
        );
        for k in 0..cycles {
            let rise = period
                .checked_mul(k as u64)
                .and_then(|off| start.checked_add(off))
                .unwrap_or_else(|e| panic!("clock edge {k}: {e}"));
            let fall = rise
                .checked_add(high)
                .unwrap_or_else(|e| panic!("clock edge {k}: {e}"));
            self.schedule_input(wire, rise, true);
            self.schedule_input(wire, fall, false);
        }
    }

    /// Pins `wire` to `value` for the rest of the run (stuck-at
    /// fault): forced immediately, in-flight events cancelled, later
    /// driver schedules ignored.
    pub fn pin_wire(&mut self, wire: WireId, value: bool) {
        self.check_wire(wire);
        let kind = if value { "stuck_at_1" } else { "stuck_at_0" };
        self.force_wire(wire.index(), self.now_ps, value, kind);
        self.stuck[wire.index()] = true;
    }

    /// Schedules one transient (SEU-style) upset: at `t` the wire's
    /// value flips and the circuit reacts to the corrupted value.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the simulated past.
    pub fn schedule_upset(&mut self, wire: WireId, t: SimTime) {
        self.check_wire(wire);
        let t_ps = t.as_ps();
        assert!(t_ps >= self.now_ps, "cannot schedule an upset in the past");
        let tail = &self.upsets[self.next_upset..];
        let pos = tail.partition_point(|&(ut, uw)| (ut, uw) <= (t_ps, wire.0));
        self.upsets.insert(self.next_upset + pos, (t_ps, wire.0));
    }

    /// Applies a delay fault: every change scheduled onto `wire` from
    /// now on has its delay scaled to `percent` of nominal. Scaled
    /// fire times may exceed the wheel horizon; those events take the
    /// far-list path.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= percent <= 10_000`.
    pub fn scale_wire_delay(&mut self, wire: WireId, percent: u32) {
        self.check_wire(wire);
        assert!(
            (1..=10_000).contains(&percent),
            "delay scale must be in 1..=10000 percent"
        );
        self.delay_scale[wire.index()] = percent as u16;
        self.stats.faults_injected += 1;
        if let Some(tr) = &mut self.trace {
            tr.record(TraceEvent::FaultInjected {
                t_ps: self.now_ps,
                site: fault_site(wire.index()),
                kind: format!("delay_scale_{percent}"),
            });
        }
    }

    // ---- observability ----

    /// Starts recording value transitions on `wire`.
    pub fn watch(&mut self, wire: WireId) {
        self.check_wire(wire);
        if self.watch_slot[wire.index()] == NONE {
            self.watch_slot[wire.index()] =
                u32::try_from(self.watches.len()).expect("watch arena full");
            self.watches.push(Vec::new());
        }
    }

    /// Recorded transitions of a watched wire as raw
    /// `(time_ps, new_value)` pairs (empty for unwatched wires).
    #[must_use]
    pub fn transitions_ps(&self, wire: WireId) -> &[(u64, bool)] {
        match self.watch_slot[wire.index()] {
            NONE => &[],
            slot => &self.watches[slot as usize],
        }
    }

    /// Recorded transitions of a watched wire as `(SimTime, value)`
    /// (empty for unwatched wires).
    #[must_use]
    pub fn transitions(&self, wire: WireId) -> Vec<(SimTime, bool)> {
        self.transitions_ps(wire)
            .iter()
            .map(|&(t, v)| (SimTime::from_ps(t), v))
            .collect()
    }

    /// Starts recording the event lifecycle (schedules, firings,
    /// inertial cancellations, marked clock edges) into a bounded
    /// ring of at most `capacity` events; retrieve it with
    /// [`NetSim::take_trace`]. When tracing is off — the default —
    /// every hook is a single branch on an `Option`: no allocation,
    /// no atomics.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Box::new(TraceBuf::new(capacity)));
    }

    /// Whether event tracing is enabled.
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Marks `wire` as a clock: when tracing is enabled, each of its
    /// transitions additionally records a `ClockEdge` event under
    /// `signal`, tagged with `phase` (0 or 1 for a two-phase
    /// discipline).
    pub fn mark_clock(&mut self, wire: WireId, signal: &str, phase: u8) {
        self.check_wire(wire);
        self.clock_marks.retain(|(w, _, _)| *w != wire.0);
        self.clock_marks.push((wire.0, signal.to_owned(), phase));
    }

    /// Takes the recorded trace, leaving tracing disabled. Returns
    /// `None` when tracing was never enabled.
    pub fn take_trace(&mut self) -> Option<TraceBuf> {
        self.trace.take().map(|b| *b)
    }

    // ---- queries ----

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        SimTime::from_ps(self.now_ps)
    }

    /// Current value of a wire.
    #[must_use]
    pub fn value(&self, wire: WireId) -> bool {
        self.value[wire.index()]
    }

    /// Time of the wire's last value change, in picoseconds (0 if it
    /// never changed) — per-wire arrival times without per-wire
    /// transition storage, which is what million-cell wavefront
    /// analyses read.
    #[must_use]
    pub fn last_change_ps(&self, wire: WireId) -> u64 {
        self.change_ps[wire.index()]
    }

    /// All setup/hold violations recorded so far, in detection order.
    #[must_use]
    pub fn violations(&self) -> &[TimingViolation] {
        &self.violations
    }

    /// Events waiting for dispatch (dead events included).
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.wheel.len() + (self.far.len() - self.far_next)
    }

    /// Snapshot of the cumulative event-loop counters.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Exports this simulator's counters into `metrics` under
    /// `{prefix}.*` (see [`EngineStats::record`]) and its simulated
    /// time into the `{prefix}.sim_time_ps` counter.
    pub fn record_metrics(&self, metrics: &mut sim_observe::Metrics, prefix: &str) {
        self.stats.record(metrics, prefix);
        metrics.add(&format!("{prefix}.sim_time_ps"), self.now_ps);
    }

    // ---- run loop ----

    /// Runs until the pending set is empty or the next event lies
    /// beyond `t`; the clock ends at exactly `t`.
    pub fn run_until(&mut self, t: SimTime) {
        let limit = t.as_ps();
        while matches!(self.step_once(limit, u64::MAX), Step::Did(_)) {}
        if self.now_ps < limit {
            self.now_ps = limit;
        }
    }

    /// Runs until no events remain, up to a safety `limit`.
    ///
    /// # Errors
    ///
    /// Returns [`StillActiveError`] if events or upsets remain past
    /// the limit (the circuit oscillates or is driven forever).
    pub fn run_to_quiescence(&mut self, limit: SimTime) -> Result<SimTime, StillActiveError> {
        loop {
            match self.step_once(limit.as_ps(), u64::MAX) {
                Step::Did(_) => {}
                Step::Empty => return Ok(self.now()),
                Step::Beyond => return Err(StillActiveError { limit }),
            }
        }
    }

    /// The watchdog-supervised run loop: processes events until the
    /// circuit quiesces, the sim-time budget is exhausted, or the
    /// event budget is exhausted — whichever comes first. A
    /// fault-injected circuit can oscillate forever or stall forever;
    /// this always terminates with a classified [`Halt`] instead.
    pub fn run_budgeted(&mut self, budget: RunBudget) -> Halt {
        let limit = budget.sim_limit.as_ps();
        let mut applied: u64 = 0;
        loop {
            if applied >= budget.max_events {
                return Halt::EventLimit { at: self.now() };
            }
            match self.step_once(limit, budget.max_events - applied) {
                Step::Did(n) => applied += n,
                Step::Empty => return Halt::Quiescent { at: self.now() },
                Step::Beyond => return Halt::SimLimit { at: self.now() },
            }
        }
    }

    /// Dispatches the earliest pending action at or before `limit`,
    /// applying at most `max_events` events. Tie order at one instant:
    /// upsets, then far-list entries, then the wheel bucket (see the
    /// module docs).
    fn step_once(&mut self, limit: u64, max_events: u64) -> Step {
        let next_wheel = self.wheel.peek_earliest(self.now_ps);
        let next_far = self.far.get(self.far_next).map(|e| e.t_ps);
        let next_ev = match (next_wheel, next_far) {
            (Some(w), Some(f)) => Some(w.min(f)),
            (w, f) => w.or(f),
        };
        let next_up = if self.next_upset < self.upsets.len() {
            Some(self.upsets[self.next_upset].0)
        } else {
            None
        };
        match (next_ev, next_up) {
            (None, None) => Step::Empty,
            (ev, Some(ut)) if ut <= limit && ev.is_none_or(|et| ut <= et) => {
                let (t, w) = self.upsets[self.next_upset];
                self.next_upset += 1;
                let flipped = !self.value[w as usize];
                self.force_wire(w as usize, t, flipped, "seu_flip");
                Step::Did(1)
            }
            (Some(et), _) if et <= limit => {
                if next_far.is_some_and(|f| f <= et) {
                    let ev = self.far[self.far_next];
                    self.far_next += 1;
                    self.apply(ev);
                    Step::Did(1)
                } else {
                    let mut batch = std::mem::take(&mut self.drain);
                    self.wheel
                        .pop_earliest_into(self.now_ps, &mut batch)
                        .expect("peeked non-empty wheel");
                    let n = batch.len().min(usize::try_from(max_events).unwrap_or(usize::MAX));
                    // Apply sequentially: a cancellation mid-batch must
                    // kill later same-time entries.
                    for &ev in &batch[..n] {
                        self.apply(ev);
                    }
                    if n < batch.len() {
                        // A budgeted run stopped inside this instant.
                        self.wheel.push_front(&batch[n..]);
                    }
                    batch.clear();
                    self.drain = batch;
                    Step::Did(n as u64)
                }
            }
            _ => Step::Beyond,
        }
    }

    /// Schedules a wire change with inertial-delay semantics: changes
    /// that conflict with pending ones cancel them (narrow pulses are
    /// swallowed).
    fn schedule_change(&mut self, w: usize, t_ps: u64, value: bool) {
        // Fault hooks — one predictable branch each on the nominal
        // path (`stuck` false, scale 100).
        if self.stuck[w] {
            return;
        }
        let t_ps = if self.delay_scale[w] == 100 {
            t_ps
        } else {
            let delta = t_ps.saturating_sub(self.now_ps);
            self.now_ps + (delta * u64::from(self.delay_scale[w])) / 100
        };
        let sep = u64::from(self.nl.min_sep[w]);
        let last = self.last_event_ps[w];
        let too_close = last > 0 && t_ps < last + sep;
        let conflict = t_ps < last || value == self.scheduled[w] || too_close;
        if conflict {
            // Cancel everything in flight for this wire.
            self.gen[w] = self.gen[w].wrapping_add(1);
            self.stats.cancellations += 1;
            if let Some(tr) = &mut self.trace {
                tr.record(TraceEvent::EventCancelled {
                    t_ps: self.now_ps,
                    net: w as u32,
                });
            }
            if value == self.value[w] {
                // Settles at the current value; nothing to apply.
                self.scheduled[w] = value;
                self.last_event_ps[w] = t_ps;
                return;
            }
        }
        self.scheduled[w] = value;
        self.last_event_ps[w] = t_ps;
        let ev = Ev {
            t_ps,
            wire: w as u32,
            gen: self.gen[w],
            value,
        };
        if self.wheel.fits(self.now_ps, t_ps) {
            self.wheel.push(ev);
        } else if self.far.last().is_none_or(|e| e.t_ps <= t_ps) {
            // In-order scheduling (a clock train) appends.
            self.far.push(ev);
        } else {
            let tail = &self.far[self.far_next..];
            let pos = tail.partition_point(|e| e.t_ps <= t_ps);
            self.far.insert(self.far_next + pos, ev);
        }
        self.stats.events_scheduled += 1;
        if let Some(tr) = &mut self.trace {
            tr.record(TraceEvent::EventScheduled {
                t_ps: self.now_ps,
                fire_ps: t_ps,
                net: w as u32,
                value,
            });
        }
        let depth = self.pending_events() as u64;
        if depth > self.stats.peak_queue_depth {
            self.stats.peak_queue_depth = depth;
        }
    }

    fn apply(&mut self, ev: Ev) {
        debug_assert!(ev.t_ps >= self.now_ps, "event time went backwards");
        self.now_ps = ev.t_ps;
        let w = ev.wire as usize;
        if ev.gen != self.gen[w] || self.value[w] == ev.value {
            self.stats.dead_events += 1;
            return; // cancelled or redundant
        }
        self.stats.events_processed += 1;
        self.value[w] = ev.value;
        self.change_ps[w] = ev.t_ps;
        if self.watch_slot[w] != NONE {
            self.watches[self.watch_slot[w] as usize].push((ev.t_ps, ev.value));
        }
        if let Some(tr) = &mut self.trace {
            tr.record(TraceEvent::EventFired {
                t_ps: ev.t_ps,
                net: ev.wire,
                value: ev.value,
            });
            if let Some((_, signal, phase)) =
                self.clock_marks.iter().find(|(m, _, _)| *m == ev.wire)
            {
                tr.record(TraceEvent::ClockEdge {
                    t_ps: ev.t_ps,
                    signal: signal.clone(),
                    rising: ev.value,
                    phase: *phase,
                });
            }
        }
        self.settle_fanout(w);
    }

    /// Forces a wire outside the normal driver path (pins, upsets):
    /// cancels in-flight events, applies the change, records it as an
    /// injected fault, and lets the circuit react.
    fn force_wire(&mut self, w: usize, t_ps: u64, value: bool, kind: &str) {
        if t_ps > self.now_ps {
            self.now_ps = t_ps;
        }
        let now = self.now_ps;
        self.stats.faults_injected += 1;
        if let Some(tr) = &mut self.trace {
            tr.record(TraceEvent::FaultInjected {
                t_ps: now,
                site: fault_site(w),
                kind: kind.to_owned(),
            });
        }
        self.gen[w] = self.gen[w].wrapping_add(1); // kill in-flight events
        self.scheduled[w] = value;
        self.last_event_ps[w] = now;
        if self.value[w] == value {
            return;
        }
        self.value[w] = value;
        self.change_ps[w] = now;
        if self.watch_slot[w] != NONE {
            self.watches[self.watch_slot[w] as usize].push((now, value));
        }
        if let Some(tr) = &mut self.trace {
            tr.record(TraceEvent::EventFired {
                t_ps: now,
                net: w as u32,
                value,
            });
        }
        self.settle_fanout(w);
    }

    /// Propagates a change of wire `w` through its CSR fanout via the
    /// dirty-flagged ring queue: each driven gate is enqueued once,
    /// then the ring drains to quiescence *within this timestep* —
    /// scheduled outputs all land at least one gate delay in the
    /// future, so the drain is the zero-delay settling pass and every
    /// evaluation bumps `settle_iterations`.
    fn settle_fanout(&mut self, w: usize) {
        let s = self.nl.fanout_offsets[w] as usize;
        let e = self.nl.fanout_offsets[w + 1] as usize;
        for i in s..e {
            let g = self.nl.fanout[i];
            if !self.dirty[g as usize] {
                self.dirty[g as usize] = true;
                self.ring.push_back(g);
            }
        }
        while let Some(g) = self.ring.pop_front() {
            self.dirty[g as usize] = false;
            self.stats.settle_iterations += 1;
            self.eval_gate(g as usize, w);
        }
    }

    /// Evaluates one gate against current wire values, after a change
    /// of its input wire `changed`, and schedules its output.
    fn eval_gate(&mut self, g: usize, changed: usize) {
        let kind = self.nl.kinds[g];
        let a = self.nl.in_a[g] as usize;
        let out = self.nl.outs[g] as usize;
        let (rise, fall) = (u64::from(self.nl.d_rise[g]), u64::from(self.nl.d_fall[g]));
        match kind {
            GateKind::Buffer | GateKind::Inverter => {
                let out_val = self.value[a] ^ (kind == GateKind::Inverter);
                let delay = if out_val { rise } else { fall };
                self.schedule_change(out, self.now_ps + delay, out_val);
            }
            GateKind::Gate2(func) => {
                let b = self.nl.in_b[g] as usize;
                let out_val = func.eval(self.value[a], self.value[b]);
                if self.scheduled[out] != out_val {
                    let delay = if out_val { rise } else { fall };
                    self.schedule_change(out, self.now_ps + delay, out_val);
                }
            }
            GateKind::OneShot => {
                if self.value[a] {
                    // Rising edge: fresh pulse, rise scheduled first.
                    let t0 = self.now_ps + rise;
                    self.schedule_change(out, t0, true);
                    self.schedule_change(out, t0 + fall, false);
                }
            }
            GateKind::CElement => self.eval_c_element(g),
            GateKind::Register => self.eval_register(g, changed),
        }
    }

    /// A C-element's reaction: follow the inputs when they agree, hold
    /// otherwise. Out of line, like [`NetSim::eval_register`], so the
    /// propagation arms above stay compact.
    #[inline(never)]
    fn eval_c_element(&mut self, g: usize) {
        let (a, b) = (self.nl.in_a[g] as usize, self.nl.in_b[g] as usize);
        let out = self.nl.outs[g] as usize;
        let va = self.value[a];
        if va == self.value[b] && self.scheduled[out] != va {
            let delay = u64::from(self.nl.d_rise[g]);
            self.schedule_change(out, self.now_ps + delay, va);
        }
    }

    /// A register's reaction: a rising clock edge checks setup and
    /// samples `d`; a data change checks hold against the latest edge.
    #[inline(never)]
    fn eval_register(&mut self, g: usize, changed: usize) {
        let d = self.nl.in_a[g] as usize;
        let clk = self.nl.in_b[g] as usize;
        let slot = self.nl.d_fall[g] as usize;
        let windows = self.nl.registers[slot];
        let now = self.now_ps;
        if changed == clk && self.value[clk] {
            // A data wire that never changed (change time still zero)
            // cannot violate setup.
            let d_last = self.change_ps[d];
            if windows.setup_ps > 0
                && d_last > 0
                && now.saturating_sub(d_last) < windows.setup_ps
            {
                self.record_violation(d, ViolationKind::Setup);
            }
            self.last_clk_rise[slot] = Some(now);
            let q = self.nl.outs[g] as usize;
            let clk_to_q = u64::from(self.nl.d_rise[g]);
            self.schedule_change(q, now + clk_to_q, self.value[d]);
        } else if changed == d {
            if let Some(edge) = self.last_clk_rise[slot] {
                if windows.hold_ps > 0 && now.saturating_sub(edge) < windows.hold_ps {
                    self.record_violation(d, ViolationKind::Hold);
                }
            }
        }
    }

    fn record_violation(&mut self, d: usize, kind: ViolationKind) {
        self.violations.push(TimingViolation {
            at: self.now(),
            data_wire: WireId::from_index(d),
            kind,
        });
    }
}

/// The trace vocabulary's name for a fault site on wire `w`.
fn fault_site(w: usize) -> String {
    format!("net{w}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{GateFn, Netlist};

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    /// A one-gate circuit: `a → b` through a buffer.
    fn buffer(rise: u64, fall: u64) -> (NetSim, WireId, WireId) {
        let mut nl = Netlist::new();
        let (a, b) = (nl.add_wire(), nl.add_wire());
        nl.add_buffer(a, b, ps(rise), ps(fall));
        let mut sim = NetSim::from_netlist(nl);
        sim.watch(b);
        (sim, a, b)
    }

    /// A lone register `d, clk → q`.
    fn register(setup: u64, hold: u64, clk_to_q: u64) -> (NetSim, WireId, WireId, WireId) {
        let mut nl = Netlist::new();
        let (d, clk, q) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
        nl.add_register(d, clk, q, ps(setup), ps(hold), ps(clk_to_q));
        let mut sim = NetSim::from_netlist(nl);
        sim.watch(q);
        (sim, d, clk, q)
    }

    /// A small circuit exercising schedules, firings, and inertial
    /// cancellations: an inverter driven by a pulse narrower than its
    /// delay plus a free-running clock. `trace` enables event tracing
    /// *before* any stimulus, so the recorded lifecycle is complete.
    fn traced_fixture(trace: bool) -> (NetSim, WireId) {
        let mut nl = Netlist::new();
        let (clk, a, b) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
        nl.add_inverter(a, b, ps(100), ps(100));
        let mut sim = NetSim::from_netlist(nl);
        sim.watch(b);
        if trace {
            sim.enable_trace(1 << 12);
            sim.mark_clock(clk, "clk", 0);
        }
        sim.schedule_clock(clk, ps(50), ps(400), ps(200), 4);
        sim.schedule_input(a, ps(300), true);
        // Narrow pulse: swallowed by the inverter's inertial window.
        sim.schedule_input(a, ps(600), false);
        sim.schedule_input(a, ps(640), true);
        (sim, b)
    }

    #[test]
    fn tracing_does_not_change_behavior() {
        let (mut plain, b) = traced_fixture(false);
        plain.run_until(ps(5_000));
        let (mut traced, _) = traced_fixture(true);
        assert!(traced.trace_enabled());
        traced.run_until(ps(5_000));
        assert_eq!(plain.stats(), traced.stats());
        assert_eq!(plain.transitions(b), traced.transitions(b));
        assert_eq!(plain.now(), traced.now());
    }

    #[test]
    fn trace_records_the_event_lifecycle() {
        let (mut sim, _) = traced_fixture(true);
        sim.run_until(ps(5_000));
        let stats = sim.stats();
        let buf = sim.take_trace().expect("tracing was enabled");
        assert!(!sim.trace_enabled(), "take_trace disables tracing");
        let (events, dropped) = buf.into_ordered();
        assert_eq!(dropped, 0);
        let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count() as u64;
        assert_eq!(count("event_scheduled"), stats.events_scheduled);
        assert_eq!(count("event_fired"), stats.events_processed);
        assert_eq!(count("event_cancelled"), stats.cancellations);
        // 4 clock cycles, marked: 8 clock edges.
        assert_eq!(count("clock_edge"), 8);
        // The engine timeline satisfies the offline checker.
        let mut trace = sim_observe::Trace::new();
        let mut buf2 = sim_observe::TraceBuf::new(events.len());
        for ev in events {
            buf2.record(ev);
        }
        trace.add_track("engine", buf2);
        let check = sim_observe::check_trace(&trace);
        assert!(check.is_ok(), "{:?}", check.violations);
    }

    #[test]
    fn buffer_propagates_with_asymmetric_delays() {
        let (mut sim, a, b) = buffer(100, 300);
        sim.schedule_input(a, ps(1000), true);
        sim.schedule_input(a, ps(2000), false);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        assert_eq!(sim.transitions(b), &[(ps(1100), true), (ps(2300), false)]);
    }

    #[test]
    fn narrow_pulse_is_swallowed() {
        // Slow rise (400), fast fall (100): an input pulse of width
        // 200 ends (fall arrives at t+100+200=1300) before the rise
        // would complete (t+400=1400) — the output never moves, the
        // swallowed rise shows up as a cancellation and dies in the
        // queue.
        let (mut sim, a, b) = buffer(400, 100);
        sim.schedule_input(a, ps(1000), true);
        sim.schedule_input(a, ps(1200), false);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        assert!(sim.transitions(b).is_empty());
        assert!(!sim.value(b));
        let s = sim.stats();
        assert!(s.cancellations >= 1, "swallowed pulse cancels: {s:?}");
        assert!(s.dead_events >= 1, "cancelled event dies in queue: {s:?}");
        assert_eq!(s.events_scheduled, s.events_processed + s.dead_events);
    }

    #[test]
    fn wide_pulse_passes() {
        let (mut sim, a, b) = buffer(400, 100);
        sim.schedule_input(a, ps(1000), true);
        sim.schedule_input(a, ps(1500), false);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        // Rise at 1400, fall at 1600: narrowed from 500 to 200 but
        // alive; all four events processed, nothing cancelled.
        assert_eq!(sim.transitions(b), &[(ps(1400), true), (ps(1600), false)]);
        let s = sim.stats();
        assert_eq!(s.events_processed, 4);
        assert_eq!(s.cancellations, 0);
        assert!(s.peak_queue_depth >= 1);
    }

    #[test]
    fn inverter_chain_starts_consistent_and_settles_by_parity() {
        let mut nl = Netlist::new();
        let wires: Vec<WireId> = (0..4).map(|_| nl.add_wire()).collect();
        for w in wires.windows(2) {
            nl.add_inverter(w[0], w[1], ps(50), ps(50));
        }
        let mut sim = NetSim::from_netlist(nl);
        // Initial state alternates: 0,1,0,1 — consistent, no events.
        assert_eq!(sim.pending_events(), 0);
        sim.schedule_input(wires[0], ps(100), true);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        let values: Vec<bool> = wires.iter().map(|&w| sim.value(w)).collect();
        assert_eq!(values, [true, false, true, false]);
    }

    #[test]
    fn register_samples_on_rising_edge() {
        let (mut sim, d, clk, q) = register(50, 50, 20);
        sim.schedule_input(d, ps(100), true);
        sim.schedule_input(clk, ps(500), true);
        sim.schedule_input(clk, ps(700), false);
        sim.schedule_input(d, ps(800), false);
        sim.schedule_input(clk, ps(1500), true);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        assert_eq!(sim.transitions(q), &[(ps(520), true), (ps(1520), false)]);
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn setup_violation_detected() {
        let (mut sim, d, clk, _) = register(100, 100, 20);
        // Data changes 30 ps before the edge: setup (100) violated.
        sim.schedule_input(d, ps(470), true);
        sim.schedule_input(clk, ps(500), true);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        assert_eq!(
            sim.violations(),
            &[TimingViolation {
                at: ps(500),
                data_wire: d,
                kind: ViolationKind::Setup
            }]
        );
    }

    #[test]
    fn hold_violation_detected() {
        let (mut sim, d, clk, _) = register(100, 100, 20);
        sim.schedule_input(clk, ps(500), true);
        // Data changes 40 ps after the edge: hold (100) violated.
        sim.schedule_input(d, ps(540), true);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        assert_eq!(sim.violations().len(), 1);
        assert_eq!(sim.violations()[0].kind, ViolationKind::Hold);
    }

    #[test]
    fn clean_timing_and_zero_windows_record_nothing() {
        let (mut sim, d, clk, _) = register(100, 100, 20);
        sim.schedule_input(d, ps(200), true);
        sim.schedule_input(clk, ps(500), true);
        sim.schedule_input(clk, ps(900), false);
        sim.schedule_input(d, ps(1100), false);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        assert!(sim.violations().is_empty());
        // Zero windows disable the checks even for coincident edges.
        let (mut sim, d, clk, _) = register(0, 0, 20);
        sim.schedule_input(clk, ps(500), true);
        sim.schedule_input(d, ps(500), true);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn register_passes_edges_closer_than_its_delay() {
        // No inertial window on q: two samples 10 ps apart both land,
        // even though clk-to-q is 20 ps.
        let (mut sim, d, clk, q) = register(0, 0, 20);
        sim.schedule_input(d, ps(100), true);
        sim.schedule_input(clk, ps(500), true);
        sim.schedule_input(clk, ps(505), false);
        sim.schedule_input(d, ps(507), false);
        sim.schedule_input(clk, ps(510), true);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        assert_eq!(sim.transitions(q), &[(ps(520), true), (ps(530), false)]);
    }

    #[test]
    fn c_element_follows_agreement_and_holds_disagreement() {
        let mut nl = Netlist::new();
        let (a, b, q) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
        nl.add_c_element(a, b, q, ps(100));
        let mut sim = NetSim::from_netlist(nl);
        sim.watch(q);
        // Both inputs low at construction: output low, no event.
        assert_eq!(sim.pending_events(), 0);
        // a rises alone: hold. b joins: q rises 100 later. a falls
        // alone: hold. b falls: q falls.
        sim.schedule_input(a, ps(1000), true);
        sim.schedule_input(b, ps(2000), true);
        sim.schedule_input(a, ps(3000), false);
        sim.schedule_input(b, ps(4000), false);
        sim.run_to_quiescence(ps(100_000)).expect("settles");
        assert_eq!(sim.transitions(q), &[(ps(2100), true), (ps(4100), false)]);
    }

    #[test]
    fn c_element_rendezvous_of_two_chains() {
        // Two buffer chains of different lengths meet at a C-element:
        // the output waits for the slower chain — the rendezvous that
        // self-timed synchronization is built from.
        let mut nl = Netlist::new();
        let src = nl.add_wire();
        let mut chain = |n: usize| {
            let mut end = src;
            for _ in 0..n {
                let w = nl.add_wire();
                nl.add_buffer(end, w, ps(100), ps(100));
                end = w;
            }
            end
        };
        let (fast, slow) = (chain(2), chain(8));
        let q = nl.add_wire();
        nl.add_c_element(fast, slow, q, ps(10));
        let mut sim = NetSim::from_netlist(nl);
        sim.watch(q);
        sim.schedule_input(src, ps(1000), true);
        sim.run_to_quiescence(ps(100_000)).expect("settles");
        // Slow chain arrives at 1000 + 800; C fires 10 later.
        assert_eq!(sim.transitions(q), &[(ps(1810), true)]);
    }

    #[test]
    fn two_input_gate_resolves_its_initial_output_through_an_event() {
        let mut nl = Netlist::new();
        let (a, b, y) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
        nl.add_gate2(GateFn::Nand, a, b, y, ps(30), ps(40));
        let mut sim = NetSim::from_netlist(nl);
        sim.watch(y);
        assert!(!sim.value(y));
        assert_eq!(sim.pending_events(), 1);
        sim.schedule_input(a, ps(100), true);
        sim.schedule_input(b, ps(200), true);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        assert_eq!(sim.transitions(y), &[(ps(30), true), (ps(240), false)]);
    }

    #[test]
    fn clock_source_produces_edges_and_a_long_train_is_still_active() {
        let mut nl = Netlist::new();
        let clk = nl.add_wire();
        let mut sim = NetSim::from_netlist(nl);
        sim.watch(clk);
        sim.schedule_clock(clk, ps(100), ps(1000), ps(500), 3);
        sim.run_to_quiescence(ps(100_000)).expect("settles");
        let edges = sim.transitions(clk);
        assert_eq!(edges.len(), 6);
        assert_eq!(edges[0], (ps(100), true));
        assert_eq!(edges[5], (ps(2600), false));

        let mut nl = Netlist::new();
        let clk = nl.add_wire();
        let mut sim = NetSim::from_netlist(nl);
        sim.schedule_clock(clk, ps(0), ps(1000), ps(500), 1000);
        let err = sim.run_to_quiescence(ps(5_000)).unwrap_err();
        assert_eq!(err.limit, ps(5_000));
    }

    #[test]
    fn run_until_stops_at_time() {
        let (mut sim, a, b) = buffer(100, 100);
        sim.schedule_input(a, ps(1000), true);
        sim.run_until(ps(1050));
        assert!(!sim.value(b));
        assert_eq!(sim.now(), ps(1050));
        sim.run_until(ps(1100));
        assert!(sim.value(b));
    }

    #[test]
    fn budgeted_run_stops_inside_an_instant_and_resumes() {
        // Four wires all driven at the same instant: a two-event
        // budget applies exactly two, and the rest still fire later.
        let mut nl = Netlist::new();
        let wires: Vec<WireId> = (0..4).map(|_| nl.add_wire()).collect();
        let mut sim = NetSim::from_netlist(nl);
        for &w in &wires {
            sim.schedule_input(w, ps(10), true);
        }
        let halt = sim.run_budgeted(RunBudget::new(ps(1_000), 2));
        assert_eq!(halt, Halt::EventLimit { at: ps(10) });
        assert_eq!(sim.stats().events_processed, 2);
        assert_eq!(sim.pending_events(), 2);
        let values: Vec<bool> = wires.iter().map(|&w| sim.value(w)).collect();
        assert_eq!(values, [true, true, false, false]);
        let halt = sim.run_budgeted(RunBudget::new(ps(1_000), 10));
        assert_eq!(halt, Halt::Quiescent { at: ps(10) });
        assert!(wires.iter().all(|&w| sim.value(w)));
    }

    #[test]
    fn record_metrics_exports_counters() {
        let (mut sim, a, _) = buffer(100, 100);
        sim.schedule_input(a, ps(1000), true);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        let mut m = sim_observe::Metrics::new();
        sim.record_metrics(&mut m, "engine");
        assert_eq!(m.counter("engine.events_processed"), 2);
        assert_eq!(m.counter("engine.sim_time_ps"), 1100);
        // Peak depth merges as a max across simulators.
        let peak = m.counter("engine.peak_queue_depth");
        sim.stats().record(&mut m, "engine");
        assert_eq!(m.counter("engine.peak_queue_depth"), peak);
    }
}
