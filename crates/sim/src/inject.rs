//! Forward multi-time-frame injection simulation — the substrate of the
//! sequential learning technique.
//!
//! Learning works by forcing a value on one or more nodes at given time frames
//! and simulating *forward only*: through the combinational logic of the frame
//! and across sequential elements into the next frame, subject to the
//! real-circuit propagation rules of the paper (§3.3):
//!
//! * values never cross multiple-port latches,
//! * values never cross elements with both set and reset unconstrained,
//! * with a single unconstrained set (reset), only a 1 (0) crosses,
//! * only the sequential elements of the clock class being learned propagate.
//!
//! Simulation stops at a frame limit or when the sequential state repeats over
//! two consecutive frames (and no later injections are pending). A conflict —
//! an injected or tied node contradicted by simulation — is reported to the
//! caller; the learning engine interprets it as a tied target (paper §3.2).

use crate::equiv::EquivClasses;
use crate::frame::CombEvaluator;
use crate::packed::{eval_frame_packed, LaneConflicts, PackedTraces, PackedWord, TraceRead};
use crate::value::Logic3;
use crate::Result;
use sla_netlist::{Netlist, NodeId};

/// A single forced assignment: `node = value` at time frame `frame`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Injection {
    /// Node whose value is forced.
    pub node: NodeId,
    /// Forced logic value.
    pub value: bool,
    /// Time frame (0-based) at which the value is forced.
    pub frame: usize,
}

impl Injection {
    /// Creates an injection of `value` on `node` at `frame`.
    pub fn new(node: NodeId, value: bool, frame: usize) -> Self {
        Injection { node, value, frame }
    }
}

/// Options controlling a forward simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Maximum number of time frames simulated (the paper uses 50).
    pub max_frames: usize,
    /// Stop early when the sequential state repeats over two consecutive frames.
    pub stop_on_repeat: bool,
    /// Apply the set/reset and multiple-port-latch propagation rules.
    pub respect_seq_rules: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_frames: 50,
            stop_on_repeat: true,
            respect_seq_rules: true,
        }
    }
}

/// A contradiction observed during simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict {
    /// Node at which the contradiction was observed.
    pub node: NodeId,
    /// Frame in which it was observed.
    pub frame: usize,
}

/// The result of a forward simulation run: per-frame values for every node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    frames: Vec<Vec<Logic3>>,
    /// First contradiction observed, if any (simulation stops there).
    pub conflict: Option<Conflict>,
    /// `true` when simulation stopped because the state repeated.
    pub repeated: bool,
}

impl Trace {
    /// Number of simulated frames.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Value of `node` in `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame >= self.num_frames()`.
    pub fn value(&self, frame: usize, node: NodeId) -> Logic3 {
        self.frames[frame][node.index()]
    }

    /// All nodes holding a binary value in `frame`, as `(node, value)` pairs.
    pub fn assignments(&self, frame: usize) -> impl Iterator<Item = (NodeId, bool)> + '_ {
        self.frames[frame]
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.to_bool().map(|b| (NodeId(i as u32), b)))
    }

    /// Raw values of a frame.
    pub fn frame(&self, frame: usize) -> &[Logic3] {
        &self.frames[frame]
    }
}

/// Crate-internal constructor used by [`PackedTraces::to_trace`].
pub(crate) fn trace_from_parts(
    frames: Vec<Vec<Logic3>>,
    conflict: Option<Conflict>,
    repeated: bool,
) -> Trace {
    Trace {
        frames,
        conflict,
        repeated,
    }
}

impl TraceRead for Trace {
    fn num_frames(&self) -> usize {
        self.frames.len()
    }

    fn num_nodes(&self) -> usize {
        self.frames.first().map(|f| f.len()).unwrap_or(0)
    }

    #[inline]
    fn value(&self, frame: usize, node: NodeId) -> Logic3 {
        self.frames[frame][node.index()]
    }

    fn conflict(&self) -> Option<Conflict> {
        self.conflict
    }

    fn frames_equal(&self, a: usize, b: usize) -> bool {
        self.frames[a] == self.frames[b]
    }
}

/// Forward multi-frame three-valued simulator with value injection.
///
/// The simulator owns per-run-invariant learning state — previously learned
/// tied gates (forced as constants), combinational equivalence classes and the
/// active clock class — so that the per-stem inner loop of the learning engine
/// is allocation-light.
#[derive(Debug, Clone)]
pub struct InjectionSim<'a> {
    eval: CombEvaluator<'a>,
    equiv: Option<EquivClasses>,
    tied: Vec<(NodeId, bool)>,
    /// Per-node flag beside `tied`, so membership is one load; empty until
    /// the first tie is registered.
    is_tied: Vec<bool>,
    active_seq: Option<Vec<bool>>,
}

impl<'a> InjectionSim<'a> {
    /// Builds a simulator for `netlist`.
    ///
    /// # Errors
    ///
    /// Returns an error if the combinational logic cannot be levelized.
    pub fn new(netlist: &'a Netlist) -> Result<Self> {
        Ok(InjectionSim {
            eval: CombEvaluator::new(netlist)?,
            equiv: None,
            tied: Vec::new(),
            is_tied: Vec::new(),
            active_seq: None,
        })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &'a Netlist {
        self.eval.netlist()
    }

    /// Enables combinational-equivalence value forwarding during simulation.
    pub fn set_equivalences(&mut self, classes: EquivClasses) {
        self.equiv = if classes.is_empty() {
            None
        } else {
            Some(classes)
        };
    }

    /// Disables equivalence forwarding.
    pub fn clear_equivalences(&mut self) {
        self.equiv = None;
    }

    /// Replaces the set of known tied gates, forced as constants in every frame.
    pub fn set_tied(&mut self, tied: Vec<(NodeId, bool)>) {
        self.is_tied.clear();
        for &(node, _) in &tied {
            self.flag_tied(node);
        }
        self.tied = tied;
    }

    /// Adds one tied gate.
    pub fn add_tied(&mut self, node: NodeId, value: bool) {
        if !self.is_tied(node) {
            self.flag_tied(node);
            self.tied.push((node, value));
        }
    }

    fn flag_tied(&mut self, node: NodeId) {
        if self.is_tied.len() <= node.index() {
            self.is_tied.resize(self.eval.netlist().num_nodes(), false);
        }
        self.is_tied[node.index()] = true;
    }

    /// Currently registered tied gates.
    pub fn tied(&self) -> &[(NodeId, bool)] {
        &self.tied
    }

    /// Returns `true` when `node` is among the registered tied gates.
    #[inline]
    pub fn is_tied(&self, node: NodeId) -> bool {
        self.is_tied.get(node.index()).copied().unwrap_or(false)
    }

    /// Restricts propagation across sequential elements to those for which the
    /// mask (indexed by node id) is `true`; `None` activates all of them.
    pub fn set_active_sequential(&mut self, mask: Option<Vec<bool>>) {
        self.active_seq = mask;
    }

    /// Runs a forward simulation with the given injections.
    ///
    /// Frames are simulated starting at 0. All injections must have
    /// `frame < options.max_frames`; later ones never take effect.
    pub fn run(&self, injections: &[Injection], options: &SimOptions) -> Trace {
        let netlist = self.eval.netlist();
        let n = netlist.num_nodes();
        let mut state: Vec<Logic3> = vec![Logic3::X; n];
        let mut frames = Vec::new();
        let mut conflict: Option<Conflict> = None;
        let mut repeated = false;

        for t in 0..options.max_frames {
            let mut values = vec![Logic3::X; n];
            let mut forced = vec![false; n];

            // Previously learned tied gates hold their constant in every frame.
            for &(node, v) in &self.tied {
                values[node.index()] = Logic3::from_bool(v);
                forced[node.index()] = true;
            }

            // Sequential state propagated from the previous frame.
            for s in netlist.sequential_elements() {
                let idx = s.index();
                let incoming = state[idx];
                if forced[idx] {
                    if let (Some(a), Some(b)) = (incoming.to_bool(), values[idx].to_bool()) {
                        if a != b && conflict.is_none() {
                            conflict = Some(Conflict { node: s, frame: t });
                        }
                    }
                } else {
                    values[idx] = incoming;
                }
            }

            // Injections scheduled for this frame.
            for inj in injections.iter().filter(|i| i.frame == t) {
                let idx = inj.node.index();
                let v = Logic3::from_bool(inj.value);
                if values[idx].is_binary() && values[idx] != v && conflict.is_none() {
                    conflict = Some(Conflict {
                        node: inj.node,
                        frame: t,
                    });
                }
                values[idx] = v;
                forced[idx] = true;
            }

            // Combinational evaluation of this frame.
            if let Some(c) = self.eval.eval(&mut values, &forced, self.equiv.as_ref()) {
                if conflict.is_none() {
                    conflict = Some(Conflict { node: c, frame: t });
                }
            }

            frames.push(values.clone());
            if conflict.is_some() {
                break;
            }

            // Next sequential state.
            let mut next = vec![Logic3::X; n];
            for s in netlist.sequential_elements() {
                let info = *netlist.seq_info(s).expect("sequential element");
                let data = netlist.fanins(s)[0];
                let mut v = values[data.index()];
                if let Some(b) = v.to_bool() {
                    if options.respect_seq_rules && !info.allows_propagation(b) {
                        v = Logic3::X;
                    }
                    if let Some(mask) = &self.active_seq {
                        if !mask[s.index()] {
                            v = Logic3::X;
                        }
                    }
                }
                next[s.index()] = v;
            }

            let later_injections = injections.iter().any(|i| i.frame > t);
            if options.stop_on_repeat && !later_injections {
                let same = netlist
                    .sequential_elements()
                    .all(|s| next[s.index()] == state[s.index()]);
                if same {
                    repeated = true;
                    break;
                }
            }
            state = next;
        }

        Trace {
            frames,
            conflict,
            repeated,
        }
    }

    /// Runs up to 64 independent forward simulations in one packed pass.
    ///
    /// Each element of `jobs` is an injection list exactly as accepted by
    /// [`InjectionSim::run`]; entry *i* of the result is identical (frames,
    /// conflict, state-repeat flag) to `self.run(jobs[i], options)`. The jobs
    /// share every forward pass through the word-parallel kernel of
    /// [`crate::packed`], which is what makes batched learning cheap.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 jobs are passed.
    pub fn run_batch(&self, jobs: &[&[Injection]], options: &SimOptions) -> Vec<Trace> {
        let packed = self.run_batch_impl(jobs, options, None);
        (0..packed.lanes()).map(|l| packed.to_trace(l)).collect()
    }

    /// Like [`InjectionSim::run_batch`], but returns the packed result
    /// directly; per-lane views ([`crate::packed::LaneTrace`]) read it in
    /// place with no unpacking.
    pub fn run_batch_packed(&self, jobs: &[&[Injection]], options: &SimOptions) -> PackedTraces {
        self.run_batch_impl(jobs, options, None)
    }

    /// Like [`InjectionSim::run_batch`], but lane *i* additionally stops after
    /// `limits[i]` frames: entry *i* of the result is identical to running job
    /// *i* alone with `max_frames = options.max_frames.min(limits[i])`. This
    /// lets callers pack jobs with different frame horizons (e.g. multi-node
    /// learning targets) into one pass.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 jobs are passed or `limits` has a different
    /// length than `jobs`.
    pub fn run_batch_with_limits(
        &self,
        jobs: &[&[Injection]],
        options: &SimOptions,
        limits: &[usize],
    ) -> Vec<Trace> {
        let packed = self.run_batch_with_limits_packed(jobs, options, limits);
        (0..packed.lanes()).map(|l| packed.to_trace(l)).collect()
    }

    /// Like [`InjectionSim::run_batch_with_limits`], but returns the packed
    /// result directly.
    pub fn run_batch_with_limits_packed(
        &self,
        jobs: &[&[Injection]],
        options: &SimOptions,
        limits: &[usize],
    ) -> PackedTraces {
        assert_eq!(jobs.len(), limits.len(), "one frame limit per job");
        self.run_batch_impl(jobs, options, Some(limits))
    }

    fn run_batch_impl(
        &self,
        jobs: &[&[Injection]],
        options: &SimOptions,
        limits: Option<&[usize]>,
    ) -> PackedTraces {
        let lanes = jobs.len();
        assert!(lanes <= 64, "a packed batch holds at most 64 jobs");
        let n = self.eval.netlist().num_nodes();
        if lanes == 0 {
            return PackedTraces {
                num_nodes: n,
                frames: Vec::new(),
                lane_frames: Vec::new(),
                conflicts: Vec::new(),
                repeated: 0,
            };
        }
        let lane_limit =
            |lane: usize| limits.map_or(options.max_frames, |l| l[lane].min(options.max_frames));
        let netlist = self.eval.netlist();
        let order = self.eval.levels().order();
        let order_pos = self.eval.order_pos();
        let all: u64 = if lanes == 64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };

        // Per-lane frame horizon of pending injections: a lane never
        // repeat-stops while injections are still scheduled (mirroring the
        // scalar `later_injections` check, which looks at every injection
        // regardless of the frame limit).
        let last_injection: Vec<usize> = jobs
            .iter()
            .map(|job| job.iter().map(|i| i.frame).max().unwrap_or(0))
            .collect();

        // Per-lane injections sorted by frame (stable: within a frame the
        // original order is kept, as the scalar path applies them), with a
        // cursor advanced once per frame instead of a full rescan. Callers
        // usually pass frame-sorted jobs already — those are borrowed as-is.
        let sorted_jobs: Vec<std::borrow::Cow<'_, [Injection]>> = jobs
            .iter()
            .map(|job| {
                if job.windows(2).all(|w| w[0].frame <= w[1].frame) {
                    std::borrow::Cow::Borrowed(*job)
                } else {
                    let mut owned = job.to_vec();
                    owned.sort_by_key(|i| i.frame);
                    std::borrow::Cow::Owned(owned)
                }
            })
            .collect();
        let mut cursors = vec![0usize; lanes];

        let mut active = 0u64;
        let mut max_frames = 0usize;
        for lane in 0..lanes {
            if lane_limit(lane) > 0 {
                active |= 1u64 << lane;
                max_frames = max_frames.max(lane_limit(lane));
            }
        }
        let mut repeated = 0u64;
        let mut conflicts = LaneConflicts::new(lanes);
        let mut lane_frames = vec![0usize; lanes];
        let mut state = vec![PackedWord::ALL_X; n];
        let mut packed_frames: Vec<Vec<PackedWord>> = Vec::new();
        let mut fanin_buf: Vec<PackedWord> = Vec::new();

        for t in 0..max_frames {
            if active == 0 {
                break;
            }
            let mut values = vec![PackedWord::ALL_X; n];
            let mut forced = vec![0u64; n];

            // Previously learned tied gates hold their constant in every frame
            // and every lane.
            for &(node, v) in &self.tied {
                values[node.index()] = PackedWord::splat(Logic3::from_bool(v));
                forced[node.index()] = all;
            }

            // Sequential state propagated from the previous frame.
            for s in netlist.sequential_elements() {
                let idx = s.index();
                let incoming = state[idx];
                let f = forced[idx];
                conflicts.record(incoming.mismatch_lanes(values[idx]) & f & active, s, t);
                let free = !f;
                values[idx].one |= incoming.one & free;
                values[idx].zero |= incoming.zero & free;
            }

            // Injections scheduled for this frame, per lane.
            for (lane, job) in sorted_jobs.iter().enumerate() {
                let bit = 1u64 << lane;
                let cursor = &mut cursors[lane];
                while *cursor < job.len() && job[*cursor].frame == t {
                    let inj = job[*cursor];
                    *cursor += 1;
                    if active & bit == 0 {
                        continue;
                    }
                    let idx = inj.node.index();
                    let v = Logic3::from_bool(inj.value);
                    let cur = values[idx].get(lane);
                    if cur.is_binary() && cur != v {
                        conflicts.record(bit, inj.node, t);
                    }
                    values[idx].set(lane, v);
                    forced[idx] |= bit;
                }
            }

            // Combinational evaluation of this frame.
            eval_frame_packed(
                netlist,
                order,
                order_pos,
                &mut values,
                &forced,
                self.equiv.as_ref(),
                active,
                t,
                &mut conflicts,
                &mut fanin_buf,
            );

            packed_frames.push(values);
            let mut live = active;
            while live != 0 {
                let lane = live.trailing_zeros() as usize;
                live &= live - 1;
                lane_frames[lane] = t + 1;
            }
            active &= !conflicts.mask();
            if active == 0 {
                break;
            }

            // Next sequential state.
            let values = packed_frames.last().expect("frame just pushed");
            let mut next = vec![PackedWord::ALL_X; n];
            for s in netlist.sequential_elements() {
                let info = *netlist.seq_info(s).expect("sequential element");
                let data = netlist.fanins(s)[0];
                let mut v = values[data.index()];
                if options.respect_seq_rules {
                    if !info.allows_propagation(true) {
                        v.one = 0;
                    }
                    if !info.allows_propagation(false) {
                        v.zero = 0;
                    }
                }
                if let Some(mask) = &self.active_seq {
                    if !mask[s.index()] {
                        v = PackedWord::ALL_X;
                    }
                }
                next[s.index()] = v;
            }

            if options.stop_on_repeat {
                let mut same = all;
                for s in netlist.sequential_elements() {
                    same &= next[s.index()].eq_lanes(state[s.index()]);
                    if same == 0 {
                        break;
                    }
                }
                let mut no_later = 0u64;
                for (lane, &last) in last_injection.iter().enumerate() {
                    if last <= t {
                        no_later |= 1u64 << lane;
                    }
                }
                let stop = same & no_later & active;
                repeated |= stop;
                active &= !stop;
            }
            // Per-lane frame limits deactivate only after the repeat check:
            // the scalar loop also runs its repeat check during the final
            // frame of a run.
            let mut live = active;
            while live != 0 {
                let lane = live.trailing_zeros() as usize;
                live &= live - 1;
                if lane_limit(lane) == t + 1 {
                    active &= !(1u64 << lane);
                }
            }
            state = next;
        }

        PackedTraces {
            num_nodes: n,
            frames: packed_frames,
            lane_frames,
            conflicts: conflicts.take(),
            repeated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_netlist::{GateType, LineConstraint, NetlistBuilder, SeqInfo, SeqKind};

    /// A two-FF shift register fed by an inverter: q2 <- q1 <- NOT(a).
    fn shift_register() -> Netlist {
        let mut b = NetlistBuilder::new("shift");
        b.input("a");
        b.gate("g", GateType::Not, &["a"]).unwrap();
        b.dff("q1", "g").unwrap();
        b.dff("q2", "q1").unwrap();
        b.output("q2").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn values_travel_through_time_frames() {
        let n = shift_register();
        let sim = InjectionSim::new(&n).unwrap();
        let a = n.require("a").unwrap();
        let q1 = n.require("q1").unwrap();
        let q2 = n.require("q2").unwrap();
        let trace = sim.run(
            &[Injection::new(a, false, 0)],
            &SimOptions {
                max_frames: 4,
                stop_on_repeat: false,
                respect_seq_rules: true,
            },
        );
        assert_eq!(trace.value(0, q1), Logic3::X);
        assert_eq!(trace.value(1, q1), Logic3::One);
        assert_eq!(trace.value(1, q2), Logic3::X);
        assert_eq!(trace.value(2, q2), Logic3::One);
        assert!(trace.conflict.is_none());
    }

    #[test]
    fn state_repeat_stops_simulation() {
        // q feeds itself through a buffer: injecting q=1 reaches a fixed point
        // immediately, so the run stops well before the frame limit.
        let mut b = NetlistBuilder::new("selfloop");
        b.input("a");
        b.gate("g", GateType::Buf, &["q"]).unwrap();
        b.dff("q", "g").unwrap();
        b.output("q").unwrap();
        let n = b.build().unwrap();
        let sim = InjectionSim::new(&n).unwrap();
        let q = n.require("q").unwrap();
        let trace = sim.run(&[Injection::new(q, true, 0)], &SimOptions::default());
        assert!(trace.repeated);
        assert!(trace.num_frames() < 50);
        // The value persists in every simulated frame.
        for t in 0..trace.num_frames() {
            assert_eq!(trace.value(t, q), Logic3::One);
        }
    }

    #[test]
    fn injection_conflict_is_reported() {
        let n = shift_register();
        let sim = InjectionSim::new(&n).unwrap();
        let a = n.require("a").unwrap();
        let q1 = n.require("q1").unwrap();
        // a=0 at frame 0 forces q1=1 at frame 1; injecting q1=0 at frame 1 conflicts.
        let trace = sim.run(
            &[Injection::new(a, false, 0), Injection::new(q1, false, 1)],
            &SimOptions::default(),
        );
        let c = trace.conflict.expect("conflict expected");
        assert_eq!(c.node, q1);
        assert_eq!(c.frame, 1);
    }

    #[test]
    fn tied_constants_apply_every_frame() {
        let mut b = NetlistBuilder::new("tied");
        b.input("a");
        b.gate("t", GateType::And, &["a", "na"]).unwrap();
        b.gate("na", GateType::Not, &["a"]).unwrap();
        b.gate("g", GateType::Or, &["t", "q"]).unwrap();
        b.dff("q", "g").unwrap();
        b.output("q").unwrap();
        let n = b.build().unwrap();
        let mut sim = InjectionSim::new(&n).unwrap();
        let t = n.require("t").unwrap();
        let q = n.require("q").unwrap();
        sim.add_tied(t, false);
        // With t tied to 0, q=0 propagates through the OR and the state stays 0.
        let trace = sim.run(&[Injection::new(q, false, 0)], &SimOptions::default());
        assert!(trace.conflict.is_none());
        assert_eq!(trace.value(0, t), Logic3::Zero);
        for f in 0..trace.num_frames() {
            assert_eq!(trace.value(f, q), Logic3::Zero, "frame {f}");
        }
    }

    #[test]
    fn multiport_latch_blocks_propagation() {
        let mut b = NetlistBuilder::new("mpl");
        b.input("a");
        b.seq(
            "l",
            "a",
            SeqInfo {
                kind: SeqKind::Latch,
                ports: 2,
                ..SeqInfo::default()
            },
        )
        .unwrap();
        b.gate("g", GateType::Buf, &["l"]).unwrap();
        b.output("g").unwrap();
        let n = b.build().unwrap();
        let sim = InjectionSim::new(&n).unwrap();
        let a = n.require("a").unwrap();
        let l = n.require("l").unwrap();
        let trace = sim.run(
            &[Injection::new(a, true, 0)],
            &SimOptions {
                max_frames: 3,
                stop_on_repeat: false,
                respect_seq_rules: true,
            },
        );
        assert_eq!(trace.value(1, l), Logic3::X, "2-port latch must block");
        // Without the rules the value would cross.
        let trace2 = sim.run(
            &[Injection::new(a, true, 0)],
            &SimOptions {
                max_frames: 3,
                stop_on_repeat: false,
                respect_seq_rules: false,
            },
        );
        assert_eq!(trace2.value(1, l), Logic3::One);
    }

    #[test]
    fn partial_set_only_lets_one_through() {
        let mut b = NetlistBuilder::new("set");
        b.input("a");
        b.seq(
            "q",
            "a",
            SeqInfo {
                set: LineConstraint::Unconstrained,
                ..SeqInfo::default()
            },
        )
        .unwrap();
        b.output("q").unwrap();
        let n = b.build().unwrap();
        let sim = InjectionSim::new(&n).unwrap();
        let a = n.require("a").unwrap();
        let q = n.require("q").unwrap();
        let opts = SimOptions {
            max_frames: 2,
            stop_on_repeat: false,
            respect_seq_rules: true,
        };
        let one = sim.run(&[Injection::new(a, true, 0)], &opts);
        assert_eq!(one.value(1, q), Logic3::One, "1 agrees with the set line");
        let zero = sim.run(&[Injection::new(a, false, 0)], &opts);
        assert_eq!(zero.value(1, q), Logic3::X, "0 could be overridden by set");
    }

    #[test]
    fn clock_class_mask_restricts_propagation() {
        let n = shift_register();
        let mut sim = InjectionSim::new(&n).unwrap();
        let a = n.require("a").unwrap();
        let q1 = n.require("q1").unwrap();
        let q2 = n.require("q2").unwrap();
        // Only q1 is in the active class; q2 must stay X.
        let mut mask = vec![false; n.num_nodes()];
        mask[q1.index()] = true;
        sim.set_active_sequential(Some(mask));
        let trace = sim.run(
            &[Injection::new(a, false, 0)],
            &SimOptions {
                max_frames: 4,
                stop_on_repeat: false,
                respect_seq_rules: true,
            },
        );
        assert_eq!(trace.value(1, q1), Logic3::One);
        assert_eq!(trace.value(2, q2), Logic3::X);
    }

    #[test]
    fn assignments_iterator_lists_binary_values_only() {
        let n = shift_register();
        let sim = InjectionSim::new(&n).unwrap();
        let a = n.require("a").unwrap();
        let trace = sim.run(&[Injection::new(a, true, 0)], &SimOptions::default());
        let frame0: Vec<(NodeId, bool)> = trace.assignments(0).collect();
        assert!(frame0.contains(&(a, true)));
        assert!(frame0
            .iter()
            .all(|&(node, _)| trace.value(0, node).is_binary()));
    }
}
