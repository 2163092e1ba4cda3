//! 64-wide packed three-valued simulation: the word-parallel backbone of the
//! learning and fault-simulation hot loops.
//!
//! Values are encoded in two bit-planes per node word: bit *i* of `zero` is set
//! when lane *i* holds logic 0, bit *i* of `one` when it holds logic 1, and a
//! lane with neither bit set holds `X` (the planes are disjoint by
//! construction). Gate evaluation reduces to plane-wise applications of the
//! binary 64-wide primitive [`eval_gate64`]: for an AND gate the `one` plane
//! is the 64-wide AND of the fanin `one` planes and the `zero` plane is the
//! 64-wide OR of the fanin `zero` planes, and dually for OR — exactly the
//! Kleene three-valued truth tables, 64 lanes at a time.
//!
//! Consumers pack independent scenarios into the lanes:
//!
//! * [`InjectionSim::run_batch_packed`](crate::InjectionSim::run_batch_packed)
//!   packs up to 64 injection jobs (e.g. 32 learning stems × 2 polarities)
//!   into one forward multi-frame pass,
//! * [`FaultSimulator::detected_faults`](crate::FaultSimulator::detected_faults)
//!   packs up to 64 faulty machines into one pass over a test sequence.

use crate::equiv::EquivClasses;
use crate::eval::eval_gate64;
use crate::frame::is_behind;
use crate::inject::Conflict;
use crate::value::Logic3;
use sla_netlist::levelize::Levelization;
use sla_netlist::{GateType, Netlist, NodeId, NodeKind};

/// 64 lanes of three-valued logic in two disjoint bit-planes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackedWord {
    /// Lanes holding logic 0.
    pub zero: u64,
    /// Lanes holding logic 1.
    pub one: u64,
}

impl PackedWord {
    /// All 64 lanes unknown.
    pub const ALL_X: PackedWord = PackedWord { zero: 0, one: 0 };

    /// The same value in every lane.
    pub fn splat(value: Logic3) -> PackedWord {
        match value {
            Logic3::Zero => PackedWord {
                zero: u64::MAX,
                one: 0,
            },
            Logic3::One => PackedWord {
                zero: 0,
                one: u64::MAX,
            },
            Logic3::X => PackedWord::ALL_X,
        }
    }

    /// Lanes holding a binary (non-`X`) value.
    pub fn known(self) -> u64 {
        self.zero | self.one
    }

    /// The value of one lane.
    pub fn get(self, lane: usize) -> Logic3 {
        debug_assert!(lane < 64);
        if (self.one >> lane) & 1 == 1 {
            Logic3::One
        } else if (self.zero >> lane) & 1 == 1 {
            Logic3::Zero
        } else {
            Logic3::X
        }
    }

    /// Sets the value of one lane.
    pub fn set(&mut self, lane: usize, value: Logic3) {
        debug_assert!(lane < 64);
        let bit = 1u64 << lane;
        self.zero &= !bit;
        self.one &= !bit;
        match value {
            Logic3::Zero => self.zero |= bit,
            Logic3::One => self.one |= bit,
            Logic3::X => {}
        }
    }

    /// Lanes where `self` and `other` hold the same three-valued value.
    pub fn eq_lanes(self, other: PackedWord) -> u64 {
        !((self.zero ^ other.zero) | (self.one ^ other.one))
    }

    /// Lanes where both words are binary and disagree.
    pub fn mismatch_lanes(self, other: PackedWord) -> u64 {
        (self.zero & other.one) | (self.one & other.zero)
    }
}

impl std::ops::Not for PackedWord {
    type Output = PackedWord;

    /// Lane-wise three-valued negation (plane swap; `X` stays `X`).
    fn not(self) -> PackedWord {
        PackedWord {
            zero: self.one,
            one: self.zero,
        }
    }
}

/// Evaluates a combinational gate over packed three-valued fanins, 64 lanes at
/// a time. Lane *i* of the result equals
/// [`eval_gate3`](crate::eval::eval_gate3) applied to lane *i* of the fanins.
#[inline]
pub fn eval_gate3x64(gate: GateType, fanins: &[PackedWord]) -> PackedWord {
    let ones = fanins.iter().map(|w| w.one);
    let zeros = fanins.iter().map(|w| w.zero);
    match gate {
        GateType::And | GateType::Nand => {
            let out = PackedWord {
                one: eval_gate64(GateType::And, ones),
                zero: eval_gate64(GateType::Or, zeros),
            };
            if gate == GateType::Nand {
                !out
            } else {
                out
            }
        }
        GateType::Or | GateType::Nor => {
            let out = PackedWord {
                one: eval_gate64(GateType::Or, ones),
                zero: eval_gate64(GateType::And, zeros),
            };
            if gate == GateType::Nor {
                !out
            } else {
                out
            }
        }
        GateType::Xor | GateType::Xnor => {
            // Defined only in lanes where every fanin is binary.
            let known = fanins.iter().fold(u64::MAX, |m, w| m & w.known());
            let parity = eval_gate64(GateType::Xor, ones);
            let out = PackedWord {
                one: parity & known,
                zero: !parity & known,
            };
            if gate == GateType::Xnor {
                !out
            } else {
                out
            }
        }
        GateType::Not => fanins.first().map(|w| !*w).unwrap_or(PackedWord::ALL_X),
        GateType::Buf => fanins.first().copied().unwrap_or(PackedWord::ALL_X),
        GateType::Const0 => PackedWord::splat(Logic3::Zero),
        GateType::Const1 => PackedWord::splat(Logic3::One),
    }
}

/// Per-lane first-conflict bookkeeping for a packed run.
///
/// Mirrors the scalar rule "only the first contradiction of a run is
/// reported": once a lane has a conflict recorded, later records for that lane
/// are ignored.
#[derive(Debug, Clone)]
pub(crate) struct LaneConflicts {
    first: Vec<Option<Conflict>>,
    mask: u64,
}

impl LaneConflicts {
    pub(crate) fn new(lanes: usize) -> Self {
        LaneConflicts {
            first: vec![None; lanes],
            mask: 0,
        }
    }

    /// Records `node`/`frame` as the conflict of every lane in `lanes` that
    /// does not have one yet.
    pub(crate) fn record(&mut self, lanes: u64, node: NodeId, frame: usize) {
        let mut fresh = lanes & !self.mask;
        self.mask |= fresh;
        while fresh != 0 {
            let lane = fresh.trailing_zeros() as usize;
            fresh &= fresh - 1;
            self.first[lane] = Some(Conflict { node, frame });
        }
    }

    /// Lanes with a recorded conflict.
    pub(crate) fn mask(&self) -> u64 {
        self.mask
    }

    pub(crate) fn take(self) -> Vec<Option<Conflict>> {
        self.first
    }
}

/// One packed combinational-evaluation pass in levelized order — the
/// word-parallel mirror of `CombEvaluator::eval_pass`. `forced` carries a
/// per-node lane mask; conflict recording is restricted to `active` lanes.
///
/// Returns `true` when another pass is needed: a value flowed *backwards* in
/// the topological order (equivalence forwarding into an already-visited
/// node). Values set at or ahead of the cursor are consumed by the same pass,
/// so they never force a re-pass.
#[allow(clippy::too_many_arguments)]
fn eval_pass_packed(
    netlist: &Netlist,
    levels: Levelization<'_>,
    values: &mut [PackedWord],
    forced: &[u64],
    equiv: Option<&EquivClasses>,
    active: u64,
    frame: usize,
    conflicts: &mut LaneConflicts,
    fanin_buf: &mut Vec<PackedWord>,
) -> bool {
    let mut needs_repass = false;
    for &id in levels.order() {
        let NodeKind::Gate(gate) = netlist.kind(id) else {
            continue;
        };
        fanin_buf.clear();
        fanin_buf.extend(netlist.fanins(id).iter().map(|f| values[f.index()]));
        let computed = eval_gate3x64(gate, fanin_buf);
        let idx = id.index();
        let current = values[idx];
        let f = forced[idx];
        // Both-binary-and-different lanes conflict, forced or not (the scalar
        // evaluator reports both cases at this node).
        conflicts.record(computed.mismatch_lanes(current) & active, id, frame);
        // Non-forced lanes where the gate newly produces a binary value.
        let set = !f & computed.known() & !current.known();
        if set != 0 {
            values[idx].one |= computed.one & set;
            values[idx].zero |= computed.zero & set;
        }
        // Equivalence forwarding: binary lanes of this node propagate to the
        // other members of its combinational equivalence class.
        if let Some(eq) = equiv {
            let v = values[idx];
            if v.known() != 0 {
                if let Some((class, inv)) = eq.class_of(id) {
                    for &(member, m_inv) in eq.members(class) {
                        let m_idx = member.index();
                        if m_idx == idx {
                            continue;
                        }
                        let m_val = if inv ^ m_inv { !v } else { v };
                        let m_cur = values[m_idx];
                        let set = v.known() & !m_cur.known() & !forced[m_idx];
                        if set != 0 {
                            values[m_idx].one |= m_val.one & set;
                            values[m_idx].zero |= m_val.zero & set;
                            if is_behind(levels, member, id) {
                                needs_repass = true;
                            }
                        }
                        conflicts.record(m_val.mismatch_lanes(m_cur) & active, member, frame);
                    }
                }
            }
        }
    }
    needs_repass
}

/// Evaluates all combinational gates of one packed frame to a fixed point —
/// the word-parallel mirror of `CombEvaluator::eval`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_frame_packed(
    netlist: &Netlist,
    levels: Levelization<'_>,
    values: &mut [PackedWord],
    forced: &[u64],
    equiv: Option<&EquivClasses>,
    active: u64,
    frame: usize,
    conflicts: &mut LaneConflicts,
    fanin_buf: &mut Vec<PackedWord>,
) {
    // A single topological pass suffices unless equivalence forwarding pushed
    // a value backwards; iterate to fixpoint only in that (rare) case.
    let max_passes = if equiv.is_some() {
        levels.order().len().max(1)
    } else {
        1
    };
    for _ in 0..max_passes {
        let needs_repass = eval_pass_packed(
            netlist, levels, values, forced, equiv, active, frame, conflicts, fanin_buf,
        );
        if !needs_repass {
            break;
        }
    }
}

/// Unpacks one lane of a packed frame into a scalar value vector.
pub(crate) fn unpack_lane(frame: &[PackedWord], lane: usize) -> Vec<Logic3> {
    let bit = 1u64 << lane;
    frame
        .iter()
        .map(|w| {
            if w.one & bit != 0 {
                Logic3::One
            } else if w.zero & bit != 0 {
                Logic3::Zero
            } else {
                Logic3::X
            }
        })
        .collect()
}

/// Read access to one multi-frame three-valued trace, abstracting over the
/// scalar [`Trace`](crate::Trace) and a lane of [`PackedTraces`]. Learning
/// extraction is generic over this trait, so the packed batch results are
/// consumed in place — no per-lane unpacking into `Vec<Logic3>` frames.
pub trait TraceRead {
    /// Number of simulated frames.
    fn num_frames(&self) -> usize;
    /// Number of nodes per frame.
    fn num_nodes(&self) -> usize;
    /// Value of `node` in `frame`.
    fn value(&self, frame: usize, node: NodeId) -> Logic3;
    /// First contradiction observed, if any.
    fn conflict(&self) -> Option<Conflict>;
    /// Returns `true` when frames `a` and `b` hold identical values.
    fn frames_equal(&self, a: usize, b: usize) -> bool;

    /// Order-sensitive 64-bit fingerprint of one frame's values. Equal frames
    /// have equal fingerprints; callers use it as an O(nodes) prefilter and
    /// confirm candidate matches with [`TraceRead::frames_equal`].
    fn frame_fingerprint(&self, frame: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for idx in 0..self.num_nodes() {
            let v = self.value(frame, NodeId(idx as u32)) as u64;
            h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// All nodes holding a binary value in `frame`, as `(node, value)` pairs.
    fn binary_assignments(&self, frame: usize) -> impl Iterator<Item = (NodeId, bool)> + '_ {
        (0..self.num_nodes()).filter_map(move |idx| {
            let node = NodeId(idx as u32);
            self.value(frame, node).to_bool().map(|b| (node, b))
        })
    }
}

/// The result of a packed batch run: per-frame packed words shared by all
/// lanes, plus per-lane frame counts, conflicts and repeat flags. Obtain a
/// per-lane view with [`PackedTraces::lane`].
#[derive(Debug, Clone)]
pub struct PackedTraces {
    pub(crate) num_nodes: usize,
    pub(crate) frames: Vec<Vec<PackedWord>>,
    pub(crate) lane_frames: Vec<usize>,
    pub(crate) conflicts: Vec<Option<Conflict>>,
    pub(crate) repeated: u64,
}

impl PackedTraces {
    /// Number of lanes (jobs) in the batch.
    pub fn lanes(&self) -> usize {
        self.lane_frames.len()
    }

    /// Number of frames simulated by the longest lane.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// The packed words of one frame, indexed by node, together with the
    /// mask of lanes whose trace reaches that frame. Bits of other lanes in
    /// the words are left over from a lane that stopped earlier and must be
    /// ignored. This is the node-major read: one word per node covers every
    /// lane.
    pub fn frame(&self, frame: usize) -> (u64, &[PackedWord]) {
        let live = self
            .lane_frames
            .iter()
            .enumerate()
            .filter(|&(_, &frames)| frames > frame)
            .fold(0u64, |m, (lane, _)| m | 1u64 << lane);
        (live, &self.frames[frame])
    }

    /// The trace of one lane, as a zero-copy view.
    pub fn lane(&self, lane: usize) -> LaneTrace<'_> {
        assert!(lane < self.lanes());
        LaneTrace { batch: self, lane }
    }

    /// Unpacks one lane into an owned scalar [`Trace`](crate::Trace).
    pub fn to_trace(&self, lane: usize) -> crate::Trace {
        crate::inject::trace_from_parts(
            self.frames[..self.lane_frames[lane]]
                .iter()
                .map(|f| unpack_lane(f, lane))
                .collect(),
            self.conflicts[lane],
            self.repeated >> lane & 1 == 1,
        )
    }
}

/// Zero-copy view of one lane of a [`PackedTraces`].
#[derive(Debug, Clone, Copy)]
pub struct LaneTrace<'a> {
    batch: &'a PackedTraces,
    lane: usize,
}

impl LaneTrace<'_> {
    /// `true` when the lane stopped because its sequential state repeated.
    pub fn repeated(&self) -> bool {
        self.batch.repeated >> self.lane & 1 == 1
    }
}

impl TraceRead for LaneTrace<'_> {
    fn num_frames(&self) -> usize {
        self.batch.lane_frames[self.lane]
    }

    fn num_nodes(&self) -> usize {
        self.batch.num_nodes
    }

    #[inline]
    fn value(&self, frame: usize, node: NodeId) -> Logic3 {
        debug_assert!(frame < self.num_frames());
        self.batch.frames[frame][node.index()].get(self.lane)
    }

    fn conflict(&self) -> Option<Conflict> {
        self.batch.conflicts[self.lane]
    }

    fn frames_equal(&self, a: usize, b: usize) -> bool {
        let lane_bit = 1u64 << self.lane;
        self.batch.frames[a]
            .iter()
            .zip(&self.batch.frames[b])
            .all(|(wa, wb)| ((wa.zero ^ wb.zero) | (wa.one ^ wb.one)) & lane_bit == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_gate3;

    const VALUES: [Logic3; 3] = [Logic3::Zero, Logic3::One, Logic3::X];

    #[test]
    fn splat_get_set_round_trip() {
        for v in VALUES {
            let w = PackedWord::splat(v);
            for lane in [0usize, 1, 31, 63] {
                assert_eq!(w.get(lane), v);
            }
        }
        let mut w = PackedWord::ALL_X;
        w.set(5, Logic3::One);
        w.set(6, Logic3::Zero);
        w.set(5, Logic3::Zero); // overwrite
        assert_eq!(w.get(5), Logic3::Zero);
        assert_eq!(w.get(6), Logic3::Zero);
        assert_eq!(w.get(7), Logic3::X);
        assert_eq!(w.known(), 0b110_0000);
    }

    #[test]
    fn packed_gates_match_scalar_exhaustively_on_two_inputs() {
        // Pack all 9 two-input three-valued combinations into lanes 0..9 and
        // compare every gate against the scalar evaluator.
        let mut a = PackedWord::ALL_X;
        let mut b = PackedWord::ALL_X;
        let mut combos = Vec::new();
        for (lane, (va, vb)) in VALUES
            .iter()
            .flat_map(|&va| VALUES.iter().map(move |&vb| (va, vb)))
            .enumerate()
        {
            a.set(lane, va);
            b.set(lane, vb);
            combos.push((va, vb));
        }
        for gate in GateType::ALL {
            if matches!(
                gate,
                GateType::Not | GateType::Buf | GateType::Const0 | GateType::Const1
            ) {
                continue;
            }
            let packed = eval_gate3x64(gate, &[a, b]);
            for (lane, &(va, vb)) in combos.iter().enumerate() {
                let scalar = eval_gate3(gate, [va, vb].into_iter());
                assert_eq!(packed.get(lane), scalar, "{gate} {va} {vb}");
            }
        }
    }

    #[test]
    fn packed_unary_and_const_gates() {
        let mut a = PackedWord::ALL_X;
        a.set(0, Logic3::Zero);
        a.set(1, Logic3::One);
        let not = eval_gate3x64(GateType::Not, &[a]);
        assert_eq!(not.get(0), Logic3::One);
        assert_eq!(not.get(1), Logic3::Zero);
        assert_eq!(not.get(2), Logic3::X);
        assert_eq!(eval_gate3x64(GateType::Buf, &[a]), a);
        assert_eq!(eval_gate3x64(GateType::Not, &[]), PackedWord::ALL_X);
        assert_eq!(
            eval_gate3x64(GateType::Const0, &[]),
            PackedWord::splat(Logic3::Zero)
        );
        assert_eq!(
            eval_gate3x64(GateType::Const1, &[]),
            PackedWord::splat(Logic3::One)
        );
    }

    #[test]
    fn planes_stay_disjoint() {
        let mut a = PackedWord::ALL_X;
        let mut b = PackedWord::ALL_X;
        for lane in 0..64 {
            a.set(lane, VALUES[lane % 3]);
            b.set(lane, VALUES[(lane / 3) % 3]);
        }
        for gate in GateType::ALL {
            let out = eval_gate3x64(gate, &[a, b]);
            assert_eq!(out.zero & out.one, 0, "{gate} planes overlap");
        }
    }

    #[test]
    fn mismatch_and_eq_lanes() {
        let mut a = PackedWord::ALL_X;
        let mut b = PackedWord::ALL_X;
        a.set(0, Logic3::One);
        b.set(0, Logic3::Zero); // mismatch
        a.set(1, Logic3::One);
        b.set(1, Logic3::One); // equal binary
        a.set(2, Logic3::Zero); // vs X: neither mismatch nor equal
        assert_eq!(a.mismatch_lanes(b), 0b001);
        assert_eq!(a.eq_lanes(b) & 0b111, 0b010);
    }

    #[test]
    fn lane_conflicts_keep_the_first() {
        let mut c = LaneConflicts::new(4);
        c.record(0b0101, NodeId(7), 2);
        c.record(0b0011, NodeId(9), 3);
        assert_eq!(c.mask(), 0b0111);
        let first = c.take();
        assert_eq!(
            first[0],
            Some(Conflict {
                node: NodeId(7),
                frame: 2
            })
        );
        assert_eq!(
            first[1],
            Some(Conflict {
                node: NodeId(9),
                frame: 3
            })
        );
        assert_eq!(
            first[2],
            Some(Conflict {
                node: NodeId(7),
                frame: 2
            })
        );
        assert_eq!(first[3], None);
    }
}
