//! Sequential three-valued stuck-at fault simulation.
//!
//! The ATPG flow fault-simulates every generated test sequence against the
//! remaining fault list and drops detected faults (the paper relies on this to
//! explain cases where ATPG-with-learning detects a fault it could not
//! generate a test for directly). Detection uses the conservative three-valued
//! criterion: a fault is detected at a frame when some primary output is a
//! known binary value in the good machine and the opposite binary value in the
//! faulty machine.

use crate::fault::{Fault, FaultSite};
use crate::packed::{eval_gate3x64, PackedWord};
use crate::value::Logic3;
use crate::Result;
use sla_netlist::levelize::{levelize, Levelization};
use sla_netlist::{GateType, Netlist, NodeId, NodeKind};

/// A test sequence: one vector of primary-input values per time frame, in the
/// order of [`Netlist::inputs`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TestSequence {
    /// Per-frame primary-input vectors.
    pub vectors: Vec<Vec<Logic3>>,
}

impl TestSequence {
    /// Creates a sequence from per-frame vectors.
    ///
    /// # Panics
    ///
    /// Does not validate vector lengths; [`FaultSimulator`] checks them.
    pub fn new(vectors: Vec<Vec<Logic3>>) -> Self {
        TestSequence { vectors }
    }

    /// Number of time frames.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Returns `true` when the sequence has no frames.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }
}

/// Serial sequential fault simulator.
#[derive(Debug, Clone)]
pub struct FaultSimulator<'a> {
    netlist: &'a Netlist,
    levels: Levelization<'a>,
}

impl<'a> FaultSimulator<'a> {
    /// Builds a fault simulator for `netlist`.
    ///
    /// # Errors
    ///
    /// Returns an error if the combinational logic cannot be levelized.
    pub fn new(netlist: &'a Netlist) -> Result<Self> {
        Ok(FaultSimulator {
            netlist,
            levels: levelize(netlist)?,
        })
    }

    /// Returns `true` when `fault` is detected by `sequence`.
    pub fn detects(&self, fault: &Fault, sequence: &TestSequence) -> bool {
        let good = self.trace(sequence, None);
        let faulty = self.trace(sequence, Some(fault));
        for (good_frame, faulty_frame) in good.iter().zip(&faulty) {
            for &po in self.netlist.outputs() {
                let g = good_frame[po.index()];
                let f = faulty_frame[po.index()];
                if let (Some(gv), Some(fv)) = (g.to_bool(), f.to_bool()) {
                    if gv != fv {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Fault simulation of a whole fault list: [`detected_faults`] on this
    /// simulator's netlist.
    pub fn detected_faults(&self, faults: &[Fault], sequence: &TestSequence) -> Vec<bool> {
        detected_faults(self.netlist, self.levels, faults, sequence)
    }

    /// Simulates the good machine (`fault = None`) or the machine with
    /// `fault` over `sequence`, from the all-`X` initial state, and returns
    /// the values of every node in every frame. Inputs missing from a
    /// vector, or given as `X`, stay `X`.
    ///
    /// This is the iterative-array model of the test generator: a stuck
    /// output holds its line in every frame (a stuck sequential element also
    /// fixes the captured state), an input-pin fault applies only to its
    /// gate, and no set/reset or latch propagation rule applies.
    pub fn trace(&self, sequence: &TestSequence, fault: Option<&Fault>) -> Vec<Vec<Logic3>> {
        let n = self.netlist.num_nodes();
        let mut state = vec![Logic3::X; n];
        let mut out = Vec::with_capacity(sequence.len());
        for vector in &sequence.vectors {
            let mut values = vec![Logic3::X; n];
            // Frame inputs.
            for (pos, &pi) in self.netlist.inputs().iter().enumerate() {
                values[pi.index()] = vector.get(pos).copied().unwrap_or(Logic3::X);
            }
            for s in self.netlist.sequential_elements() {
                values[s.index()] = state[s.index()];
            }
            // Output faults on frame inputs take effect before evaluation.
            if let Some(f) = fault {
                if let FaultSite::Output(node) = f.site {
                    if !self.netlist.kind(node).is_gate() {
                        values[node.index()] = Logic3::from_bool(f.stuck_at);
                    }
                }
            }
            // Combinational evaluation with the fault effect.
            for &id in self.levels.order() {
                let NodeKind::Gate(gate) = self.netlist.kind(id) else {
                    continue;
                };
                let fanin_value = |pin: usize, driver: NodeId| -> Logic3 {
                    if let Some(f) = fault {
                        if f.site == (FaultSite::Input { gate: id, pin }) {
                            return Logic3::from_bool(f.stuck_at);
                        }
                    }
                    values[driver.index()]
                };
                let mut v = crate::eval::eval_gate3(
                    gate,
                    self.netlist
                        .fanins(id)
                        .iter()
                        .enumerate()
                        .map(|(pin, &d)| fanin_value(pin, d)),
                );
                if let Some(f) = fault {
                    if f.site == FaultSite::Output(id) {
                        v = Logic3::from_bool(f.stuck_at);
                    }
                }
                values[id.index()] = v;
            }
            out.push(values.clone());
            // Next state.
            for s in self.netlist.sequential_elements() {
                let data = self.netlist.fanins(s)[0];
                let mut v = values[data.index()];
                if let Some(f) = fault {
                    // A stuck output on the sequential element itself also fixes
                    // the captured state.
                    if f.site == FaultSite::Output(s) {
                        v = Logic3::from_bool(f.stuck_at);
                    }
                }
                state[s.index()] = v;
            }
        }
        out
    }
}

/// Fault simulation of a whole fault list; entry *i* of the result tells
/// whether `faults[i]` is detected by `sequence`.
///
/// The work is restricted to the targets' *support*: the forward closure
/// of the fault sites (crossing flip-flops into later frames) plus every
/// node that feeds that closure (again crossing flip-flops). The support
/// is closed under fanins, so the good machine simulated on it alone has
/// exactly its whole-netlist values there; a faulty machine can differ
/// from the good one only inside the forward closure, so only primary
/// outputs there can detect. The good machine is simulated once, then the
/// faulty machines word-parallel, up to 64 faults per forward pass (one
/// lane per fault), all on arrays sized by the support. An empty target
/// list returns at once. The support orders its gates by the logic levels
/// of `levels`, the netlist's [`Levelization`].
pub fn detected_faults(
    netlist: &Netlist,
    levels: Levelization<'_>,
    faults: &[Fault],
    sequence: &TestSequence,
) -> Vec<bool> {
    if faults.is_empty() {
        return Vec::new();
    }
    let support = Support::new(netlist, levels, faults);
    let outputs = &support.outputs;
    if outputs.is_empty() {
        return vec![false; faults.len()];
    }
    let mut sim = SupportSim::new(&support);
    let mut good = Vec::with_capacity(sequence.len() * outputs.len());
    for vector in &sequence.vectors {
        sim.eval_frame(vector);
        good.extend(outputs.iter().map(|&o| sim.values[o as usize]));
        sim.latch();
    }
    let mut out = Vec::with_capacity(faults.len());
    for (chunk, sites) in faults.chunks(64).zip(support.sites.chunks(64)) {
        sim.load_faults(chunk, sites);
        let all: u64 = if chunk.len() == 64 {
            u64::MAX
        } else {
            (1u64 << chunk.len()) - 1
        };
        let mut detected = 0u64;
        for (vector, good) in sequence.vectors.iter().zip(good.chunks(outputs.len())) {
            sim.eval_frame(vector);
            // A primary output binary in the good machine and the
            // opposite binary value in a faulty lane detects that lane.
            for (&o, g) in outputs.iter().zip(good) {
                detected |= g.mismatch_lanes(sim.values[o as usize]);
            }
            if detected == all {
                break;
            }
            sim.latch();
        }
        out.extend((0..chunk.len()).map(|lane| detected >> lane & 1 == 1));
    }
    out
}

/// Local-index sentinel: the node is outside the support.
const OUTSIDE: u32 = u32::MAX;

/// The part of the netlist a set of target faults can be observed through,
/// with a dense local index (`0..len`) over its nodes: the forward closure of
/// the fault sites comes first, then the nodes that only feed it.
struct Support {
    /// Number of support nodes.
    len: usize,
    /// Primary inputs in the support: `(local, position in Netlist::inputs)`.
    inputs: Vec<(u32, usize)>,
    /// Sequential elements in the support: `(local, local of the data fanin)`.
    seqs: Vec<(u32, u32)>,
    /// Gates in the support in level order: `(local, function)`.
    gates: Vec<(u32, GateType)>,
    /// Fanin CSR over local indices, parallel to `gates`.
    fanin_off: Vec<u32>,
    fanins: Vec<u32>,
    /// Primary outputs inside the forward closure (local), in declaration
    /// order: the only observation points where a fault can show.
    outputs: Vec<u32>,
    /// Local index of each target fault's site node.
    sites: Vec<u32>,
}

impl Support {
    fn new(netlist: &Netlist, levels: Levelization<'_>, faults: &[Fault]) -> Support {
        let mut local = vec![OUTSIDE; netlist.num_nodes()];
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut visit = |id: NodeId, nodes: &mut Vec<NodeId>| {
            if local[id.index()] == OUTSIDE {
                local[id.index()] = id_u32(nodes.len());
                nodes.push(id);
            }
        };
        for fault in faults {
            visit(fault.site.node(), &mut nodes);
        }
        // Forward closure of the sites, crossing flip-flops.
        let mut head = 0;
        while let Some(&x) = nodes.get(head) {
            head += 1;
            for &fo in netlist.fanouts(x) {
                visit(fo, &mut nodes);
            }
        }
        let forward = nodes.len();
        // Everything that feeds it, crossing flip-flops backwards.
        head = 0;
        while let Some(&x) = nodes.get(head) {
            head += 1;
            for &fi in netlist.fanins(x) {
                visit(fi, &mut nodes);
            }
        }

        let inputs = netlist
            .inputs()
            .iter()
            .enumerate()
            .filter(|(_, pi)| local[pi.index()] != OUTSIDE)
            .map(|(pos, pi)| (local[pi.index()], pos))
            .collect();
        let mut seqs = Vec::new();
        let mut gates = Vec::new();
        let mut max_level = 0;
        for &id in &nodes {
            match netlist.kind(id) {
                NodeKind::Input => {}
                NodeKind::Seq(_) => {
                    seqs.push((local[id.index()], local[netlist.fanins(id)[0].index()]))
                }
                NodeKind::Gate(gate) => {
                    max_level = max_level.max(levels.level(id) as usize);
                    gates.push((id, gate));
                }
            }
        }
        // Level order by a counting sort: linear in the support, and a valid
        // evaluation order (every fanin of a gate sits on a lower level).
        let mut start = vec![0usize; max_level + 2];
        for &(id, _) in &gates {
            start[levels.level(id) as usize + 1] += 1;
        }
        for l in 0..=max_level {
            start[l + 1] += start[l];
        }
        let mut ordered = vec![(NodeId(0), GateType::Buf); gates.len()];
        for &(id, gate) in &gates {
            let slot = &mut start[levels.level(id) as usize];
            ordered[*slot] = (id, gate);
            *slot += 1;
        }
        let mut gates = Vec::with_capacity(ordered.len());
        let mut fanin_off = Vec::with_capacity(ordered.len() + 1);
        let mut fanins = Vec::new();
        fanin_off.push(0);
        for (id, gate) in ordered {
            gates.push((local[id.index()], gate));
            fanins.extend(netlist.fanins(id).iter().map(|f| local[f.index()]));
            fanin_off.push(id_u32(fanins.len()));
        }

        let outputs = netlist
            .outputs()
            .iter()
            .map(|po| local[po.index()])
            .filter(|&l| (l as usize) < forward)
            .collect();
        let sites = faults
            .iter()
            .map(|f| local[f.site.node().index()])
            .collect();
        Support {
            len: nodes.len(),
            inputs,
            seqs,
            gates,
            fanin_off,
            fanins,
            outputs,
            sites,
        }
    }
}

/// A support index or count as `u32`; every support is a set of node ids,
/// which are `u32` themselves.
fn id_u32(n: usize) -> u32 {
    u32::try_from(n).expect("support indices fit node ids")
}

/// Packed 64-lane simulation of the support: lane *i* is the faulty machine
/// of the *i*-th loaded fault, and with no fault loaded every lane is the
/// good machine.
struct SupportSim<'s> {
    support: &'s Support,
    /// Per-local lane masks of stuck-at-0 / stuck-at-1 output faults.
    stuck0: Vec<u64>,
    stuck1: Vec<u64>,
    /// Per-local flag: the gate carries an input-pin fault of some lane.
    has_pin_fault: Vec<bool>,
    /// Input-pin faults as `(gate local, pin, lane, stuck value)`.
    pin_faults: Vec<(u32, usize, usize, bool)>,
    /// Current frame values, per local.
    values: Vec<PackedWord>,
    /// Captured next state, parallel to `Support::seqs`.
    state: Vec<PackedWord>,
    fanin_buf: Vec<PackedWord>,
}

impl<'s> SupportSim<'s> {
    fn new(support: &'s Support) -> Self {
        SupportSim {
            support,
            stuck0: vec![0; support.len],
            stuck1: vec![0; support.len],
            has_pin_fault: vec![false; support.len],
            pin_faults: Vec::new(),
            values: vec![PackedWord::ALL_X; support.len],
            state: vec![PackedWord::ALL_X; support.seqs.len()],
            fanin_buf: Vec::new(),
        }
    }

    /// Loads up to 64 faults (lane *i* = `faults[i]`, whose site has local
    /// index `sites[i]`) and resets the state to all-`X`.
    fn load_faults(&mut self, faults: &[Fault], sites: &[u32]) {
        debug_assert!(faults.len() <= 64);
        self.stuck0.fill(0);
        self.stuck1.fill(0);
        for &(gate, ..) in &self.pin_faults {
            self.has_pin_fault[gate as usize] = false;
        }
        self.pin_faults.clear();
        for (lane, (fault, &site)) in faults.iter().zip(sites).enumerate() {
            let site = site as usize;
            match fault.site {
                FaultSite::Output(_) => {
                    if fault.stuck_at {
                        self.stuck1[site] |= 1u64 << lane;
                    } else {
                        self.stuck0[site] |= 1u64 << lane;
                    }
                }
                FaultSite::Input { pin, .. } => {
                    self.has_pin_fault[site] = true;
                    self.pin_faults
                        .push((id_u32(site), pin, lane, fault.stuck_at));
                }
            }
        }
        self.state.fill(PackedWord::ALL_X);
    }

    /// Applies the per-lane output faults of `local` to `w`.
    #[inline]
    fn stick(&self, w: &mut PackedWord, local: usize) {
        let s0 = self.stuck0[local];
        let s1 = self.stuck1[local];
        w.zero = (w.zero & !s1) | s0;
        w.one = (w.one & !s0) | s1;
    }

    /// Evaluates one frame under the primary-input `vector`.
    fn eval_frame(&mut self, vector: &[Logic3]) {
        let support = self.support;
        // Frame inputs; output faults on them take effect before evaluation.
        for &(l, pos) in &support.inputs {
            let mut v = PackedWord::splat(vector.get(pos).copied().unwrap_or(Logic3::X));
            self.stick(&mut v, l as usize);
            self.values[l as usize] = v;
        }
        for (k, &(l, _)) in support.seqs.iter().enumerate() {
            let mut v = self.state[k];
            self.stick(&mut v, l as usize);
            self.values[l as usize] = v;
        }
        // Combinational evaluation with the per-lane fault effects.
        for (g, &(l, gate)) in support.gates.iter().enumerate() {
            let pins =
                &support.fanins[support.fanin_off[g] as usize..support.fanin_off[g + 1] as usize];
            self.fanin_buf.clear();
            self.fanin_buf
                .extend(pins.iter().map(|&f| self.values[f as usize]));
            if self.has_pin_fault[l as usize] {
                for &(pg, pin, lane, stuck) in &self.pin_faults {
                    if pg == l {
                        self.fanin_buf[pin].set(lane, Logic3::from_bool(stuck));
                    }
                }
            }
            let mut v = eval_gate3x64(gate, &self.fanin_buf);
            self.stick(&mut v, l as usize);
            self.values[l as usize] = v;
        }
    }

    /// Captures the next state. A stuck output on the sequential element
    /// itself also fixes the captured state.
    fn latch(&mut self) {
        for (k, &(l, data)) in self.support.seqs.iter().enumerate() {
            let mut v = self.values[data as usize];
            self.stick(&mut v, l as usize);
            self.state[k] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::full_fault_list;
    use sla_netlist::{GateType, NetlistBuilder};

    /// q captures NOT(a); output is q.
    fn inverter_ff() -> Netlist {
        let mut b = NetlistBuilder::new("invff");
        b.input("a");
        b.gate("g", GateType::Not, &["a"]).unwrap();
        b.dff("q", "g").unwrap();
        b.output("q").unwrap();
        b.build().unwrap()
    }

    fn seq(frames: &[&[Logic3]]) -> TestSequence {
        TestSequence::new(frames.iter().map(|f| f.to_vec()).collect())
    }

    #[test]
    fn good_machine_shifts_values() {
        let n = inverter_ff();
        let sim = FaultSimulator::new(&n).unwrap();
        let s = seq(&[&[Logic3::Zero], &[Logic3::One]]);
        let trace = sim.trace(&s, None);
        let q = n.require("q").unwrap();
        assert_eq!(trace[0][q.index()], Logic3::X);
        assert_eq!(trace[1][q.index()], Logic3::One);
    }

    #[test]
    fn output_fault_on_gate_detected() {
        let n = inverter_ff();
        let sim = FaultSimulator::new(&n).unwrap();
        let g = n.require("g").unwrap();
        // g stuck-at-0: applying a=0 makes good g=1, faulty g=0; visible at q one frame later.
        let s = seq(&[&[Logic3::Zero], &[Logic3::Zero]]);
        assert!(sim.detects(&Fault::output(g, false), &s));
        // g stuck-at-1 is not detected by a=0 (good value is already 1).
        assert!(!sim.detects(&Fault::output(g, true), &s));
        // ... but is detected by a=1.
        let s2 = seq(&[&[Logic3::One], &[Logic3::One]]);
        assert!(sim.detects(&Fault::output(g, true), &s2));
    }

    #[test]
    fn input_pin_fault_only_affects_that_branch() {
        // k = OR(a, b); m = AND(a, b). Fault on k's pin-0 (branch of a) must not
        // change m.
        let mut b = NetlistBuilder::new("branch");
        b.input("a");
        b.input("b");
        b.gate("k", GateType::Or, &["a", "b"]).unwrap();
        b.gate("m", GateType::And, &["a", "b"]).unwrap();
        b.output("k").unwrap();
        b.output("m").unwrap();
        let n = b.build().unwrap();
        let sim = FaultSimulator::new(&n).unwrap();
        let k = n.require("k").unwrap();
        // a=1, b=0: good k=1, faulty (k/0 s-a-0) k=0 -> detected.
        let s = seq(&[&[Logic3::One, Logic3::Zero]]);
        assert!(sim.detects(&Fault::input(k, 0, false), &s));
        // Fault on m's pin for 'a' stuck-at-1 with a=1 is not excited.
        let m = n.require("m").unwrap();
        assert!(!sim.detects(&Fault::input(m, 0, true), &s));
    }

    #[test]
    fn stuck_primary_input_detected() {
        let n = inverter_ff();
        let sim = FaultSimulator::new(&n).unwrap();
        let a = n.require("a").unwrap();
        let s = seq(&[&[Logic3::One], &[Logic3::One]]);
        assert!(sim.detects(&Fault::output(a, false), &s));
    }

    #[test]
    fn x_outputs_never_count_as_detection() {
        let n = inverter_ff();
        let sim = FaultSimulator::new(&n).unwrap();
        let q = n.require("q").unwrap();
        // One frame only: q is still X at the output in frame 0, so nothing can
        // be detected there even for a stuck q.
        let s = seq(&[&[Logic3::One]]);
        assert!(!sim.detects(&Fault::output(q, false), &s));
    }

    #[test]
    fn empty_target_list_is_an_empty_answer() {
        let n = inverter_ff();
        let sim = FaultSimulator::new(&n).unwrap();
        let s = seq(&[&[Logic3::Zero], &[Logic3::One]]);
        assert!(sim.detected_faults(&[], &s).is_empty());
    }

    #[test]
    fn detected_faults_matches_individual_calls() {
        let n = inverter_ff();
        let sim = FaultSimulator::new(&n).unwrap();
        let faults = full_fault_list(&n);
        let s = seq(&[&[Logic3::Zero], &[Logic3::One], &[Logic3::Zero]]);
        let bulk = sim.detected_faults(&faults, &s);
        for (f, &d) in faults.iter().zip(&bulk) {
            assert_eq!(sim.detects(f, &s), d, "{}", f.describe(&n));
        }
        assert!(bulk.iter().any(|&d| d), "sequence should detect something");
    }
}
