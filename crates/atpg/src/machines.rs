//! The incrementally maintained pair of three-valued machines (good and
//! faulty) the test generator searches over, plus the fault-cone restricted
//! D-frontier and detection state derived from them.
//!
//! One [`SearchMachines`] instance lives for the whole search of one fault,
//! across window growth: a decision assigns one primary input in one frame to
//! *both* machines and propagates only through the affected cone
//! ([`sla_sim::EventSim`]); a backtrack unwinds both value trails to the mark
//! taken before the flipped decision. Fault-effect queries (D-frontier,
//! detection) are restricted to the static fanout cone of the fault site —
//! outside that cone the two machines are structurally identical, so no
//! difference can ever appear there.
//!
//! The D-frontier and the detected-output set are **persistent**: instead of
//! rescanning the whole `window × cone` product on every objective call, both
//! are updated from the change-event streams of the two machines (a gate's
//! frontier membership depends only on its own slot and its same-frame fanin
//! slots, and every slot is itself an event source, so the dirty set of an
//! assignment is the changed slots plus their same-frame gate fanouts). Every
//! edit is recorded on a trail so a backtrack restores the exact prior sets.
//! The from-scratch cone scan is retained as [`SearchMachines::d_frontier_scan`]
//! — the reference the property tests in `tests/incremental_sim_prop.rs` hold
//! the persistent set to under random decide/flip/backtrack/grow scripts.

use sla_netlist::levelize::Levelization;
use sla_netlist::{Netlist, NetlistCsr, NodeId};
use sla_sim::{EventSim, Fault, FaultSite, Logic3};

/// Rank sentinel for nodes outside the fault cone (or non-gates).
const NOT_IN_CONE: u32 = u32::MAX;

/// One reversible edit of the fault-effect bookkeeping, recorded on the trail.
#[derive(Debug, Clone, Copy)]
enum FxOp {
    /// `(frame, cone rank)` entered the D-frontier.
    FrontierInsert(u32, u32),
    /// `(frame, cone rank)` left the D-frontier.
    FrontierRemove(u32, u32),
    /// The cone output at this slot started showing the fault effect.
    Detect(u32),
    /// The cone output at this slot stopped showing the fault effect.
    Undetect(u32),
}

/// Trail positions of both machines and the fault-effect trail, taken before
/// a decision so a backtrack can restore the exact prior state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineMark {
    good: usize,
    faulty: usize,
    fx: usize,
}

/// Paired good/faulty event-driven machines over one time-frame window.
#[derive(Debug, Clone)]
pub struct SearchMachines<'a> {
    netlist: &'a Netlist,
    /// Raw arena view; frontier maintenance walks fanouts/fanins off the CSR
    /// arrays directly.
    csr: NetlistCsr<'a>,
    fault: Fault,
    good: EventSim<'a>,
    faulty: EventSim<'a>,
    /// Gates in the transitive fanout cone of the fault site, in levelized
    /// order (the only gates that can ever sit on the D-frontier).
    cone_gates: Vec<NodeId>,
    /// Per-node position in `cone_gates` ([`NOT_IN_CONE`] outside), so an
    /// event maps to its frontier key without a search.
    cone_rank: Vec<u32>,
    /// Per-node flag: a cone primary output (detection can only change here).
    is_cone_output: Vec<bool>,
    /// Per-node relevance of a change event to the fault-effect bookkeeping:
    /// 0 means neither the node nor any of its same-frame gate fanouts can
    /// sit on the frontier or detect — the overwhelmingly common case, since
    /// an assignment's change cone spans the whole circuit while the fault
    /// cone is local. One byte load filters those out.
    fx_relevant: Vec<u8>,
    /// The persistent D-frontier as `(frame, cone rank)` keys, sorted — the
    /// exact visit order of the reference scan (frames ascending, levelized
    /// order within a frame).
    frontier: Vec<(u32, u32)>,
    /// Per-slot flag: this cone-output slot currently shows the fault effect.
    po_d: Vec<bool>,
    /// Number of set `po_d` flags (detection = any cone output slot shows
    /// the effect).
    detected_count: usize,
    /// Undo trail of frontier / detection edits.
    fx_trail: Vec<FxOp>,
    /// Scratch: dedup flags (per slot) for the dirty candidates of one update.
    dirty_flag: Vec<bool>,
    /// Scratch: dirty slot list of one update.
    dirty: Vec<u32>,
}

impl<'a> SearchMachines<'a> {
    /// Builds both machines for `fault` over `window` frames, reusing the
    /// caller's levelization.
    ///
    /// The cost follows the fault's cone, not the netlist: both machines
    /// settle their base state by event propagation from the constant gates
    /// and the fault site ([`EventSim::with_levels`]), the cone gates come
    /// from one walk over the site's fanouts and are put in levelized order
    /// by their stored evaluation positions, the event filter marks only
    /// the cone gates, their fanins and the cone outputs, and the frontier
    /// and detection sets are settled from the machines' binary base slots
    /// through the same update an assignment uses. What remains per node is
    /// zero-filled or constant-filled allocation.
    pub fn new(netlist: &'a Netlist, levels: &Levelization, window: usize, fault: Fault) -> Self {
        let good = EventSim::with_levels(netlist, levels, window, None);
        let faulty = EventSim::with_levels(netlist, levels, window, Some(fault));

        // Static fanout cone of the fault site. For an input-pin fault the
        // difference first appears at the faulted gate's output.
        let csr = netlist.csr();
        let num_nodes = netlist.num_nodes();
        let mut in_cone = vec![false; num_nodes];
        let start = fault.site.node();
        in_cone[start.index()] = true;
        let mut cone = vec![start];
        let mut head = 0;
        while let Some(&x) = cone.get(head) {
            head += 1;
            for &fo in csr.fanouts(x) {
                if !in_cone[fo.index()] {
                    in_cone[fo.index()] = true;
                    cone.push(fo);
                }
            }
        }
        // Levelized order: the D-frontier's visit order follows this rank.
        // A bitset over evaluation positions sorts the cone's gates in time
        // linear in the cone (plus one bit per gate to scan), where a
        // comparison sort would cost more than a pass over the netlist on
        // large cones. Inputs and sequential elements have no position.
        let order = levels.order();
        let mut at_pos = vec![0u64; order.len().div_ceil(64)];
        for &id in &cone {
            let pos = csr.eval_pos(id);
            if pos != u32::MAX {
                at_pos[pos as usize / 64] |= 1 << (pos % 64);
            }
        }
        let mut cone_gates = Vec::new();
        for (word_idx, &word) in at_pos.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                cone_gates.push(order[word_idx * 64 + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
        let mut cone_rank = vec![NOT_IN_CONE; num_nodes];
        let mut fx_relevant = vec![0u8; num_nodes];
        for (rank, &id) in cone_gates.iter().enumerate() {
            cone_rank[id.index()] = rank as u32;
            fx_relevant[id.index()] = 1;
            // A change of a fanin can move the gate on or off the frontier.
            for &fi in csr.fanins(id) {
                fx_relevant[fi.index()] = 1;
            }
        }
        // Primary outputs inside the cone: the only ones that can detect.
        let mut is_cone_output = vec![false; num_nodes];
        for &po in netlist.outputs() {
            if in_cone[po.index()] {
                is_cone_output[po.index()] = true;
                fx_relevant[po.index()] = 1;
            }
        }
        let slots = window * num_nodes;
        let mut machines = SearchMachines {
            netlist,
            csr,
            fault,
            good,
            faulty,
            cone_gates,
            cone_rank,
            is_cone_output,
            fx_relevant,
            frontier: Vec::new(),
            po_d: vec![false; slots],
            detected_count: 0,
            fx_trail: Vec::new(),
            dirty_flag: vec![false; slots],
            dirty: Vec::new(),
        };
        machines.settle_fault_effects();
        machines
    }

    /// Number of frames in the window.
    pub fn window(&self) -> usize {
        self.good.window()
    }

    /// The good machine.
    pub fn good(&self) -> &EventSim<'a> {
        &self.good
    }

    /// The faulty machine.
    pub fn faulty(&self) -> &EventSim<'a> {
        &self.faulty
    }

    /// The fault both machines were built for.
    pub fn fault(&self) -> &Fault {
        &self.fault
    }

    /// Gates that can ever carry a fault effect, in levelized order.
    pub fn cone_gates(&self) -> &[NodeId] {
        &self.cone_gates
    }

    /// Current trail marks of both machines and the fault-effect trail.
    pub fn mark(&self) -> MachineMark {
        MachineMark {
            good: self.good.mark(),
            faulty: self.faulty.mark(),
            fx: self.fx_trail.len(),
        }
    }

    /// Assigns `pi = value` in `frame` to both machines, propagating each
    /// through its affected cone and folding the change events into the
    /// persistent D-frontier and detection state. The newly binary
    /// good-machine slots are available from [`EventSim::changed`] on
    /// [`SearchMachines::good`].
    pub fn assign(&mut self, frame: usize, pi: NodeId, value: bool) {
        self.good.assign(frame, pi, value);
        self.faulty.assign(frame, pi, value);
        self.update_fault_effects();
    }

    /// Unwinds both machines and the fault-effect sets to `mark` (taken
    /// before the decisions being retracted).
    pub fn undo_to(&mut self, mark: MachineMark) {
        self.good.undo_to(mark.good);
        self.faulty.undo_to(mark.faulty);
        self.undo_fx_to(mark.fx);
    }

    /// Unwinds both machines all the way to the undecided base state (the
    /// state right after construction).
    pub fn rewind_to_base(&mut self) {
        self.good.undo_to(0);
        self.faulty.undo_to(0);
        self.undo_fx_to(0);
    }

    /// Widens both machines to `new_window` frames in place, reusing the
    /// settled prefix frames (see [`EventSim::grow`]); bit-identical to
    /// constructing fresh machines at `new_window`, without re-settling the
    /// frames the previous window already filled. The machines must be at
    /// their base state ([`SearchMachines::rewind_to_base`]). The fault cone
    /// is structural and unaffected by the window; the frontier and detection
    /// sets keep the prefix frames' entries and take in the appended frames'
    /// base-state fault effects from the widened machines' base events.
    pub fn grow(&mut self, new_window: usize) {
        self.good.grow(new_window);
        self.faulty.grow(new_window);
        let slots = new_window * self.netlist.num_nodes();
        self.po_d.resize(slots, false);
        self.dirty_flag.resize(slots, false);
        self.settle_fault_effects();
    }

    /// Returns `true` when `node` in `frame` carries a fault effect (both
    /// machines binary with opposite values).
    #[inline]
    pub fn is_d(&self, frame: usize, node: NodeId) -> bool {
        is_d(self.good.value(frame, node), self.faulty.value(frame, node))
    }

    /// Returns `true` when some primary output in some frame shows the fault
    /// effect under the current assignments. Maintained incrementally; the
    /// reference is the cone-output scan in `tests/incremental_sim_prop.rs`.
    #[inline]
    pub fn detected(&self) -> bool {
        self.detected_count > 0
    }

    /// Returns `true` when some fanin of gate `id` in frame `t` carries a
    /// fault effect. The faulted input pin itself carries an effect whenever
    /// its healthy driver is at the opposite of the stuck value.
    #[inline]
    pub fn has_d_input(&self, t: usize, id: NodeId) -> bool {
        self.csr.fanins(id).iter().enumerate().any(|(pin, &f)| {
            if self.fault.site == (FaultSite::Input { gate: id, pin }) {
                matches!(self.good.value(t, f).to_bool(), Some(b) if b != self.fault.stuck_at)
            } else {
                self.is_d(t, f)
            }
        })
    }

    /// The current D-frontier from the persistent set: every `(frame, gate)`
    /// whose output does not yet show the fault effect while some input
    /// carries one, frames ascending and gates in levelized order within a
    /// frame (the exact visit order of the reference scan).
    pub fn d_frontier_iter(&self) -> impl Iterator<Item = (usize, NodeId)> + '_ {
        self.frontier
            .iter()
            .map(|&(frame, rank)| (frame as usize, self.cone_gates[rank as usize]))
    }

    /// The current D-frontier as a materialized list (the search loop uses
    /// [`SearchMachines::d_frontier_iter`]).
    pub fn d_frontier(&self) -> Vec<(usize, NodeId)> {
        self.d_frontier_iter().collect()
    }

    /// The D-frontier recomputed by the retained from-scratch cone scan — the
    /// reference implementation the persistent set is property-tested
    /// against. Lazy, so a caller can stop at the first entry.
    pub fn d_frontier_scan_iter(&self) -> impl Iterator<Item = (usize, NodeId)> + '_ {
        (0..self.window()).flat_map(move |t| {
            self.cone_gates
                .iter()
                .filter(move |&&id| !self.is_d(t, id) && self.has_d_input(t, id))
                .map(move |&id| (t, id))
        })
    }

    /// The reference cone scan, materialized.
    pub fn d_frontier_scan(&self) -> Vec<(usize, NodeId)> {
        self.d_frontier_scan_iter().collect()
    }

    /// Folds the binary base slots of both machines (their
    /// [`EventSim::changed`] lists after construction or growth) into the
    /// frontier and detection sets. At the base state a fault effect can sit
    /// only where the faulty machine is binary, and the faulted pin counts
    /// only where its good driver is binary, so these events reach every
    /// member; slots folded in before a growth recompute to the membership
    /// they already have. The edits belong to the base state, so the trail
    /// is emptied again.
    fn settle_fault_effects(&mut self) {
        debug_assert!(self.fx_trail.is_empty(), "only at the base state");
        self.update_fault_effects();
        self.fx_trail.clear();
    }

    /// Folds the change events of the most recent assignment (both machines)
    /// into the frontier and detection sets. A slot's frontier membership
    /// depends only on its own values and its same-frame fanin values, so the
    /// dirty candidates are the changed slots themselves plus their
    /// same-frame gate fanouts (flip-flop fanouts surface as their own change
    /// events in the next frame).
    fn update_fault_effects(&mut self) {
        let csr = self.csr;
        let num_nodes = self.netlist.num_nodes();
        debug_assert!(self.dirty.is_empty());
        for source in 0..2 {
            let changed = if source == 0 {
                self.good.changed()
            } else {
                self.faulty.changed()
            };
            for &slot in changed {
                let node = slot as usize % num_nodes;
                if self.fx_relevant[node] == 0 {
                    continue; // cannot touch the frontier or detection
                }
                let frame = slot as usize / num_nodes;
                if (self.cone_rank[node] != NOT_IN_CONE || self.is_cone_output[node])
                    && !self.dirty_flag[slot as usize]
                {
                    self.dirty_flag[slot as usize] = true;
                    self.dirty.push(slot);
                }
                for &fo in csr.fanouts(NodeId(node as u32)) {
                    if csr.kind(fo).is_sequential() {
                        continue; // surfaces as its own event in frame + 1
                    }
                    if self.cone_rank[fo.index()] == NOT_IN_CONE {
                        continue;
                    }
                    let fo_slot = frame * num_nodes + fo.index();
                    if !self.dirty_flag[fo_slot] {
                        self.dirty_flag[fo_slot] = true;
                        self.dirty.push(fo_slot as u32);
                    }
                }
            }
        }
        let mut dirty = std::mem::take(&mut self.dirty);
        for &slot32 in &dirty {
            let slot = slot32 as usize;
            self.dirty_flag[slot] = false;
            let node = NodeId((slot % num_nodes) as u32);
            let frame = slot / num_nodes;
            let rank = self.cone_rank[node.index()];
            if rank != NOT_IN_CONE {
                let member = !self.is_d(frame, node) && self.has_d_input(frame, node);
                let key = (frame as u32, rank);
                match self.frontier.binary_search(&key) {
                    Ok(at) if !member => {
                        self.frontier.remove(at);
                        self.fx_trail.push(FxOp::FrontierRemove(key.0, key.1));
                    }
                    Err(at) if member => {
                        self.frontier.insert(at, key);
                        self.fx_trail.push(FxOp::FrontierInsert(key.0, key.1));
                    }
                    _ => {}
                }
            }
            if self.is_cone_output[node.index()] {
                let d = self.is_d(frame, node);
                if d != self.po_d[slot] {
                    self.po_d[slot] = d;
                    if d {
                        self.detected_count += 1;
                        self.fx_trail.push(FxOp::Detect(slot32));
                    } else {
                        self.detected_count -= 1;
                        self.fx_trail.push(FxOp::Undetect(slot32));
                    }
                }
            }
        }
        dirty.clear();
        self.dirty = dirty;
    }

    /// Reverses every frontier / detection edit recorded after `mark`
    /// (newest first).
    fn undo_fx_to(&mut self, mark: usize) {
        while self.fx_trail.len() > mark {
            match self.fx_trail.pop().expect("trail entry") {
                FxOp::FrontierInsert(frame, rank) => {
                    let at = self
                        .frontier
                        .binary_search(&(frame, rank))
                        .expect("inserted key present");
                    self.frontier.remove(at);
                }
                FxOp::FrontierRemove(frame, rank) => {
                    let at = self
                        .frontier
                        .binary_search(&(frame, rank))
                        .expect_err("removed key absent");
                    self.frontier.insert(at, (frame, rank));
                }
                FxOp::Detect(slot) => {
                    self.po_d[slot as usize] = false;
                    self.detected_count -= 1;
                }
                FxOp::Undetect(slot) => {
                    self.po_d[slot as usize] = true;
                    self.detected_count += 1;
                }
            }
        }
    }
}

/// A fault effect: good and faulty values binary and opposite.
pub(crate) fn is_d(good: Logic3, faulty: Logic3) -> bool {
    matches!((good.to_bool(), faulty.to_bool()), (Some(a), Some(b)) if a != b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_netlist::levelize::levelize;
    use sla_netlist::{GateType, NetlistBuilder};

    /// Two independent halves; only one is in the fault cone.
    fn split() -> Netlist {
        let mut b = NetlistBuilder::new("split");
        b.input("a");
        b.input("c");
        b.gate("g", GateType::Not, &["a"]).unwrap();
        b.gate("h", GateType::And, &["g", "a"]).unwrap();
        b.gate("k", GateType::Not, &["c"]).unwrap();
        b.output("h").unwrap();
        b.output("k").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn cone_restricts_frontier_and_outputs() {
        let n = split();
        let levels = levelize(&n).unwrap();
        let g = n.require("g").unwrap();
        let m = SearchMachines::new(&n, &levels, 1, Fault::output(g, true));
        let names: Vec<&str> = m.cone_gates().iter().map(|&id| n.node(id).name).collect();
        assert_eq!(names, vec!["g", "h"], "k is outside the fault cone");
        let h = n.require("h").unwrap();
        let k = n.require("k").unwrap();
        assert!(m.is_cone_output[h.index()] && !m.is_cone_output[k.index()]);
    }

    #[test]
    fn frontier_appears_and_detection_follows() {
        let n = split();
        let levels = levelize(&n).unwrap();
        let g = n.require("g").unwrap();
        let h = n.require("h").unwrap();
        let a = n.require("a").unwrap();
        // g stuck-at-1: excite with a=1 (good g=0, faulty g=1).
        let mut m = SearchMachines::new(&n, &levels, 1, Fault::output(g, true));
        assert!(!m.detected());
        let mark = m.mark();
        m.assign(0, a, true);
        assert!(m.is_d(0, g));
        // h = AND(g, a): the effect propagated straight through (a=1 is
        // non-controlling), so h itself is a D and the frontier is empty.
        assert!(m.is_d(0, h));
        assert!(m.d_frontier().is_empty());
        assert!(m.detected());
        m.undo_to(mark);
        assert!(!m.detected());
        assert!(!m.is_d(0, g), "undo clears the excitation");
        assert_eq!(m.d_frontier(), m.d_frontier_scan(), "set ≡ scan after undo");
    }

    #[test]
    fn unexcited_fault_has_no_frontier() {
        let n = split();
        let levels = levelize(&n).unwrap();
        let g = n.require("g").unwrap();
        let a = n.require("a").unwrap();
        let mut m = SearchMachines::new(&n, &levels, 1, Fault::output(g, false));
        // a=1 makes the good g = 0 = stuck value: no effect anywhere.
        m.assign(0, a, true);
        assert!(!m.detected());
        assert!(m.d_frontier().is_empty());
    }

    /// A gate whose output stays `X` while one input carries the effect: the
    /// persistent set must hold exactly it, track the undo, and agree with
    /// the reference scan at every step.
    #[test]
    fn frontier_set_tracks_partial_propagation() {
        let mut b = NetlistBuilder::new("stall");
        b.input("a");
        b.input("en");
        b.gate("g", GateType::Not, &["a"]).unwrap();
        b.gate("h", GateType::And, &["g", "en"]).unwrap();
        b.output("h").unwrap();
        let n = b.build().unwrap();
        let levels = levelize(&n).unwrap();
        let g = n.require("g").unwrap();
        let h = n.require("h").unwrap();
        let a = n.require("a").unwrap();
        let en = n.require("en").unwrap();
        let mut m = SearchMachines::new(&n, &levels, 1, Fault::output(g, true));
        // Excite: a=1 → good g=0, faulty g=1; h blocked on en=X.
        let mark = m.mark();
        m.assign(0, a, true);
        assert_eq!(m.d_frontier(), vec![(0, h)]);
        assert_eq!(m.d_frontier(), m.d_frontier_scan());
        assert!(!m.detected());
        // en=1 pushes the effect through: h leaves the frontier, PO detects.
        let mark2 = m.mark();
        m.assign(0, en, true);
        assert!(m.d_frontier().is_empty());
        assert!(m.detected());
        m.undo_to(mark2);
        assert_eq!(m.d_frontier(), vec![(0, h)]);
        assert!(!m.detected());
        m.undo_to(mark);
        assert!(m.d_frontier().is_empty());
        assert_eq!(m.d_frontier(), m.d_frontier_scan());
    }
}
