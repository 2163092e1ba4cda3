//! Arena-CSR netlist core.
//!
//! A [`Netlist`] is a single flat arena: one contiguous kind array, one
//! contiguous level array, CSR (offset + edge) fanin/fanout adjacency and an
//! interned name table — no per-node heap allocations. Node ids are dense
//! `u32`s in declaration order (declaration order is the arena's physical
//! order, which keeps structural hashes and every downstream iteration order
//! stable); the levelized evaluation permutation is computed once at build
//! time and stored alongside the arena, so levelization is a free lookup for
//! every consumer.
//!
//! The arena has two readers. [`Netlist`] reads structure and names by id:
//! [`Netlist::kind`], [`Netlist::fanins`], [`Netlist::fanouts`] and
//! [`Netlist::node_name`]. [`crate::levelize::Levelization`] reads what the
//! evaluation order derives: the order itself, levels and evaluation
//! positions. Evaluation loops never need a node's name, so only reports and
//! writers resolve one.

use crate::error::NetlistError;
use crate::gate::{GateType, NodeKind};
use crate::hash::FastHasher;
use crate::levelize::Levelization;
use crate::seq::{ClockId, SeqInfo, SeqKind};
use crate::Result;
use std::fmt;
use std::hash::Hasher as _;

/// Index of a node inside a [`Netlist`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Position of the node in the arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Interned node names: one contiguous byte buffer, `(start, end)` spans per
/// symbol and an open-addressing hash index (FxHash-style [`FastHasher`],
/// deterministic), so a million-node netlist stores its names in three flat
/// allocations instead of a million `String`s.
#[derive(Debug, Clone, Default)]
struct NameTable {
    buf: String,
    spans: Vec<(u32, u32)>,
    /// Open-addressing table of `sym + 1` (0 = empty); capacity is a power
    /// of two kept at most half full.
    table: Vec<u32>,
}

impl NameTable {
    fn hash_name(name: &str) -> u64 {
        let mut h = FastHasher::default();
        h.write(name.as_bytes());
        let h = h.finish();
        // The open-addressing index below masks the LOW bits, but a
        // multiply-only hash leaves them dependent on just the first few
        // bytes of the name — `g100000..g199999` would share a handful of
        // slots and probing would go quadratic. Folding the high half down
        // makes every byte of the name reach the masked bits.
        h ^ (h >> 32)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.spans.len()
    }

    /// The interned string of `sym`.
    fn get(&self, sym: u32) -> &str {
        let (s, e) = self.spans[sym as usize];
        &self.buf[s as usize..e as usize]
    }

    /// Finds the symbol of `name` without inserting.
    fn lookup(&self, name: &str) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut i = Self::hash_name(name) as usize & mask;
        loop {
            match self.table[i] {
                0 => return None,
                v => {
                    if self.get(v - 1) == name {
                        return Some(v - 1);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Interns `name`, returning its (new or existing) symbol.
    fn intern(&mut self, name: &str) -> u32 {
        if (self.spans.len() + 1) * 2 > self.table.len() {
            self.rehash((self.table.len() * 2).max(16));
        }
        let mask = self.table.len() - 1;
        let mut i = Self::hash_name(name) as usize & mask;
        loop {
            match self.table[i] {
                0 => break,
                v => {
                    if self.get(v - 1) == name {
                        return v - 1;
                    }
                }
            }
            i = (i + 1) & mask;
        }
        let sym = self.spans.len() as u32;
        let start = self.buf.len() as u32;
        self.buf.push_str(name);
        self.spans.push((start, self.buf.len() as u32));
        self.table[i] = sym + 1;
        sym
    }

    /// Re-points the whole index at a table of `cap` slots.
    fn rehash(&mut self, cap: usize) {
        let mask = cap - 1;
        let mut table = vec![0u32; cap];
        for sym in 0..self.spans.len() as u32 {
            let mut i = Self::hash_name(self.get(sym)) as usize & mask;
            while table[i] != 0 {
                i = (i + 1) & mask;
            }
            table[i] = sym + 1;
        }
        self.table = table;
    }

    /// Pre-sizes the buffers for `names` symbols of ~`bytes` total length.
    fn reserve(&mut self, names: usize, bytes: usize) {
        self.buf.reserve(bytes);
        self.spans.reserve(names);
        let cap = ((names + 1) * 2).next_power_of_two().max(16);
        if cap > self.table.len() {
            self.rehash(cap);
        }
    }
}

/// Summary statistics of a netlist, used in reports and experiment tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetlistStats {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of combinational gates.
    pub gates: usize,
    /// Number of flip-flops.
    pub flip_flops: usize,
    /// Number of latches.
    pub latches: usize,
    /// Number of fanout stems (nodes with more than one fanout).
    pub stems: usize,
}

/// An immutable gate-level sequential circuit stored as a flat arena.
///
/// Construct one with [`NetlistBuilder`] or by parsing a `.bench` file with
/// [`crate::parser::parse_bench`]. Node ids are dense `u32`s in declaration
/// order; fanin/fanout adjacency is CSR (one offset array + one flat edge
/// array each); names live in one interned buffer; the levelized evaluation
/// order and per-node levels are computed once at build time.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    kinds: Vec<NodeKind>,
    names: NameTable,
    /// Node id -> name symbol.
    node_sym: Vec<u32>,
    /// Name symbol -> node id (every post-build symbol is defined).
    def: Vec<u32>,
    fanin_off: Vec<u32>,
    fanin_edges: Vec<NodeId>,
    fanout_off: Vec<u32>,
    fanout_edges: Vec<NodeId>,
    /// Logic level per node (all zeros when `acyclic` is false).
    level: Vec<u32>,
    /// Combinational gates in levelized (fanin-before-fanout) order.
    eval_order: Vec<NodeId>,
    /// Node id -> position in `eval_order` (`u32::MAX` outside it).
    eval_pos: Vec<u32>,
    /// Constant gates (`CONST0`/`CONST1`) in id order.
    constants: Vec<NodeId>,
    max_level: u32,
    acyclic: bool,
    num_gates: usize,
    /// Number of primary-output uses per node (for stem detection).
    po_count: Vec<u32>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    seq_elems: Vec<NodeId>,
    clocks: Vec<String>,
}

impl PartialEq for Netlist {
    fn eq(&self, other: &Self) -> bool {
        // Derived arrays (fanouts, levels, po counts) follow from these.
        self.name == other.name
            && self.kinds == other.kinds
            && self.fanin_off == other.fanin_off
            && self.fanin_edges == other.fanin_edges
            && self.outputs == other.outputs
            && self.clocks == other.clocks
            && (0..self.kinds.len())
                .all(|i| self.names.get(self.node_sym[i]) == other.names.get(other.node_sym[i]))
    }
}

impl Eq for Netlist {}

impl Netlist {
    /// Name of the circuit.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of nodes (inputs + gates + sequential elements).
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Every node id, in arena (declaration) order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.kinds.len() as u32).map(NodeId)
    }

    /// Primary input node ids in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary output node ids in declaration order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Sequential element node ids in declaration order.
    pub fn sequential_elements(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.seq_elems.iter().copied()
    }

    /// Number of sequential elements.
    pub fn num_sequential(&self) -> usize {
        self.seq_elems.len()
    }

    /// Combinational gate node ids.
    pub fn gates(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids()
            .filter(|id| self.kinds[id.index()].is_gate())
    }

    /// Number of combinational gates.
    pub fn num_gates(&self) -> usize {
        self.num_gates
    }

    /// Name of `id`, resolved through the interned name table: for reports,
    /// writers and error messages, not for evaluation loops.
    pub fn node_name(&self, id: NodeId) -> &str {
        self.names.get(self.node_sym[id.index()])
    }

    /// Look up a node id by name.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        let sym = self.names.lookup(name)?;
        let d = self.def[sym as usize];
        (d != NONE).then_some(NodeId(d))
    }

    /// Look up a node id by name, returning an error when missing.
    pub fn require(&self, name: &str) -> Result<NodeId> {
        self.node_id(name)
            .ok_or_else(|| NetlistError::UnknownNode(name.to_string()))
    }

    /// Name of a clock.
    pub fn clock_name(&self, clock: ClockId) -> &str {
        &self.clocks[clock.index()]
    }

    /// All declared clock names, indexed by [`ClockId`].
    pub fn clocks(&self) -> &[String] {
        &self.clocks
    }

    /// Functional kind of `id`.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.kinds[id.index()]
    }

    /// Functional kinds of every node, indexed by node id.
    pub fn kinds(&self) -> &[NodeKind] {
        &self.kinds
    }

    /// Returns `true` if `id` is a sequential element.
    #[inline]
    pub fn is_sequential(&self, id: NodeId) -> bool {
        self.kinds[id.index()].is_sequential()
    }

    /// Returns the sequential metadata of `id`, if it is a sequential element.
    pub fn seq_info(&self, id: NodeId) -> Option<&SeqInfo> {
        self.kinds[id.index()].seq_info()
    }

    /// Fanin ids of `id`.
    #[inline]
    pub fn fanins(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.fanin_edges[self.fanin_off[i] as usize..self.fanin_off[i + 1] as usize]
    }

    /// Fanout ids of `id`.
    #[inline]
    pub fn fanouts(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.fanout_edges[self.fanout_off[i] as usize..self.fanout_off[i + 1] as usize]
    }

    /// Number of fanouts of `id`, counting an appearance as a primary output as
    /// one additional fanout (a node that drives both logic and a primary
    /// output branches, so it is a stem).
    #[inline]
    pub fn fanout_count(&self, id: NodeId) -> usize {
        let i = id.index();
        (self.fanout_off[i + 1] - self.fanout_off[i] + self.po_count[i]) as usize
    }

    /// Constant gates (`CONST0`/`CONST1`) in id order: the only gates whose
    /// value is binary when every primary input and the state are `X`.
    pub fn constants(&self) -> &[NodeId] {
        &self.constants
    }

    /// The levelization stored at build time, or `None` when the
    /// combinational logic is cyclic.
    pub(crate) fn levelization(&self) -> Option<Levelization<'_>> {
        self.acyclic.then_some(Levelization {
            order: &self.eval_order,
            level: &self.level,
            eval_pos: &self.eval_pos,
            max_level: self.max_level,
        })
    }

    /// Name of the first gate (in id order) stuck in a combinational cycle.
    /// Only meaningful when [`Netlist::levelization`] is `None`.
    pub(crate) fn first_cycle_gate_name(&self) -> String {
        let mut in_order = vec![false; self.kinds.len()];
        for &id in &self.eval_order {
            in_order[id.index()] = true;
        }
        self.gates()
            .find(|g| !in_order[g.index()])
            .map(|g| self.node_name(g).to_string())
            .unwrap_or_else(|| "<unknown>".to_string())
    }

    /// Structural hash of the netlist: name, node arena (kind, fanins,
    /// names), input/output lists and clock table. Two netlists with the
    /// same hash are the same circuit for caching and resume purposes.
    pub fn structural_hash(&self) -> u64 {
        let mut h = FastHasher::default();
        h.write(self.name.as_bytes());
        h.write_usize(self.num_nodes());
        for (i, kind) in self.kinds.iter().enumerate() {
            let id = NodeId(i as u32);
            h.write(self.node_name(id).as_bytes());
            match kind {
                NodeKind::Input => h.write_u8(0),
                NodeKind::Gate(g) => {
                    h.write_u8(1);
                    h.write(g.bench_name().as_bytes());
                }
                NodeKind::Seq(info) => {
                    h.write_u8(2);
                    h.write_u8(info.kind as u8);
                    h.write_usize(info.clock.index());
                    h.write_u8(info.edge as u8);
                    h.write_u8(info.set as u8);
                    h.write_u8(info.reset as u8);
                    h.write_u8(info.ports);
                }
            }
            let fanins = self.fanins(id);
            h.write_usize(fanins.len());
            for f in fanins {
                h.write_u32(f.0);
            }
        }
        h.write_usize(self.inputs.len());
        for i in &self.inputs {
            h.write_u32(i.0);
        }
        h.write_usize(self.outputs.len());
        for o in &self.outputs {
            h.write_u32(o.0);
        }
        for c in &self.clocks {
            h.write(c.as_bytes());
        }
        h.finish()
    }

    /// Summary statistics.
    pub fn stats(&self) -> NetlistStats {
        let mut s = NetlistStats {
            inputs: self.inputs.len(),
            outputs: self.outputs.len(),
            ..NetlistStats::default()
        };
        for kind in &self.kinds {
            match kind {
                NodeKind::Gate(_) => s.gates += 1,
                NodeKind::Seq(info) => match info.kind {
                    SeqKind::FlipFlop => s.flip_flops += 1,
                    SeqKind::Latch => s.latches += 1,
                },
                NodeKind::Input => {}
            }
        }
        s.stems = (0..self.kinds.len())
            .filter(|&i| self.fanout_count(NodeId(i as u32)) > 1)
            .count();
        s
    }

    /// Structural validity check: every fanin id is in range, sequential
    /// elements have exactly one data fanin, gate arities are legal, and the
    /// fanout table is exactly the transpose of the fanin table, in
    /// `(driver, pin)` order. Linear in nodes + edges.
    ///
    /// The transpose check walks the stored tables themselves, not the
    /// counting fill that [`NetlistBuilder::build`] uses to make them, so it
    /// also catches a fault in that fill.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Invalid`] or [`NetlistError::BadArity`] when a
    /// check fails.
    pub fn validate(&self) -> Result<()> {
        let n = self.kinds.len();
        let off = &self.fanout_off;
        if off.len() != n + 1
            || off.first() != Some(&0)
            || off.last().map(|&e| e as usize) != Some(self.fanout_edges.len())
        {
            return Err(NetlistError::Invalid(
                "fanout offsets do not span the fanout table".to_string(),
            ));
        }
        // Each driver's next unread fanout slot: walking every node's fanins
        // in pin order, that slot must name the node.
        let mut cursor = off[..n].to_vec();
        for (i, kind) in self.kinds.iter().enumerate() {
            let id = NodeId(i as u32);
            let fanins = self.fanins(id);
            let name = || self.node_name(id);
            if let Some(f) = fanins.iter().find(|f| f.index() >= n) {
                return Err(NetlistError::Invalid(format!(
                    "node `{}` has out-of-range fanin {f}",
                    name()
                )));
            }
            match kind {
                NodeKind::Input => {
                    if !fanins.is_empty() {
                        return Err(NetlistError::Invalid(format!(
                            "input `{}` has fanins",
                            name()
                        )));
                    }
                }
                NodeKind::Gate(g) => {
                    if !g.arity_ok(fanins.len()) {
                        return Err(NetlistError::BadArity {
                            name: name().to_string(),
                            gate: g.to_string(),
                            got: fanins.len(),
                        });
                    }
                }
                NodeKind::Seq(info) => {
                    if fanins.len() != 1 {
                        return Err(NetlistError::Invalid(format!(
                            "sequential element `{}` must have exactly one data fanin",
                            name()
                        )));
                    }
                    if info.clock.index() >= self.clocks.len() {
                        return Err(NetlistError::UnknownClock(format!("{}", info.clock)));
                    }
                }
            }
            for &driver in fanins {
                let d = driver.index();
                let slot = cursor[d];
                if slot >= off[d + 1] || self.fanout_edges.get(slot as usize) != Some(&id) {
                    return Err(NetlistError::Invalid(format!(
                        "fanout table of `{}` does not list `{}` in (driver, pin) order",
                        self.node_name(driver),
                        name()
                    )));
                }
                cursor[d] = slot + 1;
            }
        }
        // Every slot was read: no driver lists a node its fanins lack.
        if let Some(d) = (0..n).find(|&d| cursor[d] != off[d + 1]) {
            return Err(NetlistError::Invalid(format!(
                "fanout table of `{}` lists nodes it does not drive",
                self.node_name(NodeId(d as u32))
            )));
        }
        Ok(())
    }
}

const NONE: u32 = u32::MAX;

/// Incremental, by-name construction of a [`Netlist`].
///
/// Fanins may reference names that are defined later; resolution happens in
/// [`NetlistBuilder::build`]. Duplicate names are rejected eagerly. The
/// builder itself is flat — names are interned on first sight and fanin
/// references accumulate in one CSR-shaped array — so construction of a
/// multi-million-gate circuit is a single linear pass with no per-node
/// allocations.
///
/// # Example
///
/// ```
/// use sla_netlist::{GateType, NetlistBuilder, SeqInfo};
///
/// # fn main() -> Result<(), sla_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("toy");
/// b.input("i1");
/// b.gate("g1", GateType::Not, &["f1"])?;   // forward reference is fine
/// b.dff("f1", "g2")?;
/// b.gate("g2", GateType::And, &["i1", "g1"])?;
/// b.output("g2")?;
/// let n = b.build()?;
/// assert_eq!(n.num_gates(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    names: NameTable,
    /// Name symbol -> node index ([`NONE`] while only referenced).
    def: Vec<u32>,
    kinds: Vec<NodeKind>,
    node_sym: Vec<u32>,
    fanin_off: Vec<u32>,
    fanin_syms: Vec<u32>,
    outputs: Vec<u32>,
    clocks: Vec<String>,
}

impl NetlistBuilder {
    /// Starts a new empty builder for a circuit called `name`. A default clock
    /// named `clk` is always available as [`ClockId`]`(0)`.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            names: NameTable::default(),
            def: Vec::new(),
            kinds: Vec::new(),
            node_sym: Vec::new(),
            fanin_off: vec![0],
            fanin_syms: Vec::new(),
            outputs: Vec::new(),
            clocks: vec!["clk".to_string()],
        }
    }

    /// Pre-sizes the arena for `nodes` nodes with ~`edges` total fanins and
    /// ~`name_bytes` total name length. Purely an allocation hint; the
    /// builder grows on demand without it.
    pub fn reserve(&mut self, nodes: usize, edges: usize, name_bytes: usize) {
        self.names.reserve(nodes, name_bytes);
        self.def.reserve(nodes);
        self.kinds.reserve(nodes);
        self.node_sym.reserve(nodes);
        self.fanin_off.reserve(nodes);
        self.fanin_syms.reserve(edges);
    }

    /// Interns `name` and keeps the definition table in sync.
    fn sym(&mut self, name: &str) -> u32 {
        let sym = self.names.intern(name);
        if sym as usize == self.def.len() {
            self.def.push(NONE);
        }
        sym
    }

    fn insert(&mut self, name: &str, kind: NodeKind, fanins: &[&str]) -> Result<()> {
        let sym = self.sym(name);
        if self.def[sym as usize] != NONE {
            return Err(NetlistError::DuplicateNode(name.to_string()));
        }
        self.define(sym, kind, fanins);
        Ok(())
    }

    /// Appends the node named by the undefined symbol `sym`.
    fn define(&mut self, sym: u32, kind: NodeKind, fanins: &[&str]) {
        self.def[sym as usize] = self.kinds.len() as u32;
        self.kinds.push(kind);
        self.node_sym.push(sym);
        for f in fanins {
            let fs = self.sym(f);
            self.fanin_syms.push(fs);
        }
        self.fanin_off.push(self.fanin_syms.len() as u32);
    }

    /// Declares a primary input. Redeclaring an existing name is ignored so
    /// that parsers can be lenient about repeated `INPUT` lines.
    pub fn input(&mut self, name: &str) {
        let sym = self.sym(name);
        if self.def[sym as usize] == NONE {
            self.define(sym, NodeKind::Input, &[]);
        }
    }

    /// Declares a combinational gate.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateNode`] if `name` already exists and
    /// [`NetlistError::BadArity`] if the fanin count is illegal for `gate`.
    pub fn gate(&mut self, name: &str, gate: GateType, fanins: &[&str]) -> Result<()> {
        if !gate.arity_ok(fanins.len()) {
            return Err(NetlistError::BadArity {
                name: name.to_string(),
                gate: gate.to_string(),
                got: fanins.len(),
            });
        }
        self.insert(name, NodeKind::Gate(gate), fanins)
    }

    /// Declares a simple rising-edge flip-flop on the default clock.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateNode`] if `name` already exists.
    pub fn dff(&mut self, name: &str, data: &str) -> Result<()> {
        self.seq(name, data, SeqInfo::simple_ff())
    }

    /// Declares a sequential element with explicit metadata (clock domain,
    /// edge, set/reset constraints, latch kind, port count).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateNode`] if `name` already exists.
    pub fn seq(&mut self, name: &str, data: &str, info: SeqInfo) -> Result<()> {
        self.insert(name, NodeKind::Seq(info), &[data])
    }

    /// The metadata of the sequential element with node index `node`, for
    /// settings (`#pragma` lines) that may follow the element in the text.
    pub(crate) fn seq_info_mut(&mut self, node: usize) -> Option<&mut SeqInfo> {
        match self.kinds.get_mut(node)? {
            NodeKind::Seq(info) => Some(info),
            _ => None,
        }
    }

    /// Declares (or finds) a clock by name and returns its id.
    pub fn clock(&mut self, name: &str) -> ClockId {
        if let Some(pos) = self.clocks.iter().position(|c| c == name) {
            ClockId(pos as u32)
        } else {
            self.clocks.push(name.to_string());
            ClockId((self.clocks.len() - 1) as u32)
        }
    }

    /// Marks a node as a primary output. The node may be defined later; the
    /// reference is checked in [`NetlistBuilder::build`].
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` is kept for forward compatibility.
    pub fn output(&mut self, name: &str) -> Result<()> {
        let sym = self.sym(name);
        self.outputs.push(sym);
        Ok(())
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Returns `true` if no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Resolves all name references and produces the immutable [`Netlist`].
    ///
    /// Runs in time linear in nodes + edges: fanin symbols resolve through
    /// the definition table, the fanout CSR is a two-pass counting fill, the
    /// levelization (stored in the arena) is one Kahn sweep, and
    /// [`Netlist::validate`] is linear too.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNode`] when a fanin or output references
    /// an undefined name, and any error surfaced by [`Netlist::validate`].
    pub fn build(self) -> Result<Netlist> {
        let n = self.kinds.len();

        // Resolve fanin references (declaration order — first undefined name
        // in declaration order wins the error, as before the arena).
        let mut fanin_edges: Vec<NodeId> = Vec::with_capacity(self.fanin_syms.len());
        for &fs in &self.fanin_syms {
            let d = self.def[fs as usize];
            if d == NONE {
                return Err(NetlistError::UnknownNode(self.names.get(fs).to_string()));
            }
            fanin_edges.push(NodeId(d));
        }

        let (fanout_off, fanout_edges) = fanout_csr(&self.fanin_off, &fanin_edges);

        let mut inputs = Vec::new();
        let mut seq_elems = Vec::new();
        let mut num_gates = 0usize;
        for (i, kind) in self.kinds.iter().enumerate() {
            match kind {
                NodeKind::Input => inputs.push(NodeId(i as u32)),
                NodeKind::Seq(_) => seq_elems.push(NodeId(i as u32)),
                NodeKind::Gate(_) => num_gates += 1,
            }
        }
        let constants = constant_gates(&self.kinds);

        let mut outputs = Vec::with_capacity(self.outputs.len());
        let mut po_count = vec![0u32; n];
        for &sym in &self.outputs {
            let d = self.def[sym as usize];
            if d == NONE {
                return Err(NetlistError::UnknownNode(self.names.get(sym).to_string()));
            }
            outputs.push(NodeId(d));
            po_count[d as usize] += 1;
        }

        // Levelization: Kahn over the CSR, seeded with zero-comb-indegree
        // gates in id order. Stored even when incomplete (cyclic) — the
        // `acyclic` flag gates consumers.
        let (level, eval_order, max_level, acyclic) = levelize_arena(
            &self.kinds,
            &self.fanin_off,
            &fanin_edges,
            &fanout_off,
            &fanout_edges,
            num_gates,
        );
        let eval_pos = eval_positions(n, &eval_order);

        let netlist = Netlist {
            name: self.name,
            kinds: self.kinds,
            names: self.names,
            node_sym: self.node_sym,
            def: self.def,
            fanin_off: self.fanin_off,
            fanin_edges,
            fanout_off,
            fanout_edges,
            level,
            eval_order,
            eval_pos,
            constants,
            max_level,
            acyclic,
            num_gates,
            po_count,
            inputs,
            outputs,
            seq_elems,
            clocks: self.clocks,
        };
        netlist.validate()?;
        Ok(netlist)
    }
}

/// The fanout CSR of a fanin CSR: its transpose, a counting fill (count,
/// prefix-sum, fill) in `(driver, pin)` order, which reproduces the
/// insertion order of the pre-arena per-node `Vec` push loop exactly. Every
/// fanin id must be below `fanin_off.len() - 1`.
fn fanout_csr(fanin_off: &[u32], fanin_edges: &[NodeId]) -> (Vec<u32>, Vec<NodeId>) {
    let n = fanin_off.len() - 1;
    let mut fanout_off = vec![0u32; n + 1];
    for e in fanin_edges {
        fanout_off[e.index() + 1] += 1;
    }
    for i in 0..n {
        fanout_off[i + 1] += fanout_off[i];
    }
    let mut cursor: Vec<u32> = fanout_off[..n].to_vec();
    let mut fanout_edges = vec![NodeId(0); fanin_edges.len()];
    for (i, pins) in fanin_off.windows(2).enumerate() {
        for &f in &fanin_edges[pins[0] as usize..pins[1] as usize] {
            fanout_edges[cursor[f.index()] as usize] = NodeId(i as u32);
            cursor[f.index()] += 1;
        }
    }
    (fanout_off, fanout_edges)
}

/// Node id -> position in `eval_order`, `u32::MAX` for nodes outside it.
fn eval_positions(num_nodes: usize, eval_order: &[NodeId]) -> Vec<u32> {
    let mut pos = vec![u32::MAX; num_nodes];
    for (p, id) in eval_order.iter().enumerate() {
        pos[id.index()] = p as u32;
    }
    pos
}

/// The constant gates (`CONST0`/`CONST1`) of a kind array, in id order.
fn constant_gates(kinds: &[NodeKind]) -> Vec<NodeId> {
    kinds
        .iter()
        .enumerate()
        .filter(|(_, k)| matches!(k, NodeKind::Gate(GateType::Const0 | GateType::Const1)))
        .map(|(i, _)| NodeId(i as u32))
        .collect()
}

/// One Kahn sweep over the CSR. Returns `(level, eval_order, max_level,
/// acyclic)`; the order and levels are bit-identical to the pre-arena
/// `levelize` (same seed order, same FIFO discipline, same level recurrence).
fn levelize_arena(
    kinds: &[NodeKind],
    fanin_off: &[u32],
    fanin_edges: &[NodeId],
    fanout_off: &[u32],
    fanout_edges: &[NodeId],
    num_gates: usize,
) -> (Vec<u32>, Vec<NodeId>, u32, bool) {
    let n = kinds.len();
    let mut level = vec![0u32; n];
    let mut indegree = vec![0u32; n];
    let fanins = |i: usize| &fanin_edges[fanin_off[i] as usize..fanin_off[i + 1] as usize];
    let fanouts = |i: usize| &fanout_edges[fanout_off[i] as usize..fanout_off[i + 1] as usize];

    for i in 0..n {
        if kinds[i].is_gate() {
            // Only combinational fanins gate the evaluation order; inputs and
            // sequential outputs are available at the start of the frame.
            indegree[i] = fanins(i)
                .iter()
                .filter(|f| kinds[f.index()].is_gate())
                .count() as u32;
        }
    }

    let mut queue: Vec<NodeId> = (0..n)
        .filter(|&i| kinds[i].is_gate() && indegree[i] == 0)
        .map(|i| NodeId(i as u32))
        .collect();
    let mut order = Vec::with_capacity(num_gates);
    let mut head = 0;
    while head < queue.len() {
        let id = queue[head];
        head += 1;
        order.push(id);
        let lvl = fanins(id.index())
            .iter()
            .map(|f| level[f.index()])
            .max()
            .unwrap_or(0)
            + 1;
        level[id.index()] = lvl;
        for &fo in fanouts(id.index()) {
            if kinds[fo.index()].is_gate() {
                indegree[fo.index()] -= 1;
                if indegree[fo.index()] == 0 {
                    queue.push(fo);
                }
            }
        }
    }

    if order.len() != num_gates {
        level.iter_mut().for_each(|l| *l = 0);
        return (level, order, 0, false);
    }
    let max_level = level.iter().copied().max().unwrap_or(0);
    (level, order, max_level, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::LineConstraint;

    fn small() -> Netlist {
        let mut b = NetlistBuilder::new("small");
        b.input("a");
        b.input("b");
        b.gate("g", GateType::And, &["a", "b"]).unwrap();
        b.gate("h", GateType::Not, &["g"]).unwrap();
        b.dff("q", "h").unwrap();
        b.output("q").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn build_resolves_names_and_fanouts() {
        let n = small();
        assert_eq!(n.num_nodes(), 5);
        let g = n.require("g").unwrap();
        let a = n.require("a").unwrap();
        assert!(n.fanouts(a).contains(&g));
        assert_eq!(n.fanins(g).len(), 2);
        assert_eq!(n.outputs().len(), 1);
        assert_eq!(n.num_sequential(), 1);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = NetlistBuilder::new("dup");
        b.input("a");
        let err = b.gate("a", GateType::Buf, &["a"]).unwrap_err();
        assert_eq!(err, NetlistError::DuplicateNode("a".into()));
    }

    #[test]
    fn forward_references_resolve() {
        let mut b = NetlistBuilder::new("fwd");
        b.gate("g", GateType::Not, &["q"]).unwrap();
        b.input("a");
        b.dff("q", "a").unwrap();
        b.output("g").unwrap();
        let n = b.build().unwrap();
        assert_eq!(
            n.fanins(n.require("g").unwrap())[0],
            n.require("q").unwrap()
        );
    }

    #[test]
    fn unknown_fanin_fails_at_build() {
        let mut b = NetlistBuilder::new("bad");
        b.gate("g", GateType::Not, &["missing"]).unwrap();
        assert!(matches!(b.build(), Err(NetlistError::UnknownNode(_))));
    }

    #[test]
    fn unknown_output_fails_at_build() {
        let mut b = NetlistBuilder::new("bad");
        b.input("a");
        b.output("nope").unwrap();
        assert!(matches!(b.build(), Err(NetlistError::UnknownNode(_))));
    }

    #[test]
    fn bad_arity_rejected_immediately() {
        let mut b = NetlistBuilder::new("arity");
        b.input("a");
        b.input("b");
        let err = b.gate("g", GateType::Not, &["a", "b"]).unwrap_err();
        assert!(matches!(err, NetlistError::BadArity { .. }));
    }

    #[test]
    fn stats_counts_everything() {
        let n = small();
        let s = n.stats();
        assert_eq!(s.inputs, 2);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.gates, 2);
        assert_eq!(s.flip_flops, 1);
        assert_eq!(s.latches, 0);
    }

    #[test]
    fn fanout_count_counts_po_uses() {
        let mut b = NetlistBuilder::new("po");
        b.input("a");
        b.gate("g", GateType::Buf, &["a"]).unwrap();
        b.gate("h", GateType::Not, &["g"]).unwrap();
        b.output("g").unwrap();
        b.output("h").unwrap();
        let n = b.build().unwrap();
        // g drives h and is a PO -> counts as 2 fanouts (a stem).
        assert_eq!(n.fanout_count(n.require("g").unwrap()), 2);
        assert_eq!(n.fanout_count(n.require("a").unwrap()), 1);
    }

    #[test]
    fn clocks_are_interned() {
        let mut b = NetlistBuilder::new("clk");
        let c1 = b.clock("clk_a");
        let c2 = b.clock("clk_a");
        let c3 = b.clock("clk_b");
        assert_eq!(c1, c2);
        assert_ne!(c1, c3);
        b.input("a");
        b.seq(
            "q",
            "a",
            SeqInfo {
                clock: c3,
                reset: LineConstraint::Unconstrained,
                ..SeqInfo::default()
            },
        )
        .unwrap();
        b.output("q").unwrap();
        let n = b.build().unwrap();
        assert_eq!(n.clock_name(c3), "clk_b");
        assert_eq!(n.clocks().len(), 3);
    }

    #[test]
    fn validate_catches_seq_without_clock() {
        // Constructed through the builder this cannot happen, so build a valid
        // netlist and check validate() passes instead.
        let n = small();
        assert!(n.validate().is_ok());
    }

    #[test]
    fn eval_positions_and_constants_follow_the_arena() {
        let mut b = NetlistBuilder::new("consts");
        b.input("a");
        b.gate("one", GateType::Const1, &[]).unwrap();
        b.gate("g", GateType::And, &["a", "one"]).unwrap();
        b.gate("zero", GateType::Const0, &[]).unwrap();
        b.dff("q", "g").unwrap();
        b.gate("h", GateType::Or, &["q", "zero"]).unwrap();
        b.output("h").unwrap();
        let n = b.build().unwrap();
        let id = |name: &str| n.require(name).unwrap();
        assert_eq!(n.constants(), &[id("one"), id("zero")]);
        let levels = crate::levelize::levelize(&n).unwrap();
        for (pos, &gate) in levels.order().iter().enumerate() {
            assert_eq!(levels.eval_pos(gate) as usize, pos);
        }
        assert_eq!(levels.eval_pos(id("a")), u32::MAX);
        assert_eq!(levels.eval_pos(id("q")), u32::MAX);
    }

    #[test]
    fn arena_levels_available_after_build() {
        let n = small();
        let levels = n.levelization().expect("acyclic");
        assert_eq!(levels.order().len(), n.num_gates());
        assert_eq!(levels.level(n.require("g").unwrap()), 1);
        assert_eq!(levels.level(n.require("h").unwrap()), 2);
        assert_eq!(levels.max_level(), 2);
    }

    #[test]
    fn name_table_interns_and_survives_growth() {
        let mut t = NameTable::default();
        let syms: Vec<u32> = (0..1000).map(|i| t.intern(&format!("node_{i}"))).collect();
        for (i, &s) in syms.iter().enumerate() {
            assert_eq!(t.get(s), format!("node_{i}"));
            assert_eq!(t.lookup(&format!("node_{i}")), Some(s));
        }
        assert_eq!(t.intern("node_500"), syms[500], "re-intern is idempotent");
        assert_eq!(t.lookup("absent"), None);
        assert_eq!(t.len(), 1000);
    }

    #[test]
    fn reserve_is_only_a_hint() {
        let mut b = NetlistBuilder::new("hint");
        b.reserve(100, 200, 800);
        b.input("a");
        b.gate("g", GateType::Not, &["a"]).unwrap();
        b.output("g").unwrap();
        let n = b.build().unwrap();
        assert_eq!(n.num_nodes(), 2);
        assert_eq!(n.require("g").unwrap(), NodeId(1));
    }

    #[test]
    fn validate_checks_the_fanout_table_is_the_transpose() {
        // `b` drives `g` twice and `h` once.
        let mut b = NetlistBuilder::new("t");
        b.input("b");
        b.gate("g", GateType::And, &["b", "b"]).unwrap();
        b.gate("h", GateType::Not, &["b"]).unwrap();
        b.output("g").unwrap();
        b.output("h").unwrap();
        let n = b.build().unwrap();
        let (bid, g, h) = (NodeId(0), NodeId(1), NodeId(2));
        assert_eq!(n.fanouts(bid), &[g, g, h]);

        // Out of (driver, pin) order, with the same multiset.
        let mut bad = n.clone();
        bad.fanout_edges.swap(0, 2);
        assert!(matches!(bad.validate(), Err(NetlistError::Invalid(_))));
        // A fanout the fanins do not have, with the same counts.
        let mut bad = n.clone();
        bad.fanout_edges[2] = g;
        assert!(matches!(bad.validate(), Err(NetlistError::Invalid(_))));
        // A missing fanout.
        let mut bad = n.clone();
        bad.fanout_edges.pop();
        bad.fanout_off[1] -= 1;
        bad.fanout_off[2] -= 1;
        bad.fanout_off[3] -= 1;
        assert!(matches!(bad.validate(), Err(NetlistError::Invalid(_))));
        // An extra fanout: `g` drives nothing, yet lists `h`.
        let mut bad = n.clone();
        bad.fanout_edges.push(h);
        bad.fanout_off[2] += 1;
        bad.fanout_off[3] += 1;
        assert!(matches!(bad.validate(), Err(NetlistError::Invalid(_))));
        // Offsets that do not span the table, or that run backwards.
        let mut bad = n.clone();
        bad.fanout_edges.push(h);
        assert!(matches!(bad.validate(), Err(NetlistError::Invalid(_))));
        let mut bad = n.clone();
        bad.fanout_off[2] = 1;
        assert!(matches!(bad.validate(), Err(NetlistError::Invalid(_))));
        assert_eq!(n.validate(), Ok(()));
    }

    #[test]
    fn netlist_equality_is_structural() {
        let build = || {
            let mut b = NetlistBuilder::new("eq");
            b.input("a");
            b.gate("g", GateType::Not, &["a"]).unwrap();
            b.output("g").unwrap();
            b.build().unwrap()
        };
        assert_eq!(build(), build());
        let mut b = NetlistBuilder::new("eq");
        b.input("a");
        b.gate("g", GateType::Buf, &["a"]).unwrap();
        b.output("g").unwrap();
        assert_ne!(build(), b.build().unwrap());
    }
}
