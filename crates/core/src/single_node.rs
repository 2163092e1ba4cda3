//! Single-node learning (paper §3.1, first half) and tie extraction from stem
//! simulation (paper §3.2, first criterion).
//!
//! For every fanout stem both logic values are injected at frame 0 and
//! simulated forward. With `s=0 → g1=v1 @ t` and `s=1 → g2=v2 @ t`, the
//! contrapositive law gives the same-frame relation `g1=¬v1 → g2=v2`.
//! A node driven to the *same* value at the same frame by both polarities is a
//! tied gate. The per-stem traces also populate the *support map* — for every
//! `(node, value)` the set of stem assignments that produce it — which is the
//! input of the multiple-node learning phase.
//!
//! # The harvest
//!
//! The learning engine runs [`run_batched`]: 32 stems, both polarities
//! each, share one packed 64-lane forward pass. Each packed frame is then read
//! once, node-major: one word per node covers every lane, and its binary lanes
//! are appended to per-lane lists of *literal codes* (`2 × node + value`) in
//! node order. Primary inputs are left out of the lists, since no extractor
//! wants them. Everything the pass learns comes from those lists:
//!
//! * a frame that repeats an earlier frame pair of its stem is found for all
//!   lanes at once, by comparing frame pairs word by word;
//! * ties are the codes the two polarity lists of a stem share;
//! * relation pairs go through the pair filter, which works on bit rows;
//! * support and cross-frame relations are one walk over the lists.
//!
//! [`run`] is the scalar reference: one forward simulation per polarity, read
//! node by node through [`TraceRead`], with a pair-at-a-time filter. Property
//! tests assert that both give the same outcome.

use crate::relation::{CrossImplication, Implication, Literal};
use crate::tie::{TieKind, TiedGate};
use sla_netlist::{FastHashMap, Netlist, NodeId, NodeKind};
use sla_sim::{
    Injection, InjectionSim, Logic3, PackedTraces, PackedWord, SimOptions, Trace, TraceRead,
};

/// For every `(node, value)`: the list of `(stem, stem_value, frame)` stem
/// assignments whose forward simulation sets the node to that value at that
/// frame offset.
///
/// Indexed by the literal codes (`2 × node + value`) that have entries,
/// listed in ascending order in `codes`: the entries of `codes[k]` are
/// `ids[start[k]..start[k + 1]]`, in the order they were logged, each the
/// index of its `(stem, stem_value, frame)` run in `runs`. A run is one
/// frame of one stem polarity's trace, so an entry costs 4 bytes, a key 8,
/// and no key owns an allocation; a code without entries costs nothing. The
/// map is built once from a [`SupportLog`] by a counting sort. Keys iterate
/// in literal-code order.
#[derive(Debug, Default, Clone)]
pub struct SupportMap {
    /// The literal codes with at least one entry, ascending.
    codes: Vec<u32>,
    /// Per listed code, the start of its entries (one more slot than codes).
    start: Vec<u32>,
    /// Every entry as a run index, grouped by literal code.
    ids: Vec<u32>,
    /// The `(stem, stem_value, frame)` assignment of each run.
    runs: Vec<SupportEntry>,
}

/// The entries of one [`SupportMap`] key, in log order.
#[derive(Debug, Clone)]
pub struct SupportEntries<'a> {
    ids: std::slice::Iter<'a, u32>,
    runs: &'a [SupportEntry],
}

impl Iterator for SupportEntries<'_> {
    type Item = SupportEntry;

    #[inline]
    fn next(&mut self) -> Option<SupportEntry> {
        self.ids.next().map(|&id| self.runs[id as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl ExactSizeIterator for SupportEntries<'_> {}

impl PartialEq for SupportEntries<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.clone().eq(other.clone())
    }
}

/// A `(node, value)` support-map key.
pub type SupportKey = (NodeId, bool);

/// A `(stem, stem_value, frame)` assignment supporting a key.
pub type SupportEntry = (NodeId, bool, usize);

/// Literal code of `node = value`: `2 × node + value`.
#[inline]
fn code(node: NodeId, value: bool) -> u32 {
    2 * node.0 + u32::from(value)
}

/// The `(node, value)` pair a literal code stands for.
#[inline]
fn decode(code: u32) -> (NodeId, bool) {
    (NodeId(code >> 1), code & 1 == 1)
}

/// Support entries in accumulation order, before [`SupportLog::finish`]
/// indexes them into a [`SupportMap`].
///
/// The log is a list of blocks of literal codes, each cut into runs that
/// share one entry. The single-node pass hands over each lane's code list as
/// a block, one run per frame, without copying it; such a run skips the
/// codes of its own stem, which a lane also lists.
#[derive(Debug, Default)]
pub struct SupportLog {
    blocks: Vec<(Vec<u32>, Vec<SupportRun>)>,
}

/// One run of a [`SupportLog`] block.
#[derive(Debug, Clone, Copy)]
struct SupportRun {
    /// The entry every code of the run is logged with.
    entry: SupportEntry,
    /// End of the run's codes in its block.
    end: usize,
    /// Codes of this node are not entries (`u32::MAX`: none).
    skip: u32,
}

impl SupportLog {
    /// Logs one support entry for `key`.
    pub fn push(&mut self, key: SupportKey, entry: SupportEntry) {
        if self.blocks.is_empty() {
            self.blocks.push((Vec::new(), Vec::new()));
        }
        let (codes, runs) = self.blocks.last_mut().expect("a block exists");
        codes.push(code(key.0, key.1));
        match runs.last_mut() {
            Some(run) if run.entry == entry && run.end + 1 == codes.len() => run.end += 1,
            _ => runs.push(SupportRun {
                entry,
                end: codes.len(),
                skip: u32::MAX,
            }),
        }
    }

    /// Logs one lane's code list: frame `t` (ending at `ends[t]`) supports
    /// `(stem, value, t)`, except the stem's own codes.
    fn push_lane(&mut self, stem: NodeId, value: bool, codes: Vec<u32>, ends: &[usize]) {
        let runs = ends
            .iter()
            .enumerate()
            .map(|(t, &end)| SupportRun {
                entry: (stem, value, t),
                end,
                skip: stem.0,
            })
            .collect();
        self.blocks.push((codes, runs));
    }

    /// Calls `f(code, run)` for every logged entry, in log order, with the
    /// run's index across all blocks.
    #[inline]
    fn for_each(&self, mut f: impl FnMut(u32, u32)) {
        let mut id = 0u32;
        for (codes, runs) in &self.blocks {
            let mut begin = 0;
            for run in runs {
                for &c in &codes[begin..run.end] {
                    if c >> 1 != run.skip {
                        f(c, id);
                    }
                }
                begin = run.end;
                id += 1;
            }
        }
    }

    /// Indexes the log by literal code. Entries of one key keep their log
    /// order.
    pub fn finish(self) -> SupportMap {
        // Counts per code, then exclusive prefix sums over the codes that
        // occur: `cursor[c]` becomes the write cursor of code `c`, and the
        // sums are also the starts the map keeps. The dense cursor array
        // lives only while the map is built.
        let mut cursor: Vec<u32> = Vec::new();
        self.for_each(|c, _| {
            let c = c as usize;
            if c >= cursor.len() {
                cursor.resize(c + 1, 0);
            }
            cursor[c] += 1;
        });
        let mut codes = Vec::new();
        let mut start = Vec::new();
        let mut total = 0u32;
        for (c, slot) in (0u32..).zip(&mut cursor) {
            if *slot > 0 {
                codes.push(c);
                start.push(total);
                let count = *slot;
                *slot = total;
                total += count;
            }
        }
        start.push(total);
        let mut ids = vec![0u32; total as usize];
        self.for_each(|c, run| {
            let at = &mut cursor[c as usize];
            ids[*at as usize] = run;
            *at += 1;
        });
        let runs = self
            .blocks
            .iter()
            .flat_map(|(_, runs)| runs.iter().map(|run| run.entry))
            .collect();
        SupportMap {
            codes,
            start,
            ids,
            runs,
        }
    }
}

impl SupportMap {
    /// Support entries of `key`, if any.
    pub fn get(&self, key: &SupportKey) -> Option<SupportEntries<'_>> {
        let k = self.codes.binary_search(&code(key.0, key.1)).ok()?;
        Some(self.entries(self.start[k], self.start[k + 1]))
    }

    fn entries(&self, begin: u32, end: u32) -> SupportEntries<'_> {
        SupportEntries {
            ids: self.ids[begin as usize..end as usize].iter(),
            runs: &self.runs,
        }
    }

    /// Number of distinct `(node, value)` keys.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `true` when no support was accumulated.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Iterates `(key, entries)` in literal-code order (node, then value).
    pub fn iter(&self) -> impl Iterator<Item = (SupportKey, SupportEntries<'_>)> {
        self.codes
            .iter()
            .zip(self.start.windows(2))
            .map(|(&c, w)| (decode(c), self.entries(w[0], w[1])))
    }
}

/// Two maps are equal when they hold the same keys, each with the same
/// entries in the same order: what multiple-node learning reads.
impl PartialEq for SupportMap {
    fn eq(&self, other: &SupportMap) -> bool {
        self.iter().eq(other.iter())
    }
}

/// Decides whether a relation between two endpoints is worth keeping.
///
/// The paper only extracts relations between pairs of sequential elements and
/// between gates and sequential elements (gate–gate relations follow from
/// those, primary inputs are free variables); with multiple clock domains the
/// sequential endpoints must additionally belong to the active class.
pub fn keep_relation(netlist: &Netlist, class_mask: Option<&[bool]>, a: NodeId, b: NodeId) -> bool {
    role(netlist.kind(a), class_mask, a) != Role::Excluded
        && role(netlist.kind(b), class_mask, b) != Role::Excluded
        && (netlist.is_sequential(a) || netlist.is_sequential(b))
}

/// Everything learned by one single-node pass over a set of stems.
#[derive(Debug, Default)]
pub struct SingleNodeOutcome {
    /// Same-frame relations with the flag "required sequential analysis".
    pub implications: Vec<(Implication, bool)>,
    /// Optional cross-frame relations (only filled when requested).
    pub cross_frame: Vec<CrossImplication>,
    /// Tied gates found by the same-value-under-both-polarities criterion.
    pub ties: Vec<TiedGate>,
    /// Support map feeding the multiple-node phase.
    pub support: SupportMap,
    /// Number of stems actually simulated.
    pub stems_processed: usize,
}

/// Simulates both polarities of one stem.
pub fn simulate_stem(sim: &InjectionSim<'_>, stem: NodeId, options: &SimOptions) -> (Trace, Trace) {
    let t0 = sim.run(&[Injection::new(stem, false, 0)], options);
    let t1 = sim.run(&[Injection::new(stem, true, 0)], options);
    (t0, t1)
}

/// How many stems fit into one packed forward pass (two polarities per stem,
/// 64 lanes per [`sla_sim::PackedWord`]).
pub const STEMS_PER_BATCH: usize = 32;

/// Simulates both polarities of up to [`STEMS_PER_BATCH`] stems in a single
/// packed forward pass: lane `2i` carries stem `i` injected at 0, lane
/// `2i + 1` at 1, and each lane's trace equals the matching trace of
/// [`simulate_stem`].
pub fn simulate_stem_batch_packed(
    sim: &InjectionSim<'_>,
    stems: &[NodeId],
    options: &SimOptions,
) -> PackedTraces {
    assert!(stems.len() <= STEMS_PER_BATCH);
    let injections: Vec<[Injection; 1]> = stems
        .iter()
        .flat_map(|&stem| {
            [
                [Injection::new(stem, false, 0)],
                [Injection::new(stem, true, 0)],
            ]
        })
        .collect();
    let jobs: Vec<&[Injection]> = injections.iter().map(|j| j.as_slice()).collect();
    sim.run_batch_packed(&jobs, options)
}

/// Marks frames whose `(trace0, trace1)` value pair exactly repeats an
/// earlier frame pair. A repeated pair derives exactly the relations and tie
/// candidates of its first occurrence, so extraction skips it — sequential
/// state oscillation otherwise re-derives the same facts dozens of times.
///
/// Skipping preserves the extracted set: a duplicate of frame 0 would only
/// re-derive frame-0 facts with the weaker "sequential" flag, which the
/// database ignores in favour of the combinational derivation anyway.
fn repeated_frame_pairs<T: TraceRead>(trace0: &T, trace1: &T, frames: usize) -> Vec<bool> {
    // O(frames × nodes) fingerprint prefilter; the exact frame comparison
    // only runs on fingerprint matches, so the all-pairs worst case is
    // reserved for traces that really do repeat.
    let fp: Vec<(u64, u64)> = (0..frames)
        .map(|t| (trace0.frame_fingerprint(t), trace1.frame_fingerprint(t)))
        .collect();
    (0..frames)
        .map(|t| {
            (0..t).any(|earlier| {
                fp[earlier] == fp[t]
                    && trace0.frames_equal(t, earlier)
                    && trace1.frames_equal(t, earlier)
            })
        })
        .collect()
}

/// Extracts tied gates from the two traces of a stem: a node holding the same
/// binary value at the same frame under both polarities can only ever hold
/// that value (combinational tie at frame 0, sequential tie otherwise).
pub fn extract_ties<T: TraceRead>(
    netlist: &Netlist,
    stem: NodeId,
    trace0: &T,
    trace1: &T,
) -> Vec<TiedGate> {
    let frames = trace0.num_frames().min(trace1.num_frames());
    let repeated = repeated_frame_pairs(trace0, trace1, frames);
    extract_ties_skipping(netlist, stem, trace0, trace1, &repeated)
}

/// [`extract_ties`] with a precomputed repeated-frame mask, so one mask can
/// serve both tie and relation extraction of a stem.
fn extract_ties_skipping<T: TraceRead>(
    netlist: &Netlist,
    stem: NodeId,
    trace0: &T,
    trace1: &T,
    repeated: &[bool],
) -> Vec<TiedGate> {
    let mut ties: Vec<TiedGate> = Vec::new();
    let frames = repeated.len();
    for t in (0..frames).filter(|&t| !repeated[t]) {
        for (node, value) in trace0.binary_assignments(t) {
            if node == stem || netlist.kind(node).is_input() {
                continue;
            }
            if trace1.value(t, node) == Logic3::from_bool(value) {
                let kind = tie_kind(t);
                if let Some(existing) = ties.iter_mut().find(|tg| tg.node == node) {
                    if kind == TieKind::Combinational {
                        existing.kind = TieKind::Combinational;
                    }
                } else {
                    ties.push(TiedGate::new(node, value, kind));
                }
            }
        }
    }
    ties
}

fn tie_kind(frame: usize) -> TieKind {
    if frame == 0 {
        TieKind::Combinational
    } else {
        TieKind::Sequential
    }
}

/// Per-node endpoint role, precomputed so the pair loops do one array load
/// per endpoint instead of node and mask lookups (the role is the compiled
/// form of [`keep_relation`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Primary input or masked-out sequential element: never an endpoint.
    Excluded,
    /// Combinational gate: kept when paired with a sequential element.
    Gate,
    /// Sequential element of the active class.
    Seq,
}

fn role(kind: NodeKind, class_mask: Option<&[bool]>, id: NodeId) -> Role {
    match kind {
        NodeKind::Input => Role::Excluded,
        NodeKind::Gate(_) => Role::Gate,
        NodeKind::Seq(_) => match class_mask {
            Some(mask) if !mask[id.index()] => Role::Excluded,
            _ => Role::Seq,
        },
    }
}

fn endpoint_roles(netlist: &Netlist, class_mask: Option<&[bool]>) -> Vec<Role> {
    (0u32..)
        .zip(netlist.kinds())
        .map(|(id, &kind)| role(kind, class_mask, NodeId(id)))
        .collect()
}

/// Pair-at-a-time duplicate filter: literal-code pair → flag byte (bit 0 =
/// emitted combinational, bit 1 = emitted sequential). It serves the scalar
/// reference and, above [`PairFilter::DENSE_NODE_LIMIT`] nodes, the
/// production pass.
#[derive(Debug, Default)]
struct PairSeen(FastHashMap<u64, u8>);

impl PairSeen {
    /// Returns `true` when the pair `ante → cons` (literal codes) must still
    /// be emitted: it is new, or it downgrades a sequential-only pair to
    /// combinational.
    #[inline]
    fn admit(&mut self, ante: u32, cons: u32, sequential: bool) -> bool {
        let flags = self
            .0
            .entry(u64::from(ante) << 32 | u64::from(cons))
            .or_insert(0);
        let wanted: u8 = if sequential { 0b11 } else { 0b01 };
        if *flags & wanted != 0 {
            return false;
        }
        *flags |= if sequential { 0b10 } else { 0b01 };
        true
    }
}

/// Exact-duplicate filter for the relation pair stream of one learning pass.
///
/// The pair loops re-derive the same `(antecedent, consequent)` pair across
/// frames and stems thousands of times; the filter drops a pair whose
/// insertion into [`crate::ImplicationDb`] would provably be a no-op, before
/// it is materialized. The database result is unchanged: a pair is suppressed
/// only when the same pair was already emitted with an equal-or-stronger flag
/// (a combinational re-derivation of a pair so far only seen sequentially is
/// still emitted — it downgrades the stored flag).
///
/// Every kept pair has a sequential endpoint of the active class, so the
/// pairs of one frame split into two families: any kept antecedent against a
/// sequential consequent, and a sequential antecedent against a gate
/// consequent. Up to [`PairFilter::DENSE_NODE_LIMIT`] nodes the filter keeps,
/// per antecedent literal, a bit row over the consequent literals of its
/// family, once for pairs emitted sequentially and once combinationally. A
/// frame's consequents then become one bit row too, and admitting an
/// antecedent is a row-wide and-not; the new bits, read in ascending order,
/// are the pairs to emit, in consequent node order. Larger netlists use a
/// sparse per-pair map.
#[derive(Debug)]
enum PairFilter {
    /// Bit rows, for netlists up to the dense bound.
    Rows(RowFilter),
    /// Sparse per-pair flags, with scratch lists of one frame's sequential
    /// and gate consequents.
    Sparse {
        seen: PairSeen,
        seq: Vec<u32>,
        gates: Vec<u32>,
    },
}

/// The dense form of [`PairFilter`].
#[derive(Debug)]
struct RowFilter {
    /// Per node: its position among the active sequential elements (a `Seq`
    /// endpoint) or among the gates (a `Gate` endpoint), in node order. A
    /// literal's column in a row is `2 × position + value`.
    column: Vec<u32>,
    /// Sequential endpoints by position.
    seq_nodes: Vec<NodeId>,
    /// Gate endpoints by position.
    gate_nodes: Vec<NodeId>,
    /// Words per row over the sequential literals.
    seq_words: usize,
    /// Words per row over the gate literals.
    gate_words: usize,
    /// Per antecedent literal code: the sequential consequents emitted so far
    /// with `seq = true` (`seq_words` words), then with `seq = false`.
    to_seq: Vec<u64>,
    /// Per sequential antecedent column: the gate consequents emitted so far,
    /// laid out like `to_seq`.
    to_gate: Vec<u64>,
    /// The sequential consequents of the frame being paired.
    seq_row: Vec<u64>,
    /// The gate consequents of the frame being paired.
    gate_row: Vec<u64>,
}

/// Admits the consequent bits `cons` at word `w` of one antecedent's row pair
/// (`seen` = sequential row then combinational row, `words` each) and
/// returns the bits to emit.
#[inline]
fn admit_word(seen: &mut [u64], words: usize, w: usize, cons: u64, sequential: bool) -> u64 {
    let (seq, comb) = seen.split_at_mut(words);
    if sequential {
        let new = cons & !(seq[w] | comb[w]);
        seq[w] |= new;
        new
    } else {
        let new = cons & !comb[w];
        comb[w] |= new;
        new
    }
}

/// Emits `antecedent → c` for every set bit of `bits`, with `c` the literal
/// of column `64 × w + bit` of a row over `nodes`, in ascending column order.
#[inline]
fn emit_row(
    antecedent: Literal,
    mut bits: u64,
    w: usize,
    nodes: &[NodeId],
) -> impl Iterator<Item = Implication> + '_ {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let col = 64 * w + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Implication::new(antecedent, Literal::new(nodes[col / 2], col % 2 == 1))
        })
    })
}

impl RowFilter {
    fn new(roles: &[Role]) -> RowFilter {
        let mut column = vec![0u32; roles.len()];
        let mut seq_nodes = Vec::new();
        let mut gate_nodes = Vec::new();
        for (id, (&role, col)) in (0u32..).zip(roles.iter().zip(&mut column)) {
            let nodes = match role {
                Role::Excluded => continue,
                Role::Seq => &mut seq_nodes,
                Role::Gate => &mut gate_nodes,
            };
            *col = u32::try_from(nodes.len()).expect("node ids fit in u32");
            nodes.push(NodeId(id));
        }
        let seq_words = (2 * seq_nodes.len()).div_ceil(64);
        let gate_words = (2 * gate_nodes.len()).div_ceil(64);
        RowFilter {
            to_seq: vec![0; 2 * roles.len() * 2 * seq_words],
            to_gate: vec![0; 2 * seq_nodes.len() * 2 * gate_words],
            seq_row: vec![0; seq_words],
            gate_row: vec![0; gate_words],
            column,
            seq_nodes,
            gate_nodes,
            seq_words,
            gate_words,
        }
    }

    /// Pairs one frame of the stem-0 trace (`list0`) with the same frame of
    /// the stem-1 trace (`list1`) and emits every admitted pair.
    fn relate(
        &mut self,
        roles: &[Role],
        list0: &[u32],
        list1: &[u32],
        sequential: bool,
        out: &mut Vec<(Implication, bool)>,
    ) {
        for &c in list1 {
            let node = (c >> 1) as usize;
            let col = 2 * self.column[node] as usize + (c & 1) as usize;
            match roles[node] {
                Role::Seq => self.seq_row[col / 64] |= 1 << (col % 64),
                Role::Gate => self.gate_row[col / 64] |= 1 << (col % 64),
                Role::Excluded => {}
            }
        }
        // trace0 carries s=0, trace1 carries s=1:
        //   g1 = !v1  =>  s = 1  =>  g2 = v2.
        let ws = self.seq_words;
        for &c in list0 {
            let node = (c >> 1) as usize;
            let role = roles[node];
            if role == Role::Excluded {
                continue;
            }
            let ante = c ^ 1;
            let (g1, v1) = decode(ante);
            let row_at = ante as usize * 2 * ws;
            let row = &mut self.to_seq[row_at..row_at + 2 * ws];
            // A relation needs two distinct nodes: mask g1's own columns.
            let own = (role == Role::Seq).then(|| 2 * self.column[node] as usize);
            for (w, &word) in self.seq_row.iter().enumerate() {
                let mut cons = word;
                if let Some(own) = own.filter(|own| own / 64 == w) {
                    cons &= !(0b11 << (own % 64));
                }
                if cons != 0 {
                    let new = admit_word(row, ws, w, cons, sequential);
                    let pairs = emit_row(Literal::new(g1, v1), new, w, &self.seq_nodes);
                    out.extend(pairs.map(|imp| (imp, sequential)));
                }
            }
        }
        let wg = self.gate_words;
        for &c in list0 {
            let node = (c >> 1) as usize;
            if roles[node] != Role::Seq {
                continue;
            }
            let (g1, v1) = decode(c ^ 1);
            let row_at = (2 * self.column[node] as usize + usize::from(v1)) * 2 * wg;
            let row = &mut self.to_gate[row_at..row_at + 2 * wg];
            for (w, &cons) in self.gate_row.iter().enumerate() {
                if cons != 0 {
                    let new = admit_word(row, wg, w, cons, sequential);
                    let pairs = emit_row(Literal::new(g1, v1), new, w, &self.gate_nodes);
                    out.extend(pairs.map(|imp| (imp, sequential)));
                }
            }
        }
        self.seq_row.fill(0);
        self.gate_row.fill(0);
    }
}

impl PairFilter {
    /// Dense up to this many nodes, sparse beyond.
    const DENSE_NODE_LIMIT: usize = 4096;

    fn new(roles: &[Role]) -> PairFilter {
        if roles.len() <= PairFilter::DENSE_NODE_LIMIT {
            PairFilter::Rows(RowFilter::new(roles))
        } else {
            PairFilter::Sparse {
                seen: PairSeen::default(),
                seq: Vec::new(),
                gates: Vec::new(),
            }
        }
    }

    /// Pairs one frame of a stem's two polarity lists (literal codes in node
    /// order) and emits every admitted pair: first each kept antecedent
    /// against the sequential consequents, then each sequential antecedent
    /// against the gate consequents, both in node order.
    fn relate(
        &mut self,
        roles: &[Role],
        list0: &[u32],
        list1: &[u32],
        sequential: bool,
        out: &mut Vec<(Implication, bool)>,
    ) {
        let (seen, seq, gates) = match self {
            PairFilter::Rows(rows) => return rows.relate(roles, list0, list1, sequential, out),
            PairFilter::Sparse { seen, seq, gates } => (seen, seq, gates),
        };
        seq.clear();
        gates.clear();
        for &c in list1 {
            match roles[(c >> 1) as usize] {
                Role::Seq => seq.push(c),
                Role::Gate => gates.push(c),
                Role::Excluded => {}
            }
        }
        for &c0 in list0 {
            let role = roles[(c0 >> 1) as usize];
            if role == Role::Excluded {
                continue;
            }
            for &c1 in seq.iter() {
                if c1 >> 1 != c0 >> 1 && seen.admit(c0 ^ 1, c1, sequential) {
                    out.push((literal_pair(c0 ^ 1, c1), sequential));
                }
            }
        }
        for &c0 in list0 {
            if roles[(c0 >> 1) as usize] != Role::Seq {
                continue;
            }
            for &c1 in gates.iter() {
                if seen.admit(c0 ^ 1, c1, sequential) {
                    out.push((literal_pair(c0 ^ 1, c1), sequential));
                }
            }
        }
    }
}

/// The implication between two literal codes.
fn literal_pair(ante: u32, cons: u32) -> Implication {
    let (g1, v1) = decode(ante);
    let (g2, v2) = decode(cons);
    Implication::new(Literal::new(g1, v1), Literal::new(g2, v2))
}

/// Extracts same-frame relations by pairing the assignments of the two traces
/// at equal frames (contrapositive law), restricted by `keep_relation`.
pub fn extract_relations<T: TraceRead>(
    netlist: &Netlist,
    _stem: NodeId,
    trace0: &T,
    trace1: &T,
    class_mask: Option<&[bool]>,
) -> Vec<(Implication, bool)> {
    let mut out = Vec::new();
    let roles = endpoint_roles(netlist, class_mask);
    let frames = trace0.num_frames().min(trace1.num_frames());
    let repeated = repeated_frame_pairs(trace0, trace1, frames);
    extract_relations_into(
        trace0,
        trace1,
        &repeated,
        &roles,
        &mut PairSeen::default(),
        &mut out,
    );
    out
}

/// [`extract_relations`] with caller-owned per-pass state: the duplicate
/// filter and endpoint roles span every stem of a learning pass, and the
/// repeated-frame mask is shared with tie extraction.
fn extract_relations_into<T: TraceRead>(
    trace0: &T,
    trace1: &T,
    repeated: &[bool],
    roles: &[Role],
    filter: &mut PairSeen,
    out: &mut Vec<(Implication, bool)>,
) {
    let frames = repeated.len();
    for t in (0..frames).filter(|&t| !repeated[t]) {
        // Keep the pair loop tractable: a relation must involve at least one
        // sequential element, so pair "sequential assignments of one trace"
        // against "all kept assignments of the other". The roles make every
        // pairing below pass `keep_relation` by construction.
        let kept0: Vec<(NodeId, bool)> = trace0
            .binary_assignments(t)
            .filter(|(n, _)| roles[n.index()] != Role::Excluded)
            .collect();
        let kept1: Vec<(NodeId, bool)> = trace1
            .binary_assignments(t)
            .filter(|(n, _)| roles[n.index()] != Role::Excluded)
            .collect();
        let sequential = t > 0;
        // trace0 carries s=0, trace1 carries s=1:
        //   g1 = !v1  =>  s = 1  =>  g2 = v2.
        for &(g1, v1) in &kept0 {
            for &(g2, v2) in kept1.iter().filter(|(n, _)| roles[n.index()] == Role::Seq) {
                if g1 != g2 && filter.admit(code(g1, !v1), code(g2, v2), sequential) {
                    out.push((
                        Implication::new(Literal::new(g1, !v1), Literal::new(g2, v2)),
                        sequential,
                    ));
                }
            }
        }
        for &(g1, v1) in kept0.iter().filter(|(n, _)| roles[n.index()] == Role::Seq) {
            for &(g2, v2) in kept1.iter().filter(|(n, _)| roles[n.index()] == Role::Gate) {
                if filter.admit(code(g1, !v1), code(g2, v2), sequential) {
                    out.push((
                        Implication::new(Literal::new(g1, !v1), Literal::new(g2, v2)),
                        sequential,
                    ));
                }
            }
        }
    }
}

/// Extracts cross-frame relations directly from one trace: `stem=value @ 0`
/// implies every recorded assignment at its frame, so the contrapositive links
/// the assignment back to the stem across `frame` time frames.
pub fn extract_cross_frame<T: TraceRead>(
    netlist: &Netlist,
    stem: NodeId,
    value: bool,
    trace: &T,
) -> Vec<CrossImplication> {
    let mut out = Vec::new();
    for t in 1..trace.num_frames() {
        for (node, v) in trace.binary_assignments(t) {
            if node == stem || netlist.kind(node).is_input() {
                continue;
            }
            out.push(cross_relation(stem, value, node, v, t));
        }
    }
    out
}

/// `node = v @ frame` under `stem = value @ 0`, read backwards: `node = !v`
/// implies `stem = !value` `frame` frames earlier.
fn cross_relation(
    stem: NodeId,
    value: bool,
    node: NodeId,
    v: bool,
    frame: usize,
) -> CrossImplication {
    CrossImplication {
        antecedent: Literal::new(node, !v),
        consequent: Literal::new(stem, !value),
        offset: -i32::try_from(frame).expect("frame counts fit in i32"),
    }
}

/// Logs the assignments of one stem trace as support entries.
pub fn accumulate_support<T: TraceRead>(
    netlist: &Netlist,
    stem: NodeId,
    value: bool,
    trace: &T,
    support: &mut SupportLog,
) {
    for t in 0..trace.num_frames() {
        for (node, v) in trace.binary_assignments(t) {
            if node == stem || netlist.kind(node).is_input() {
                continue;
            }
            support.push((node, v), (stem, value, t));
        }
    }
}

/// Runs single-node learning over `stems` using an already configured
/// simulator (equivalences, tied constants and the active clock class are
/// taken from the simulator state).
///
/// This is the scalar reference path — one forward simulation per stem
/// polarity, read node by node. The learning engine uses [`run_batched`],
/// which produces the same outcome from packed 64-lane passes; property
/// tests assert the equality.
pub fn run(
    sim: &InjectionSim<'_>,
    stems: &[NodeId],
    options: &SimOptions,
    class_mask: Option<&[bool]>,
    learn_cross_frame: bool,
) -> SingleNodeOutcome {
    let netlist = sim.netlist();
    let mut outcome = SingleNodeOutcome::default();
    let mut filter = PairSeen::default();
    let roles = endpoint_roles(netlist, class_mask);
    let mut support = SupportLog::default();
    for &stem in stems {
        let (t0, t1) = simulate_stem(sim, stem, options);
        let frames = t0.num_frames().min(t1.num_frames());
        let repeated = repeated_frame_pairs(&t0, &t1, frames);
        outcome
            .ties
            .extend(extract_ties_skipping(netlist, stem, &t0, &t1, &repeated));
        extract_relations_into(
            &t0,
            &t1,
            &repeated,
            &roles,
            &mut filter,
            &mut outcome.implications,
        );
        if learn_cross_frame {
            outcome
                .cross_frame
                .extend(extract_cross_frame(netlist, stem, false, &t0));
            outcome
                .cross_frame
                .extend(extract_cross_frame(netlist, stem, true, &t1));
        }
        accumulate_support(netlist, stem, false, &t0, &mut support);
        accumulate_support(netlist, stem, true, &t1, &mut support);
        outcome.stems_processed += 1;
    }
    outcome.support = support.finish();
    outcome
}

/// Runs single-node learning over `stems`, [`STEMS_PER_BATCH`] stems (both
/// polarities each) per packed forward pass: the learning engine's path.
///
/// Each pass is read once, node-major, into per-lane lists of literal codes,
/// which are then harvested stem by stem into the pass's one pair filter and
/// one support log. The outcome equals [`run`]'s.
pub fn run_batched(
    sim: &InjectionSim<'_>,
    stems: &[NodeId],
    options: &SimOptions,
    class_mask: Option<&[bool]>,
    learn_cross_frame: bool,
) -> SingleNodeOutcome {
    let netlist = sim.netlist();
    let roles = endpoint_roles(netlist, class_mask);
    let mut filter = PairFilter::new(&roles);
    let mut stamps = TieStamps::new(netlist.num_nodes());
    let mut outcome = SingleNodeOutcome::default();
    let mut support = SupportLog::default();
    for chunk in stems.chunks(STEMS_PER_BATCH) {
        // The traces are dropped once listed, so the harvest below (and the
        // tie stamps it may allocate) never adds to the simulation's peak.
        let mut listed =
            ListedChunk::new(netlist, &simulate_stem_batch_packed(sim, chunk, options));
        for (k, &stem) in chunk.iter().enumerate() {
            listed.stem_ties(k, stem, &mut stamps, &mut outcome.ties);
            if learn_cross_frame {
                listed.stem_cross_frame(k, stem, &mut outcome.cross_frame);
            }
            for t in listed.paired_frames(k) {
                filter.relate(
                    &roles,
                    listed.list(2 * k, t),
                    listed.list(2 * k + 1, t),
                    t > 0,
                    &mut outcome.implications,
                );
            }
            listed.log_support(k, stem, &mut support);
            outcome.stems_processed += 1;
        }
    }
    outcome.support = support.finish();
    outcome
}

/// Per-node stamps deduplicating the ties of one stem without a search. One
/// pass stamps each stem once, and there are fewer stems than node ids, so
/// the counter cannot wrap. The array is allocated at the first tie
/// candidate, when that chunk's traces are already freed, so it never adds
/// to the pass's peak, and a pass without ties never holds it.
#[derive(Debug)]
struct TieStamps {
    stamp: Vec<u32>,
    num_nodes: usize,
    current: u32,
}

impl TieStamps {
    fn new(num_nodes: usize) -> TieStamps {
        TieStamps {
            stamp: Vec::new(),
            num_nodes,
            current: 0,
        }
    }

    /// Starts the next stem.
    fn next_stem(&mut self) {
        self.current += 1;
    }

    /// `true` the first time `node` is seen for the current stem.
    fn first(&mut self, node: NodeId) -> bool {
        if self.stamp.is_empty() {
            self.stamp = vec![0; self.num_nodes];
        }
        let s = &mut self.stamp[node.index()];
        let fresh = *s != self.current;
        *s = self.current;
        fresh
    }
}

/// Appends the literal code of every binary, non-input lane in `lanes` of
/// one packed frame to that lane's list, in node order: the one read of the
/// frame's words.
fn list_frame(kinds: &[NodeKind], words: &[PackedWord], lanes: u64, lists: &mut [Vec<u32>]) {
    for ((node, word), kind) in (0u32..).zip(words).zip(kinds) {
        let known = word.known() & lanes;
        if known == 0 || kind.is_input() {
            continue;
        }
        for lane in lanes_of(known) {
            lists[lane].push(2 * node + u32::from(word.one >> lane & 1 == 1));
        }
    }
}

/// The set bits of a lane mask, ascending.
fn lanes_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// Lanes `2k` of a 64-lane word: one bit per stem of a chunk.
const EVEN_LANES: u64 = 0x5555_5555_5555_5555;

/// One simulated chunk, read node-major.
///
/// Lane `2k` carries stem `k` injected at 0 and lane `2k + 1` at 1.
#[derive(Debug)]
struct ListedChunk {
    /// Per lane: the literal codes of its binary, non-input assignments,
    /// frame by frame, in node order within a frame.
    codes: Vec<Vec<u32>>,
    /// Per lane: where each frame's run ends in `codes`; the length is the
    /// lane's frame count.
    ends: Vec<Vec<usize>>,
    /// Per frame: bit `2k` is set when stem `k`'s frame pair repeats an
    /// earlier frame pair of the stem.
    repeated: Vec<u64>,
}

impl ListedChunk {
    fn new(netlist: &Netlist, traces: &PackedTraces) -> ListedChunk {
        let kinds = netlist.kinds();
        let lanes = traces.lanes();
        let mut codes: Vec<Vec<u32>> = vec![Vec::new(); lanes];
        let mut ends: Vec<Vec<usize>> = vec![Vec::new(); lanes];
        for t in 0..traces.num_frames() {
            let (live, words) = traces.frame(t);
            list_frame(kinds, words, live, &mut codes);
            for lane in lanes_of(live) {
                ends[lane].push(codes[lane].len());
            }
        }
        ListedChunk {
            codes,
            ends,
            repeated: repeated_frames(netlist, traces),
        }
    }

    /// Number of frames of `lane`'s trace.
    fn frames(&self, lane: usize) -> usize {
        self.ends[lane].len()
    }

    /// The codes of `lane` at frame `t`.
    fn list(&self, lane: usize, t: usize) -> &[u32] {
        let start = if t == 0 { 0 } else { self.ends[lane][t - 1] };
        &self.codes[lane][start..self.ends[lane][t]]
    }

    /// Frames stem `k` pairs for ties and relations: those both its traces
    /// reach, less the repeated ones.
    fn paired_frames(&self, k: usize) -> impl Iterator<Item = usize> + '_ {
        let frames = self.frames(2 * k).min(self.frames(2 * k + 1));
        (0..frames).filter(move |&t| self.repeated[t] >> (2 * k) & 1 == 0)
    }

    /// Ties of stem `k`: a code both polarity lists hold at a frame is a node
    /// with the same value under both polarities. Both lists are sorted, so
    /// one merge finds them, in node order; the stamps keep the first
    /// (earliest-frame) proof of each node.
    fn stem_ties(&self, k: usize, stem: NodeId, stamps: &mut TieStamps, ties: &mut Vec<TiedGate>) {
        stamps.next_stem();
        for t in self.paired_frames(k) {
            let (l0, l1) = (self.list(2 * k, t), self.list(2 * k + 1, t));
            let (mut i, mut j) = (0, 0);
            while i < l0.len() && j < l1.len() {
                match l0[i].cmp(&l1[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let (node, value) = decode(l0[i]);
                        if node != stem && stamps.first(node) {
                            ties.push(TiedGate::new(node, value, tie_kind(t)));
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }

    /// Cross-frame relations of stem `k`, its stem-0 trace first.
    fn stem_cross_frame(&self, k: usize, stem: NodeId, out: &mut Vec<CrossImplication>) {
        for (lane, value) in [(2 * k, false), (2 * k + 1, true)] {
            for t in 1..self.frames(lane) {
                for &c in self.list(lane, t) {
                    let (node, v) = decode(c);
                    if node != stem {
                        out.push(cross_relation(stem, value, node, v, t));
                    }
                }
            }
        }
    }

    /// Hands stem `k`'s two lane lists to the support log, one run per
    /// frame; the chunk does not read them again.
    fn log_support(&mut self, k: usize, stem: NodeId, support: &mut SupportLog) {
        for (lane, value) in [(2 * k, false), (2 * k + 1, true)] {
            let codes = std::mem::take(&mut self.codes[lane]);
            support.push_lane(stem, value, codes, &self.ends[lane]);
        }
    }
}

/// Per frame of a packed stem chunk: bit `2k` set when stem `k`'s two traces
/// both repeat, at that frame, an earlier frame (the packed form of
/// [`repeated_frame_pairs`], for every stem of the chunk at once).
///
/// Each frame pair is compared word by word over all lanes, most recent
/// earlier frame first, until every stem has found its repeat or the frames
/// run out. Equal frames hold equal sequential elements, so those are
/// compared first and a pair that differs there skips the other nodes.
fn repeated_frames(netlist: &Netlist, traces: &PackedTraces) -> Vec<u64> {
    let frames = traces.num_frames();
    let mut repeated = vec![0u64; frames];
    for (t, rep) in repeated.iter_mut().enumerate().skip(1) {
        let (live, now) = traces.frame(t);
        let mut pending = live & live >> 1 & EVEN_LANES;
        for e in (0..t).rev() {
            if pending == 0 {
                break;
            }
            let (_, before) = traces.frame(e);
            let mut same = pending | pending << 1;
            for s in netlist.sequential_elements() {
                same &= now[s.index()].eq_lanes(before[s.index()]);
            }
            let pairs = same & same >> 1 & EVEN_LANES;
            if pairs == 0 {
                continue;
            }
            same = pairs | pairs << 1;
            for (a, b) in now.iter().zip(before) {
                same &= a.eq_lanes(*b);
                if same == 0 {
                    break;
                }
            }
            let hit = same & same >> 1 & EVEN_LANES;
            *rep |= hit;
            pending &= !hit;
        }
    }
    repeated
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_netlist::{GateType, NetlistBuilder};

    /// `z = AND(i1, NOT i1)` is combinationally tied to 0; the flip-flop pair
    /// (f1, f2) can never both be 1 because their data inputs are an AND with
    /// complementary first operands.
    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("single");
        b.input("i1");
        b.input("i2");
        b.gate("ni1", GateType::Not, &["i1"]).unwrap();
        b.gate("z", GateType::And, &["i1", "ni1"]).unwrap();
        b.gate("d1", GateType::And, &["i2", "nf2"]).unwrap();
        b.gate("d2", GateType::And, &["ni2", "nf1"]).unwrap();
        b.gate("ni2", GateType::Not, &["i2"]).unwrap();
        b.gate("nf1", GateType::Not, &["f1"]).unwrap();
        b.gate("nf2", GateType::Not, &["f2"]).unwrap();
        b.dff("f1", "d1").unwrap();
        b.dff("f2", "d2").unwrap();
        b.gate("o", GateType::Or, &["f1", "f2", "z"]).unwrap();
        b.output("o").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn combinational_tie_found_from_stem_polarities() {
        let n = sample();
        let sim = InjectionSim::new(&n).unwrap();
        let i1 = n.require("i1").unwrap();
        let z = n.require("z").unwrap();
        let (t0, t1) = simulate_stem(&sim, i1, &SimOptions::default());
        let ties = extract_ties(&n, i1, &t0, &t1);
        assert!(ties
            .iter()
            .any(|t| t.node == z && !t.value && t.kind == TieKind::Combinational));
    }

    #[test]
    fn invalid_state_relation_found_from_input_stem() {
        let n = sample();
        let sim = InjectionSim::new(&n).unwrap();
        let i2 = n.require("i2").unwrap();
        let f1 = n.require("f1").unwrap();
        let f2 = n.require("f2").unwrap();
        let (t0, t1) = simulate_stem(&sim, i2, &SimOptions::default());
        // i2=0 -> d1=0 -> f1=0 @1 ; i2=1 -> d2=0 -> f2=0 @1.
        assert_eq!(t0.value(1, f1), Logic3::Zero);
        assert_eq!(t1.value(1, f2), Logic3::Zero);
        let rels = extract_relations(&n, i2, &t0, &t1, None);
        let expected = Implication::new(Literal::new(f1, true), Literal::new(f2, false));
        assert!(
            rels.iter().any(|(imp, seq)| *imp == expected && *seq),
            "expected f1=1 -> f2=0 as a sequential relation, got {:?}",
            rels.iter().map(|(i, _)| i.describe(&n)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn relations_never_involve_primary_inputs_or_gate_gate_pairs() {
        let n = sample();
        let sim = InjectionSim::new(&n).unwrap();
        let options = SimOptions::default();
        let stems = sla_netlist::stems::fanout_stems(&n);
        let outcome = run(&sim, &stems, &options, None, false);
        for (imp, _) in &outcome.implications {
            let a = n.kind(imp.antecedent.node);
            let c = n.kind(imp.consequent.node);
            assert!(!a.is_input() && !c.is_input(), "{}", imp.describe(&n));
            assert!(
                a.is_sequential() || c.is_sequential(),
                "{}",
                imp.describe(&n)
            );
        }
    }

    #[test]
    fn support_map_records_stem_assignments() {
        let n = sample();
        let sim = InjectionSim::new(&n).unwrap();
        let i2 = n.require("i2").unwrap();
        let f1 = n.require("f1").unwrap();
        let (t0, _t1) = simulate_stem(&sim, i2, &SimOptions::default());
        let mut log = SupportLog::default();
        accumulate_support(&n, i2, false, &t0, &mut log);
        let support = log.finish();
        let entries = support
            .get(&(f1, false))
            .expect("f1=0 must be supported by i2=0");
        assert!(entries.clone().any(|e| e == (i2, false, 1)));
    }

    #[test]
    fn class_mask_filters_out_foreign_flip_flops() {
        let n = sample();
        let sim = InjectionSim::new(&n).unwrap();
        let i2 = n.require("i2").unwrap();
        let f1 = n.require("f1").unwrap();
        let (t0, t1) = simulate_stem(&sim, i2, &SimOptions::default());
        // Mask excludes f1: no kept relation may have f1 as an endpoint.
        let mut mask = vec![true; n.num_nodes()];
        mask[f1.index()] = false;
        let rels = extract_relations(&n, i2, &t0, &t1, Some(&mask));
        assert!(rels
            .iter()
            .all(|(imp, _)| imp.antecedent.node != f1 && imp.consequent.node != f1));
    }

    #[test]
    fn cross_frame_relations_point_back_to_the_stem() {
        let n = sample();
        let sim = InjectionSim::new(&n).unwrap();
        let i2 = n.require("i2").unwrap();
        let f1 = n.require("f1").unwrap();
        let (t0, _) = simulate_stem(&sim, i2, &SimOptions::default());
        let cross = extract_cross_frame(&n, i2, false, &t0);
        // f1=0 @1 came from i2=0 @0, so f1=1 implies i2=1 one frame earlier.
        assert!(cross.iter().any(|c| c.antecedent == Literal::new(f1, true)
            && c.consequent == Literal::new(i2, true)
            && c.offset == -1));
    }

    #[test]
    fn batched_run_matches_scalar_run() {
        let n = sample();
        let sim = InjectionSim::new(&n).unwrap();
        let stems = sla_netlist::stems::fanout_stems(&n);
        let options = SimOptions::default();
        let scalar = run(&sim, &stems, &options, None, true);
        let batched = run_batched(&sim, &stems, &options, None, true);
        assert_eq!(scalar.implications, batched.implications);
        assert_eq!(scalar.ties, batched.ties);
        assert_eq!(scalar.cross_frame, batched.cross_frame);
        assert_eq!(scalar.support, batched.support);
        assert_eq!(scalar.stems_processed, batched.stems_processed);
    }

    /// Enough independent motif copies to exceed several [`STEMS_PER_BATCH`]
    /// boundaries, so a pass reads several chunks.
    fn many_stems(copies: usize) -> Netlist {
        let mut b = NetlistBuilder::new("many");
        for i in 0..copies {
            let i1 = format!("i1_{i}");
            let i2 = format!("i2_{i}");
            b.input(&i1);
            b.input(&i2);
            b.gate(&format!("n1_{i}"), GateType::Not, &[&i1]).unwrap();
            b.gate(&format!("n2_{i}"), GateType::Not, &[&i2]).unwrap();
            b.gate(
                &format!("d1_{i}"),
                GateType::And,
                &[i2.as_str(), &format!("nf2_{i}")],
            )
            .unwrap();
            b.gate(
                &format!("d2_{i}"),
                GateType::And,
                &[&format!("n2_{i}"), &format!("nf1_{i}")],
            )
            .unwrap();
            b.gate(&format!("nf1_{i}"), GateType::Not, &[&format!("f1_{i}")])
                .unwrap();
            b.gate(&format!("nf2_{i}"), GateType::Not, &[&format!("f2_{i}")])
                .unwrap();
            b.dff(&format!("f1_{i}"), &format!("d1_{i}")).unwrap();
            b.dff(&format!("f2_{i}"), &format!("d2_{i}")).unwrap();
            b.gate(
                &format!("o_{i}"),
                GateType::Or,
                &[
                    format!("f1_{i}").as_str(),
                    format!("f2_{i}").as_str(),
                    format!("n1_{i}").as_str(),
                ],
            )
            .unwrap();
            b.output(&format!("o_{i}")).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn multi_chunk_run_matches_scalar_run() {
        let n = many_stems(40);
        let sim = InjectionSim::new(&n).unwrap();
        let stems = sla_netlist::stems::fanout_stems(&n);
        assert!(
            stems.len() > 3 * STEMS_PER_BATCH,
            "need several chunks, got {} stems",
            stems.len()
        );
        let options = SimOptions::default();
        // Mask out one flip-flop so the roles exclude a sequential element.
        let mut mask = vec![true; n.num_nodes()];
        mask[n.require("f1_3").unwrap().index()] = false;
        for class_mask in [None, Some(mask.as_slice())] {
            let reference = run(&sim, &stems, &options, class_mask, true);
            let batched = run_batched(&sim, &stems, &options, class_mask, true);
            assert_eq!(reference.implications, batched.implications);
            assert_eq!(reference.ties, batched.ties);
            assert_eq!(reference.cross_frame, batched.cross_frame);
            assert_eq!(reference.support, batched.support);
            assert_eq!(reference.stems_processed, batched.stems_processed);
        }
    }

    /// Above the dense bound the pair filter is the sparse per-pair map; it
    /// must emit exactly the scalar stream too.
    #[test]
    fn sparse_filter_matches_scalar_run() {
        let n = many_stems(400);
        assert!(n.num_nodes() > PairFilter::DENSE_NODE_LIMIT);
        let sim = InjectionSim::new(&n).unwrap();
        let stems = sla_netlist::stems::fanout_stems(&n);
        let stems = &stems[..2 * STEMS_PER_BATCH + 5];
        let options = SimOptions::default();
        let reference = run(&sim, stems, &options, None, true);
        let batched = run_batched(&sim, stems, &options, None, true);
        assert!(!reference.implications.is_empty());
        assert_eq!(reference.implications, batched.implications);
        assert_eq!(reference.ties, batched.ties);
        assert_eq!(reference.cross_frame, batched.cross_frame);
        assert_eq!(reference.support, batched.support);
    }

    /// A flip-flop defined first, so it is node 0, fed by the fanout stem `s`:
    /// its two values are the two smallest literal codes.
    fn flip_flop_first() -> Netlist {
        let mut b = NetlistBuilder::new("ff_first");
        b.dff("q", "s").unwrap();
        b.input("a");
        b.input("b");
        b.gate("s", GateType::And, &["a", "b"]).unwrap();
        b.gate("ns", GateType::Not, &["s"]).unwrap();
        b.gate("o", GateType::Or, &["q", "ns"]).unwrap();
        b.output("o").unwrap();
        b.build().unwrap()
    }

    /// The support of `stems` collected into a plain map from the scalar
    /// traces, sharing no code with [`SupportLog`].
    fn plain_support(
        sim: &InjectionSim<'_>,
        stems: &[NodeId],
        options: &SimOptions,
    ) -> Vec<(SupportKey, Vec<SupportEntry>)> {
        let n = sim.netlist();
        let mut map: std::collections::BTreeMap<SupportKey, Vec<SupportEntry>> =
            std::collections::BTreeMap::new();
        for &stem in stems {
            let (t0, t1) = simulate_stem(sim, stem, options);
            for (value, trace) in [(false, &t0), (true, &t1)] {
                for t in 0..trace.num_frames() {
                    for (node, v) in trace.binary_assignments(t) {
                        if node != stem && !n.kind(node).is_input() {
                            map.entry((node, v)).or_default().push((stem, value, t));
                        }
                    }
                }
            }
        }
        map.into_iter().collect()
    }

    #[test]
    fn support_matches_a_plain_map() {
        let options = SimOptions::default();
        for n in [flip_flop_first(), many_stems(40)] {
            let sim = InjectionSim::new(&n).unwrap();
            let stems = sla_netlist::stems::fanout_stems(&n);
            let expected = plain_support(&sim, &stems, &options);
            assert!(!expected.is_empty());
            for outcome in [
                run(&sim, &stems, &options, None, false),
                run_batched(&sim, &stems, &options, None, false),
            ] {
                let got: Vec<(SupportKey, Vec<SupportEntry>)> = outcome
                    .support
                    .iter()
                    .map(|(key, entries)| (key, entries.collect()))
                    .collect();
                assert_eq!(got, expected, "{}", n.name());
            }
        }
        let n = flip_flop_first();
        let (q, s) = (n.require("q").unwrap(), n.require("s").unwrap());
        assert_eq!(q, NodeId(0));
        let sim = InjectionSim::new(&n).unwrap();
        let support = run_batched(&sim, &[s], &options, None, false).support;
        let entries = |key| support.get(&key).map(|e| e.collect::<Vec<_>>());
        assert_eq!(entries((q, false)), Some(vec![(s, false, 1)]));
        assert_eq!(entries((q, true)), Some(vec![(s, true, 1)]));
    }

    /// Learning must not mix up the support of node 0's two values: `q`
    /// follows the free stem `s` one frame later and is tied to nothing.
    #[test]
    fn flip_flop_at_node_zero_is_not_tied() {
        let n = flip_flop_first();
        let q = n.require("q").unwrap();
        let learned = crate::SequentialLearner::new(&n, crate::LearnOptions::default())
            .learn()
            .unwrap();
        assert!(
            learned.tied.iter().all(|t| t.node != q),
            "false tie on node 0: {:?}",
            learned.tied
        );
    }

    #[test]
    fn support_log_keeps_entry_order_per_key() {
        let (a, b, top) = ((NodeId(3), true), (NodeId(1), false), (NodeId(4), false));
        // The two smallest codes, 0 and 1.
        let (zero0, zero1) = ((NodeId(0), false), (NodeId(0), true));
        let mut log = SupportLog::default();
        log.push(a, (NodeId(0), false, 1));
        log.push(zero1, (NodeId(5), true, 0));
        log.push(b, (NodeId(0), false, 1));
        log.push(zero0, (NodeId(5), false, 1));
        // The largest code (8), right above the largest logged before it.
        log.push(top, (NodeId(0), false, 1));
        log.push(a, (NodeId(2), false, 2));
        log.push(zero0, (NodeId(6), true, 2));
        log.push(a, (NodeId(1), true, 0));
        let support = log.finish();
        assert_eq!(support.len(), 5);
        let entries = |key| support.get(&key).map(|e| e.collect::<Vec<_>>());
        assert_eq!(
            entries(a),
            Some(vec![
                (NodeId(0), false, 1),
                (NodeId(2), false, 2),
                (NodeId(1), true, 0)
            ])
        );
        assert_eq!(entries(b), Some(vec![(NodeId(0), false, 1)]));
        assert_eq!(entries(top), Some(vec![(NodeId(0), false, 1)]));
        assert_eq!(
            entries(zero0),
            Some(vec![(NodeId(5), false, 1), (NodeId(6), true, 2)])
        );
        assert_eq!(entries(zero1), Some(vec![(NodeId(5), true, 0)]));
        assert_eq!(entries((NodeId(3), false)), None);
        assert_eq!(entries((NodeId(99), true)), None);
        let keys: Vec<SupportKey> = support.iter().map(|(key, _)| key).collect();
        assert_eq!(keys, vec![zero0, zero1, b, a, top]);
        // The order of entries within a key is part of the content.
        let mut swapped = SupportLog::default();
        swapped.push(zero0, (NodeId(5), false, 1));
        swapped.push(zero0, (NodeId(6), true, 2));
        swapped.push(zero1, (NodeId(5), true, 0));
        swapped.push(top, (NodeId(0), false, 1));
        swapped.push(b, (NodeId(0), false, 1));
        swapped.push(a, (NodeId(1), true, 0));
        swapped.push(a, (NodeId(0), false, 1));
        swapped.push(a, (NodeId(2), false, 2));
        assert_ne!(support, swapped.finish());
        assert!(SupportLog::default().finish().is_empty());
    }

    #[test]
    fn run_processes_every_stem() {
        let n = sample();
        let sim = InjectionSim::new(&n).unwrap();
        let stems = sla_netlist::stems::fanout_stems(&n);
        let outcome = run(&sim, &stems, &SimOptions::default(), None, true);
        assert_eq!(outcome.stems_processed, stems.len());
        assert!(!outcome.support.is_empty());
        assert!(!outcome.cross_frame.is_empty());
    }
}
