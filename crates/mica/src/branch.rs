//! Branch predictability analyzer (14 features): taken/transition rates
//! and misprediction rates of the theoretical prediction-by-partial-matching
//! (PPM) predictor, which keeps exact statistics for every context.
//!
//! A context of length `len + 1` extends the context of length `len` by
//! history bit `len` (the outcome `len + 1` branches back), so the 13
//! contexts a branch probes (lengths 0 to 12) are one root-to-leaf path
//! of a binary trie. One walk down that path serves both the probe and
//! the update. Global-table predictors store their whole trie implicitly
//! in a flat array; per-address predictors grow one trie per static
//! branch in a node arena.

use std::collections::hash_map;

use phaselab_trace::InstRecord;

use crate::features::{FeatureVector, BRANCH_BASE};
use crate::fxhash::FxHashMap;
use crate::Analyzer;

/// Deepest context length tracked by the PPM predictors.
const MAX_HIST: u32 = 12;

/// The three maximum history lengths of the characterization.
const DEPTHS: [u32; 3] = [4, 8, 12];

/// Not-taken and taken counts of one context, indexed by outcome. A
/// context with zero counts has never been seen.
type Counts = [u32; 2];

/// Predicts from one context on the walk down a trie, then learns the
/// outcome there.
///
/// Contexts arrive in ascending length, and each seen context
/// overwrites the prediction of every depth at or above its length, so
/// each depth ends with its longest seen context: the PPM rule. A depth
/// with no seen context keeps its initial not-taken prediction.
#[inline]
fn visit(predictions: &mut [bool; 3], len: u32, counts: &mut Counts, taken: bool) {
    if *counts != [0, 0] {
        let predicted = counts[1] >= counts[0];
        for (pred, &depth) in predictions.iter_mut().zip(&DEPTHS) {
            if len <= depth {
                *pred = predicted;
            }
        }
    }
    let c = &mut counts[usize::from(taken)];
    *c = c.saturating_add(1);
}

/// The context trie of a global-table predictor (GAg, PAg), stored
/// implicitly: the context of length `len` over history `h` lives at
/// slot `(1 << len) | (h & mask(len))`. All 2^13 - 1 contexts of lengths
/// 0 to 12 fit in 64 KB, and the 13 slots of a walk are independent
/// loads.
#[derive(Debug, Clone)]
struct ContextTable {
    counts: Vec<Counts>,
}

impl ContextTable {
    fn new() -> Self {
        ContextTable {
            counts: vec![[0; 2]; 1 << (MAX_HIST + 1)],
        }
    }

    /// Returns the per-depth predictions for `hist` and learns `taken`.
    #[inline]
    fn observe(&mut self, hist: u64, taken: bool) -> [bool; 3] {
        let mut predictions = [false; 3];
        for len in 0..=MAX_HIST {
            let mask = (1u64 << len) - 1;
            let slot = (1 << len) | (hist & mask) as usize;
            visit(&mut predictions, len, &mut self.counts[slot], taken);
        }
        predictions
    }

    fn reset(&mut self) {
        self.counts.fill([0; 2]);
    }
}

/// One context of a per-address trie.
#[derive(Debug, Clone, Copy, Default)]
struct Node {
    counts: Counts,
    /// Children by the next history bit; 0 means absent (index 0 is
    /// always a root, and a root is nobody's child).
    child: [u32; 2],
}

/// The context tries of a per-address predictor (GAp, PAp): one arena
/// of nodes, holding one trie per static branch. Each branch's root
/// index lives in its per-PC state.
#[derive(Debug, Clone, Default)]
struct ContextArena {
    nodes: Vec<Node>,
}

impl ContextArena {
    /// Appends an unseen context, such as the root (length-0 context) of
    /// a new branch's trie, and returns its index.
    fn push(&mut self) -> u32 {
        let index = u32::try_from(self.nodes.len()).expect("PPM trie exceeds 2^32 nodes");
        self.nodes.push(Node::default());
        index
    }

    /// Walks the trie under `root` along `hist`, creating absent
    /// contexts, and returns the per-depth predictions after learning
    /// `taken` at every context of the path.
    #[inline]
    fn observe(&mut self, root: u32, hist: u64, taken: bool) -> [bool; 3] {
        let mut predictions = [false; 3];
        let mut node = root as usize;
        for len in 0..=MAX_HIST {
            visit(&mut predictions, len, &mut self.nodes[node].counts, taken);
            if len == MAX_HIST {
                break;
            }
            let bit = ((hist >> len) & 1) as usize;
            let next = self.nodes[node].child[bit];
            if next == 0 {
                // Every longer context is new too: append the rest of
                // the path as one chain, already learned.
                self.grow(node, len, hist, taken);
                break;
            }
            node = next as usize;
        }
        predictions
    }

    /// Appends the contexts of lengths `from + 1` to 12 on the path
    /// below `node`, each having seen `taken` once. Kept out of line:
    /// once an interval warms up, most walks find their whole path.
    #[cold]
    fn grow(&mut self, mut node: usize, from: u32, hist: u64, taken: bool) {
        for len in from..MAX_HIST {
            let next = self.push();
            self.nodes[node].child[((hist >> len) & 1) as usize] = next;
            node = next as usize;
            self.nodes[node].counts[usize::from(taken)] = 1;
        }
    }

    fn reset(&mut self) {
        self.nodes.clear();
    }
}

/// What the analyzer keeps per static branch.
#[derive(Debug, Clone, Copy)]
struct PcState {
    last: bool,
    local_hist: u64,
    /// Trie roots in the GAp and PAp arenas.
    roots: [u32; 2],
}

/// Computes the 14 branch-predictability characteristics of Table 1:
/// average transition rate, average taken rate, and misprediction rates of
/// the theoretical PPM predictor for global/local history, global and
/// per-address tables, and maximum history lengths 4, 8 and 12.
///
/// The predictor is exact: every context keeps its own taken and
/// not-taken counts for the whole interval, with nothing evicted or
/// aliased.
///
/// Only conditional branches participate; unconditional transfers are
/// perfectly predictable and excluded, as in MICA.
#[derive(Debug, Clone)]
pub struct BranchAnalyzer {
    branches: u64,
    taken: u64,
    transitions: u64,
    with_history: u64,
    per_pc: FxHashMap<u64, PcState>,
    global_hist: u64,
    /// Global history, global table.
    gag: ContextTable,
    /// Global history, per-address tables.
    gap: ContextArena,
    /// Local history, global table.
    pag: ContextTable,
    /// Local history, per-address tables.
    pap: ContextArena,
    /// Misses per predictor (GAg, GAp, PAg, PAp) and depth (4, 8, 12).
    misses: [[u64; 3]; 4],
}

impl BranchAnalyzer {
    /// Creates an analyzer with cold predictor state.
    pub fn new() -> Self {
        BranchAnalyzer {
            branches: 0,
            taken: 0,
            transitions: 0,
            with_history: 0,
            per_pc: FxHashMap::default(),
            global_hist: 0,
            gag: ContextTable::new(),
            gap: ContextArena::default(),
            pag: ContextTable::new(),
            pap: ContextArena::default(),
            misses: [[0; 3]; 4],
        }
    }
}

impl Default for BranchAnalyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl BranchAnalyzer {
    /// Observes one branch outcome directly — the block-path equivalent
    /// of [`Analyzer::observe`], fed from the block-exit
    /// [`BranchInfo`](phaselab_trace::BranchInfo) without materializing a
    /// record. Unconditional transfers are excluded, exactly as in the
    /// per-record path.
    #[inline]
    pub fn observe_branch(&mut self, pc: u64, branch: phaselab_trace::BranchInfo) {
        if !branch.conditional {
            return;
        }
        let taken = branch.taken;
        self.branches += 1;
        self.taken += taken as u64;

        let state = match self.per_pc.entry(pc) {
            hash_map::Entry::Occupied(e) => {
                let state = e.into_mut();
                self.with_history += 1;
                if state.last != taken {
                    self.transitions += 1;
                }
                state
            }
            hash_map::Entry::Vacant(e) => e.insert(PcState {
                last: taken,
                local_hist: 0,
                roots: [self.gap.push(), self.pap.push()],
            }),
        };
        state.last = taken;
        let local = state.local_hist;
        state.local_hist = ((local << 1) | taken as u64) & ((1 << MAX_HIST) - 1);
        let roots = state.roots;
        let global = self.global_hist;
        self.global_hist = ((global << 1) | taken as u64) & ((1 << MAX_HIST) - 1);

        let predictions = [
            self.gag.observe(global, taken),
            self.gap.observe(roots[0], global, taken),
            self.pag.observe(local, taken),
            self.pap.observe(roots[1], local, taken),
        ];
        for (misses, predicted) in self.misses.iter_mut().zip(predictions) {
            for (miss, p) in misses.iter_mut().zip(predicted) {
                *miss += u64::from(p != taken);
            }
        }
    }
}

impl Analyzer for BranchAnalyzer {
    #[inline]
    fn observe(&mut self, rec: &InstRecord, _index: u64) {
        let Some(branch) = rec.branch else { return };
        self.observe_branch(rec.pc, branch);
    }

    fn emit(&self, out: &mut FeatureVector) {
        out[BRANCH_BASE] = self.transitions as f64 / self.with_history.max(1) as f64;
        out[BRANCH_BASE + 1] = self.taken as f64 / self.branches.max(1) as f64;
        let denom = self.branches.max(1) as f64;
        for (pi, misses) in self.misses.iter().enumerate() {
            for (di, &m) in misses.iter().enumerate() {
                out[BRANCH_BASE + 2 + pi * 3 + di] = m as f64 / denom;
            }
        }
    }

    fn reset(&mut self) {
        self.branches = 0;
        self.taken = 0;
        self.transitions = 0;
        self.with_history = 0;
        self.per_pc.clear();
        self.global_hist = 0;
        self.gag.reset();
        self.gap.reset();
        self.pag.reset();
        self.pap.reset();
        self.misses = [[0; 3]; 4];
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops over feature slots read clearest
mod tests {
    use super::*;
    use crate::fxhash::mix64;
    use phaselab_trace::{BranchInfo, InstClass};

    fn branch(pc: u64, taken: bool) -> InstRecord {
        InstRecord::new(pc, InstClass::CondBranch).with_branch(BranchInfo {
            taken,
            target: 0,
            conditional: true,
        })
    }

    fn emit(a: &BranchAnalyzer) -> Vec<f64> {
        let mut out = FeatureVector::zeros();
        a.emit(&mut out);
        (0..14).map(|i| out[BRANCH_BASE + i]).collect()
    }

    #[test]
    fn taken_and_transition_rates() {
        let mut a = BranchAnalyzer::new();
        // T, T, N, T at one static branch: taken rate 3/4, transitions 2/3.
        for t in [true, true, false, true] {
            a.observe(&branch(0x40, t), 0);
        }
        let f = emit(&a);
        assert!((f[1] - 0.75).abs() < 1e-12);
        assert!((f[0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn always_taken_branch_is_nearly_perfectly_predicted() {
        let mut a = BranchAnalyzer::new();
        for i in 0..1000u64 {
            a.observe(&branch(0x40, true), i);
        }
        let f = emit(&a);
        for i in 2..14 {
            assert!(f[i] < 0.02, "PPM miss rate {i}: {}", f[i]);
        }
        assert_eq!(f[0], 0.0); // no transitions
    }

    #[test]
    fn alternating_branch_is_learned_by_ppm() {
        // T,N,T,N… is perfectly predictable from 1 bit of history once
        // warmed up.
        let mut a = BranchAnalyzer::new();
        for i in 0..2000u64 {
            a.observe(&branch(0x40, i % 2 == 0), i);
        }
        let f = emit(&a);
        assert!((f[0] - 1.0).abs() < 1e-3, "transition rate {}", f[0]);
        for i in 2..14 {
            assert!(f[i] < 0.05, "PPM should learn alternation, miss {}", f[i]);
        }
    }

    #[test]
    fn periodic_pattern_needs_enough_history() {
        // Period-10 pattern with one taken per period: 9 not-taken then 1
        // taken. Hist-4 cannot distinguish position inside the run of
        // not-takens; hist-12 can.
        let mut a = BranchAnalyzer::new();
        for i in 0..20_000u64 {
            a.observe(&branch(0x40, i % 10 == 9), i);
        }
        let f = emit(&a);
        let gag4 = f[2];
        let gag12 = f[4];
        assert!(
            gag12 < gag4 * 0.5 + 1e-9,
            "longer history should help: h4={gag4} h12={gag12}"
        );
        assert!(gag12 < 0.02);
    }

    #[test]
    fn random_branches_are_unpredictable() {
        // A pseudo-random direction stream: every predictor should miss
        // roughly half the time.
        let mut a = BranchAnalyzer::new();
        let mut x = 0x12345678u64;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            a.observe(&branch(0x40, (x >> 40) & 1 == 1), i);
        }
        let f = emit(&a);
        for i in 2..14 {
            assert!(
                (f[i] - 0.5).abs() < 0.1,
                "random stream miss rate {i}: {}",
                f[i]
            );
        }
    }

    #[test]
    fn per_address_tables_separate_conflicting_branches() {
        // Two branches with opposite constant directions, interleaved. A
        // per-address table keyed on PC predicts both perfectly even at
        // history length 0 contexts; the analyzer must keep them separate.
        let mut a = BranchAnalyzer::new();
        for i in 0..4000u64 {
            a.observe(&branch(0x40, true), i);
            a.observe(&branch(0x80, false), i);
        }
        let f = emit(&a);
        // GAp (global history, per-address) should be near perfect.
        assert!(f[5] < 0.02, "GAp hist4 {}", f[5]);
        // PAp too.
        assert!(f[11] < 0.02, "PAp hist4 {}", f[11]);
    }

    #[test]
    fn unconditional_branches_ignored() {
        let mut a = BranchAnalyzer::new();
        let rec = InstRecord::new(0, InstClass::Jump).with_branch(BranchInfo {
            taken: true,
            target: 0,
            conditional: false,
        });
        a.observe(&rec, 0);
        let f = emit(&a);
        assert_eq!(f[1], 0.0);
    }

    #[test]
    fn reset_forgets_learned_patterns() {
        let mut a = BranchAnalyzer::new();
        for i in 0..1000u64 {
            a.observe(&branch(0x40, true), i);
        }
        a.reset();
        assert_eq!(emit(&a), vec![0.0; 14]);
        // After reset, the first branch is again mispredicted (cold).
        a.observe(&branch(0x40, true), 0);
        let f = emit(&a);
        assert!(f[2] > 0.99, "cold predictor should miss the first branch");
    }

    /// log2 of the number of entries in each hashed reference table.
    const TABLE_BITS: u32 = 16;

    /// The hashed storage the context tries replaced: one direct-mapped,
    /// tagged, generation-stamped table per predictor, with 64-bit tags,
    /// saturating 16-bit counters and replace-on-collision. It records
    /// whether it replaced a live entry in the current generation; until
    /// it does, every context it holds has exact counts, as in a trie.
    #[derive(Debug, Clone)]
    struct PpmTable {
        entries: Vec<Entry>,
        gen: u32,
        evicted: bool,
    }

    #[derive(Debug, Clone, Copy, Default)]
    struct Entry {
        tag: u64,
        gen: u32,
        taken: u16,
        not_taken: u16,
    }

    impl PpmTable {
        fn new() -> Self {
            PpmTable {
                entries: vec![Entry::default(); 1 << TABLE_BITS],
                gen: 1,
                evicted: false,
            }
        }

        fn slot(key: u64) -> usize {
            (key & ((1 << TABLE_BITS) - 1)) as usize
        }

        /// Returns `(taken, not_taken)` counts if the context has been seen.
        fn lookup(&self, key: u64) -> Option<(u16, u16)> {
            let e = &self.entries[Self::slot(key)];
            (e.gen == self.gen && e.tag == key).then_some((e.taken, e.not_taken))
        }

        fn update(&mut self, key: u64, taken: bool) {
            let gen = self.gen;
            let e = &mut self.entries[Self::slot(key)];
            if e.gen != gen || e.tag != key {
                self.evicted |= e.gen == gen;
                *e = Entry {
                    tag: key,
                    gen,
                    taken: 0,
                    not_taken: 0,
                };
            }
            if taken {
                e.taken = e.taken.saturating_add(1);
            } else {
                e.not_taken = e.not_taken.saturating_add(1);
            }
        }

        fn reset(&mut self) {
            self.gen += 1;
            self.evicted = false;
        }
    }

    /// Key for a PPM context: length, history bits, and (for per-address
    /// tables) the branch PC.
    fn context_key(len: u32, hist: u64, pc: u64) -> u64 {
        let masked = if len == 0 { 0 } else { hist & ((1 << len) - 1) };
        mix64(masked ^ ((len as u64) << 56) ^ pc.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// One hashed predictor organization, probed as the analyzer did
    /// before the tries: all 13 slots read in ascending length, then all
    /// 13 updated.
    struct HashedPredictor {
        local_history: bool,
        per_address: bool,
        table: PpmTable,
        misses: [u64; 3],
    }

    impl HashedPredictor {
        fn new(local_history: bool, per_address: bool) -> Self {
            HashedPredictor {
                local_history,
                per_address,
                table: PpmTable::new(),
                misses: [0; 3],
            }
        }

        fn observe(&mut self, pc: u64, hist: u64, taken: bool) {
            let pc_key = if self.per_address { pc } else { 0 };
            let keys: Vec<u64> = (0..=MAX_HIST)
                .map(|len| context_key(len, hist, pc_key))
                .collect();
            let mut predictions = [false; 3];
            for (len, &key) in (0..).zip(&keys) {
                if let Some((t, n)) = self.table.lookup(key) {
                    for (pred, &depth) in predictions.iter_mut().zip(&DEPTHS) {
                        if len <= depth {
                            *pred = t >= n;
                        }
                    }
                }
            }
            for (miss, predicted) in self.misses.iter_mut().zip(predictions) {
                *miss += u64::from(predicted != taken);
            }
            for key in keys {
                self.table.update(key, taken);
            }
        }
    }

    /// The PPM rule written as its definition, with no storage limit:
    /// every (PC key, length, history bits) context keeps its counts,
    /// and each depth searches from its own length down for the longest
    /// seen context.
    struct ExactPredictor {
        local_history: bool,
        per_address: bool,
        counts: FxHashMap<(u64, u32, u64), Counts>,
        misses: [u64; 3],
    }

    impl ExactPredictor {
        fn new(local_history: bool, per_address: bool) -> Self {
            ExactPredictor {
                local_history,
                per_address,
                counts: FxHashMap::default(),
                misses: [0; 3],
            }
        }

        fn observe(&mut self, pc: u64, hist: u64, taken: bool) {
            let pc_key = if self.per_address { pc } else { 0 };
            let context = |len: u32| (pc_key, len, hist & ((1 << len) - 1));
            for (miss, &depth) in self.misses.iter_mut().zip(&DEPTHS) {
                let predicted = (0..=depth)
                    .rev()
                    .find_map(|len| self.counts.get(&context(len)))
                    .is_some_and(|c| c[1] >= c[0]);
                *miss += u64::from(predicted != taken);
            }
            for len in 0..=MAX_HIST {
                self.counts.entry(context(len)).or_default()[usize::from(taken)] += 1;
            }
        }
    }

    /// The analyzer over hashed tables, as it was before the tries, and
    /// over [`ExactPredictor`]s, fed the same branches.
    struct Reference {
        branches: u64,
        taken: u64,
        transitions: u64,
        with_history: u64,
        per_pc: FxHashMap<u64, (bool, u64)>,
        global_hist: u64,
        /// Order: GAg, GAp, PAg, PAp.
        predictors: [HashedPredictor; 4],
        /// Same order.
        exact: [ExactPredictor; 4],
    }

    impl Reference {
        fn new() -> Self {
            Reference {
                branches: 0,
                taken: 0,
                transitions: 0,
                with_history: 0,
                per_pc: FxHashMap::default(),
                global_hist: 0,
                predictors: [
                    HashedPredictor::new(false, false),
                    HashedPredictor::new(false, true),
                    HashedPredictor::new(true, false),
                    HashedPredictor::new(true, true),
                ],
                exact: [
                    ExactPredictor::new(false, false),
                    ExactPredictor::new(false, true),
                    ExactPredictor::new(true, false),
                    ExactPredictor::new(true, true),
                ],
            }
        }

        fn observe(&mut self, rec: &InstRecord) {
            let Some(branch) = rec.branch.filter(|b| b.conditional) else {
                return;
            };
            let (pc, taken) = (rec.pc, branch.taken);
            self.branches += 1;
            self.taken += taken as u64;
            if let Some(&(last, _)) = self.per_pc.get(&pc) {
                self.with_history += 1;
                self.transitions += u64::from(last != taken);
            }
            let (last, local) = self.per_pc.entry(pc).or_insert((taken, 0));
            *last = taken;
            let local_before = *local;
            *local = ((*local << 1) | taken as u64) & ((1 << MAX_HIST) - 1);
            let global_before = self.global_hist;
            self.global_hist = ((self.global_hist << 1) | taken as u64) & ((1 << MAX_HIST) - 1);
            for p in &mut self.predictors {
                let hist = if p.local_history {
                    local_before
                } else {
                    global_before
                };
                p.observe(pc, hist, taken);
            }
            for p in &mut self.exact {
                let hist = if p.local_history {
                    local_before
                } else {
                    global_before
                };
                p.observe(pc, hist, taken);
            }
        }

        /// Whether any table replaced a live entry this interval.
        fn evicted(&self) -> bool {
            self.predictors.iter().any(|p| p.table.evicted)
        }

        /// The 14 features' bits, with the hashed predictors' misses.
        fn emit(&self) -> Vec<u64> {
            self.features(self.predictors.iter().map(|p| p.misses))
        }

        /// The 14 features' bits, with the exact predictors' misses.
        fn emit_exact(&self) -> Vec<u64> {
            self.features(self.exact.iter().map(|p| p.misses))
        }

        fn features(&self, misses: impl Iterator<Item = [u64; 3]>) -> Vec<u64> {
            let denom = self.branches.max(1) as f64;
            let mut out = vec![
                self.transitions as f64 / self.with_history.max(1) as f64,
                self.taken as f64 / denom,
            ];
            for m in misses {
                out.extend(m.iter().map(|&m| m as f64 / denom));
            }
            out.into_iter().map(f64::to_bits).collect()
        }

        fn reset(&mut self) {
            self.branches = 0;
            self.taken = 0;
            self.transitions = 0;
            self.with_history = 0;
            self.per_pc.clear();
            self.global_hist = 0;
            for p in &mut self.predictors {
                p.table.reset();
                p.misses = [0; 3];
            }
            for p in &mut self.exact {
                p.counts.clear();
                p.misses = [0; 3];
            }
        }
    }

    fn emit_bits(a: &BranchAnalyzer) -> Vec<u64> {
        emit(a).into_iter().map(f64::to_bits).collect()
    }

    /// A SplitMix64 step, for generated streams.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(*state)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        #[test]
        fn trie_matches_the_exact_and_hashed_references(
            seed in 0u64..u64::MAX,
            pcs in 1u64..40,
            interval in 1u64..1500,
            noise_bits in 1u32..16,
            round_robin in 0u8..2,
        ) {
            // Each static branch follows its own short period, with
            // random flips one time in 2^noise_bits; some records are
            // unconditional jumps. Round-robin PC order keeps global
            // histories periodic, so fewer contexts compete for slots.
            // After every branch the trie must emit the exact
            // reference's bits, and, up to the first eviction of each
            // interval, the hashed reference's too.
            let mut state = seed;
            let periods: Vec<u64> = (0..pcs).map(|_| 1 + next(&mut state) % 9).collect();
            let mut trie = BranchAnalyzer::new();
            let mut reference = Reference::new();
            let mut compared = 0;
            for i in 0..6000u64 {
                if i > 0 && i % interval == 0 {
                    trie.reset();
                    reference.reset();
                }
                let r = next(&mut state);
                let pc_index = if round_robin == 1 { i % pcs } else { r % pcs };
                let taken = if r >> (64 - noise_bits) == 0 {
                    (r >> 40) & 1 == 1
                } else {
                    i / pcs % periods[pc_index as usize] == 0
                };
                let rec = InstRecord::new(0x400 + 4 * pc_index, InstClass::CondBranch)
                    .with_branch(BranchInfo {
                        taken,
                        target: 0,
                        conditional: (r >> 32) & 15 != 0,
                    });
                trie.observe(&rec, i % interval);
                reference.observe(&rec);
                proptest::prop_assert_eq!(emit_bits(&trie), reference.emit_exact());
                if !reference.evicted() {
                    proptest::prop_assert_eq!(emit_bits(&trie), reference.emit());
                    compared += 1;
                }
            }
            proptest::prop_assert!(compared > 0);
        }
    }

    #[test]
    fn hashed_reference_reports_evictions_and_resets() {
        let mut t = PpmTable::new();
        t.update(42, true);
        assert_eq!(t.lookup(42), Some((1, 0)));
        assert!(!t.evicted);
        t.update(42 + (1 << TABLE_BITS), false);
        assert!(t.evicted, "a live entry in the same slot was replaced");
        assert_eq!(t.lookup(42), None);
        t.reset();
        assert!(!t.evicted);
        assert_eq!(t.lookup(42 + (1 << TABLE_BITS)), None);
        t.update(42, false);
        assert_eq!(t.lookup(42), Some((0, 1)));
        assert!(!t.evicted, "a stale entry is free, not evicted");
    }
}
