//! Branch predictability analyzer (14 features): taken/transition rates
//! and prediction-by-partial-matching (PPM) misprediction rates.

use std::collections::hash_map;

use phaselab_trace::InstRecord;

use crate::features::{FeatureVector, BRANCH_BASE};
use crate::fxhash::{mix64, FxHashMap};
use crate::Analyzer;

/// Deepest context length tracked by the PPM predictors.
const MAX_HIST: u32 = 12;

/// Context lengths per branch: every length from 0 to [`MAX_HIST`].
const CONTEXTS: usize = MAX_HIST as usize + 1;

/// The three maximum history lengths of the characterization.
const DEPTHS: [u32; 3] = [4, 8, 12];

/// log2 of the number of entries in each direct-mapped PPM table.
const TABLE_BITS: u32 = 16;

/// One direct-mapped, tagged, generation-stamped PPM context table.
///
/// The theoretical PPM predictor of Chen, Coffey & Mudge keeps exact
/// per-context statistics; we approximate its storage with a large
/// direct-mapped tagged table (64-bit tags, replace-on-collision), which
/// keeps per-branch cost constant. Collisions are rare at 2^16 entries for
/// interval-sized working sets, so measured misprediction rates track the
/// exact predictor closely.
#[derive(Debug, Clone)]
struct PpmTable {
    entries: Vec<Entry>,
    gen: u32,
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
        }
    }

    #[inline]
    fn slot(key: u64) -> usize {
        (key & ((1 << TABLE_BITS) - 1)) as usize
    }

    /// Returns `(taken, not_taken)` counts if the context has been seen.
    #[inline]
    fn lookup(&self, key: u64) -> Option<(u16, u16)> {
        let e = &self.entries[Self::slot(key)];
        (e.gen == self.gen && e.tag == key).then_some((e.taken, e.not_taken))
    }

    #[inline]
    fn update(&mut self, key: u64, taken: bool) {
        let gen = self.gen;
        let e = &mut self.entries[Self::slot(key)];
        if e.gen != gen || e.tag != key {
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
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Generation wrapped: physically clear to avoid stale matches.
            self.entries.iter_mut().for_each(|e| *e = Entry::default());
            self.gen = 1;
        }
    }
}

/// Key for a PPM context: length, history bits, and (for per-address
/// tables) the branch PC.
#[inline]
fn context_key(len: u32, hist: u64, pc: u64) -> u64 {
    let masked = if len == 0 { 0 } else { hist & ((1 << len) - 1) };
    mix64(masked ^ ((len as u64) << 56) ^ pc.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// One of the four predictor organizations: {global, local} history ×
/// {global, per-address} table.
#[derive(Debug, Clone)]
struct PpmPredictor {
    local_history: bool,
    per_address: bool,
    table: PpmTable,
    /// Misses per depth (4, 8, 12).
    misses: [u64; 3],
}

impl PpmPredictor {
    fn new(local_history: bool, per_address: bool) -> Self {
        PpmPredictor {
            local_history,
            per_address,
            table: PpmTable::new(),
            misses: [0; 3],
        }
    }

    /// Predicts and then learns one branch outcome.
    ///
    /// Each of the 13 context keys is hashed once and serves both the
    /// probe and the update. Every slot is read before any is written:
    /// two context lengths of one branch can map to the same slot, and
    /// updating the shorter one first would evict the longer one's entry
    /// before it was read. Scanning lengths in ascending order lets each
    /// later (longer) hit overwrite the prediction of every depth it fits
    /// under, so each depth ends with its longest hit — the PPM rule.
    #[inline]
    fn observe(&mut self, pc: u64, hist: u64, taken: bool) {
        let pc_key = if self.per_address { pc } else { 0 };
        let keys: [u64; CONTEXTS] =
            std::array::from_fn(|len| context_key(len as u32, hist, pc_key));
        let mut predictions: [Option<bool>; 3] = [None; 3];
        for (len, &key) in (0..).zip(&keys) {
            if let Some((t, n)) = self.table.lookup(key) {
                for (pred, &depth) in predictions.iter_mut().zip(&DEPTHS) {
                    if len <= depth {
                        *pred = Some(t >= n);
                    }
                }
            }
        }
        for (miss, pred) in self.misses.iter_mut().zip(predictions) {
            // An unseen branch (no context at any length) predicts
            // not-taken.
            let predicted = pred.unwrap_or(false);
            if predicted != taken {
                *miss += 1;
            }
        }
        for key in keys {
            self.table.update(key, taken);
        }
    }

    fn reset(&mut self) {
        self.table.reset();
        self.misses = [0; 3];
    }
}

/// Computes the 14 branch-predictability characteristics of Table 1:
/// average transition rate, average taken rate, and misprediction rates of
/// the theoretical PPM predictor for global/local history, global and
/// per-address tables, and maximum history lengths 4, 8 and 12.
///
/// Only conditional branches participate; unconditional transfers are
/// perfectly predictable and excluded, as in MICA.
#[derive(Debug, Clone)]
pub struct BranchAnalyzer {
    branches: u64,
    taken: u64,
    transitions: u64,
    with_history: u64,
    /// Per static branch: its last outcome and its local history.
    per_pc: FxHashMap<u64, (bool, u64)>,
    global_hist: u64,
    /// Order: GAg, GAp, PAg, PAp (history kind, then table kind).
    predictors: [PpmPredictor; 4],
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
            predictors: [
                PpmPredictor::new(false, false), // GAg: global history, global table
                PpmPredictor::new(false, true),  // GAp: global history, per-address table
                PpmPredictor::new(true, false),  // PAg: local history, global table
                PpmPredictor::new(true, true),   // PAp: local history, per-address table
            ],
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

        let (last, local) = match self.per_pc.entry(pc) {
            hash_map::Entry::Occupied(e) => {
                let state = e.into_mut();
                self.with_history += 1;
                if state.0 != taken {
                    self.transitions += 1;
                }
                state
            }
            hash_map::Entry::Vacant(e) => e.insert((taken, 0)),
        };
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
        for (pi, p) in self.predictors.iter().enumerate() {
            for (di, &m) in p.misses.iter().enumerate() {
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
        for p in &mut self.predictors {
            p.reset();
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops over feature slots read clearest
mod tests {
    use super::*;
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

    /// The two-pass probe the fused [`PpmPredictor::observe`] replaced:
    /// a longest-first lookup walk that stops once every depth has a
    /// prediction, then an update pass that rehashes every context.
    fn observe_two_pass(p: &mut PpmPredictor, pc: u64, hist: u64, taken: bool) {
        let pc_key = if p.per_address { pc } else { 0 };
        let mut predictions: [Option<bool>; 3] = [None; 3];
        for len in (0..=MAX_HIST).rev() {
            if let Some((t, n)) = p.table.lookup(context_key(len, hist, pc_key)) {
                for (i, &depth) in DEPTHS.iter().enumerate() {
                    if len <= depth && predictions[i].is_none() {
                        predictions[i] = Some(t >= n);
                    }
                }
                if predictions.iter().all(Option::is_some) {
                    break;
                }
            }
        }
        for (miss, pred) in p.misses.iter_mut().zip(predictions) {
            if pred.unwrap_or(false) != taken {
                *miss += 1;
            }
        }
        for len in 0..=MAX_HIST {
            p.table.update(context_key(len, hist, pc_key), taken);
        }
    }

    /// A tempting but wrong fusion: probe and update each length in
    /// turn, so a shorter context's update can evict a longer one's
    /// entry before it is read.
    fn observe_interleaved(p: &mut PpmPredictor, pc: u64, hist: u64, taken: bool) {
        let pc_key = if p.per_address { pc } else { 0 };
        let mut predictions: [Option<bool>; 3] = [None; 3];
        for len in 0..=MAX_HIST {
            let key = context_key(len, hist, pc_key);
            if let Some((t, n)) = p.table.lookup(key) {
                for (i, &depth) in DEPTHS.iter().enumerate() {
                    if len <= depth {
                        predictions[i] = Some(t >= n);
                    }
                }
            }
            p.table.update(key, taken);
        }
        for (miss, pred) in p.misses.iter_mut().zip(predictions) {
            if pred.unwrap_or(false) != taken {
                *miss += 1;
            }
        }
    }

    /// The analyzer as it was before the fused probe and the merged
    /// per-PC map: separate last-outcome and local-history maps feeding
    /// [`observe_two_pass`].
    struct Reference {
        branches: u64,
        taken: u64,
        transitions: u64,
        with_history: u64,
        last_outcome: FxHashMap<u64, bool>,
        global_hist: u64,
        local_hist: FxHashMap<u64, u64>,
        predictors: [PpmPredictor; 4],
    }

    impl Reference {
        fn new() -> Self {
            Reference {
                branches: 0,
                taken: 0,
                transitions: 0,
                with_history: 0,
                last_outcome: FxHashMap::default(),
                global_hist: 0,
                local_hist: FxHashMap::default(),
                predictors: BranchAnalyzer::new().predictors,
            }
        }

        fn observe(&mut self, rec: &InstRecord) {
            let Some(branch) = rec.branch.filter(|b| b.conditional) else {
                return;
            };
            let (pc, taken) = (rec.pc, branch.taken);
            self.branches += 1;
            self.taken += taken as u64;
            if let Some(prev) = self.last_outcome.insert(pc, taken) {
                self.with_history += 1;
                if prev != taken {
                    self.transitions += 1;
                }
            }
            let local = self.local_hist.entry(pc).or_insert(0);
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
                observe_two_pass(p, pc, hist, taken);
            }
        }

        fn emit(&self) -> Vec<u64> {
            let denom = self.branches.max(1) as f64;
            let mut out = vec![
                self.transitions as f64 / self.with_history.max(1) as f64,
                self.taken as f64 / denom,
            ];
            for p in &self.predictors {
                out.extend(p.misses.iter().map(|&m| m as f64 / denom));
            }
            out.into_iter().map(f64::to_bits).collect()
        }

        fn reset(&mut self) {
            self.branches = 0;
            self.taken = 0;
            self.transitions = 0;
            self.with_history = 0;
            self.last_outcome.clear();
            self.global_hist = 0;
            self.local_hist.clear();
            for p in &mut self.predictors {
                p.reset();
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
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        #[test]
        fn fused_probe_is_bit_identical_to_two_pass(
            seed in 0u64..u64::MAX,
            pcs in 1u64..48,
            interval in 1u64..1500,
        ) {
            // Each static branch follows its own short period with
            // occasional random flips; some are unconditional jumps.
            let mut state = seed;
            let periods: Vec<u64> = (0..pcs).map(|_| 1 + next(&mut state) % 9).collect();
            let mut fused = BranchAnalyzer::new();
            let mut reference = Reference::new();
            for i in 0..4000u64 {
                if i > 0 && i % interval == 0 {
                    proptest::prop_assert_eq!(emit_bits(&fused), reference.emit());
                    fused.reset();
                    reference.reset();
                }
                let r = next(&mut state);
                let pc_index = r % pcs;
                let taken = if r >> 60 == 0 {
                    (r >> 40) & 1 == 1
                } else {
                    i % periods[pc_index as usize] == 0
                };
                let rec = InstRecord::new(0x400 + 4 * pc_index, InstClass::CondBranch)
                    .with_branch(BranchInfo {
                        taken,
                        target: 0,
                        conditional: (r >> 32) & 15 != 0,
                    });
                fused.observe(&rec, i % interval);
                reference.observe(&rec);
            }
            proptest::prop_assert_eq!(emit_bits(&fused), reference.emit());
        }
    }

    #[test]
    fn lookups_precede_updates_when_two_contexts_share_a_slot() {
        // Find a branch whose contexts of lengths `a < b` (with `b` a
        // PPM depth) share a slot under history `h`, and whose other
        // contexts, under `h` and under `h` with bit `b - 1` flipped,
        // collide nowhere else.
        let h = 0b1010_0110_1101;
        let slots = |pc: u64, hist: u64| -> Vec<usize> {
            (0..=MAX_HIST)
                .map(|len| PpmTable::slot(context_key(len, hist, pc)))
                .collect()
        };
        let (pc, b) = (0u64..)
            .map(|i| 4 * i)
            .find_map(|pc| {
                let under_h = slots(pc, h);
                DEPTHS.iter().find_map(|&b| {
                    let mut all = under_h.clone();
                    all.extend(slots(pc, h ^ (1 << (b - 1)))[b as usize..].iter());
                    let shared = under_h[b as usize];
                    let collides = under_h[..b as usize].contains(&shared);
                    all.sort_unstable();
                    all.dedup();
                    // Only the one pair may collide: 13 + (13 - b) - 1
                    // distinct slots.
                    (collides && all.len() == 2 * CONTEXTS - b as usize - 1).then_some((pc, b))
                })
            })
            .expect("some branch has a colliding pair");
        let depth = DEPTHS.iter().position(|&d| d == b).unwrap();

        // Shorter contexts learn not-taken under the sibling history;
        // then the branch is taken once under `h`, which leaves the
        // shared slot holding context `b`. The last probe under `h`
        // must read that entry before context `a` evicts it.
        let steps = [
            (h ^ (1 << (b - 1)), false),
            (h ^ (1 << (b - 1)), false),
            (h ^ (1 << (b - 1)), false),
            (h, true),
            (h, true),
        ];
        let run = |observe: fn(&mut PpmPredictor, u64, u64, bool)| {
            let mut p = PpmPredictor::new(false, true);
            for (hist, taken) in steps {
                observe(&mut p, pc, hist, taken);
            }
            p.misses
        };
        let reference = run(observe_two_pass);
        assert_eq!(run(PpmPredictor::observe), reference);
        let interleaved = run(observe_interleaved);
        assert_eq!(
            interleaved[depth],
            reference[depth] + 1,
            "pc {pc:#x}, b {b}"
        );
    }

    #[test]
    fn ppm_table_generation_reset() {
        let mut t = PpmTable::new();
        t.update(42, true);
        assert_eq!(t.lookup(42), Some((1, 0)));
        t.reset();
        assert_eq!(t.lookup(42), None);
        t.update(42, false);
        assert_eq!(t.lookup(42), Some((0, 1)));
    }
}
