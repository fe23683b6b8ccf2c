//! Memory footprint analyzer (4 features).

use phaselab_trace::InstRecord;

use crate::features::{FeatureVector, FOOTPRINT_BASE};
use crate::fxhash::FxHashSet;
use crate::Analyzer;

/// Counts the unique 64-byte blocks and 4 KB pages touched by the
/// instruction stream and by the data stream within an interval (Table 1,
/// "memory footprint").
///
/// A page is inserted only when one of its blocks is new: every block
/// lies in exactly one page, so once a block is in its set, that block's
/// page already is too. Repeat touches, the common case, cost one set
/// probe instead of two.
///
/// # Examples
///
/// ```
/// use phaselab_mica::{Analyzer, FeatureVector, FootprintAnalyzer};
/// use phaselab_trace::{InstClass, InstRecord, MemAccess};
///
/// let mut fp = FootprintAnalyzer::new();
/// let rec = InstRecord::new(0x1000, InstClass::MemRead)
///     .with_mem(MemAccess { addr: 0x2000, size: 8, is_store: false });
/// fp.observe(&rec, 0);
/// let mut out = FeatureVector::zeros();
/// fp.emit(&mut out);
/// assert_eq!(out[33], 1.0); // one instruction block
/// assert_eq!(out[35], 1.0); // one data block
/// ```
#[derive(Debug, Clone, Default)]
pub struct FootprintAnalyzer {
    instr_blocks: FxHashSet<u64>,
    instr_pages: FxHashSet<u64>,
    data_blocks: FxHashSet<u64>,
    data_pages: FxHashSet<u64>,
}

impl FootprintAnalyzer {
    /// Creates an analyzer with empty footprints.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes the instruction-stream footprint of `n` consecutive
    /// 4-byte instructions starting at byte address `base_pc` — the
    /// block-path equivalent of the per-record `rec.pc` inserts. A
    /// straight-line block covers a contiguous pc range, so the same set
    /// of 64-byte blocks and 4 KB pages is inserted with at most
    /// `n/16 + 1` set operations instead of `n`.
    #[inline]
    pub fn observe_instr_span(&mut self, base_pc: u64, n: u64) {
        if n == 0 {
            return;
        }
        let last_pc = base_pc + 4 * (n - 1);
        // The span's blocks cover its pages, so the gated block inserts
        // reach every page.
        for block in (base_pc >> 6)..=(last_pc >> 6) {
            insert_block(&mut self.instr_blocks, &mut self.instr_pages, block);
        }
    }

    /// Observes one data access — the block-path equivalent of the
    /// `rec.mem` half of [`Analyzer::observe`].
    #[inline]
    pub fn observe_data(&mut self, addr: u64, size: u8) {
        insert_block(&mut self.data_blocks, &mut self.data_pages, addr >> 6);
        // A wide access may straddle a block boundary.
        let last = addr + size as u64 - 1;
        if last >> 6 != addr >> 6 {
            insert_block(&mut self.data_blocks, &mut self.data_pages, last >> 6);
        }
    }
}

/// Inserts one 64-byte block, and its 4 KB page only if the block is new.
#[inline]
fn insert_block(blocks: &mut FxHashSet<u64>, pages: &mut FxHashSet<u64>, block: u64) {
    if blocks.insert(block) {
        pages.insert(block >> 6);
    }
}

impl Analyzer for FootprintAnalyzer {
    #[inline]
    fn observe(&mut self, rec: &InstRecord, _index: u64) {
        insert_block(&mut self.instr_blocks, &mut self.instr_pages, rec.pc >> 6);
        if let Some(mem) = rec.mem {
            self.observe_data(mem.addr, mem.size);
        }
    }

    fn emit(&self, out: &mut FeatureVector) {
        out[FOOTPRINT_BASE] = self.instr_blocks.len() as f64;
        out[FOOTPRINT_BASE + 1] = self.instr_pages.len() as f64;
        out[FOOTPRINT_BASE + 2] = self.data_blocks.len() as f64;
        out[FOOTPRINT_BASE + 3] = self.data_pages.len() as f64;
    }

    fn reset(&mut self) {
        self.instr_blocks.clear();
        self.instr_pages.clear();
        self.data_blocks.clear();
        self.data_pages.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phaselab_trace::{InstClass, MemAccess};

    fn emit(a: &FootprintAnalyzer) -> [f64; 4] {
        let mut out = FeatureVector::zeros();
        a.emit(&mut out);
        [
            out[FOOTPRINT_BASE],
            out[FOOTPRINT_BASE + 1],
            out[FOOTPRINT_BASE + 2],
            out[FOOTPRINT_BASE + 3],
        ]
    }

    #[test]
    fn same_block_counted_once() {
        let mut a = FootprintAnalyzer::new();
        for pc in [0u64, 8, 16, 63] {
            a.observe(&InstRecord::new(pc, InstClass::Nop), 0);
        }
        assert_eq!(emit(&a), [1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn blocks_vs_pages() {
        let mut a = FootprintAnalyzer::new();
        // 64 instruction blocks, all in one 4K page.
        for i in 0..64u64 {
            a.observe(&InstRecord::new(i * 64, InstClass::Nop), 0);
        }
        assert_eq!(emit(&a), [64.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn data_footprint_tracks_accesses() {
        let mut a = FootprintAnalyzer::new();
        for i in 0..10u64 {
            let rec = InstRecord::new(0, InstClass::MemRead).with_mem(MemAccess {
                addr: i * 4096,
                size: 8,
                is_store: false,
            });
            a.observe(&rec, 0);
        }
        let [ib, ip, db, dp] = emit(&a);
        assert_eq!((ib, ip), (1.0, 1.0));
        assert_eq!((db, dp), (10.0, 10.0));
    }

    #[test]
    fn straddling_access_touches_two_blocks() {
        let mut a = FootprintAnalyzer::new();
        let rec = InstRecord::new(0, InstClass::MemRead).with_mem(MemAccess {
            addr: 60,
            size: 8,
            is_store: false,
        });
        a.observe(&rec, 0);
        assert_eq!(emit(&a)[2], 2.0);
    }

    /// The analyzer before the gate: every touch inserts its block and
    /// its page unconditionally.
    #[derive(Default)]
    struct Ungated(FootprintAnalyzer);

    impl Ungated {
        fn instr(&mut self, pc: u64) {
            self.0.instr_blocks.insert(pc >> 6);
            self.0.instr_pages.insert(pc >> 12);
        }

        fn data(&mut self, addr: u64, size: u8) {
            let f = &mut self.0;
            f.data_blocks.insert(addr >> 6);
            f.data_pages.insert(addr >> 12);
            let last = addr + size as u64 - 1;
            if last >> 6 != addr >> 6 {
                f.data_blocks.insert(last >> 6);
                f.data_pages.insert(last >> 12);
            }
        }
    }

    fn bits(a: &FootprintAnalyzer) -> [u64; 4] {
        emit(a).map(f64::to_bits)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        #[test]
        fn gated_inserts_are_bit_identical_to_ungated(
            seed in 0u64..u64::MAX,
            span in 1u64..(1 << 16),
            interval in 1u64..400,
        ) {
            // Per-record observations, contiguous instruction spans and
            // data accesses (some straddling a block, and some a page)
            // over a region small enough to revisit blocks often.
            let mut state = seed;
            let mut draw = || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                crate::fxhash::mix64(state)
            };
            let mut gated = FootprintAnalyzer::new();
            let mut reference = Ungated::default();
            for i in 0..3000u64 {
                if i > 0 && i % interval == 0 {
                    proptest::prop_assert_eq!(bits(&gated), bits(&reference.0));
                    gated.reset();
                    reference.0.reset();
                }
                let r = draw();
                let pc = 4 * ((r >> 8) % span);
                let size = [1u8, 2, 4, 8, 16][(r % 5) as usize];
                let addr = (r >> 24) % (span * 4);
                match (r >> 4) % 3 {
                    0 => {
                        let rec = InstRecord::new(pc, InstClass::MemRead).with_mem(MemAccess {
                            addr,
                            size,
                            is_store: false,
                        });
                        gated.observe(&rec, i % interval);
                        reference.instr(pc);
                        reference.data(addr, size);
                    }
                    1 => {
                        let n = 1 + (r >> 40) % 100;
                        gated.observe_instr_span(pc, n);
                        for k in 0..n {
                            reference.instr(pc + 4 * k);
                        }
                    }
                    _ => {
                        gated.observe_data(addr, size);
                        reference.data(addr, size);
                    }
                }
            }
            proptest::prop_assert_eq!(bits(&gated), bits(&reference.0));
        }
    }

    #[test]
    fn straddling_access_at_a_page_edge_counts_both_pages() {
        // The access's second block is new and lies in a new page; its
        // first block was already seen.
        let mut a = FootprintAnalyzer::new();
        a.observe_data(4096 - 64, 8);
        a.observe_data(4096 - 4, 8);
        assert_eq!(emit(&a), [0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn reset_empties_footprints() {
        let mut a = FootprintAnalyzer::new();
        a.observe(&InstRecord::new(100, InstClass::Nop), 0);
        a.reset();
        assert_eq!(emit(&a), [0.0, 0.0, 0.0, 0.0]);
    }
}
