//! Inherent instruction-level parallelism analyzer (4 features).

use phaselab_trace::{ArchReg, InstRecord, RegReads, NUM_ARCH_REGS};

use crate::features::{FeatureVector, ILP_BASE};
use crate::Analyzer;

/// The four idealized-processor window sizes of the characterization.
///
/// Each is a power of two, so the ring slot of instruction `index` is
/// `index & (size - 1)`, which equals `index % size` without a divide.
pub const ILP_WINDOWS: [usize; 4] = [32, 64, 128, 256];

const _: () = {
    let mut i = 0;
    while i < ILP_WINDOWS.len() {
        assert!(
            ILP_WINDOWS[i].is_power_of_two(),
            "ILP windows must be powers of two"
        );
        i += 1;
    }
};

/// Computes the IPC achievable on an idealized processor — perfect caches,
/// perfect branch prediction, unit-latency functional units, register
/// dependences only — for window sizes of 32, 64, 128 and 256 in-flight
/// instructions (the "ILP" row of Table 1).
///
/// An instruction may issue once (a) its register producers have
/// completed, and (b) the instruction `W` positions ahead of it has
/// completed (the in-flight window constraint). Memory dependences are
/// ignored (perfect memory disambiguation), matching MICA's
/// register-dependence ILP model.
///
/// # Examples
///
/// ```
/// use phaselab_mica::{Analyzer, FeatureVector, IlpAnalyzer};
/// use phaselab_trace::{ArchReg, InstClass, InstRecord};
///
/// // A chain of dependent adds has IPC 1 regardless of window size.
/// let mut ilp = IlpAnalyzer::new();
/// let r = ArchReg::int(1);
/// for i in 0..100 {
///     let rec = InstRecord::new(4 * i, InstClass::IntAdd)
///         .with_reads(&[r])
///         .with_write(r);
///     ilp.observe(&rec, i);
/// }
/// let mut out = FeatureVector::zeros();
/// ilp.emit(&mut out);
/// assert!((out[20] - 1.0).abs() < 0.05); // ilp_win32 ~ 1
/// ```
#[derive(Debug, Clone)]
pub struct IlpAnalyzer {
    windows: [WindowState; 4],
    count: u64,
}

#[derive(Debug, Clone)]
struct WindowState {
    /// Window size minus one: the ring-slot mask.
    mask: usize,
    /// Completion cycle of each architectural register's latest producer.
    reg_ready: [u64; NUM_ARCH_REGS],
    /// Ring buffer of completion cycles of the last `size` instructions.
    ring: Vec<u64>,
    /// Maximum completion cycle seen.
    horizon: u64,
}

impl WindowState {
    fn new(size: usize) -> Self {
        WindowState {
            mask: size - 1,
            reg_ready: [0; NUM_ARCH_REGS],
            ring: vec![0; size],
            horizon: 0,
        }
    }

    #[inline]
    fn observe(&mut self, reads: RegReads, write: Option<ArchReg>, index: u64) {
        let slot = index as usize & self.mask;
        // Window constraint: the instruction `size` earlier must have
        // completed before this one can occupy its slot.
        let mut start = self.ring[slot];
        for r in reads.iter() {
            let ready = self.reg_ready[r.index()];
            if ready > start {
                start = ready;
            }
        }
        let completion = start + 1;
        self.ring[slot] = completion;
        if let Some(w) = write {
            self.reg_ready[w.index()] = completion;
        }
        if completion > self.horizon {
            self.horizon = completion;
        }
    }

    fn reset(&mut self) {
        self.reg_ready = [0; NUM_ARCH_REGS];
        self.ring.iter_mut().for_each(|c| *c = 0);
        self.horizon = 0;
    }
}

impl IlpAnalyzer {
    /// Creates an analyzer for the four standard window sizes.
    pub fn new() -> Self {
        IlpAnalyzer {
            windows: [
                WindowState::new(ILP_WINDOWS[0]),
                WindowState::new(ILP_WINDOWS[1]),
                WindowState::new(ILP_WINDOWS[2]),
                WindowState::new(ILP_WINDOWS[3]),
            ],
            count: 0,
        }
    }

    /// Observes one instruction given its register operands directly — the
    /// block-path equivalent of [`Analyzer::observe`], taking the static
    /// fields a block template already holds so no
    /// [`InstRecord`] needs to be materialized. The ILP model uses only
    /// register dependences, so this is the complete input.
    #[inline]
    pub fn observe_ops(&mut self, reads: RegReads, write: Option<ArchReg>, index: u64) {
        for w in &mut self.windows {
            w.observe(reads, write, index);
        }
        self.count += 1;
    }
}

impl Default for IlpAnalyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl Analyzer for IlpAnalyzer {
    #[inline]
    fn observe(&mut self, rec: &InstRecord, index: u64) {
        self.observe_ops(rec.reads, rec.write, index);
    }

    fn emit(&self, out: &mut FeatureVector) {
        for (i, w) in self.windows.iter().enumerate() {
            out[ILP_BASE + i] = if w.horizon == 0 {
                0.0
            } else {
                self.count as f64 / w.horizon as f64
            };
        }
    }

    fn reset(&mut self) {
        for w in &mut self.windows {
            w.reset();
        }
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phaselab_trace::{ArchReg, InstClass};

    fn emit(ilp: &IlpAnalyzer) -> Vec<f64> {
        let mut out = FeatureVector::zeros();
        ilp.emit(&mut out);
        (0..4).map(|i| out[ILP_BASE + i]).collect()
    }

    #[test]
    fn independent_instructions_saturate_window() {
        // Fully independent instructions: each window of W instructions can
        // retire W per cycle once warmed, so IPC approaches W.
        let mut ilp = IlpAnalyzer::new();
        for i in 0..100_000u64 {
            // Round-robin destination registers, no reads: no dependences.
            let w = ArchReg::int((i % 32) as u8);
            let rec = InstRecord::new(4 * i, InstClass::IntAdd).with_write(w);
            ilp.observe(&rec, i);
        }
        let ipc = emit(&ilp);
        assert!(ipc[0] > 28.0, "win32 IPC {}", ipc[0]);
        assert!(ipc[3] > 200.0, "win256 IPC {}", ipc[3]);
        // Larger windows expose at least as much ILP.
        assert!(ipc[1] >= ipc[0] - 1e-9);
        assert!(ipc[2] >= ipc[1] - 1e-9);
        assert!(ipc[3] >= ipc[2] - 1e-9);
    }

    #[test]
    fn dependent_chain_has_ipc_one() {
        let mut ilp = IlpAnalyzer::new();
        let r = ArchReg::int(1);
        for i in 0..10_000u64 {
            let rec = InstRecord::new(4 * i, InstClass::IntAdd)
                .with_reads(&[r])
                .with_write(r);
            ilp.observe(&rec, i);
        }
        let ipc = emit(&ilp);
        for v in ipc {
            assert!((v - 1.0).abs() < 0.01, "chain IPC {v}");
        }
    }

    #[test]
    fn two_independent_chains_have_ipc_two() {
        let mut ilp = IlpAnalyzer::new();
        let a = ArchReg::int(1);
        let b = ArchReg::int(2);
        for i in 0..10_000u64 {
            let r = if i % 2 == 0 { a } else { b };
            let rec = InstRecord::new(4 * i, InstClass::IntAdd)
                .with_reads(&[r])
                .with_write(r);
            ilp.observe(&rec, i);
        }
        let ipc = emit(&ilp);
        assert!((ipc[0] - 2.0).abs() < 0.01, "two-chain IPC {}", ipc[0]);
    }

    #[test]
    fn empty_interval_emits_zero() {
        let ilp = IlpAnalyzer::new();
        assert_eq!(emit(&ilp), vec![0.0; 4]);
    }

    /// The window step as it was before the mask: the ring slot is
    /// `index % size`.
    fn observe_modulo(w: &mut WindowState, reads: RegReads, write: Option<ArchReg>, index: u64) {
        let slot = (index as usize) % w.ring.len();
        let mut start = w.ring[slot];
        for r in reads.iter() {
            start = start.max(w.reg_ready[r.index()]);
        }
        let completion = start + 1;
        w.ring[slot] = completion;
        if let Some(w_reg) = write {
            w.reg_ready[w_reg.index()] = completion;
        }
        w.horizon = w.horizon.max(completion);
    }

    fn bits(ilp: &IlpAnalyzer) -> Vec<u64> {
        emit(ilp).into_iter().map(f64::to_bits).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        #[test]
        fn masked_window_is_bit_identical_to_modulo(
            seed in 0u64..u64::MAX,
            regs in 1u8..32,
            interval in 1u64..3000,
            offset in 0u64..(1 << 40),
        ) {
            // Random operands over a few registers (dense dependences)
            // or many (sparse ones), with the in-interval index offset
            // to far beyond every window size.
            let mut state = seed;
            let mut masked = IlpAnalyzer::new();
            let mut reference = IlpAnalyzer::new();
            for i in 0..5000u64 {
                if i > 0 && i % interval == 0 {
                    proptest::prop_assert_eq!(bits(&masked), bits(&reference));
                    masked.reset();
                    reference.reset();
                }
                let mut draw = || {
                    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    crate::fxhash::mix64(state)
                };
                let r = draw();
                let reg = |x: u64| {
                    let n = (x % u64::from(regs)) as u8;
                    if x & 0x100 == 0 { ArchReg::int(n) } else { ArchReg::fp(n) }
                };
                let reads: Vec<ArchReg> = (0..r % 4).map(|k| reg(r >> (8 * k + 4))).collect();
                let write = (r >> 62 != 0).then(|| reg(draw()));
                let reads = RegReads::from_slice(&reads);
                let index = offset + i % interval;
                masked.observe_ops(reads, write, index);
                for w in &mut reference.windows {
                    observe_modulo(w, reads, write, index);
                }
                reference.count += 1;
            }
            proptest::prop_assert_eq!(bits(&masked), bits(&reference));
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut ilp = IlpAnalyzer::new();
        let r = ArchReg::int(3);
        for i in 0..100 {
            let rec = InstRecord::new(0, InstClass::IntAdd)
                .with_reads(&[r])
                .with_write(r);
            ilp.observe(&rec, i);
        }
        ilp.reset();
        assert_eq!(emit(&ilp), vec![0.0; 4]);
    }
}
