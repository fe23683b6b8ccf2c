//! Golden digest of the characterization: one FNV-1a hash over every
//! feature bit of a fixed tiny-scale registry subset.
//!
//! The digest pins feature *semantics*. A pure speed change to the MICA
//! analyzers must leave it untouched; a deliberate semantic change must
//! bump `phaselab_mica::FEATURE_SEMANTICS` (which also retires every
//! cached characterization) and record the new digest under the new
//! version here. The digest for version 1 was recorded before the fused
//! PPM probe, the divide-free ILP window and the gated footprint inserts
//! landed, so it proved those rewrites exact on real registry streams.
//! Version 2 replaced the hashed PPM tables with exact context tries.

use phaselab::mica::FEATURE_SEMANTICS;
use phaselab::{catalog, characterize_program};
use phaselab::{Scale, NUM_FEATURES};

/// Recorded digests, keyed by feature-semantics version.
const GOLDEN: [(u32, u64); 2] = [(1, 0xfa75_cd57_6d47_5f43), (2, 0x81af_6aea_af5f_3440)];

/// Every `STEP`-th catalog entry is characterized: one program from
/// each stretch of the registry, so every suite is represented.
const STEP: usize = 7;

/// Short intervals, so the digest also covers many analyzer resets.
const INTERVAL: u64 = 4_000;

/// Per-program instruction cap, which keeps the debug-build test quick.
const MAX_INST: u64 = 60_000;

struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn feature_bits_match_the_recorded_digest() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut intervals = 0;
    for bench in catalog().iter().step_by(STEP) {
        let program = bench.build(Scale::Tiny, 0);
        let (features, instructions) =
            characterize_program(&program, INTERVAL, MAX_INST).expect("registry programs run");
        h.u64(instructions);
        h.u64(features.len() as u64);
        for fv in &features {
            assert_eq!(fv.as_slice().len(), NUM_FEATURES);
            for v in fv.as_slice() {
                h.u64(v.to_bits());
            }
        }
        intervals += features.len();
    }
    assert!(intervals >= 100, "subset too small: {intervals} intervals");
    let want = GOLDEN
        .iter()
        .find(|(v, _)| *v == FEATURE_SEMANTICS)
        .map(|(_, d)| *d);
    assert_eq!(
        Some(h.0),
        want,
        "feature digest {:#018x} ({intervals} intervals) differs from the digest recorded for \
         feature semantics {FEATURE_SEMANTICS}",
        h.0
    );
}
