//! The paper's headline findings, verified against reduced-scale studies.
//!
//! These are *shape* assertions (orderings, large gaps), not absolute
//! numbers — our substrate is a synthetic workload model, not the
//! authors' Pentium 4 testbed. The full-scale equivalents are produced by
//! the `repro` binary and recorded in EXPERIMENTS.md.

use phaselab::core::{coverage, diversity, uniqueness};
use phaselab::{run_study, Scale, StudyConfig, Suite};

fn shape_config() -> StudyConfig {
    let mut cfg = StudyConfig::smoke();
    cfg.scale = Scale::Tiny;
    cfg.interval_len = 15_000;
    cfg.samples_per_benchmark = 12;
    cfg.k = 48;
    cfg.n_prominent = 24;
    cfg
}

#[test]
fn domain_specific_suites_are_narrower_than_general_purpose() {
    let mut cfg = shape_config();
    cfg.suites = Some(vec![Suite::SpecInt2006, Suite::MediaBench2, Suite::Bmw]);
    let r = run_study(&cfg).expect("study runs");
    let cov = coverage(&r);
    let touched = |s: Suite| {
        cov.iter()
            .find(|c| c.suite == s)
            .map(|c| c.clusters_touched)
            .unwrap()
    };
    let spec = touched(Suite::SpecInt2006);
    assert!(
        spec > touched(Suite::MediaBench2),
        "SPEC ({spec}) should out-cover MediaBench II ({})",
        touched(Suite::MediaBench2)
    );
    assert!(
        spec > touched(Suite::Bmw),
        "SPEC ({spec}) should out-cover BMW ({})",
        touched(Suite::Bmw)
    );
}

#[test]
fn bioperf_has_the_largest_unique_fraction() {
    let mut cfg = shape_config();
    cfg.suites = Some(vec![Suite::BioPerf, Suite::Bmw, Suite::MediaBench2]);
    let r = run_study(&cfg).expect("study runs");
    let uniq = uniqueness(&r);
    let of = |s: Suite| {
        uniq.iter()
            .find(|u| u.suite == s)
            .map(|u| u.unique_fraction)
            .unwrap()
    };
    assert!(
        of(Suite::BioPerf) > of(Suite::Bmw),
        "BioPerf {} vs BMW {}",
        of(Suite::BioPerf),
        of(Suite::Bmw)
    );
    assert!(
        of(Suite::BioPerf) > of(Suite::MediaBench2),
        "BioPerf {} vs MediaBench II {}",
        of(Suite::BioPerf),
        of(Suite::MediaBench2)
    );
}

#[test]
fn domain_specific_suites_need_fewer_clusters_for_coverage() {
    let mut cfg = shape_config();
    cfg.suites = Some(vec![Suite::SpecInt2000, Suite::MediaBench2]);
    let r = run_study(&cfg).expect("study runs");
    let div = diversity(&r);
    let to80 = |s: Suite| {
        div.iter()
            .find(|c| c.suite == s)
            .map(|c| c.clusters_to_cover(0.8))
            .unwrap()
    };
    assert!(
        to80(Suite::MediaBench2) <= to80(Suite::SpecInt2000),
        "MediaBench II should reach 80% with fewer clusters ({} vs {})",
        to80(Suite::MediaBench2),
        to80(Suite::SpecInt2000)
    );
}

/// The flagship cross-suite overlaps the paper observes, at a scale
/// where co-clustering is measurable. Slower than the other tests; run
/// with `cargo test --release -- --include-ignored` (CI does).
#[test]
#[ignore = "full-catalog study: under 10 s in release, far slower in the dev build; run in release"]
fn full_catalog_shapes_hold() {
    let mut cfg = StudyConfig::paper_scaled();
    cfg.scale = Scale::Small;
    cfg.interval_len = 20_000;
    cfg.samples_per_benchmark = 50;
    cfg.k = 150;
    cfg.n_prominent = 60;
    let r = run_study(&cfg).expect("study runs");

    let cov = coverage(&r);
    let touched = |s: Suite| {
        cov.iter()
            .find(|c| c.suite == s)
            .map(|c| c.clusters_touched)
            .unwrap()
    };
    // General-purpose suites cover the most; domain-specific the least.
    let spec_min = [
        Suite::SpecInt2000,
        Suite::SpecFp2000,
        Suite::SpecInt2006,
        Suite::SpecFp2006,
    ]
    .map(touched)
    .into_iter()
    .min()
    .unwrap();
    for ds in [Suite::Bmw, Suite::MediaBench2] {
        assert!(
            spec_min > touched(ds),
            "every SPEC suite should out-cover {ds:?}"
        );
    }

    // BioPerf is the uniqueness champion; MediaBench II near the bottom.
    let uniq = uniqueness(&r);
    let of = |s: Suite| {
        uniq.iter()
            .find(|u| u.suite == s)
            .map(|u| u.unique_fraction)
            .unwrap()
    };
    let bio = of(Suite::BioPerf);
    for other in [
        Suite::Bmw,
        Suite::SpecInt2000,
        Suite::SpecFp2000,
        Suite::SpecInt2006,
        Suite::SpecFp2006,
        Suite::MediaBench2,
    ] {
        assert!(
            bio > of(other),
            "BioPerf {bio} should exceed {other:?} {}",
            of(other)
        );
    }
}
