//! Manifest determinism across thread counts, with the block-engine VM
//! counters live.
//!
//! Runs in its own process (integration test binary), so installing the
//! process-wide `phaselab-obs` registry cannot leak into unit tests.
//! Everything lives in one `#[test]` because the registry is global
//! state shared by all tests in this binary.

use phaselab_core::{run_study, StudyConfig};
use phaselab_obs::{structural_prefix, Json};
use phaselab_workloads::Suite;

fn study_manifest(threads: usize) -> String {
    let reg = phaselab_obs::install();
    reg.reset();
    let mut cfg = StudyConfig::smoke();
    cfg.suites = Some(vec![Suite::Bmw]);
    cfg.threads = threads;
    run_study(&cfg).expect("smoke study");
    // Config section mirrors what `repro` emits: deterministic inputs
    // only, never the thread count itself.
    let config = vec![
        ("seed".to_string(), Json::U64(cfg.seed)),
        ("engine".to_string(), Json::Str(cfg.engine.name().into())),
    ];
    phaselab_obs::manifest_json(reg, &config, true)
}

#[test]
fn structural_manifest_is_byte_identical_across_thread_counts() {
    let m1 = study_manifest(1);

    // The block engine dispatches whole basic blocks, so the manifest
    // must report strictly fewer dispatch units than instructions —
    // that gap is the dispatch overhead the engine amortizes away.
    let reg = phaselab_obs::registry().expect("installed");
    let inst = reg
        .counter_value("vm.instructions")
        .expect("vm.instructions");
    let blocks = reg.counter_value("vm.blocks").expect("vm.blocks");
    let slices = reg.counter_value("vm.slices").expect("vm.slices");
    assert!(
        blocks < inst,
        "block engine must dispatch fewer units ({blocks}) than instructions ({inst})"
    );
    // Both counts are functions of the config alone, so they are pinned
    // exactly: a drift in either means the VM executed different work or
    // block formation changed. A deliberate block-formation change
    // updates these values (and says so in its change notes).
    assert_eq!(inst, 490_937, "vm.instructions of the BMW smoke study");
    assert_eq!(blocks, 67_902, "vm.blocks of the BMW smoke study");
    assert!(slices > 0 && slices <= blocks);

    // The static pre-flight contributes a named structural section: one
    // entry per benchmark with the analyzer's bounds. It must be inside
    // the structural prefix (and therefore thread-identical below).
    assert!(
        structural_prefix(&m1).contains("\"static_analysis\""),
        "static_analysis section missing from the structural prefix"
    );
    assert!(structural_prefix(&m1).contains("\"BMW/"));
    assert!(
        reg.counter_value("static.benchmarks.analyzed").unwrap_or(0) > 0,
        "static pre-flight did not run"
    );

    let m2 = study_manifest(2);
    let m4 = study_manifest(4);
    assert_eq!(
        structural_prefix(&m1),
        structural_prefix(&m2),
        "structural manifest must not depend on thread count (1 vs 2)"
    );
    assert_eq!(
        structural_prefix(&m2),
        structural_prefix(&m4),
        "structural manifest must not depend on thread count (2 vs 4)"
    );
    // Wall-clock data still renders, after the structural prefix.
    assert!(m1.contains("\"timings\""));
}
