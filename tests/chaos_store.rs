//! Chaos tests for the checkpoint store under deterministic fault
//! injection: torn writes, ENOSPC, failed renames, and EINTR storms
//! must all degrade to warn-and-recompute — never a panic, never a
//! frame a reader mistakes for valid data.
//!
//! Faults belong to a store handle, not the process: each test arms a
//! second handle over its own directory and drives the faulty steps
//! through it, while the clean steps use the plain handle. Tests
//! running concurrently in this binary therefore never see each
//! other's faults.

use phaselab::core::faults::{FaultPlan, Io};
use phaselab::core::{BenchCharacterization, BenchOutcome, CheckpointStore};
use phaselab::mica::{FeatureVector, NUM_FEATURES};
use phaselab::Suite;

/// A handle on `store`'s directory whose I/O injects faults per `spec`.
fn armed(store: &CheckpointStore, spec: &str) -> CheckpointStore {
    let plan = FaultPlan::parse(spec).expect("valid spec");
    store.clone().with_io(Io::faulty(plan))
}

fn temp_store(tag: &str) -> (CheckpointStore, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("phaselab-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).expect("store opens");
    (store, dir)
}

fn outcome(marker: f64) -> BenchOutcome {
    let mut v = [0.0f64; NUM_FEATURES];
    for (i, x) in v.iter_mut().enumerate() {
        *x = marker + i as f64;
    }
    BenchOutcome::Characterized(BenchCharacterization {
        per_input: vec![vec![FeatureVector::from_slice(&v)]],
        total_instructions: 1234,
    })
}

fn first_value(out: &BenchOutcome) -> f64 {
    match out {
        BenchOutcome::Characterized(c) => c.per_input[0][0].as_slice()[0],
        BenchOutcome::Quarantined(q) => panic!("unexpected quarantine: {q}"),
    }
}

#[test]
fn torn_writes_never_surface_as_valid_data() {
    let (store, dir) = temp_store("torn");
    let fp = 0xFEED;
    {
        let chaotic = armed(&store, "seed=3,torn=1.0");
        chaotic.store_benchmark(fp, Suite::Bmw, "torn-bench", &outcome(1.0));
        // Every write was torn: the loader must classify the prefix as
        // damage and recompute, not decode garbage.
        assert!(chaotic
            .load_benchmark(fp, Suite::Bmw, "torn-bench")
            .is_none());
    }
    // Disarmed, the same slot repairs cleanly.
    store.store_benchmark(fp, Suite::Bmw, "torn-bench", &outcome(2.0));
    let loaded = store
        .load_benchmark(fp, Suite::Bmw, "torn-bench")
        .expect("clean rewrite loads");
    assert!((first_value(&loaded) - 2.0).abs() < 1e-12);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn enospc_leaves_no_file_behind() {
    let (store, dir) = temp_store("enospc");
    let fp = 0xD15C;
    {
        let chaotic = armed(&store, "seed=5,enospc=1.0");
        chaotic.store_benchmark(fp, Suite::Bmw, "full-disk", &outcome(1.0));
        assert!(chaotic
            .load_benchmark(fp, Suite::Bmw, "full-disk")
            .is_none());
    }
    // The failed write is invisible: no checkpoint file, no tmp file
    // masquerading as one.
    let path = store.benchmark_path(fp, Suite::Bmw, "full-disk");
    assert!(!path.exists(), "ENOSPC write must not leave a frame behind");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_renames_are_recovered_after_disarm() {
    let (store, dir) = temp_store("rename");
    let fp = 0x4E4E;
    {
        let chaotic = armed(&store, "seed=9,rename=1.0");
        chaotic.store_benchmark(fp, Suite::Bmw, "rn", &outcome(1.0));
        assert!(chaotic.load_benchmark(fp, Suite::Bmw, "rn").is_none());
    }
    store.store_benchmark(fp, Suite::Bmw, "rn", &outcome(3.0));
    let loaded = store
        .load_benchmark(fp, Suite::Bmw, "rn")
        .expect("recovers after the fault clears");
    assert!((first_value(&loaded) - 3.0).abs() < 1e-12);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eintr_storm_exhausts_the_retry_budget_gracefully() {
    let (store, dir) = temp_store("eintr");
    let fp = 0xE1;
    store.store_benchmark(fp, Suite::Bmw, "eintr", &outcome(1.0));
    {
        // Every read is interrupted, forever: the bounded retry loop
        // must give up and classify the slot as recompute, not spin.
        let chaotic = armed(&store, "seed=11,eintr=1.0");
        assert!(chaotic.load_benchmark(fp, Suite::Bmw, "eintr").is_none());
    }
    // The file itself was never damaged; it loads once the storm ends.
    let loaded = store
        .load_benchmark(fp, Suite::Bmw, "eintr")
        .expect("undamaged file loads after the storm");
    assert!((first_value(&loaded) - 1.0).abs() < 1e-12);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bounded_retries_outlast_a_bounded_eintr_burst() {
    let (store, dir) = temp_store("eintr-burst");
    let fp = 0xE2;
    store.store_benchmark(fp, Suite::Bmw, "burst", &outcome(7.0));
    {
        // Two injected EINTRs, then the filesystem behaves: the retry
        // loop (budget 3) must ride out the burst and return the data.
        let chaotic = armed(&store, "seed=13,eintr=1.0,max=2");
        let loaded = chaotic
            .load_benchmark(fp, Suite::Bmw, "burst")
            .expect("retries outlast the burst");
        assert!((first_value(&loaded) - 7.0).abs() < 1e-12);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn short_reads_are_retried_then_classified_as_damage() {
    let (store, dir) = temp_store("shortread");
    let fp = 0x5404;
    store.store_benchmark(fp, Suite::Bmw, "sr", &outcome(4.0));
    {
        let chaotic = armed(&store, "seed=17,shortread=1.0");
        assert!(chaotic.load_benchmark(fp, Suite::Bmw, "sr").is_none());
    }
    // A short read truncates the returned bytes, not the file.
    let loaded = store
        .load_benchmark(fp, Suite::Bmw, "sr")
        .expect("file intact once reads complete");
    assert!((first_value(&loaded) - 4.0).abs() < 1e-12);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mixed_low_probability_chaos_converges_to_a_full_store() {
    let (store, dir) = temp_store("mixed");
    let fp = 0x1357;
    let names: Vec<String> = (0..16).map(|i| format!("bench-{i}")).collect();
    {
        let chaotic = armed(
            &store,
            "seed=21,torn=0.3,enospc=0.2,rename=0.2,eintr=0.2,shortread=0.2",
        );
        // Write-until-readable, exactly the study's recompute loop: a
        // slot whose write was eaten by a fault is simply written again
        // next round.
        for (i, name) in names.iter().enumerate() {
            for _attempt in 0..64 {
                if chaotic.load_benchmark(fp, Suite::Bmw, name).is_some() {
                    break;
                }
                chaotic.store_benchmark(fp, Suite::Bmw, name, &outcome(i as f64));
            }
        }
        assert!(
            chaotic.io().injected() > 0,
            "the mixed storm fired no fault"
        );
    }
    for (i, name) in names.iter().enumerate() {
        let loaded = store
            .load_benchmark(fp, Suite::Bmw, name)
            .unwrap_or_else(|| panic!("slot {name} must converge"));
        assert!((first_value(&loaded) - i as f64).abs() < 1e-12);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
