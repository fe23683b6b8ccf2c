//! Chaos proptest for the spool queue and serve loop under injected
//! filesystem faults (`phaselab_core::faults`): torn writes, failed
//! renames, interrupted and short reads — the same fault lanes
//! `PHASELAB_FAULTS` arms in the shell-level chaos runs.
//!
//! Invariants checked after every storm:
//!
//! * **No job is ever lost**: every acknowledged submission ends with
//!   exactly one parseable completion record in `done/`, and the
//!   pending/running directories drain empty.
//! * **No job is double-completed or re-characterized**: each unique
//!   fingerprint executes exactly once no matter how many duplicate
//!   submissions, server passes, or requeues the faults provoke.
//! * **The served result is byte-identical to a fault-free direct
//!   run**: the published `report.txt` equals the bytes the runner
//!   produces with no faults armed.
//!
//! Crash faults (`crash=`) are deliberately absent from the in-process
//! plans — the injector aborts the whole process, which would take the
//! test binary down. Crashed *workers* are modeled separately: a claim
//! whose heartbeat names a dead pid, which recovery must requeue.
//!
//! Faults belong to a queue handle, not the process: each storm drives
//! a faulty handle and checks the outcome through a plain one over the
//! same spool, and concurrent tests never see each other's faults.

use phaselab_core::faults::{FaultPlan, Io};
use phaselab_core::CancelToken;
use phaselab_serve::{results_dir, serve, JobContext, JobSpec, JobStatus, Queue, ServeConfig};
use proptest::prelude::*;
use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Unique scratch directory per test case.
fn scratch(tag: &str) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "phaselab-chaos-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A tiny, distinct study spec per seed; equal seeds collide into the
/// same fingerprint, which is how the cases exercise dedup.
fn spec(seed: u64) -> JobSpec {
    JobSpec {
        experiment: "table3".to_string(),
        scale: "tiny".to_string(),
        interval_len: 20_000,
        samples: 8,
        k: 12,
        seed,
        engine: "block".to_string(),
        suites: None,
        only: vec!["face".to_string()],
        max_inst_per_bench: None,
        static_analysis: true,
        kmeans_batch: None,
    }
}

/// What a fault-free direct run of the mock runner publishes — the
/// byte-identity baseline.
fn direct_report(spec: &JobSpec) -> String {
    format!(
        "phase study {} seed {} fingerprint {:016x}\n",
        spec.experiment,
        spec.seed,
        spec.fingerprint()
    )
}

/// Drain-mode config tuned for fast recovery in tests.
fn chaos_cfg() -> ServeConfig {
    ServeConfig {
        jobs: 2,
        drain: true,
        poll: Duration::from_millis(2),
        ttl: Duration::from_millis(150),
        job_timeout: None,
    }
}

/// Runs drain-mode serve passes until the spool settles (pending and
/// running both empty). Serve passes may abort mid-flight on injected
/// faults; each retry resumes from whatever state the spool is in.
fn serve_until_settled(
    queue: &Queue,
    runner: &(dyn Fn(&JobSpec, &JobContext) -> Result<String, String> + Sync),
) -> bool {
    for _ in 0..25 {
        if serve(queue, &chaos_cfg(), &CancelToken::new(), runner).is_ok() {
            if let Ok(depth) = queue.depth() {
                if depth.pending == 0 && depth.running == 0 {
                    return true;
                }
            }
        }
    }
    false
}

/// Storm cases to run; also the trigger point for the cross-case
/// vacuity check below.
const STORM_CASES: u32 = 12;

/// Total faults fired across every storm case. Fault decisions hash
/// the submission path, which embeds wall-clock millis, so any *one*
/// case can legitimately draw zero faults — but all of them together
/// cannot, and the final case asserts so.
static TOTAL_INJECTED: AtomicU64 = AtomicU64::new(0);
static CASES_RUN: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(STORM_CASES))]

    #[test]
    fn no_job_lost_or_rerun_under_fault_storm(
        fault_seed in 0u64..10_000,
        all_seeds in proptest::collection::vec(0u64..3, 7),
        batch in 1usize..8,
    ) {
        let job_seeds = &all_seeds[..batch.min(all_seeds.len())];
        let root = scratch("storm");

        // Torn writes, failed renames, interrupted and short reads on
        // every spool seam. `max=` caps total injections so retry
        // loops are guaranteed to converge.
        let plan = format!(
            "seed={fault_seed},torn=0.15,rename=0.15,eintr=0.08,shortread=0.08,max=64"
        );
        let plan = FaultPlan::parse(&plan).expect("parse plan");
        let faulty = Queue::open(&root).expect("open queue").with_io(Io::faulty(plan));

        // Submit with retries: submit() itself verifies its publish and
        // may exhaust its internal attempts under a dense fault run.
        let mut submitted: Vec<(String, JobSpec)> = Vec::new();
        for &seed in job_seeds {
            let sp = spec(seed);
            let name = (0..10).find_map(|_| faulty.submit(&sp).ok());
            prop_assert!(name.is_some(), "submission never acknowledged");
            submitted.push((name.unwrap(), sp));
        }

        // Mock runner: deterministic report bytes, one execution tally
        // per fingerprint. Results are written directly (a real runner
        // is a child process whose stdout lands outside the fault
        // wrappers).
        let runs: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::new());
        let runner = |sp: &JobSpec, ctx: &JobContext| -> Result<String, String> {
            *runs.lock().unwrap().entry(sp.fingerprint()).or_insert(0) += 1;
            fs::write(ctx.results_dir.join("report.txt"), direct_report(sp))
                .map_err(|e| e.to_string())?;
            Ok(ctx.results_dir.display().to_string())
        };

        let settled = serve_until_settled(&faulty, &runner);
        let injected = faulty.io().injected();
        let queue = Queue::open(&root).expect("open queue").with_io(Io::plain());
        prop_assert!(settled, "queue never drained");
        TOTAL_INJECTED.fetch_add(injected, Ordering::Relaxed);
        if CASES_RUN.fetch_add(1, Ordering::Relaxed) + 1 == u64::from(STORM_CASES) {
            prop_assert!(
                TOTAL_INJECTED.load(Ordering::Relaxed) > 0,
                "no case fired a single fault — the storm proved nothing"
            );
        }

        // Never lost: one parseable completion record per submission,
        // none of them failed.
        for (name, _) in &submitted {
            let record = queue.read_done(name);
            prop_assert!(record.is_some(), "submission {name} lost");
            let record = record.unwrap();
            prop_assert!(
                matches!(record.status, JobStatus::Completed | JobStatus::Deduped),
                "submission {name} ended {}: {}", record.status, record.detail
            );
        }
        let depth = queue.depth().expect("depth");
        prop_assert_eq!(depth.done, submitted.len(), "stray or missing records");

        // Never re-characterized: exactly one execution per unique
        // fingerprint, even across requeues and server restarts.
        let runs = runs.into_inner().unwrap();
        let unique: std::collections::BTreeSet<u64> =
            submitted.iter().map(|(_, sp)| sp.fingerprint()).collect();
        prop_assert_eq!(runs.len(), unique.len());
        for (fp, count) in &runs {
            prop_assert_eq!(*count, 1, "fingerprint {fp:016x} ran {count} times");
        }

        // Byte-identical to the direct run.
        for (_, sp) in &submitted {
            let report = results_dir(queue.root(), sp.fingerprint()).join("report.txt");
            let served = fs::read_to_string(&report).expect("served report");
            prop_assert_eq!(&served, &direct_report(sp), "served bytes differ from direct run");
        }

        let _ = fs::remove_dir_all(&root);
    }
}

#[test]
fn crashed_worker_claim_is_requeued_and_runs_exactly_once() {
    let root = scratch("crash");
    let queue = Queue::open(&root).expect("open queue").with_io(Io::plain());

    // Two identical submissions; a worker claims the first and then
    // "crashes" — modeled by rewriting its heartbeat to a pid that
    // cannot exist, exactly what a real dead worker leaves behind.
    let sp = spec(7);
    let first = queue.submit(&sp).expect("submit");
    let _second = queue.submit(&sp).expect("submit dup");
    let claim = queue.claim_next().expect("claim").expect("one pending");
    assert_eq!(claim.name, first);
    fs::write(
        root.join("running").join(format!("{first}.hb")),
        "4000000000\n",
    )
    .expect("forge dead-pid heartbeat");

    let runs = AtomicU64::new(0);
    let runner = |sp: &JobSpec, ctx: &JobContext| -> Result<String, String> {
        runs.fetch_add(1, Ordering::SeqCst);
        fs::write(ctx.results_dir.join("report.txt"), direct_report(sp))
            .map_err(|e| e.to_string())?;
        Ok(ctx.results_dir.display().to_string())
    };
    assert!(serve_until_settled(&queue, &runner), "queue never drained");

    assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly one execution");
    for row in queue.list().expect("list") {
        assert!(
            row.state == "completed" || row.state == "deduped",
            "{} ended {}",
            row.name,
            row.state
        );
    }
    let served = fs::read_to_string(results_dir(queue.root(), sp.fingerprint()).join("report.txt"))
        .expect("served report");
    assert_eq!(served, direct_report(&sp));
    let _ = fs::remove_dir_all(&root);
}
