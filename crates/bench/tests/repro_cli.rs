//! Exit-code and diagnostic contract of the `repro` binary.
//!
//! Usage errors (bad flags, bad values, unknown experiments) must exit
//! with code 2 and a one-line stderr diagnostic *without* running a
//! study; `--help` succeeds. Keeping these argument-parsing paths fast
//! is what makes them testable here — none of them characterizes a
//! single benchmark.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stderr_line(out: &Output) -> String {
    let text = String::from_utf8_lossy(&out.stderr);
    let mut lines = text.lines();
    let first = lines.next().unwrap_or_default().to_string();
    assert_eq!(lines.next(), None, "expected a one-line diagnostic");
    first
}

#[test]
fn help_exits_zero_and_prints_usage() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("usage: repro"));
    assert!(text.contains("exit codes"));
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = repro(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("unknown flag `--frobnicate`"), "{line}");
}

#[test]
fn bad_flag_value_is_a_usage_error() {
    let out = repro(&["--interval", "ten", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("bad value `ten` for `--interval`"), "{line}");
}

#[test]
fn missing_flag_value_is_a_usage_error() {
    let out = repro(&["--seed"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("missing value for `--seed`"), "{line}");
}

#[test]
fn bad_scale_is_a_usage_error() {
    let out = repro(&["--scale", "huge"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("bad scale `huge`"), "{line}");
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    let out = repro(&["table9"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("unknown experiment `table9`"), "{line}");
}

#[test]
fn second_experiment_is_a_usage_error() {
    let out = repro(&["table1", "fig4"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("unexpected argument `fig4`"), "{line}");
}

#[test]
fn table1_runs_without_a_study_and_succeeds() {
    let out = repro(&["table1"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Table 1"));
}

#[test]
fn help_lists_the_checkpoint_flags() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "--checkpoint-dir",
        "--resume",
        "--max-inst-per-bench",
        "130 interrupted",
    ] {
        assert!(text.contains(needle), "help missing `{needle}`");
    }
}

#[test]
fn resume_without_checkpoint_dir_is_a_usage_error() {
    let out = repro(&["--resume", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(
        line.contains("`--resume` requires `--checkpoint-dir`"),
        "{line}"
    );
}

#[test]
fn resume_with_missing_dir_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!(
        "phaselab-no-such-checkpoint-dir-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let out = repro(&[
        "--checkpoint-dir",
        dir.to_str().unwrap(),
        "--resume",
        "table1",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("does not exist"), "{line}");
}

#[test]
fn verify_only_sweeps_the_registry_clean() {
    let out = repro(&["--verify-only", "--scale", "tiny"]);
    assert_eq!(out.status.code(), Some(0), "registry must verify clean");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("all clean"), "{text}");
    assert!(text.contains("programs verified"), "{text}");
}

#[test]
fn verify_only_rejects_an_experiment_argument() {
    let out = repro(&["--verify-only", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(
        line.contains("`--verify-only` cannot be combined with experiment `table1`"),
        "{line}"
    );
}

#[test]
fn verify_only_after_an_experiment_is_also_rejected() {
    let out = repro(&["table1", "--verify-only"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(
        line.contains("`--verify-only` cannot be combined with experiment `table1`"),
        "{line}"
    );
}

#[test]
fn help_lists_verify_only() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("--verify-only"), "help missing --verify-only");
}

#[test]
fn lint_sweeps_the_registry_without_deny_findings() {
    let out = repro(&["lint", "--scale", "tiny"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "registry must carry no deny-severity lints: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("programs linted"), "{text}");
    // Findings are severity-ranked: no warn line may follow an info line.
    let mut seen_info = false;
    for line in text.lines() {
        if line.starts_with("info:") {
            seen_info = true;
        }
        if line.starts_with("warn:") {
            assert!(!seen_info, "warn after info: findings not severity-ranked");
        }
    }
}

#[test]
fn lint_json_emits_the_shared_diagnostics_schema() {
    let out = repro(&["lint", "--scale", "tiny", "--json"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("{\n  \"schema\": 1,"), "{text}");
    for needle in [
        "\"programs\":",
        "\"clean\":",
        "\"findings\":",
        "\"path\":",
        "\"pc\":",
        "\"instruction\":",
        "\"severity\":",
        "\"source\": \"lint\"",
        "\"kind\":",
        "\"message\":",
    ] {
        assert!(text.contains(needle), "lint JSON missing `{needle}`");
    }
}

#[test]
fn verify_only_json_shares_the_lint_schema_and_is_clean() {
    let out = repro(&["--verify-only", "--scale", "tiny", "--json"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("{\n  \"schema\": 1,"), "{text}");
    assert!(text.contains("\"clean\": true"), "{text}");
    assert!(text.contains("\"findings\": []"), "{text}");
    // JSON replaces the human lines entirely.
    assert!(!text.contains("all clean:"), "{text}");
}

#[test]
fn lint_rejects_an_experiment_argument() {
    let out = repro(&["lint", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(
        line.contains("`lint` cannot be combined with experiment"),
        "{line}"
    );
}

#[test]
fn json_without_a_diagnostics_mode_is_a_usage_error() {
    let out = repro(&["--json", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(
        line.contains("`--json` is only meaningful with `lint` or `--verify-only`"),
        "{line}"
    );
}

#[test]
fn metrics_out_in_a_mode_that_writes_no_manifest_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("repro-cli-metrics-{}", std::process::id()));
    let manifest = dir.join("manifest.json");
    let manifest = manifest.to_str().unwrap();
    let spool = dir.join("spool");
    let spool = spool.to_str().unwrap();
    let cases: [&[&str]; 5] = [
        &["lint", "--scale", "tiny"],
        &["--verify-only", "--scale", "tiny"],
        &["cache", "--checkpoint-dir", spool],
        &["jobs", "--queue-dir", spool],
        &["submit", "table3", "--queue-dir", spool],
    ];
    for case in cases {
        let mut args = case.to_vec();
        args.extend(["--metrics-out", manifest]);
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(2), "{case:?}");
        let line = stderr_line(&out);
        assert!(
            line.contains("`--metrics-out` is not written by"),
            "{case:?}: {line}"
        );
    }
    // Rejected while parsing: nothing was created or written.
    assert!(!dir.exists());
}

#[test]
fn help_lists_lint_and_the_static_analysis_flags() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["lint", "--json", "--no-static-analysis"] {
        assert!(text.contains(needle), "help missing `{needle}`");
    }
}

#[test]
fn zero_bench_budget_is_a_usage_error() {
    let out = repro(&["--max-inst-per-bench", "0", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(
        line.contains("bad value `0` for `--max-inst-per-bench`"),
        "{line}"
    );
}

#[test]
fn non_numeric_bench_budget_is_a_usage_error() {
    let out = repro(&["--max-inst-per-bench", "lots", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(
        line.contains("bad value `lots` for `--max-inst-per-bench`"),
        "{line}"
    );
}

#[test]
fn unknown_suite_is_a_usage_error() {
    let out = repro(&["--suites", "spec2017", "table3"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("unknown suite `spec2017`"), "{line}");
}

#[test]
fn unknown_only_benchmark_is_a_usage_error() {
    let out = repro(&["--only", "face,nosuchbench", "table3"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(
        line.contains("unknown benchmark `nosuchbench` for `--only`"),
        "{line}"
    );
}

#[test]
fn missing_metrics_out_value_is_a_usage_error() {
    let out = repro(&["--metrics-out"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("missing value for `--metrics-out`"), "{line}");
}

#[test]
fn help_lists_the_observability_flags() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["--metrics-out", "--progress", "--suites", "--only"] {
        assert!(text.contains(needle), "help missing `{needle}`");
    }
}

#[test]
fn metrics_out_writes_a_manifest_for_a_tiny_run() {
    let dir = std::env::temp_dir().join(format!("phaselab-metrics-out-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("manifest.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--scale",
            "tiny",
            "--interval",
            "20000",
            "--samples",
            "8",
            "--k",
            "12",
            "--only",
            "face,finger,jpeg",
            "--metrics-out",
            manifest.to_str().unwrap(),
            "table3",
        ])
        .env("PHASELAB_OUT", &dir)
        .output()
        .expect("spawn repro");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&manifest).expect("manifest written");
    assert!(text.starts_with("{\n  \"schema\": 1,"), "{text}");
    for needle in [
        "\"config\":",
        "\"experiment\": \"table3\"",
        "\"counters\":",
        "\"study.benchmarks.total\": 3",
        "\"timings\":",
    ] {
        assert!(text.contains(needle), "manifest missing `{needle}`");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streaming_without_checkpoint_dir_is_a_usage_error() {
    let out = repro(&["--streaming", "table3"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(
        line.contains("`--streaming` requires `--checkpoint-dir`"),
        "{line}"
    );
}

#[test]
fn streaming_refuses_experiments_that_need_the_feature_matrix() {
    for exp in ["fig1", "fig23", "motivation", "all"] {
        let out = repro(&["--streaming", "--checkpoint-dir", "/tmp/unused", exp]);
        assert_eq!(out.status.code(), Some(2), "experiment {exp}");
        let line = stderr_line(&out);
        assert!(line.contains("raw feature matrix"), "{exp}: {line}");
    }
}

#[test]
fn malformed_shard_spec_is_a_usage_error() {
    for spec in ["3", "a/b", "2/2", "0/0"] {
        let out = repro(&["--shard", spec, "--checkpoint-dir", "/tmp/unused"]);
        assert_eq!(out.status.code(), Some(2), "spec {spec}");
    }
}

#[test]
fn shard_cannot_be_combined_with_an_experiment() {
    let out = repro(&[
        "--shard",
        "0/2",
        "--checkpoint-dir",
        "/tmp/unused",
        "table3",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("worker pass"), "{line}");
}

#[test]
fn shard_requires_a_checkpoint_dir() {
    let out = repro(&["--shard", "0/2"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(
        line.contains("`--shard` requires `--checkpoint-dir`"),
        "{line}"
    );
}

#[test]
fn zero_kmeans_batch_is_a_usage_error() {
    let out = repro(&["--kmeans-batch", "0", "table3"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(
        line.contains("bad value `0` for `--kmeans-batch`"),
        "{line}"
    );
}

#[test]
fn help_lists_the_sharding_flags() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["--streaming", "--shard I/N", "--reduce N", "--kmeans-batch"] {
        assert!(text.contains(needle), "help missing `{needle}`");
    }
}

#[test]
fn supervise_requires_a_checkpoint_dir() {
    let out = repro(&["--supervise", "2", "table3"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(
        line.contains("`--supervise` requires `--checkpoint-dir`"),
        "{line}"
    );
}

#[test]
fn supervise_cannot_be_combined_with_shard_or_reduce() {
    let out = repro(&[
        "--supervise",
        "2",
        "--shard",
        "0/2",
        "--checkpoint-dir",
        "/tmp/unused",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("cannot be combined"), "{line}");

    let out = repro(&[
        "--supervise",
        "2",
        "--reduce",
        "2",
        "--checkpoint-dir",
        "/tmp/unused",
        "table3",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("already runs the reduce"), "{line}");
}

#[test]
fn zero_supervise_is_a_usage_error() {
    let out = repro(&["--supervise", "0", "--checkpoint-dir", "/tmp/unused"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("bad value `0` for `--supervise`"), "{line}");
}

#[test]
fn supervise_refuses_matrix_experiments_like_streaming_does() {
    let out = repro(&[
        "--supervise",
        "2",
        "--checkpoint-dir",
        "/tmp/unused",
        "fig1",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("raw feature matrix"), "{line}");
}

#[test]
fn help_lists_supervise() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("--supervise N"), "help missing --supervise");
}

/// SIGTERM gets the same cooperative-cancel treatment as Ctrl-C: the
/// run flushes and exits 130 instead of dying mid-write.
#[cfg(unix)]
#[test]
fn sigterm_cancels_cooperatively_with_exit_130() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "small", "table3"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn repro");
    // Let it get into the study before signalling; a small-scale full
    // catalog run takes far longer than this.
    std::thread::sleep(std::time::Duration::from_millis(500));
    let delivered = Command::new("kill")
        .arg("-TERM")
        .arg(child.id().to_string())
        .status()
        .expect("spawn kill")
        .success();
    assert!(delivered, "kill -TERM must reach the child");
    let status = child.wait().expect("wait for repro");
    assert_eq!(status.code(), Some(130), "SIGTERM must exit 130");
}

/// The full sharded protocol end to end at smoke scale: two workers
/// fill one store, the reduce pass analyzes it, and the report is
/// byte-identical to the single-process run's.
#[test]
fn shard_workers_plus_reduce_reproduce_the_single_process_report() {
    let dir = std::env::temp_dir().join(format!("phaselab-shard-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("ckpt");
    let base = [
        "--scale",
        "tiny",
        "--interval",
        "20000",
        "--samples",
        "8",
        "--k",
        "12",
        "--seed",
        "0",
        "--only",
        "face,finger,jpeg",
    ];
    for shard in ["0/2", "1/2"] {
        let mut args: Vec<&str> = base.to_vec();
        args.extend([
            "--shard",
            shard,
            "--checkpoint-dir",
            store.to_str().unwrap(),
        ]);
        let out = repro(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "worker {shard}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let mut args: Vec<&str> = base.to_vec();
    args.extend([
        "--reduce",
        "2",
        "--checkpoint-dir",
        store.to_str().unwrap(),
        "table3",
    ]);
    let reduced = repro(&args);
    assert_eq!(
        reduced.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&reduced.stderr)
    );
    let mut args: Vec<&str> = base.to_vec();
    args.push("table3");
    let single = repro(&args);
    assert_eq!(single.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&single.stdout),
        String::from_utf8_lossy(&reduced.stdout),
        "reduced report must be byte-identical to the single-process report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The supervised mode end to end, with crash/torn/EINTR fault
/// injection armed in the workers: the supervisor restarts the
/// casualties (salvaging any shard that exhausts its restart budget)
/// and the final report is still byte-identical to a fault-free
/// single-process run.
#[cfg(unix)]
#[test]
fn supervised_chaos_run_reproduces_the_single_process_report() {
    let dir = std::env::temp_dir().join(format!("phaselab-supervise-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("ckpt");
    let base = [
        "--scale",
        "tiny",
        "--interval",
        "20000",
        "--samples",
        "8",
        "--k",
        "12",
        "--seed",
        "0",
        "--only",
        "face,finger,jpeg",
    ];
    let mut args: Vec<&str> = base.to_vec();
    args.extend([
        "--supervise",
        "3",
        "--checkpoint-dir",
        store.to_str().unwrap(),
        "table3",
    ]);
    let supervised = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(&args)
        .env(
            "PHASELAB_FAULTS_WORKER",
            "seed=7,crash=0.4,torn=0.2,eintr=0.1",
        )
        .output()
        .expect("spawn repro");
    assert_eq!(
        supervised.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&supervised.stderr)
    );
    let mut args: Vec<&str> = base.to_vec();
    args.push("table3");
    let single = repro(&args);
    assert_eq!(single.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&single.stdout),
        String::from_utf8_lossy(&supervised.stdout),
        "supervised chaos report must be byte-identical to the single-process report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
