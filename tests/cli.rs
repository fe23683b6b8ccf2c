//! Integration tests for the `phaselab` command-line binary.

use std::process::Command;

fn phaselab(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_phaselab"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn list_shows_all_suites_and_counts() {
    let out = phaselab(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for suite in [
        "BioPerf",
        "BioMetricsWorkload",
        "SPECint2000",
        "SPECfp2000",
        "SPECint2006",
        "SPECfp2006",
        "MediaBench II",
    ] {
        assert!(text.contains(suite), "missing suite {suite}");
    }
    assert!(text.contains("77 benchmarks total"));
}

#[test]
fn info_resolves_qualified_names() {
    let out = phaselab(&["info", "BioPerf/blast"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("benchmark:  blast"));
    assert!(text.contains("static instructions"));
}

#[test]
fn ambiguous_bare_name_is_rejected_with_candidates() {
    // bzip2 exists in both int2000 and int2006.
    let out = phaselab(&["info", "bzip2"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("ambiguous"));
    assert!(err.contains("int2000/bzip2"));
    assert!(err.contains("int2006/bzip2"));
}

#[test]
fn unknown_benchmark_fails_cleanly() {
    let out = phaselab(&["info", "nosuch/bench"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("no benchmark"));
}

#[test]
fn characterize_emits_csv_with_selected_features() {
    let out = phaselab(&[
        "characterize",
        "int2006/libquantum",
        "--scale",
        "tiny",
        "--interval",
        "20000",
        "--features",
        "mix_mem_read,branch_taken_rate",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let mut lines = text.lines();
    assert_eq!(
        lines.next().unwrap(),
        "interval,mix_mem_read,branch_taken_rate"
    );
    let first = lines.next().expect("at least one interval");
    assert_eq!(first.split(',').count(), 3);
    // Every data cell parses as a number.
    for cell in first.split(',') {
        cell.parse::<f64>().expect("numeric cell");
    }
}

#[test]
fn aggregate_emits_all_69_features() {
    let out = phaselab(&["aggregate", "BMW/face", "--scale", "tiny"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().count(), 69);
    assert!(text.contains("mix_mem_read,"));
    assert!(text.contains("ppm_pap_hist12,"));
}

#[test]
fn disasm_prints_indexed_instructions() {
    let out = phaselab(&["disasm", "BioPerf/grappa", "--scale", "tiny"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.lines().count() > 20);
    assert!(text.trim_end().ends_with("halt"));
}

#[test]
fn unknown_command_exits_with_usage() {
    let out = phaselab(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("usage"));
}

#[test]
fn help_prints_the_command_table_to_stdout_and_exits_zero() {
    for flag in ["--help", "-h", "help"] {
        let out = phaselab(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(out.stderr.is_empty(), "{flag}");
        let text = String::from_utf8(out.stdout).unwrap();
        for needle in ["characterize <suite>/<bench>", "--scale", "--features"] {
            assert!(text.contains(needle), "{flag}: help missing `{needle}`");
        }
    }
}
