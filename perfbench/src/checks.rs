//! Correctness checks on what `repro` prints, and a self-test proving
//! that each check rejects a perturbed output.

/// Benchmarks in the registry; a cold study characterizes all of them.
pub const BENCHMARKS: usize = 77;
/// Guest instructions executed by the 77-benchmark study at `--scale small`.
pub const SMALL_INSTRUCTIONS: u64 = 100_000_703;
/// Full intervals characterized by that study.
pub const SMALL_INTERVALS: usize = 953;

const SPEC_SUITES: [&str; 4] = ["int2000", "fp2000", "int2006", "fp2006"];

/// A report without its `wrote <path>` lines, which name per-run
/// artifact directories and so differ between otherwise equal runs.
fn without_paths(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.starts_with("wrote "))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The study finished over `benchmarks` benchmarks and quarantined none.
pub fn study_stderr(stderr: &str, benchmarks: usize) -> Result<(), String> {
    if let Some(line) = stderr.lines().find(|l| l.contains("quarantined")) {
        return Err(format!("quarantine reported: {line}"));
    }
    let done = stderr
        .lines()
        .find(|l| l.contains("study done in"))
        .ok_or("no `study done` line on stderr")?;
    if done.contains(&format!(": {benchmarks} benchmarks,")) {
        Ok(())
    } else {
        Err(format!("expected {benchmarks} benchmarks: {done}"))
    }
}

/// Table 3's totals line carries the deterministic small-scale counts.
pub fn table3_totals(stdout: &str) -> Result<(), String> {
    let want = format!(
        "total: {BENCHMARKS} benchmarks, {SMALL_INTERVALS} intervals, {SMALL_INSTRUCTIONS} instructions"
    );
    if stdout.lines().any(|l| l == want) {
        Ok(())
    } else {
        let got = stdout.lines().find(|l| l.starts_with("total:"));
        Err(format!("table3 totals: want `{want}`, got {got:?}"))
    }
}

/// The per-suite values of an ASCII bar chart (`name  ████ value`).
fn suite_bars(stdout: &str) -> Vec<(String, f64)> {
    stdout
        .lines()
        .filter_map(|l| {
            let tokens: Vec<&str> = l.split_whitespace().collect();
            let (first, last) = (tokens.first()?, tokens.last()?);
            let known =
                SPEC_SUITES.contains(first) || ["BioPerf", "BMW", "MediaBenchII"].contains(first);
            (known && tokens.len() >= 2)
                .then(|| last.parse::<f64>().ok().map(|v| ((*first).to_string(), v)))
                .flatten()
        })
        .collect()
}

fn bar(bars: &[(String, f64)], suite: &str) -> Result<f64, String> {
    bars.iter()
        .find(|(s, _)| s == suite)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("suite {suite} missing from the chart"))
}

/// Figure 4's shape: every SPEC suite covers more clusters than BMW and
/// than MediaBench II.
pub fn fig4_shape(stdout: &str) -> Result<(), String> {
    let bars = suite_bars(stdout);
    let floor = bar(&bars, "BMW")?.max(bar(&bars, "MediaBenchII")?);
    for spec in SPEC_SUITES {
        let v = bar(&bars, spec)?;
        if v <= floor {
            return Err(format!(
                "fig4: {spec} covers {v} clusters, not above {floor}"
            ));
        }
    }
    Ok(())
}

/// Figure 6's shape: BioPerf has the largest unique-behavior fraction.
pub fn fig6_shape(stdout: &str) -> Result<(), String> {
    let bars = suite_bars(stdout);
    let bio = bar(&bars, "BioPerf")?;
    if bars.len() != 7 {
        return Err(format!("fig6: {} suites charted, want 7", bars.len()));
    }
    match bars.iter().find(|(s, v)| s != "BioPerf" && *v >= bio) {
        Some((s, v)) => Err(format!("fig6: {s} ({v}) is not below BioPerf ({bio})")),
        None => Ok(()),
    }
}

/// Two reports agree byte for byte once artifact paths are dropped.
pub fn same_report(got: &str, want: &str) -> Result<(), String> {
    let (got, want) = (without_paths(got), without_paths(want));
    if got == want {
        return Ok(());
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    Err(format!(
        "report differs from the reference at line {}",
        line + 1
    ))
}

/// Feeds every check one output it must accept and perturbed copies it
/// must reject. Returns how many perturbations were rejected.
pub fn self_test() -> Result<usize, String> {
    let stderr = "[repro] running study: scale=Small\n\
                  [repro] study done in 9.3s: 77 benchmarks, 15400 sampled intervals\n";
    let table3 = "suite benchmark\ntotal: 77 benchmarks, 953 intervals, 100000703 instructions\n\
                  wrote out/table3.csv\n";
    let chart = |v: [f64; 7]| {
        [
            "BioPerf",
            "BMW",
            "int2000",
            "fp2000",
            "int2006",
            "fp2006",
            "MediaBenchII",
        ]
        .iter()
        .zip(v)
        .map(|(s, x)| format!("{s:<13} ████ {x:.3}\n"))
        .collect::<String>()
    };
    let fig4 = chart([42.0, 19.0, 85.0, 53.0, 93.0, 60.0, 24.0]);
    let fig6 = chart([0.972, 0.232, 0.432, 0.605, 0.579, 0.701, 0.191]);
    let report = "== Table 3 ==\nface 6 121463\nwrote a/table3.csv\n";

    type Check = fn(&str) -> Result<(), String>;
    let stderr_check: Check = |s| study_stderr(s, BENCHMARKS);
    let report_check: Check = |s| same_report(s, "== Table 3 ==\nface 6 121463\nwrote b/t.csv\n");
    let cases: [(&str, Check, String, Vec<String>); 5] = [
        (
            "study stderr",
            stderr_check,
            stderr.to_string(),
            vec![
                stderr.replace("77 benchmarks", "76 benchmarks"),
                format!("{stderr}[repro] warning: quarantined lbm [fp2006]\n"),
            ],
        ),
        (
            "table3 totals",
            table3_totals,
            table3.to_string(),
            vec![
                table3.replace("100000703", "100000704"),
                table3.replace("953 intervals", "952 intervals"),
            ],
        ),
        (
            "fig4 shape",
            fig4_shape,
            fig4.clone(),
            vec![
                chart([42.0, 86.0, 85.0, 53.0, 93.0, 60.0, 24.0]),
                chart([42.0, 19.0, 85.0, 53.0, 93.0, 60.0, 60.0]),
            ],
        ),
        (
            "fig6 shape",
            fig6_shape,
            fig6.clone(),
            vec![chart([0.972, 0.232, 0.432, 0.605, 0.579, 0.973, 0.191])],
        ),
        (
            "report identity",
            report_check,
            report.to_string(),
            vec![report.replace("121463", "121464")],
        ),
    ];
    let mut rejected = 0;
    for (name, check, good, bad) in cases {
        check(&good).map_err(|e| format!("self-test: {name} rejects a good output: {e}"))?;
        for b in bad {
            if check(&b).is_ok() {
                return Err(format!("self-test: {name} accepts a perturbed output"));
            }
            rejected += 1;
        }
    }
    Ok(rejected)
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_check_rejects_its_perturbations() {
        assert_eq!(super::self_test(), Ok(8));
    }
}
