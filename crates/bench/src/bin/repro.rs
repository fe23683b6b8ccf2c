//! `repro` — regenerates every table and figure of Hoste & Eeckhout
//! (ISPASS 2008) from the `phaselab` reproduction.
//!
//! `repro [options] <experiment>`; `repro --help` prints the full list
//! of experiments, options, diagnostics, and service commands (the
//! `USAGE` constant below is the one copy).
//!
//! `--verify-only` is a lint mode: it builds every registry program at
//! the requested `--scale`, runs `Program::verify_all` on each, prints
//! one line per finding, and exits `1` when anything fails — without
//! executing a single instruction. `lint` goes further: it runs the
//! abstract interpreter (`Program::analyze`) over every program and
//! reports severity-ranked diagnostics — unbounded loops without a
//! budget, dead blocks, degenerate constant loops, unreachable fault
//! sites, oversized footprints — exiting `1` only on `deny`-severity
//! findings. Both share one `--json` schema:
//! `{schema, programs, clean, findings: [{path, pc, instruction,
//! severity, source, kind, message}]}`.
//!
//! Text output goes to stdout; SVG/CSV artifacts go to
//! `target/experiments` (override with `PHASELAB_OUT`).
//!
//! Exit codes: `0` on success, `1` when the study itself fails (a
//! runtime error), `2` for usage errors — unknown flags, bad values,
//! unknown experiments — and `130` when interrupted (Ctrl-C).
//! Diagnostics are one line on stderr. Benchmarks quarantined by the
//! study are reported as warnings; the experiments run over the
//! survivors.
//!
//! With `--checkpoint-dir`, every completed benchmark characterization
//! and k-means restart is persisted as it finishes; an interrupted run
//! re-invoked with `--resume` reloads them and produces a bit-identical
//! result.
//!
//! `--supervise N` turns the binary into its own process supervisor: it
//! spawns N `--shard` workers over the shared store, restarts crashed
//! or hung ones with capped exponential backoff, salvages
//! permanently-dead shards in-process, and then runs the streaming
//! reduce — producing a report byte-identical to a fault-free
//! single-process run, or a typed non-zero exit naming the
//! unrecoverable shard. See DESIGN.md §16 for the fault model, the
//! lease/fencing protocol, and the supervisor state machine.
//!
//! `--metrics-out` installs the `phaselab-obs` subscriber and writes
//! one deterministic run manifest (counters, per-benchmark events,
//! k-means pruning stats, GA telemetry, spans) after the run; see
//! DESIGN.md §13. `--progress` prints a throttled stage/progress line
//! to stderr. Both are off by default, leaving the output byte-for-byte
//! what it was without them.

// The only unsafe in the workspace is the signal-handler install in
// `sigint` below, allowed explicitly; everything else is forbidden
// (and CI greps for new `unsafe` outside the allowlist).
#![deny(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use phaselab_bench::write_artifact;
use phaselab_core::{
    characterization_fingerprint, coverage, diversity, format_table, run_shard_with,
    run_study_with_resumable, uniqueness, AnalysisMode, CancelToken, CheckpointStore,
    SamplingPolicy, StudyConfig, StudyError, StudyResult,
};
use phaselab_ga::{greedy_select, select_features, DistanceCorrelationFitness, GaConfig};
use phaselab_mica::{feature_names, FeatureCategory, NUM_FEATURES};
use phaselab_obs::Json;
use phaselab_stats::{kmeans, KmeansConfig};
use phaselab_viz::{
    ascii_bar_chart, ascii_curve, BarChart, KiviatAxisSpec, KiviatPlot, LineChart, PieChart,
};
use phaselab_workloads::{Scale, Suite};

/// Exit code for usage errors (bad flags, bad values, unknown
/// experiments): the caller got the invocation wrong.
const EXIT_USAGE: i32 = 2;
/// Exit code for runtime errors (the study itself failed): the
/// invocation was fine, the run was not.
const EXIT_RUNTIME: i32 = 1;
/// Exit code when the run was interrupted (Ctrl-C), matching the shell
/// convention of 128 + SIGINT.
const EXIT_INTERRUPTED: i32 = 130;

/// Ctrl-C and SIGTERM handling: the signal handler only flips an atomic
/// flag; a watcher thread turns the flag into a [`CancelToken`] trip,
/// which the pipeline observes at its next check. SIGTERM gets the same
/// cooperative treatment as SIGINT so supervised workers flush their
/// checkpoints and release their leases instead of dying mid-write.
/// `unsafe` allowlist: registering an async-signal-safe handler
/// requires the raw `signal(2)` FFI — there is no safe-Rust
/// equivalent without a dependency. The handler body itself is a
/// single atomic store.
#[cfg(unix)]
#[allow(unsafe_code)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    static INTERRUPTED: AtomicBool = AtomicBool::new(false);
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_sig: i32) {
        // Async-signal-safe: a single atomic store, nothing else.
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        }
    }

    pub fn interrupted() -> bool {
        INTERRUPTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sigint {
    pub fn install() {}
    pub fn interrupted() -> bool {
        false
    }
}

/// Installs the Ctrl-C handler and a watcher thread that trips `token`
/// once the signal arrives.
fn install_interrupt_handler(token: &CancelToken) {
    sigint::install();
    let token = token.clone();
    std::thread::spawn(move || loop {
        if sigint::interrupted() {
            eprintln!(
                "[repro] interrupt received; finishing in-flight work and flushing checkpoints"
            );
            token.cancel();
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
}

/// Every experiment the binary knows, validated before any work runs.
const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "fig1",
    "fig23",
    "fig4",
    "fig5",
    "fig6",
    "motivation",
    "implications",
    "simpoints",
    "benchmarks",
    "drift",
    "similarity",
    "ablation-k",
    "ablation-interval",
    "ablation-sampling",
    "all",
];

/// Experiments that read [`StudyResult::features`], the raw
/// interval-by-feature matrix `--streaming` deliberately does not
/// retain.
const STREAMING_INCOMPATIBLE: &[&str] = &["fig1", "fig23", "motivation", "all"];

/// Commands that drive the characterization service instead of running
/// a study in-process. They occupy the experiment slot, like `lint`.
const SERVICE_COMMANDS: &[&str] = &["serve", "submit", "jobs", "cache"];

const USAGE: &str = "usage: repro [options] <experiment>

experiments:
  table1             the 69 characteristics by category (Table 1)
  table2             GA-selected key characteristics (Table 2)
  table3             benchmarks and interval counts (Table 3)
  fig1               GA correlation vs #characteristics (Figure 1)
  fig23              kiviat + pie plots of the prominent phases (Figures 2-3)
  fig4               workload-space coverage per suite (Figure 4)
  fig5               cumulative coverage per suite (Figure 5)
  fig6               unique-behavior fraction per suite (Figure 6)
  motivation         aggregate vs phase-level characterization (2.1)
  implications       simulation-point counts per suite (5.3)
  simpoints          per-benchmark SimPoint accuracy (related work)
  benchmarks         per-benchmark coverage and specificity
  drift              CPU2000 -> CPU2006 benchmark drift
  similarity         benchmark-similarity heatmap + dendrogram cut
  ablation-k         coverage/variability trade-off across k (2.6)
  ablation-interval  interval-granularity sensitivity (2.9)
  ablation-sampling  equal-weight vs proportional sampling (2.4)
  all                everything above, sharing one study run (default)

options:
  --scale tiny|small|full   workload scale        (default: full)
  --interval N              interval length       (default: 100000)
  --samples N               samples per benchmark (default: 200)
  --k N                     clusters              (default: 300)
  --seed N                  master seed           (default: 0)
  --threads N               worker threads        (default: all cores)
  --engine block|inst       VM execution engine: block-compiled dispatch or the
                            per-instruction oracle; results are bit-identical
                            (default: block)
  --suites LIST             restrict the study to these suites (comma-separated:
                            int2000,fp2000,int2006,fp2006,BioPerf,BMW,MediaBenchII)
  --only LIST               restrict the study to these benchmark names
                            (comma-separated; names match across selected suites)
  --checkpoint-dir DIR      persist/reuse study checkpoints in DIR
  --resume                  resume from --checkpoint-dir (must exist)
  --streaming               memory-bounded analysis: stream feature rows out of
                            the checkpoint store instead of materializing the
                            interval-by-feature matrix (requires
                            --checkpoint-dir; results are bit-identical, but
                            fig1/fig23/motivation/all need the matrix and
                            refuse this mode)
  --kmeans-batch N          mini-batch k-means, N sampled points per iteration
                            (approximate; the exact Hamerly solver when omitted)
  --shard I/N               worker pass of a sharded study: characterize shard
                            I of N (round-robin by catalog index) into the
                            checkpoint store and exit; no analysis runs.
                            Launch one worker per I, then reduce.
  --reduce N                reduce pass of a sharded study: analyze a store
                            filled by N shard workers (implies --streaming;
                            combine with a streaming-capable experiment)
  --supervise N             supervised sharded study: spawn N shard workers as
                            child processes, restart crashed/hung ones with
                            capped backoff, salvage permanently-dead shards
                            in-process, then run the reduce (implies
                            --streaming; requires --checkpoint-dir; combine
                            with a streaming-capable experiment)
  --max-inst-per-bench N    quarantine benchmarks exceeding N instructions
                            (when absent, a sound budget is derived from the
                            static analyzer's per-benchmark instruction bound)
  --no-static-analysis      skip the static pre-flight: no derived watchdog
                            budgets, no dead-code pruning, no longest-first
                            shard ordering, no static_analysis manifest section
                            (results are bit-identical either way)
  --metrics-out PATH        write the run manifest (JSON) to PATH (studies,
                            --shard and serve only)
  --progress                throttled stage/progress lines on stderr
  --verify-only             statically verify every registry program, run nothing
  --json                    machine-readable diagnostics (lint/--verify-only)
  --help                    print this help and exit

diagnostics:
  lint               abstract-interpretation lints over every registry program
                     (unbounded loops, dead blocks, degenerate constant loops,
                     unreachable faults, oversized footprints); exits 1 on any
                     deny-severity finding. Combine with --json for the
                     machine-readable schema shared with --verify-only.

service (characterization-as-a-service over a spool directory):
  serve              run the job server over --queue-dir: admit submissions
                     under the --jobs concurrency budget, dedupe identical
                     specs to one execution, run each job as a child repro
                     process against the shared store under the queue root.
                     --drain exits once the queue is empty; otherwise serve
                     until interrupted. PHASELAB_SERVE_TIMEOUT_MS bounds each
                     job's wall clock.
  submit [EXPERIMENT] submit a job built from the study flags above to
                     --queue-dir and print its name (default experiment: all).
                     With --wait, poll until it completes, print the result
                     location, and exit 1 if the job failed.
  jobs               list every submission in --queue-dir with its state
  cache [stats|gc]   result-cache maintenance over --checkpoint-dir, usable
                     without the server: `stats` (the default) prints entry
                     and byte counts by kind; `gc` evicts least-recently-used
                     entries down to --max-bytes, skipping pinned fingerprints

service options:
  --queue-dir DIR    the spool directory (serve/submit/jobs; created on first
                     use; holds queue state, results, and the shared store)
  --jobs N           serve: max concurrently executing jobs (default: 2)
  --drain            serve: exit when the queue is empty and nothing is running
  --wait             submit: block until the job completes
  --max-bytes N      cache gc: evict down to this many bytes

exit codes: 0 success, 1 study/runtime error, 2 usage error, 130 interrupted";

/// Everything `parse_args` extracts from the command line.
struct Cli {
    cfg: StudyConfig,
    command: String,
    checkpoint_dir: Option<std::path::PathBuf>,
    /// `--only`: benchmark-name filter over the selected suites.
    only: Vec<String>,
    /// `--metrics-out`: run-manifest destination.
    metrics_out: Option<std::path::PathBuf>,
    /// `--progress`: throttled stderr stage/progress lines.
    progress: bool,
    /// `--shard I/N`: run the worker pass for shard I (N is
    /// `cfg.shard_total`) instead of an experiment.
    shard: Option<u32>,
    /// `--supervise N`: spawn and babysit N shard workers, then reduce.
    supervise: Option<u32>,
    /// `--json`: machine-readable diagnostics for `lint`/`--verify-only`.
    json: bool,
    /// `--queue-dir`: the spool directory for `serve`/`submit`/`jobs`.
    queue_dir: Option<std::path::PathBuf>,
    /// `--jobs N`: the serve loop's concurrency budget.
    jobs_budget: usize,
    /// `--drain`: serve exits once the queue runs dry.
    drain: bool,
    /// `--wait`: submit blocks until its job completes.
    wait: bool,
    /// `--max-bytes N`: the `cache gc` size budget.
    max_bytes: Option<u64>,
    /// The service command's own positional: the experiment for
    /// `submit`, the action for `cache`.
    subarg: Option<String>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let cli = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("repro: {msg} (try `repro --help`)");
            std::process::exit(EXIT_USAGE);
        }
    };
    if cli.command == "--verify-only" {
        std::process::exit(verify_only(cli.cfg.scale, cli.json));
    }
    if cli.command == "lint" {
        std::process::exit(lint_registry(cli.cfg.scale, cli.json));
    }
    if SERVICE_COMMANDS.contains(&cli.command.as_str()) {
        std::process::exit(run_service(&cli));
    }
    let store = match &cli.checkpoint_dir {
        Some(dir) => match CheckpointStore::open(dir) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("repro: cannot open checkpoint dir `{}`: {e}", dir.display());
                std::process::exit(EXIT_RUNTIME);
            }
        },
        None => None,
    };
    if cli.metrics_out.is_some() || cli.progress {
        phaselab_obs::install();
    }
    let progress_stop = cli.progress.then(spawn_progress_reporter);
    let token = CancelToken::new();
    install_interrupt_handler(&token);
    let outcome = if let Some(shard_index) = cli.shard {
        let s = store
            .as_ref()
            .expect("parse_args requires --checkpoint-dir for --shard");
        run_shard_worker(&cli.cfg, shard_index, &cli.only, s, &token)
    } else if let Some(shards) = cli.supervise {
        let s = store
            .as_ref()
            .expect("parse_args requires --checkpoint-dir for --supervise");
        run_supervised(&cli, &args, shards, s, &token)
    } else {
        run_experiment(&cli.cfg, &cli.command, &cli.only, store.as_ref(), &token)
    };
    if let Some(stop) = progress_stop {
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    match outcome {
        Ok(()) => {
            if let Some(path) = &cli.metrics_out {
                write_metrics_manifest(&cli.cfg, &cli.command, path);
            }
        }
        Err(StudyError::Cancelled) => {
            match &store {
                Some(s) => eprintln!(
                    "repro: interrupted; resume with `--checkpoint-dir {} --resume`",
                    s.dir().display()
                ),
                None => eprintln!(
                    "repro: interrupted (re-run with --checkpoint-dir to make runs resumable)"
                ),
            }
            std::process::exit(EXIT_INTERRUPTED);
        }
        Err(e) => {
            eprintln!("repro: {e}");
            std::process::exit(EXIT_RUNTIME);
        }
    }
}

/// Renders the run manifest and writes it to `path`. The config section
/// deliberately excludes the thread count: everything outside the
/// manifest's `timings` section is identical across thread counts.
fn write_metrics_manifest(cfg: &StudyConfig, command: &str, path: &Path) {
    let Some(reg) = phaselab_obs::registry() else {
        return;
    };
    let config = vec![
        ("experiment".to_string(), Json::Str(command.to_string())),
        (
            "fingerprint".to_string(),
            Json::Str(format!("{:016x}", characterization_fingerprint(cfg))),
        ),
        (
            "scale".to_string(),
            Json::Str(format!("{:?}", cfg.scale).to_lowercase()),
        ),
        (
            "engine".to_string(),
            Json::Str(cfg.engine.name().to_string()),
        ),
        ("interval_len".to_string(), Json::U64(cfg.interval_len)),
        (
            "samples_per_benchmark".to_string(),
            Json::U64(cfg.samples_per_benchmark as u64),
        ),
        ("k".to_string(), Json::U64(cfg.k as u64)),
        ("seed".to_string(), Json::U64(cfg.seed)),
    ];
    let doc = phaselab_obs::manifest_json(reg, &config, true);
    match std::fs::write(path, doc) {
        Ok(()) => eprintln!("[repro] wrote metrics manifest {}", path.display()),
        Err(e) => {
            eprintln!(
                "repro: cannot write metrics manifest `{}`: {e}",
                path.display()
            );
            std::process::exit(EXIT_RUNTIME);
        }
    }
}

/// Spawns the `--progress` reporter: a detached thread that prints a
/// stage/progress line to stderr whenever it changes (checked twice a
/// second). Returns the flag that stops it.
fn spawn_progress_reporter() -> std::sync::Arc<std::sync::atomic::AtomicBool> {
    use std::sync::atomic::{AtomicBool, Ordering};
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    let stop_seen = std::sync::Arc::clone(&stop);
    std::thread::spawn(move || {
        let Some(reg) = phaselab_obs::registry() else {
            return;
        };
        let started = Instant::now();
        let mut last = String::new();
        while !stop_seen.load(Ordering::SeqCst) {
            std::thread::sleep(std::time::Duration::from_millis(500));
            let stage = reg.stage();
            if stage.is_empty() || stage == "done" {
                continue;
            }
            let done = reg.counter_value("study.benchmarks.done").unwrap_or(0);
            let total = reg.counter_value("study.benchmarks.total").unwrap_or(0);
            let line = if stage == "characterize" && total > 0 && done > 0 {
                let elapsed = started.elapsed().as_secs_f64();
                let eta = elapsed * (total.saturating_sub(done)) as f64 / done as f64;
                format!("[repro] progress: {stage} {done}/{total} benchmarks (eta {eta:.0}s)")
            } else {
                format!("[repro] progress: stage {stage}")
            };
            if line != last {
                eprintln!("{line}");
                last = line;
            }
        }
    });
    stop
}

fn run_experiment(
    cfg: &StudyConfig,
    command: &str,
    only: &[String],
    store: Option<&CheckpointStore>,
    token: &CancelToken,
) -> Result<(), StudyError> {
    let study = if command == "table1" {
        None
    } else {
        eprintln!(
            "[repro] running study: scale={:?} interval={} samples={} k={}",
            cfg.scale, cfg.interval_len, cfg.samples_per_benchmark, cfg.k
        );
        let t = Instant::now();
        let r = run_filtered_study(cfg, only, store, token)?;
        eprintln!(
            "[repro] study done in {:.1}s: {} benchmarks, {} sampled intervals, {} PCs ({:.1}% var), {} prominent phases covering {:.1}%",
            t.elapsed().as_secs_f64(),
            r.benchmarks.len(),
            r.sampled.len(),
            r.pcs_retained,
            r.variance_explained * 100.0,
            r.prominent.len(),
            r.prominent_coverage * 100.0
        );
        warn_quarantined(&r.quarantined);
        if let Some(budget) = cfg.max_inst_per_bench {
            warn_near_budget(&r, budget);
        }
        Some(r)
    };

    match command {
        "table1" => table1(),
        "table2" => table2(study.as_ref().unwrap()),
        "table3" => table3(study.as_ref().unwrap()),
        "fig1" => fig1(study.as_ref().unwrap()),
        "fig23" => fig23(study.as_ref().unwrap()),
        "fig4" => fig4(study.as_ref().unwrap()),
        "fig5" => fig5(study.as_ref().unwrap()),
        "fig6" => fig6(study.as_ref().unwrap()),
        "motivation" => motivation(study.as_ref().unwrap()),
        "implications" => implications(study.as_ref().unwrap()),
        "simpoints" => simpoints(study.as_ref().unwrap()),
        "benchmarks" => benchmarks_report(study.as_ref().unwrap()),
        "drift" => drift(study.as_ref().unwrap()),
        "similarity" => similarity(study.as_ref().unwrap()),
        "ablation-k" => ablation_k(study.as_ref().unwrap()),
        "ablation-interval" => ablation_interval(study.as_ref().unwrap(), cfg, only, store, token)?,
        "ablation-sampling" => ablation_sampling(study.as_ref().unwrap(), cfg, only, store, token)?,
        "all" => {
            let r = study.as_ref().unwrap();
            table1();
            table2(r);
            table3(r);
            fig1(r);
            fig23(r);
            fig4(r);
            fig5(r);
            fig6(r);
            motivation(r);
            implications(r);
            simpoints(r);
            benchmarks_report(r);
            drift(r);
            similarity(r);
            ablation_k(r);
            ablation_interval(r, cfg, only, store, token)?;
            ablation_sampling(r, cfg, only, store, token)?;
        }
        other => unreachable!("experiment `{other}` validated at parse time"),
    }
    Ok(())
}

/// One diagnostic from a registry-wide static pass — the shared record
/// behind the `lint` and `--verify-only` text and `--json` outputs. The
/// JSON schema (`schema: 1`) is validated in CI by
/// `scripts/check_manifest.py --diagnostics`.
struct Finding {
    /// `suite/bench/input`, the registry coordinates of the program.
    path: String,
    pc: u32,
    instruction: String,
    /// `deny` | `warn` | `info`; every verifier finding is `deny`.
    severity: &'static str,
    /// Which pass produced it: `verify` or `lint`.
    source: &'static str,
    /// Kebab-case diagnostic kind (e.g. `dead-block`, `verify-error`).
    kind: String,
    message: String,
}

/// Sort key: most severe first, then registry order, then pc.
fn severity_rank(severity: &str) -> u8 {
    match severity {
        "deny" => 0,
        "warn" => 1,
        _ => 2,
    }
}

/// Renders the shared diagnostics document:
/// `{schema, programs, clean, findings: [{path, pc, instruction,
/// severity, source, kind, message}]}`.
fn findings_json(programs: usize, findings: &[Finding]) -> String {
    let items = findings
        .iter()
        .map(|f| {
            Json::Obj(vec![
                ("path".to_string(), Json::Str(f.path.clone())),
                ("pc".to_string(), Json::U64(u64::from(f.pc))),
                ("instruction".to_string(), Json::Str(f.instruction.clone())),
                ("severity".to_string(), Json::Str(f.severity.to_string())),
                ("source".to_string(), Json::Str(f.source.to_string())),
                ("kind".to_string(), Json::Str(f.kind.clone())),
                ("message".to_string(), Json::Str(f.message.clone())),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".to_string(), Json::U64(1)),
        ("programs".to_string(), Json::U64(programs as u64)),
        ("clean".to_string(), Json::Bool(findings.is_empty())),
        ("findings".to_string(), Json::Arr(items)),
    ])
    .render_pretty()
}

/// `--verify-only`: build every registry program at the requested scale
/// and run the static verifier over each, executing nothing. One stdout
/// line per finding (or the shared diagnostics JSON with `--json`); the
/// exit code says whether the registry is clean.
fn verify_only(scale: Scale, json: bool) -> i32 {
    let mut findings = Vec::new();
    let mut programs = 0usize;
    for bench in phaselab_workloads::catalog() {
        for input in 0..bench.num_inputs() {
            let program = bench.build(scale, input);
            programs += 1;
            for err in program.verify_all() {
                if !json {
                    println!(
                        "{} [{}] input `{}`: {err}",
                        bench.name(),
                        bench.suite().short_name(),
                        bench.input_names()[input]
                    );
                }
                findings.push(Finding {
                    path: format!(
                        "{}/{}/{}",
                        bench.suite().short_name(),
                        bench.name(),
                        bench.input_names()[input]
                    ),
                    pc: err.pc(),
                    instruction: err.instruction().to_string(),
                    severity: "deny",
                    source: "verify",
                    kind: "verify-error".to_string(),
                    message: err.to_string(),
                });
            }
        }
    }
    if json {
        print!("{}", findings_json(programs, &findings));
    } else if findings.is_empty() {
        println!("all clean: {programs} programs verified");
    }
    if findings.is_empty() {
        0
    } else {
        eprintln!(
            "repro: {} static-verification findings across {programs} programs",
            findings.len()
        );
        EXIT_RUNTIME
    }
}

/// `lint`: run the abstract interpreter over every registry program at
/// the requested scale — no execution — and report the severity-ranked
/// diagnostics (unbounded loops without a budget, dead blocks,
/// degenerate constant loops, unreachable fault sites, oversized
/// footprints). A program the verifier rejects outright surfaces as a
/// `deny`/`verify` finding, same as `--verify-only`. Exits `1` only
/// when a `deny`-severity finding exists: `warn`/`info` diagnostics are
/// advisory and leave the exit code at `0`.
fn lint_registry(scale: Scale, json: bool) -> i32 {
    let mut findings = Vec::new();
    let mut programs = 0usize;
    for bench in phaselab_workloads::catalog() {
        for input in 0..bench.num_inputs() {
            let program = bench.build(scale, input);
            programs += 1;
            let path = format!(
                "{}/{}/{}",
                bench.suite().short_name(),
                bench.name(),
                bench.input_names()[input]
            );
            match program.analyze() {
                Ok(report) => {
                    for lint in &report.lints {
                        findings.push(Finding {
                            path: path.clone(),
                            pc: lint.pc,
                            instruction: lint.instr.clone(),
                            severity: lint.severity.as_str(),
                            source: "lint",
                            kind: lint.kind.as_str().to_string(),
                            message: lint.message.clone(),
                        });
                    }
                }
                Err(err) => findings.push(Finding {
                    path,
                    pc: err.pc(),
                    instruction: err.instruction().to_string(),
                    severity: "deny",
                    source: "verify",
                    kind: "verify-error".to_string(),
                    message: err.to_string(),
                }),
            }
        }
    }
    // Most severe first; within a severity keep registry order (the
    // catalog walk above), which the stable sort preserves.
    findings.sort_by_key(|f| severity_rank(f.severity));
    let denied = findings.iter().filter(|f| f.severity == "deny").count();
    if json {
        print!("{}", findings_json(programs, &findings));
    } else {
        for f in &findings {
            println!(
                "{}: {} pc={} `{}`: {} [{}]",
                f.severity, f.path, f.pc, f.instruction, f.message, f.kind
            );
        }
        println!(
            "{programs} programs linted: {} findings ({denied} deny)",
            findings.len()
        );
    }
    if denied == 0 {
        0
    } else {
        eprintln!("repro: {denied} deny-severity lint findings across {programs} programs");
        EXIT_RUNTIME
    }
}

/// One warning line per quarantined benchmark; the study itself carried
/// on over the survivors.
fn warn_quarantined(quarantined: &[phaselab_core::QuarantinedBenchmark]) {
    for q in quarantined {
        eprintln!("[repro] warning: quarantined {q}");
    }
}

/// `--shard I/N`: the worker pass of a sharded study. Characterizes
/// this shard's benchmarks into the shared store (under the streaming
/// protocol fingerprint) and reports the tally; the analysis happens
/// later, in the `--reduce` pass.
fn run_shard_worker(
    cfg: &StudyConfig,
    shard_index: u32,
    only: &[String],
    store: &CheckpointStore,
    token: &CancelToken,
) -> Result<(), StudyError> {
    eprintln!(
        "[repro] shard worker {}/{}: characterizing into {}",
        shard_index,
        cfg.shard_total,
        store.dir().display()
    );
    let t = Instant::now();
    let benches = select_benchmarks(cfg, only);
    let summary = run_shard_with(cfg, &benches, shard_index, store, Some(token))?;
    eprintln!(
        "[repro] shard {}/{} done in {:.1}s: {} assigned, {} characterized, {} quarantined",
        summary.shard_index,
        summary.shard_total,
        t.elapsed().as_secs_f64(),
        summary.assigned,
        summary.characterized,
        summary.quarantined.len()
    );
    warn_quarantined(&summary.quarantined);
    Ok(())
}

/// Flags whose value must travel with them when the supervisor rebuilds
/// the worker argv from its own.
const VALUE_FLAGS: &[&str] = &[
    "--scale",
    "--interval",
    "--samples",
    "--k",
    "--seed",
    "--threads",
    "--engine",
    "--suites",
    "--only",
    "--checkpoint-dir",
    "--kmeans-batch",
    "--max-inst-per-bench",
];

/// Builds the child worker argv from the supervisor's own argv: keeps
/// the study-shape flags (scale, seed, filters, the checkpoint dir),
/// drops `--supervise` itself (each child gets `--shard I/N` appended
/// by the supervisor instead), the experiment token (workers
/// characterize; only the parent reduces), and the parent-only flags
/// (`--metrics-out`, `--progress`, `--resume`, `--streaming`).
fn worker_argv(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a == "--supervise" || a == "--metrics-out" {
            i += 2; // flag + value
        } else if a == "--no-static-analysis" {
            // Boolean study-shape flag: workers must make the same
            // static-analysis decision as the parent or the store
            // fingerprints would describe differently-derived budgets.
            out.push(args[i].clone());
            i += 1;
        } else if VALUE_FLAGS.contains(&a) {
            out.push(args[i].clone());
            if let Some(v) = args.get(i + 1) {
                out.push(v.clone());
            }
            i += 2;
        } else {
            // `--progress`, `--resume`, `--streaming`, and the
            // experiment token are parent-side concerns; anything else
            // was already rejected by parse_args.
            i += 1;
        }
    }
    out
}

/// `--supervise N`: spawns N `--shard` worker processes over the shared
/// store, restarts crashed or hung ones with capped backoff, salvages
/// permanently-dead shards in-process, and then runs the streaming
/// reduce — one command, chaos-tolerant end to end. The report is
/// byte-identical to a fault-free single-process run because every
/// worker writes idempotent content-fingerprinted checkpoints.
fn run_supervised(
    cli: &Cli,
    args: &[String],
    shards: u32,
    store: &CheckpointStore,
    token: &CancelToken,
) -> Result<(), StudyError> {
    let sup = phaselab_bench::supervise::SuperviseConfig::from_env(
        shards,
        store.dir().to_path_buf(),
        worker_argv(args),
        cli.cfg.seed,
    );
    eprintln!(
        "[repro] supervising {shards} shard workers over {}",
        store.dir().display()
    );
    let report = phaselab_bench::supervise::supervise(&sup, token, |shard_index| {
        run_shard_worker(&cli.cfg, shard_index, &cli.only, store, token)
    })?;
    eprintln!(
        "[repro] supervision done: {} restart(s), {} shard(s) salvaged in-process",
        report.restarts,
        report.salvaged.len()
    );
    run_experiment(&cli.cfg, &cli.command, &cli.only, Some(store), token)
}

// ---------------------------------------------------------------------
// Characterization-as-a-service: `serve`, `submit`, `jobs`, `cache`
// (DESIGN.md §18). The server and queue mechanics live in
// `phaselab-serve`; this side owns the real job runner — each job is a
// child `repro` invocation against the shared store under the queue
// root, which is what makes a served report byte-identical to a direct
// run.
// ---------------------------------------------------------------------

/// Dispatches a service command; returns the process exit code.
fn run_service(cli: &Cli) -> i32 {
    match cli.command.as_str() {
        "serve" => cmd_serve(cli),
        "submit" => cmd_submit(cli),
        "jobs" => cmd_jobs(cli),
        "cache" => cmd_cache(cli),
        other => unreachable!("`{other}` is not a service command"),
    }
}

fn open_queue(cli: &Cli) -> Result<phaselab_serve::Queue, i32> {
    let dir = cli
        .queue_dir
        .as_ref()
        .expect("parse_args requires --queue-dir for queue commands");
    phaselab_serve::Queue::open(dir).map_err(|e| {
        eprintln!("repro: cannot open queue dir `{}`: {e}", dir.display());
        EXIT_RUNTIME
    })
}

/// `repro serve`: runs the job server over the spool directory until
/// interrupted (or until the queue drains, with `--drain`).
fn cmd_serve(cli: &Cli) -> i32 {
    let queue = match open_queue(cli) {
        Ok(q) => q,
        Err(code) => return code,
    };
    if cli.metrics_out.is_some() {
        phaselab_obs::install();
    }
    let token = CancelToken::new();
    install_interrupt_handler(&token);
    let scfg = phaselab_serve::ServeConfig {
        jobs: cli.jobs_budget,
        drain: cli.drain,
        // Per-job wall-clock budget; unset (or 0) means unbounded.
        job_timeout: phaselab_core::lease::env_knob("PHASELAB_SERVE_TIMEOUT_MS")
            .map(std::time::Duration::from_millis),
        ..phaselab_serve::ServeConfig::default()
    };
    eprintln!(
        "[repro] serving {} with a budget of {} job(s){}",
        queue.root().display(),
        scfg.jobs,
        if scfg.drain { " (drain mode)" } else { "" }
    );
    let report = match phaselab_serve::serve(&queue, &scfg, &token, &run_served_job) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro: serve loop failed: {e}");
            return EXIT_RUNTIME;
        }
    };
    eprintln!(
        "[repro] serve done: {} admitted, {} deduped, {} completed, {} failed, {} requeued",
        report.admitted, report.deduped, report.completed, report.failed, report.requeued
    );
    if let Some(path) = &cli.metrics_out {
        write_metrics_manifest(&cli.cfg, "serve", path);
    }
    if token.is_cancelled() && !cli.drain {
        EXIT_INTERRUPTED
    } else {
        0
    }
}

/// The real job runner: executes one served study as a child `repro`
/// process with the spec's own argv plus the server-owned flags, and
/// publishes the child's stdout as the job's report. Running the exact
/// direct-invocation argv is the byte-identity argument: a served
/// study IS a direct run, just spawned by the server.
fn run_served_job(
    spec: &phaselab_serve::JobSpec,
    ctx: &phaselab_serve::JobContext,
) -> Result<String, String> {
    use phaselab_bench::supervise::{spawn_repro, stop};
    // Hold a pin on the study's checkpoints so a concurrent `cache gc`
    // cannot evict entries out from under the child.
    let _pin = pin_spec(spec, &ctx.store_dir);
    std::fs::create_dir_all(&ctx.results_dir).map_err(|e| e.to_string())?;
    let report_tmp = ctx.results_dir.join("report.txt.tmp");
    let report_out =
        std::fs::File::create(&report_tmp).map_err(|e| format!("cannot stage report file: {e}"))?;
    let mut args: Vec<std::ffi::OsString> = spec.argv().into_iter().map(Into::into).collect();
    args.extend([
        "--checkpoint-dir".into(),
        ctx.store_dir.clone().into(),
        "--metrics-out".into(),
        ctx.results_dir.join("manifest.json").into(),
    ]);
    let mut child = spawn_repro(&args, report_out.into())
        .map_err(|e| format!("cannot spawn job child: {e}"))?;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => {
                if status.success() {
                    std::fs::rename(&report_tmp, ctx.results_dir.join("report.txt"))
                        .map_err(|e| format!("cannot publish report: {e}"))?;
                    return Ok(ctx.results_dir.display().to_string());
                }
                let _ = std::fs::remove_file(&report_tmp);
                return Err(format!("job child exited with {status}"));
            }
            Ok(None) => {}
            Err(e) => return Err(format!("cannot wait for job child: {e}")),
        }
        let timed_out = ctx.deadline.is_some_and(|d| std::time::Instant::now() >= d);
        if ctx.cancel.is_cancelled() || timed_out {
            stop([&mut child]);
            let _ = std::fs::remove_file(&report_tmp);
            return Err(if timed_out {
                "job exceeded its wall-clock budget".to_string()
            } else {
                "server shutting down".to_string()
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

/// Computes the study's characterization fingerprint exactly the way
/// the child will (same argv through the same `parse_args`, same
/// defaults) and pins it in the shared store for the job's duration.
fn pin_spec(spec: &phaselab_serve::JobSpec, store_dir: &Path) -> Option<phaselab_core::PinGuard> {
    let cli = parse_args(&spec.argv()).ok()?;
    let cache = phaselab_core::ResultCache::open(store_dir).ok()?;
    cache.pin(characterization_fingerprint(&cli.cfg)).ok()
}

/// Builds the job spec a `submit` invocation describes: the study
/// shape from the parsed flags plus the submitted experiment.
fn job_spec_from_cli(cli: &Cli) -> phaselab_serve::JobSpec {
    let scale = match cli.cfg.scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Full => "full",
    };
    phaselab_serve::JobSpec {
        experiment: cli.subarg.clone().unwrap_or_else(|| "all".to_string()),
        scale: scale.to_string(),
        interval_len: cli.cfg.interval_len,
        samples: cli.cfg.samples_per_benchmark as u64,
        k: cli.cfg.k as u64,
        seed: cli.cfg.seed,
        engine: cli.cfg.engine.name().to_string(),
        suites: cli
            .cfg
            .suites
            .as_ref()
            .map(|s| s.iter().map(|x| x.short_name().to_string()).collect()),
        only: cli.only.clone(),
        max_inst_per_bench: cli.cfg.max_inst_per_bench,
        static_analysis: cli.cfg.static_analysis,
        kmeans_batch: cli.cfg.kmeans_batch.map(|b| b as u64),
    }
}

/// `repro submit [EXPERIMENT]`: publishes one job to the spool and
/// prints its name on stdout; with `--wait`, polls until a server
/// completes it.
fn cmd_submit(cli: &Cli) -> i32 {
    let queue = match open_queue(cli) {
        Ok(q) => q,
        Err(code) => return code,
    };
    let spec = job_spec_from_cli(cli);
    let name = match queue.submit(&spec) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("repro: submit failed: {e}");
            return EXIT_RUNTIME;
        }
    };
    println!("{name}");
    eprintln!(
        "[repro] submitted `{}` as {name} (fingerprint {:016x})",
        spec.experiment,
        spec.fingerprint()
    );
    if !cli.wait {
        return 0;
    }
    let token = CancelToken::new();
    install_interrupt_handler(&token);
    loop {
        if let Some(rec) = queue.read_done(&name) {
            eprintln!("[repro] job {name}: {} ({})", rec.status, rec.detail);
            return match rec.status {
                phaselab_serve::JobStatus::Failed => EXIT_RUNTIME,
                _ => 0,
            };
        }
        if token.is_cancelled() {
            eprintln!("[repro] wait interrupted; the job stays queued");
            return EXIT_INTERRUPTED;
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
}

/// `repro jobs`: one line per submission with its current state.
fn cmd_jobs(cli: &Cli) -> i32 {
    let queue = match open_queue(cli) {
        Ok(q) => q,
        Err(code) => return code,
    };
    let rows = match queue.list() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro: cannot list queue: {e}");
            return EXIT_RUNTIME;
        }
    };
    for row in &rows {
        println!("{:<10} {}", row.state, row.name);
    }
    match queue.depth() {
        Ok(d) => eprintln!(
            "[repro] {} pending, {} running, {} done",
            d.pending, d.running, d.done
        ),
        Err(e) => eprintln!("repro: cannot read queue depth: {e}"),
    }
    0
}

/// `repro cache [stats|gc]`: result-cache accounting and eviction over
/// `--checkpoint-dir`, no server required.
fn cmd_cache(cli: &Cli) -> i32 {
    let dir = cli
        .checkpoint_dir
        .as_ref()
        .expect("parse_args requires --checkpoint-dir for cache");
    let cache = match phaselab_core::ResultCache::open(dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("repro: cannot open store `{}`: {e}", dir.display());
            return EXIT_RUNTIME;
        }
    };
    match cli.subarg.as_deref().unwrap_or("stats") {
        "stats" => match cache.stats() {
            Ok(s) => {
                println!("store              {}", dir.display());
                println!(
                    "benchmark entries  {:>8}  ({} bytes)",
                    s.bench_entries, s.bench_bytes
                );
                println!(
                    "clustering entries {:>8}  ({} bytes)",
                    s.clustering_entries, s.clustering_bytes
                );
                println!("fingerprints       {:>8}", s.fingerprints);
                println!("pinned             {:>8}", s.pinned);
                println!(
                    "total              {:>8}  ({} bytes)",
                    s.total_entries(),
                    s.total_bytes()
                );
                0
            }
            Err(e) => {
                eprintln!("repro: cache stats failed: {e}");
                EXIT_RUNTIME
            }
        },
        "gc" => {
            let budget = cli
                .max_bytes
                .expect("parse_args requires --max-bytes for cache gc");
            match cache.gc(budget) {
                Ok(rep) => {
                    println!(
                        "evicted {} entries ({} bytes); {} pinned kept; {} bytes remain",
                        rep.evicted_entries,
                        rep.evicted_bytes,
                        rep.pinned_skipped,
                        rep.remaining_bytes
                    );
                    0
                }
                Err(e) => {
                    eprintln!("repro: cache gc failed: {e}");
                    EXIT_RUNTIME
                }
            }
        }
        other => unreachable!("parse_args admits only stats|gc, got `{other}`"),
    }
}

/// The benchmarks a study or shard worker runs: the catalog restricted
/// to `cfg.suites`, then to the `--only` names when any are given, so
/// `--only` composes with `--suites`. Direct, sharded and reduce passes
/// all select through here, which keeps the round-robin shard deal and
/// the reducer's list identical.
fn select_benchmarks(cfg: &StudyConfig, only: &[String]) -> Vec<phaselab_workloads::Benchmark> {
    phaselab_workloads::catalog()
        .into_iter()
        .filter(|b| {
            cfg.suites
                .as_ref()
                .is_none_or(|suites| suites.contains(&b.suite()))
        })
        .filter(|b| only.is_empty() || only.iter().any(|name| name == b.name()))
        .collect()
}

/// Runs the study over [`select_benchmarks`].
fn run_filtered_study(
    cfg: &StudyConfig,
    only: &[String],
    store: Option<&CheckpointStore>,
    token: &CancelToken,
) -> Result<StudyResult, StudyError> {
    run_study_with_resumable(cfg, &select_benchmarks(cfg, only), store, Some(token))
}

/// With the watchdog armed, reports the top-3 benchmarks closest to the
/// instruction budget, so near-runaway workloads are visible before
/// they quarantine. Ties break by name for a stable line.
fn warn_near_budget(r: &StudyResult, budget: u64) {
    let mut rows: Vec<(f64, String)> = r
        .benchmarks
        .iter()
        .map(|b| {
            (
                b.total_instructions as f64 / budget as f64,
                format!("{} [{}]", b.name, b.suite.short_name()),
            )
        })
        .collect();
    rows.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("finite budget fractions")
            .then_with(|| a.1.cmp(&b.1))
    });
    let top: Vec<String> = rows
        .iter()
        .take(3)
        .map(|(frac, name)| format!("{name} {:.1}%", frac * 100.0))
        .collect();
    if !top.is_empty() {
        eprintln!(
            "[repro] watchdog: closest to the {budget}-instruction budget: {}",
            top.join(", ")
        );
    }
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cfg = StudyConfig::paper_scaled();
    let mut command: Option<String> = None;
    let mut checkpoint_dir: Option<std::path::PathBuf> = None;
    let mut only: Vec<String> = Vec::new();
    let mut metrics_out: Option<std::path::PathBuf> = None;
    let mut progress = false;
    let mut json = false;
    let mut resume = false;
    let mut streaming = false;
    let mut shard: Option<(u32, u32)> = None;
    let mut reduce: Option<u32> = None;
    let mut supervise: Option<u32> = None;
    let mut queue_dir: Option<std::path::PathBuf> = None;
    let mut jobs_budget: usize = 2;
    let mut drain = false;
    let mut wait = false;
    let mut max_bytes: Option<u64> = None;
    let mut subarg: Option<String> = None;
    let mut i = 0;
    let value = |args: &[String], i: usize| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("missing value for `{}`", args[i]))
    };
    fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse()
            .map_err(|_| format!("bad value `{v}` for `{flag}`"))
    }
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let v = value(args, i)?;
                i += 1;
                cfg.scale = match v.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    s => return Err(format!("bad scale `{s}` (expected tiny|small|full)")),
                };
            }
            "--interval" => {
                let v = value(args, i)?;
                i += 1;
                cfg.interval_len = parse_num("--interval", &v)?;
            }
            "--samples" => {
                let v = value(args, i)?;
                i += 1;
                cfg.samples_per_benchmark = parse_num("--samples", &v)?;
            }
            "--k" => {
                let v = value(args, i)?;
                i += 1;
                cfg.k = parse_num("--k", &v)?;
                cfg.n_prominent = cfg.n_prominent.min(cfg.k);
            }
            "--seed" => {
                let v = value(args, i)?;
                i += 1;
                cfg.seed = parse_num("--seed", &v)?;
            }
            "--threads" => {
                let v = value(args, i)?;
                i += 1;
                cfg.threads = parse_num("--threads", &v)?;
            }
            "--engine" => {
                let v = value(args, i)?;
                i += 1;
                cfg.engine = phaselab_core::Engine::parse(&v)
                    .ok_or_else(|| format!("bad engine `{v}` (expected block|inst)"))?;
            }
            "--checkpoint-dir" => {
                let v = value(args, i)?;
                i += 1;
                checkpoint_dir = Some(std::path::PathBuf::from(v));
            }
            "--suites" => {
                let v = value(args, i)?;
                i += 1;
                let mut suites = Vec::new();
                for name in v.split(',').filter(|s| !s.is_empty()) {
                    let suite = Suite::ALL
                        .into_iter()
                        .find(|s| s.short_name().eq_ignore_ascii_case(name))
                        .ok_or_else(|| {
                            format!(
                                "unknown suite `{name}` (expected int2000|fp2000|int2006|fp2006|BioPerf|BMW|MediaBenchII)"
                            )
                        })?;
                    if !suites.contains(&suite) {
                        suites.push(suite);
                    }
                }
                if suites.is_empty() {
                    return Err("empty suite list for `--suites`".to_string());
                }
                cfg.suites = Some(suites);
            }
            "--only" => {
                let v = value(args, i)?;
                i += 1;
                let catalog = phaselab_workloads::catalog();
                for name in v.split(',').filter(|s| !s.is_empty()) {
                    if !catalog.iter().any(|b| b.name() == name) {
                        return Err(format!("unknown benchmark `{name}` for `--only`"));
                    }
                    let owned = name.to_string();
                    if !only.contains(&owned) {
                        only.push(owned);
                    }
                }
                if only.is_empty() {
                    return Err("empty benchmark list for `--only`".to_string());
                }
            }
            "--metrics-out" => {
                let v = value(args, i)?;
                i += 1;
                metrics_out = Some(std::path::PathBuf::from(v));
            }
            "--progress" => progress = true,
            "--json" => json = true,
            "--no-static-analysis" => cfg.static_analysis = false,
            "--resume" => resume = true,
            "--streaming" => streaming = true,
            "--kmeans-batch" => {
                let v = value(args, i)?;
                i += 1;
                let batch: usize = parse_num("--kmeans-batch", &v)?;
                if batch == 0 {
                    return Err("bad value `0` for `--kmeans-batch` (must be positive)".to_string());
                }
                cfg.kmeans_batch = Some(batch);
            }
            "--shard" => {
                let v = value(args, i)?;
                i += 1;
                let (idx, total) = v
                    .split_once('/')
                    .ok_or_else(|| format!("bad value `{v}` for `--shard` (expected I/N)"))?;
                let idx: u32 = parse_num("--shard", idx)?;
                let total: u32 = parse_num("--shard", total)?;
                if total == 0 || idx >= total {
                    return Err(format!("bad shard `{v}` (need 0 <= I < N, N > 0)"));
                }
                shard = Some((idx, total));
            }
            "--reduce" => {
                let v = value(args, i)?;
                i += 1;
                let total: u32 = parse_num("--reduce", &v)?;
                if total == 0 {
                    return Err("bad value `0` for `--reduce` (must be positive)".to_string());
                }
                reduce = Some(total);
            }
            "--supervise" => {
                let v = value(args, i)?;
                i += 1;
                let n: u32 = parse_num("--supervise", &v)?;
                if n == 0 {
                    return Err("bad value `0` for `--supervise` (must be positive)".to_string());
                }
                supervise = Some(n);
            }
            // Occupies the experiment slot: the lint mode runs instead
            // of (never alongside) an experiment.
            "--verify-only" => {
                if let Some(first) = &command {
                    return Err(format!(
                        "`--verify-only` cannot be combined with experiment `{first}`"
                    ));
                }
                command = Some("--verify-only".to_string());
            }
            // Like `--verify-only`, `lint` occupies the experiment slot:
            // it runs the abstract interpreter instead of a study.
            "lint" => {
                if let Some(first) = &command {
                    return Err(format!(
                        "`lint` cannot be combined with experiment `{first}`"
                    ));
                }
                command = Some("lint".to_string());
            }
            "--queue-dir" => {
                let v = value(args, i)?;
                i += 1;
                queue_dir = Some(std::path::PathBuf::from(v));
            }
            "--jobs" => {
                let v = value(args, i)?;
                i += 1;
                jobs_budget = parse_num("--jobs", &v)?;
                if jobs_budget == 0 {
                    return Err("bad value `0` for `--jobs` (must be positive)".to_string());
                }
            }
            "--drain" => drain = true,
            "--wait" => wait = true,
            "--max-bytes" => {
                let v = value(args, i)?;
                i += 1;
                max_bytes = Some(parse_num("--max-bytes", &v)?);
            }
            "--max-inst-per-bench" => {
                let v = value(args, i)?;
                i += 1;
                let budget: u64 = parse_num("--max-inst-per-bench", &v)?;
                if budget == 0 {
                    return Err(
                        "bad value `0` for `--max-inst-per-bench` (must be positive)".to_string(),
                    );
                }
                cfg.max_inst_per_bench = Some(budget);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            cmd => {
                if let Some(first) = &command {
                    // `submit` and `cache` take one positional of their
                    // own: the experiment to submit, the cache action.
                    let takes_subarg = (first == "submit" && EXPERIMENTS.contains(&cmd))
                        || (first == "cache" && (cmd == "stats" || cmd == "gc"));
                    if takes_subarg && subarg.is_none() {
                        subarg = Some(cmd.to_string());
                    } else if first == "--verify-only" || first == "lint" {
                        return Err(format!(
                            "`{first}` cannot be combined with experiment `{cmd}`"
                        ));
                    } else {
                        return Err(format!(
                            "unexpected argument `{cmd}` (experiment `{first}` already given)"
                        ));
                    }
                } else if SERVICE_COMMANDS.contains(&cmd) || EXPERIMENTS.contains(&cmd) {
                    command = Some(cmd.to_string());
                } else {
                    return Err(format!("unknown experiment `{cmd}`"));
                }
            }
        }
        i += 1;
    }
    if resume {
        let Some(dir) = &checkpoint_dir else {
            return Err("`--resume` requires `--checkpoint-dir`".to_string());
        };
        if !Path::new(dir).is_dir() {
            return Err(format!(
                "`--resume` given but checkpoint dir `{}` does not exist",
                dir.display()
            ));
        }
    }
    if let Some((idx, total)) = shard {
        if let Some(cmd) = &command {
            return Err(format!(
                "`--shard` is the worker pass; it cannot be combined with experiment `{cmd}`"
            ));
        }
        if reduce.is_some() {
            return Err(
                "`--shard` and `--reduce` are separate passes; run them as separate invocations"
                    .to_string(),
            );
        }
        if checkpoint_dir.is_none() {
            return Err(
                "`--shard` requires `--checkpoint-dir` (the shared store is the worker's output)"
                    .to_string(),
            );
        }
        cfg.shard_total = total;
        // Workers checkpoint under the streaming protocol fingerprint —
        // the reduce pass is the only consumer of a sharded store.
        cfg.analysis = AnalysisMode::Streaming;
        let _ = idx; // carried in Cli::shard
    }
    if let Some(total) = reduce {
        cfg.shard_total = total;
        streaming = true;
    }
    if let Some(n) = supervise {
        if shard.is_some() {
            return Err(
                "`--supervise` spawns the `--shard` workers itself; the flags cannot be combined"
                    .to_string(),
            );
        }
        if reduce.is_some() {
            return Err("`--supervise` already runs the reduce pass; drop `--reduce`".to_string());
        }
        if checkpoint_dir.is_none() {
            return Err(
                "`--supervise` requires `--checkpoint-dir` (the shared store coordinates workers)"
                    .to_string(),
            );
        }
        cfg.shard_total = n;
        // Workers fill the store under the streaming protocol; the
        // supervisor's reduce streams rows back out of it.
        cfg.analysis = AnalysisMode::Streaming;
    }
    if streaming {
        cfg.analysis = AnalysisMode::Streaming;
        if checkpoint_dir.is_none() {
            return Err(
                "`--streaming` requires `--checkpoint-dir` (the store is the streamed row source)"
                    .to_string(),
            );
        }
    }
    // The worker pass occupies the experiment slot, like --verify-only.
    let command = if shard.is_some() {
        "--shard".to_string()
    } else {
        command.unwrap_or_else(|| "all".to_string())
    };
    if shard.is_none()
        && cfg.analysis == AnalysisMode::Streaming
        && STREAMING_INCOMPATIBLE.contains(&command.as_str())
    {
        return Err(format!(
            "experiment `{command}` reads the raw feature matrix, which `--streaming` does not \
             retain (pick a streaming-capable experiment, e.g. table3 or fig4)"
        ));
    }
    if json && command != "lint" && command != "--verify-only" {
        return Err(
            "`--json` is only meaningful with `lint` or `--verify-only` (diagnostics modes)"
                .to_string(),
        );
    }
    if metrics_out.is_some()
        && matches!(
            command.as_str(),
            "lint" | "--verify-only" | "submit" | "jobs" | "cache"
        )
    {
        return Err(format!(
            "`--metrics-out` is not written by `{command}` (only studies, `--shard` and \
             `serve` write a run manifest)"
        ));
    }
    if SERVICE_COMMANDS.contains(&command.as_str()) {
        if matches!(command.as_str(), "serve" | "submit" | "jobs") && queue_dir.is_none() {
            return Err(format!(
                "`{command}` requires `--queue-dir` (the spool directory)"
            ));
        }
        if command == "cache" && checkpoint_dir.is_none() {
            return Err("`cache` requires `--checkpoint-dir` (the store to account)".to_string());
        }
        if command == "cache" && subarg.as_deref() == Some("gc") && max_bytes.is_none() {
            return Err("`cache gc` requires `--max-bytes` (the eviction budget)".to_string());
        }
        if supervise.is_some() || reduce.is_some() || streaming || resume {
            return Err(format!(
                "`{command}` cannot be combined with study-execution flags \
                 (--supervise/--reduce/--streaming/--resume); pass study shape flags only"
            ));
        }
    }
    Ok(Cli {
        cfg,
        command,
        checkpoint_dir,
        only,
        metrics_out,
        progress,
        shard: shard.map(|(idx, _)| idx),
        supervise,
        json,
        queue_dir,
        jobs_budget,
        drain,
        wait,
        max_bytes,
        subarg,
    })
}

/// Table 1: the characteristic categories and counts.
fn table1() {
    println!("\n== Table 1: microarchitecture-independent characteristics ==\n");
    let names = feature_names();
    let rows: Vec<Vec<String>> = FeatureCategory::ALL
        .into_iter()
        .map(|cat| {
            let members: Vec<&str> = cat.range().map(|i| names[i]).collect();
            vec![
                cat.name().to_string(),
                cat.range().len().to_string(),
                members.join(", "),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(&["category", "#", "characteristics"], &rows)
    );
    println!("total: {NUM_FEATURES} characteristics (paper: 69)");
}

/// Table 2: the GA-selected key characteristics.
fn table2(r: &StudyResult) {
    println!("\n== Table 2: key characteristics retained by the GA ==\n");
    let names = feature_names();
    let rows: Vec<Vec<String>> = r
        .key_characteristics
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            vec![
                (i + 1).to_string(),
                names[f].to_string(),
                FeatureCategory::of(f).name().to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(&["#", "characteristic", "category"], &rows)
    );
    println!(
        "distance correlation of the reduced space: {:.3} (paper: ~0.83 with 12)",
        r.ga_fitness
    );
    let csv_rows: Vec<Vec<String>> = rows;
    let mut buf = Vec::new();
    phaselab_core::write_csv(&mut buf, &["rank", "characteristic", "category"], &csv_rows)
        .expect("csv");
    let path = write_artifact("table2.csv", &String::from_utf8(buf).expect("utf8"));
    println!("wrote {}", path.display());
}

/// Table 3: benchmarks and interval counts.
fn table3(r: &StudyResult) {
    println!("\n== Table 3: benchmarks and characterized interval counts ==\n");
    let rows: Vec<Vec<String>> = r
        .benchmarks
        .iter()
        .map(|b| {
            vec![
                b.suite.name().to_string(),
                b.name.clone(),
                b.input_names.len().to_string(),
                b.total_intervals().to_string(),
                b.total_instructions.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["suite", "benchmark", "inputs", "intervals", "instructions"],
            &rows
        )
    );
    let totals: (usize, u64) = r.benchmarks.iter().fold((0, 0), |(iv, ins), b| {
        (iv + b.total_intervals(), ins + b.total_instructions)
    });
    println!(
        "total: {} benchmarks, {} intervals, {} instructions",
        r.benchmarks.len(),
        totals.0,
        totals.1
    );
    let mut buf = Vec::new();
    phaselab_core::write_csv(
        &mut buf,
        &["suite", "benchmark", "inputs", "intervals", "instructions"],
        &rows,
    )
    .expect("csv");
    let path = write_artifact("table3.csv", &String::from_utf8(buf).expect("utf8"));
    println!("wrote {}", path.display());
}

/// Figure 1: GA distance correlation vs number of retained
/// characteristics, with a greedy forward-selection baseline.
fn fig1(r: &StudyResult) {
    println!("\n== Figure 1: distance correlation vs #key characteristics ==\n");
    let rep_rows: Vec<usize> = r.prominent.iter().map(|p| p.representative_row).collect();
    if rep_rows.len() < 3 {
        println!("(study too small for figure 1)");
        return;
    }
    let rep_matrix = r.features.select_rows(&rep_rows);
    let fitness = DistanceCorrelationFitness::new(&rep_matrix, r.config.pca_sd_threshold)
        .with_threads(r.config.threads);
    let score = |mask: &[bool]| fitness.score(mask);

    let max_k = 20.min(NUM_FEATURES);
    let mut ga_pts = Vec::new();
    let mut greedy_pts = Vec::new();
    let mut rows = Vec::new();
    for k in 1..=max_k {
        let ga_cfg = GaConfig::study(r.config.seed + k as u64).with_threads(r.config.threads);
        let ga = select_features(NUM_FEATURES, k, &score, &ga_cfg);
        let (_, greedy_fit) = greedy_select(NUM_FEATURES, k, &score);
        ga_pts.push((k as f64, ga.fitness));
        greedy_pts.push((k as f64, greedy_fit));
        rows.push(vec![
            k.to_string(),
            format!("{:.3}", ga.fitness),
            format!("{:.3}", greedy_fit),
        ]);
    }
    println!(
        "{}",
        format_table(
            &["#characteristics", "GA correlation", "greedy correlation"],
            &rows
        )
    );
    println!(
        "{}",
        ascii_curve(
            &[
                ("GA".into(), ga_pts.clone()),
                ("greedy".into(), greedy_pts.clone())
            ],
            48,
            12,
        )
    );
    let chart = LineChart::new(
        "Figure 1: distance correlation vs retained characteristics",
        "number of retained characteristics",
        "Pearson correlation",
        vec![("GA".into(), ga_pts), ("greedy".into(), greedy_pts)],
    );
    let path = write_artifact("fig1.svg", &chart.to_svg(560.0, 320.0));
    println!("\nwrote {}", path.display());
}

/// Figures 2–3: kiviat plots and pie charts of the prominent phases.
fn fig23(r: &StudyResult) {
    println!("\n== Figures 2-3: prominent phase kiviat plots ==\n");
    let mut by_kind: BTreeMap<&'static str, Vec<usize>> = BTreeMap::new();
    for (i, p) in r.prominent.iter().enumerate() {
        by_kind.entry(p.kind.name()).or_default().push(i);
    }
    for (kind, phases) in &by_kind {
        println!("{kind} clusters: {}", phases.len());
    }

    let mut listing = String::new();
    for (idx, phase) in r.prominent.iter().enumerate() {
        let axes: Vec<KiviatAxisSpec> = r
            .kiviat_axes(phase)
            .into_iter()
            .map(|a| {
                KiviatAxisSpec::new(
                    a.name.to_string(),
                    a.normalized_value(),
                    a.normalized_rings(),
                )
            })
            .collect();
        let title = format!(
            "phase {idx:03} ({}, weight {:.2}%)",
            phase.kind,
            phase.weight * 100.0
        );
        let kiviat = KiviatPlot::new(&title).with_axes(axes);
        write_artifact(
            &format!("fig23_phase{idx:03}_kiviat.svg"),
            &kiviat.to_svg(320.0),
        );

        let slices: Vec<(String, f64)> = phase
            .composition
            .iter()
            .take(9)
            .map(|s| {
                let b = &r.benchmarks[s.bench];
                (
                    format!("{} [{}]", b.name, b.suite.short_name()),
                    s.cluster_share,
                )
            })
            .collect();
        let rest: f64 = phase
            .composition
            .iter()
            .skip(9)
            .map(|s| s.cluster_share)
            .sum();
        let mut slices = slices;
        if rest > 0.0 {
            slices.push(("other".into(), rest));
        }
        let pie = PieChart::new(&title, slices);
        write_artifact(&format!("fig23_phase{idx:03}_pie.svg"), &pie.to_svg(200.0));

        let _ = write!(
            listing,
            "phase {idx:03}  weight {:6.2}%  {:<19}  ",
            phase.weight * 100.0,
            phase.kind.name()
        );
        let comp: Vec<String> = phase
            .composition
            .iter()
            .take(4)
            .map(|s| {
                let b = &r.benchmarks[s.bench];
                format!(
                    "{}[{}] {:.0}% (covers {:.1}% of it)",
                    b.name,
                    b.suite.short_name(),
                    s.cluster_share * 100.0,
                    s.benchmark_fraction * 100.0
                )
            })
            .collect();
        listing.push_str(&comp.join(", "));
        if phase.composition.len() > 4 {
            let _ = write!(listing, ", … +{}", phase.composition.len() - 4);
        }
        listing.push('\n');
    }
    // An HTML gallery over the per-phase SVG pairs, grouped by kind.
    let mut html = String::from(
        "<!doctype html><meta charset=\"utf-8\"><title>phaselab: prominent phases</title>\n\
         <style>body{font-family:sans-serif} .phase{display:inline-block;margin:8px;\n\
         border:1px solid #ddd;padding:4px;vertical-align:top} h2{margin:18px 4px 6px}</style>\n\
         <h1>Figures 2\u{2013}3: the prominent phases</h1>\n",
    );
    for (kind, phases) in &by_kind {
        let _ = writeln!(html, "<h2>{kind} ({} clusters)</h2>", phases.len());
        for &idx in phases {
            let _ = writeln!(
                html,
                "<div class=\"phase\"><img src=\"fig23_phase{idx:03}_kiviat.svg\" width=\"240\">\
                 <br><img src=\"fig23_phase{idx:03}_pie.svg\" width=\"240\"></div>"
            );
        }
    }
    write_artifact("fig23_index.html", &html);
    let path = write_artifact("fig23_phases.txt", &listing);
    println!(
        "\nper-phase listing and {} kiviat/pie SVG pairs written under {}",
        r.prominent.len(),
        path.parent().unwrap().display()
    );

    // Print the five heaviest phases inline for a quick look.
    println!("\nfive heaviest phases:");
    for line in listing.lines().take(5) {
        println!("  {line}");
    }
}

/// Figure 4: workload-space coverage per suite.
fn fig4(r: &StudyResult) {
    println!("\n== Figure 4: workload-space coverage per suite ==\n");
    let cov = coverage(r);
    let bars: Vec<(String, f64)> = cov
        .iter()
        .map(|c| (c.suite.short_name().to_string(), c.clusters_touched as f64))
        .collect();
    println!("{}", ascii_bar_chart(&bars, 40));
    println!(
        "(of {} non-empty clusters)",
        cov.first().map_or(0, |c| c.total_clusters)
    );
    let chart = BarChart::new(
        "Figure 4: workload-space coverage per suite",
        "#clusters",
        bars,
    );
    let path = write_artifact("fig4.svg", &chart.to_svg(560.0, 320.0));
    println!("wrote {}", path.display());
}

/// Figure 5: cumulative coverage per suite.
fn fig5(r: &StudyResult) {
    println!("\n== Figure 5: cumulative coverage per suite ==\n");
    let curves = diversity(r);
    let series: Vec<(String, Vec<(f64, f64)>)> = curves
        .iter()
        .map(|c| {
            (
                c.suite.short_name().to_string(),
                c.cumulative
                    .iter()
                    .enumerate()
                    .map(|(i, &y)| ((i + 1) as f64, y))
                    .collect(),
            )
        })
        .collect();
    println!("{}", ascii_curve(&series, 56, 14));
    let rows: Vec<Vec<String>> = curves
        .iter()
        .map(|c| {
            vec![
                c.suite.short_name().to_string(),
                c.clusters_to_cover(0.8).to_string(),
                c.clusters_to_cover(0.9).to_string(),
                c.cumulative.len().to_string(),
            ]
        })
        .collect();
    println!(
        "\n{}",
        format_table(
            &[
                "suite",
                "clusters to 80%",
                "clusters to 90%",
                "clusters touched"
            ],
            &rows
        )
    );
    let chart = LineChart::new(
        "Figure 5: cumulative coverage per suite",
        "number of clusters",
        "cumulative coverage",
        series,
    );
    let path = write_artifact("fig5.svg", &chart.to_svg(620.0, 360.0));
    println!("wrote {}", path.display());
}

/// Figure 6: unique-behavior fraction per suite.
fn fig6(r: &StudyResult) {
    println!("\n== Figure 6: fraction of unique behavior per suite ==\n");
    let uniq = uniqueness(r);
    let bars: Vec<(String, f64)> = uniq
        .iter()
        .map(|u| (u.suite.short_name().to_string(), u.unique_fraction))
        .collect();
    println!("{}", ascii_bar_chart(&bars, 40));
    let chart = BarChart::new(
        "Figure 6: fraction of unique behavior per suite",
        "fraction",
        bars,
    );
    let path = write_artifact("fig6.svg", &chart.to_svg(560.0, 320.0));
    println!("wrote {}", path.display());
}

/// §2.1's motivating argument: an aggregate characterization can be
/// badly misleading when a program's phases differ. For each benchmark,
/// compare the whole-execution mean of the memory-read fraction with its
/// per-interval extremes; rank benchmarks by how wrong the mean is.
fn motivation(r: &StudyResult) {
    println!("\n== Motivation (§2.1): aggregate vs phase-level view ==\n");
    let mem_read = phaselab_mica::feature_index("mix_mem_read").expect("known feature");
    struct Row {
        name: String,
        suite: &'static str,
        mean: f64,
        min: f64,
        max: f64,
    }
    let mut rows: Vec<Row> = Vec::new();
    for (bench_idx, bench) in r.benchmarks.iter().enumerate() {
        let vals: Vec<f64> = r
            .sampled
            .iter()
            .enumerate()
            .filter(|(_, s)| s.bench == bench_idx)
            .map(|(row, _)| r.features.get(row, mem_read))
            .collect();
        if vals.is_empty() {
            continue;
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        rows.push(Row {
            name: bench.name.clone(),
            suite: bench.suite.short_name(),
            mean,
            min,
            max,
        });
    }
    rows.sort_by(|a, b| {
        let spread_a = a.max - a.min;
        let spread_b = b.max - b.min;
        spread_b.partial_cmp(&spread_a).expect("finite spreads")
    });
    let table: Vec<Vec<String>> = rows
        .iter()
        .take(10)
        .map(|x| {
            vec![
                format!("{} [{}]", x.name, x.suite),
                format!("{:.1}%", x.mean * 100.0),
                format!("{:.1}%", x.min * 100.0),
                format!("{:.1}%", x.max * 100.0),
                format!("{:.1}pp", (x.max - x.min) * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "benchmark",
                "aggregate mean",
                "interval min",
                "interval max",
                "spread"
            ],
            &table
        )
    );
    println!(
        "(a designer sizing load/store resources from the aggregate column\n\
         would badly mis-provision the extreme phases — the paper's §2.1 example)"
    );
}

/// §5.3's implications: how many representative simulation points each
/// suite needs, and the simulation-time saving of phase-level sampling.
fn implications(r: &StudyResult) {
    println!("\n== Implications (§5.3): simulation points per suite ==\n");
    let curves = diversity(r);
    let total_intervals: usize = r
        .benchmarks
        .iter()
        .map(phaselab_core::BenchmarkRun::total_intervals)
        .sum();
    let rows: Vec<Vec<String>> = curves
        .iter()
        .map(|c| {
            vec![
                c.suite.short_name().to_string(),
                c.clusters_to_cover(0.8).to_string(),
                c.clusters_to_cover(0.9).to_string(),
                c.clusters_to_cover(0.95).to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "suite",
                "points for 80%",
                "points for 90%",
                "points for 95%"
            ],
            &rows
        )
    );
    println!(
        "simulating one representative interval per prominent phase: {} intervals\n\
         instead of {} characterized intervals ({:.0}x reduction at {:.1}% coverage)",
        r.prominent.len(),
        total_intervals,
        total_intervals as f64 / r.prominent.len().max(1) as f64,
        r.prominent_coverage * 100.0
    );
    println!(
        "(the paper's takeaway: CPU2006 needs only slightly more simulation\n\
         points than CPU2000; BMW and MediaBench II add few behaviors beyond\n\
         CPU2006 + BioPerf, so simulating them may not pay off)"
    );
}

/// Per-benchmark coverage and specificity: which benchmarks contribute
/// the benchmark-specific clusters of Figures 2-3, and which blend into
/// mixed behavior.
fn benchmarks_report(r: &StudyResult) {
    println!("\n== Per-benchmark coverage and specificity ==\n");
    let mut stats = phaselab_core::benchmark_stats(r);
    stats.sort_by(|a, b| {
        b.benchmark_specific
            .partial_cmp(&a.benchmark_specific)
            .expect("finite fractions")
    });
    let rows: Vec<Vec<String>> = stats
        .iter()
        .map(|s| {
            let b = &r.benchmarks[s.bench];
            vec![
                format!("{} [{}]", b.name, b.suite.short_name()),
                s.clusters_touched.to_string(),
                format!("{:.1}%", s.benchmark_specific * 100.0),
                format!("{:.1}%", s.suite_specific * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "benchmark",
                "clusters",
                "benchmark-specific",
                "suite-specific"
            ],
            &rows
        )
    );
    let mut buf = Vec::new();
    phaselab_core::write_csv(
        &mut buf,
        &[
            "benchmark",
            "clusters",
            "benchmark_specific",
            "suite_specific",
        ],
        &rows,
    )
    .expect("csv");
    let path = write_artifact("benchmarks.csv", &String::from_utf8(buf).expect("utf8"));
    println!("wrote {}", path.display());
}

/// SimPoint-style per-benchmark simulation points (the related-work
/// application of the phase taxonomy): classify each benchmark's
/// intervals against the study's clustering, pick one representative per
/// phase, and measure how well the weighted representatives reconstruct
/// the benchmark's aggregate instruction mix.
fn simpoints(r: &StudyResult) {
    println!("\n== SimPoints: weighted phase representatives per benchmark ==\n");
    let catalog = phaselab_workloads::catalog();
    let mix_range = phaselab_mica::FeatureCategory::Mix.range();
    // A representative cross-section of suites and behavior styles.
    let picks = [
        ("BioPerf", "blast"),
        ("int2000", "gcc"),
        ("int2006", "libquantum"),
        ("fp2006", "cactusADM"),
        ("MediaBenchII", "jpeg"),
        ("BMW", "speak"),
    ];
    let mut rows = Vec::new();
    for (suite, name) in picks {
        let Some(bench) = catalog
            .iter()
            .find(|b| b.suite().short_name() == suite && b.name() == name)
        else {
            continue;
        };
        let program = bench.build(r.config.scale, 0);
        let (features, _) = match phaselab_core::characterize_program(
            &program,
            r.config.interval_len,
            r.config.max_instructions_per_run,
        ) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("[repro] warning: skipping {name} [{suite}]: {e}");
                continue;
            }
        };
        if features.is_empty() {
            continue;
        }
        let timeline = phaselab_core::PhaseTimeline {
            clusters: features
                .iter()
                .map(|f| r.classify(f.as_slice()).0)
                .collect(),
        };
        let points = phaselab_core::simulation_points(&timeline, &features);
        let err = phaselab_core::reconstruction_error(&points, &features, mix_range.clone());
        rows.push(vec![
            format!("{name} [{suite}]"),
            features.len().to_string(),
            points.len().to_string(),
            format!("{:.1}x", features.len() as f64 / points.len().max(1) as f64),
            format!("{:.2e}", err),
            timeline.render().chars().take(44).collect::<String>(),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "benchmark",
                "intervals",
                "sim points",
                "reduction",
                "mix MAE",
                "phase timeline"
            ],
            &rows
        )
    );
    println!(
        "(simulating only the weighted representatives reconstructs the\n\
         aggregate instruction mix to within the MAE column — SimPoint's\n\
         premise, built on this paper's cross-benchmark taxonomy)"
    );
}

/// Benchmark similarity: mean per-benchmark positions in the rescaled
/// PCA space, hierarchically clustered (the dendrogram view of the
/// authors' companion similarity papers) and rendered as a heatmap with
/// similar benchmarks adjacent.
fn similarity(r: &StudyResult) {
    println!("\n== Benchmark similarity (companion-methodology view) ==\n");
    let dims = r.space.cols();
    let nb = r.benchmarks.len();
    let mut sums = vec![vec![0.0; dims]; nb];
    let mut counts = vec![0usize; nb];
    for (row, s) in r.sampled.iter().enumerate() {
        counts[s.bench] += 1;
        for (a, &v) in sums[s.bench].iter_mut().zip(r.space.row(row)) {
            *a += v;
        }
    }
    let centers: Vec<Vec<f64>> = sums
        .into_iter()
        .zip(&counts)
        .map(|(s, &n)| s.into_iter().map(|v| v / n.max(1) as f64).collect())
        .collect();
    let mut dist = phaselab_stats::Matrix::zeros(nb, nb);
    for i in 0..nb {
        for j in 0..nb {
            dist.set(i, j, phaselab_stats::distance(&centers[i], &centers[j]));
        }
    }
    let dendro = phaselab_stats::hierarchical_cluster(&dist);
    let order = dendro.leaf_order();

    // Heatmap in dendrogram order.
    let labels: Vec<String> = order
        .iter()
        .map(|&i| {
            format!(
                "{} [{}]",
                r.benchmarks[i].name,
                r.benchmarks[i].suite.short_name()
            )
        })
        .collect();
    let values: Vec<Vec<f64>> = order
        .iter()
        .map(|&i| order.iter().map(|&j| dist.get(i, j)).collect())
        .collect();
    let heatmap = phaselab_viz::Heatmap::new(
        "Benchmark distance (dendrogram-ordered; dark = similar)",
        labels,
        values,
    );
    let path = write_artifact("similarity_heatmap.svg", &heatmap.to_svg(9.0));
    println!("wrote {}", path.display());

    // Most similar cross-suite pairs: the paper's mixed clusters should
    // resurface here.
    let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..nb {
        for j in (i + 1)..nb {
            if r.benchmarks[i].suite != r.benchmarks[j].suite {
                pairs.push((i, j, dist.get(i, j)));
            }
        }
    }
    pairs.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite distances"));
    let rows: Vec<Vec<String>> = pairs
        .iter()
        .take(8)
        .map(|&(i, j, d)| {
            vec![
                format!(
                    "{} [{}]",
                    r.benchmarks[i].name,
                    r.benchmarks[i].suite.short_name()
                ),
                format!(
                    "{} [{}]",
                    r.benchmarks[j].name,
                    r.benchmarks[j].suite.short_name()
                ),
                format!("{d:.2}"),
            ]
        })
        .collect();
    println!("closest cross-suite benchmark pairs:");
    println!(
        "{}",
        format_table(&["benchmark", "benchmark", "distance"], &rows)
    );

    // Dendrogram cut: how many benchmark families exist at half the
    // median pair distance?
    let median = {
        let mut ds: Vec<f64> = pairs.iter().map(|p| p.2).collect();
        ds.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        ds[ds.len() / 2]
    };
    let cut = dendro.cut(median / 2.0);
    let families = cut.iter().max().map_or(0, |m| m + 1);
    println!("dendrogram cut at half the median distance: {families} benchmark families");
}

/// Benchmark drift (Yi et al., cited in the paper's intro): how far did
/// the benchmarks carried over from CPU2000 to CPU2006 move in the
/// workload space, relative to the typical distance between unrelated
/// benchmarks?
fn drift(r: &StudyResult) {
    println!("\n== Benchmark drift: CPU2000 -> CPU2006 carried-over codes ==\n");
    // Mean position of each benchmark in the rescaled PCA space.
    let dims = r.space.cols();
    let mut sums = vec![vec![0.0; dims]; r.benchmarks.len()];
    let mut counts = vec![0usize; r.benchmarks.len()];
    for (row, s) in r.sampled.iter().enumerate() {
        counts[s.bench] += 1;
        for (a, &v) in sums[s.bench].iter_mut().zip(r.space.row(row)) {
            *a += v;
        }
    }
    let centers: Vec<Vec<f64>> = sums
        .into_iter()
        .zip(&counts)
        .map(|(s, &n)| s.into_iter().map(|v| v / n.max(1) as f64).collect())
        .collect();
    let find = |suite: &str, name: &str| -> Option<usize> {
        r.benchmarks
            .iter()
            .position(|b| b.suite.short_name() == suite && b.name == name)
    };
    let dist = |a: usize, b: usize| phaselab_stats::distance(&centers[a], &centers[b]);

    // Baseline: mean distance over all cross-suite benchmark pairs.
    let mut baseline = 0.0;
    let mut pairs = 0usize;
    for i in 0..centers.len() {
        for j in (i + 1)..centers.len() {
            if r.benchmarks[i].suite != r.benchmarks[j].suite {
                baseline += dist(i, j);
                pairs += 1;
            }
        }
    }
    baseline /= pairs.max(1) as f64;

    let twins = [
        ("bzip2", "bzip2"),
        ("gcc", "gcc"),
        ("mcf", "mcf"),
        ("perlbmk", "perlbench"),
    ];
    let mut rows = Vec::new();
    for (old, new) in twins {
        let (Some(a), Some(b)) = (find("int2000", old), find("int2006", new)) else {
            continue;
        };
        let d = dist(a, b);
        rows.push(vec![
            format!("{old} -> {new}"),
            format!("{d:.2}"),
            format!("{:.2}", d / baseline),
        ]);
    }
    // A non-twin control pair for contrast.
    if let (Some(a), Some(b)) = (find("int2000", "mcf"), find("int2006", "libquantum")) {
        rows.push(vec![
            "mcf -> libquantum (control)".to_string(),
            format!("{:.2}", dist(a, b)),
            format!("{:.2}", dist(a, b) / baseline),
        ]);
    }
    println!(
        "{}",
        format_table(&["pair", "distance", "vs mean cross-suite distance"], &rows)
    );
    println!(
        "(carried-over benchmarks drift far less than the typical distance\n\
         between unrelated codes — the same-program-new-input effect the\n\
         benchmark-drift literature measures)"
    );
}

/// Ablation A1 (§2.6): the coverage vs per-cluster-variability trade-off
/// as k grows past the number of prominent phases.
fn ablation_k(r: &StudyResult) {
    println!("\n== Ablation: coverage vs variability across k (§2.6) ==\n");
    let n_prominent = r.config.n_prominent;
    let mut rows = Vec::new();
    for mult in [1.0_f64, 2.0, 3.0, 4.0] {
        let k = ((n_prominent as f64 * mult) as usize).min(r.space.rows());
        let clustering = kmeans(
            &r.space,
            &KmeansConfig::new(k)
                .with_restarts(r.config.kmeans_restarts)
                .with_max_iters(r.config.kmeans_max_iters)
                .with_seed(r.config.seed ^ 0xAB1E)
                .with_threads(r.config.threads),
        );
        // Coverage of the n_prominent heaviest clusters, and their mean
        // within-cluster variance.
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| clustering.sizes[b].cmp(&clustering.sizes[a]));
        let total = r.space.rows() as f64;
        let covered: usize = order
            .iter()
            .take(n_prominent)
            .map(|&c| clustering.sizes[c])
            .sum();
        // Mean squared distance to centroid inside the prominent set.
        let prominent: Vec<usize> = order.iter().take(n_prominent).copied().collect();
        let mut sq = 0.0;
        let mut n = 0usize;
        for (row, &c) in clustering.assignments.iter().enumerate() {
            if prominent.contains(&c) {
                sq += phaselab_stats::distance_sq(r.space.row(row), clustering.centroids.row(c));
                n += 1;
            }
        }
        rows.push(vec![
            k.to_string(),
            format!("{:.1}%", covered as f64 / total * 100.0),
            format!("{:.3}", sq / n.max(1) as f64),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "k",
                &format!("coverage of top {n_prominent}"),
                "mean within-cluster sq. distance",
            ],
            &rows
        )
    );
    println!("(expected: larger k trades coverage for lower per-cluster variability)");
}

/// Ablation A2 (§2.9): interval-granularity sensitivity.
fn ablation_interval(
    r: &StudyResult,
    cfg: &StudyConfig,
    only: &[String],
    store: Option<&CheckpointStore>,
    token: &CancelToken,
) -> Result<(), StudyError> {
    println!("\n== Ablation: interval granularity (§2.9) ==\n");
    let mut rows = Vec::new();
    let intervals = [
        (cfg.interval_len / 2).max(1),
        cfg.interval_len,
        cfg.interval_len * 2,
    ];
    for interval in intervals {
        let result;
        let res = if interval == cfg.interval_len {
            r
        } else {
            let mut c = cfg.clone();
            c.interval_len = interval;
            result = run_filtered_study(&c, only, store, token)?;
            &result
        };
        let uniq = uniqueness(res);
        let bio = uniq
            .iter()
            .find(|u| u.suite == phaselab_workloads::Suite::BioPerf)
            .map_or(f64::NAN, |u| u.unique_fraction);
        rows.push(vec![
            interval.to_string(),
            res.pcs_retained.to_string(),
            format!("{:.1}%", res.variance_explained * 100.0),
            format!("{:.1}%", res.prominent_coverage * 100.0),
            format!("{:.1}%", bio * 100.0),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "interval",
                "PCs",
                "variance explained",
                "prominent coverage",
                "BioPerf uniqueness",
            ],
            &rows
        )
    );
    println!("(expected: conclusions stable across granularities, finer intervals → more phases)");
    Ok(())
}

/// Ablation A3 (§2.4): sampling policy.
fn ablation_sampling(
    r: &StudyResult,
    cfg: &StudyConfig,
    only: &[String],
    store: Option<&CheckpointStore>,
    token: &CancelToken,
) -> Result<(), StudyError> {
    println!("\n== Ablation: equal-weight vs proportional sampling (§2.4) ==\n");
    let mut c = cfg.clone();
    c.sampling = SamplingPolicy::Proportional;
    let prop = run_filtered_study(&c, only, store, token)?;

    let mut rows = Vec::new();
    let equal_cov = coverage(r);
    let prop_cov = coverage(&prop);
    let equal_uniq = uniqueness(r);
    let prop_uniq = uniqueness(&prop);
    for (i, c) in equal_cov.iter().enumerate() {
        rows.push(vec![
            c.suite.short_name().to_string(),
            c.clusters_touched.to_string(),
            prop_cov
                .iter()
                .find(|p| p.suite == c.suite)
                .map(|p| p.clusters_touched.to_string())
                .unwrap_or_default(),
            format!("{:.1}%", equal_uniq[i].unique_fraction * 100.0),
            prop_uniq
                .iter()
                .find(|p| p.suite == c.suite)
                .map(|p| format!("{:.1}%", p.unique_fraction * 100.0))
                .unwrap_or_default(),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "suite",
                "clusters (equal)",
                "clusters (proportional)",
                "unique (equal)",
                "unique (proportional)",
            ],
            &rows
        )
    );
    println!("(proportional sampling over-weights long-running benchmarks; the paper's equal-weight choice avoids this)");
    Ok(())
}
