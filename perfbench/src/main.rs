//! The phaselab benchmark: three workloads driven against the release
//! `repro` binary, printing end-to-end metrics (untraced) or per-layer
//! metrics (`--trace 1`) as one JSON object on the last stdout line.
//!
//! ```text
//! perfbench/run.sh --workload study_cold|study_warm|serve_mix \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `run.sh` builds `repro` and this harness and passes `--repro PATH`.
//! See `perfbench/README.md` for why each workload exists and which
//! layer metric should move which end-to-end metric.

mod checks;
mod layers;
mod served;
mod study;
mod sys;

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Threads for `repro --threads` and the load generator's client count:
/// the box the baseline was recorded on has two cores.
pub const THREADS: usize = 2;

/// Set-up repetitions whose median is `setup_s`.
pub const SETUP_REPEATS: usize = 5;

/// Where the run happens and what it was asked to do.
pub struct Ctx {
    pub repro: PathBuf,
    /// Scratch space of this run, removed when it ends.
    pub work: PathBuf,
    /// Survives across runs of one `repro` build: the warm-store
    /// snapshot and direct-run reference reports.
    pub cache: PathBuf,
    pub seconds: f64,
}

/// One measured iteration of a workload.
#[derive(Default)]
pub struct Iter {
    pub wall_s: f64,
    /// User + sys CPU of everything the iteration ran.
    pub cpu_s: f64,
    /// Per-job latency (a study, a seed's study, or a served job).
    pub jobs_s: Vec<f64>,
    /// Guest instructions covered by the studies the iteration delivered.
    pub instructions: u64,
    /// Run manifests written by a traced iteration.
    pub manifests: Vec<PathBuf>,
    /// Client-side observations of served jobs.
    pub served: Vec<served::JobObs>,
}

/// Everything a run accumulates.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub iters: Vec<Iter>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks not tied to one job; any makes the run incorrect.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Counts one attempted job; a failed check fails it.
    pub fn job(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("[perfbench] FAILED: {e}");
            self.problems.push(e);
        }
    }

    pub fn problem(&mut self, e: String) {
        eprintln!("[perfbench] FAILED: {e}");
        self.problems.push(e);
    }
}

/// A workload: untimed preparation, then repeatable measured iterations.
pub trait Workload {
    /// Scale of the studies the workload runs (recorded in the row).
    fn scale(&self) -> &'static str;
    /// Untimed preparation. Pushes `setup_s` samples unless the
    /// workload measures set-up per iteration.
    fn setup(&mut self, ctx: &Ctx, out: &mut Outcome);
    /// One iteration; with `trace`, `repro` writes manifests there.
    fn iteration(&mut self, ctx: &Ctx, out: &mut Outcome, trace: Option<&Path>) -> Iter;
    /// Inputs of the in-process layer probes of a traced run.
    fn probes(&self, ctx: &Ctx) -> layers::ProbeInput;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repro: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut repro) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                });
            }
            "--repro" => repro = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
        repro: repro.ok_or("--repro is required (run perfbench/run.sh)")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "study_cold" => Box::new(study::Cold::new(args.seed)),
        "study_warm" => Box::new(study::Warm::new(args.seed)),
        "serve_mix" => Box::new(served::Mix::new(args.seed)),
        other => {
            eprintln!("perfbench: unknown workload {other} (study_cold|study_warm|serve_mix)");
            std::process::exit(2);
        }
    };
    if !args.repro.is_file() {
        eprintln!("perfbench: no repro binary at {}", args.repro.display());
        std::process::exit(1);
    }
    let build_id = build_id(&args.repro);
    let root = PathBuf::from(".bench_work");
    let ctx = Ctx {
        repro: args.repro.clone(),
        work: root.join(format!("run-{}", std::process::id())),
        cache: root.join(format!("cache-{build_id:016x}")),
        seconds: args.seconds,
    };
    for dir in [
        ctx.work.join("tmp"),
        ctx.work.join("artifacts"),
        ctx.cache.clone(),
    ] {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("perfbench: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }

    let mut out = Outcome::default();
    match checks::self_test() {
        Ok(n) => eprintln!("[perfbench] self-test: every check rejected its perturbation ({n})"),
        Err(e) => out.problem(e),
    }
    workload.setup(&ctx, &mut out);
    let metrics = if args.trace {
        traced(workload.as_mut(), &ctx, &mut out)
    } else {
        measure(workload.as_mut(), &ctx, &mut out);
        end_to_end(&out)
    };
    let _ = std::fs::remove_dir_all(&ctx.work);

    print_row(&args, workload.scale(), build_id, &out);
    for m in &metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            out.problem(format!("metric {} is not a number", m.name));
        }
    }
    if out.attempted == 0 {
        out.job(Err("no job ran".to_string()));
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    if !correct {
        eprintln!(
            "[perfbench] run is not correct: {} problem(s)",
            out.problems.len()
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
}

/// Runs whole iterations while the next one is expected to end within
/// `--seconds` (always at least one).
fn measure(w: &mut dyn Workload, ctx: &Ctx, out: &mut Outcome) {
    let t = Instant::now();
    let mut spans = Vec::new();
    loop {
        let started = Instant::now();
        let it = w.iteration(ctx, out, None);
        eprintln!(
            "[perfbench] iteration {}: {:.3}s wall, {:.3}s cpu, {} jobs",
            out.iters.len() + 1,
            it.wall_s,
            it.cpu_s,
            it.jobs_s.len()
        );
        out.iters.push(it);
        spans.push(started.elapsed().as_secs_f64());
        if t.elapsed().as_secs_f64() + median(&spans) > ctx.seconds {
            break;
        }
    }
}

/// The traced run: one untraced iteration, two traced siblings whose
/// exact work counts must agree, then the in-process layer probes.
fn traced(w: &mut dyn Workload, ctx: &Ctx, out: &mut Outcome) -> Vec<Metric> {
    let plain = w.iteration(ctx, out, None);
    let mut siblings = Vec::new();
    for i in 0..2 {
        let dir = ctx.work.join(format!("trace-{i}"));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            out.problem(format!("cannot create {}: {e}", dir.display()));
            continue;
        }
        let it = w.iteration(ctx, out, Some(&dir));
        match layers::Manifests::load(&it.manifests) {
            Ok(m) => siblings.push((it, m)),
            Err(e) => out.problem(e),
        }
    }
    if let [(_, a), (_, b)] = siblings.as_slice() {
        if a.counts != b.counts {
            out.problem(format!(
                "invalid run: exact work counts differ between traced siblings: {:?} vs {:?}",
                a.counts, b.counts
            ));
        }
    }
    let input = w.probes(ctx);
    let metrics = layers::per_layer(&plain, &siblings, &input, ctx, out);
    out.iters.push(plain);
    out.iters.extend(siblings.into_iter().map(|(it, _)| it));
    metrics
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(value, percentile, n)`; the maximum when there are fewer than 11.
pub fn tail(samples: &[f64]) -> (f64, f64, usize) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let i = if n >= 11 { n - 11 } else { n - 1 };
    (v[i], 100.0 * (i + 1) as f64 / n as f64, n)
}

pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let walls: Vec<f64> = out.iters.iter().map(|i| i.wall_s).collect();
    let cpus: Vec<f64> = out.iters.iter().map(|i| i.cpu_s).collect();
    let jobs: Vec<f64> = out.iters.iter().flat_map(|i| i.jobs_s.clone()).collect();
    // Throughputs are medians over iterations too, so one slow
    // iteration moves them no more than it moves `wall_s`.
    let per_iteration = |f: &dyn Fn(&Iter) -> f64| {
        median(
            &out.iters
                .iter()
                .map(|i| f(i) / i.wall_s)
                .collect::<Vec<_>>(),
        )
    };
    // The tail is taken within each iteration, whose jobs are the same
    // every time, so it does not depend on how many iterations fit.
    let tails: Vec<f64> = out.iters.iter().map(|i| tail(&i.jobs_s).0).collect();
    let peak_kb = sys::children_usage().maxrss_kb;
    vec![
        metric("wall_s", median(&walls), "s"),
        metric("cpu_s", median(&cpus), "s"),
        metric("peak_rss_mb", peak_kb as f64 / 1024.0, "MB"),
        metric("setup_s", median(&out.setup_s), "s"),
        metric(
            "minst_per_s",
            per_iteration(&|i| i.instructions as f64 / 1e6),
            "Minst/s",
        ),
        metric(
            "jobs_per_s",
            per_iteration(&|i| i.jobs_s.len() as f64),
            "1/s",
        ),
        metric("job_p50_s", median(&jobs), "s"),
        metric("job_tail_s", median(&tails), "s"),
    ]
}

/// The metadata row every result carries.
fn print_row(args: &Args, scale: &str, build_id: u64, out: &Outcome) {
    let wall: f64 = out.iters.iter().map(|i| i.wall_s).sum();
    let cpu: f64 = out.iters.iter().map(|i| i.cpu_s).sum();
    let (_, pct, n) = out.iters.first().map_or((0.0, 0.0, 0), |i| tail(&i.jobs_s));
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    println!(
        "row {{\"workload\": \"{}\", \"trace\": {}, \"commit\": \"{}\", \"build\": \"{build_id:016x}\", \
         \"rustc\": \"{}\", \"nproc\": {nproc}, \"effective_cpu\": {}, \"scale\": \"{scale}\", \
         \"seed\": {}, \"run_seconds\": {}, \"iterations\": {}, \"loadgen_threads\": {THREADS}, \
         \"client_poll_ms\": {}, \"job_tail_percentile\": {}, \"jobs_per_iteration\": {n}, \
         \"failed_frac\": {}}}",
        args.workload,
        u8::from(args.trace),
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        command_line("rustc", &["--version"]),
        json_number(cpu / wall.max(f64::MIN_POSITIVE)),
        args.seed,
        json_number(args.seconds),
        out.iters.len(),
        served::CLIENT_POLL.as_millis(),
        json_number(pct),
        json_number(out.failed as f64 / out.attempted.max(1) as f64),
    );
    if !args.trace {
        println!(
            "job_tail_s is the median over {} iterations of p{pct:.1} of {n} jobs",
            out.iters.len()
        );
    }
}

/// First line of a tool's output, or `unknown`. Git is kept from
/// walking above the checkout into an unrelated repository.
fn command_line(program: &str, args: &[&str]) -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    std::process::Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.replace('"', "'")))
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a of the `repro` binary: keys the cross-run cache, so a rebuilt
/// program never meets references computed by another build.
fn build_id(repro: &Path) -> u64 {
    let bytes = std::fs::read(repro).unwrap_or_default();
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h: u64, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// A finite number as JSON; anything else becomes 0 (and the run was
/// already marked incorrect for it).
fn json_number(v: f64) -> String {
    format!("{}", if v.is_finite() { v } else { 0.0 })
}
