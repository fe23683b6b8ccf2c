//! `study_cold` and `study_warm`: whole 77-benchmark studies at
//! `--scale small`, the run a researcher repeats.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use phaselab_core::{
    analyze_benchmark, characterization_fingerprint, CheckpointStore, StudyConfig,
};
use phaselab_serve::JobSpec;
use phaselab_workloads::{catalog, Scale};

use crate::checks::{self, BENCHMARKS, SMALL_INSTRUCTIONS};
use crate::layers::ProbeInput;
use crate::{served, sys, Ctx, Iter, Outcome, Workload, SETUP_REPEATS, THREADS};

/// Experiments whose output the cold checks read, one per iteration.
const COLD_EXPERIMENTS: [&str; 3] = ["table3", "fig4", "fig6"];

/// The warm sweep's study seeds. Fixed, because GA time per seed varies
/// about 2x; the workload seed only rotates the order.
const WARM_SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
/// The seed whose warm report is compared with a store-less run.
const CHECK_SEED: u64 = 1;
/// The warm experiment: its report is the GA's selection, so it checks
/// the analysis, not just the characterizations.
const WARM_EXPERIMENT: &str = "table2";

fn study_args(extra: &[&str]) -> Vec<String> {
    let threads = THREADS.to_string();
    ["--scale", "small", "--threads", threads.as_str()]
        .iter()
        .chain(extra)
        .map(|s| (*s).to_string())
        .collect()
}

fn small_config() -> StudyConfig {
    StudyConfig {
        scale: Scale::Small,
        ..StudyConfig::paper_scaled()
    }
}

fn small_probes(store: Option<PathBuf>) -> ProbeInput {
    let cfg = small_config();
    ProbeInput {
        scale: Scale::Small,
        interval: cfg.interval_len,
        max_instructions: cfg.max_instructions_per_run,
        benches: catalog(),
        store: store.map(|dir| (dir, characterization_fingerprint(&cfg))),
        // The queue probes submit this study under different seeds.
        specs: (0..8)
            .map(|seed| JobSpec {
                experiment: WARM_EXPERIMENT.to_string(),
                scale: "small".to_string(),
                interval_len: cfg.interval_len,
                samples: cfg.samples_per_benchmark as u64,
                k: cfg.k as u64,
                ..served::spec(&[], seed)
            })
            .collect(),
    }
}

/// Appends `--metrics-out` to `args` when tracing and returns the path.
fn traced_manifest(args: &mut Vec<String>, trace: Option<&Path>, tag: &str) -> Option<PathBuf> {
    let path = trace?.join(format!("{tag}.json"));
    args.push("--metrics-out".to_string());
    args.push(path.display().to_string());
    Some(path)
}

fn failure(what: &str, fin: &sys::Finished) -> String {
    let last = fin.stderr.lines().last().unwrap_or("");
    format!("{what}: repro failed: {last}")
}

/// The full study with no store, run over and over.
pub struct Cold {
    offset: usize,
    done: usize,
    /// The store a traced iteration wrote, for the checkpoint probe.
    store: Option<PathBuf>,
}

impl Cold {
    pub fn new(seed: u64) -> Self {
        Cold {
            offset: (seed % COLD_EXPERIMENTS.len() as u64) as usize,
            done: 0,
            store: None,
        }
    }
}

impl Workload for Cold {
    fn scale(&self) -> &'static str {
        "small"
    }

    /// Builds every registry program and runs the static pre-flight,
    /// the work a study does before its first instruction.
    fn setup(&mut self, _ctx: &Ctx, out: &mut Outcome) {
        let benches = catalog();
        if benches.len() != BENCHMARKS {
            out.problem(format!("registry has {} benchmarks", benches.len()));
        }
        for _ in 0..SETUP_REPEATS {
            let t = Instant::now();
            for b in &benches {
                for input in 0..b.num_inputs() {
                    std::hint::black_box(b.build(Scale::Small, input));
                }
            }
            for b in &benches {
                if let Err(q) = analyze_benchmark(b, Scale::Small) {
                    out.problem(format!("static pre-flight rejects {q}"));
                }
            }
            out.setup_s.push(t.elapsed().as_secs_f64());
        }
    }

    fn iteration(&mut self, ctx: &Ctx, out: &mut Outcome, trace: Option<&Path>) -> Iter {
        let exp = COLD_EXPERIMENTS[(self.offset + self.done) % COLD_EXPERIMENTS.len()];
        let tag = format!("cold-{}", self.done);
        self.done += 1;
        let mut args = study_args(&[exp]);
        let manifest = traced_manifest(&mut args, trace, &tag);
        if let Some(dir) = trace {
            // A fresh store gives the checkpoint probe real frames; the
            // untraced workload never has one.
            let store = dir.join(format!("{tag}-store"));
            args.extend(["--checkpoint-dir".to_string(), store.display().to_string()]);
            self.store = Some(store);
        }
        let fin = sys::run_repro(&ctx.repro, &ctx.work, &args);
        let check = if fin.ok {
            checks::study_stderr(&fin.stderr, BENCHMARKS).and_then(|()| match exp {
                "table3" => checks::table3_totals(&fin.stdout),
                "fig4" => checks::fig4_shape(&fin.stdout),
                _ => checks::fig6_shape(&fin.stdout),
            })
        } else {
            Err(failure(exp, &fin))
        };
        out.job(check.map_err(|e| format!("study_cold {exp}: {e}")));
        Iter {
            wall_s: fin.wall_s,
            cpu_s: fin.cpu_s,
            jobs_s: vec![fin.wall_s],
            instructions: SMALL_INSTRUCTIONS,
            manifests: manifest.into_iter().collect(),
            served: Vec::new(),
        }
    }

    fn probes(&self, _ctx: &Ctx) -> ProbeInput {
        small_probes(self.store.clone())
    }
}

/// The same study over a store that already holds every
/// characterization, swept over a fixed list of seeds.
pub struct Warm {
    seeds: Vec<u64>,
    reference: String,
    done: usize,
    /// The store the latest iteration used.
    store: Option<PathBuf>,
}

impl Warm {
    pub fn new(seed: u64) -> Self {
        let mut seeds = WARM_SEEDS.to_vec();
        seeds.rotate_left((seed % WARM_SEEDS.len() as u64) as usize);
        Warm {
            seeds,
            reference: String::new(),
            done: 0,
            store: None,
        }
    }

    fn snapshot(ctx: &Ctx) -> PathBuf {
        ctx.work.join("warm-snapshot")
    }

    /// The store-less report of the check seed, run once per `repro`
    /// build.
    fn reference(ctx: &Ctx) -> Result<String, String> {
        let path = ctx.cache.join("warm-reference.txt");
        if let Ok(report) = fs::read_to_string(&path) {
            return Ok(report);
        }
        let check = CHECK_SEED.to_string();
        let fin = sys::run_repro(
            &ctx.repro,
            &ctx.work,
            &study_args(&["--seed", &check, WARM_EXPERIMENT]),
        );
        if !fin.ok {
            return Err(failure("study_warm store-less reference", &fin));
        }
        fs::write(&path, &fin.stdout).map_err(|e| format!("cannot keep the reference: {e}"))?;
        Ok(fin.stdout)
    }

    /// Fills a store with every characterization through a store-backed
    /// study and keeps only its characterization directories
    /// (`c<fingerprint>`) as the snapshot: the study's k-means restarts
    /// (`k<fingerprint>`) would otherwise be replayed.
    fn fill(ctx: &Ctx) -> Result<(), String> {
        let fill = ctx.work.join("warm-fill");
        let fin = sys::run_repro(
            &ctx.repro,
            &ctx.work,
            &study_args(&["--checkpoint-dir", &fill.display().to_string(), "table3"]),
        );
        if !fin.ok {
            return Err(failure("study_warm fill", &fin));
        }
        let snapshot = || -> std::io::Result<()> {
            for e in fs::read_dir(&fill)? {
                let e = e?;
                if e.file_name().to_string_lossy().starts_with('c') {
                    copy_dir(&e.path(), &Self::snapshot(ctx).join(e.file_name()))?;
                }
            }
            fs::remove_dir_all(&fill)
        };
        snapshot().map_err(|e| format!("cannot snapshot the filled store: {e}"))
    }

    /// Copies the snapshot into a fresh store and loads every frame
    /// back, proving it holds all characterizations and nothing else.
    fn restore(ctx: &Ctx, to: &Path) -> Result<(), String> {
        let _ = fs::remove_dir_all(to);
        copy_dir(&Self::snapshot(ctx), to).map_err(|e| format!("restore: {e}"))?;
        let store = CheckpointStore::open(to).map_err(|e| format!("restore: {e}"))?;
        let fp = characterization_fingerprint(&small_config());
        let loaded = catalog()
            .iter()
            .filter(|b| store.load_benchmark(fp, b.suite(), b.name()).is_some())
            .count();
        let clustering = fs::read_dir(to)
            .map_err(|e| format!("restore: {e}"))?
            .filter_map(Result::ok)
            .any(|e| e.file_name().to_string_lossy().starts_with('k'));
        if loaded != BENCHMARKS || clustering {
            return Err(format!(
                "snapshot holds {loaded} characterizations (want {BENCHMARKS}) and clustering={clustering}"
            ));
        }
        Ok(())
    }
}

impl Workload for Warm {
    fn scale(&self) -> &'static str {
        "small"
    }

    /// Fills the snapshot and restores it once. A fill is a whole
    /// study, so `setup_s` is this one sample.
    fn setup(&mut self, ctx: &Ctx, out: &mut Outcome) {
        match Self::reference(ctx) {
            Ok(r) => self.reference = r,
            Err(e) => out.problem(e),
        }
        let to = ctx.work.join("warm-setup");
        let t = Instant::now();
        let ready = Self::fill(ctx).and_then(|()| Self::restore(ctx, &to));
        out.setup_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = ready {
            out.problem(e);
        }
        let _ = fs::remove_dir_all(&to);
    }

    fn iteration(&mut self, ctx: &Ctx, out: &mut Outcome, trace: Option<&Path>) -> Iter {
        let store = ctx.work.join(format!("warm-{}", self.done));
        self.done += 1;
        if let Some(old) = self.store.replace(store.clone()) {
            let _ = fs::remove_dir_all(old);
        }
        if let Err(e) = Self::restore(ctx, &store) {
            out.problem(e);
        }
        let mut it = Iter::default();
        let t = Instant::now();
        for &seed in &self.seeds {
            let seed_arg = seed.to_string();
            let store_arg = store.display().to_string();
            let mut args = study_args(&[
                "--checkpoint-dir",
                &store_arg,
                "--seed",
                &seed_arg,
                WARM_EXPERIMENT,
            ]);
            let tag = format!("warm-{}-{seed}", self.done);
            it.manifests.extend(traced_manifest(&mut args, trace, &tag));
            let fin = sys::run_repro(&ctx.repro, &ctx.work, &args);
            let check = if fin.ok {
                checks::study_stderr(&fin.stderr, BENCHMARKS).and_then(|()| {
                    if seed == CHECK_SEED {
                        checks::same_report(&fin.stdout, &self.reference)
                    } else {
                        Ok(())
                    }
                })
            } else {
                Err(failure("study", &fin))
            };
            out.job(check.map_err(|e| format!("study_warm seed {seed}: {e}")));
            it.cpu_s += fin.cpu_s;
            it.jobs_s.push(fin.wall_s);
            it.instructions += SMALL_INSTRUCTIONS;
        }
        it.wall_s = t.elapsed().as_secs_f64();
        it
    }

    fn probes(&self, _ctx: &Ctx) -> ProbeInput {
        small_probes(self.store.clone())
    }
}

/// Recursive copy of a directory of regular files.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
