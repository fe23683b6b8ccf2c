//! `serve_mix`: one `repro serve` server fed by a closed loop of client
//! threads through the public `phaselab_serve::Queue` API.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant, SystemTime};

use phaselab_core::{characterization_fingerprint, StudyConfig};
use phaselab_serve::{JobSpec, JobStatus, Queue};
use phaselab_workloads::{catalog, Scale};

use crate::layers::ProbeInput;
use crate::{sys, Ctx, Iter, Outcome, Workload, SETUP_REPEATS, THREADS};

/// How often a client looks for its job's claim and completion. Short
/// and fixed, unlike the 200 ms of `repro submit --wait`, so the client
/// adds little to the turnaround it measures.
pub const CLIENT_POLL: Duration = Duration::from_millis(5);
/// Benchmarks per job.
const GROUP_SIZE: usize = 6;
/// A job not visible as done after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);
/// The interval length of the served studies, as `scripts/serve_smoke.sh`.
const INTERVAL: u64 = 20_000;

/// What a client saw of one job. The claim is observed as the
/// submission leaving `pending/`; the finish time is the completion
/// record's modification time.
#[derive(Debug, Clone)]
pub struct JobObs {
    pub fingerprint: u64,
    /// `None` when the job never became visible as done.
    pub status: Option<JobStatus>,
    /// Submit until the completion is visible.
    pub latency_s: f64,
    /// Submit until claimed.
    pub wait_s: f64,
    /// Claimed until the completion record was written.
    pub run_s: f64,
    /// Record written until the client saw it.
    pub notify_s: f64,
}

/// A served `table3` study over `only` at tiny scale.
pub fn spec(only: &[&str], seed: u64) -> JobSpec {
    JobSpec {
        experiment: "table3".to_string(),
        scale: "tiny".to_string(),
        interval_len: INTERVAL,
        samples: 8,
        k: 12,
        seed,
        engine: "block".to_string(),
        suites: None,
        only: only.iter().map(|s| (*s).to_string()).collect(),
        max_inst_per_bench: None,
        static_analysis: true,
        kmeans_batch: None,
    }
}

/// SplitMix64: the job order is a pure function of the workload seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Submits each spec in turn and waits for it before the next: one
/// closed-loop client.
pub fn run_client(queue: &Queue, specs: &[JobSpec]) -> Vec<JobObs> {
    let root = queue.root();
    let since = |later: SystemTime, earlier: SystemTime| {
        later
            .duration_since(earlier)
            .map_or(0.0, |d| d.as_secs_f64())
    };
    let mut seen = Vec::with_capacity(specs.len());
    for spec in specs {
        let submitted = SystemTime::now();
        let t = Instant::now();
        let Ok(name) = queue.submit(spec) else {
            seen.push(lost(spec.fingerprint()));
            continue;
        };
        let pending = root.join("pending").join(&name);
        let done = root.join("done").join(&name);
        let mut claimed = None;
        loop {
            if let Some(rec) = queue.read_done(&name) {
                let now = SystemTime::now();
                let finished = fs::metadata(&done)
                    .and_then(|m| m.modified())
                    .unwrap_or(now);
                let claimed = claimed.unwrap_or(finished).min(finished);
                seen.push(JobObs {
                    fingerprint: rec.fingerprint,
                    status: Some(rec.status),
                    latency_s: t.elapsed().as_secs_f64(),
                    wait_s: since(claimed, submitted),
                    run_s: since(finished, claimed),
                    notify_s: since(now, finished),
                });
                break;
            }
            if claimed.is_none() && !pending.exists() {
                claimed = Some(SystemTime::now());
            }
            if t.elapsed() > JOB_TIMEOUT {
                seen.push(lost(spec.fingerprint()));
                break;
            }
            std::thread::sleep(CLIENT_POLL);
        }
    }
    seen
}

fn lost(fingerprint: u64) -> JobObs {
    JobObs {
        fingerprint,
        status: None,
        latency_s: JOB_TIMEOUT.as_secs_f64(),
        wait_s: 0.0,
        run_s: 0.0,
        notify_s: 0.0,
    }
}

/// The served job mix over a fresh spool and store per iteration.
pub struct Mix {
    /// Per group of benchmarks: a first-time characterization, a new
    /// seed over it, and an exact duplicate of one of the two.
    groups: Vec<[JobSpec; 3]>,
    /// Direct-run report per job fingerprint.
    references: BTreeMap<u64, String>,
    /// Guest instructions of each job's study.
    instructions: BTreeMap<u64, u64>,
    done: usize,
    /// The spool of the latest iteration, for the checkpoint probe.
    spool: Option<PathBuf>,
}

impl Mix {
    /// The job set is fixed: the whole registry in disjoint groups (so
    /// no two jobs race for one characterization) with fixed study
    /// seeds. The workload seed orders the groups. GA time varies about
    /// 2x between study seeds, so drawing them from the workload seed
    /// would make the work itself differ from seed to seed.
    pub fn new(seed: u64) -> Self {
        let mut names: Vec<&'static str> = Vec::new();
        for b in catalog() {
            if !names.contains(&b.name()) {
                names.push(b.name());
            }
        }
        let mut groups: Vec<[JobSpec; 3]> = names
            .chunks(GROUP_SIZE)
            .zip(1u64..)
            .map(|(only, i)| {
                let cold = spec(only, 2 * i);
                let warm = spec(only, 2 * i + 1);
                let dup = if i % 2 == 0 { &cold } else { &warm }.clone();
                [cold, warm, dup]
            })
            .collect();
        let mut rng = Rng(seed);
        for i in (1..groups.len()).rev() {
            groups.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        Mix {
            groups,
            references: BTreeMap::new(),
            instructions: BTreeMap::new(),
            done: 0,
            spool: None,
        }
    }

    fn unique_specs(&self) -> Vec<JobSpec> {
        let mut by_fp = BTreeMap::new();
        for s in self.groups.iter().flatten() {
            by_fp.entry(s.fingerprint()).or_insert_with(|| s.clone());
        }
        by_fp.into_values().collect()
    }

    /// Checks one iteration's jobs against the direct-run references.
    fn verify(&self, spool: &Path, seen: &[JobObs], out: &mut Outcome) {
        for obs in seen {
            let result = match obs.status {
                None => Err("never completed".to_string()),
                Some(JobStatus::Failed) => Err("failed".to_string()),
                Some(_) => {
                    let report =
                        phaselab_serve::results_dir(spool, obs.fingerprint).join("report.txt");
                    match (
                        fs::read_to_string(&report),
                        self.references.get(&obs.fingerprint),
                    ) {
                        (Ok(got), Some(want)) => crate::checks::same_report(&got, want),
                        (Err(e), _) => Err(format!("no report: {e}")),
                        (_, None) => Err("no direct-run reference".to_string()),
                    }
                }
            };
            out.job(result.map_err(|e| format!("serve_mix job {:016x}: {e}", obs.fingerprint)));
        }
    }
}

fn wait_for(what: &str, mut ready: impl FnMut() -> bool) -> Result<(), String> {
    let t = Instant::now();
    while !ready() {
        if t.elapsed() > Duration::from_secs(60) {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// Starts `repro serve` on `queue`'s spool with a probe job already
/// pending, and returns it once the probe is done, with the seconds from
/// start until it claimed the probe. `table1` runs no study.
fn start_server(ctx: &Ctx, queue: &Queue, manifest: Option<&Path>) -> Result<(Child, f64), String> {
    let probe = JobSpec {
        experiment: "table1".to_string(),
        ..spec(&[], 0)
    };
    let name = queue
        .submit(&probe)
        .map_err(|e| format!("cannot submit the set-up probe: {e}"))?;
    let mut cmd = sys::repro_command(&ctx.repro, &ctx.work);
    cmd.arg("serve")
        .arg("--queue-dir")
        .arg(queue.root())
        .args(["--jobs", &THREADS.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(path) = manifest {
        cmd.arg("--metrics-out").arg(path);
    }
    let t = Instant::now();
    let mut server = cmd
        .spawn()
        .map_err(|e| format!("cannot start repro serve: {e}"))?;
    let pending = queue.root().join("pending").join(&name);
    let claimed = wait_for("the first claim", || !pending.exists()).map(|()| t.elapsed());
    match claimed
        .and_then(|c| wait_for("the set-up probe", || queue.read_done(&name).is_some()).map(|()| c))
    {
        Ok(claim) => Ok((server, claim.as_secs_f64())),
        Err(e) => {
            sys::terminate(&server);
            sys::reap(&mut server, 60.0);
            Err(e)
        }
    }
}

impl Workload for Mix {
    fn scale(&self) -> &'static str {
        "tiny"
    }

    /// Starts a server on a fresh spool until its first claim, several
    /// times (`setup_s`). Then runs every distinct job directly (no
    /// server, no store) once per `repro` build, as the reference its
    /// served report must equal.
    fn setup(&mut self, ctx: &Ctx, out: &mut Outcome) {
        for i in 0..SETUP_REPEATS {
            let spool = ctx.work.join(format!("setup-spool-{i}"));
            let started = Queue::open(&spool)
                .map_err(|e| format!("cannot open spool: {e}"))
                .and_then(|q| start_server(ctx, &q, None));
            match started {
                Ok((mut server, claim_s)) => {
                    out.setup_s.push(claim_s);
                    sys::terminate(&server);
                    if sys::reap(&mut server, 60.0).is_none() {
                        out.problem("repro serve did not stop on SIGTERM".to_string());
                    }
                }
                Err(e) => out.problem(e),
            }
            let _ = fs::remove_dir_all(&spool);
        }
        let dir = ctx.cache.join("direct");
        let _ = fs::create_dir_all(&dir);
        for spec in self.unique_specs() {
            let fp = spec.fingerprint();
            let path = dir.join(format!("{fp:016x}.txt"));
            let report = match fs::read_to_string(&path) {
                Ok(r) => r,
                Err(_) => {
                    let fin = sys::run_repro(&ctx.repro, &ctx.work, &spec.argv());
                    if !fin.ok {
                        out.problem(format!("direct run of job {fp:016x} failed"));
                        continue;
                    }
                    let _ = fs::write(&path, &fin.stdout);
                    fin.stdout
                }
            };
            let total = report.lines().find_map(|l| {
                let l = l.strip_prefix("total: ")?;
                l.split(", ")
                    .nth(2)?
                    .strip_suffix(" instructions")?
                    .parse()
                    .ok()
            });
            match total {
                Some(n) => {
                    self.instructions.insert(fp, n);
                }
                None => out.problem(format!("direct run of job {fp:016x} has no totals line")),
            }
            self.references.insert(fp, report);
        }
    }

    fn iteration(&mut self, ctx: &Ctx, out: &mut Outcome, trace: Option<&Path>) -> Iter {
        let spool = ctx.work.join(format!("spool-{}", self.done));
        self.done += 1;
        if let Some(old) = self.spool.replace(spool.clone()) {
            let _ = fs::remove_dir_all(old);
        }
        let mut it = Iter::default();
        let queue = match Queue::open(&spool) {
            Ok(q) => q,
            Err(e) => {
                out.problem(format!("cannot open spool: {e}"));
                return it;
            }
        };
        let manifest = trace.map(|dir| dir.join(format!("server-{}.json", self.done)));
        let mut server = match start_server(ctx, &queue, manifest.as_deref()) {
            Ok((server, _)) => server,
            Err(e) => {
                out.problem(e);
                return it;
            }
        };

        let cpu_before = sys::proc_tree_cpu_s(server.id()).unwrap_or(0.0) + sys::self_usage().cpu_s;
        let t = Instant::now();
        // Each client takes the next group when its last job is done.
        let next = AtomicUsize::new(0);
        let seen: Vec<JobObs> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut seen = Vec::new();
                        while let Some(group) =
                            self.groups.get(next.fetch_add(1, Ordering::Relaxed))
                        {
                            seen.extend(run_client(&queue, group));
                        }
                        seen
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        it.wall_s = t.elapsed().as_secs_f64();
        let cpu_after = sys::proc_tree_cpu_s(server.id()).unwrap_or(0.0) + sys::self_usage().cpu_s;
        it.cpu_s = cpu_after - cpu_before;

        sys::terminate(&server);
        if sys::reap(&mut server, 60.0).is_none() {
            out.problem("repro serve did not stop on SIGTERM".to_string());
        }
        self.verify(&spool, &seen, out);
        it.jobs_s = seen.iter().map(|o| o.latency_s).collect();
        it.instructions = seen
            .iter()
            .filter(|o| matches!(o.status, Some(JobStatus::Completed | JobStatus::Deduped)))
            .filter_map(|o| self.instructions.get(&o.fingerprint))
            .sum();
        if trace.is_some() {
            it.manifests.extend(manifest);
            let executed: std::collections::BTreeSet<u64> = seen
                .iter()
                .filter(|o| o.status == Some(JobStatus::Completed))
                .map(|o| o.fingerprint)
                .collect();
            it.manifests.extend(
                executed
                    .into_iter()
                    .map(|fp| phaselab_serve::results_dir(&spool, fp).join("manifest.json")),
            );
        }
        it.served = seen;
        it
    }

    fn probes(&self, _ctx: &Ctx) -> ProbeInput {
        let cfg = StudyConfig {
            scale: Scale::Tiny,
            interval_len: INTERVAL,
            ..StudyConfig::paper_scaled()
        };
        let names: Vec<String> = self
            .unique_specs()
            .into_iter()
            .flat_map(|s| s.only)
            .collect();
        ProbeInput {
            scale: Scale::Tiny,
            interval: INTERVAL,
            max_instructions: cfg.max_instructions_per_run,
            benches: catalog()
                .into_iter()
                .filter(|b| names.iter().any(|n| n == b.name()))
                .collect(),
            store: self
                .spool
                .as_ref()
                .map(|s| (s.join("store"), characterization_fingerprint(&cfg))),
            specs: self.unique_specs(),
        }
    }
}
