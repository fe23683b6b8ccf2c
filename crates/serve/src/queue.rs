//! The spool-directory job queue: a zero-dependency, multi-process
//! state machine built out of atomic renames.
//!
//! # Layout and protocol
//!
//! ```text
//! queue/
//!   tmp/        staging for torn-write-safe publishes
//!   pending/    submitted, unclaimed      (one file per submission)
//!   running/    claimed by a server       (+ <name>.hb heartbeat)
//!   done/       completed                 (completion record JSON)
//! ```
//!
//! A job moves `pending -> running -> done`, and each move is a single
//! `rename(2)`, so every state transition is atomic and has exactly one
//! winner no matter how many servers race. Submission file names are
//! unique (`<millis>-<pid>-<seq>-<fingerprint>.json`), sort in FIFO
//! order, and end in the job fingerprint so duplicate detection never
//! has to open the file.
//!
//! The completion order is the load-bearing part: [`Queue::complete`]
//! publishes `done/<name>.json` *before* removing the running entry.
//! A crash between the two steps leaves both files, which
//! [`Queue::recover`] resolves in favor of `done/` — a job can be
//! *cleaned up* twice but never *executed* twice past completion, and
//! since the running file is removed only after `done/` exists, it can
//! never be lost.
//!
//! Claims are leased, not owned: the claimer refreshes `<name>.hb`, a
//! heartbeat sidecar holding its owner record
//! ([`Owner`](phaselab_core::lease::Owner)), and [`Queue::recover`]
//! returns claims the lease module's one abandonment rule
//! ([`Sighting::abandoned`](phaselab_core::lease::Sighting::abandoned))
//! calls abandoned back to `pending/`. All spool reads, writes, and renames go through the handle's
//! [`Io`](phaselab_core::faults::Io) so the chaos tests can inject torn
//! renames and crashed workers at exactly these seams.

use phaselab_core::faults::Io;
use phaselab_core::lease::{self, Owner, Sighting};
use phaselab_obs::Json;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, SystemTime};

use crate::job::JobSpec;
use crate::json;

/// How a completed job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The study ran to completion and its results were published.
    Completed,
    /// An identical job had already completed (or was in flight); the
    /// submitter was handed the original's results without any
    /// recharacterization.
    Deduped,
    /// The job runner reported an error; `detail` says what.
    Failed,
}

impl JobStatus {
    fn as_str(self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::Deduped => "deduped",
            JobStatus::Failed => "failed",
        }
    }

    fn parse(s: &str) -> Option<JobStatus> {
        match s {
            "completed" => Some(JobStatus::Completed),
            "deduped" => Some(JobStatus::Deduped),
            "failed" => Some(JobStatus::Failed),
            _ => None,
        }
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The record published to `done/<name>.json` when a job finishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletionRecord {
    /// Submission name this record answers.
    pub name: String,
    /// The job fingerprint (dedup key).
    pub fingerprint: u64,
    /// How the job ended.
    pub status: JobStatus,
    /// Human-readable detail: result directory for successes, error
    /// text for failures.
    pub detail: String,
    /// The spec as submitted, embedded for audit and `repro jobs`.
    pub spec: JobSpec,
}

impl CompletionRecord {
    fn render(&self) -> String {
        Json::Obj(vec![
            ("schema".to_string(), Json::U64(1)),
            ("job".to_string(), Json::Str(self.name.clone())),
            (
                "fingerprint".to_string(),
                Json::Str(format!("{:016x}", self.fingerprint)),
            ),
            (
                "status".to_string(),
                Json::Str(self.status.as_str().to_string()),
            ),
            ("detail".to_string(), Json::Str(self.detail.clone())),
            ("spec".to_string(), self.spec.to_value()),
        ])
        .render_pretty()
    }

    fn parse(name: &str, text: &str) -> Option<CompletionRecord> {
        let doc = json::parse(text).ok()?;
        let fingerprint =
            u64::from_str_radix(json::as_str(json::get(&doc, "fingerprint")?)?, 16).ok()?;
        let status = JobStatus::parse(json::as_str(json::get(&doc, "status")?)?)?;
        let detail = json::as_str(json::get(&doc, "detail")?)?.to_string();
        let spec = JobSpec::from_value(json::get(&doc, "spec")?).ok()?;
        Some(CompletionRecord {
            name: name.to_string(),
            fingerprint,
            status,
            detail,
            spec,
        })
    }
}

/// A claimed job: the exclusive right to execute one submission.
///
/// The claim is leased, not owned — call [`Queue::heartbeat`]
/// periodically or [`Queue::recover`] on another process will requeue
/// it. Dropping a claim without completing it is safe for the same
/// reason: recovery returns it to `pending/`.
#[derive(Debug)]
pub struct Claim {
    /// Submission name (also the running/done file stem).
    pub name: String,
    /// Parsed spec of the claimed job.
    pub spec: JobSpec,
    /// Fingerprint from the submission name.
    pub fingerprint: u64,
}

/// Queue population by state, for `repro jobs` and the depth gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueDepth {
    /// Submitted, unclaimed jobs.
    pub pending: usize,
    /// Claimed, in-flight jobs.
    pub running: usize,
    /// Completed jobs with a published record.
    pub done: usize,
}

/// One row of [`Queue::list`]: a submission and where it currently is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobEntry {
    /// Submission name.
    pub name: String,
    /// `"pending"`, `"running"`, or the completion status.
    pub state: String,
}

/// Handle to a spool directory. Cheap to open; every operation is a
/// fresh look at the filesystem, so any number of processes can hold
/// one concurrently.
#[derive(Debug)]
pub struct Queue {
    root: PathBuf,
    /// Per-submission tally of claim attempts abandoned because the
    /// document would not read back. A submission is only declared
    /// corrupt (and failed) after [`STRIKE_LIMIT`] abandoned claims;
    /// anything less is treated as transient I/O trouble and the claim
    /// is rolled back to `pending/` for a later pass.
    strikes: Mutex<HashMap<String, u32>>,
    /// The I/O spool reads, writes, and renames go through.
    io: Io,
}

/// Per-process sequence counter making same-millisecond submissions
/// from one process unique.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Attempts to publish-and-verify a submission before giving up.
const SUBMIT_RETRIES: u32 = 3;

/// Attempts to read-and-parse a spool document before treating it as
/// damaged. Injected read faults (EINTR, short reads) are transient —
/// the on-disk bytes were verified at publish — so a couple of retries
/// separate them from real corruption.
const READ_RETRIES: u32 = 3;

/// Abandoned-claim count after which a submission that keeps refusing
/// to read back is declared corrupt and failed. Combined with
/// [`READ_RETRIES`] this demands `3 * 3` consecutive bad reads of one
/// file before giving up on it — far past any transient fault, while
/// still bounding how long a genuinely damaged file can haunt the
/// queue.
const STRIKE_LIMIT: u32 = 3;

impl Queue {
    /// Opens (creating if needed) the spool at `root`, with fault
    /// injection from `PHASELAB_FAULTS` (see
    /// [`Io::from_env`](phaselab_core::faults::Io::from_env)) so chaos
    /// runs exercise the queue's own I/O.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: &Path) -> io::Result<Queue> {
        for sub in ["tmp", "pending", "running", "done"] {
            fs::create_dir_all(root.join(sub))?;
        }
        Ok(Queue {
            root: root.to_path_buf(),
            strikes: Mutex::new(HashMap::new()),
            io: Io::from_env(),
        })
    }

    /// The same queue with its spool reads, writes, and renames done
    /// through `io` — how a chaos test arms one handle without touching
    /// any other.
    #[must_use]
    pub fn with_io(self, io: Io) -> Queue {
        Queue { io, ..self }
    }

    /// The I/O this handle's spool operations go through.
    pub fn io(&self) -> &Io {
        &self.io
    }

    /// The spool root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn dir(&self, state: &str) -> PathBuf {
        self.root.join(state)
    }

    /// Publishes a new submission and returns its name.
    ///
    /// The write is torn-proof: the document is staged in `tmp/`,
    /// renamed into `pending/`, then read back and re-parsed. If the
    /// read-back does not reproduce the spec (an injected torn rename,
    /// a full disk), the damaged file is removed and the publish
    /// retried under a fresh name, up to `SUBMIT_RETRIES` times.
    ///
    /// # Errors
    ///
    /// The last I/O error when every retry failed verification.
    pub fn submit(&self, spec: &JobSpec) -> io::Result<String> {
        let mut name = String::new();
        self.publish(
            &spec.to_json(),
            || {
                name = fresh_name(spec);
                (self.dir("tmp").join(&name), self.dir("pending").join(&name))
            },
            true,
            |text| JobSpec::parse(text).is_ok_and(|parsed| parsed == *spec),
        )?;
        Ok(name)
    }

    /// The verified publish behind submissions and completion records:
    /// stage `body` at the first path `target` yields, rename it to the
    /// second, read it back, and accept it only when `accept` recognizes
    /// the text — retrying up to `SUBMIT_RETRIES` times with a fresh
    /// `target` each attempt. A failed attempt's staging file is
    /// removed; its published file too when `discard` is set
    /// (submissions, which retry under a fresh name). Completion
    /// records keep theirs for the next rename to overwrite: recovery
    /// on another server may already have acted on it.
    fn publish(
        &self,
        body: &str,
        mut target: impl FnMut() -> (PathBuf, PathBuf),
        discard: bool,
        accept: impl Fn(&str) -> bool,
    ) -> io::Result<()> {
        let mut last_err = io::Error::other("publish retries exhausted");
        for _ in 0..SUBMIT_RETRIES {
            let (staged, published) = target();
            let attempt = self
                .io
                .write(&staged, body.as_bytes())
                .and_then(|()| self.io.rename(&staged, &published))
                .and_then(|()| self.io.read(&published))
                .and_then(|back| {
                    String::from_utf8(back)
                        .ok()
                        .filter(|t| accept(t))
                        .ok_or_else(|| {
                            io::Error::new(io::ErrorKind::InvalidData, "read-back differs")
                        })
                });
            match attempt {
                Ok(_) => return Ok(()),
                Err(e) => {
                    let _ = fs::remove_file(&staged);
                    if discard {
                        let _ = fs::remove_file(&published);
                    }
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    /// Claims the oldest pending submission, if any.
    ///
    /// The claim is a rename into `running/`; when several servers
    /// race, exactly one rename succeeds and the losers move on to the
    /// next candidate. A fresh heartbeat is stamped immediately so
    /// recovery on other processes does not requeue the new claim.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures; concurrently-claimed
    /// candidates are skipped and transiently-unreadable ones rolled
    /// back, not errors.
    pub fn claim_next(&self) -> io::Result<Option<Claim>> {
        let mut names: Vec<String> = list_names(&self.dir("pending"))?;
        names.sort_unstable();
        for name in names {
            let Some(fingerprint) = fingerprint_of_name(&name) else {
                continue; // foreign file in the spool; leave it alone
            };
            let from = self.dir("pending").join(&name);
            let to = self.dir("running").join(&name);
            if self.io.rename(&from, &to).is_err() {
                continue; // lost the race (or injected fault); next candidate
            }
            self.stamp_heartbeat(&name);
            // The document was verified at publish, so read failures
            // here are transient (EINTR, injected short reads) — retry
            // before concluding the file is actually damaged.
            let mut spec = None;
            let mut why = String::new();
            for _ in 0..READ_RETRIES {
                match self
                    .io
                    .read(&to)
                    .map_err(|e| e.to_string())
                    .and_then(|b| String::from_utf8(b).map_err(|_| "not UTF-8".to_string()))
                    .and_then(|t| JobSpec::parse(&t).map_err(|e| e.to_string()))
                {
                    Ok(parsed) => {
                        spec = Some(parsed);
                        break;
                    }
                    Err(e) => why = e,
                }
            }
            if let Some(spec) = spec {
                self.strikes
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .remove(&name);
                return Ok(Some(Claim {
                    name,
                    spec,
                    fingerprint,
                }));
            }
            // The document was readable at publish, so failed reads
            // here are usually an unlucky streak of transient faults:
            // roll the claim back for a later pass. Only a submission
            // that keeps failing across STRIKE_LIMIT separate claims
            // is declared corrupt and failed, so the submitter learns
            // instead of the queue looping forever.
            let strikes = {
                let mut map = self
                    .strikes
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let n = map.entry(name.clone()).or_insert(0);
                *n += 1;
                *n
            };
            if strikes < STRIKE_LIMIT {
                if self.io.rename(&to, &from).is_ok() {
                    let _ = fs::remove_file(self.heartbeat_path(&name));
                }
                // A failed rollback leaves the claim in running/ for
                // recovery to requeue once its lease lapses.
                continue;
            }
            self.strikes
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .remove(&name);
            let spec = JobSpec {
                experiment: "unreadable".to_string(),
                scale: String::new(),
                interval_len: 0,
                samples: 0,
                k: 0,
                seed: 0,
                engine: String::new(),
                suites: None,
                only: vec![],
                max_inst_per_bench: None,
                static_analysis: false,
                kmeans_batch: None,
            };
            let claim = Claim {
                name,
                spec,
                fingerprint,
            };
            self.complete(
                &claim,
                JobStatus::Failed,
                &format!("corrupt submission: {why}"),
            )?;
        }
        Ok(None)
    }

    /// Refreshes the claim's heartbeat sidecar. Call at least once per
    /// lease TTL while executing.
    pub fn heartbeat(&self, claim: &Claim) {
        self.stamp_heartbeat(&claim.name);
    }

    fn stamp_heartbeat(&self, name: &str) {
        // A torn record never decodes, so it only delays a requeue by
        // one TTL; a plain write (no staging dance) is deliberate.
        let body = Owner::this_process(0, 0).encode();
        let _ = self.io.write(&self.heartbeat_path(name), body.as_bytes());
    }

    fn heartbeat_path(&self, name: &str) -> PathBuf {
        self.dir("running").join(format!("{name}.hb"))
    }

    /// Publishes the completion record and retires the running entry.
    ///
    /// Order matters: `done/<name>.json` lands (staged + renamed)
    /// *before* the running file and heartbeat are removed, so a crash
    /// at any point leaves the job either still-running (recoverable)
    /// or already-done (cleanup-only) — never lost, never re-runnable.
    ///
    /// Like submissions, the publish is verified: the record is read
    /// back and re-parsed, and a torn publish is rewritten under the
    /// same name, up to `SUBMIT_RETRIES` times. When every attempt
    /// fails the running entry is left in place so recovery can requeue
    /// the job — an unreadable completion record never counts as done.
    ///
    /// # Errors
    ///
    /// The last I/O error when every publish attempt failed
    /// verification.
    pub fn complete(&self, claim: &Claim, status: JobStatus, detail: &str) -> io::Result<()> {
        let record = CompletionRecord {
            name: claim.name.clone(),
            fingerprint: claim.fingerprint,
            status,
            detail: detail.to_string(),
            spec: claim.spec.clone(),
        };
        self.publish(
            &record.render(),
            || {
                (
                    self.dir("tmp").join(format!("{}.done", claim.name)),
                    self.dir("done").join(&claim.name),
                )
            },
            false,
            |text| CompletionRecord::parse(&claim.name, text).as_ref() == Some(&record),
        )?;
        let _ = fs::remove_file(self.dir("running").join(&claim.name));
        let _ = fs::remove_file(self.heartbeat_path(&claim.name));
        Ok(())
    }

    /// Reads the completion record for `name`, if the job is done.
    /// Retries past transient read faults; `None` means no (readable)
    /// record exists.
    pub fn read_done(&self, name: &str) -> Option<CompletionRecord> {
        let path = self.dir("done").join(name);
        (0..READ_RETRIES).find_map(|_| {
            let bytes = self.io.read(&path).ok()?;
            CompletionRecord::parse(name, &String::from_utf8(bytes).ok()?)
        })
    }

    /// Scans `done/` for any completed job with this fingerprint — the
    /// dedup lookup.
    pub fn find_done_by_fingerprint(&self, fingerprint: u64) -> Option<CompletionRecord> {
        let suffix = format!("{fingerprint:016x}.json");
        let mut names: Vec<String> = list_names(&self.dir("done"))
            .ok()?
            .into_iter()
            .filter(|n| n.ends_with(&suffix))
            .collect();
        names.sort_unstable();
        names
            .into_iter()
            .find_map(|n| self.read_done(&n).filter(|r| r.status != JobStatus::Failed))
    }

    /// Sweeps `running/` for abandoned claims and returns how many
    /// were requeued to `pending/`.
    ///
    /// A claim is abandoned when its heartbeat's owner is a dead pid, or
    /// neither the heartbeat nor the running file has been written
    /// within `ttl` (an undecodable heartbeat is judged by age alone).
    /// If a completion record already exists the leftovers are removed
    /// instead of requeued — the crash happened after the publish, so
    /// the job is done.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures; per-entry races are
    /// tolerated.
    pub fn recover(&self, ttl: Duration) -> io::Result<usize> {
        let running = self.dir("running");
        let mut requeued = 0;
        let names = list_names(&running)?;
        // First pass: orphaned heartbeats (claim rename lost a race
        // after the winner's hb landed, or cleanup half-finished).
        for name in &names {
            if let Some(stem) = name.strip_suffix(".hb") {
                if !running.join(stem).exists() {
                    let _ = fs::remove_file(running.join(name));
                }
            }
        }
        for name in names {
            if is_heartbeat(&name) {
                continue;
            }
            let job = running.join(&name);
            // Only a *parseable* completion record counts as done; a
            // torn publish (crash mid-`complete`) must requeue, not
            // strand the job behind a corrupt record.
            let hb = self.heartbeat_path(&name);
            if self.read_done(&name).is_some() {
                let _ = fs::remove_file(&job);
                let _ = fs::remove_file(&hb);
                continue;
            }
            let seen = Sighting {
                owner: self
                    .io
                    .read(&hb)
                    .ok()
                    .and_then(|bytes| String::from_utf8(bytes).ok())
                    .and_then(|text| Owner::decode(&text)),
                // A claim with no heartbeat yet is as fresh as its
                // running file.
                age: [&hb, &job].into_iter().filter_map(|p| lease::age(p)).min(),
            };
            if seen.abandoned(Some(ttl))
                && self
                    .io
                    .rename(&job, &self.dir("pending").join(&name))
                    .is_ok()
            {
                let _ = fs::remove_file(&hb);
                requeued += 1;
            }
        }
        Ok(requeued)
    }

    /// Counts entries by state.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures.
    pub fn depth(&self) -> io::Result<QueueDepth> {
        let count = |state: &str| -> io::Result<usize> {
            Ok(list_names(&self.dir(state))?
                .iter()
                .filter(|n| !is_heartbeat(n))
                .count())
        };
        Ok(QueueDepth {
            pending: count("pending")?,
            running: count("running")?,
            done: count("done")?,
        })
    }

    /// Every known submission with its current state, FIFO-ordered.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures.
    pub fn list(&self) -> io::Result<Vec<JobEntry>> {
        let mut rows: BTreeMap<String, String> = BTreeMap::new();
        for name in list_names(&self.dir("pending"))? {
            rows.insert(name, "pending".to_string());
        }
        for name in list_names(&self.dir("running"))? {
            if !is_heartbeat(&name) {
                rows.insert(name, "running".to_string());
            }
        }
        for name in list_names(&self.dir("done"))? {
            let state = self
                .read_done(&name)
                .map_or_else(|| "done".to_string(), |r| r.status.to_string());
            rows.insert(name, state);
        }
        Ok(rows
            .into_iter()
            .map(|(name, state)| JobEntry { name, state })
            .collect())
    }
}

fn fresh_name(spec: &JobSpec) -> String {
    let millis = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    format!(
        "{millis:016x}-{:08x}-{:04x}-{:016x}.json",
        std::process::id(),
        seq & 0xFFFF,
        spec.fingerprint()
    )
}

/// True for a heartbeat sidecar name. The `.hb` suffix is a protocol
/// token, not a user-facing file extension, so the match is exact.
#[allow(clippy::case_sensitive_file_extension_comparisons)]
fn is_heartbeat(name: &str) -> bool {
    name.ends_with(".hb")
}

/// Extracts the fingerprint component from a submission name
/// (`<millis>-<pid>-<seq>-<fp>.json`).
pub fn fingerprint_of_name(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(".json")?;
    let (_, fp) = stem.rsplit_once('-')?;
    if fp.len() != 16 {
        return None;
    }
    u64::from_str_radix(fp, 16).ok()
}

fn list_names(dir: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Ok(name) = entry.file_name().into_string() {
            out.push(name);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::FileTimes;

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

    fn temp_queue(tag: &str) -> (PathBuf, Queue) {
        let dir = std::env::temp_dir().join(format!(
            "phaselab-queue-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let q = Queue::open(&dir).expect("open queue");
        (dir, q)
    }

    #[test]
    fn submit_claim_complete_lifecycle() {
        let (dir, q) = temp_queue("lifecycle");
        let name = q.submit(&spec(0)).expect("submit");
        assert_eq!(fingerprint_of_name(&name), Some(spec(0).fingerprint()));
        assert_eq!(
            q.depth().unwrap(),
            QueueDepth {
                pending: 1,
                running: 0,
                done: 0
            }
        );

        let claim = q.claim_next().expect("claim io").expect("a job");
        assert_eq!(claim.name, name);
        assert_eq!(claim.spec, spec(0));
        assert_eq!(
            q.depth().unwrap(),
            QueueDepth {
                pending: 0,
                running: 1,
                done: 0
            }
        );
        assert!(q.claim_next().expect("claim io").is_none());

        q.complete(&claim, JobStatus::Completed, "results/j0")
            .expect("complete");
        assert_eq!(
            q.depth().unwrap(),
            QueueDepth {
                pending: 0,
                running: 0,
                done: 1
            }
        );
        let rec = q.read_done(&name).expect("record");
        assert_eq!(rec.status, JobStatus::Completed);
        assert_eq!(rec.detail, "results/j0");
        assert_eq!(rec.spec, spec(0));
        assert_eq!(rec.fingerprint, spec(0).fingerprint());
        assert!(q.find_done_by_fingerprint(spec(0).fingerprint()).is_some());
        assert!(q.find_done_by_fingerprint(spec(7).fingerprint()).is_none());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn claims_are_fifo() {
        let (dir, q) = temp_queue("fifo");
        let first = q.submit(&spec(1)).expect("submit");
        // Names embed a millisecond stamp plus a per-process sequence
        // number, so same-millisecond submissions still order.
        let second = q.submit(&spec(2)).expect("submit");
        assert!(first < second, "{first} !< {second}");
        let a = q.claim_next().unwrap().unwrap();
        let b = q.claim_next().unwrap().unwrap();
        assert_eq!(a.name, first);
        assert_eq!(b.name, second);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn recover_requeues_stale_claims_and_cleans_done_leftovers() {
        let (dir, q) = temp_queue("recover");
        let name = q.submit(&spec(3)).expect("submit");
        let claim = q.claim_next().unwrap().unwrap();

        // Fresh heartbeat from a live process: not requeued.
        assert_eq!(q.recover(Duration::from_mins(1)).unwrap(), 0);

        // Forge a dead owner.
        let hb = q.dir("running").join(format!("{name}.hb"));
        fs::write(&hb, "999999999\n").unwrap();
        assert_eq!(q.recover(Duration::from_mins(1)).unwrap(), 1);
        assert_eq!(q.depth().unwrap().pending, 1);

        // Claim again, complete, then resurrect the running leftovers
        // as if the process crashed mid-cleanup.
        let claim2 = q.claim_next().unwrap().unwrap();
        q.complete(&claim2, JobStatus::Completed, "ok").unwrap();
        fs::write(q.dir("running").join(&name), claim.spec.to_json()).unwrap();
        assert_eq!(q.recover(Duration::from_secs(0)).unwrap(), 0);
        assert!(!q.dir("running").join(&name).exists(), "leftover cleaned");
        assert_eq!(q.depth().unwrap().done, 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn recover_requeues_silent_claims_by_age() {
        let (dir, q) = temp_queue("silent");
        let name = q.submit(&spec(4)).expect("submit");
        let _claim = q.claim_next().unwrap().unwrap();
        // Keep the owner pid alive (it is this test) but age both
        // files past the TTL: a hung worker.
        let old = SystemTime::now() - Duration::from_hours(1);
        for file in [
            q.dir("running").join(&name),
            q.dir("running").join(format!("{name}.hb")),
        ] {
            let f = fs::File::options().append(true).open(&file).unwrap();
            f.set_times(FileTimes::new().set_accessed(old).set_modified(old))
                .unwrap();
        }
        assert_eq!(q.recover(Duration::from_mins(1)).unwrap(), 1);
        assert_eq!(q.depth().unwrap().pending, 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn list_reports_every_state() {
        let (dir, q) = temp_queue("list");
        let done_name = q.submit(&spec(5)).expect("submit");
        let claim = q.claim_next().unwrap().unwrap();
        q.complete(&claim, JobStatus::Deduped, "shared").unwrap();
        let pending_name = q.submit(&spec(6)).expect("submit");
        let rows = q.list().expect("list");
        assert_eq!(rows.len(), 2);
        let state_of = |n: &str| {
            rows.iter()
                .find(|r| r.name == n)
                .map(|r| r.state.clone())
                .unwrap()
        };
        assert_eq!(state_of(&done_name), "deduped");
        assert_eq!(state_of(&pending_name), "pending");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn name_parsing_is_strict() {
        assert!(fingerprint_of_name("x-0123456789abcdef.json").is_some());
        assert!(fingerprint_of_name("x-0123456789abcdef.txt").is_none());
        assert!(fingerprint_of_name("x-123.json").is_none());
        assert!(fingerprint_of_name("nodash.json").is_none());
    }
}
