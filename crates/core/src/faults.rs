//! Deterministic fault injection for the checkpoint store's filesystem
//! I/O.
//!
//! Every recovery path in the checkpoint store — torn
//! frames, short reads, transient `EINTR`s, full disks, failed renames —
//! exists because real filesystems misbehave. This module makes those
//! misbehaviors *injectable on purpose*: a seeded [`FaultPlan`] names
//! per-operation probabilities for each fault kind. Each store or queue
//! handle does its reads, writes, and renames through an [`Io`] value;
//! a faulty `Io` (built from a plan, or from the `PHASELAB_FAULTS`
//! environment variable when the handle is opened) routes them through
//! an injector. Chaos tests then exercise exactly the code paths that
//! mangle-scripts only hit by luck, on the handles they arm and no
//! others.
//!
//! # Determinism
//!
//! Fault decisions hash (seed, per-injector draw sequence number, fault
//! lane, path) through FNV-1a — no wall clock, no OS entropy. Two runs
//! of the same single-threaded test with the same plan inject the same
//! faults at the same operations. Multi-process chaos runs are
//! *seeded* rather than replayable (each process draws its own
//! sequence), which is what a chaos harness needs: varied but
//! reproducible-in-distribution havoc.
//!
//! # Cost when disabled
//!
//! Plain `Io` (the default) pays one `Option` check per operation
//! before the plain `std::fs` call.
//!
//! # Spec syntax
//!
//! `PHASELAB_FAULTS="seed=42,torn=0.1,eintr=0.05,shortread=0.05,enospc=0.02,rename=0.02,stall=0.1,stall_ms=50,crash=0.01,max=100"`
//!
//! Every key is optional; unspecified probabilities are `0`. `max`
//! bounds the total number of injected faults (0 = unlimited), which
//! lets a test arm `eintr=1.0,max=2` and assert that bounded retries
//! outlast a bounded burst.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::checkpoint::Fnv;

/// The kinds of filesystem misbehavior the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The process aborts mid-write, as if `kill -9`'d at the worst
    /// moment: a prefix of the bytes is on disk under the temporary
    /// name when the process dies.
    Crash,
    /// The write reports success but only a prefix of the bytes landed.
    TornWrite,
    /// The write fails with `ENOSPC` (storage full).
    Enospc,
    /// The write completes, but only after a configured stall.
    StalledWrite,
    /// The rename into place fails.
    FailedRename,
    /// The read fails with `EINTR` (interrupted system call) — the
    /// classic transient error a caller should retry.
    Eintr,
    /// The read returns fewer bytes than the file holds.
    ShortRead,
}

impl FaultKind {
    /// Distinct per-kind lane code folded into the decision hash, so
    /// each kind draws independently at a given operation.
    fn lane(self) -> u64 {
        match self {
            FaultKind::Crash => 1,
            FaultKind::TornWrite => 2,
            FaultKind::Enospc => 3,
            FaultKind::StalledWrite => 4,
            FaultKind::FailedRename => 5,
            FaultKind::Eintr => 6,
            FaultKind::ShortRead => 7,
        }
    }

    /// Stable label used in counter names and events.
    fn label(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::TornWrite => "torn",
            FaultKind::Enospc => "enospc",
            FaultKind::StalledWrite => "stall",
            FaultKind::FailedRename => "rename",
            FaultKind::Eintr => "eintr",
            FaultKind::ShortRead => "shortread",
        }
    }
}

/// A seeded set of per-operation fault probabilities.
///
/// Probabilities are independent per kind and per operation; `0.0`
/// disables a kind, `1.0` triggers it at every opportunity (subject to
/// [`max_injections`](FaultPlan::max_injections)).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed folded into every fault decision.
    pub seed: u64,
    /// Probability a write lands only a prefix of its bytes yet
    /// reports success.
    pub torn: f64,
    /// Probability a write fails with `ENOSPC`.
    pub enospc: f64,
    /// Probability a rename fails.
    pub rename: f64,
    /// Probability a read fails with `EINTR`.
    pub eintr: f64,
    /// Probability a read returns fewer bytes than the file holds.
    pub short_read: f64,
    /// Probability a write stalls for [`stall_ms`](FaultPlan::stall_ms)
    /// before completing.
    pub stall: f64,
    /// How long a stalled write sleeps, in milliseconds.
    pub stall_ms: u64,
    /// Probability the process aborts mid-write (simulated `kill -9`).
    pub crash: f64,
    /// Upper bound on total injected faults; `0` means unlimited.
    pub max_injections: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            torn: 0.0,
            enospc: 0.0,
            rename: 0.0,
            eintr: 0.0,
            short_read: 0.0,
            stall: 0.0,
            stall_ms: 10,
            crash: 0.0,
            max_injections: 0,
        }
    }
}

impl FaultPlan {
    /// Parses a `key=value,key=value` spec (the `PHASELAB_FAULTS`
    /// syntax documented in the [module docs](self)).
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first unknown key,
    /// unparsable value, or out-of-range probability.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry `{part}` is not key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("fault probability `{v}` is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault probability `{v}` is outside [0, 1]"));
                }
                Ok(p)
            };
            let int = |v: &str| -> Result<u64, String> {
                v.parse()
                    .map_err(|_| format!("fault spec value `{v}` is not an integer"))
            };
            match key.trim() {
                "seed" => plan.seed = int(value)?,
                "torn" => plan.torn = prob(value)?,
                "enospc" => plan.enospc = prob(value)?,
                "rename" => plan.rename = prob(value)?,
                "eintr" => plan.eintr = prob(value)?,
                "shortread" => plan.short_read = prob(value)?,
                "stall" => plan.stall = prob(value)?,
                "stall_ms" => plan.stall_ms = int(value)?,
                "crash" => plan.crash = prob(value)?,
                "max" => plan.max_injections = int(value)?,
                other => return Err(format!("unknown fault spec key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// True when every probability is zero — arming such a plan is a
    /// no-op.
    pub fn is_noop(&self) -> bool {
        self.torn == 0.0
            && self.enospc == 0.0
            && self.rename == 0.0
            && self.eintr == 0.0
            && self.short_read == 0.0
            && self.stall == 0.0
            && self.crash == 0.0
    }
}

/// A seeded fault injector: a [`FaultPlan`] plus the per-process draw
/// sequence that makes its decisions deterministic.
///
/// Handles hold one inside an [`Io`]; tests can also hold their own
/// `Injector` and call its methods directly.
#[derive(Debug)]
pub struct Injector {
    plan: FaultPlan,
    draws: AtomicU64,
    injected: AtomicU64,
}

impl Injector {
    /// Creates an injector for the given plan with a fresh draw
    /// sequence.
    pub fn new(plan: FaultPlan) -> Self {
        Injector {
            plan,
            draws: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Total faults this injector has injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Draws the decision value for one (operation, lane) pair.
    fn draw(&self, seq: u64, kind: FaultKind, path: &Path) -> f64 {
        let h = Fnv::new()
            .u64(self.plan.seed)
            .u64(seq)
            .u64(kind.lane())
            .bytes(path.to_string_lossy().as_bytes())
            .finish();
        // 53 high-quality bits -> uniform [0, 1).
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decides whether `kind` fires for this operation, respecting the
    /// injection budget and recording the hit.
    fn fires(&self, seq: u64, kind: FaultKind, p: f64, path: &Path) -> bool {
        if p <= 0.0 || self.draw(seq, kind, path) >= p {
            return false;
        }
        let max = self.plan.max_injections;
        if max > 0 {
            // Claim a budget slot; back out if the burst is spent.
            let prev = self.injected.fetch_add(1, Ordering::Relaxed);
            if prev >= max {
                self.injected.fetch_sub(1, Ordering::Relaxed);
                return false;
            }
        } else {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        phaselab_obs::counter_add("faults.injected", phaselab_obs::Class::Timing, 1);
        phaselab_obs::counter_add(
            &format!("faults.injected.{}", kind.label()),
            phaselab_obs::Class::Timing,
            1,
        );
        phaselab_obs::event("faults", kind.label());
        true
    }

    /// `std::fs::write` with write-lane faults applied.
    ///
    /// # Errors
    ///
    /// Propagates real I/O errors and injects `ENOSPC` per the plan.
    pub fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let seq = self.draws.fetch_add(1, Ordering::Relaxed);
        if self.fires(seq, FaultKind::Crash, self.plan.crash, path) {
            // Land a prefix under the target name, then die like a
            // `kill -9` would: no unwinding, no destructors, no flush.
            let cut = self.torn_len(seq, bytes.len());
            let _ = std::fs::write(path, &bytes[..cut]);
            eprintln!(
                "[phaselab] fault injection: crashing mid-write of {}",
                path.display()
            );
            std::process::abort();
        }
        if self.fires(seq, FaultKind::Enospc, self.plan.enospc, path) {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected ENOSPC",
            ));
        }
        if self.fires(seq, FaultKind::TornWrite, self.plan.torn, path) {
            // The lie torn writes tell: a prefix lands, success is
            // reported anyway.
            let cut = self.torn_len(seq, bytes.len());
            return std::fs::write(path, &bytes[..cut]);
        }
        if self.fires(seq, FaultKind::StalledWrite, self.plan.stall, path) {
            std::thread::sleep(std::time::Duration::from_millis(self.plan.stall_ms));
        }
        std::fs::write(path, bytes)
    }

    /// `std::fs::rename` with rename-lane faults applied.
    ///
    /// # Errors
    ///
    /// Propagates real I/O errors and injects failures per the plan.
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let seq = self.draws.fetch_add(1, Ordering::Relaxed);
        if self.fires(seq, FaultKind::FailedRename, self.plan.rename, to) {
            return Err(io::Error::other("injected rename failure"));
        }
        std::fs::rename(from, to)
    }

    /// `std::fs::read` with read-lane faults applied.
    ///
    /// # Errors
    ///
    /// Propagates real I/O errors and injects `EINTR` per the plan.
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let seq = self.draws.fetch_add(1, Ordering::Relaxed);
        if self.fires(seq, FaultKind::Eintr, self.plan.eintr, path) {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "injected EINTR"));
        }
        let mut bytes = std::fs::read(path)?;
        if self.fires(seq, FaultKind::ShortRead, self.plan.short_read, path) {
            let cut = self.torn_len(seq, bytes.len());
            bytes.truncate(cut);
        }
        Ok(bytes)
    }

    /// A deterministic strict-prefix length for torn writes and short
    /// reads.
    fn torn_len(&self, seq: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        // One zero byte through the keyed basis: a single multiply.
        let h = Fnv::keyed(self.plan.seed ^ seq.rotate_left(17))
            .bytes(&[0])
            .finish();
        (h as usize) % len
    }
}

// ---------------------------------------------------------------------
// Per-handle I/O.

/// The filesystem I/O surface of one store or queue handle: plain
/// `std::fs` calls, or the same calls routed through an [`Injector`].
///
/// Faults belong to the handle, not the process: a chaos test arms the
/// handle it drives (via [`with_io`](crate::CheckpointStore::with_io))
/// and every other handle in the process, including concurrent tests
/// over other directories, keeps doing plain I/O. Cloning an `Io`
/// shares its injector, so clones draw from one sequence and one
/// injection budget.
#[derive(Debug, Clone, Default)]
pub struct Io {
    injector: Option<Arc<Injector>>,
}

impl Io {
    /// Plain, fault-free I/O.
    pub fn plain() -> Io {
        Io::default()
    }

    /// I/O routed through a fresh injector for `plan`. A no-op plan
    /// (all probabilities zero) gives plain I/O.
    pub fn faulty(plan: FaultPlan) -> Io {
        if plan.is_noop() {
            return Io::plain();
        }
        Io {
            injector: Some(Arc::new(Injector::new(plan))),
        }
    }

    /// The I/O that `PHASELAB_FAULTS` asks for in this process.
    ///
    /// The variable is parsed once per process; every handle opened
    /// from it shares one injector, so its draw sequence and `max`
    /// budget are per process. An unparsable spec warns and gives plain
    /// I/O — a chaos knob must never break a production run.
    ///
    /// Called from [`CheckpointStore::open`](crate::CheckpointStore::open)
    /// and the serve queue's `open`, so any process that touches a store
    /// (including spawned shard workers) picks the plan up.
    pub fn from_env() -> Io {
        static ENV: OnceLock<Io> = OnceLock::new();
        ENV.get_or_init(|| match std::env::var("PHASELAB_FAULTS") {
            Ok(spec) => match FaultPlan::parse(&spec) {
                Ok(plan) => Io::faulty(plan),
                Err(e) => {
                    eprintln!("[phaselab] warning: ignoring PHASELAB_FAULTS: {e}");
                    Io::plain()
                }
            },
            Err(_) => Io::plain(),
        })
        .clone()
    }

    /// True when this handle's I/O goes through an injector.
    pub fn is_faulty(&self) -> bool {
        self.injector.is_some()
    }

    /// Total faults this handle's injector has injected (0 for plain
    /// I/O).
    pub fn injected(&self) -> u64 {
        self.injector.as_ref().map_or(0, |i| i.injected())
    }

    /// `std::fs::write`, with the injector's faults if any.
    ///
    /// # Errors
    ///
    /// Whatever the underlying write (or the injected fault) produces.
    pub fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match &self.injector {
            Some(inj) => inj.write(path, bytes),
            None => std::fs::write(path, bytes),
        }
    }

    /// `std::fs::rename`, with the injector's faults if any.
    ///
    /// # Errors
    ///
    /// Whatever the underlying rename (or the injected fault) produces.
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match &self.injector {
            Some(inj) => inj.rename(from, to),
            None => std::fs::rename(from, to),
        }
    }

    /// `std::fs::read`, with the injector's faults if any.
    ///
    /// # Errors
    ///
    /// Whatever the underlying read (or the injected fault) produces.
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match &self.injector {
            Some(inj) => inj.read(path),
            None => std::fs::read(path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse(
            "seed=42, torn=0.1, eintr=0.05, shortread=0.5, enospc=0.02, \
             rename=0.03, stall=0.25, stall_ms=7, crash=0.01, max=9",
        )
        .expect("parses");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.torn, 0.1);
        assert_eq!(plan.eintr, 0.05);
        assert_eq!(plan.short_read, 0.5);
        assert_eq!(plan.enospc, 0.02);
        assert_eq!(plan.rename, 0.03);
        assert_eq!(plan.stall, 0.25);
        assert_eq!(plan.stall_ms, 7);
        assert_eq!(plan.crash, 0.01);
        assert_eq!(plan.max_injections, 9);
        assert!(!plan.is_noop());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("torn").is_err());
        assert!(FaultPlan::parse("torn=maybe").is_err());
        assert!(FaultPlan::parse("torn=1.5").is_err());
        assert!(FaultPlan::parse("torn=-0.1").is_err());
        assert!(FaultPlan::parse("warp=0.5").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
    }

    #[test]
    fn empty_spec_is_noop() {
        let plan = FaultPlan::parse("").expect("parses");
        assert!(plan.is_noop());
        assert_eq!(plan, FaultPlan::default());
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let plan = FaultPlan {
            eintr: 0.5,
            ..FaultPlan::default()
        };
        let path = PathBuf::from("/tmp/phaselab-faults-probe");
        let a = Injector::new(plan.clone());
        let b = Injector::new(plan.clone());
        let mut decisions_a = Vec::new();
        let mut decisions_b = Vec::new();
        for seq in 0..64 {
            decisions_a.push(a.draw(seq, FaultKind::Eintr, &path) < plan.eintr);
            decisions_b.push(b.draw(seq, FaultKind::Eintr, &path) < plan.eintr);
        }
        assert_eq!(decisions_a, decisions_b);
        assert!(decisions_a.iter().any(|&d| d));
        assert!(decisions_a.iter().any(|&d| !d));
        let other_seed = Injector::new(FaultPlan {
            seed: 99,
            ..plan.clone()
        });
        let decisions_c: Vec<bool> = (0..64)
            .map(|seq| other_seed.draw(seq, FaultKind::Eintr, &path) < plan.eintr)
            .collect();
        assert_ne!(decisions_a, decisions_c);
    }

    #[test]
    fn injection_budget_is_respected() {
        let plan = FaultPlan {
            eintr: 1.0,
            max_injections: 2,
            ..FaultPlan::default()
        };
        let inj = Injector::new(plan);
        let dir =
            std::env::temp_dir().join(format!("phaselab-faults-budget-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let file = dir.join("probe.bin");
        std::fs::write(&file, b"payload").expect("seed file");
        let mut errors = 0;
        for _ in 0..8 {
            if inj.read(&file).is_err() {
                errors += 1;
            }
        }
        assert_eq!(errors, 2, "exactly max_injections faults fire");
        assert_eq!(inj.injected(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faults_stay_on_the_handle_that_armed_them() {
        let dir =
            std::env::temp_dir().join(format!("phaselab-faults-handle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let file = dir.join("probe.bin");
        std::fs::write(&file, b"payload").expect("seed file");
        let faulty = Io::faulty(FaultPlan {
            eintr: 1.0,
            max_injections: 3,
            ..FaultPlan::default()
        });
        let plain = Io::plain();
        assert!(faulty.is_faulty() && !plain.is_faulty());
        assert!(faulty.read(&file).is_err());
        assert_eq!(plain.read(&file).expect("plain read"), b"payload");
        // Clones share one injector: one budget, one draw sequence.
        let twin = faulty.clone();
        assert!(twin.read(&file).is_err());
        assert!(faulty.read(&file).is_err());
        assert_eq!(twin.read(&file).expect("budget spent"), b"payload");
        assert_eq!(
            (faulty.injected(), twin.injected(), plain.injected()),
            (3, 3, 0)
        );
        // A no-op plan is plain I/O.
        assert!(!Io::faulty(FaultPlan::default()).is_faulty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_len_is_always_a_strict_prefix() {
        let inj = Injector::new(FaultPlan::default());
        for len in 1..200 {
            for seq in 0..16 {
                let cut = inj.torn_len(seq, len);
                assert!(cut < len, "cut {cut} not a strict prefix of {len}");
            }
        }
        assert_eq!(inj.torn_len(3, 0), 0);
    }

    /// Golden draws and cut points recorded before the FNV helpers were
    /// merged: chaos runs are reproducible only while these hold.
    #[test]
    fn draws_match_their_golden_values() {
        let inj = Injector::new(FaultPlan {
            seed: 42,
            ..FaultPlan::default()
        });
        let path = PathBuf::from("/tmp/phaselab-faults-probe");
        let draws: Vec<u64> = (0..8)
            .map(|seq| inj.draw(seq, FaultKind::Eintr, &path).to_bits())
            .collect();
        let cuts: Vec<usize> = (0..8).map(|seq| inj.torn_len(seq, 1000)).collect();
        assert_eq!(
            draws,
            [
                0x3FEAB78D7F01B2F1,
                0x3FE2D9978037BBB3,
                0x3FB4AAA6E2314CB8,
                0x3FE13809978B6974,
                0x3FE5AFA5EDA9D9B8,
                0x3FE5A8D81DFDDCF5,
                0x3FE9EE4E14E04F9F,
                0x3FE26B0B885A8F8C
            ]
        );
        assert_eq!(cuts, [813, 621, 197, 5, 581, 389, 965, 773]);
    }
}
