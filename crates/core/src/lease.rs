//! Owner records — the one ownership primitive behind every
//! coordination file — and the per-shard leases built on them.
//!
//! # Owner records
//!
//! Shard leases, serve-queue claim heartbeats, result-cache pins, and
//! the `O_EXCL` mutation lock all name their holder with one [`Owner`]
//! record, `<pid> <token> <fence>\n`: the owning process, a token that
//! tells owners apart (two pins in one process, a usurping worker), and
//! a fencing counter that totally orders successive lease holders.
//!
//! One rule decides abandonment ([`Sighting::abandoned`]): the owner's
//! pid is dead, or the file has not been rewritten within the TTL.
//! Age is the file's mtime: one clock for every record, and one a test
//! can set directly. Pins pass no TTL, so only a dead owner breaks
//! them. A record that does not decode (a torn write, a foreign file)
//! is judged by age alone: the trailing newline is part of the record,
//! so a torn prefix never decodes, and a torn heartbeat can delay a
//! requeue by one TTL but never make a live claim look dead.
//!
//! # Shard leases
//!
//! Each shard slot owns one lease file, `leases/shard-<i>.lease` under
//! the store root. A worker acquires the slot by writing its own record
//! (guarded by the mutation lock and confirmed by read-back), then
//! rewrites the file every quarter-TTL. An abandoned lease is taken
//! over with a bumped fencing counter.
//!
//! These are *advisory* leases built from portable filesystem
//! primitives, so mutual exclusion is convergent rather than absolute:
//! in a pathological interleaving two workers can briefly both believe
//! they own a slot, but each heartbeat re-validates ownership by token,
//! so the loser notices within one heartbeat period, trips its cancel
//! token, and stops. Correctness never rests on the lease alone —
//! checkpoint writes are idempotent, content-fingerprinted, and
//! individually atomic, so even an overlapping loser can only write
//! bytes the winner would have written.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use phaselab_par::CancelToken;

use crate::checkpoint::Fnv;

/// Default lease time-to-live, overridable via `PHASELAB_LEASE_TTL_MS`.
const DEFAULT_TTL_MS: u64 = 30_000;

/// A positive integer `PHASELAB_*` knob: `None` when the variable is
/// unset, zero, or not a number, so every knob treats 0 as unset.
pub fn env_knob(name: &str) -> Option<u64> {
    parse_knob(&std::env::var(name).ok()?)
}

fn parse_knob(value: &str) -> Option<u64> {
    value.parse().ok().filter(|&v| v > 0)
}

/// The lease TTL for this process: `PHASELAB_LEASE_TTL_MS` if set and
/// positive, else 30 seconds. A record older than this is abandoned.
pub fn default_ttl() -> Duration {
    Duration::from_millis(env_knob("PHASELAB_LEASE_TTL_MS").unwrap_or(DEFAULT_TTL_MS))
}

/// Who holds a coordination file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Owner {
    /// Pid of the owning process.
    pub pid: u32,
    /// Random token telling owners apart, within and across processes.
    pub token: u64,
    /// Monotonic fencing counter, bumped on every lease takeover.
    pub fence: u64,
}

impl Owner {
    /// A record naming this process.
    pub fn this_process(token: u64, fence: u64) -> Owner {
        Owner {
            pid: std::process::id(),
            token,
            fence,
        }
    }

    /// The on-disk form, `<pid> <token hex> <fence>\n`.
    pub fn encode(&self) -> String {
        format!("{} {:016x} {}\n", self.pid, self.token, self.fence)
    }

    /// Decodes a record. The trailing newline is required, so no strict
    /// prefix of a record decodes. A bare `<pid>\n` (the form a claim
    /// heartbeat carries in older spools) decodes with token and fence
    /// zero.
    pub fn decode(text: &str) -> Option<Owner> {
        let mut fields = text.strip_suffix('\n')?.split(' ');
        let pid = fields.next()?.parse().ok()?;
        let token = fields
            .next()
            .map_or(Some(0), |t| u64::from_str_radix(t, 16).ok())?;
        let fence = fields.next().map_or(Some(0), |f| f.parse().ok())?;
        if fields.next().is_some() {
            return None;
        }
        Some(Owner { pid, token, fence })
    }
}

/// What a reader saw of an owner file.
#[derive(Debug, Clone, Copy)]
pub struct Sighting {
    /// The record, if it decoded.
    pub owner: Option<Owner>,
    /// Time since the file was last written; `None` when it could not
    /// be stat'ed (absent, or racing a rename).
    pub age: Option<Duration>,
}

impl Sighting {
    /// Reads and stats the owner file at `path`.
    pub fn read(path: &Path) -> Sighting {
        Sighting {
            owner: fs::read_to_string(path)
                .ok()
                .and_then(|t| Owner::decode(&t)),
            age: age(path),
        }
    }

    /// The one abandonment rule: the owner's pid is dead, or — when a
    /// `ttl` applies — the file is older than it (or cannot be stat'ed).
    pub fn abandoned(&self, ttl: Option<Duration>) -> bool {
        self.owner.is_some_and(|o| !pid_alive(o.pid))
            || ttl.is_some_and(|ttl| self.age.is_none_or(|a| a > ttl))
    }
}

/// Time since `path` was last written, by its mtime.
pub fn age(path: &Path) -> Option<Duration> {
    let modified = fs::metadata(path).and_then(|m| m.modified()).ok()?;
    Some(
        SystemTime::now()
            .duration_since(modified)
            .unwrap_or(Duration::ZERO),
    )
}

/// Whether a process with this pid still exists. A `kill -9`'d owner
/// leaves a fresh-looking record that would otherwise block its
/// successor for a full TTL; on Linux `/proc` settles the question at
/// once. Elsewhere this errs on the side of "alive" and the TTL does
/// the work (pins then only break when dropped, which is merely
/// conservative).
fn pid_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    if cfg!(target_os = "linux") {
        Path::new("/proc").join(pid.to_string()).exists()
    } else {
        true
    }
}

/// Mints an ownership token from process identity, the wall clock, and
/// a caller salt — unique enough to tell racing owners apart.
pub(crate) fn mint_token(salt: u64) -> u64 {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    Fnv::new()
        .u64(u64::from(std::process::id()))
        .u64(nanos)
        .u64(salt)
        .finish()
}

/// Atomically replaces the file at `path` with `owner`'s record (unique
/// temporary sibling + rename, so readers never see a torn record, and
/// the mtime — the record's age — restarts).
///
/// # Errors
///
/// Whatever the temporary write or the rename produced.
pub(crate) fn write_record(path: &Path, owner: &Owner) -> io::Result<()> {
    let tmp = path.with_extension(format!(
        "tmp-{}-{:08x}",
        owner.pid,
        owner.token & 0xFFFF_FFFF
    ));
    fs::write(&tmp, owner.encode())?;
    fs::rename(&tmp, path)
}

/// Why a shard lease could not be acquired.
#[derive(Debug)]
pub enum LeaseError {
    /// The lease directory or file could not be created or read.
    Io(io::Error),
    /// Another live worker holds the slot and kept heartbeating for
    /// the whole wait window.
    Held {
        /// The contended shard index.
        shard: u32,
        /// Pid recorded by the current holder (0 if its record did
        /// not decode).
        holder_pid: u32,
        /// The holder's fencing counter.
        fence: u64,
    },
    /// The caller's cancel token tripped while waiting.
    Cancelled,
}

impl fmt::Display for LeaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeaseError::Io(e) => write!(f, "lease I/O error: {e}"),
            LeaseError::Held {
                shard,
                holder_pid,
                fence,
            } => write!(
                f,
                "shard {shard} lease held by live pid {holder_pid} (fence {fence})"
            ),
            LeaseError::Cancelled => write!(f, "lease wait cancelled"),
        }
    }
}

impl std::error::Error for LeaseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LeaseError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LeaseError {
    fn from(e: io::Error) -> Self {
        LeaseError::Io(e)
    }
}

/// Path of the lease file for one shard slot under a store root.
pub fn lease_path(store_dir: &Path, shard: u32) -> PathBuf {
    store_dir
        .join("leases")
        .join(format!("shard-{shard}.lease"))
}

/// Runs `mutate` while holding the `O_EXCL` mutation lock for `path`
/// (the lock file is `path` with a `.lock` extension, holding its
/// owner's record), so cooperating processes cannot interleave their
/// read-decide-write sequences. Shard leases and the result cache's
/// eviction passes both take it. A lock whose owner is dead, or that is
/// older than `ttl`, is presumed abandoned and broken.
///
/// # Errors
///
/// `WouldBlock` when the lock stayed busy past `ttl`; otherwise
/// whatever the lock-file creation produced.
pub fn with_mutation_lock<T>(
    path: &Path,
    ttl: Duration,
    mutate: impl FnOnce() -> T,
) -> io::Result<T> {
    let lock = path.with_extension("lock");
    let deadline = Instant::now() + ttl;
    loop {
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&lock)
        {
            Ok(mut f) => {
                let _ = f.write_all(Owner::this_process(0, 0).encode().as_bytes());
                let out = mutate();
                let _ = fs::remove_file(&lock);
                return Ok(out);
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                if Sighting::read(&lock).abandoned(Some(ttl)) {
                    let _ = fs::remove_file(&lock);
                    continue;
                }
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        "lease mutation lock busy",
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
}

/// A held shard lease: heartbeats in the background until released
/// (or dropped), and trips its cancel token if displaced.
#[derive(Debug)]
pub struct ShardLease {
    path: PathBuf,
    shard: u32,
    owner: Owner,
    stop: Arc<AtomicBool>,
    displaced: Arc<AtomicBool>,
    heartbeat: Option<JoinHandle<()>>,
}

impl ShardLease {
    /// The shard slot this lease covers.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// This owner's fencing counter — strictly greater than every
    /// previous owner's.
    pub fn fence(&self) -> u64 {
        self.owner.fence
    }

    /// True once another worker has taken the slot over; the cancel
    /// token passed at acquisition has been tripped.
    pub fn is_displaced(&self) -> bool {
        self.displaced.load(Ordering::Acquire)
    }

    /// Stops heartbeating and removes the lease file if still owned.
    /// Also runs on drop.
    pub fn release(mut self) {
        self.release_inner();
    }

    fn release_inner(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.heartbeat.take() {
            let _ = handle.join();
        }
        // Remove only if the record is still ours: a displaced lease
        // belongs to the new owner now.
        if holds(&self.path, self.owner.token) {
            let _ = fs::remove_file(&self.path);
        }
    }
}

impl Drop for ShardLease {
    fn drop(&mut self) {
        self.release_inner();
    }
}

/// Acquires the lease for `shard` under `store_dir`, waiting up to
/// `wait` for a live holder to go away.
///
/// An abandoned (or absent) lease is taken over immediately with a
/// bumped fencing counter; takeovers increment the Timing-class
/// `store.lease_takeovers` counter. While held, a background thread
/// rewrites the record every quarter-TTL and — should another worker
/// displace this one — trips `cancel` so the worker stops writing.
///
/// # Errors
///
/// [`LeaseError::Held`] when a live holder outlasted `wait`,
/// [`LeaseError::Cancelled`] when `cancel` tripped while waiting, and
/// [`LeaseError::Io`] for filesystem failures.
pub fn acquire(
    store_dir: &Path,
    shard: u32,
    ttl: Duration,
    wait: Duration,
    cancel: Option<&CancelToken>,
) -> Result<ShardLease, LeaseError> {
    let path = lease_path(store_dir, shard);
    fs::create_dir_all(path.parent().expect("lease paths have a parent"))?;
    let token = mint_token(u64::from(shard));
    let deadline = Instant::now() + wait;
    loop {
        if cancel.is_some_and(phaselab_par::CancelToken::is_cancelled) {
            return Err(LeaseError::Cancelled);
        }
        let claim = with_mutation_lock(&path, ttl, || -> io::Result<Result<_, Sighting>> {
            let seen = Sighting::read(&path);
            if !seen.abandoned(Some(ttl)) && seen.owner.is_none_or(|o| o.token != token) {
                return Ok(Err(seen));
            }
            let mine = Owner::this_process(token, seen.owner.map_or(1, |o| o.fence + 1));
            write_record(&path, &mine)?;
            Ok(Ok((mine, seen.owner.is_some())))
        })??;
        match claim {
            Ok((mine, takeover)) => {
                // Confirm the claim survived any racing writer outside
                // the lock (belt and braces; the lock already orders
                // well-behaved acquirers).
                if !holds(&path, token) {
                    continue;
                }
                if takeover {
                    phaselab_obs::counter_add(
                        "store.lease_takeovers",
                        phaselab_obs::Class::Timing,
                        1,
                    );
                    phaselab_obs::event("lease", &format!("takeover of shard {shard}"));
                }
                return Ok(start_heartbeat(path, shard, mine, ttl, cancel));
            }
            Err(holder) => {
                if Instant::now() >= deadline {
                    let (holder_pid, fence) = holder.owner.map_or((0, 0), |o| (o.pid, o.fence));
                    return Err(LeaseError::Held {
                        shard,
                        holder_pid,
                        fence,
                    });
                }
                std::thread::sleep((ttl / 8).max(Duration::from_millis(5)));
            }
        }
    }
}

/// Whether the record at `path` names the owner holding `token`.
fn holds(path: &Path, token: u64) -> bool {
    Sighting::read(path).owner.is_some_and(|o| o.token == token)
}

/// Spawns the heartbeat thread and assembles the lease guard.
fn start_heartbeat(
    path: PathBuf,
    shard: u32,
    owner: Owner,
    ttl: Duration,
    cancel: Option<&CancelToken>,
) -> ShardLease {
    let stop = Arc::new(AtomicBool::new(false));
    let displaced = Arc::new(AtomicBool::new(false));
    let beat_path = path.clone();
    let beat_stop = Arc::clone(&stop);
    let beat_displaced = Arc::clone(&displaced);
    let beat_cancel = cancel.cloned();
    let interval = (ttl / 4).max(Duration::from_millis(10));
    let heartbeat = std::thread::Builder::new()
        .name(format!("lease-heartbeat-{shard}"))
        .spawn(move || {
            let mut next_beat = Instant::now() + interval;
            while !beat_stop.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(interval.as_millis().min(25) as u64));
                if Instant::now() < next_beat {
                    continue;
                }
                next_beat = Instant::now() + interval;
                // Re-validate ownership before refreshing: a blind
                // rewrite could resurrect a lease another worker has
                // legitimately taken over.
                if holds(&beat_path, owner.token) {
                    let _ = write_record(&beat_path, &owner);
                } else {
                    beat_displaced.store(true, Ordering::Release);
                    if let Some(t) = &beat_cancel {
                        t.cancel();
                    }
                    phaselab_obs::event("lease", &format!("shard {shard} lease displaced"));
                    return;
                }
            }
        })
        .expect("spawn lease heartbeat thread");
    ShardLease {
        path,
        shard,
        owner,
        stop,
        displaced,
        heartbeat: Some(heartbeat),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("phaselab-lease-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// Backdates `path`'s mtime by `by`, as a silent owner would leave it.
    fn age_file(path: &Path, by: Duration) {
        let f = fs::File::options().append(true).open(path).expect("open");
        f.set_modified(SystemTime::now() - by).expect("set mtime");
    }

    /// A pid no live process can have.
    const DEAD_PID: u32 = 999_999_999;

    #[test]
    fn owner_record_roundtrips_and_torn_prefixes_never_decode() {
        let owner = Owner {
            pid: 4242,
            token: 0xDEAD_BEEF_0123_4567,
            fence: 7,
        };
        let text = owner.encode();
        assert_eq!(Owner::decode(&text), Some(owner));
        for cut in 0..text.len() {
            assert_eq!(Owner::decode(&text[..cut]), None, "prefix {cut} decoded");
        }
        assert_eq!(
            Owner::decode("4000000000\n"),
            Some(Owner {
                pid: 4_000_000_000,
                token: 0,
                fence: 0
            })
        );
        assert_eq!(Owner::decode("not an owner\n"), None);
        assert_eq!(Owner::decode("1 2 3 4\n"), None);
    }

    #[test]
    fn one_abandonment_rule_covers_dead_silent_and_undecodable_owners() {
        let dir = temp_dir("rule");
        let file = dir.join("owner");
        let ttl = Some(Duration::from_mins(1));
        // Absent: abandoned under a TTL, never without one.
        assert!(Sighting::read(&file).abandoned(ttl));
        assert!(!Sighting::read(&file).abandoned(None));
        // Live and fresh: held.
        write_record(&file, &Owner::this_process(1, 1)).expect("write");
        assert!(!Sighting::read(&file).abandoned(ttl));
        // Live but silent past the TTL: abandoned only when a TTL applies.
        age_file(&file, Duration::from_hours(1));
        assert!(Sighting::read(&file).abandoned(ttl));
        assert!(!Sighting::read(&file).abandoned(None));
        // Dead owner: abandoned at once, TTL or not.
        fs::write(&file, format!("{DEAD_PID}\n")).expect("forge");
        if cfg!(target_os = "linux") {
            assert!(Sighting::read(&file).abandoned(None));
        }
        // Undecodable (torn): judged by age alone.
        fs::write(&file, "12").expect("torn");
        assert!(!Sighting::read(&file).abandoned(ttl));
        age_file(&file, Duration::from_hours(1));
        assert!(Sighting::read(&file).abandoned(ttl));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mutation_lock_of_a_dead_owner_is_broken_at_once() {
        let dir = temp_dir("lock");
        let resource = dir.join("resource");
        fs::write(resource.with_extension("lock"), format!("{DEAD_PID} 0 0\n")).expect("forge");
        if cfg!(target_os = "linux") {
            let started = Instant::now();
            let out = with_mutation_lock(&resource, Duration::from_mins(1), || 7).expect("lock");
            assert_eq!(out, 7);
            assert!(started.elapsed() < Duration::from_secs(30));
            assert!(!resource.with_extension("lock").exists());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn knobs_treat_zero_and_garbage_as_unset() {
        assert_eq!(parse_knob("250"), Some(250));
        assert_eq!(parse_knob("0"), None);
        assert_eq!(parse_knob(""), None);
        assert_eq!(parse_knob("-5"), None);
        assert_eq!(parse_knob("1.5"), None);
        assert_eq!(parse_knob("soon"), None);
    }

    #[test]
    fn acquire_release_cycle_leaves_no_file() {
        let dir = temp_dir("cycle");
        let ttl = Duration::from_millis(200);
        let lease = acquire(&dir, 0, ttl, Duration::from_millis(100), None).expect("acquire");
        assert_eq!(lease.fence(), 1);
        assert!(!lease.is_displaced());
        let recorded = Sighting::read(&lease_path(&dir, 0))
            .owner
            .expect("recorded");
        assert_eq!(recorded.pid, std::process::id());
        lease.release();
        assert!(Sighting::read(&lease_path(&dir, 0)).owner.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_lease_blocks_and_stale_lease_is_taken_over() {
        let dir = temp_dir("takeover");
        let ttl = Duration::from_millis(150);
        let first = acquire(&dir, 3, ttl, Duration::from_millis(50), None).expect("acquire");
        // A live, heartbeating holder: a second acquirer times out.
        let contender = acquire(&dir, 3, ttl, Duration::from_millis(30), None);
        assert!(matches!(contender, Err(LeaseError::Held { shard: 3, .. })));
        // Different slots never contend.
        let other = acquire(&dir, 4, ttl, Duration::from_millis(30), None).expect("other slot");
        other.release();
        drop(first);
        // Forge a stale record: takeover must bump the fence.
        let path = lease_path(&dir, 3);
        write_record(
            &path,
            &Owner {
                pid: 1,
                token: 99,
                fence: 5,
            },
        )
        .expect("forge stale");
        age_file(&path, Duration::from_secs(10));
        let second = acquire(&dir, 3, ttl, Duration::from_millis(50), None).expect("takeover");
        assert_eq!(second.fence(), 6);
        second.release();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn displaced_owner_notices_and_trips_its_cancel_token() {
        let dir = temp_dir("displace");
        let ttl = Duration::from_millis(80);
        let token = CancelToken::new();
        let lease =
            acquire(&dir, 1, ttl, Duration::from_millis(50), Some(&token)).expect("acquire");
        // Simulate a fenced takeover by a new owner.
        write_record(
            &lease_path(&dir, 1),
            &Owner {
                pid: 999_999,
                token: 0xABCD,
                fence: lease.fence() + 1,
            },
        )
        .expect("usurp");
        let deadline = Instant::now() + Duration::from_secs(5);
        while !lease.is_displaced() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(lease.is_displaced(), "heartbeat never noticed the usurper");
        assert!(
            token.is_cancelled(),
            "displacement must trip the cancel token"
        );
        drop(lease);
        // The usurper's record survives the displaced owner's drop.
        let survivor = Sighting::read(&lease_path(&dir, 1)).owner;
        assert_eq!(survivor.expect("still present").pid, 999_999);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_wait_returns_cancelled() {
        let dir = temp_dir("cancelled");
        let token = CancelToken::new();
        token.cancel();
        let r = acquire(
            &dir,
            0,
            Duration::from_millis(100),
            Duration::from_millis(100),
            Some(&token),
        );
        assert!(matches!(r, Err(LeaseError::Cancelled)));
        let _ = fs::remove_dir_all(&dir);
    }
}
