//! The traced run's per-layer numbers. Two sources: the run manifests
//! `repro --metrics-out` already writes (stage spans and exact work
//! counters), and probes that time calls into each layer's public
//! functions from here, over the workload's own programs and store.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use phaselab_core::{analyze_benchmark, CancelToken, CheckpointStore};
use phaselab_mica::{
    Analyzer, BranchAnalyzer, FeatureVector, FootprintAnalyzer, IlpAnalyzer, MixAnalyzer,
    RegTrafficAnalyzer, StrideAnalyzer,
};
use phaselab_obs::Json;
use phaselab_serve::json::{as_u64, get};
use phaselab_serve::{serve, JobContext, JobSpec, JobStatus, Queue, ServeConfig};
use phaselab_trace::{InstRecord, SummarySink, VecSink};
use phaselab_vm::{CompiledProgram, Vm};
use phaselab_workloads::{Benchmark, Scale};

use crate::served::{run_client, JobObs};
use crate::{median, metric, Ctx, Iter, Metric, Outcome};

/// Instructions of each program replayed through every MICA analyzer.
const MICA_STREAM: u64 = 50_000;

/// Exact work counts compared between traced siblings, and the
/// manifest section each lives in.
const COUNTS: [(&str, &str); 11] = [
    ("counters", "vm.instructions"),
    ("counters", "vm.blocks"),
    ("counters", "pca.fits"),
    ("counters", "ga.evaluations"),
    ("counters", "kmeans.iterations"),
    ("counters", "kmeans.points.scanned"),
    ("counters", "kmeans.points.pruned"),
    ("timings", "serve.jobs.admitted"),
    ("timings", "serve.jobs.deduped"),
    ("timings", "cache.hit"),
    ("timings", "cache.miss"),
];

/// Stage spans of the study pipeline, summed over a traced iteration.
const SPANS: [&str; 8] = [
    "study",
    "study/characterize",
    "study/sample",
    "study/analysis",
    "study/analysis/pca.fit",
    "study/kmeans",
    "study/ga",
    "study/ga/ga.select",
];

/// What the layer probes run over.
pub struct ProbeInput {
    pub scale: Scale,
    pub interval: u64,
    pub max_instructions: u64,
    pub benches: Vec<Benchmark>,
    /// A store the workload filled, with its characterization fingerprint.
    pub store: Option<(PathBuf, u64)>,
    /// Job specs for the queue probes.
    pub specs: Vec<JobSpec>,
}

/// The manifests of one traced iteration, reduced to what is reported.
#[derive(Default)]
pub struct Manifests {
    pub counts: BTreeMap<&'static str, u64>,
    spans_ms: BTreeMap<&'static str, f64>,
    /// Slowest computed benchmark (`bench.time_ms[..]` gauges).
    bench_ms_max: f64,
}

impl Manifests {
    pub fn load(paths: &[PathBuf]) -> Result<Manifests, String> {
        let mut m = Manifests::default();
        for path in paths {
            let text = fs::read_to_string(path)
                .map_err(|e| format!("no manifest {}: {e}", path.display()))?;
            let doc = phaselab_serve::json::parse(&text)
                .map_err(|e| format!("bad manifest {}: {e}", path.display()))?;
            let timings = get(&doc, "timings");
            for (section, name) in COUNTS {
                let holder = if section == "timings" {
                    timings.and_then(|t| get(t, "counters"))
                } else {
                    get(&doc, "counters")
                };
                let n = holder
                    .and_then(|h| get(h, name))
                    .and_then(as_u64)
                    .unwrap_or(0);
                *m.counts.entry(name).or_insert(0) += n;
            }
            let spans = timings.and_then(|t| get(t, "spans"));
            for name in SPANS {
                let ms = spans
                    .and_then(|s| get(s, name))
                    .and_then(|s| get(s, "total_ms"))
                    .map_or(0.0, number);
                *m.spans_ms.entry(name).or_insert(0.0) += ms;
            }
            if let Some(Json::Obj(gauges)) = timings.and_then(|t| get(t, "gauges")) {
                for (key, value) in gauges {
                    if key.starts_with("bench.time_ms[") {
                        m.bench_ms_max = m.bench_ms_max.max(number(value));
                    }
                }
            }
        }
        Ok(m)
    }

    fn span(&self, name: &str) -> f64 {
        self.spans_ms.get(name).copied().unwrap_or(0.0)
    }

    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0) as f64
    }
}

fn number(v: &Json) -> f64 {
    match v {
        Json::U64(n) => *n as f64,
        Json::F64(x) => *x,
        _ => 0.0,
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn elapsed_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Every program of every benchmark, in registry order.
fn programs(input: &ProbeInput) -> impl Iterator<Item = phaselab_vm::Program> + '_ {
    input
        .benches
        .iter()
        .flat_map(move |b| (0..b.num_inputs()).map(move |i| b.build(input.scale, i)))
}

/// `workloads`: building every program.
fn build_ms(input: &ProbeInput) -> f64 {
    let t = Instant::now();
    for p in programs(input) {
        black_box(p);
    }
    elapsed_ms(t)
}

/// `vm`: the static pre-flight over every benchmark.
fn analyze_ms(input: &ProbeInput, out: &mut Outcome) -> f64 {
    let mut ms = 0.0;
    for b in &input.benches {
        let t = Instant::now();
        let report = analyze_benchmark(b, input.scale);
        ms += elapsed_ms(t);
        if let Err(q) = report {
            out.problem(format!("static pre-flight rejects {q}"));
        }
    }
    ms
}

/// `vm`: the block engine with a counting sink, as `(ns/inst,
/// instructions, blocks)`.
fn block_engine(input: &ProbeInput, out: &mut Outcome) -> (f64, u64, u64) {
    let (mut ns, mut instructions, mut blocks) = (0.0, 0, 0);
    for program in programs(input) {
        let compiled = CompiledProgram::compile(&program);
        let mut vm = Vm::new(&program);
        let mut sink = SummarySink::new();
        let t = Instant::now();
        match vm.run_blocks(&compiled, &mut sink, input.max_instructions) {
            Ok(o) => {
                ns += t.elapsed().as_secs_f64() * 1e9;
                instructions += o.instructions;
                blocks += o.blocks;
            }
            Err(e) => out.problem(format!("block engine faulted: {e}")),
        }
        black_box(sink.instructions());
    }
    (ratio(ns, instructions as f64), instructions, blocks)
}

/// Replays one recorded stream through one analyzer, resetting at each
/// interval boundary as the characterizer does; returns nanoseconds.
fn replay<A: Analyzer>(mut a: A, stream: &[InstRecord], interval: u64) -> f64 {
    let mut features = FeatureVector::zeros();
    let t = Instant::now();
    for (i, rec) in stream.iter().enumerate() {
        let index = i as u64 % interval;
        if index == 0 && i > 0 {
            a.emit(&mut features);
            a.reset();
        }
        a.observe(rec, index);
    }
    a.emit(&mut features);
    black_box(&features);
    t.elapsed().as_secs_f64() * 1e9
}

/// `mica`: each analyzer's `observe` over real registry streams, one
/// program at a time (the first [`MICA_STREAM`] instructions of each).
fn mica(input: &ProbeInput, out: &mut Outcome) -> Vec<(&'static str, f64)> {
    let names = [
        "branch_ppm",
        "ilp",
        "footprint",
        "regtraffic",
        "strides",
        "mix",
    ];
    let mut ns = [0.0; 6];
    let mut records = 0usize;
    for program in programs(input) {
        let mut sink = VecSink::new();
        if let Err(e) = Vm::new(&program).run(&mut sink, MICA_STREAM) {
            out.problem(format!("recording a stream faulted: {e}"));
            continue;
        }
        let stream = sink.into_records();
        records += stream.len();
        let iv = input.interval;
        ns[0] += replay(BranchAnalyzer::new(), &stream, iv);
        ns[1] += replay(IlpAnalyzer::new(), &stream, iv);
        ns[2] += replay(FootprintAnalyzer::new(), &stream, iv);
        ns[3] += replay(RegTrafficAnalyzer::new(), &stream, iv);
        ns[4] += replay(StrideAnalyzer::new(), &stream, iv);
        ns[5] += replay(MixAnalyzer::new(), &stream, iv);
    }
    names
        .iter()
        .zip(ns)
        .map(|(n, t)| (*n, ratio(t, records as f64)))
        .collect()
}

/// `core.checkpoint`: loads every characterization the workload's store
/// holds and writes each into a scratch store, as `(read_ms,
/// slowest_read_ms, write_ms, bytes)`.
fn checkpoint(input: &ProbeInput, scratch: &Path) -> Result<(f64, f64, f64, u64), String> {
    let (dir, fp) = input.store.as_ref().ok_or("the workload left no store")?;
    let src = CheckpointStore::open(dir).map_err(|e| e.to_string())?;
    let dst = CheckpointStore::open(scratch).map_err(|e| e.to_string())?;
    let (mut read, mut slowest, mut write, mut bytes, mut n) = (0.0, 0.0_f64, 0.0, 0, 0);
    for b in &input.benches {
        let t = Instant::now();
        let Some(outcome) = src.load_benchmark(*fp, b.suite(), b.name()) else {
            continue;
        };
        let ms = elapsed_ms(t);
        read += ms;
        slowest = slowest.max(ms);
        let t = Instant::now();
        dst.store_benchmark(*fp, b.suite(), b.name(), &outcome);
        write += elapsed_ms(t);
        bytes += fs::metadata(dst.benchmark_path(*fp, b.suite(), b.name())).map_or(0, |m| m.len());
        n += 1;
    }
    if n == 0 {
        return Err(format!("store {} holds no characterization", dir.display()));
    }
    Ok((read, slowest, write, bytes))
}

/// `serve` queue operations on a private spool, as median
/// `(submit_ms, claim_ms, complete_ms)`.
fn queue_ops(specs: &[JobSpec], dir: &Path) -> Result<(f64, f64, f64), String> {
    let q = Queue::open(dir).map_err(|e| e.to_string())?;
    let (mut submit, mut claim, mut complete) = (Vec::new(), Vec::new(), Vec::new());
    for s in specs {
        let t = Instant::now();
        q.submit(s).map_err(|e| e.to_string())?;
        submit.push(elapsed_ms(t));
    }
    for _ in specs {
        let t = Instant::now();
        let c = q
            .claim_next()
            .map_err(|e| e.to_string())?
            .ok_or("nothing to claim")?;
        claim.push(elapsed_ms(t));
        let t = Instant::now();
        q.complete(&c, JobStatus::Completed, "probe")
            .map_err(|e| e.to_string())?;
        complete.push(elapsed_ms(t));
    }
    Ok((median(&submit), median(&claim), median(&complete)))
}

/// `serve` loop overheads where the workload has no server: the real
/// serve loop in-process with a runner that does no work, fed by the
/// same closed-loop client (plus one exact duplicate).
fn serve_loop(specs: &[JobSpec], dir: &Path) -> Vec<JobObs> {
    let Ok(queue) = Queue::open(dir) else {
        return Vec::new();
    };
    let mut jobs = specs.to_vec();
    jobs.extend(specs.first().cloned());
    let token = CancelToken::new();
    let cfg = ServeConfig::default();
    let runner = |_: &JobSpec, ctx: &JobContext| -> Result<String, String> {
        fs::write(ctx.results_dir.join("report.txt"), "").map_err(|e| e.to_string())?;
        Ok(ctx.results_dir.display().to_string())
    };
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(&queue, &cfg, &token, &runner));
        let seen = run_client(&queue, &jobs);
        token.cancel();
        let _ = server.join();
        seen
    })
}

/// Every per-layer metric of a traced run.
pub fn per_layer(
    plain: &Iter,
    siblings: &[(Iter, Manifests)],
    input: &ProbeInput,
    ctx: &Ctx,
    out: &mut Outcome,
) -> Vec<Metric> {
    let n = siblings.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Manifests) -> f64| siblings.iter().map(|(_, m)| f(m)).sum::<f64>() / n;
    let span = |name: &'static str| mean(&|m| m.span(name));
    let count = |name: &'static str| mean(&|m| m.count(name));
    let traced_wall = siblings.iter().map(|(i, _)| i.wall_s).sum::<f64>() / n;
    let traced_cpu = siblings.iter().map(|(i, _)| i.cpu_s).sum::<f64>() / n;

    let probes = ctx.work.join("probes");
    let build = build_ms(input);
    let analyze = analyze_ms(input, out);
    let (vm_ns, vm_inst, vm_blocks) = block_engine(input, out);
    let analyzers = mica(input, out);
    let (read_ms, slowest_read_ms, write_ms, bytes) = checkpoint(input, &probes.join("store"))
        .unwrap_or_else(|e| {
            out.problem(format!("checkpoint probe: {e}"));
            (0.0, 0.0, 0.0, 0)
        });
    let (submit_ms, claim_ms, complete_ms) = queue_ops(&input.specs, &probes.join("queue"))
        .unwrap_or_else(|e| {
            out.problem(format!("queue probe: {e}"));
            (0.0, 0.0, 0.0)
        });
    let mut served: Vec<JobObs> = siblings
        .iter()
        .flat_map(|(i, _)| i.served.clone())
        .collect();
    if served.is_empty() {
        served = serve_loop(
            &input.specs[..input.specs.len().min(6)],
            &probes.join("serve"),
        );
    }
    let ms_of =
        |f: &dyn Fn(&JobObs) -> f64| median(&served.iter().map(|o| f(o) * 1e3).collect::<Vec<_>>());
    let turnaround: f64 = served.iter().map(|o| o.latency_s).sum();
    let serve_overhead: f64 = served.iter().map(|o| o.wait_s + o.notify_s).sum();
    let deduped = served
        .iter()
        .filter(|o| o.status == Some(JobStatus::Deduped))
        .count();

    let select_ms = span("study/ga/ga.select");
    let evaluations = count("ga.evaluations");
    let characterize_max = mean(&|m| m.bench_ms_max);
    let mut metrics = vec![
        metric("vm.ns_per_inst", vm_ns, "ns/inst"),
        metric("vm.instructions", vm_inst as f64, "count"),
        metric("vm.blocks", vm_blocks as f64, "count"),
    ];
    for (name, ns) in analyzers {
        metrics.push(metric(&format!("mica.{name}.ns_per_inst"), ns, "ns/inst"));
    }
    metrics.extend([
        metric(
            "core.characterize.ms_total",
            span("study/characterize"),
            "ms",
        ),
        // Where no benchmark was computed (a warm store), the stage's
        // slowest benchmark is its slowest checkpoint load.
        metric(
            "core.characterize.ms_max",
            if characterize_max > 0.0 {
                characterize_max
            } else {
                slowest_read_ms
            },
            "ms",
        ),
        metric(
            "core.characterize.wall_share",
            ratio(span("study/characterize"), span("study")),
            "fraction",
        ),
        metric("stats.pca.fit_ms", span("study/analysis/pca.fit"), "ms"),
        metric("stats.kmeans.ms", span("study/kmeans"), "ms"),
        metric(
            "stats.kmeans.iterations",
            count("kmeans.iterations"),
            "count",
        ),
        metric(
            "stats.kmeans.prune_ratio",
            ratio(
                count("kmeans.points.pruned"),
                count("kmeans.points.pruned") + count("kmeans.points.scanned"),
            ),
            "fraction",
        ),
        metric("ga.select_ms", select_ms, "ms"),
        metric("ga.evaluations", evaluations, "count"),
        metric("ga.us_per_eval", ratio(select_ms * 1e3, evaluations), "us"),
        metric(
            "analysis.wall_share",
            ratio(
                span("study/sample")
                    + span("study/analysis")
                    + span("study/kmeans")
                    + span("study/ga"),
                span("study"),
            ),
            "fraction",
        ),
        metric("core.checkpoint.read_ms", read_ms, "ms"),
        metric("core.checkpoint.write_ms", write_ms, "ms"),
        metric("core.checkpoint.bytes", bytes as f64, "bytes"),
        metric(
            "core.cache.hit_ratio",
            ratio(count("cache.hit"), count("cache.hit") + count("cache.miss")),
            "fraction",
        ),
        metric("serve.queue.submit_ms", submit_ms, "ms"),
        metric("serve.queue.claim_ms", claim_ms, "ms"),
        metric("serve.queue.complete_ms", complete_ms, "ms"),
        metric("serve.queue_wait_ms", ms_of(&|o| o.wait_s), "ms"),
        metric("serve.run_ms", ms_of(&|o| o.run_s), "ms"),
        metric("serve.notify_lag_ms", ms_of(&|o| o.notify_s), "ms"),
        metric(
            "serve.dedup_ratio",
            ratio(deduped as f64, served.len() as f64),
            "fraction",
        ),
        metric(
            "serve.overhead_share",
            ratio(serve_overhead, turnaround),
            "fraction",
        ),
        metric("par.cpu_per_wall", ratio(traced_cpu, traced_wall), "ratio"),
        metric("workloads.build_ms", build, "ms"),
        metric("vm.analyze_ms", analyze, "ms"),
        metric(
            "trace.overhead_frac",
            ratio(traced_wall, plain.wall_s) - 1.0,
            "fraction",
        ),
    ]);
    for (_, name) in COUNTS {
        if !matches!(name, "ga.evaluations" | "kmeans.iterations") {
            metrics.push(metric(&format!("count.{name}"), count(name), "count"));
        }
    }
    metrics
}
