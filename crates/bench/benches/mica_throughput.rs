//! Characterization overhead: the cost of the full 69-characteristic
//! analysis on top of bare execution, and per-analyzer costs on a
//! synthetic record stream (`analyzer/*`) and on recorded registry
//! streams (`analyzer_registry/*`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use phaselab_mica::{
    Analyzer, BranchAnalyzer, FeatureVector, FootprintAnalyzer, IlpAnalyzer, IntervalCharacterizer,
    MixAnalyzer, RegTrafficAnalyzer, StrideAnalyzer,
};
use phaselab_trace::{
    ArchReg, BranchInfo, CountingSink, InstClass, InstRecord, MemAccess, VecSink,
};
use phaselab_vm::Vm;
use phaselab_workloads::kernels::numeric;
use phaselab_workloads::{catalog, Builder, Scale, Suite};

/// A synthetic but behaviorally rich record stream.
fn record_stream(n: usize) -> Vec<InstRecord> {
    let r1 = ArchReg::int(1);
    let r2 = ArchReg::int(2);
    let f1 = ArchReg::fp(1);
    (0..n as u64)
        .map(|i| match i % 5 {
            0 => InstRecord::new(4 * (i % 512), InstClass::MemRead)
                .with_reads(&[r1])
                .with_write(r2)
                .with_mem(MemAccess {
                    addr: (i * 24) % 65536,
                    size: 8,
                    is_store: false,
                }),
            1 => InstRecord::new(4 * (i % 512), InstClass::IntAdd)
                .with_reads(&[r1, r2])
                .with_write(r1),
            2 => InstRecord::new(4 * (i % 512), InstClass::CondBranch)
                .with_reads(&[r1, r2])
                .with_branch(BranchInfo {
                    taken: (i / 3) % 7 < 4,
                    target: 0,
                    conditional: true,
                }),
            3 => InstRecord::new(4 * (i % 512), InstClass::MemWrite)
                .with_reads(&[r2, r1])
                .with_mem(MemAccess {
                    addr: (i * 40 + 13) % 65536,
                    size: 8,
                    is_store: true,
                }),
            _ => InstRecord::new(4 * (i % 512), InstClass::FpMul)
                .with_reads(&[f1])
                .with_write(f1),
        })
        .collect()
}

fn bench_analyzers(c: &mut Criterion) {
    let stream = record_stream(100_000);
    let mut group = c.benchmark_group("analyzer");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.sample_size(20);

    macro_rules! bench_one {
        ($name:literal, $ty:ty) => {
            group.bench_function($name, |bench| {
                bench.iter(|| {
                    let mut a = <$ty>::new();
                    for (i, rec) in stream.iter().enumerate() {
                        a.observe(rec, i as u64);
                    }
                    let mut out = FeatureVector::zeros();
                    a.emit(&mut out);
                    black_box(out)
                })
            });
        };
    }
    bench_one!("mix", MixAnalyzer);
    bench_one!("ilp", IlpAnalyzer);
    bench_one!("regtraffic", RegTrafficAnalyzer);
    bench_one!("footprint", FootprintAnalyzer);
    bench_one!("strides", StrideAnalyzer);
    bench_one!("branch_ppm", BranchAnalyzer);
    group.finish();
}

/// Registry programs replayed by `analyzer_registry/*`: one
/// branch-heavy (about 22% conditional branches), one memory-heavy
/// (about 34% loads and stores).
const REGISTRY_STREAMS: [(Suite, &str); 2] =
    [(Suite::SpecInt2000, "twolf"), (Suite::SpecFp2000, "swim")];

/// Instructions recorded from each registry program.
const REGISTRY_STREAM_LEN: u64 = 200_000;

/// Interval length of the replay: analyzers reset at each boundary, as
/// under the characterizer.
const REGISTRY_INTERVAL: usize = 50_000;

/// The first [`REGISTRY_STREAM_LEN`] records of each small-scale
/// [`REGISTRY_STREAMS`] program.
fn registry_streams() -> Vec<Vec<InstRecord>> {
    let all = catalog();
    REGISTRY_STREAMS
        .iter()
        .map(|&(suite, name)| {
            let bench = all
                .iter()
                .find(|b| b.suite() == suite && b.name() == name)
                .expect("registry stream program exists");
            let mut sink = VecSink::new();
            Vm::new(&bench.build(Scale::Small, 0))
                .run(&mut sink, REGISTRY_STREAM_LEN)
                .expect("registry programs run");
            sink.into_records()
        })
        .collect()
}

fn bench_registry_analyzers(c: &mut Criterion) {
    let streams = registry_streams();
    let records: usize = streams.iter().map(Vec::len).sum();
    let mut group = c.benchmark_group("analyzer_registry");
    group.throughput(Throughput::Elements(records as u64));
    group.sample_size(20);

    macro_rules! bench_one {
        ($name:literal, $ty:ty) => {
            group.bench_function($name, |bench| {
                // One analyzer for the whole run, as the characterizer
                // keeps one per program: table allocation and its first
                // touches stay out of the steady-state cost.
                let mut a = <$ty>::new();
                bench.iter(|| {
                    let mut out = FeatureVector::zeros();
                    for stream in &streams {
                        for interval in stream.chunks(REGISTRY_INTERVAL) {
                            for (i, rec) in interval.iter().enumerate() {
                                a.observe(rec, i as u64);
                            }
                            a.emit(&mut out);
                            a.reset();
                        }
                    }
                    black_box(out)
                })
            });
        };
    }
    bench_one!("mix", MixAnalyzer);
    bench_one!("ilp", IlpAnalyzer);
    bench_one!("regtraffic", RegTrafficAnalyzer);
    bench_one!("footprint", FootprintAnalyzer);
    bench_one!("strides", StrideAnalyzer);
    bench_one!("branch_ppm", BranchAnalyzer);
    group.finish();
}

fn bench_vm_vs_characterized(c: &mut Criterion) {
    let mut b = Builder::new(2);
    numeric::stream_triad(&mut b, 2048, 10);
    numeric::montecarlo(&mut b, 20_000);
    let program = b.finish().expect("assembles");

    let mut count = CountingSink::new();
    Vm::new(&program).run(&mut count, u64::MAX).expect("runs");
    let n = count.count();

    let mut group = c.benchmark_group("characterization_overhead");
    group.throughput(Throughput::Elements(n));
    group.sample_size(20);
    group.bench_function("bare_vm", |bench| {
        bench.iter(|| {
            let mut sink = CountingSink::new();
            Vm::new(&program).run(&mut sink, u64::MAX).expect("runs");
            black_box(sink.count())
        });
    });
    group.bench_function("vm_plus_mica", |bench| {
        bench.iter(|| {
            let mut chr = IntervalCharacterizer::new(50_000).keep_tail(true);
            Vm::new(&program).run(&mut chr, u64::MAX).expect("runs");
            chr.finish();
            black_box(chr.into_features().len())
        });
    });
    group.finish();
}

criterion_group!(
    mica,
    bench_analyzers,
    bench_registry_analyzers,
    bench_vm_vs_characterized
);
criterion_main!(mica);
