//! `phaselab` — command-line front end for the workload characterization
//! library.
//!
//! `phaselab <command> [<suite>/<bench>] [options]`; `phaselab --help`
//! prints the commands and options (the `USAGE` constant below is the
//! one copy).
//!
//! Benchmarks are addressed as `<suite short name>/<benchmark>`, e.g.
//! `BioPerf/blast`, `int2006/mcf`, `BMW/face` (case-insensitive), or by
//! bare name when unambiguous.

use std::process::exit;

use phaselab::mica::AggregateCharacterizer;
use phaselab::trace::TraceSink;
use phaselab::vm::Vm;
use phaselab::{catalog, characterize_program, feature_names, Benchmark, Scale};

/// Shadows `std::println!`: a reader that closes stdout early (`| head`)
/// ends the program quietly instead of panicking on the broken pipe.
macro_rules! println {
    () => {
        print!("\n")
    };
    ($($arg:tt)*) => {
        print!("{}\n", format_args!($($arg)*))
    };
}

/// Shadows `std::print!`, with the broken-pipe exit of [`println!`].
macro_rules! print {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// Writes to stdout; exits with status 0 if the reader has gone away.
fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

const USAGE: &str = "usage: phaselab <command> [<suite>/<bench>] [options]

commands:
  list                          list the 77 bundled benchmarks
  info <suite>/<bench>          suite, inputs, program size
  disasm <suite>/<bench>        disassemble the program
  characterize <suite>/<bench>  per-interval characteristics (CSV)
  aggregate <suite>/<bench>     whole-execution characteristics
  help, --help, -h              print this help and exit

options (where applicable):
  --scale tiny|small|full   workload scale      (default: small)
  --interval N              interval length     (default: 100000)
  --input N                 input index         (default: 0)
  --features a,b,c          restrict columns by feature name";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_and_exit();
    }
    let command = args[0].as_str();
    let rest = &args[1..];
    match command {
        "list" => list(),
        "info" => info(&resolve(rest)),
        "disasm" => disasm(
            &resolve(rest),
            parse_scale(rest),
            parse_u64(rest, "--input", 0) as usize,
        ),
        "characterize" => characterize(
            &resolve(rest),
            parse_scale(rest),
            parse_u64(rest, "--interval", 100_000),
            parse_u64(rest, "--input", 0) as usize,
            parse_features(rest),
        ),
        "aggregate" => aggregate(
            &resolve(rest),
            parse_scale(rest),
            parse_u64(rest, "--input", 0) as usize,
        ),
        "--help" | "-h" | "help" => println!("{USAGE}"),
        other => {
            eprintln!("unknown command `{other}`");
            usage_and_exit();
        }
    }
}

fn usage_and_exit() -> ! {
    eprintln!("{USAGE}");
    exit(2);
}

fn parse_scale(args: &[String]) -> Scale {
    match flag_value(args, "--scale").unwrap_or("small") {
        "tiny" => Scale::Tiny,
        "small" => Scale::Small,
        "full" => Scale::Full,
        s => {
            eprintln!("bad scale `{s}` (tiny|small|full)");
            exit(2);
        }
    }
}

fn parse_u64(args: &[String], flag: &str, default: u64) -> u64 {
    flag_value(args, flag).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("bad value for {flag}: `{v}`");
            exit(2);
        })
    })
}

fn parse_features(args: &[String]) -> Option<Vec<usize>> {
    let list = flag_value(args, "--features")?;
    let names = feature_names();
    Some(
        list.split(',')
            .map(|name| {
                names.iter().position(|&n| n == name).unwrap_or_else(|| {
                    eprintln!("unknown feature `{name}`; see `repro table1` for the list");
                    exit(2);
                })
            })
            .collect(),
    )
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Resolves `<suite>/<name>` or a bare unambiguous name.
fn resolve(args: &[String]) -> Benchmark {
    let Some(spec) = args
        .iter()
        .find(|a| !a.starts_with("--") && a.contains(|c: char| c.is_alphabetic()))
    else {
        eprintln!("missing benchmark argument");
        usage_and_exit();
    };
    // Skip values of flags: the first non-flag token that is not a flag
    // value. Simplest robust approach: collect tokens not preceded by a
    // flag.
    let mut candidates = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = true;
            continue;
        }
        candidates.push(a.clone());
    }
    let spec = candidates.first().cloned().unwrap_or_else(|| spec.clone());

    let all = catalog();
    let matches: Vec<Benchmark> = if let Some((suite, name)) = spec.split_once('/') {
        all.into_iter()
            .filter(|b| {
                b.suite().short_name().eq_ignore_ascii_case(suite)
                    && b.name().eq_ignore_ascii_case(name)
            })
            .collect()
    } else {
        all.into_iter()
            .filter(|b| b.name().eq_ignore_ascii_case(&spec))
            .collect()
    };
    match matches.len() {
        0 => {
            eprintln!("no benchmark matches `{spec}`; try `phaselab list`");
            exit(1);
        }
        1 => matches.into_iter().next().expect("one match"),
        n => {
            eprintln!("`{spec}` is ambiguous ({n} matches); qualify with <suite>/<name>:");
            for b in &matches {
                eprintln!("  {}/{}", b.suite().short_name(), b.name());
            }
            exit(1);
        }
    }
}

fn list() {
    let all = catalog();
    let mut current = None;
    for b in &all {
        if current != Some(b.suite()) {
            println!("\n{} ({})", b.suite(), b.suite().short_name());
            current = Some(b.suite());
        }
        println!("  {:<12} inputs: {}", b.name(), b.input_names().join(", "));
    }
    println!("\n{} benchmarks total", all.len());
}

fn info(b: &Benchmark) {
    println!("benchmark:  {}", b.name());
    println!("suite:      {} ({})", b.suite(), b.suite().short_name());
    println!("inputs:     {}", b.input_names().join(", "));
    for scale in [Scale::Tiny, Scale::Small, Scale::Full] {
        let program = b.build(scale, 0);
        println!(
            "{:<10} {} static instructions, {} bytes of data memory",
            format!("{scale:?}:"),
            program.len(),
            program.mem_size()
        );
    }
}

fn disasm(b: &Benchmark, scale: Scale, input: usize) {
    let program = b.build(scale, input);
    println!("{}", program.disasm());
}

fn characterize(
    b: &Benchmark,
    scale: Scale,
    interval: u64,
    input: usize,
    features: Option<Vec<usize>>,
) {
    let program = b.build(scale, input);
    let (intervals, instructions) =
        characterize_program(&program, interval, u64::MAX).expect("bundled workloads never fault");
    eprintln!(
        "{}: {} instructions, {} intervals of {}",
        b.name(),
        instructions,
        intervals.len(),
        interval
    );
    let names = feature_names();
    let cols: Vec<usize> = features.unwrap_or_else(|| (0..names.len()).collect());
    // CSV to stdout.
    let header: Vec<&str> = cols.iter().map(|&c| names[c]).collect();
    println!("interval,{}", header.join(","));
    for (i, fv) in intervals.iter().enumerate() {
        let row: Vec<String> = cols.iter().map(|&c| format!("{:.6}", fv[c])).collect();
        println!("{i},{}", row.join(","));
    }
}

fn aggregate(b: &Benchmark, scale: Scale, input: usize) {
    let program = b.build(scale, input);
    let mut agg = AggregateCharacterizer::new();
    let mut vm = Vm::new(&program);
    vm.run(&mut agg, u64::MAX).unwrap_or_else(|e| {
        eprintln!("execution faulted: {e}");
        exit(1);
    });
    agg.finish();
    let n = agg.count();
    let fv = agg.finish_features();
    eprintln!("{}: {} instructions (aggregate view)", b.name(), n);
    let names = feature_names();
    for (i, &name) in names.iter().enumerate() {
        println!("{name},{:.6}", fv[i]);
    }
}
