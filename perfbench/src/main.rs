//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <serve-trace|exec-loop|des-summer|raft-commit>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root, where `BENCHMARK.json` names the
//! metrics. The named workload is measured at full size for `--seconds`;
//! the other three run as fixed-size reference passes between its
//! repetitions, so every run reports every metric: each metric comes from
//! the named workload when it reports it, and otherwise from the first
//! reference workload that does, in the order exec-loop, serve-trace,
//! des-summer, raft-commit.
//!
//! `--trace 0` prints the end-to-end metrics, measured with no spans,
//! on one CPU, with CPU-bound timings scaled to a reference machine
//! speed (see `calib`).
//! `--trace 1` runs each pass as back-to-back untraced and traced
//! repetitions and prints the per-layer metrics, each pass's ledger (self
//! time per layer plus a residual that reconciles to the traced wall
//! time) and the tracing overhead, and writes the spans to `.bench_run/`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is 0 only if every correctness check passed.

mod alloc;
mod calib;
mod des_summer;
mod exec_loop;
mod outcome;
mod raft_commit;
mod record;
mod reference;
mod serve_trace;
mod spans;
mod stats;
mod timed;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use notebookos_jupyter::Json;

use outcome::{Between, Metric, Outcome, Size, OVERHEAD_PAIRS};
use record::SchedStat;
use spans::Spans;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] = ["serve-trace", "exec-loop", "des-summer", "raft-commit"];

/// Order in which reference passes supply metrics the named workload
/// does not report.
const REFERENCE_ORDER: [&str; 4] = ["exec-loop", "serve-trace", "des-summer", "raft-commit"];

/// Reference passes per workload in an untraced run, spread across the
/// named workload's repetitions and combined by median. Raft commits
/// wait on timers and need one.
fn reference_splits(workload: &str) -> usize {
    match workload {
        "exec-loop" | "serve-trace" => 8,
        "des-summer" => 3,
        _ => 1,
    }
}

/// Spans of the named pass written to the span file, at most.
const SPAN_FILE_LIMIT: usize = 1_000_000;

const USAGE: &str = "usage: perfbench --workload <serve-trace|exec-loop|des-summer|raft-commit> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds {s} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The metric names and units `BENCHMARK.json` declares for this mode.
fn declared_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json in the current directory: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("parsing BENCHMARK.json: {e:?}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    json.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("a `{key}` entry lacks a name or unit"))
        })
        .collect()
}

fn pass(
    workload: &str,
    size: Size,
    args: &Args,
    epoch: Instant,
    dir: &Path,
    spans: &mut Spans,
    between: Between,
) -> Outcome {
    let seed = args.seed;
    let pairs = match size {
        Size::Full { .. } => OVERHEAD_PAIRS,
        Size::Reference => 1,
    };
    match (workload, args.trace) {
        ("serve-trace", false) => serve_trace::run(seed, size, epoch, between),
        ("serve-trace", true) => serve_trace::run_traced(seed, size, pairs, epoch, spans),
        ("exec-loop", false) => exec_loop::run(seed, size, epoch, between),
        ("exec-loop", true) => exec_loop::run_traced(seed, pairs, epoch, spans),
        ("des-summer", false) => des_summer::run(seed, size, epoch, between),
        ("des-summer", true) => des_summer::run_traced(seed, pairs, epoch, spans),
        ("raft-commit", false) => raft_commit::run(seed, size, epoch, dir, between),
        ("raft-commit", true) => {
            calib::unpinned(|| raft_commit::run_traced(seed, size, pairs, epoch, dir, spans))
        }
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// Runs the named workload at full size and the others as reference
/// passes. Untraced, the reference passes run between the named
/// workload's repetitions, in step with its progress; traced, after it.
/// Returns each workload's outcome, the named one first, and the named
/// pass's spans.
fn passes<'a>(args: &'a Args, epoch: Instant, dir: &Path) -> (Vec<(&'a str, Outcome)>, Spans) {
    let full = Size::Full {
        seconds: args.seconds as f64,
    };
    let references: Vec<&str> = REFERENCE_ORDER
        .into_iter()
        .filter(|w| *w != args.workload)
        .collect();
    let splits = if args.trace {
        |_: &str| 1
    } else {
        reference_splits
    };
    // Round robin: each workload's first pass, then each one's second...
    let rounds = references.iter().map(|w| splits(w)).max().unwrap_or(0);
    let queue: Vec<&str> = (0..rounds)
        .flat_map(|i| references.iter().copied().filter(move |w| i < splits(w)))
        .collect();
    let mut done: Vec<(&str, Outcome)> = Vec::new();
    let mut reference = |progress: f64| {
        let due = (queue.len() as f64 * progress.min(1.0)).floor() as usize;
        while done.len() < due {
            let workload = queue[done.len()];
            let mut spans = Spans::new(epoch);
            let outcome = pass(
                workload,
                Size::Reference,
                args,
                epoch,
                dir,
                &mut spans,
                &mut |_| {},
            );
            done.push((workload, outcome));
        }
    };
    let mut named_spans = Spans::new(epoch);
    let named = if args.trace {
        pass(
            args.workload,
            full,
            args,
            epoch,
            dir,
            &mut named_spans,
            &mut |_| {},
        )
    } else {
        pass(
            args.workload,
            full,
            args,
            epoch,
            dir,
            &mut named_spans,
            &mut reference,
        )
    };
    reference(1.0);
    let mut out = vec![(args.workload, named)];
    for workload in references {
        let parts: Vec<Outcome> = done
            .iter_mut()
            .filter(|(w, _)| *w == workload)
            .map(|(_, o)| std::mem::take(o))
            .collect();
        out.push((workload, Outcome::median_of(parts)));
    }
    (out, named_spans)
}

fn run(args: &Args, dir: &Path) -> Result<bool, String> {
    let declared = declared_metrics(args.trace)?;
    let nproc = record::nproc();
    let pinned = calib::pin_to_current_cpu();
    let epoch = Instant::now();
    let main_start = SchedStat::current_thread();
    let probe_start = record::cpu_probe_ns();

    let (passes, named_spans) = passes(args, epoch, dir);
    let wall_s = epoch.elapsed().as_secs_f64();

    // Each metric from the first pass that reports it.
    let mut metrics: BTreeMap<String, Metric> = BTreeMap::new();
    let mut source: BTreeMap<String, &str> = BTreeMap::new();
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (workload, outcome) in &passes {
        let size = if *workload == args.workload {
            "full"
        } else {
            "reference"
        };
        for note in &outcome.notes {
            println!("[{workload} {size}] {note}");
        }
        for m in &outcome.metrics {
            if !metrics.contains_key(&m.name) {
                metrics.insert(m.name.clone(), m.clone());
                source.insert(m.name.clone(), workload);
            }
        }
        failures.extend(outcome.failures.iter().map(|f| format!("[{workload}] {f}")));
        attempted += outcome.attempted;
        failed += outcome.failed;
    }

    let mut printed = Vec::new();
    for (name, unit) in &declared {
        match metrics.get(name) {
            Some(m) if m.unit != unit => failures.push(format!(
                "metric `{name}` measured in {} but declared in {unit}",
                m.unit
            )),
            Some(m) if !m.value.is_finite() => {
                failures.push(format!("metric `{name}` is not finite"))
            }
            Some(m) => {
                println!(
                    "{name:<36} {:>18.6} {:<6} (from {})",
                    m.value, m.unit, source[name]
                );
                printed.push(m);
            }
            None => failures.push(format!("metric `{name}` was not measured")),
        }
    }

    if args.trace {
        let spans = named_spans;
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        spans
            .write_tsv(&path, SPAN_FILE_LIMIT)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "spans: first {} of {} from the {} pass written to {}",
            spans.len().min(SPAN_FILE_LIMIT),
            spans.len(),
            args.workload,
            path.display()
        );
    }

    let main = SchedStat::current_thread().since(main_start);
    let workers = record::workers();
    println!(
        "run-record {}",
        Json::object()
            .with("workload", args.workload)
            .with("seed", args.seed)
            .with("seconds", args.seconds)
            .with("trace", u64::from(args.trace))
            .with("nproc", nproc as u64)
            .with(
                "pinned_cpu",
                pinned.map_or("none".to_string(), |cpu| cpu.to_string()),
            )
            .with("cpu_model", record::cpu_model())
            .with("rustc", record::rustc())
            .with("wall_s", wall_s)
            .with("cpu_probe_ns_start", probe_start)
            .with("cpu_probe_ns_end", record::cpu_probe_ns())
            .with("process_cpu_s", record::process_cpu_s())
            .with("main_on_cpu_s", main.on_cpu_ns as f64 / 1e9)
            .with("main_runqueue_wait_s", main.wait_ns as f64 / 1e9)
            .with("shard_on_cpu_s", workers.on_cpu_ns as f64 / 1e9)
            .with("shard_runqueue_wait_s", workers.wait_ns as f64 / 1e9)
            .encode()
    );
    if attempted == 0 {
        failures.push("no operation was attempted".to_string());
    }
    for f in &failures {
        println!("FAILED {f}");
    }

    let correct = failures.is_empty();
    let body: Vec<String> = printed
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                Json::from(m.name.as_str()).encode(),
                Json::from(m.value).encode(),
                Json::from(m.unit).encode()
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted,
        body.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Scratch space (WAL directories, span files) stays inside the
    // directory the benchmark runs from.
    let dir: PathBuf = PathBuf::from(".bench_run").join(std::process::id().to_string());
    let result = run(&args, &dir);
    if !args.trace {
        let _ = std::fs::remove_dir_all(&dir);
    }
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
