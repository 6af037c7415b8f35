//! `des-summer`: `Platform::run_with_scheduler` with the NotebookOS
//! evaluation configuration over the 90-day summer workload, under a
//! timed `DesScheduler` (the reference pass runs the same trace, since a
//! smaller trace's tail interactivity swings with the seed). The
//! paper-evaluation engine: platform handlers, elasticity, migration and
//! the placement index at scale, with no wire and no placement thread.

use std::time::Instant;

use notebookos_core::platform::Ev;
use notebookos_core::{Platform, PlatformConfig, PolicyKind};
use notebookos_trace::{generate, SyntheticConfig};

use crate::alloc;
use crate::calib;
use crate::outcome::{Between, Outcome, Size, SETUPS_PER_REP};
use crate::record;
use crate::reference::{self, DesReference};
use crate::spans::{Layer, Spans};
use crate::stats::{mean, median};
use crate::timed::{Observer, Run, Timed, Timing};

/// The workload config, by its `SyntheticConfig` constructor.
const CONFIG: &str = "summer_90d";
/// Dispatched events per throughput slice.
const SLICE_EVENTS: u64 = 20_000;

struct PlatformObs;

const KINDS: &[&str] = &[
    "session_start",
    "session_end",
    "cell_submit",
    "exec_finish",
    "migration_retry",
    "host_ready",
    "autoscale_tick",
    "prewarm_reconcile_tick",
    "metrics_tick",
    "replica_failure",
    "prewarm_ready",
];

/// Kinds reported per layer; the rest never fire in this configuration.
const REPORTED: &[&str] = &[
    "cell_submit",
    "exec_finish",
    "session_start",
    "session_end",
    "migration_retry",
    "host_ready",
    "autoscale_tick",
    "metrics_tick",
];

impl Observer<Ev> for PlatformObs {
    const KINDS: &'static [&'static str] = KINDS;

    fn kind(&self, event: &Ev) -> usize {
        match event {
            Ev::SessionStart(_) => 0,
            Ev::SessionEnd(_) => 1,
            Ev::CellSubmit { .. } => 2,
            Ev::ExecFinish { .. } => 3,
            Ev::MigrationRetry { .. } => 4,
            Ev::HostReady(_) => 5,
            Ev::AutoscaleTick => 6,
            Ev::PrewarmReconcileTick => 7,
            Ev::MetricsTick => 8,
            Ev::ReplicaFailure => 9,
            Ev::PrewarmReady(_) => 10,
        }
    }

    fn layer(&self, _kind: usize) -> Layer {
        Layer::Platform
    }
}

struct Rep {
    timed: Timed<Ev, PlatformObs>,
    start_ns: u64,
    end_ns: u64,
    generate_ns: u64,
    cells: u64,
    aborted: u64,
    outputs: DesReference,
    migrations: u64,
    scale_outs: u64,
}

impl Rep {
    fn setup_s(&self) -> f64 {
        (self.timed.first_pop_ns.expect("events ran") - self.start_ns) as f64 / 1e9
    }

    fn drive_ns(&self) -> u64 {
        self.end_ns - self.timed.first_pop_ns.expect("events ran")
    }
}

/// Generates the trace and runs the platform over it, or as much of it
/// as `run` says.
fn rep(config: &SyntheticConfig, seed: u64, timing: Timing, epoch: Instant, run: Run) -> Rep {
    let start_ns = epoch.elapsed().as_nanos() as u64;
    let mut spans = (timing == Timing::Traced).then(|| Spans::new(epoch));
    let span = spans.as_mut().map(|s| s.begin(Layer::Trace, 0));
    let trace = generate(config, seed);
    if let (Some(s), Some(span)) = (spans.as_mut(), span) {
        s.end(span);
    }
    let generate_ns = epoch.elapsed().as_nanos() as u64 - start_ns;
    let cells = trace.total_events() as u64;
    let mut platform_config = PlatformConfig::evaluation(PolicyKind::NotebookOs);
    platform_config.seed = seed;
    // Platform construction precedes the first schedule call.
    let mut timed = Timed::new(PlatformObs, timing, epoch, Layer::Platform);
    match run {
        Run::SetupOnly => timed = timed.setup_only(),
        Run::Sliced => timed = timed.with_slices(None, SLICE_EVENTS),
        Run::Whole => {}
    }
    let platform = Platform::run_with_scheduler(platform_config, trace, &mut timed);
    let end_ns = epoch.elapsed().as_nanos() as u64;
    if let (Some(mut spans), Some(inner)) = (spans, timed.spans.take()) {
        spans.absorb(inner);
        timed.spans = Some(spans);
    }
    let metrics = platform.metrics();
    let mut interactivity = metrics.interactivity_ms.clone();
    let mut percentile = |p: f64| {
        if interactivity.is_empty() {
            f64::NAN
        } else {
            interactivity.percentile(p)
        }
    };
    let outputs = DesReference {
        events: platform.events_processed(),
        executions: metrics.counters.executions,
        interactivity_p50_ms: percentile(50.0),
        interactivity_p99_ms: percentile(99.0),
        gpu_hours_saved: metrics.gpu_hours_saved_vs_reservation(),
    };
    Rep {
        start_ns,
        end_ns,
        generate_ns,
        cells,
        aborted: metrics.counters.aborted,
        outputs,
        migrations: metrics.counters.migrations,
        scale_outs: metrics.counters.scale_outs,
        timed,
    }
}

/// Checks one repetition's outputs against the scheduler's count, the
/// first repetition, and (default seed) the recorded reference.
fn check(out: &mut Outcome, rep: &Rep, first: Option<&Rep>, seed: u64) {
    let o = &rep.outputs;
    out.attempted += rep.timed.pops;
    out.check(o.events == rep.timed.pops, || {
        format!(
            "des: platform counted {} events, scheduler dispatched {}",
            o.events, rep.timed.pops
        )
    });
    out.check(
        o.executions > 0 && o.executions + rep.aborted <= rep.cells,
        || {
            format!(
                "des: {} executions and {} aborted of {} cells",
                o.executions, rep.aborted, rep.cells
            )
        },
    );
    out.check(
        o.interactivity_p50_ms.is_finite() && o.gpu_hours_saved.is_finite(),
        || "des: non-finite outputs".to_string(),
    );
    match first {
        Some(first) => out.check(first.outputs.bits() == o.bits(), || {
            "des: outputs differ between repetitions of one seed".to_string()
        }),
        None => out.note(format!(
            "des-summer {CONFIG} seed {seed}: {} cells, {} events, {} executions, {} aborted \
             (migration gave up), interactivity p50 {} ms p99 {} ms, {} GPU-h saved",
            rep.cells,
            o.events,
            o.executions,
            rep.aborted,
            o.interactivity_p50_ms,
            o.interactivity_p99_ms,
            o.gpu_hours_saved
        )),
    }
    if seed == reference::DEFAULT_SEED {
        let expected = reference::DES_SUMMER;
        out.check(expected.bits() == o.bits(), || {
            format!("des: outputs {o:?} != reference {expected:?}")
        });
    }
}

/// Untraced pass: end-to-end metrics.
pub fn run(seed: u64, size: Size, epoch: Instant, between: Between) -> Outcome {
    let mut out = Outcome::default();
    let config = SyntheticConfig::summer_90d();
    let seconds = match size {
        Size::Full { seconds } => seconds,
        Size::Reference => 0.0,
    };
    let full = matches!(size, Size::Full { .. });
    let mut setups = Vec::new();
    let mut measured = 0.0;
    let mut peak_rss_mb = 0.0;
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let started = Instant::now();
        if full {
            setups.extend((0..SETUPS_PER_REP).map(|_| {
                calib::setup(|| rep(&config, seed, Timing::Coarse, epoch, Run::SetupOnly).setup_s())
            }));
        }
        let rep = rep(&config, seed, Timing::Coarse, epoch, Run::Sliced);
        check(&mut out, &rep, reps.first(), seed);
        reps.push(rep);
        measured += started.elapsed().as_secs_f64();
        if reps.len() == 1 {
            // Read before any reference pass has run: the named
            // workload's own high-water mark.
            peak_rss_mb = record::peak_rss_mb();
        }
        between(measured / seconds);
        if measured >= seconds {
            break;
        }
    }
    if full {
        out.metric("setup_s", median(&setups), "s");
        out.metric("peak_rss_mb", peak_rss_mb, "MiB");
    }
    // Events after a repetition's last complete slice are not counted.
    let rate = calib::rate(reps.iter().map(|r| &r.timed.slices), SLICE_EVENTS);
    let o = &reps[0].outputs;
    out.metric("sim_events_per_s", rate, "1/s");
    out.metric("interactivity_p50_ms", o.interactivity_p50_ms, "ms");
    out.metric("interactivity_p99_ms", o.interactivity_p99_ms, "ms");
    out.metric("gpu_hours_saved", o.gpu_hours_saved, "GPU-h");
    out.note(format!(
        "des-summer {CONFIG}: {} repetitions, {} slices of {SLICE_EVENTS} events, \
         {} interactivity samples",
        reps.len(),
        reps.iter().map(|r| r.timed.slices.len()).sum::<usize>(),
        o.executions
    ));
    out
}

/// Traced pass: `pairs` back-to-back untraced and traced repetitions;
/// per-layer metrics and the ledger from the last traced one, and the
/// tracing overhead over all pairs.
pub fn run_traced(seed: u64, pairs: usize, epoch: Instant, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let config = SyntheticConfig::summer_90d();
    let ns_per_event = |r: &Rep| r.drive_ns() as f64 / r.timed.pops.max(1) as f64;
    let mut overheads = Vec::new();
    for _ in 1..pairs {
        let plain = rep(&config, seed, Timing::Coarse, epoch, Run::Whole);
        let (traced, _) = alloc::counted(|| rep(&config, seed, Timing::Traced, epoch, Run::Whole));
        overheads.push((ns_per_event(&plain), ns_per_event(&traced)));
    }
    let plain = rep(&config, seed, Timing::Coarse, epoch, Run::Whole);
    check(&mut out, &plain, None, seed);
    let (mut traced, allocs) =
        alloc::counted(|| rep(&config, seed, Timing::Traced, epoch, Run::Whole));
    check(&mut out, &traced, Some(&plain), seed);
    let title = format!("des-summer {CONFIG}");
    let rep_spans = traced.timed.spans.take().expect("traced repetition");
    let ledger = rep_spans.ledger(traced.start_ns, traced.end_ns);
    spans.absorb(rep_spans);
    let t = &traced.timed;
    let events = t.pops.max(1);

    out.metric("trace.generate_s", traced.generate_ns as f64 / 1e9, "s");
    out.metric(
        "sched.ns_per_event",
        mean(ledger.self_ns(Layer::Sched) as f64, t.pops),
        "ns",
    );
    out.metric("sched.events", t.pops as f64, "count");
    for kind in REPORTED {
        let k = KINDS.iter().position(|n| n == kind).expect("known kind");
        out.metric(
            format!("platform.ns_per_event.{kind}"),
            mean(t.kind_ns[k] as f64, t.kind_count[k]),
            "ns",
        );
        out.metric(
            format!("platform.events.{kind}"),
            t.kind_count[k] as f64,
            "count",
        );
    }
    out.metric(
        "platform.events_per_cell",
        t.pops as f64 / traced.cells.max(1) as f64,
        "count",
    );
    out.metric("platform.migrations", traced.migrations as f64, "count");
    out.metric("platform.scale_outs", traced.scale_outs as f64, "count");
    out.metric("alloc.per_op", allocs.calls as f64 / events as f64, "count");
    out.metric(
        "alloc.bytes_per_op",
        allocs.bytes as f64 / events as f64,
        "B",
    );
    out.ledger(
        &title,
        spans,
        &ledger,
        &[Layer::Trace, Layer::Sched, Layer::Platform],
    );
    overheads.push((ns_per_event(&plain), ns_per_event(&traced)));
    out.overhead(&title, &overheads);
    out
}
