//! `serve-trace`: open-loop replay of the calibrated AdobeTrace-shaped
//! compressed trace through `run_serve_sharded` with one shard under a
//! timed `DesScheduler`. The shape is the 4000-user / 60 s / 64-host
//! serve run scaled up uniformly (10x for the named workload, 1x as a
//! reference pass): many mostly idle sessions of ~1.8 cells, each launch
//! a blocking round trip to the placement owner thread.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use notebookos_bench::serve::{run_serve_sharded, ServeEv, ServeOpts, ShardedServeReport};
use notebookos_core::serve::{client_request, GATEWAY_KEY};
use notebookos_des::{Scheduler, SimTime};
use notebookos_jupyter::wire;
use notebookos_trace::{generate, Popularity, SyntheticConfig};

use crate::alloc;
use crate::calib;
use crate::outcome::{Between, Outcome, Size, SETUPS_PER_REP};
use crate::record;
use crate::reference;
use crate::spans::{Layer, Spans};
use crate::stats::{fingerprint, mean, median};
use crate::timed::{Handoff, Observer, Run, Timed, Timing};

const FULL_SCALE: usize = 10;
const REFERENCE_SCALE: usize = 1;
/// Executions per throughput slice.
const SLICE_EXECS: u64 = 1_024;

fn opts(scale: usize, seed: u64) -> ServeOpts {
    let mut opts = ServeOpts::new(4_000 * scale, SimTime::from_secs(60 * scale as u64));
    opts.hosts = 64 * scale;
    opts.seed = seed;
    opts
}

/// Times each serve event's handler and pairs an execution's two
/// handlers: the one that dispatched its submit and its completion's.
struct ServeObs {
    /// Per user: handler time of the dispatch of its in-flight execution.
    submit_ns: Vec<u64>,
    /// Users whose completion the running handler scheduled.
    dispatched: Vec<usize>,
    /// The user of the completion being handled.
    done_user: Option<usize>,
    /// Completions popped so far: the throughput slice is this over
    /// `SLICE_EXECS`.
    exec_dones: u64,
    /// Samples in us, tagged with their throughput slice.
    exec_service: Vec<(usize, f64)>,
    session_start: Vec<(usize, f64)>,
}

impl ServeObs {
    fn slice(&self) -> usize {
        (self.exec_dones / SLICE_EXECS) as usize
    }
}

const SESSION_START: usize = 0;
const SESSION_END: usize = 1;
const SUBMIT: usize = 2;
const EXEC_DONE: usize = 3;

impl Observer<ServeEv> for ServeObs {
    const KINDS: &'static [&'static str] = &[
        "session_start",
        "session_end",
        "submit",
        "exec_done",
        "progress_tick",
    ];

    fn kind(&self, event: &ServeEv) -> usize {
        match event {
            ServeEv::SessionStart(_) => SESSION_START,
            ServeEv::SessionEnd(_) => SESSION_END,
            ServeEv::Submit { .. } => SUBMIT,
            ServeEv::ExecDone { .. } => EXEC_DONE,
            ServeEv::ProgressTick => 4,
        }
    }

    /// Session starts, ends and gauge ticks block on the placement owner;
    /// their gateway bookkeeping is not separable from outside.
    /// Submits and completions are wire plus gateway work.
    fn layer(&self, kind: usize) -> Layer {
        match kind {
            SUBMIT | EXEC_DONE => Layer::Gateway,
            _ => Layer::Placement,
        }
    }

    fn on_pop(&mut self, event: &ServeEv) {
        self.done_user = match event {
            ServeEv::ExecDone { user, .. } => Some(*user),
            _ => None,
        };
        self.exec_dones += u64::from(self.done_user.is_some());
    }

    fn on_schedule(&mut self, event: &ServeEv) -> Option<u64> {
        let ServeEv::ExecDone { user, msg_id } = event else {
            return None;
        };
        self.dispatched.push(*user);
        msg_id.rsplit('-').next().and_then(|n| n.parse().ok())
    }

    fn on_handled(&mut self, kind: usize, ns: u64) {
        if kind == EXEC_DONE {
            if let Some(user) = self.done_user.take() {
                let us = (self.submit_ns[user] + ns) as f64 / 1e3;
                self.exec_service.push((self.slice(), us));
            }
        }
        if kind == SESSION_START {
            self.session_start.push((self.slice(), ns as f64 / 1e3));
        }
        for user in self.dispatched.drain(..) {
            self.submit_ns[user] = ns;
        }
    }
}

struct Rep {
    report: ShardedServeReport,
    timed: Timed<ServeEv, ServeObs>,
    call_start_ns: u64,
    end_ns: u64,
}

impl Rep {
    fn setup_s(&self) -> f64 {
        (self.timed.first_pop_ns.expect("events ran") - self.call_start_ns) as f64 / 1e9
    }

    fn serve_ns(&self) -> u64 {
        self.end_ns - self.timed.first_pop_ns.expect("events ran")
    }
}

/// Runs the serve path once, or as much of it as `run` says.
fn rep(opts: &ServeOpts, timing: Timing, epoch: Instant, run: Run) -> Rep {
    let slot = Arc::new(Mutex::new(Vec::new()));
    let call_start_ns = epoch.elapsed().as_nanos() as u64;
    let users = opts.users;
    let make = |_shard: usize| -> Box<dyn Scheduler<ServeEv>> {
        let obs = ServeObs {
            submit_ns: vec![0; users],
            dispatched: Vec::new(),
            done_user: None,
            exec_dones: 0,
            exec_service: Vec::new(),
            session_start: Vec::new(),
        };
        let mut timed = Timed::new(obs, timing, epoch, Layer::Trace);
        match run {
            Run::SetupOnly => timed = timed.setup_only(),
            Run::Sliced => timed = timed.with_slices(Some(EXEC_DONE), SLICE_EXECS),
            Run::Whole => {}
        }
        timed.set_call_start(call_start_ns);
        Box::new(Handoff::new(timed, Arc::clone(&slot)))
    };
    let report = run_serve_sharded(opts, 1, &make);
    let end_ns = epoch.elapsed().as_nanos() as u64;
    let timed = slot
        .lock()
        .expect("shard scheduler slot")
        .pop()
        .expect("the shard handed its scheduler back");
    Rep {
        report,
        timed,
        call_start_ns,
        end_ns,
    }
}

/// Checks one repetition's report against the serving invariants, the
/// first repetition, and (default seed) the recorded reference.
fn check(out: &mut Outcome, rep: &Rep, first: Option<&Rep>, opts: &ServeOpts, scale: usize) {
    let r = &rep.report.report;
    out.attempted += r.executions + r.dropped;
    out.failed += r.dropped + r.gateway.rejected + r.shortfalls;
    let counters = [
        r.gateway.accepted,
        r.gateway.replies,
        r.client_received,
        r.client_sent,
    ];
    out.check(counters.iter().all(|&c| c == r.executions), || {
        format!(
            "serve: accepted/replies/received/sent {counters:?} != executions {}",
            r.executions
        )
    });
    out.check(
        r.gateway.rejected == 0 && r.dropped == 0 && r.shortfalls == 0,
        || {
            format!(
                "serve: rejected {} dropped {} shortfalls {}",
                r.gateway.rejected, r.dropped, r.shortfalls
            )
        },
    );
    let users = opts.users as u64;
    out.check(
        r.sessions_started == users && r.sessions_ended == users,
        || {
            format!(
                "serve: sessions started {} ended {} of {users}",
                r.sessions_started, r.sessions_ended
            )
        },
    );
    out.check(r.gateway.fan_out_copies == 3 * r.gateway.accepted, || {
        format!(
            "serve: fan-out copies {} for R = 3",
            r.gateway.fan_out_copies
        )
    });
    out.check(
        rep.timed.obs.exec_service.len() as u64 == r.executions,
        || {
            format!(
                "serve: {} service samples for {} executions",
                rep.timed.obs.exec_service.len(),
                r.executions
            )
        },
    );
    if let Some(first) = first {
        out.check(*r == first.report.report, || {
            "serve: report differs between repetitions of one seed".to_string()
        });
    }
    let print = fingerprint(
        [
            r.sessions_started,
            r.sessions_ended,
            r.executions,
            r.gateway.accepted,
            r.gateway.fan_out_copies,
            r.gateway.replies,
            r.client_sent,
            r.client_received,
        ]
        .into_iter()
        .chain(r.latency.canonical_samples().iter().map(|v| v.to_bits())),
    );
    if first.is_none() {
        out.note(format!(
            "serve-trace x{scale} seed {}: {} sessions, {} executions, logical latency \
             p50 {} ms p99 {} ms, fingerprint {print:#018x}",
            opts.seed, r.sessions_started, r.executions, r.latency_p50_ms, r.latency_p99_ms
        ));
    }
    if opts.seed == reference::DEFAULT_SEED {
        let expected = reference::serve_fingerprint(scale);
        out.check(expected == Some(print), || {
            format!("serve: fingerprint {print:#018x} != reference {expected:#018x?}")
        });
    }
}

/// Untraced pass: end-to-end metrics.
pub fn run(seed: u64, size: Size, epoch: Instant, between: Between) -> Outcome {
    let mut out = Outcome::default();
    let (scale, seconds) = match size {
        Size::Full { seconds } => (FULL_SCALE, seconds),
        Size::Reference => (REFERENCE_SCALE, 0.0),
    };
    let opts = opts(scale, seed);
    let full = matches!(size, Size::Full { .. });
    let mut setups = Vec::new();
    let mut measured = 0.0;
    let mut peak_rss_mb = 0.0;
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let started = Instant::now();
        if full {
            setups.extend((0..SETUPS_PER_REP).map(|_| {
                calib::setup(|| rep(&opts, Timing::PerEvent, epoch, Run::SetupOnly).setup_s())
            }));
        }
        let rep = rep(&opts, Timing::PerEvent, epoch, Run::Sliced);
        check(&mut out, &rep, reps.first(), &opts, scale);
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
    let scaled = |samples: fn(&ServeObs) -> &[(usize, f64)]| -> Vec<f64> {
        reps.iter()
            .flat_map(|r| calib::scaled(&r.timed.slices, samples(&r.timed.obs)))
            .collect()
    };
    let service = scaled(|o| &o.exec_service);
    let starts = scaled(|o| &o.session_start);
    let rate = calib::rate(reps.iter().map(|r| &r.timed.slices), SLICE_EXECS);
    out.metric("execs_per_s", rate, "1/s");
    out.note(format!(
        "serve-trace x{scale}: {} repetitions, {} slices of {SLICE_EXECS} executions, \
         {} service samples, {} session-start samples",
        reps.len(),
        reps.iter().map(|r| r.timed.slices.len()).sum::<usize>(),
        service.len(),
        starts.len()
    ));
    out.samples("exec_service", service);
    out.samples("session_start", starts);
    out.percentile("exec_service_p50_us", "exec_service", 50.0, "us");
    out.percentile("exec_service_p99_us", "exec_service", 99.0, "us");
    out.percentile("session_start_p50_us", "session_start", 50.0, "us");
    out.percentile("session_start_p90_us", "session_start", 90.0, "us");
    out
}

/// Traced pass: `pairs` back-to-back untraced and traced repetitions;
/// per-layer metrics and the ledger from the last traced one, and the
/// tracing overhead over all pairs.
pub fn run_traced(
    seed: u64,
    size: Size,
    pairs: usize,
    epoch: Instant,
    spans_out: &mut Spans,
) -> Outcome {
    let mut out = Outcome::default();
    let scale = match size {
        Size::Full { .. } => FULL_SCALE,
        Size::Reference => REFERENCE_SCALE,
    };
    let opts = opts(scale, seed);

    // The trace layer alone: the same generator call the serve path makes.
    let config = SyntheticConfig {
        sessions: opts.users,
        span_s: 3_600.0,
        gpu_active_fraction: 1.0,
        long_lived_fraction: 0.9,
        popularity: Popularity::Uniform,
        ..SyntheticConfig::smoke()
    };
    let span = spans_out.begin(Layer::Trace, 0);
    let started = Instant::now();
    std::hint::black_box(generate(&config, seed));
    let generate_s = started.elapsed().as_secs_f64();
    spans_out.end(span);

    let ns_per_exec = |r: &Rep| r.serve_ns() as f64 / r.report.report.executions.max(1) as f64;
    let mut overheads = Vec::new();
    for _ in 1..pairs {
        let plain = rep(&opts, Timing::PerEvent, epoch, Run::Whole);
        let (traced, _) = alloc::counted(|| rep(&opts, Timing::Traced, epoch, Run::Whole));
        overheads.push((ns_per_exec(&plain), ns_per_exec(&traced)));
    }
    let plain = rep(&opts, Timing::PerEvent, epoch, Run::Whole);
    check(&mut out, &plain, None, &opts, scale);
    let (mut traced, allocs) = alloc::counted(|| rep(&opts, Timing::Traced, epoch, Run::Whole));
    check(&mut out, &traced, Some(&plain), &opts, scale);

    let r = traced.report.report.clone();
    let coordination = &traced.report.coordination;
    let execs = r.executions.max(1);
    let title = format!("serve-trace x{scale}");
    let shard_spans = traced.timed.spans.take().expect("traced repetition");
    let ledger = shard_spans.ledger(traced.call_start_ns, traced.end_ns);
    let sched_ns = ledger.self_ns(Layer::Sched) as f64;
    let pops = traced.timed.pops;
    spans_out.absorb(shard_spans);

    out.metric("trace.generate_s", generate_s, "s");
    out.metric("sched.ns_per_event", mean(sched_ns, pops), "ns");
    out.metric("sched.events", pops as f64, "count");
    let (encode_ns, decode_ns) = wire_probe(&opts, spans_out);
    out.metric("wire.encode_ns", encode_ns, "ns");
    out.metric("wire.decode_ns", decode_ns, "ns");
    out.metric(
        "wire.msgs_per_exec",
        (r.client_sent + r.client_received) as f64 / execs as f64,
        "count",
    );
    let t = &traced.timed;
    out.metric(
        "gateway.start_session_ns",
        mean(t.kind_ns[SESSION_START] as f64, t.kind_count[SESSION_START]),
        "ns",
    );
    out.metric(
        "gateway.end_session_ns",
        mean(t.kind_ns[SESSION_END] as f64, t.kind_count[SESSION_END]),
        "ns",
    );
    out.metric(
        "gateway.fanout_copies_per_exec",
        r.gateway.fan_out_copies as f64 / execs as f64,
        "count",
    );
    out.metric("gateway.rejected", r.gateway.rejected as f64, "count");
    let calls = coordination.placement_calls();
    let service = &coordination.service;
    out.metric(
        "placement.calls_per_session",
        calls as f64 / opts.users as f64,
        "count",
    );
    out.metric(
        "placement.wait_us_per_call",
        mean(coordination.placement_wait().as_secs_f64() * 1e6, calls),
        "us",
    );
    out.metric(
        "placement.busy_us_per_call",
        mean(service.busy.as_secs_f64() * 1e6, service.commands()),
        "us",
    );
    out.metric(
        "placement.drained_per_wakeup",
        service.mean_drained_per_wakeup(),
        "count",
    );
    out.metric("placement.shortfalls", r.shortfalls as f64, "count");
    out.metric("alloc.per_op", allocs.calls as f64 / execs as f64, "count");
    out.metric(
        "alloc.bytes_per_op",
        allocs.bytes as f64 / execs as f64,
        "B",
    );
    out.ledger(
        &title,
        spans_out,
        &ledger,
        &[Layer::Trace, Layer::Sched, Layer::Gateway, Layer::Placement],
    );
    out.check(spans_out.has(Layer::Wire), || {
        format!("{title}: layer `wire` recorded no span")
    });
    overheads.push((ns_per_exec(&plain), ns_per_exec(&traced)));
    out.overhead(&title, &overheads);
    out.note(format!(
        "{title}: placement {calls} calls, {:.1} us wait/call, owner busy {:.1} us/command",
        mean(coordination.placement_wait().as_secs_f64() * 1e6, calls),
        mean(service.busy.as_secs_f64() * 1e6, service.commands())
    ));
    out
}

/// Encodes and decodes requests shaped like the serve path's own (an
/// 11-byte cell, `cell-N` / `user-U` ids) directly through `jupyter::wire`.
fn wire_probe(opts: &ServeOpts, spans: &mut Spans) -> (f64, f64) {
    const MESSAGES: usize = 256;
    const PASSES: usize = 20;
    let requests: Vec<_> = (0..MESSAGES)
        .map(|i| {
            let user = i * 7 % opts.users;
            client_request(
                format!("cell-{}", i + 1),
                &format!("user-{user}"),
                &format!("kernel-user-{user}"),
                "model.fit()",
                SimTime::from_millis(250),
                SimTime::from_millis(i as u64 * 97),
            )
        })
        .collect();
    wire_round_trips(&requests, PASSES, spans)
}

/// Mean ns per `wire::encode` and per `wire::decode` over `passes`
/// passes of `messages`, each pass in its own wire span.
pub fn wire_round_trips(
    messages: &[notebookos_jupyter::JupyterMessage],
    passes: usize,
    spans: &mut Spans,
) -> (f64, f64) {
    let mut encode_ns = 0u64;
    let mut decode_ns = 0u64;
    for _ in 0..passes {
        let span = spans.begin(Layer::Wire, 0);
        let started = Instant::now();
        let frames: Vec<_> = messages
            .iter()
            .map(|m| wire::encode(&[], std::hint::black_box(m), GATEWAY_KEY))
            .collect();
        encode_ns += started.elapsed().as_nanos() as u64;
        let started = Instant::now();
        for f in &frames {
            let decoded = wire::decode(std::hint::black_box(f), GATEWAY_KEY);
            assert!(decoded.is_ok(), "the workload's own frames decode");
        }
        decode_ns += started.elapsed().as_nanos() as u64;
        spans.end(span);
    }
    let calls = (messages.len() * passes) as u64;
    (mean(encode_ns as f64, calls), mean(decode_ns as f64, calls))
}
