//! `exec-loop`: a closed loop over the public `LiveGateway` and
//! `WireEndpoint` API. 64 sessions on 64 hosts start once per
//! repetition; each sends its next `execute_request` (a 2 KiB cell) as
//! soon as its merged reply is decoded. Completions are in virtual time
//! on a `DesScheduler`; one thread, `LocalBackend`. The wire codec,
//! router fan-out and merge and session bookkeeping do the work;
//! placement does almost none.

use std::time::Instant;

use notebookos_cluster::ResourceBundle;
use notebookos_core::serve::{client_request, LiveGateway, GATEWAY_KEY};
use notebookos_des::{DesScheduler, Scheduler, SimTime};
use notebookos_jupyter::{wire, JupyterMessage, KernelResourceSpec, MsgIdGen, WireEndpoint};

use crate::alloc;
use crate::calib::{self, Slices};
use crate::outcome::{Between, Outcome, Size};
use crate::record;
use crate::reference;
use crate::serve_trace::wire_round_trips;
use crate::spans::{Layer, Spans};
use crate::stats::{fingerprint, mean, median, SplitMix};

const SESSIONS: usize = 64;
const HOSTS: usize = 64;
const CELL_BYTES: usize = 2_048;
const EXECS_PER_REP: u64 = 20_000;
const REFERENCE_EXECS: u64 = 5_000;
/// One execution in this many is copied out for the direct wire probe.
const PROBE_EVERY: u64 = 16;
/// Executions per throughput slice.
const SLICE_EXECS: u64 = 1_000;
/// Set-up-only repetitions before each measured repetition. Set-up takes
/// well under a millisecond, so its median needs more of them than the
/// other workloads' do.
const SETUPS_PER_REP: usize = 6;

fn spec() -> KernelResourceSpec {
    KernelResourceSpec {
        millicpus: 4_000,
        memory_mb: 16_384,
        gpus: 1,
        vram_gb: 16,
    }
}

/// One 2 KiB cell source per session, drawn from the seed.
fn cells(seed: u64) -> Vec<String> {
    let mut rng = SplitMix::new(seed ^ 0xCE11);
    (0..SESSIONS)
        .map(|_| {
            let mut cell = String::with_capacity(CELL_BYTES + 64);
            while cell.len() < CELL_BYTES {
                let (a, b, c) = (rng.range(0, 99), rng.range(0, 31), rng.range(1, 512));
                cell.push_str(&format!(
                    "h{a} = torch.relu(layer_{b}(h{a}, width={c}))  # \"step\" {c}\n"
                ));
            }
            cell.truncate(CELL_BYTES);
            cell
        })
        .collect()
}

#[derive(Default)]
struct Rep {
    setup_ns: u64,
    serve_ns: u64,
    execs: u64,
    service_ns: Vec<u64>,
    /// Fingerprint of the completion order and times.
    print: u64,
    print_words: Vec<u64>,
    // Traced repetitions only: per-call totals and probe samples.
    start_ns: u64,
    end_ns: u64,
    send_ns: u64,
    pump_ns: u64,
    finish_ns: u64,
    drain_ns: u64,
    pops: u64,
    msgs: u64,
    fan_out: u64,
    rejected: u64,
    probe: Vec<JupyterMessage>,
    window: (u64, u64),
    /// Calibrated slices: from serving start, every `SLICE_EXECS`
    /// completions.
    slices: Slices,
}

/// The client side of one repetition: the gateway, its wire, the
/// virtual-time completion queue and each session's in-flight request.
struct Client<'a> {
    gw: LiveGateway,
    wire: WireEndpoint,
    sched: DesScheduler<usize>,
    ids: MsgIdGen,
    rng: SplitMix,
    cells: &'a [String],
    session_ids: Vec<String>,
    kernel_ids: Vec<String>,
    /// Per session: the in-flight request id, its operation number, and
    /// the wall time its submit took.
    pending: Vec<(String, u64, u64)>,
    issued: u64,
    epoch: Instant,
    /// Record calibrated slices.
    sliced: bool,
}

impl Client<'_> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Builds, sends and pumps session `s`'s next request and schedules
    /// its completion. Returns `false` if the gateway did not accept it.
    fn submit(
        &mut self,
        s: usize,
        now: SimTime,
        spans: &mut Option<&mut Spans>,
        rep: &mut Rep,
        out: &mut Outcome,
    ) -> bool {
        let traced = spans.is_some();
        self.issued += 1;
        let op = self.issued;
        let t_a = self.now_ns();
        let span = open(spans, Layer::Bench, op);
        let msg_id = self.ids.next_id();
        let duration = SimTime::from_micros(self.rng.range(1_000, 250_000));
        let request = client_request(
            &msg_id,
            &self.session_ids[s],
            &self.kernel_ids[s],
            self.cells[s].as_str(),
            duration,
            now,
        );
        if traced && op.is_multiple_of(PROBE_EVERY) {
            rep.probe.push(request.clone());
        }
        close(spans, span);
        let span = open(spans, Layer::Wire, op);
        let t_s = if traced { self.now_ns() } else { 0 };
        let sent = self.wire.send(&[], &request);
        if traced {
            rep.send_ns += self.now_ns() - t_s;
        }
        close(spans, span);
        let span = open(spans, Layer::Gateway, op);
        let t_p = if traced { self.now_ns() } else { 0 };
        let accepted = self.gw.pump(now);
        if traced {
            rep.pump_ns += self.now_ns() - t_p;
        }
        close(spans, span);
        let ours = sent && accepted.len() == 1 && accepted[0].msg_id == msg_id;
        out.check(ours, || {
            format!(
                "exec-loop: request {msg_id} not accepted alone ({} accepted)",
                accepted.len()
            )
        });
        if !ours {
            out.failed += 1;
            return false;
        }
        rep.fan_out += accepted[0].fan_out as u64;
        let span = open(spans, Layer::Sched, op);
        self.sched.schedule_in(accepted[0].duration, s);
        close(spans, span);
        self.pending[s] = (msg_id, op, self.now_ns() - t_a);
        true
    }

    /// Completes the next execution in virtual time and checks its merged
    /// reply. Returns the session, or `None` when the queue is empty or
    /// the reply is wrong.
    fn complete(
        &mut self,
        spans: &mut Option<&mut Spans>,
        rep: &mut Rep,
        out: &mut Outcome,
    ) -> Option<(usize, SimTime)> {
        let traced = spans.is_some();
        let span = open(spans, Layer::Sched, 0);
        let popped = self.sched.pop_next();
        close(spans, span);
        let (now, s) = popped?;
        rep.pops += 1;
        let (msg_id, op, submit_ns) = std::mem::take(&mut self.pending[s]);
        let t_d = self.now_ns();
        let span = open(spans, Layer::Gateway, op);
        let finished = self.gw.finish_execution(&msg_id, now);
        let t_e = if traced { self.now_ns() } else { 0 };
        close(spans, span);
        let span = open(spans, Layer::Wire, op);
        let (replies, bad) = self.wire.drain();
        let t_f = self.now_ns();
        close(spans, span);
        if traced {
            rep.finish_ns += t_e - t_d;
            rep.drain_ns += t_f - t_e;
        }
        let span = open(spans, Layer::Bench, op);
        let ok = finished
            && bad == 0
            && replies.len() == 1
            && replies[0].1.is_ok_reply()
            && replies[0].1.parent.as_ref().map(|p| p.msg_id.as_str()) == Some(msg_id.as_str());
        out.check(ok, || {
            format!(
                "exec-loop: {msg_id}: finished {finished}, {} replies, {bad} bad frames",
                replies.len()
            )
        });
        if traced && op.is_multiple_of(PROBE_EVERY) {
            if let Some((_, reply)) = replies.into_iter().next() {
                rep.probe.push(reply);
            }
        }
        close(spans, span);
        if !ok {
            out.failed += 1;
            return None;
        }
        rep.execs += 1;
        rep.service_ns.push(submit_ns + (t_f - t_d));
        rep.print_words.push(op);
        rep.print_words.push(now.as_micros());
        if self.sliced && rep.execs.is_multiple_of(SLICE_EXECS) {
            rep.slices.boundary(|| self.now_ns());
        }
        Some((s, now))
    }
}

fn open(spans: &mut Option<&mut Spans>, layer: Layer, op: u64) -> Option<u32> {
    spans.as_deref_mut().map(|sp| sp.begin(layer, op))
}

fn close(spans: &mut Option<&mut Spans>, span: Option<u32>) {
    if let (Some(sp), Some(span)) = (spans.as_deref_mut(), span) {
        sp.end(span);
    }
}

/// Runs one repetition of `target` executions (none: set-up only). With
/// `spans`, records a span around every call into a layer and per-call
/// totals; with `sliced`, records calibrated slices.
fn rep(
    cells: &[String],
    seed: u64,
    target: u64,
    epoch: Instant,
    mut spans: Option<&mut Spans>,
    sliced: bool,
    out: &mut Outcome,
) -> Rep {
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let mut rep = Rep::default();
    let rep_start = now_ns();

    let (mut gw, wire) = LiveGateway::new(HOSTS, ResourceBundle::p3_16xlarge(), 3);
    let session_ids: Vec<String> = (0..SESSIONS).map(|s| format!("session-{s}")).collect();
    let mut kernel_ids = Vec::with_capacity(SESSIONS);
    for (s, id) in session_ids.iter().enumerate() {
        let span = open(&mut spans, Layer::Placement, s as u64);
        let t = now_ns();
        let started = gw.start_session(id, spec(), SimTime::ZERO);
        rep.start_ns += now_ns() - t;
        close(&mut spans, span);
        match started {
            Ok(info) => kernel_ids.push(info.kernel_id),
            Err(e) => {
                out.check(false, || {
                    format!("exec-loop: session {s} failed to start: {e:?}")
                });
                return rep;
            }
        }
    }
    let serve_start = now_ns();
    rep.setup_ns = serve_start - rep_start;
    if target == 0 {
        return rep;
    }
    if sliced {
        rep.slices.boundary(now_ns);
    }

    let mut client = Client {
        gw,
        wire,
        sched: DesScheduler::new(),
        ids: MsgIdGen::new("exec"),
        rng: SplitMix::new(seed ^ 0xD0E5),
        cells,
        session_ids,
        kernel_ids,
        pending: vec![(String::new(), 0, 0); SESSIONS],
        issued: 0,
        epoch,
        sliced,
    };
    rep.print_words.reserve(target as usize * 2);
    let mut running = true;
    for s in 0..SESSIONS {
        running &= client.submit(s, SimTime::ZERO, &mut spans, &mut rep, out);
    }
    while running {
        let Some((s, now)) = client.complete(&mut spans, &mut rep, out) else {
            break;
        };
        if client.issued < target {
            running = client.submit(s, now, &mut spans, &mut rep, out);
        }
    }
    rep.serve_ns = now_ns() - serve_start;
    let issued = client.issued;
    out.attempted += issued;

    let stats = client.gw.stats();
    rep.msgs = client.wire.sent() + client.wire.received();
    rep.rejected = stats.rejected;
    out.check(
        stats.rejected == 0 && stats.accepted == issued && stats.replies == rep.execs,
        || {
            format!(
                "exec-loop: gateway accepted {} replied {} rejected {} of {issued}",
                stats.accepted, stats.replies, stats.rejected
            )
        },
    );
    for id in &client.session_ids {
        let span = open(&mut spans, Layer::Placement, 0);
        let t = now_ns();
        let ended = client.gw.end_session(id);
        rep.end_ns += now_ns() - t;
        close(&mut spans, span);
        out.check(ended, || format!("exec-loop: {id} did not end"));
    }
    out.check(client.gw.kernel_count() == 0, || {
        format!(
            "exec-loop: {} kernels left after every session ended",
            client.gw.kernel_count()
        )
    });
    rep.print = fingerprint(std::mem::take(&mut rep.print_words));
    rep.window = (rep_start, now_ns());
    rep
}

fn check_print(out: &mut Outcome, rep: &Rep, first: Option<&Rep>, seed: u64, target: u64) {
    if let Some(first) = first {
        out.check(rep.print == first.print, || {
            "exec-loop: completion order differs between repetitions of one seed".to_string()
        });
    } else {
        out.note(format!(
            "exec-loop {target} executions seed {seed}: fingerprint {:#018x}",
            rep.print
        ));
    }
    if seed == reference::DEFAULT_SEED {
        let expected = reference::exec_loop_fingerprint(target);
        out.check(expected == Some(rep.print), || {
            format!(
                "exec-loop: fingerprint {:#018x} != reference {expected:#018x?}",
                rep.print
            )
        });
    }
}

/// Untraced pass: end-to-end metrics.
pub fn run(seed: u64, size: Size, epoch: Instant, between: Between) -> Outcome {
    let mut out = Outcome::default();
    let (target, seconds) = match size {
        Size::Full { seconds } => (EXECS_PER_REP, seconds),
        Size::Reference => (REFERENCE_EXECS, 0.0),
    };
    let cells = cells(seed);
    let full = matches!(size, Size::Full { .. });
    let mut setups = Vec::new();
    let mut measured = 0.0;
    let mut peak_rss_mb = 0.0;
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let started = Instant::now();
        if full {
            for _ in 0..SETUPS_PER_REP {
                setups.push(calib::setup(|| {
                    rep(&cells, seed, 0, epoch, None, false, &mut out).setup_ns as f64 / 1e9
                }));
            }
        }
        let rep = rep(&cells, seed, target, epoch, None, true, &mut out);
        check_print(&mut out, &rep, reps.first(), seed, target);
        reps.push(rep);
        measured += started.elapsed().as_secs_f64();
        if reps.len() == 1 {
            // Read before any reference pass has run: the named
            // workload's own high-water mark.
            peak_rss_mb = record::peak_rss_mb();
        }
        between(measured / seconds);
        if !out.failures.is_empty() || measured >= seconds {
            break;
        }
    }
    if full {
        out.metric("setup_s", median(&setups), "s");
        out.metric("peak_rss_mb", peak_rss_mb, "MiB");
    }
    let service: Vec<f64> = reps
        .iter()
        .flat_map(|r| {
            (r.service_ns.iter().enumerate())
                .map(|(i, &ns)| ns as f64 / 1e3 * r.slices.scale(i / SLICE_EXECS as usize))
        })
        .collect();
    if service.is_empty() {
        out.check(false, || "exec-loop: no execution completed".to_string());
        return out;
    }
    let rate = calib::rate(reps.iter().map(|r| &r.slices), SLICE_EXECS);
    out.metric("execs_per_s", rate, "1/s");
    out.note(format!(
        "exec-loop: {} repetitions of {target} executions, {} slices of \
         {SLICE_EXECS} executions, {} service samples",
        reps.len(),
        reps.iter().map(|r| r.slices.len()).sum::<usize>(),
        service.len()
    ));
    out.samples("exec_service", service);
    out.percentile("exec_service_p50_us", "exec_service", 50.0, "us");
    out.percentile("exec_service_p99_us", "exec_service", 99.0, "us");
    out
}

/// Traced pass: `pairs` back-to-back untraced and traced repetitions;
/// per-layer metrics and the ledger from the last traced one, and the
/// tracing overhead over all pairs.
pub fn run_traced(seed: u64, pairs: usize, epoch: Instant, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let cells = cells(seed);
    let ns_per_exec = |r: &Rep| r.serve_ns as f64 / r.execs.max(1) as f64;
    let mut overheads = Vec::new();
    for _ in 1..pairs {
        let plain = rep(&cells, seed, EXECS_PER_REP, epoch, None, false, &mut out);
        let mut scratch = Spans::new(epoch);
        let (traced, _) = alloc::counted(|| {
            rep(
                &cells,
                seed,
                EXECS_PER_REP,
                epoch,
                Some(&mut scratch),
                false,
                &mut out,
            )
        });
        overheads.push((ns_per_exec(&plain), ns_per_exec(&traced)));
    }
    let plain = rep(&cells, seed, EXECS_PER_REP, epoch, None, false, &mut out);
    check_print(&mut out, &plain, None, seed, EXECS_PER_REP);
    let (traced, allocs) = alloc::counted(|| {
        rep(
            &cells,
            seed,
            EXECS_PER_REP,
            epoch,
            Some(spans),
            false,
            &mut out,
        )
    });
    check_print(&mut out, &traced, Some(&plain), seed, EXECS_PER_REP);
    let execs = traced.execs.max(1);
    let per_exec = |ns: u64| ns as f64 / execs as f64;
    let title = format!("exec-loop {EXECS_PER_REP} executions");
    let ledger = spans.ledger(traced.window.0, traced.window.1);

    let (encode_ns, decode_ns) = wire_round_trips(&traced.probe, 20, spans);
    let probe_bytes: usize = traced
        .probe
        .iter()
        .map(|m| {
            wire::encode(&[], m, GATEWAY_KEY)
                .iter()
                .map(|f| f.len())
                .sum::<usize>()
        })
        .sum();
    // The probe holds requests and replies of the same executions.
    let probe_execs = (traced.probe.len() / 2).max(1);

    out.metric(
        "sched.ns_per_event",
        mean(ledger.self_ns(Layer::Sched) as f64, traced.pops),
        "ns",
    );
    out.metric("sched.events", traced.pops as f64, "count");
    out.metric("wire.send_ns", per_exec(traced.send_ns), "ns");
    out.metric("wire.drain_ns", per_exec(traced.drain_ns), "ns");
    out.metric("wire.encode_ns", encode_ns, "ns");
    out.metric("wire.decode_ns", decode_ns, "ns");
    out.metric(
        "wire.msgs_per_exec",
        traced.msgs as f64 / execs as f64,
        "count",
    );
    out.metric(
        "wire.bytes_per_exec",
        probe_bytes as f64 / probe_execs as f64,
        "B",
    );
    out.metric("gateway.pump_ns", per_exec(traced.pump_ns), "ns");
    out.metric("gateway.finish_ns", per_exec(traced.finish_ns), "ns");
    out.metric(
        "gateway.fanout_copies_per_exec",
        traced.fan_out as f64 / execs as f64,
        "count",
    );
    out.metric("gateway.rejected", traced.rejected as f64, "count");
    out.metric(
        "gateway.start_session_ns",
        traced.start_ns as f64 / SESSIONS as f64,
        "ns",
    );
    out.metric(
        "gateway.end_session_ns",
        traced.end_ns as f64 / SESSIONS as f64,
        "ns",
    );
    out.metric("alloc.per_op", allocs.calls as f64 / execs as f64, "count");
    out.metric(
        "alloc.bytes_per_op",
        allocs.bytes as f64 / execs as f64,
        "B",
    );
    out.ledger(
        &title,
        spans,
        &ledger,
        &[
            Layer::Sched,
            Layer::Wire,
            Layer::Gateway,
            Layer::Placement,
            Layer::Bench,
        ],
    );
    overheads.push((ns_per_exec(&plain), ns_per_exec(&traced)));
    out.overhead(&title, &overheads);
    out
}
