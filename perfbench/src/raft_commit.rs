//! `raft-commit`: a three-node `LiveCluster::start_durable` (a WAL per
//! node, fsync on every processed input) and one closed-loop client that
//! calls `propose_blocking` and then waits until a majority has applied
//! the command. The replicated kernel-state path, and the only workload
//! that touches `notebookos-raft` and the WAL.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use notebookos_raft::live::LiveCluster;
use notebookos_raft::storage::{encode_commands, measure_wal_fsync_cost};
use notebookos_raft::WalOptions;

use crate::alloc;
use crate::calib;
use crate::outcome::{Between, Outcome, Size, SETUPS_PER_REP};
use crate::record;
use crate::spans::{Layer, Spans};
use crate::stats::{mean, median, percentile, SplitMix};

const NODES: usize = 3;
const FULL_COMMITS_PER_REP: usize = 300;
const REFERENCE_COMMITS: usize = 200;
const TIMEOUT: Duration = Duration::from_secs(5);
/// Silence after which a commit checks whether its entry was dropped.
const LOST_CHECK: Duration = Duration::from_millis(250);
const WAL_PROBE_APPENDS: usize = 200;

#[derive(Default)]
struct Rep {
    setup_ns: u64,
    /// Commits after the first (which is part of set-up).
    commits: u64,
    commit_ns: Vec<u64>,
    accept_ns: u64,
    replicate_ns: u64,
    wal_bytes: u64,
    /// Commands proposed again because a leader change dropped them.
    reproposals: u64,
    elections: u64,
    wal_append_us: f64,
    wal_fsync_us: f64,
    window: (u64, u64),
}

/// Sum of the node WALs' sizes under `dir`.
fn wal_bytes(dir: &Path) -> u64 {
    (1..=NODES)
        .filter_map(|id| std::fs::metadata(dir.join(format!("node-{id}.wal"))).ok())
        .map(|m| m.len())
        .sum()
}

/// Whether the entry at `index`, where the `nth` command (from 0) was
/// accepted, is committed on a majority as something else: a leader
/// accepted it, lost its term before replicating it, and the new leader
/// overwrote the slot. Raft allows this; the client proposes again.
fn dropped(cluster: &LiveCluster<u64>, nth: usize, index: u64) -> bool {
    let overwritten = (1..=NODES as u64)
        .filter_map(|id| cluster.inspect(id, LOST_CHECK))
        .filter(|s| s.commit_index >= index && s.applied.len() <= nth)
        .count();
    overwritten > NODES / 2
}

/// Proposes `command`, the `nth` (from 0), and waits until a majority
/// has applied it, proposing it again if a leader change dropped it.
/// `applied[id]` tracks each node's highest applied index. Returns the
/// time to the last acceptance, from there to majority application, and
/// how many times the command was proposed again.
fn commit(
    cluster: &LiveCluster<u64>,
    command: u64,
    nth: usize,
    applied: &mut [u64; NODES + 1],
) -> Result<(u64, u64, u64), String> {
    let started = Instant::now();
    let majority = NODES / 2 + 1;
    let mut reproposals = 0;
    'propose: loop {
        let left = TIMEOUT.saturating_sub(started.elapsed());
        let index = cluster
            .propose_blocking(command, left)
            .map_err(|e| format!("propose timed out (leader hint {:?})", e.leader_hint))?;
        let accepted = started.elapsed();
        while applied[1..].iter().filter(|&&i| i >= index).count() < majority {
            let left = TIMEOUT.saturating_sub(started.elapsed());
            if left.is_zero() {
                return Err(format!("index {index} not applied on a majority"));
            }
            let seen = cluster.wait_for_applied(1, left.min(LOST_CHECK));
            if seen.is_empty() && dropped(cluster, nth, index) {
                reproposals += 1;
                continue 'propose;
            }
            for a in seen {
                let slot = &mut applied[a.node as usize];
                *slot = (*slot).max(a.index);
            }
        }
        let done = started.elapsed();
        return Ok((
            accepted.as_nanos() as u64,
            (done - accepted).as_nanos() as u64,
            reproposals,
        ));
    }
}

fn rep(
    dir: &Path,
    seed: u64,
    commits: usize,
    epoch: Instant,
    mut spans: Option<&mut Spans>,
    out: &mut Outcome,
) -> Rep {
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let mut rep = Rep::default();
    let _ = std::fs::remove_dir_all(dir);
    let mut rng = SplitMix::new(seed ^ 0x4AF7);
    let commands: Vec<u64> = (0..commits).map(|_| rng.next_u64()).collect();
    let mut applied = [0u64; NODES + 1];

    let start = now_ns();
    let span = spans.as_deref_mut().map(|s| s.begin(Layer::Raft, 0));
    let cluster = LiveCluster::<u64>::start_durable(NODES, dir, WalOptions::default());
    let first = commit(&cluster, commands[0], 0, &mut applied);
    if let (Some(s), Some(span)) = (spans.as_deref_mut(), span) {
        s.end(span);
    }
    rep.setup_ns = now_ns() - start;
    out.attempted += 1;
    match first {
        Ok((_, _, again)) => rep.reproposals += again,
        Err(e) => {
            out.failed += 1;
            out.check(false, || format!("raft: first commit: {e}"));
            cluster.shutdown();
            return rep;
        }
    }
    let wal_after_setup = wal_bytes(dir);

    let mut proposed = 1;
    for (i, &command) in commands.iter().enumerate().skip(1) {
        let span = spans.as_deref_mut().map(|s| s.begin(Layer::Raft, i as u64));
        let result = commit(&cluster, command, i, &mut applied);
        if let (Some(s), Some(span)) = (spans.as_deref_mut(), span) {
            s.end(span);
        }
        out.attempted += 1;
        match result {
            Ok((accept, replicate, again)) => {
                proposed += 1;
                rep.reproposals += again;
                rep.commits += 1;
                rep.accept_ns += accept;
                rep.replicate_ns += replicate;
                rep.commit_ns.push(accept + replicate);
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("raft: commit {i}: {e}"));
                break;
            }
        }
    }
    rep.wal_bytes = wal_bytes(dir).saturating_sub(wal_after_setup);

    // Every command applied once, in order, on every replica.
    let span = spans.as_deref_mut().map(|s| s.begin(Layer::Raft, 0));
    let expected = encode_commands(&commands[..proposed]);
    let deadline = Instant::now() + TIMEOUT;
    for id in 1..=NODES as u64 {
        let snapshot = loop {
            let snapshot = cluster.inspect(id, TIMEOUT);
            let done = snapshot
                .as_ref()
                .is_some_and(|s| s.applied.len() >= proposed);
            if done || Instant::now() >= deadline {
                break snapshot;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        match snapshot {
            Some(s) => {
                rep.elections = rep.elections.max(s.term);
                out.check(encode_commands(&s.applied) == expected, || {
                    format!(
                        "raft: node {id} applied {} commands, not the {proposed} proposed in order",
                        s.applied.len()
                    )
                });
            }
            None => out.check(false, || format!("raft: node {id} did not answer inspect")),
        }
    }
    if let (Some(s), Some(span)) = (spans.as_deref_mut(), span) {
        s.end(span);
    }

    // Traced repetitions also measure the WAL's append and fsync cost on
    // the same disk.
    if let Some(s) = spans {
        let span = s.begin(Layer::Wal, 0);
        match measure_wal_fsync_cost(dir, WAL_PROBE_APPENDS) {
            Ok(cost) => {
                rep.wal_append_us = cost.buffered_us_per_append;
                rep.wal_fsync_us = cost.fsync_us_per_append;
            }
            Err(e) => out.check(false, || format!("raft: WAL probe: {e}")),
        }
        s.end(span);
    }
    cluster.shutdown();
    rep.window = (start, now_ns());
    let _ = std::fs::remove_dir_all(dir);
    rep
}

fn commits(size: Size) -> usize {
    match size {
        Size::Full { .. } => FULL_COMMITS_PER_REP,
        Size::Reference => REFERENCE_COMMITS,
    }
}

/// Untraced pass: end-to-end metrics.
pub fn run(seed: u64, size: Size, epoch: Instant, dir: &Path, between: Between) -> Outcome {
    let mut out = Outcome::default();
    let seconds = match size {
        Size::Full { seconds } => seconds,
        Size::Reference => 0.0,
    };
    let full = matches!(size, Size::Full { .. });
    let mut setups = Vec::new();
    let mut measured = 0.0;
    let mut peak_rss_mb = 0.0;
    let mut reps = Vec::new();
    loop {
        let started = Instant::now();
        if full {
            // A one-command repetition is exactly set-up: start, election
            // and the first commit.
            for i in 0..SETUPS_PER_REP {
                let rep_dir = dir.join(format!("raft-setup-{}-{i}", reps.len()));
                let setup = calib::unpinned(|| rep(&rep_dir, seed, 1, epoch, None, &mut out));
                setups.push(setup.setup_ns as f64 / 1e9);
            }
        }
        let rep_dir: PathBuf = dir.join(format!("raft-{}", reps.len()));
        let commits = commits(size);
        reps.push(calib::unpinned(|| {
            rep(&rep_dir, seed, commits, epoch, None, &mut out)
        }));
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
    let samples: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.commit_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    if samples.is_empty() {
        out.check(false, || "raft: no commit completed".to_string());
        return out;
    }
    out.metric("commit_p50_us", percentile(&samples, 50.0), "us");
    out.metric("commit_p90_us", percentile(&samples, 90.0), "us");
    out.note(format!(
        "raft-commit: {} repetitions, {} commit samples, {} commands proposed again \
         after a leader change dropped them",
        reps.len(),
        samples.len(),
        reps.iter().map(|r| r.reproposals).sum::<u64>()
    ));
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
    dir: &Path,
    spans: &mut Spans,
) -> Outcome {
    let mut out = Outcome::default();
    let n = commits(size);
    let per_commit = |r: &Rep| r.commit_ns.iter().sum::<u64>() as f64 / r.commits.max(1) as f64;
    let mut overheads = Vec::new();
    for _ in 1..pairs {
        let plain = rep(&dir.join("raft-plain"), seed, n, epoch, None, &mut out);
        let mut scratch = Spans::new(epoch);
        let (traced, _) = alloc::counted(|| {
            rep(
                &dir.join("raft-traced"),
                seed,
                n,
                epoch,
                Some(&mut scratch),
                &mut out,
            )
        });
        overheads.push((per_commit(&plain), per_commit(&traced)));
    }
    let plain = rep(&dir.join("raft-plain"), seed, n, epoch, None, &mut out);
    let (traced, allocs) = alloc::counted(|| {
        rep(
            &dir.join("raft-traced"),
            seed,
            n,
            epoch,
            Some(&mut *spans),
            &mut out,
        )
    });
    let title = format!("raft-commit {n} commits");
    let commits = traced.commits.max(1);
    let ledger = spans.ledger(traced.window.0, traced.window.1);
    out.metric(
        "raft.accept_us",
        mean(traced.accept_ns as f64 / 1e3, commits),
        "us",
    );
    out.metric(
        "raft.replicate_us",
        mean(traced.replicate_ns as f64 / 1e3, commits),
        "us",
    );
    out.metric("raft.elections", traced.elections as f64, "count");
    out.metric(
        "wal.bytes_per_commit",
        traced.wal_bytes as f64 / commits as f64,
        "B",
    );
    out.metric("wal.append_us", traced.wal_append_us, "us");
    out.metric("wal.fsync_us", traced.wal_fsync_us, "us");
    out.metric(
        "alloc.per_op",
        allocs.calls as f64 / commits as f64,
        "count",
    );
    out.metric(
        "alloc.bytes_per_op",
        allocs.bytes as f64 / commits as f64,
        "B",
    );
    out.ledger(&title, spans, &ledger, &[Layer::Raft, Layer::Wal]);
    overheads.push((per_commit(&plain), per_commit(&traced)));
    out.overhead(&title, &overheads);
    out
}
