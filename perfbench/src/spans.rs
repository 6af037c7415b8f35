//! Spans recorded around the benchmark's calls into each layer, and the
//! self-time ledger built from them.
//!
//! A span has a layer, a start, an end, the span that was open when it
//! began (its parent) and an operation id shared by the spans of one
//! execution or commit. Spans stay in memory; [`Spans::write_tsv`] writes
//! them out when the run ends. A layer's self time is the time its spans
//! cover minus the time covered by their children.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The modules a workload's calls cross, named after the repository's
/// crates and modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `notebookos-trace::generate` plus what precedes the first event.
    Trace,
    /// `notebookos-des::DesScheduler` calls.
    Sched,
    /// `jupyter::wire`, `transport`, `json`.
    Wire,
    /// `core::serve::LiveGateway`, `jupyter::router`, `jupyter::session`.
    Gateway,
    /// `core::placement_service`, `core::gateway`, `core::policy`, cluster.
    Placement,
    /// `core::platform` handlers and what they call.
    Platform,
    /// `raft::live`, `raft::node`.
    Raft,
    /// `raft::storage`.
    Wal,
    /// The benchmark's own client work (building requests, checking replies).
    Bench,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Trace,
        Layer::Sched,
        Layer::Wire,
        Layer::Gateway,
        Layer::Placement,
        Layer::Platform,
        Layer::Raft,
        Layer::Wal,
        Layer::Bench,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Trace => "trace",
            Layer::Sched => "sched",
            Layer::Wire => "wire",
            Layer::Gateway => "gateway",
            Layer::Placement => "placement",
            Layer::Platform => "platform",
            Layer::Raft => "raft",
            Layer::Wal => "wal",
            Layer::Bench => "bench",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    layer: Layer,
    op: u64,
}

/// An in-memory span log for one thread. Times are nanoseconds since a
/// shared epoch, so logs from several threads merge onto one timeline.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span at `start_ns` under the innermost open span.
    pub fn begin_at(&mut self, layer: Layer, start_ns: u64, op: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            layer,
            op,
        });
        self.open.push(id);
        id
    }

    pub fn begin(&mut self, layer: Layer, op: u64) -> u32 {
        let now = self.now();
        self.begin_at(layer, now, op)
    }

    /// Closes span `id` (the innermost open one) at `end_ns`.
    pub fn end_at(&mut self, id: u32, end_ns: u64) {
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id as usize].end_ns = end_ns;
    }

    pub fn end(&mut self, id: u32) {
        let now = self.now();
        self.end_at(id, now);
    }

    /// Records a closed top-level span.
    pub fn record(&mut self, layer: Layer, start_ns: u64, end_ns: u64, op: u64) {
        let id = self.begin_at(layer, start_ns, op);
        self.end_at(id, end_ns);
    }

    pub fn set_op(&mut self, id: u32, op: u64) {
        self.spans[id as usize].op = op;
    }

    /// Appends another thread's log (same epoch), keeping its parent links.
    pub fn absorb(&mut self, other: Spans) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += offset;
            }
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether any span of `layer` was recorded.
    pub fn has(&self, layer: Layer) -> bool {
        self.spans.iter().any(|s| s.layer == layer)
    }

    /// Self time per layer over the spans that lie inside
    /// `[from_ns, to_ns]`, and the residual of that window no top-level
    /// span covers.
    pub fn ledger(&self, from_ns: u64, to_ns: u64) -> Ledger {
        let mut child_ns = vec![0u64; self.spans.len()];
        let inside = |s: &Span| s.start_ns >= from_ns && s.end_ns <= to_ns;
        for s in self.spans.iter().filter(|s| inside(s)) {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut self_ns = [0u64; Layer::ALL.len()];
        let mut covered = 0u64;
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| inside(s)) {
            let dur = s.end_ns - s.start_ns;
            self_ns[s.layer as usize] += dur.saturating_sub(child_ns[i]);
            if s.parent == NO_PARENT {
                covered += dur;
            }
        }
        let wall_ns = to_ns - from_ns;
        Ledger {
            self_ns,
            wall_ns,
            residual_ns: wall_ns as i64 - covered as i64,
        }
    }

    /// Writes the first `limit` spans, one per line: layer, start, end,
    /// parent, op. A child without its own op id inherits its parent's.
    pub fn write_tsv(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        let mut ops: Vec<u64> = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            let op = if s.op == 0 && s.parent != NO_PARENT {
                ops[s.parent as usize]
            } else {
                s.op
            };
            ops.push(op);
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# first {} of {} spans",
            limit.min(self.spans.len()),
            self.spans.len()
        )?;
        writeln!(out, "id\tlayer\tstart_ns\tend_ns\tparent\top")?;
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                ops[i]
            )?;
        }
        out.flush()
    }
}

/// Where one traced pass's wall time went.
#[derive(Debug, Clone)]
pub struct Ledger {
    pub self_ns: [u64; Layer::ALL.len()],
    pub wall_ns: u64,
    /// Wall time no top-level span covers (negative only if spans from
    /// concurrent threads overlap).
    pub residual_ns: i64,
}

impl Ledger {
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    /// Human-readable rows: each layer's self time and share, the residual
    /// and the sum that reconciles to the wall time.
    pub fn render(&self, title: &str) -> String {
        let ms = |ns: f64| ns / 1e6;
        let wall = self.wall_ns as f64;
        let mut out = format!("ledger {title}: wall {:.3} ms\n", ms(wall));
        let mut sum = 0i64;
        for layer in Layer::ALL {
            let ns = self.self_ns(layer);
            if ns > 0 {
                out.push_str(&format!(
                    "  {:<10} {:>12.3} ms  {:>5.1}%\n",
                    layer.name(),
                    ms(ns as f64),
                    100.0 * ns as f64 / wall
                ));
            }
            sum += ns as i64;
        }
        out.push_str(&format!(
            "  {:<10} {:>12.3} ms  {:>5.1}%\n",
            "residual",
            ms(self.residual_ns as f64),
            100.0 * self.residual_ns as f64 / wall
        ));
        sum += self.residual_ns;
        out.push_str(&format!(
            "  {:<10} {:>12.3} ms  (layers + residual = wall)",
            "sum",
            ms(sum as f64)
        ));
        out
    }
}
