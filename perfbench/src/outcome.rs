//! What one pass of a workload reports: metrics, operation counts and
//! the outcome of its correctness checks.

use std::collections::BTreeMap;

use crate::spans::{Layer, Ledger, Spans};
use crate::stats::{median, percentile};

/// Set-up-only repetitions a full pass makes before each measured
/// repetition (exec-loop makes more), so set-up is sampled across the
/// whole run; `setup_s` is their median.
pub const SETUPS_PER_REP: usize = 2;

/// Called by a full pass after each repetition with the share of
/// `--seconds` it has measured so far; the run does reference work there,
/// so reference passes sample the same stretch of machine time.
pub type Between<'a> = &'a mut dyn FnMut(f64);

/// Untraced/traced repetition pairs the named pass makes in a traced run;
/// one pair's ratio carries this machine's run-to-run noise.
pub const OVERHEAD_PAIRS: usize = 3;

/// How large a pass is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Size {
    /// The named workload: repetitions until `seconds` of measurement.
    Full { seconds: f64 },
    /// A fixed, small pass of a workload the run is not named after, so
    /// every run reports every metric.
    Reference,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// For a percentile: the key of its samples and the percentile.
    pub of: Option<(&'static str, f64)>,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations attempted (executions, DES events' cells, commits).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The samples behind percentile metrics, by key.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            of: None,
        });
    }

    /// Keeps `samples` under `key`, for [`Outcome::percentile`].
    pub fn samples(&mut self, key: &'static str, samples: Vec<f64>) {
        self.samples.insert(key, samples);
    }

    /// The `p`th percentile of the samples kept under `key`.
    pub fn percentile(&mut self, name: &str, key: &'static str, p: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: percentile(&self.samples[key], p),
            unit,
            of: Some((key, p)),
        });
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Combines passes of one workload: each percentile is taken over the
    /// passes' pooled samples, so a tail rests on all of them, and each
    /// other metric is the median of the passes' values; counts add up
    /// and notes and failures are kept.
    pub fn median_of(parts: Vec<Outcome>) -> Outcome {
        let count = parts.len();
        if count == 1 {
            return parts.into_iter().next().expect("one part");
        }
        let mut out = Outcome::default();
        let mut values: BTreeMap<String, (Vec<f64>, &'static str, _)> = BTreeMap::new();
        for (i, part) in parts.into_iter().enumerate() {
            out.attempted += part.attempted;
            out.failed += part.failed;
            out.failures.extend(part.failures);
            out.notes.extend(
                part.notes
                    .into_iter()
                    .map(|n| format!("({}/{count}) {n}", i + 1)),
            );
            for (key, samples) in part.samples {
                out.samples.entry(key).or_default().extend(samples);
            }
            for m in part.metrics {
                values
                    .entry(m.name)
                    .or_insert((Vec::new(), m.unit, m.of))
                    .0
                    .push(m.value);
            }
        }
        for (name, (v, unit, of)) in values {
            match of {
                Some((key, p)) => out.percentile(&name, key, p, unit),
                None => out.metric(name, median(&v), unit),
            }
        }
        out
    }

    /// Adds the ledger of a traced pass: each layer's self time, the
    /// residual and the wall time, and fails the pass if an expected
    /// layer recorded no span.
    pub fn ledger(&mut self, title: &str, spans: &Spans, ledger: &Ledger, expected: &[Layer]) {
        for layer in expected {
            self.check(spans.has(*layer), || {
                format!("{title}: layer `{}` recorded no span", layer.name())
            });
            let ms = ledger.self_ns(*layer) as f64 / 1e6;
            self.metric(format!("self_ms.{}", layer.name()), ms, "ms");
        }
        self.metric("ledger.residual_ms", ledger.residual_ns as f64 / 1e6, "ms");
        self.metric("ledger.wall_ms", ledger.wall_ns as f64 / 1e6, "ms");
        self.note(ledger.render(title));
    }

    /// Adds the tracing overhead: the median over back-to-back
    /// (untraced, traced) repetition pairs of the traced one's wall time
    /// per operation over the untraced one's.
    pub fn overhead(&mut self, title: &str, pairs: &[(f64, f64)]) {
        let pcts: Vec<f64> = pairs
            .iter()
            .map(|&(untraced, traced)| 100.0 * (traced / untraced - 1.0))
            .collect();
        let pct = median(&pcts);
        self.metric("trace.overhead_pct", pct, "%");
        let each: Vec<String> = pairs
            .iter()
            .zip(&pcts)
            .map(|((u, t), p)| format!("{u:.0} -> {t:.0} ns/op ({p:+.1}%)"))
            .collect();
        self.note(format!(
            "tracing overhead {title}: {pct:+.1}%, median of {} pairs: {}",
            pairs.len(),
            each.join(", ")
        ));
    }
}
