//! Exact outputs recorded for the default seed. Any other seed is
//! checked only against the invariants.

pub const DEFAULT_SEED: u64 = 2026;

/// The deterministic outputs of one DES run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesReference {
    pub events: u64,
    pub executions: u64,
    pub interactivity_p50_ms: f64,
    pub interactivity_p99_ms: f64,
    pub gpu_hours_saved: f64,
}

impl DesReference {
    /// The outputs as bits, for bit-exact comparison.
    pub fn bits(&self) -> [u64; 5] {
        [
            self.events,
            self.executions,
            self.interactivity_p50_ms.to_bits(),
            self.interactivity_p99_ms.to_bits(),
            self.gpu_hours_saved.to_bits(),
        ]
    }
}

/// DES outputs of `summer_90d` under the NotebookOS evaluation
/// configuration at the default seed.
pub const DES_SUMMER: DesReference = DesReference {
    events: 1_377_362,
    executions: 555_662,
    interactivity_p50_ms: 129.539,
    interactivity_p99_ms: 596.237_530_000_000_3,
    gpu_hours_saved: 426_450.282_286_294_97,
};

/// Fingerprint of the serve report's counters and logical latency
/// multiset at the default seed, by trace scale.
pub fn serve_fingerprint(scale: usize) -> Option<u64> {
    match scale {
        10 => Some(0xb1be_0bd9_8441_66e8),
        1 => Some(0x9a2b_ca7d_1e54_7e1f),
        _ => None,
    }
}

/// Fingerprint of exec-loop's completion order and virtual completion
/// times at the default seed, by executions per repetition.
pub fn exec_loop_fingerprint(executions: u64) -> Option<u64> {
    match executions {
        20_000 => Some(0x4cfd_a220_7777_ea88),
        5_000 => Some(0x6027_f037_dc11_f1ce),
        _ => None,
    }
}
