//! Machine-speed calibration for the CPU-bound end-to-end timings.
//!
//! On a shared host each CPU runs fast or up to 35% slower in phases
//! that last from seconds to minutes, and the program's timings follow
//! it: the median of a 15-second run depends on the share of the run
//! that fell in slow phases. So an untraced run keeps the whole process
//! on one CPU ([`pin_to_current_cpu`]), cuts each repetition into slices
//! of equal work, and times a fixed calibration kernel ([`reading`]) at
//! every slice boundary, outside the slices. Each slice's time is
//! reported at the reference speed of [`REFERENCE_NS`] per kernel
//! operation: multiplied by `REFERENCE_NS` over the mean of the readings
//! at its two ends. Timings that wait on timers (Raft) are not scaled,
//! and their repetitions run on every CPU ([`unpinned`]).

use std::sync::OnceLock;
use std::time::Instant;

/// The reference speed: ns per calibration-kernel operation, about what
/// the 2-core Intel Xeon VM the benchmark was written on reads in its
/// fast phases.
pub const REFERENCE_NS: f64 = 200.0;

/// Operations per reading: about a millisecond.
const OPS: u64 = 4_000;

/// Times the calibration kernel: `OPS` map updates under formatted keys,
/// then a sort of the values. Allocation, formatting, ordered-map and
/// sorting work, like the program's, and no call into it, so a change to
/// the program does not change the kernel. Returns ns per operation.
pub fn reading() -> f64 {
    let started = Instant::now();
    let mut map = std::collections::BTreeMap::new();
    for i in 0..OPS {
        let key = format!("kernel-{}", i.wrapping_mul(0x9E37_79B9) % 1_000);
        *map.entry(key).or_insert(0u64) += i;
    }
    let mut values: Vec<u64> = map.into_values().collect();
    values.sort_unstable();
    std::hint::black_box(values);
    started.elapsed().as_nanos() as f64 / OPS as f64
}

/// Runs `setup`, which returns seconds, between two readings and scales
/// its result to the reference speed.
pub fn setup(setup: impl FnOnce() -> f64) -> f64 {
    let before = reading();
    let seconds = setup();
    seconds * REFERENCE_NS / ((before + reading()) / 2.0)
}

/// One repetition's wall time in slices of equal work, with a reading
/// taken at each boundary.
#[derive(Debug, Default)]
pub struct Slices {
    /// Per closed slice: wall ns and the reference speed over the mean of
    /// its two readings.
    closed: Vec<(u64, f64)>,
    /// The open slice's start and the reading taken there.
    open: Option<(u64, f64)>,
}

impl Slices {
    /// Closes the open slice at `now()`, takes a reading and opens the
    /// next slice after it, so no slice contains a reading.
    pub fn boundary(&mut self, now: impl Fn() -> u64) {
        let end = now();
        let r = reading();
        if let Some((start, r0)) = self.open {
            self.closed
                .push((end - start, REFERENCE_NS * 2.0 / (r0 + r)));
        }
        self.open = Some((now(), r));
    }

    pub fn len(&self) -> usize {
        self.closed.len()
    }

    /// Slice `k`'s factor to the reference speed; a sample past the last
    /// closed slice takes the last one's.
    pub fn scale(&self, k: usize) -> f64 {
        self.closed
            .get(k.min(self.closed.len().saturating_sub(1)))
            .map_or(1.0, |&(_, s)| s)
    }

    /// Closed slices' total time at the reference speed, ns.
    pub fn scaled_ns(&self) -> f64 {
        self.closed.iter().map(|&(ns, s)| ns as f64 * s).sum()
    }
}

/// Work per second at the reference speed over the closed slices of
/// `reps`, `per_slice` units of work each.
pub fn rate<'a>(reps: impl IntoIterator<Item = &'a Slices>, per_slice: u64) -> f64 {
    let (slices, ns) = reps
        .into_iter()
        .fold((0, 0.0), |(n, ns), s| (n + s.len(), ns + s.scaled_ns()));
    (per_slice * slices as u64) as f64 / (ns.max(1.0) / 1e9)
}

/// Samples tagged with their slice, scaled to the reference speed.
pub fn scaled<'a>(
    slices: &'a Slices,
    tagged: &'a [(usize, f64)],
) -> impl Iterator<Item = f64> + 'a {
    tagged.iter().map(move |&(k, v)| v * slices.scale(k))
}

/// A CPU set as the kernel's affinity calls take it: up to 1024 CPUs.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU set before and after pinning.
static MASKS: OnceLock<(CpuMask, CpuMask)> = OnceLock::new();

fn set_affinity(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is live for the call and its size in bytes is passed
    // with it; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

/// Restricts this thread, and every thread it starts afterwards, to the
/// CPU it is running on, so the calibration readings and the work they
/// scale share one CPU's speed. Returns the CPU, or `None` if the kernel
/// refused.
pub fn pin_to_current_cpu() -> Option<usize> {
    let mut all: CpuMask = [0; 16];
    // SAFETY: as in `set_affinity`, with `all` written by the kernel.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&all), all.as_mut_ptr()) };
    // SAFETY: `sched_getcpu` takes no arguments and only reads.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut one: CpuMask = [0; 16];
    *one.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    if got < 0 || !set_affinity(&one) {
        return None;
    }
    MASKS.set((all, one)).ok()?;
    Some(cpu)
}

/// Runs `f` on every CPU the process had before pinning, threads it
/// starts included, then pins again. For timings that wait on timers,
/// which are not calibrated: three Raft node threads and a client on one
/// CPU miss heartbeats together when that CPU is slow.
pub fn unpinned<T>(f: impl FnOnce() -> T) -> T {
    let Some((all, one)) = MASKS.get() else {
        return f();
    };
    set_affinity(all);
    let out = f();
    set_affinity(one);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn slices_exclude_readings_and_scale_by_them() {
        let clock = Cell::new(0u64);
        let clock = &clock;
        let tick = |step: u64| {
            move || {
                clock.set(clock.get() + step);
                clock.get()
            }
        };
        let mut s = Slices::default();
        s.boundary(tick(0));
        assert_eq!(s.len(), 0);
        s.boundary(tick(500));
        s.boundary(tick(500));
        assert_eq!(s.len(), 2);
        // Each slice ran 500 ns; its factor is positive and finite.
        let k = s.scale(0);
        assert!(k.is_finite() && k > 0.0);
        assert_eq!(s.scale(9), s.scale(1));
        assert!((s.scaled_ns() - 500.0 * (s.scale(0) + s.scale(1))).abs() < 1e-6);
        let tagged = [(0, 2.0), (5, 3.0)];
        let v: Vec<f64> = scaled(&s, &tagged).collect();
        assert_eq!(v, vec![2.0 * s.scale(0), 3.0 * s.scale(1)]);
    }
}
