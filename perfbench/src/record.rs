//! The run record: the machine and toolchain a run measured on, and how
//! much of its wall time the benchmark's threads spent on a CPU versus
//! waiting in the run queue. A slow phase of a shared machine shows as a
//! lower on-CPU share or a longer run-queue wait, not as a regression.

use std::sync::Mutex;

/// On-CPU and run-queue nanoseconds of one thread, from
/// `/proc/thread-self/schedstat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStat {
    pub on_cpu_ns: u64,
    pub wait_ns: u64,
}

impl SchedStat {
    pub fn current_thread() -> SchedStat {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let mut fields = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        SchedStat {
            on_cpu_ns: fields.next().unwrap_or(0),
            wait_ns: fields.next().unwrap_or(0),
        }
    }

    pub fn since(self, start: SchedStat) -> SchedStat {
        SchedStat {
            on_cpu_ns: self.on_cpu_ns.saturating_sub(start.on_cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(start.wait_ns),
        }
    }
}

/// Schedstat totals of worker threads the benchmark ran (serve shards),
/// added when each finishes.
static WORKERS: Mutex<SchedStat> = Mutex::new(SchedStat {
    on_cpu_ns: 0,
    wait_ns: 0,
});

/// Adds a finished worker thread's schedstat to the record.
pub fn add_worker(stat: SchedStat) {
    let mut total = WORKERS.lock().expect("schedstat lock poisoned by a panic");
    total.on_cpu_ns += stat.on_cpu_ns;
    total.wait_ns += stat.wait_ns;
}

pub fn workers() -> SchedStat {
    *WORKERS.lock().expect("schedstat lock poisoned by a panic")
}

/// Peak resident set (VmHWM) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds of the whole process, dead threads
/// included (`/proc/self/stat` fields 14 and 15, at 100 ticks/s).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // `rest` starts at field 3 (state), so field n sits at index n - 3.
    (ticks(11) + ticks(12)) / 100.0
}

/// Nanoseconds per iteration of a fixed integer loop: the machine's
/// speed at this moment. A shared machine's slow phases show here even
/// when schedstat sees no waiting.
pub fn cpu_probe_ns() -> f64 {
    const ITERS: u64 = 2_000_000;
    let mut rng = crate::stats::SplitMix::new(1);
    let started = std::time::Instant::now();
    let mut acc = 0u64;
    for _ in 0..ITERS {
        acc ^= std::hint::black_box(rng.next_u64());
    }
    std::hint::black_box(acc);
    started.elapsed().as_nanos() as f64 / ITERS as f64
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn rustc() -> &'static str {
    env!("PERFBENCH_RUSTC")
}
