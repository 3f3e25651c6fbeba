//! Metric names, summary statistics and the one-line JSON result.

use std::collections::BTreeMap;

/// The end-to-end metrics every untraced run prints, with their units.
/// `BENCHMARK.json` lists the same names; `run.py` checks that they agree.
pub const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("gmacs_per_s", "GMAC/s"),
    ("requests_per_s", "1/s"),
    ("resnet18.frame_ms_p50", "ms"),
    ("resnet18.frame_ms_p90", "ms"),
    ("mobilenet.frame_ms_p50", "ms"),
    ("mobilenet.frame_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("failed_ratio", "ratio"),
    ("sim_hard_p99_cycles", "cycles"),
    ("sim_preempt_p99_cycles", "cycles"),
    ("sim_reload_cycles", "cycles"),
];

/// The per-layer metrics every traced run prints. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("compiler.compile_s", "s"),
    ("compiler.instrs", "count"),
    ("func.span_s", "s"),
    ("func.span_calls", "count"),
    ("func.span_accept_ratio", "ratio"),
    ("func.step_s", "s"),
    ("func.step_calls", "count"),
    ("func.conv_kxk.gmacs_per_s", "GMAC/s"),
    ("func.conv_1x1.gmacs_per_s", "GMAC/s"),
    ("func.depthwise.gmacs_per_s", "GMAC/s"),
    ("func.other_s", "s"),
    ("func.plan_warmup_s", "s"),
    ("engine.self_s", "s"),
    ("engine.instrs_retired", "count"),
    ("engine.instrs_per_s", "1/s"),
    ("engine.step_s", "s"),
    ("engine.interrupts", "count"),
    ("engine.vi_materialized", "count"),
    ("engine.advance.barriers", "count"),
    ("engine.advance.wakes", "count"),
    ("engine.advance.skips", "count"),
    ("sched.s", "s"),
    ("sched.pump_calls", "count"),
    ("sched.reloads", "count"),
    ("serve.gateway_s", "s"),
    ("serve.advance_calls", "count"),
    ("serve.batch_mean", "count"),
    ("cluster.submit_s", "s"),
    ("cluster.self_s", "s"),
    ("cluster.skip_ratio", "ratio"),
    ("cluster.cascades", "count"),
    ("cluster.stolen", "count"),
    ("cluster.resizes", "count"),
    ("cluster.warm_ratio", "ratio"),
    ("cluster.model_miss_cycles", "cycles"),
    ("cluster.residency_drift", "ratio"),
    ("dslam.run_s", "s"),
    ("runtime.messages_delivered", "count"),
    ("dslam.frames_per_pr", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one run of one workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (frames, camera frames, requests).
    pub attempted: u64,
    /// Operations that failed: refused, unanswered, wrong, or late.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable findings, printed to stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed check: the run is not correct.
    pub fn fail_check(&mut self, what: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {what}"));
    }

    /// The result line: the metrics of `names` (every one must be set,
    /// except per-layer ones, which default to 0).
    pub fn to_json(&self, names: &[(&str, &str)], zero_missing: bool) -> String {
        let mut parts = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if zero_missing => 0.0,
                None => panic!("workload did not report end-to-end metric {name}"),
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            parts.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            parts.join(", ")
        )
    }
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `pct` (0..=100) of `values`.
pub fn percentile<T: Copy + PartialOrd>(values: &[T], pct: usize) -> T {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("comparable samples"));
    let rank = (pct * v.len()).div_ceil(100).max(1);
    v[rank - 1]
}

/// Laplace's rule-of-succession estimate of the per-attempt failure
/// probability, `(failed + 1) / (attempted + 2)`: close to
/// `failed / attempted` for large counts, and never 0, so that a run
/// without failures still has a ratio a later run can be compared to.
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    (failed as f64 + 1.0) / (attempted as f64 + 2.0)
}

/// A reading of the process's CPU clock (`CLOCK_PROCESS_CPUTIME_ID`): CPU
/// time used by every thread of this process. On a shared host the
/// hypervisor deschedules a vCPU for tens to hundreds of milliseconds at a
/// time; wall time counts those gaps and this clock does not. A reading
/// costs a system call (about 0.4 µs), so it brackets work of a
/// millisecond or more, not single short calls.
#[derive(Debug, Clone, Copy)]
pub struct Cpu(u64);

impl Cpu {
    pub fn now() -> Self {
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux) for the duration of the call.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
        Cpu(ts.sec as u64 * 1_000_000_000 + ts.nsec as u64)
    }

    /// CPU nanoseconds used since this reading.
    pub fn elapsed_ns(self) -> u64 {
        Cpu::now().0.saturating_sub(self.0)
    }

    /// CPU seconds used since this reading.
    pub fn elapsed_s(self) -> f64 {
        self.elapsed_ns() as f64 / 1e9
    }
}

/// The process's peak resident set in MB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a stream of words and bytes: the output digest the checks
/// compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one word into the digest.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
