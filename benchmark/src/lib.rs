//! The Flare simulator's benchmark: three workloads driven through the
//! public API (`FlareSession` / `Collective::run`, `NetSim`,
//! `TrafficEngine`), end-to-end metrics from an untraced pass and
//! per-layer metrics from a separate traced pass. See `NOTES.md` for why
//! each workload exists and which layer metric should move which
//! end-to-end metric.

use std::collections::BTreeMap;
use std::time::Instant;

pub mod dense;
pub mod fleet;
pub mod machine;
pub mod shim;

/// End-to-end metrics `(name, unit)`, reported with `--trace 0`.
pub const E2E: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_goodput_gbps", "Gbit/s"),
    ("iter_p50_us", "sim_us"),
    ("iter_p98_us", "sim_us"),
    ("op_ok_ratio", "ratio"),
];

/// Per-layer metrics `(name, unit)`, reported with `--trace 1`.
pub const LAYER: &[(&str, &str)] = &[
    ("net.run_s", "s"),
    ("net.core_s", "s"),
    ("net.core_ns_per_event", "ns"),
    ("switch_prog.self_s", "s"),
    ("switch_prog.calls", "count"),
    ("switch_prog.ns_per_call", "ns"),
    ("switch_prog.agg_pool_hit_ratio", "ratio"),
    ("switch_prog.byte_pool_hit_ratio", "ratio"),
    ("switch_prog.slab_hit_ratio", "ratio"),
    ("host.self_s", "s"),
    ("host.calls", "count"),
    ("host.ns_per_call", "ns"),
    ("host.wake_calls", "count"),
    ("host.retransmits", "count"),
    ("driver.partitions", "count"),
    ("driver.serial_run_s", "s"),
    ("driver.par_run_s", "s"),
    ("driver.speedup", "ratio"),
    ("driver.program_busy_frac", "ratio"),
    ("session.wire_s", "s"),
    ("session.collect_s", "s"),
    ("traffic.admit_s", "s"),
    ("traffic.run_s", "s"),
    ("traffic.release_s", "s"),
    ("traffic.ns_per_event", "ns"),
    ("traffic.retransmits_per_iter", "ratio"),
    ("telemetry.capture_s", "s"),
    ("telemetry.export_s", "s"),
    ("telemetry.csv_s", "s"),
    ("telemetry.events", "count"),
    ("telemetry.trace_mib", "MiB"),
    ("net.events", "count"),
    ("net.link_packets", "count"),
    ("net.link_bytes", "bytes"),
    ("net.drops", "count"),
    ("net.drop_ratio", "ratio"),
    ("net.hottest_link_util", "ratio"),
    ("hpu.handlers", "count"),
    ("hpu.queued_ratio", "ratio"),
    ("hpu.queue_peak", "count"),
    ("traffic.queueing_p50_us", "sim_us"),
    ("traffic.fairness_jain", "ratio"),
    ("trace.overhead_s", "s"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 128-host dense 8 MiB allreduce, serial driver.
    DenseBulk,
    /// 1024-host dense 128 KiB allreduce, partitioned driver on 2 workers.
    DenseWidePar2,
    /// 32-tenant lossy mixed fleet on the HPU model, telemetry on.
    FleetLossyTraced,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::DenseBulk,
        Workload::DenseWidePar2,
        Workload::FleetLossyTraced,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseBulk => "dense-bulk",
            Workload::DenseWidePar2 => "dense-wide-par2",
            Workload::FleetLossyTraced => "fleet-lossy-traced",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size (what the benchmark measures) or tiny (what its own tests
/// run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `NOTES.md` documents.
    Full,
    /// A few hosts and a few KiB, for tests.
    Tiny,
}

/// How long one run measures.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall-clock budget for the repetitions, in seconds.
    pub seconds: f64,
    /// Repetitions made even when they overrun the budget.
    pub min_reps: usize,
    /// Seconds per repetition spent timing extra set-ups (each built and
    /// torn down), so the `setup_s` median rests on many samples spread
    /// over the whole run.
    pub setup_seconds: f64,
}

/// Time `setup` (one set-up built, timed and torn down; returns its time
/// in seconds) repeatedly for `budget.setup_seconds`, at least once.
pub fn sample_setups(
    budget: &Budget,
    mut setup: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || start.elapsed().as_secs_f64() < budget.setup_seconds {
        times.push(setup()?);
    }
    Ok(times)
}

/// Repeat `rep` until the next repetition would overrun the budget, with
/// at least `budget.min_reps` repetitions after `warmup` untimed ones.
/// `rep` receives the repetition index and whether it is a warm-up, and
/// returns false to stop. Returns the timed repetitions made.
pub fn repeat(budget: &Budget, warmup: usize, mut rep: impl FnMut(usize, bool) -> bool) -> usize {
    let start = Instant::now();
    let mut reps = 0;
    let mut longest = 0.0f64;
    loop {
        let t = Instant::now();
        let go_on = rep(reps, reps < warmup);
        reps += 1;
        longest = longest.max(t.elapsed().as_secs_f64());
        if !go_on {
            break;
        }
        let spent = start.elapsed().as_secs_f64();
        if reps >= warmup + budget.min_reps && spent + longest > budget.seconds {
            break;
        }
    }
    reps.saturating_sub(warmup)
}

/// The simulated fingerprint of a run: model outputs that a change to the
/// simulator's speed alone must reproduce bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint(pub Vec<(&'static str, u64)>);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{k}={v}")?;
        }
        Ok(())
    }
}

/// What one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines (fingerprints, sample counts, failures).
    pub lines: Vec<String>,
}

impl Outcome {
    /// Count `ops` operations, of which `bad` failed; `what` names them
    /// in the failure line.
    pub fn check(&mut self, ops: u64, bad: u64, what: &str) {
        self.attempted += ops;
        self.failed += bad;
        if bad > 0 {
            self.lines
                .push(format!("FAILED: {bad} of {ops} operation(s): {what}"));
        }
    }

    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Count one comparison of a simulated fingerprint against the one
    /// it must reproduce.
    pub fn check_fingerprint(&mut self, got: &Fingerprint, want: &Fingerprint, what: &str) {
        self.check(1, u64::from(got != want), what);
        if got != want {
            self.note(format!(
                "FINGERPRINT MISMATCH ({what}): got {got}, want {want}"
            ));
        }
    }

    /// Add a human-readable line.
    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Whether every check passed and at least one was made.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of `table` in table order.
    ///
    /// A failed run reports 0 for what it did not measure.
    ///
    /// # Panics
    /// Panics if a correct run did not measure a metric of `table`, or a
    /// value is not finite — a benchmark bug, never an input condition.
    pub fn json(&self, table: &[(&'static str, &'static str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let v = match self.metrics.get(name) {
                    Some(&v) => v,
                    // A failed run may stop before measuring everything.
                    None if !self.correct() => 0.0,
                    None => panic!("metric {name} was not measured"),
                };
                assert!(v.is_finite(), "metric {name} is not finite: {v}");
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0 (a ratio over work that did not happen).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The samples behind a median, printed beside it so the spread shows.
pub fn samples(xs: &[f64]) -> String {
    let v: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    format!("[{}]", v.join(" "))
}

/// Run `workload` with inputs from `seed`, measuring for `budget`:
/// end-to-end metrics when `trace` is false, per-layer metrics when true.
pub fn run(workload: Workload, seed: u64, budget: &Budget, trace: bool, scale: Scale) -> Outcome {
    let mut out = match workload {
        Workload::DenseBulk | Workload::DenseWidePar2 => {
            dense::run(&dense::DenseCfg::new(workload, scale), seed, budget, trace)
        }
        Workload::FleetLossyTraced => fleet::run(&fleet::FleetCfg::new(scale), seed, budget, trace),
    };
    if trace {
        // A layer the workload does not exercise reports 0.
        for &(name, _) in LAYER {
            out.metrics.entry(name).or_insert(0.0);
        }
    } else {
        out.set("peak_rss_mib", machine::peak_rss_mib());
        out.set(
            "op_ok_ratio",
            ratio((out.attempted - out.failed) as f64, out.attempted as f64),
        );
    }
    out
}
