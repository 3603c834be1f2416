//! The fleet workload: a lossy mixed dense/sparse tenant population on the
//! HPU switch model, driven by `TrafficEngine` with telemetry capture on
//! and the Chrome trace exported after every run.
//!
//! The engine's programs are internal, so its layers are timed at the
//! public boundaries (`add_tenant`, `run`, `release_all`, `chrome_trace`,
//! `utilization_csv`); a capture-off twin with the same seed gives the
//! capture cost.

use std::collections::BTreeMap;
use std::time::Instant;

use flare_core::session::{FlareSession, RunReport};
use flare_net::telemetry::validate_chrome_trace;
use flare_net::{HpuParams, LinkSpec, PartitionPlan, SwitchModel, TelemetryConfig, Topology};
use flare_workloads::{ArrivalProcess, TenantSpec, TrafficEngine, TrafficError};

use crate::dense::hottest_link_util;
use crate::shim::pool_ratios;
use crate::{median, ratio, repeat, sample_setups, samples, Budget, Fingerprint, Outcome, Scale};

/// Poisson job arrivals per tenant.
const JOBS: usize = 2;
/// Mean job interarrival time, ns.
const INTERARRIVAL_NS: f64 = 20_000.0;
/// Mean compute phase between iterations, ns, and its relative jitter.
const COMPUTE_NS: u64 = 5_000;
const JITTER: f64 = 0.2;
/// Density of the sparse (odd-numbered) tenants.
const DENSITY: f64 = 0.2;
/// Drop probability on every link.
const DROP_PROB: f64 = 0.05;
/// Host retransmission timeout, ns.
const RETRANSMIT_NS: u64 = 200_000;

/// Shape of the fleet workload.
#[derive(Debug, Clone, Copy)]
pub struct FleetCfg {
    /// Leaf switches.
    pub leaves: usize,
    /// Hosts per leaf.
    pub per_leaf: usize,
    /// Spine switches.
    pub spines: usize,
    /// Tenants; odd-numbered ones are sparse.
    pub tenants: usize,
    /// f32 elements per tenant allreduce.
    pub elems: usize,
    /// Allreduce iterations per job.
    pub iterations: usize,
    /// Engine seeds derived from the run's seed; one epoch runs per seed.
    pub epochs: u64,
}

impl FleetCfg {
    /// The fleet at `scale`.
    pub fn new(scale: Scale) -> Self {
        let (leaves, per_leaf, spines, tenants, elems, iterations, epochs) = match scale {
            Scale::Full => (2, 4, 2, 32, 16384, 8, 6),
            Scale::Tiny => (2, 2, 2, 4, 1024, 2, 2),
        };
        Self {
            leaves,
            per_leaf,
            spines,
            tenants,
            elems,
            iterations,
            epochs,
        }
    }

    /// Iterations the whole fleet must complete.
    pub fn total_iterations(&self) -> u64 {
        (self.tenants * JOBS * self.iterations) as u64
    }

    /// The tenant population handed to the engine.
    pub fn specs(&self) -> Vec<TenantSpec> {
        (0..self.tenants)
            .map(|i| {
                let spec = TenantSpec::new(format!("tenant-{i}"), self.elems)
                    .iterations(self.iterations)
                    .compute(COMPUTE_NS, JITTER)
                    .arrivals(ArrivalProcess::Poisson {
                        mean_interarrival_ns: INTERARRIVAL_NS,
                        jobs: JOBS,
                    });
                if i % 2 == 1 {
                    spec.sparse(DENSITY)
                } else {
                    spec
                }
            })
            .collect()
    }

    /// Topology and session; `capture` turns telemetry on.
    pub fn session(&self, seed: u64, capture: bool) -> FlareSession {
        let (topo, ft) = Topology::fat_tree_two_level(
            self.leaves,
            self.per_leaf,
            self.spines,
            LinkSpec::hundred_gig(),
        );
        let mut builder = FlareSession::builder(topo)
            .hosts(ft.hosts)
            .seed(seed)
            .switch_model(SwitchModel::Hpu(HpuParams::paper()))
            .link_drop_prob(DROP_PROB)
            .retransmit_after(Some(RETRANSMIT_NS));
        if capture {
            builder = builder.telemetry(TelemetryConfig::default());
        }
        builder.build()
    }
}

/// One engine epoch, timed at the public boundaries.
pub struct FleetRun {
    /// Topology, session, engine and tenant admission, s.
    pub setup_s: f64,
    /// The `add_tenant` calls alone, s.
    pub admit_s: f64,
    /// `TrafficEngine::run`, s.
    pub run_s: f64,
    /// `chrome_trace` (0 with capture off), s.
    pub export_s: f64,
    /// `utilization_csv` (0 unless asked for), s.
    pub csv_s: f64,
    /// `release_all`, s.
    pub release_s: f64,
    /// The engine's report, its telemetry capture taken out.
    pub report: RunReport,
    /// The exported Chrome trace (capture on only).
    pub trace_json: Option<String>,
    /// Busiest-link utilization over the run.
    pub hottest: f64,
    /// Partitions the parallel driver would cut this topology into.
    pub partitions: usize,
}

impl FleetRun {
    /// The untraced pass's wall time: run plus trace export.
    pub fn wall_s(&self) -> f64 {
        self.run_s + self.export_s
    }
}

/// Set up and run one epoch; `csv` also times `utilization_csv`.
pub fn fleet_run(
    cfg: &FleetCfg,
    seed: u64,
    capture: bool,
    csv: bool,
) -> Result<FleetRun, TrafficError> {
    let specs = cfg.specs();
    let t = Instant::now();
    let mut session = cfg.session(seed, capture);
    let mut engine = TrafficEngine::new(&mut session, seed);
    let ta = Instant::now();
    for spec in specs {
        engine.add_tenant(spec)?;
    }
    let admit_s = ta.elapsed().as_secs_f64();
    let setup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut report = engine.run()?;
    let run_s = t.elapsed().as_secs_f64();
    // The capture is exported here and dropped, so a kept report does not
    // hold it.
    let capture = report.trace.take();
    let t = Instant::now();
    let trace_json = capture.as_ref().map(|tr| tr.chrome_trace());
    let export_s = t.elapsed().as_secs_f64();
    let mut csv_s = 0.0;
    if let (true, Some(tr)) = (csv, &capture) {
        let t = Instant::now();
        std::hint::black_box(tr.utilization_csv());
        csv_s = t.elapsed().as_secs_f64();
    }
    drop(capture);
    let t = Instant::now();
    engine.release_all()?;
    let release_s = t.elapsed().as_secs_f64();
    drop(engine);

    let topo = session.topology();
    Ok(FleetRun {
        setup_s,
        admit_s,
        run_s,
        export_s,
        csv_s,
        release_s,
        hottest: hottest_link_util(&report.net, topo, report.net.makespan),
        partitions: PartitionPlan::build(topo).parts,
        report,
        trace_json,
    })
}

/// The fleet fingerprint: makespan, events, link bytes, drops,
/// retransmits and an FNV-1a digest of every tenant's iteration makespans.
pub fn fingerprint(report: &RunReport) -> Fingerprint {
    let tenants = report.tenants.as_ref().map_or(&[][..], |s| &s.tenants[..]);
    let mut digest: u64 = 0xCBF2_9CE4_8422_2325;
    for t in tenants {
        for &m in t.iteration_makespans_ns.iter().chain([u64::MAX].iter()) {
            for b in m.to_le_bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
            }
        }
    }
    Fingerprint(vec![
        ("makespan_ns", report.net.makespan),
        ("events", report.net.events),
        ("link_bytes", report.net.total_link_bytes),
        ("drops", report.net.drops),
        ("retransmits", tenants.iter().map(|t| t.retransmits).sum()),
        ("iter_digest", digest),
    ])
}

/// Pooled iteration makespans of every tenant, sorted.
fn pooled_iterations(report: &RunReport) -> Vec<u64> {
    let mut v: Vec<u64> = report
        .tenants
        .iter()
        .flat_map(|s| &s.tenants)
        .flat_map(|t| t.iteration_makespans_ns.iter().copied())
        .collect();
    v.sort_unstable();
    v
}

/// Nearest-rank percentile `p` (0..=1) of sorted samples.
fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let k = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[k - 1]
}

/// Count the run's operations: every expected iteration, plus the trace
/// validation. Returns the number of events the trace holds.
fn check_run(cfg: &FleetCfg, run: &FleetRun, out: &mut Outcome) -> usize {
    let done: u64 = run
        .report
        .tenants
        .iter()
        .flat_map(|s| &s.tenants)
        .map(|t| (t.iterations_completed as u64).min((JOBS * cfg.iterations) as u64))
        .sum();
    let want = cfg.total_iterations();
    out.check(want, want - done, "tenant iterations not completed");
    match &run.trace_json {
        Some(json) => match validate_chrome_trace(json) {
            Ok(events) => {
                out.check(1, 0, "");
                events
            }
            Err(e) => {
                out.check(1, 1, &format!("chrome trace invalid: {e}"));
                0
            }
        },
        None => 0,
    }
}

/// Run the fleet workload for `budget`. Repetitions cycle through
/// `cfg.epochs` engine seeds derived from `seed`; the simulated metrics
/// combine the first epoch of each engine seed.
pub fn run(cfg: &FleetCfg, seed: u64, budget: &Budget, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let epoch_seeds: Vec<u64> = (0..cfg.epochs)
        .map(|k| seed.wrapping_mul(cfg.epochs).wrapping_add(k))
        .collect();
    let time_setup = || {
        let specs = cfg.specs();
        let t = Instant::now();
        let mut session = cfg.session(epoch_seeds[0], true);
        let mut engine = TrafficEngine::new(&mut session, epoch_seeds[0]);
        for spec in specs {
            engine
                .add_tenant(spec)
                .map_err(|e| format!("add_tenant: {e}"))?;
        }
        let s = t.elapsed().as_secs_f64();
        engine
            .release_all()
            .map_err(|e| format!("release_all: {e}"))?;
        Ok(s)
    };
    let mut setups = Vec::new();
    let all = cfg.total_iterations() + 1;
    let mut firsts: Vec<Option<(Fingerprint, FleetRun)>> =
        epoch_seeds.iter().map(|_| None).collect();
    let mut walls = Vec::new();
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    // The simulated metrics need every epoch seed run once.
    let budget = Budget {
        min_reps: if trace {
            budget.min_reps
        } else {
            budget.min_reps.max(epoch_seeds.len())
        },
        ..*budget
    };
    // The untraced pass discards one warm-up repetition; in the traced
    // pass the plain epoch warms up each traced one.
    let reps = repeat(&budget, usize::from(!trace), |rep, warmup| {
        // The traced pass stays on the first epoch seed, so its simulated
        // counters are one epoch's and repeat exactly.
        let k = if trace { 0 } else { rep % epoch_seeds.len() };
        match sample_setups(&budget, time_setup) {
            Ok(times) if !warmup => setups.extend(times),
            Ok(_) => {}
            Err(e) => {
                out.check(1, 1, &e);
                return false;
            }
        }
        let epoch_seed = epoch_seeds[k];
        let mut plain = match fleet_run(cfg, epoch_seed, true, false) {
            Ok(r) => r,
            Err(e) => {
                out.check(all, all, &format!("TrafficEngine: {e}"));
                return false;
            }
        };
        check_run(cfg, &plain, &mut out);
        // Free the exported trace before the next epoch allocates its own.
        plain.trace_json = None;
        let fp = fingerprint(&plain.report);
        let want = match &firsts[k] {
            Some((want, _)) => want.clone(),
            None => fp.clone(),
        };
        out.check_fingerprint(&fp, &want, "epoch differs from its first run");
        if !warmup {
            setups.push(plain.setup_s);
            walls.push(plain.wall_s());
        }
        if trace {
            match traced_rep(cfg, epoch_seed, &plain, &want, &mut out) {
                Ok(sample) => {
                    for (name, v) in sample {
                        layers.entry(name).or_default().push(v);
                    }
                }
                Err(e) => {
                    out.check(all, all, &format!("traced TrafficEngine: {e}"));
                    return false;
                }
            }
        }
        if firsts[k].is_none() {
            firsts[k] = Some((fp, plain));
        }
        true
    });
    for (k, first) in firsts.iter().enumerate() {
        if let Some((fp, _)) = first {
            out.note(format!("fingerprint epoch_seed={}: {fp}", epoch_seeds[k]));
        }
    }
    out.note(format!(
        "driver=serial reps={reps} wall_s samples {} setup_samples={}",
        samples(&walls),
        setups.len()
    ));
    if trace {
        for (name, v) in &layers {
            out.set(name, median(v));
        }
        out.note(format!(
            "trace: per-layer values are medians over {reps} traced epoch(s) of epoch_seed={}; \
             pool hit ratios are host-dependent counters outside the determinism contract",
            epoch_seeds[0]
        ));
        return out;
    }
    let epochs: Vec<&FleetRun> = firsts.iter().flatten().map(|(_, r)| r).collect();
    if epochs.len() < epoch_seeds.len() {
        return out;
    }
    // Each epoch's p50 and its highest percentile with at least ten
    // samples beyond it (p98 of 512), averaged over the epochs: iteration
    // makespans cluster at whole retransmit timeouts, and a pooled
    // percentile flips between clusters from one seed to the next.
    let per_epoch: Vec<Vec<u64>> = epochs
        .iter()
        .map(|r| pooled_iterations(&r.report))
        .collect();
    let tails: Vec<u64> = per_epoch
        .iter()
        .map(|v| v.get(v.len().saturating_sub(11)).copied().unwrap_or(0))
        .collect();
    let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / xs.len() as f64;
    let p50s: Vec<u64> = per_epoch.iter().map(|v| nearest_rank(v, 0.5)).collect();
    let n: usize = per_epoch.iter().map(Vec::len).sum();
    let bits = (n * cfg.elems * 4 * 8) as f64;
    let makespans: u64 = epochs.iter().map(|r| r.report.net.makespan).sum();
    out.set("wall_s", median(&walls));
    out.set("setup_s", median(&setups));
    out.set("sim_goodput_gbps", ratio(bits, makespans as f64));
    out.set("iter_p50_us", mean(&p50s) / 1e3);
    out.set("iter_p98_us", mean(&tails) / 1e3);
    out.note(format!(
        "iter_p98_us is the mean over {} epochs of each epoch's {:.2}th percentile \
         ({} samples, 10 beyond it): {tails:?} ns",
        epochs.len(),
        100.0 * per_epoch[0].len().saturating_sub(10) as f64 / per_epoch[0].len().max(1) as f64,
        per_epoch[0].len(),
    ));
    out
}

/// One traced repetition: a timed epoch that also exports the CSV, and a
/// capture-off twin with the same seed, both checked against the plain
/// epoch's fingerprint. Returns per-layer samples.
fn traced_rep(
    cfg: &FleetCfg,
    seed: u64,
    plain: &FleetRun,
    want: &Fingerprint,
    out: &mut Outcome,
) -> Result<Vec<(&'static str, f64)>, TrafficError> {
    let traced = fleet_run(cfg, seed, true, true)?;
    let trace_events = check_run(cfg, &traced, out);
    out.check_fingerprint(&fingerprint(&traced.report), want, "traced epoch vs plain");
    let trace_mib = traced
        .trace_json
        .as_ref()
        .map_or(0.0, |j| j.len() as f64 / (1 << 20) as f64);
    let traced_wall = traced.wall_s();
    drop(traced.trace_json);
    let twin = fleet_run(cfg, seed, false, false)?;
    out.check_fingerprint(
        &fingerprint(&twin.report),
        want,
        "capture-off twin vs plain",
    );

    let report = &traced.report;
    let section = report.tenants.as_ref();
    let tenants = section.map_or(&[][..], |s| &s.tenants[..]);
    let retransmits: u64 = tenants.iter().map(|t| t.retransmits).sum();
    let iterations: usize = tenants.iter().map(|t| t.iterations_completed).sum();
    let mut queueing: Vec<u64> = tenants
        .iter()
        .flat_map(|t| t.queueing_delays_ns.iter().copied())
        .collect();
    queueing.sort_unstable();
    let (agg, byte, slab) =
        section.map_or((0.0, 0.0, 0.0), |s| pool_ratios(&s.fabric.switch_pools));
    let hpu = section.map_or(&[][..], |s| &s.fabric.hpu[..]);
    let handlers: u64 = hpu.iter().map(|h| h.stats.handlers).sum();
    let queued: u64 = hpu.iter().map(|h| h.stats.queued).sum();
    let queue_peak = hpu.iter().map(|h| h.stats.queue_peak).max().unwrap_or(0);
    let events = report.net.events as f64;
    Ok(vec![
        ("switch_prog.agg_pool_hit_ratio", agg),
        ("switch_prog.byte_pool_hit_ratio", byte),
        ("switch_prog.slab_hit_ratio", slab),
        ("host.retransmits", retransmits as f64),
        ("driver.partitions", traced.partitions as f64),
        ("driver.serial_run_s", traced.run_s),
        ("traffic.admit_s", traced.admit_s),
        ("traffic.run_s", traced.run_s),
        ("traffic.release_s", traced.release_s),
        ("traffic.ns_per_event", ratio(traced.run_s * 1e9, events)),
        (
            "traffic.retransmits_per_iter",
            ratio(retransmits as f64, iterations as f64),
        ),
        ("telemetry.capture_s", traced.run_s - twin.run_s),
        ("telemetry.export_s", traced.export_s),
        ("telemetry.csv_s", traced.csv_s),
        ("telemetry.events", trace_events as f64),
        ("telemetry.trace_mib", trace_mib),
        ("net.events", events),
        ("net.link_packets", report.net.total_link_packets as f64),
        ("net.link_bytes", report.net.total_link_bytes as f64),
        ("net.drops", report.net.drops as f64),
        (
            "net.drop_ratio",
            ratio(
                report.net.drops as f64,
                report.net.total_link_packets as f64,
            ),
        ),
        ("net.hottest_link_util", traced.hottest),
        ("hpu.handlers", handlers as f64),
        ("hpu.queued_ratio", ratio(queued as f64, handlers as f64)),
        ("hpu.queue_peak", queue_peak as f64),
        (
            "traffic.queueing_p50_us",
            nearest_rank(&queueing, 0.5) as f64 / 1e3,
        ),
        (
            "traffic.fairness_jain",
            section.map_or(0.0, |s| s.fabric.fairness_jain),
        ),
        ("trace.overhead_s", traced_wall - plain.wall_s()),
    ])
}
