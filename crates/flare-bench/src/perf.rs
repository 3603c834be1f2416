//! Wall-clock performance harness for the simulator datapath.
//!
//! Unlike the figure modules (which reproduce *simulated* results), this
//! module measures how fast the simulator itself runs: a fixed scenario
//! matrix (dense/sparse × star/fat-tree × 8/32 hosts × 128 KiB/8 MiB per
//! host) is executed end-to-end through [`flare_core::FlareSession`] and
//! each cell records wall time, simulator events per second and
//! nanoseconds of host time per input element. The `perf` binary writes
//! the rows as `BENCH_*.json`, giving every PR a trajectory to beat.

use std::time::Instant;

use flare_core::op::Sum;
use flare_core::report::TailStats;
use flare_core::session::FlareSession;
use flare_net::{HpuParams, LinkSpec, NodeId, SwitchModel, TelemetryConfig, Topology};
use flare_workloads::traffic::{ArrivalProcess, TenantSpec, TrafficEngine};

/// Dense or sparse allreduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Dense f32 allreduce.
    Dense,
    /// Sparse f32 allreduce at ~1% density.
    Sparse,
}

impl Mode {
    /// Lower-case label used in JSON rows.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Dense => "dense",
            Mode::Sparse => "sparse",
        }
    }
}

/// Topology shape of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoKind {
    /// Single switch, every host attached to it.
    Star,
    /// Two-level fat tree (leaf/spine).
    FatTree,
}

impl TopoKind {
    /// Lower-case label used in JSON rows.
    pub fn label(self) -> &'static str {
        match self {
            TopoKind::Star => "star",
            TopoKind::FatTree => "fat_tree",
        }
    }
}

/// One cell of the scenario matrix.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Dense or sparse datapath.
    pub mode: Mode,
    /// Network shape.
    pub topo: TopoKind,
    /// Participating hosts.
    pub hosts: usize,
    /// Payload bytes per host (f32 elements × 4).
    pub bytes_per_host: usize,
    /// Timed repetitions; the fastest is reported.
    pub reps: usize,
    /// Per-link drop probability (0.0 = lossless). Lossy cells pair it
    /// with the default retransmission timeout and carry a `/lossN%`
    /// name suffix, so they never collide with the tracked lossless
    /// baseline rows. Combined with `tenants > 0` the suffix reads
    /// `/trafficN/lossM%`: the traffic engine drives a mixed
    /// dense/sparse fleet whose inner retransmission timers multiplex
    /// through the flow-tag namespace.
    pub drop_prob: f64,
    /// Run the switches under `SwitchModel::Hpu(HpuParams::paper())`
    /// instead of the calibrated serial rate limiter. Hpu cells carry a
    /// `/hpu` name suffix: their makespans legitimately differ from the
    /// serial-pipeline baseline rows, so they must never match one.
    pub hpu: bool,
    /// Tenants driven through the multi-tenant traffic engine (0 = a
    /// plain single-collective cell). Traffic cells carry a `/trafficN`
    /// name suffix so their (multi-tenant) makespans never match a
    /// single-collective lossless baseline row of the same shape, and
    /// their rows additionally record pooled p50/p99 iteration tails.
    pub tenants: usize,
    /// Worker threads for the partitioned parallel driver (0 = the
    /// serial batched driver). Parallel cells carry a `/parN` name
    /// suffix: their makespans are bitwise-identical to serial (the
    /// driver's determinism contract) but their wall numbers measure a
    /// different code path, so they stay out of the serial cells'
    /// lossless baseline match and are tracked against each other
    /// instead. Traffic cells hand it to the session, whose engine runs
    /// every epoch on the same driver.
    pub threads: usize,
    /// Run with fabric telemetry capture enabled
    /// ([`flare_net::TelemetryConfig::default`]). Trace cells carry a
    /// `/trace` name suffix: their makespans are bit-identical to the
    /// plain twin (capture never perturbs the schedule) but their wall
    /// numbers measure the instrumented datapath, so the twin pair is the
    /// telemetry-overhead record.
    pub trace: bool,
}

impl Scenario {
    /// f32 elements per host.
    pub fn elems(&self) -> usize {
        self.bytes_per_host / 4
    }

    /// Short `dense/fat_tree/8h/128KiB`-style name (traffic cells append
    /// `/trafficN`, lossy cells `/lossN%` — so a lossy traffic cell reads
    /// `/trafficN/lossM%` — multi-core compute cells `/hpu`,
    /// parallel-driver cells `/parN`).
    pub fn name(&self) -> String {
        let mut name = format!(
            "{}/{}/{}h/{}",
            self.mode.label(),
            self.topo.label(),
            self.hosts,
            size_label(self.bytes_per_host as u64)
        );
        if self.tenants > 0 {
            name.push_str(&format!("/traffic{}", self.tenants));
        }
        if self.drop_prob > 0.0 {
            name.push_str(&format!(
                "/loss{}%",
                (self.drop_prob * 100.0).round() as u32
            ));
        }
        if self.hpu {
            name.push_str("/hpu");
        }
        if self.threads > 0 {
            name.push_str(&format!("/par{}", self.threads));
        }
        if self.trace {
            name.push_str("/trace");
        }
        name
    }
}

/// Measured results of one scenario cell.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The cell that was run.
    pub scenario: Scenario,
    /// Fastest wall time across repetitions, in milliseconds.
    pub wall_ms: f64,
    /// Simulator events processed in the timed run.
    pub events: u64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Host-time nanoseconds per input element (hosts × elems).
    pub ns_per_element: f64,
    /// Simulated completion time (ns) — a correctness anchor: datapath
    /// optimizations must leave simulated time unchanged.
    pub makespan_ns: u64,
    /// Simulated link traffic (bytes, each hop counted).
    pub total_link_bytes: u64,
    /// Pooled per-iteration makespan median across all tenants, ns
    /// (`None` for single-collective cells).
    pub p50_ns: Option<u64>,
    /// Pooled per-iteration makespan 99th percentile, ns (`None` for
    /// single-collective cells).
    pub p99_ns: Option<u64>,
}

/// The full tracked matrix: dense/sparse × star/fat-tree × 8/32 hosts ×
/// 128 KiB/8 MiB, plus the Canary/Swing-scale fat-tree sweep (dense ×
/// 128/256 hosts — affordable since the ladder event queue). 8 MiB cells
/// take the best of 2, small cells the best of 3; the 8 MiB *scale* rows
/// run once (a 256-host rep is ~8 s — treat their wall numbers as
/// single-sample).
pub fn matrix() -> Vec<Scenario> {
    let mut out = Vec::new();
    for mode in [Mode::Dense, Mode::Sparse] {
        for topo in [TopoKind::Star, TopoKind::FatTree] {
            for hosts in [8usize, 32] {
                for bytes in [128 * 1024usize, 8 * 1024 * 1024] {
                    let reps = if bytes <= 128 * 1024 { 3 } else { 2 };
                    out.push(Scenario {
                        mode,
                        topo,
                        hosts,
                        bytes_per_host: bytes,
                        reps,
                        drop_prob: 0.0,
                        hpu: false,
                        tenants: 0,
                        threads: 0,
                        trace: false,
                    });
                }
            }
        }
    }
    // Scale rows: the host counts Canary and Swing evaluate at, plus a
    // 1024-host row that only became affordable with the parallel driver.
    for hosts in [128usize, 256] {
        for bytes in [128 * 1024usize, 8 * 1024 * 1024] {
            out.push(Scenario {
                mode: Mode::Dense,
                topo: TopoKind::FatTree,
                hosts,
                bytes_per_host: bytes,
                reps: if bytes <= 128 * 1024 { 3 } else { 1 },
                drop_prob: 0.0,
                hpu: false,
                tenants: 0,
                threads: 0,
                trace: false,
            });
        }
    }
    out.push(Scenario {
        mode: Mode::Dense,
        topo: TopoKind::FatTree,
        hosts: 1024,
        bytes_per_host: 8 * 1024 * 1024,
        reps: 1,
        drop_prob: 0.0,
        hpu: false,
        tenants: 0,
        threads: 0,
        trace: false,
    });
    // Parallel twins of the biggest scale rows: same simulation, the
    // partitioned conservative-lookahead driver on 4 workers. Their
    // makespans must equal the serial rows bit for bit (checked by the
    // driver's differential tests); their wall numbers are the speedup
    // record. The `/par4` suffix keeps them out of the serial baseline
    // match until a baseline containing par rows is checked in.
    for hosts in [256usize, 1024] {
        out.push(Scenario {
            mode: Mode::Dense,
            topo: TopoKind::FatTree,
            hosts,
            bytes_per_host: 8 * 1024 * 1024,
            reps: 1,
            drop_prob: 0.0,
            hpu: false,
            tenants: 0,
            threads: 4,
            trace: false,
        });
    }
    // Hpu rows: the multi-core compute model on the ROADMAP's slowest
    // dense cell (single-switch star, 32 children folding at one root)
    // plus one small dense and one sparse cell. The `/hpu` suffix keeps
    // their (legitimately different) makespans out of the serial-pipeline
    // baseline match.
    for (mode, topo, hosts, bytes, reps) in [
        (Mode::Dense, TopoKind::Star, 32, 8 * 1024 * 1024usize, 2),
        (Mode::Dense, TopoKind::FatTree, 8, 128 * 1024, 3),
        (Mode::Sparse, TopoKind::Star, 8, 128 * 1024, 3),
    ] {
        out.push(Scenario {
            mode,
            topo,
            hosts,
            bytes_per_host: bytes,
            reps,
            drop_prob: 0.0,
            hpu: true,
            tenants: 0,
            threads: 0,
            trace: false,
        });
    }
    // Traffic rows: the multi-tenant engine churning Poisson job arrivals
    // through one shared fat tree. The `/trafficN` suffix keeps their
    // fleet makespans out of the single-collective baseline match; their
    // rows carry pooled p50/p99 iteration tails.
    for tenants in [8usize, 32] {
        out.push(Scenario {
            mode: Mode::Dense,
            topo: TopoKind::FatTree,
            hosts: 8,
            bytes_per_host: 64 * 1024,
            reps: 1,
            drop_prob: 0.0,
            hpu: false,
            tenants,
            threads: 0,
            trace: false,
        });
    }
    // Lossy traffic row: 16 mixed dense/sparse tenants at 1% link loss,
    // their retransmission timers multiplexed through the flow-tag
    // namespace. The combined `/traffic16/loss1%` suffix keeps it out of
    // both the lossless traffic rows and the single-collective lossy
    // cells.
    out.push(Scenario {
        mode: Mode::Dense,
        topo: TopoKind::FatTree,
        hosts: 8,
        bytes_per_host: 64 * 1024,
        reps: 1,
        drop_prob: 0.01,
        hpu: false,
        tenants: 16,
        threads: 0,
        trace: false,
    });
    // Telemetry-overhead twin: the tracked small dense fat-tree cell with
    // fabric telemetry capturing every link bucket, HPU sample and
    // lifecycle event. Same simulated makespan as the plain twin (capture
    // never perturbs the schedule); the wall-time ratio of the pair is
    // the documented telemetry overhead.
    out.push(Scenario {
        mode: Mode::Dense,
        topo: TopoKind::FatTree,
        hosts: 8,
        bytes_per_host: 128 * 1024,
        reps: 3,
        drop_prob: 0.0,
        hpu: false,
        tenants: 0,
        threads: 0,
        trace: true,
    });
    out
}

/// Reduced matrix for CI smoke runs: one small dense and one small sparse
/// cell, one 128-host scale cell, a *lossy* sparse cell exercising the
/// shard-aware retransmission path end to end, one `Hpu` cell
/// exercising the multi-core switch-compute model, one traffic-engine
/// cell churning a few tenants through a shared fat tree, one *lossy*
/// traffic cell retransmitting a mixed dense/sparse fleet through the
/// flow-tag namespace, and a dense and a traffic parallel-driver cell on
/// 2 workers, each twinning a serial cell — all single repetition. The
/// `/lossN%`, `/hpu`, `/trafficN` and `/parN` names keep those cells out
/// of the lossless serial-pipeline baseline comparison.
pub fn smoke_matrix() -> Vec<Scenario> {
    vec![
        Scenario {
            mode: Mode::Dense,
            topo: TopoKind::FatTree,
            hosts: 8,
            bytes_per_host: 128 * 1024,
            reps: 1,
            drop_prob: 0.0,
            hpu: true,
            tenants: 0,
            threads: 0,
            trace: false,
        },
        Scenario {
            mode: Mode::Dense,
            topo: TopoKind::FatTree,
            hosts: 8,
            bytes_per_host: 128 * 1024,
            reps: 1,
            drop_prob: 0.0,
            hpu: false,
            tenants: 0,
            threads: 0,
            trace: false,
        },
        Scenario {
            mode: Mode::Sparse,
            topo: TopoKind::Star,
            hosts: 8,
            bytes_per_host: 128 * 1024,
            reps: 1,
            drop_prob: 0.0,
            hpu: false,
            tenants: 0,
            threads: 0,
            trace: false,
        },
        Scenario {
            mode: Mode::Dense,
            topo: TopoKind::FatTree,
            hosts: 128,
            bytes_per_host: 128 * 1024,
            reps: 1,
            drop_prob: 0.0,
            hpu: false,
            tenants: 0,
            threads: 0,
            trace: false,
        },
        Scenario {
            mode: Mode::Sparse,
            topo: TopoKind::FatTree,
            hosts: 8,
            bytes_per_host: 128 * 1024,
            reps: 1,
            drop_prob: 0.01,
            hpu: false,
            tenants: 0,
            threads: 0,
            trace: false,
        },
        Scenario {
            mode: Mode::Dense,
            topo: TopoKind::FatTree,
            hosts: 8,
            bytes_per_host: 32 * 1024,
            reps: 1,
            drop_prob: 0.0,
            hpu: false,
            tenants: 4,
            threads: 0,
            trace: false,
        },
        // One lossy traffic cell: a mixed dense/sparse fleet under 1%
        // link loss, so CI exercises the flow-scoped retransmission
        // multiplex end to end every run.
        Scenario {
            mode: Mode::Dense,
            topo: TopoKind::FatTree,
            hosts: 8,
            bytes_per_host: 32 * 1024,
            reps: 1,
            drop_prob: 0.01,
            hpu: false,
            tenants: 4,
            threads: 0,
            trace: false,
        },
        // One parallel-driver cell: the same shape as the tracked serial
        // smoke cell, on 2 workers, so CI exercises the partitioned
        // datapath end to end every run.
        Scenario {
            mode: Mode::Dense,
            topo: TopoKind::FatTree,
            hosts: 8,
            bytes_per_host: 128 * 1024,
            reps: 1,
            drop_prob: 0.0,
            hpu: false,
            tenants: 0,
            threads: 2,
            trace: false,
        },
        // The lossless traffic cell on 2 workers: the engine's tenant
        // churn through the partitioned driver.
        Scenario {
            mode: Mode::Dense,
            topo: TopoKind::FatTree,
            hosts: 8,
            bytes_per_host: 32 * 1024,
            reps: 1,
            drop_prob: 0.0,
            hpu: false,
            tenants: 4,
            threads: 2,
            trace: false,
        },
    ]
}

fn build_topology(topo: TopoKind, hosts: usize) -> (Topology, Vec<NodeId>) {
    match topo {
        TopoKind::Star => {
            let (t, _sw, hs) = Topology::star(hosts, LinkSpec::hundred_gig());
            (t, hs)
        }
        TopoKind::FatTree => {
            // 8 hosts: 2 leaves × 4; 32 hosts: 4 leaves × 8.
            let (leaves, per_leaf, spines) = match hosts {
                8 => (2, 4, 2),
                32 => (4, 8, 4),
                n => (n.div_ceil(8), 8, n.div_ceil(8)),
            };
            let (t, ft) =
                Topology::fat_tree_two_level(leaves, per_leaf, spines, LinkSpec::hundred_gig());
            assert_eq!(
                ft.hosts.len(),
                hosts,
                "fat-tree shape must match host count"
            );
            (t, ft.hosts)
        }
    }
}

/// Execute one scenario cell and measure it.
///
/// Workload synthesis (the per-host input vectors) happens *outside* the
/// timed window: the harness measures the simulator, not the generator.
/// Session construction and result delivery stay inside — they are part
/// of running a collective.
pub fn run(s: &Scenario) -> Measurement {
    if s.tenants > 0 {
        return run_traffic(s);
    }
    let elems = s.elems();
    let build_session = |topo, hosts: Vec<NodeId>| {
        let mut b = FlareSession::builder(topo).hosts(hosts);
        if s.drop_prob > 0.0 {
            b = b
                .link_drop_prob(s.drop_prob)
                .retransmit_after(Some(200_000));
        }
        if s.hpu {
            b = b.switch_model(SwitchModel::Hpu(HpuParams::paper()));
        }
        if s.threads > 0 {
            b = b.threads(s.threads as u32);
        }
        if s.trace {
            b = b.telemetry(TelemetryConfig::default());
        }
        b.build()
    };
    let mut best: Option<(f64, u64, u64, u64)> = None;
    for _ in 0..s.reps.max(1) {
        let (topo, hosts) = build_topology(s.topo, s.hosts);
        let report = match s.mode {
            Mode::Dense => {
                let inputs: Vec<Vec<f32>> =
                    (0..s.hosts).map(|h| vec![(h + 1) as f32; elems]).collect();
                let start = Instant::now();
                let mut session = build_session(topo, hosts);
                let out = session.allreduce(inputs).op(Sum).run().expect("dense run");
                let wall = start.elapsed().as_secs_f64();
                (wall, out.report)
            }
            Mode::Sparse => {
                // ~1% density, indexes striped across the domain so every
                // block sees traffic and hash stores actually collide.
                let nnz = (elems / 100).max(1);
                let stride = (elems / nnz).max(1);
                let pairs: Vec<Vec<(u32, f32)>> = (0..s.hosts)
                    .map(|h| {
                        (0..nnz)
                            .map(|i| (((i * stride + h) % elems) as u32, 1.0f32))
                            .collect()
                    })
                    .collect();
                let start = Instant::now();
                let mut session = build_session(topo, hosts);
                let out = session
                    .sparse_allreduce(elems, pairs)
                    .op(Sum)
                    .run()
                    .expect("sparse run");
                let wall = start.elapsed().as_secs_f64();
                (wall, out.report)
            }
        };
        let (wall, report) = report;
        let cand = (
            wall,
            report.net.events,
            report.net.makespan,
            report.net.total_link_bytes,
        );
        best = Some(match best {
            Some(b) if b.0 <= wall => b,
            _ => cand,
        });
    }
    let (wall, events, makespan, link_bytes) = best.expect("at least one rep");
    let total_elems = (s.hosts * elems) as f64;
    Measurement {
        scenario: *s,
        wall_ms: wall * 1e3,
        events,
        events_per_sec: events as f64 / wall.max(1e-9),
        ns_per_element: wall * 1e9 / total_elems,
        makespan_ns: makespan,
        total_link_bytes: link_bytes,
        p50_ns: None,
        p99_ns: None,
    }
}

/// Execute a multi-tenant traffic cell: `s.tenants` Poisson-arriving
/// tenants (two jobs of two compute+allreduce iterations each) churn
/// through one shared simulation over the scenario topology. Lossless
/// cells run the exact all-dense fleet of the tracked baselines; lossy
/// cells (`drop_prob > 0`) pair the drop probability with the default
/// retransmission timeout and make every odd tenant sparse, so the cell
/// exercises the flow-scoped retransmission multiplex over a mixed
/// fleet. Makespan and event counts come from the shared [`NetSim`] run;
/// the pooled per-iteration makespan tails land in `p50_ns`/`p99_ns`.
fn run_traffic(s: &Scenario) -> Measurement {
    let elems = s.elems();
    let mut best: Option<Measurement> = None;
    for _ in 0..s.reps.max(1) {
        let (topo, hosts) = build_topology(s.topo, s.hosts);
        let start = Instant::now();
        let mut builder = FlareSession::builder(topo).hosts(hosts);
        if s.drop_prob > 0.0 {
            builder = builder
                .link_drop_prob(s.drop_prob)
                .retransmit_after(Some(200_000));
        }
        if s.threads > 0 {
            builder = builder.threads(s.threads as u32);
        }
        if s.trace {
            builder = builder.telemetry(TelemetryConfig::default());
        }
        let mut session = builder.build();
        let mut engine = TrafficEngine::new(&mut session, 7);
        for i in 0..s.tenants {
            let mut spec = TenantSpec::new(format!("tenant-{i}"), elems)
                .iterations(2)
                .compute(5_000, 0.2)
                .arrivals(ArrivalProcess::Poisson {
                    mean_interarrival_ns: 20_000.0,
                    jobs: 2,
                });
            if s.drop_prob > 0.0 && i % 2 == 1 {
                spec = spec.sparse(0.2);
            }
            engine.add_tenant(spec).expect("admit traffic tenant");
        }
        let report = engine.run().expect("traffic run");
        engine.release_all().expect("release tenants");
        let wall = start.elapsed().as_secs_f64();
        let section = report.tenants.as_ref().expect("tenant section");
        let pooled: Vec<u64> = section
            .tenants
            .iter()
            .flat_map(|t| t.iteration_makespans_ns.iter().copied())
            .collect();
        let tails = TailStats::from_samples(&pooled);
        let total_elems = (s.hosts * elems * s.tenants) as f64;
        let m = Measurement {
            scenario: *s,
            wall_ms: wall * 1e3,
            events: report.net.events,
            events_per_sec: report.net.events as f64 / wall.max(1e-9),
            ns_per_element: wall * 1e9 / total_elems,
            makespan_ns: report.net.makespan,
            total_link_bytes: report.net.total_link_bytes,
            p50_ns: Some(tails.p50),
            p99_ns: Some(tails.p99),
        };
        best = Some(match best {
            Some(b) if b.wall_ms <= m.wall_ms => b,
            _ => m,
        });
    }
    best.expect("at least one rep")
}

/// Capture a Perfetto trace from a lossy multi-tenant fleet and return
/// the chrome-trace JSON, validated before it is handed back. The CI
/// smoke job writes this next to the bench JSON so every run leaves an
/// artifact that `ui.perfetto.dev` loads directly — link utilization
/// counters, HPU-free in-flight gauges, retransmits, and per-tenant
/// job/flow lifecycle tracks from a run that actually drops packets.
pub fn dump_trace() -> String {
    let (topo, hosts) = build_topology(TopoKind::FatTree, 8);
    let mut session = FlareSession::builder(topo)
        .hosts(hosts)
        .link_drop_prob(0.02)
        .retransmit_after(Some(200_000))
        .telemetry(TelemetryConfig::default())
        .build();
    let mut engine = TrafficEngine::new(&mut session, 7);
    for i in 0..4 {
        let mut spec = TenantSpec::new(format!("tenant-{i}"), 4096)
            .iterations(2)
            .compute(5_000, 0.2);
        if i % 2 == 1 {
            spec = spec.sparse(0.2);
        }
        engine.add_tenant(spec).expect("admit traffic tenant");
    }
    let report = engine.run().expect("traffic run");
    engine.release_all().expect("release tenants");
    let trace = report.trace.as_ref().expect("telemetry was enabled");
    let json = trace.chrome_trace();
    let events = flare_net::telemetry::validate_chrome_trace(&json).expect("trace validates");
    assert!(events > 0, "trace must carry events");
    json
}

/// Render measurements as the checked-in `BENCH_*.json` document.
pub fn to_json(label: &str, rows: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{label}\",\n"));
    out.push_str("  \"unit\": {\"wall_ms\": \"milliseconds\", \"events_per_sec\": \"1/s\", \"ns_per_element\": \"ns\"},\n");
    out.push_str("  \"rows\": [\n");
    for (i, m) in rows.iter().enumerate() {
        let s = &m.scenario;
        let mut traffic = match (s.tenants, m.p50_ns, m.p99_ns) {
            (t, Some(p50), Some(p99)) if t > 0 => {
                format!(", \"tenants\": {t}, \"p50_ns\": {p50}, \"p99_ns\": {p99}")
            }
            _ => String::new(),
        };
        if s.drop_prob > 0.0 {
            traffic.push_str(&format!(
                ", \"loss_pct\": {}",
                (s.drop_prob * 100.0).round() as u32
            ));
        }
        if s.hpu {
            traffic.push_str(", \"hpu\": true");
        }
        if s.threads > 0 {
            traffic.push_str(&format!(", \"threads\": {}", s.threads));
        }
        if s.trace {
            traffic.push_str(", \"trace\": true");
        }
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"topology\": \"{}\", \"hosts\": {}, \"payload_bytes\": {}, \
             \"elems_per_host\": {}, \"wall_ms\": {:.3}, \"events\": {}, \"events_per_sec\": {:.0}, \
             \"ns_per_element\": {:.2}, \"makespan_ns\": {}, \"total_link_bytes\": {}{}}}{}\n",
            s.mode.label(),
            s.topo.label(),
            s.hosts,
            s.bytes_per_host,
            s.elems(),
            m.wall_ms,
            m.events,
            m.events_per_sec,
            m.ns_per_element,
            m.makespan_ns,
            m.total_link_bytes,
            traffic,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// `128KiB`/`8MiB`-style payload label — the single source of the size
/// component of [`Scenario::name`], shared with [`parse_baseline`] so a
/// format change cannot silently break baseline cell matching.
fn size_label(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{}MiB", bytes >> 20)
    } else {
        format!("{}KiB", bytes >> 10)
    }
}

/// A parsed baseline row: cell name (the [`Scenario::name`] form) and its
/// simulated makespan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineRow {
    /// `dense/fat_tree/32h/8MiB`-style cell name.
    pub name: String,
    /// Simulated makespan in nanoseconds.
    pub makespan_ns: u64,
}

fn json_str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    line[start..]
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// Parse a checked-in `BENCH_*.json` document (the exact format
/// [`to_json`] writes — the workspace is offline, so no serde) into
/// per-cell makespans for drift comparison.
pub fn parse_baseline(json: &str) -> Vec<BaselineRow> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(mode) = json_str_field(line, "mode") else {
            continue;
        };
        let (Some(topo), Some(hosts), Some(bytes), Some(makespan)) = (
            json_str_field(line, "topology"),
            json_u64_field(line, "hosts"),
            json_u64_field(line, "payload_bytes"),
            json_u64_field(line, "makespan_ns"),
        ) else {
            continue;
        };
        let mut name = format!("{mode}/{topo}/{hosts}h/{}", size_label(bytes));
        // Suffixed rows (traffic, lossy, hpu, parallel) are checked in
        // with their cell suffix — reconstructed in [`Scenario::name`]
        // order — so future runs compare their (deterministic) makespans
        // too. Baselines written before a suffix field existed simply
        // parse without it, and the measured cell's suffixed name then
        // matches no baseline row (skipped, never corrupted).
        if let Some(tenants) = json_u64_field(line, "tenants").filter(|&t| t > 0) {
            name.push_str(&format!("/traffic{tenants}"));
        }
        if let Some(loss) = json_u64_field(line, "loss_pct").filter(|&l| l > 0) {
            name.push_str(&format!("/loss{loss}%"));
        }
        if line.contains("\"hpu\": true") {
            name.push_str("/hpu");
        }
        if let Some(threads) = json_u64_field(line, "threads").filter(|&t| t > 0) {
            name.push_str(&format!("/par{threads}"));
        }
        if line.contains("\"trace\": true") {
            name.push_str("/trace");
        }
        out.push(BaselineRow {
            name,
            makespan_ns: makespan,
        });
    }
    out
}

/// Outcome of a baseline comparison: drift lines plus how many cells
/// were actually matched (a gate that compared zero cells is vacuous and
/// must be treated as a failure by the caller, not as "clean").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineDiff {
    /// Human-readable drift lines (empty = no drift among compared cells).
    pub drift: Vec<String>,
    /// Cells present in both the measured rows and the baseline.
    pub compared: usize,
}

/// Compare measured rows against a baseline document: any cell present in
/// both whose simulated makespan differs is *drift* — a datapath change
/// that altered simulation semantics. Cells only on one side are ignored
/// (new rows are expected as the matrix grows), but the returned
/// `compared` count lets the caller reject a vacuous match-nothing run.
pub fn diff_against_baseline(rows: &[Measurement], baseline: &[BaselineRow]) -> BaselineDiff {
    let mut drift = Vec::new();
    let mut compared = 0;
    for m in rows {
        let name = m.scenario.name();
        if let Some(b) = baseline.iter().find(|b| b.name == name) {
            compared += 1;
            if b.makespan_ns != m.makespan_ns {
                drift.push(format!(
                    "{name}: makespan {} ns != baseline {} ns",
                    m.makespan_ns, b.makespan_ns
                ));
            }
        }
    }
    BaselineDiff { drift, compared }
}

/// Compare every parallel-driver (`/parN`) row with its serial twin in
/// the same run: the driver's determinism contract makes their simulated
/// makespans equal, so any difference is drift. Rows without a twin are
/// skipped; `compared` counts the pairs checked.
pub fn diff_parallel_twins(rows: &[Measurement]) -> BaselineDiff {
    let mut drift = Vec::new();
    let mut compared = 0;
    for m in rows.iter().filter(|m| m.scenario.threads > 0) {
        let twin = Scenario {
            threads: 0,
            ..m.scenario
        }
        .name();
        if let Some(serial) = rows.iter().find(|r| r.scenario.name() == twin) {
            compared += 1;
            if serial.makespan_ns != m.makespan_ns {
                drift.push(format!(
                    "{}: makespan {} ns != serial twin {} ns",
                    m.scenario.name(),
                    m.makespan_ns,
                    serial.makespan_ns
                ));
            }
        }
    }
    BaselineDiff { drift, compared }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_the_full_cross_product() {
        let m = matrix();
        assert_eq!(
            m.len(),
            30,
            "16 tracked cells + 5 scale rows + 2 parallel + 3 hpu + 3 traffic + 1 trace"
        );
        let serial: Vec<&Scenario> = m
            .iter()
            .filter(|s| !s.hpu && s.tenants == 0 && s.threads == 0 && !s.trace)
            .collect();
        assert_eq!(serial.len(), 21);
        assert_eq!(serial.iter().filter(|s| s.mode == Mode::Sparse).count(), 8);
        assert_eq!(
            serial.iter().filter(|s| s.topo == TopoKind::Star).count(),
            8
        );
        assert_eq!(serial.iter().filter(|s| s.hosts == 32).count(), 8);
        assert_eq!(
            serial
                .iter()
                .filter(|s| s.bytes_per_host == 8 << 20)
                .count(),
            11
        );
    }

    #[test]
    fn matrix_parallel_cells_twin_the_largest_scale_rows() {
        let m = matrix();
        let par: Vec<&Scenario> = m.iter().filter(|s| s.threads > 0).collect();
        assert_eq!(par.len(), 2);
        let names: Vec<String> = par.iter().map(|s| s.name()).collect();
        assert!(names.contains(&"dense/fat_tree/256h/8MiB/par4".to_string()));
        assert!(names.contains(&"dense/fat_tree/1024h/8MiB/par4".to_string()));
        // Every parallel cell twins a serial row of the same shape, so
        // the speedup is always computable from one matrix run.
        for p in &par {
            assert!(
                m.iter().any(|s| s.threads == 0
                    && s.mode == p.mode
                    && s.topo == p.topo
                    && s.hosts == p.hosts
                    && s.bytes_per_host == p.bytes_per_host),
                "no serial twin for {}",
                p.name()
            );
        }
        // The suffix keeps a parallel cell from matching the serial
        // baseline row of the same shape.
        let baseline = vec![BaselineRow {
            name: "dense/fat_tree/256h/8MiB".into(),
            makespan_ns: 1,
        }];
        let diff = diff_against_baseline(&[measurement(*par[0], 2)], &baseline);
        assert_eq!(diff.compared, 0);
        assert!(diff.drift.is_empty());
    }

    #[test]
    fn parallel_cells_roundtrip_through_the_baseline_format() {
        let s = Scenario {
            mode: Mode::Dense,
            topo: TopoKind::FatTree,
            hosts: 256,
            bytes_per_host: 8 << 20,
            reps: 1,
            drop_prob: 0.0,
            hpu: false,
            tenants: 0,
            threads: 4,
            trace: false,
        };
        assert_eq!(s.name(), "dense/fat_tree/256h/8MiB/par4");
        let json = to_json("perf", &[measurement(s, 694397)]);
        assert!(json.contains("\"threads\": 4"));
        let rows = parse_baseline(&json);
        assert_eq!(
            rows,
            vec![BaselineRow {
                name: "dense/fat_tree/256h/8MiB/par4".into(),
                makespan_ns: 694397,
            }]
        );
    }

    #[test]
    fn parallel_cell_runs_and_matches_the_serial_makespan() {
        let serial = Scenario {
            mode: Mode::Dense,
            topo: TopoKind::FatTree,
            hosts: 16,
            bytes_per_host: 32 * 1024,
            reps: 1,
            drop_prob: 0.0,
            hpu: false,
            tenants: 0,
            threads: 0,
            trace: false,
        };
        let par = Scenario {
            threads: 2,
            trace: false,
            ..serial
        };
        let a = run(&serial);
        let b = run(&par);
        // The determinism contract, end to end through the harness:
        // identical simulated results, only the wall clock may differ.
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.events, b.events);
        assert_eq!(a.total_link_bytes, b.total_link_bytes);
        assert_eq!(par.name(), "dense/fat_tree/16h/32KiB/par2");
    }

    #[test]
    fn matrix_hpu_cells_stay_outside_the_baseline() {
        let m = matrix();
        let hpu: Vec<&Scenario> = m.iter().filter(|s| s.hpu).collect();
        assert_eq!(hpu.len(), 3);
        assert!(hpu.iter().any(|s| s.name() == "dense/star/32h/8MiB/hpu"));
        // The suffix must keep an Hpu cell from matching the lossless
        // serial-pipeline baseline row of the same shape.
        let baseline = vec![BaselineRow {
            name: "dense/star/32h/8MiB".into(),
            makespan_ns: 1,
        }];
        let diff = diff_against_baseline(&[measurement(*hpu[0], 2)], &baseline);
        assert_eq!(diff.compared, 0);
        assert!(diff.drift.is_empty());
    }

    #[test]
    fn matrix_trace_cell_twins_a_tracked_row_outside_the_baseline() {
        let m = matrix();
        let trace: Vec<&Scenario> = m.iter().filter(|s| s.trace).collect();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].name(), "dense/fat_tree/8h/128KiB/trace");
        // The telemetry-overhead ratio needs a plain twin of the same
        // shape in the same matrix run.
        assert!(
            m.iter().any(|s| !s.trace
                && !s.hpu
                && s.threads == 0
                && s.mode == trace[0].mode
                && s.topo == trace[0].topo
                && s.hosts == trace[0].hosts
                && s.bytes_per_host == trace[0].bytes_per_host),
            "no plain twin for {}",
            trace[0].name()
        );
        // The suffix keeps the traced cell from matching the plain
        // baseline row of the same shape.
        let baseline = vec![BaselineRow {
            name: "dense/fat_tree/8h/128KiB".into(),
            makespan_ns: 1,
        }];
        let diff = diff_against_baseline(&[measurement(*trace[0], 2)], &baseline);
        assert_eq!(diff.compared, 0);
        assert!(diff.drift.is_empty());
    }

    #[test]
    fn trace_rows_roundtrip_with_their_suffix() {
        let s = Scenario {
            mode: Mode::Dense,
            topo: TopoKind::FatTree,
            hosts: 8,
            bytes_per_host: 128 * 1024,
            reps: 1,
            drop_prob: 0.0,
            hpu: false,
            tenants: 0,
            threads: 0,
            trace: true,
        };
        assert_eq!(s.name(), "dense/fat_tree/8h/128KiB/trace");
        let json = to_json("perf", &[measurement(s, 424242)]);
        assert!(json.contains("\"trace\": true"));
        let rows = parse_baseline(&json);
        assert_eq!(
            rows,
            vec![BaselineRow {
                name: "dense/fat_tree/8h/128KiB/trace".into(),
                makespan_ns: 424242,
            }]
        );
    }

    #[test]
    fn dump_trace_produces_a_loadable_chrome_trace() {
        let json = dump_trace();
        let events = flare_net::telemetry::validate_chrome_trace(&json).expect("valid trace");
        assert!(events > 0);
        // Lifecycle tracks are labeled by tenant, and the lossy fleet
        // must actually exercise the recovery path.
        assert!(json.contains("tenant-3"));
        assert!(json.contains("retransmit"));
    }

    #[test]
    fn trace_cell_runs_and_matches_the_plain_makespan() {
        let plain = Scenario {
            mode: Mode::Dense,
            topo: TopoKind::FatTree,
            hosts: 8,
            bytes_per_host: 32 * 1024,
            reps: 1,
            drop_prob: 0.0,
            hpu: false,
            tenants: 0,
            threads: 0,
            trace: false,
        };
        let traced = Scenario {
            trace: true,
            ..plain
        };
        let a = run(&plain);
        let b = run(&traced);
        // The zero-perturbation contract, end to end through the
        // harness: capture changes the wall clock, never the schedule.
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.events, b.events);
        assert_eq!(a.total_link_bytes, b.total_link_bytes);
    }

    #[test]
    fn hpu_cell_runs_and_differs_from_the_serial_pipeline() {
        let serial = Scenario {
            mode: Mode::Dense,
            topo: TopoKind::Star,
            hosts: 4,
            bytes_per_host: 16 * 1024,
            reps: 1,
            drop_prob: 0.0,
            hpu: false,
            tenants: 0,
            threads: 0,
            trace: false,
        };
        let hpu = Scenario {
            hpu: true,
            tenants: 0,
            threads: 0,
            trace: false,
            ..serial
        };
        let a = run(&serial);
        let b = run(&hpu);
        assert!(b.makespan_ns > 0);
        assert_ne!(
            a.makespan_ns, b.makespan_ns,
            "the multi-core model must actually engage"
        );
        assert_eq!(hpu.name(), "dense/star/4h/16KiB/hpu");
    }

    #[test]
    fn smoke_cell_runs_and_reports_sane_numbers() {
        let s = Scenario {
            mode: Mode::Dense,
            topo: TopoKind::Star,
            hosts: 4,
            bytes_per_host: 4096,
            reps: 1,
            drop_prob: 0.0,
            hpu: false,
            tenants: 0,
            threads: 0,
            trace: false,
        };
        let m = run(&s);
        assert!(m.wall_ms > 0.0);
        assert!(m.events > 0);
        assert!(m.events_per_sec > 0.0);
        assert!(m.makespan_ns > 0);
        assert_eq!(s.name(), "dense/star/4h/4KiB");
    }

    #[test]
    fn sparse_cell_runs() {
        let s = Scenario {
            mode: Mode::Sparse,
            topo: TopoKind::Star,
            hosts: 4,
            bytes_per_host: 8192,
            reps: 1,
            drop_prob: 0.0,
            hpu: false,
            tenants: 0,
            threads: 0,
            trace: false,
        };
        let m = run(&s);
        assert!(m.events > 0 && m.total_link_bytes > 0);
    }

    fn measurement(s: Scenario, makespan: u64) -> Measurement {
        Measurement {
            scenario: s,
            wall_ms: 1.0,
            events: 10,
            events_per_sec: 1.0,
            ns_per_element: 1.0,
            makespan_ns: makespan,
            total_link_bytes: 1,
            p50_ns: if s.tenants > 0 { Some(2) } else { None },
            p99_ns: if s.tenants > 0 { Some(3) } else { None },
        }
    }

    #[test]
    fn baseline_roundtrips_through_to_json() {
        let s = Scenario {
            mode: Mode::Dense,
            topo: TopoKind::FatTree,
            hosts: 32,
            bytes_per_host: 8 << 20,
            reps: 1,
            drop_prob: 0.0,
            hpu: false,
            tenants: 0,
            threads: 0,
            trace: false,
        };
        let json = to_json("perf", &[measurement(s, 694397)]);
        let rows = parse_baseline(&json);
        assert_eq!(
            rows,
            vec![BaselineRow {
                name: "dense/fat_tree/32h/8MiB".into(),
                makespan_ns: 694397,
            }]
        );
    }

    #[test]
    fn baseline_diff_flags_makespan_drift_only() {
        let s = Scenario {
            mode: Mode::Sparse,
            topo: TopoKind::Star,
            hosts: 8,
            bytes_per_host: 128 * 1024,
            reps: 1,
            drop_prob: 0.0,
            hpu: false,
            tenants: 0,
            threads: 0,
            trace: false,
        };
        let baseline = vec![
            BaselineRow {
                name: "sparse/star/8h/128KiB".into(),
                makespan_ns: 2131,
            },
            BaselineRow {
                name: "dense/star/8h/128KiB".into(),
                makespan_ns: 999,
            },
        ];
        // Identical makespan: clean (wall-clock differences never drift).
        let clean = diff_against_baseline(&[measurement(s, 2131)], &baseline);
        assert!(clean.drift.is_empty());
        assert_eq!(clean.compared, 1);
        // Changed makespan: flagged.
        let diff = diff_against_baseline(&[measurement(s, 2132)], &baseline);
        assert_eq!(diff.drift.len(), 1);
        assert!(diff.drift[0].contains("sparse/star/8h/128KiB"), "{diff:?}");
        // Cells absent from the baseline (new matrix rows) are ignored,
        // but the compared count exposes a vacuous match-nothing run.
        let new_cell = Scenario {
            mode: Mode::Dense,
            topo: TopoKind::FatTree,
            hosts: 128,
            bytes_per_host: 128 * 1024,
            reps: 1,
            drop_prob: 0.0,
            hpu: false,
            tenants: 0,
            threads: 0,
            trace: false,
        };
        let vacuous = diff_against_baseline(&[measurement(new_cell, 1)], &baseline);
        assert!(vacuous.drift.is_empty());
        assert_eq!(vacuous.compared, 0, "caller must detect the vacuous gate");
    }

    #[test]
    fn parse_baseline_reads_the_checked_in_pr2_format() {
        let sample = r#"{
  "bench": "flare-perf",
  "rows": [
    {"mode": "dense", "topology": "star", "hosts": 8, "payload_bytes": 131072, "elems_per_host": 32768, "wall_ms": 1.757, "events": 4096, "events_per_sec": 2331869, "ns_per_element": 6.70, "makespan_ns": 14179, "total_link_bytes": 2129920},
    {"mode": "sparse", "topology": "fat_tree", "hosts": 32, "payload_bytes": 8388608, "elems_per_host": 2097152, "wall_ms": 270.407, "events": 589824, "events_per_sec": 2181243, "ns_per_element": 4.03, "makespan_ns": 446677, "total_link_bytes": 208724480}
  ]
}"#;
        let rows = parse_baseline(sample);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "dense/star/8h/128KiB");
        assert_eq!(rows[0].makespan_ns, 14179);
        assert_eq!(rows[1].name, "sparse/fat_tree/32h/8MiB");
        assert_eq!(rows[1].makespan_ns, 446677);
    }

    #[test]
    fn matrix_includes_the_scale_rows() {
        let m = matrix();
        let names: Vec<String> = m.iter().map(|s| s.name()).collect();
        for want in [
            "dense/fat_tree/128h/128KiB",
            "dense/fat_tree/128h/8MiB",
            "dense/fat_tree/256h/128KiB",
            "dense/fat_tree/256h/8MiB",
            "dense/fat_tree/1024h/8MiB",
        ] {
            assert!(names.contains(&want.to_string()), "missing {want}");
        }
    }

    #[test]
    fn smoke_matrix_has_a_parallel_cell() {
        let m = smoke_matrix();
        let par: Vec<&Scenario> = m.iter().filter(|s| s.threads > 0).collect();
        assert_eq!(par.len(), 2);
        assert_eq!(par[0].name(), "dense/fat_tree/8h/128KiB/par2");
        assert_eq!(par[1].name(), "dense/fat_tree/8h/32KiB/traffic4/par2");
        // Both twin a serial smoke cell, so every smoke run checks them.
        let rows: Vec<Measurement> = m.iter().map(|&s| measurement(s, 7)).collect();
        assert_eq!(diff_parallel_twins(&rows).compared, 2);
    }

    #[test]
    fn parallel_twin_gate_flags_makespan_drift() {
        let serial = smoke_matrix()
            .into_iter()
            .find(|s| s.name() == "dense/fat_tree/8h/32KiB/traffic4")
            .expect("serial traffic smoke cell");
        let par = Scenario {
            threads: 2,
            ..serial
        };
        let same = diff_parallel_twins(&[measurement(serial, 9), measurement(par, 9)]);
        assert_eq!((same.compared, same.drift.len()), (1, 0));
        let drifted = diff_parallel_twins(&[measurement(serial, 9), measurement(par, 10)]);
        assert_eq!(drifted.drift.len(), 1);
        // A parallel row alone has nothing to compare against.
        assert_eq!(diff_parallel_twins(&[measurement(par, 9)]).compared, 0);
    }

    #[test]
    fn smoke_matrix_has_a_128_host_cell() {
        assert!(smoke_matrix().iter().any(|s| s.hosts == 128));
    }

    #[test]
    fn smoke_matrix_has_an_hpu_cell() {
        let m = smoke_matrix();
        let hpu: Vec<&Scenario> = m.iter().filter(|s| s.hpu).collect();
        assert_eq!(hpu.len(), 1);
        assert_eq!(hpu[0].name(), "dense/fat_tree/8h/128KiB/hpu");
    }

    #[test]
    fn smoke_matrix_has_a_lossy_sparse_cell_outside_the_baseline() {
        let m = smoke_matrix();
        let lossy: Vec<&Scenario> = m
            .iter()
            .filter(|s| s.drop_prob > 0.0 && s.tenants == 0)
            .collect();
        assert_eq!(lossy.len(), 1);
        assert_eq!(lossy[0].mode, Mode::Sparse);
        assert_eq!(lossy[0].name(), "sparse/fat_tree/8h/128KiB/loss1%");
        // The suffix keeps the lossy cell from ever matching a lossless
        // baseline row (whose makespan it would legitimately differ from).
        let baseline = vec![BaselineRow {
            name: "sparse/fat_tree/8h/128KiB".into(),
            makespan_ns: 1,
        }];
        let diff = diff_against_baseline(&[measurement(*lossy[0], 2)], &baseline);
        assert_eq!(diff.compared, 0);
        assert!(diff.drift.is_empty());
    }

    #[test]
    fn lossy_sparse_smoke_cell_completes() {
        let s = Scenario {
            mode: Mode::Sparse,
            topo: TopoKind::Star,
            hosts: 4,
            bytes_per_host: 64 * 1024,
            reps: 1,
            drop_prob: 0.05,
            hpu: false,
            tenants: 0,
            threads: 0,
            trace: false,
        };
        let m = run(&s);
        assert!(m.events > 0 && m.makespan_ns > 0);
        assert_eq!(s.name(), "sparse/star/4h/64KiB/loss5%");
    }

    #[test]
    fn json_is_structurally_sound() {
        let s = Scenario {
            mode: Mode::Dense,
            topo: TopoKind::FatTree,
            hosts: 8,
            bytes_per_host: 128 * 1024,
            reps: 1,
            drop_prob: 0.0,
            hpu: false,
            tenants: 0,
            threads: 0,
            trace: false,
        };
        let m = Measurement {
            scenario: s,
            wall_ms: 1.5,
            events: 100,
            events_per_sec: 2.0,
            ns_per_element: 3.0,
            makespan_ns: 4,
            total_link_bytes: 5,
            p50_ns: None,
            p99_ns: None,
        };
        let j = to_json("perf", &[m.clone(), m]);
        assert_eq!(j.matches("{\"mode\"").count(), 2);
        assert_eq!(j.matches("\"topology\": \"fat_tree\"").count(), 2);
        assert!(j.ends_with("}\n"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        // Single-collective rows never carry traffic-only fields.
        assert!(!j.contains("\"tenants\""));
    }

    #[test]
    fn traffic_rows_roundtrip_with_their_suffix() {
        let s = Scenario {
            mode: Mode::Dense,
            topo: TopoKind::FatTree,
            hosts: 8,
            bytes_per_host: 64 * 1024,
            reps: 1,
            drop_prob: 0.0,
            hpu: false,
            tenants: 8,
            threads: 0,
            trace: false,
        };
        assert_eq!(s.name(), "dense/fat_tree/8h/64KiB/traffic8");
        let mut m = measurement(s, 4242);
        m.p50_ns = Some(100);
        m.p99_ns = Some(900);
        let json = to_json("perf", &[m.clone()]);
        assert!(json.contains("\"tenants\": 8"));
        assert!(json.contains("\"p50_ns\": 100"));
        assert!(json.contains("\"p99_ns\": 900"));
        // The suffix survives the baseline round trip, so future runs do
        // compare traffic makespans against each other…
        let rows = parse_baseline(&json);
        assert_eq!(
            rows,
            vec![BaselineRow {
                name: "dense/fat_tree/8h/64KiB/traffic8".into(),
                makespan_ns: 4242,
            }]
        );
        // …while a same-shape single-collective baseline row never
        // matches a traffic cell.
        let lossless = vec![BaselineRow {
            name: "dense/fat_tree/8h/64KiB".into(),
            makespan_ns: 1,
        }];
        let diff = diff_against_baseline(&[m], &lossless);
        assert_eq!(diff.compared, 0);
        assert!(diff.drift.is_empty());
    }

    #[test]
    fn traffic_smoke_cell_runs_deterministically() {
        let s = Scenario {
            mode: Mode::Dense,
            topo: TopoKind::FatTree,
            hosts: 8,
            bytes_per_host: 32 * 1024,
            reps: 1,
            drop_prob: 0.0,
            hpu: false,
            tenants: 4,
            threads: 0,
            trace: false,
        };
        let a = run(&s);
        let b = run(&s);
        assert!(a.makespan_ns > 0 && a.events > 0);
        let (p50, p99) = (a.p50_ns.expect("p50"), a.p99_ns.expect("p99"));
        assert!(0 < p50 && p50 <= p99);
        // Simulated results (not wall time) are bitwise-reproducible, on
        // the partitioned driver too.
        let par = run(&Scenario { threads: 2, ..s });
        for other in [&b, &par] {
            assert_eq!(a.makespan_ns, other.makespan_ns);
            assert_eq!((a.p50_ns, a.p99_ns), (other.p50_ns, other.p99_ns));
            assert_eq!(a.total_link_bytes, other.total_link_bytes);
        }
    }

    #[test]
    fn smoke_matrix_has_a_traffic_cell() {
        let m = smoke_matrix();
        let traffic: Vec<&Scenario> = m
            .iter()
            .filter(|s| s.tenants > 0 && s.threads == 0)
            .collect();
        assert_eq!(traffic.len(), 2, "one lossless, one lossy, serial");
        assert_eq!(traffic[0].name(), "dense/fat_tree/8h/32KiB/traffic4");
        assert_eq!(traffic[1].name(), "dense/fat_tree/8h/32KiB/traffic4/loss1%");
    }

    #[test]
    fn matrix_has_a_lossy_traffic_cell_outside_every_other_baseline() {
        let m = matrix();
        let lossy: Vec<&Scenario> = m
            .iter()
            .filter(|s| s.tenants > 0 && s.drop_prob > 0.0)
            .collect();
        assert_eq!(lossy.len(), 1);
        assert_eq!(lossy[0].name(), "dense/fat_tree/8h/64KiB/traffic16/loss1%");
        // The combined suffix must keep the cell from matching the
        // lossless traffic row of the same shape *and* the
        // single-collective row.
        let baseline = vec![
            BaselineRow {
                name: "dense/fat_tree/8h/64KiB/traffic16".into(),
                makespan_ns: 1,
            },
            BaselineRow {
                name: "dense/fat_tree/8h/64KiB".into(),
                makespan_ns: 1,
            },
        ];
        let diff = diff_against_baseline(&[measurement(*lossy[0], 2)], &baseline);
        assert_eq!(diff.compared, 0);
        assert!(diff.drift.is_empty());
    }

    #[test]
    fn lossy_traffic_rows_roundtrip_with_the_combined_suffix() {
        let s = Scenario {
            mode: Mode::Dense,
            topo: TopoKind::FatTree,
            hosts: 8,
            bytes_per_host: 64 * 1024,
            reps: 1,
            drop_prob: 0.01,
            hpu: false,
            tenants: 16,
            threads: 0,
            trace: false,
        };
        assert_eq!(s.name(), "dense/fat_tree/8h/64KiB/traffic16/loss1%");
        let json = to_json("perf", &[measurement(s, 777)]);
        assert!(json.contains("\"loss_pct\": 1"));
        let rows = parse_baseline(&json);
        assert_eq!(
            rows,
            vec![BaselineRow {
                name: "dense/fat_tree/8h/64KiB/traffic16/loss1%".into(),
                makespan_ns: 777,
            }]
        );
    }

    #[test]
    fn hpu_rows_roundtrip_with_their_suffix() {
        let s = Scenario {
            mode: Mode::Dense,
            topo: TopoKind::Star,
            hosts: 32,
            bytes_per_host: 8 << 20,
            reps: 1,
            drop_prob: 0.0,
            hpu: true,
            tenants: 0,
            threads: 0,
            trace: false,
        };
        let json = to_json("perf", &[measurement(s, 4242)]);
        assert!(json.contains("\"hpu\": true"));
        let rows = parse_baseline(&json);
        assert_eq!(
            rows,
            vec![BaselineRow {
                name: "dense/star/32h/8MiB/hpu".into(),
                makespan_ns: 4242,
            }]
        );
    }

    #[test]
    fn lossy_traffic_cell_completes_with_a_mixed_fleet() {
        let s = Scenario {
            mode: Mode::Dense,
            topo: TopoKind::Star,
            hosts: 4,
            bytes_per_host: 16 * 1024,
            reps: 1,
            drop_prob: 0.05,
            hpu: false,
            tenants: 4,
            threads: 0,
            trace: false,
        };
        let a = run(&s);
        let b = run(&s);
        assert!(a.makespan_ns > 0 && a.events > 0);
        assert!(a.p50_ns.expect("p50") > 0);
        // Lossy traffic runs are as reproducible as lossless ones: drops
        // come from seeded per-link streams inside the simulator.
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.total_link_bytes, b.total_link_bytes);
        assert_eq!(s.name(), "dense/star/4h/16KiB/traffic4/loss5%");
    }
}
