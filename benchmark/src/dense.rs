//! The dense workloads: one f32 `Sum` allreduce over a two-level fat
//! tree, run through `Collective::run` (untraced) and through a rebuild of
//! the session's wiring with timing shims on every program (traced).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use flare_core::host::{result_sink, DenseFlareHost, HostConfig};
use flare_core::op::{golden_reduce, Sum};
use flare_core::session::{
    placement_for, stagger_step, CollectiveHandle, FlareSession, SessionError,
};
use flare_core::switch_prog::FlareDenseProgram;
use flare_net::{LinkSpec, NetReport, NetSim, PartitionPlan, Topology};

use crate::shim::{pool_ratios, Tally, Timed};
use crate::{
    median, ratio, repeat, sample_setups, samples, Budget, Fingerprint, Outcome, Scale, Workload,
};

/// Shape and driver of a dense workload.
#[derive(Debug, Clone, Copy)]
pub struct DenseCfg {
    /// Leaf switches.
    pub leaves: usize,
    /// Hosts per leaf.
    pub per_leaf: usize,
    /// Spine switches.
    pub spines: usize,
    /// f32 elements per host.
    pub elems: usize,
    /// Partitioned-driver workers (`None` = the serial driver).
    pub threads: Option<u32>,
}

impl DenseCfg {
    /// The configuration of `workload` (a dense one) at `scale`.
    pub fn new(workload: Workload, scale: Scale) -> Self {
        let (leaves, per_leaf, spines, elems, threads) = match (workload, scale) {
            (Workload::DenseBulk, Scale::Full) => (16, 8, 16, 2 << 20, None),
            (Workload::DenseBulk, Scale::Tiny) => (2, 4, 2, 4096, None),
            (Workload::DenseWidePar2, Scale::Full) => (128, 8, 128, 32 << 10, Some(2)),
            (Workload::DenseWidePar2, Scale::Tiny) => (4, 4, 4, 1024, Some(2)),
            (Workload::FleetLossyTraced, _) => panic!("not a dense workload"),
        };
        Self {
            leaves,
            per_leaf,
            spines,
            elems,
            threads,
        }
    }

    /// Participating hosts.
    pub fn hosts(&self) -> usize {
        self.leaves * self.per_leaf
    }

    /// Per-host inputs drawn from `seed`: small integers in [-8, 7], so
    /// every f32 partial sum is exact up to 2^21 hosts and any reduction
    /// order must reproduce the golden result bit for bit.
    pub fn inputs(&self, seed: u64) -> Vec<Vec<f32>> {
        self.inputs_into(seed, Vec::new())
    }

    /// [`inputs`](Self::inputs), written into `bufs` (a previous run's
    /// result vectors) so that repetitions do not fault in fresh pages.
    pub fn inputs_into(&self, seed: u64, mut bufs: Vec<Vec<f32>>) -> Vec<Vec<f32>> {
        bufs.resize_with(self.hosts(), Vec::new);
        for (rank, v) in bufs.iter_mut().enumerate() {
            v.resize(self.elems, 0.0);
            let mut state = seed ^ (rank as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407);
            for chunk in v.chunks_mut(16) {
                let x = splitmix64(&mut state);
                for (k, e) in chunk.iter_mut().enumerate() {
                    *e = ((x >> (4 * k)) & 15) as f32 - 8.0;
                }
            }
        }
        bufs
    }

    /// Set-up: topology, session build and admission of the allreduce.
    pub fn setup(&self, seed: u64) -> Result<(FlareSession, CollectiveHandle), SessionError> {
        let (topo, ft) = Topology::fat_tree_two_level(
            self.leaves,
            self.per_leaf,
            self.spines,
            LinkSpec::hundred_gig(),
        );
        let mut builder = FlareSession::builder(topo).hosts(ft.hosts).seed(seed);
        if let Some(n) = self.threads {
            builder = builder.threads(n);
        }
        let mut session = builder.build();
        let handle = session.admit((self.elems * 4) as u64, false)?;
        Ok((session, handle))
    }

    /// One untraced run: set-up, then `Collective::run`.
    pub fn plain(&self, seed: u64, inputs: Vec<Vec<f32>>) -> Result<Plain, SessionError> {
        let t = Instant::now();
        let (mut session, handle) = self.setup(seed)?;
        let setup_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let out = session.allreduce(inputs).via(&handle).run()?;
        let wall_s = t.elapsed().as_secs_f64();
        session.release(handle)?;
        let completion_ns = out.report.completion_ns();
        let net = out.report.net.clone();
        Ok(Plain {
            setup_s,
            wall_s,
            completion_ns,
            net,
            ranks: out.into_ranks().into_iter().map(Some).collect(),
        })
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What an untraced run returns.
pub struct Plain {
    /// Set-up time, s.
    pub setup_s: f64,
    /// `Collective::run` until results are in hand, s.
    pub wall_s: f64,
    /// Simulated completion of the slowest rank, ns.
    pub completion_ns: u64,
    /// The network report.
    pub net: NetReport,
    /// Per-rank results (`None` for a rank that never completed).
    pub ranks: Vec<Option<Vec<f32>>>,
}

/// What a traced rebuild returns.
pub struct Rebuilt {
    /// `NetSim::new` plus program construction and installation, s.
    pub wire_s: f64,
    /// The driver's run call, s.
    pub run_s: f64,
    /// Result collection and teardown, s.
    pub collect_s: f64,
    /// The network report.
    pub net: NetReport,
    /// Per-rank results (`None` for a rank that never completed).
    pub ranks: Vec<Option<Vec<f32>>>,
    /// Host-program layer counters.
    pub hosts: Tally,
    /// Switch-program layer counters.
    pub switches: Tally,
}

/// Rebuild what `Collective::run` wires for `handle` from public API,
/// with every program wrapped in a timing shim, and run it on the serial
/// driver (`threads == None`) or the partitioned one.
pub fn rebuild(
    session: &mut FlareSession,
    handle: &CollectiveHandle,
    inputs: Vec<Vec<f32>>,
    threads: Option<u32>,
) -> Rebuilt {
    let tuning = session.tuning().clone();
    let hosts = session.hosts().to_vec();
    let plan = handle.plan().clone();
    let host_tally = Arc::new(Mutex::new(Tally::default()));
    let switch_tally = Arc::new(Mutex::new(Tally::default()));
    let elems = inputs[0].len();
    let (wire_s, run_s, collect_s, net, ranks) = session.lend_topology(|topo| {
        let t = Instant::now();
        let mut sim = NetSim::new(topo, tuning.seed);
        sim.set_uniform_drop_prob(tuning.link_drop_prob);
        for s in &plan.tree.switches {
            let prog = FlareDenseProgram::new(placement_for(&plan, s.switch), Sum)
                .with_loss_recovery(tuning.link_drop_prob > 0.0);
            sim.install_switch_model(
                s.switch,
                Box::new(Timed::new(prog, switch_tally.clone())),
                tuning.switch_model.clone(),
            );
        }
        let blocks = elems.div_ceil(tuning.elems_per_packet) as u64;
        let step = stagger_step(plan.window, blocks, hosts.len());
        let mut sinks = Vec::with_capacity(hosts.len());
        for (rank, (&h, data)) in hosts.iter().zip(inputs).enumerate() {
            let (leaf, child_index) = plan.tree.host_attach[&h];
            let sink = result_sink();
            sinks.push(sink.clone());
            let cfg = HostConfig {
                allreduce: plan.id,
                leaf,
                child_index,
                window: plan.window,
                stagger_offset: rank as u64 * step,
                retransmit_after: tuning.retransmit_after,
                block_base: 0,
                wake_seq: 0,
            };
            let host = DenseFlareHost::new(cfg, tuning.elems_per_packet, data, sink);
            sim.install_host(h, Box::new(Timed::new(host, host_tally.clone())));
        }
        let wire_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let net = match threads {
            Some(n) => sim.run_threads(None, n as usize),
            None => sim.run(None),
        };
        let run_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let _capture_is_off = sim.take_telemetry();
        let ranks: Vec<Option<Vec<f32>>> = sinks
            .into_iter()
            .map(|s| s.lock().expect("result sink lock").take())
            .collect();
        let topo = sim.into_topology();
        let collect_s = t.elapsed().as_secs_f64();
        (topo, (wire_s, run_s, collect_s, net, ranks))
    });
    let take = |t: Arc<Mutex<Tally>>| t.lock().expect("tally lock").clone();
    Rebuilt {
        wire_s,
        run_s,
        collect_s,
        net,
        ranks,
        hosts: take(host_tally),
        switches: take(switch_tally),
    }
}

/// The dense simulated fingerprint: makespan, events, link traffic, drops.
pub fn fingerprint(net: &NetReport) -> Fingerprint {
    Fingerprint(vec![
        ("makespan_ns", net.makespan),
        ("events", net.events),
        ("link_bytes", net.total_link_bytes),
        ("link_packets", net.total_link_packets),
        ("drops", net.drops),
    ])
}

/// Mean utilization of both directions of the busiest link over
/// `[0, horizon_ns]`.
pub fn hottest_link_util(net: &NetReport, topo: &Topology, horizon_ns: u64) -> f64 {
    net.links
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let cap = 2.0 * topo.link(i).spec.bytes_per_ns() * horizon_ns.max(1) as f64;
            l.bytes as f64 / cap
        })
        .fold(0.0, f64::max)
}

/// Count every rank whose result is missing or differs from `golden`;
/// returns the result vectors for reuse as the next run's inputs.
fn check_ranks(
    out: &mut Outcome,
    ranks: Vec<Option<Vec<f32>>>,
    golden: &[f32],
    what: &str,
) -> Vec<Vec<f32>> {
    let bad = ranks
        .iter()
        .filter(|r| r.as_deref() != Some(golden))
        .count();
    out.check(ranks.len() as u64, bad as u64, what);
    ranks.into_iter().flatten().collect()
}

/// Run a dense workload for `budget`.
pub fn run(cfg: &DenseCfg, seed: u64, budget: &Budget, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let hosts = cfg.hosts() as u64;
    let inputs = cfg.inputs(seed);
    let golden = golden_reduce(&Sum, &inputs);
    // The result vectors of each run become the next run's inputs.
    let mut spare = inputs;
    let time_setup = || {
        let t = Instant::now();
        let (mut session, handle) = cfg.setup(seed).map_err(|e| format!("setup: {e}"))?;
        let s = t.elapsed().as_secs_f64();
        session
            .release(handle)
            .map_err(|e| format!("release: {e}"))?;
        Ok(s)
    };
    let mut setups = Vec::new();
    let driver = match cfg.threads {
        Some(n) => format!("partitioned, {n} workers"),
        None => "serial".to_string(),
    };
    let mut first: Option<Fingerprint> = None;
    let mut completion_ns = 0;
    let mut walls = Vec::new();
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    // The untraced pass discards one warm-up repetition; in the traced
    // pass the plain run warms up each rebuild.
    let reps = repeat(budget, usize::from(!trace), |_, warmup| {
        match sample_setups(budget, time_setup) {
            Ok(times) if !warmup => setups.extend(times),
            Ok(_) => {}
            Err(e) => {
                out.check(1, 1, &e);
                return false;
            }
        }
        let inputs = cfg.inputs_into(seed, std::mem::take(&mut spare));
        let mut plain = match cfg.plain(seed, inputs) {
            Ok(p) => p,
            Err(e) => {
                out.check(hosts, hosts, &format!("Collective::run: {e}"));
                return false;
            }
        };
        spare = check_ranks(
            &mut out,
            std::mem::take(&mut plain.ranks),
            &golden,
            "rank result != golden_reduce",
        );
        let fp = fingerprint(&plain.net);
        let want = first.get_or_insert_with(|| fp.clone()).clone();
        out.check_fingerprint(&fp, &want, "repetition differs from the first");
        completion_ns = plain.completion_ns;
        if !warmup {
            setups.push(plain.setup_s);
            walls.push(plain.wall_s);
        }
        if trace {
            match traced_rep(cfg, seed, &golden, &plain, &mut spare, &mut out) {
                Ok(sample) => {
                    for (k, v) in sample {
                        layers.entry(k).or_default().push(v);
                    }
                }
                Err(e) => {
                    out.check(hosts, hosts, &format!("traced rebuild: {e}"));
                    return false;
                }
            }
        }
        true
    });
    if let Some(fp) = &first {
        out.note(format!("fingerprint: {fp}"));
    }
    out.note(format!(
        "driver={driver} reps={reps} wall_s samples {} setup_samples={}",
        samples(&walls),
        setups.len()
    ));
    if trace {
        for (k, v) in &layers {
            out.set(k, median(v));
        }
        out.note(format!(
            "trace: per-layer values are medians over {reps} traced rebuild(s); \
             hit ratios are host-dependent counters outside the determinism contract"
        ));
    } else {
        out.set("wall_s", median(&walls));
        out.set("setup_s", median(&setups));
        let bits = (cfg.elems * 4 * 8) as f64;
        out.set("sim_goodput_gbps", ratio(bits, completion_ns as f64));
        let us = completion_ns as f64 / 1e3;
        out.set("iter_p50_us", us);
        out.set("iter_p98_us", us);
        out.note(format!(
            "iter_p98_us={us} from 1 sample: the allreduce is the workload's only iteration"
        ));
    }
    out
}

/// One traced repetition: the shimmed rebuild on the workload's driver
/// (plus a serial twin for the partitioned workload), checked against
/// the plain run's results and fingerprint. Returns per-layer samples.
fn traced_rep(
    cfg: &DenseCfg,
    seed: u64,
    golden: &[f32],
    plain: &Plain,
    spare: &mut Vec<Vec<f32>>,
    out: &mut Outcome,
) -> Result<Vec<(&'static str, f64)>, SessionError> {
    let want = fingerprint(&plain.net);
    let (mut session, handle) = cfg.setup(seed)?;
    let inputs = cfg.inputs_into(seed, std::mem::take(spare));
    let mut reb = rebuild(&mut session, &handle, inputs, cfg.threads);
    *spare = check_ranks(
        out,
        std::mem::take(&mut reb.ranks),
        golden,
        "traced rank result != golden_reduce",
    );
    out.check_fingerprint(&fingerprint(&reb.net), &want, "traced rebuild vs plain run");
    let topo = session.topology();
    let partitions = PartitionPlan::build(topo).parts as f64;
    let hottest = hottest_link_util(&reb.net, topo, plain.completion_ns);
    session.release(handle)?;

    let workers = f64::from(cfg.threads.unwrap_or(1));
    let serial_run_s = match cfg.threads {
        None => reb.run_s,
        Some(_) => {
            let (mut session, handle) = cfg.setup(seed)?;
            let inputs = cfg.inputs_into(seed, std::mem::take(spare));
            let mut serial = rebuild(&mut session, &handle, inputs, None);
            session.release(handle)?;
            *spare = check_ranks(
                out,
                std::mem::take(&mut serial.ranks),
                golden,
                "serial twin != golden_reduce",
            );
            out.check_fingerprint(&fingerprint(&serial.net), &want, "serial twin vs plain run");
            serial.run_s
        }
    };
    let par_run_s = if cfg.threads.is_some() {
        reb.run_s
    } else {
        0.0
    };
    let host_s = reb.hosts.ns as f64 / 1e9;
    let switch_s = reb.switches.ns as f64 / 1e9;
    let core_s = reb.run_s - (host_s + switch_s) / workers;
    let events = reb.net.events as f64;
    let (agg, byte, slab) = pool_ratios(&reb.switches.pools);
    let traced_wall = reb.wire_s + reb.run_s + reb.collect_s;
    Ok(vec![
        ("net.run_s", reb.run_s),
        ("net.core_s", core_s),
        ("net.core_ns_per_event", ratio(core_s * 1e9, events)),
        ("switch_prog.self_s", switch_s),
        ("switch_prog.calls", reb.switches.calls as f64),
        (
            "switch_prog.ns_per_call",
            ratio(reb.switches.ns as f64, reb.switches.calls as f64),
        ),
        ("switch_prog.agg_pool_hit_ratio", agg),
        ("switch_prog.byte_pool_hit_ratio", byte),
        ("switch_prog.slab_hit_ratio", slab),
        ("host.self_s", host_s),
        ("host.calls", reb.hosts.calls as f64),
        (
            "host.ns_per_call",
            ratio(reb.hosts.ns as f64, reb.hosts.calls as f64),
        ),
        ("host.wake_calls", reb.hosts.wakes as f64),
        ("host.retransmits", reb.hosts.retransmits as f64),
        ("driver.partitions", partitions),
        ("driver.serial_run_s", serial_run_s),
        ("driver.par_run_s", par_run_s),
        ("driver.speedup", ratio(serial_run_s, par_run_s)),
        (
            "driver.program_busy_frac",
            ratio(host_s + switch_s, workers * reb.run_s),
        ),
        ("session.wire_s", reb.wire_s),
        ("session.collect_s", reb.collect_s),
        ("net.events", events),
        ("net.link_packets", reb.net.total_link_packets as f64),
        ("net.link_bytes", reb.net.total_link_bytes as f64),
        ("net.drops", reb.net.drops as f64),
        (
            "net.drop_ratio",
            ratio(reb.net.drops as f64, reb.net.total_link_packets as f64),
        ),
        ("net.hottest_link_util", hottest),
        ("trace.overhead_s", traced_wall - plain.wall_s),
    ])
}
