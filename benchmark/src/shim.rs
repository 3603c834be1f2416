//! Timing shims: wrappers that time and count every callback the
//! simulator makes into a host or switch program, measuring the program
//! layer from outside without changing what it does.
//!
//! Each wrapper keeps its own counters (no sharing on the hot path, so
//! the partitioned driver's workers never contend) and folds them into a
//! shared [`Tally`] once, when the simulator drops it.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use flare_core::host::DenseFlareHost;
use flare_core::op::Sum;
use flare_core::pool::PoolStats;
use flare_core::switch_prog::{FlareDenseProgram, ProgramStats};
use flare_net::{HostCtx, HostProgram, NetPacket, PortId, SwitchCtx, SwitchProgram};

/// Counters of one program layer, summed over every wrapped program.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Wall ns spent inside the programs' callbacks.
    pub ns: u64,
    /// Callbacks made.
    pub calls: u64,
    /// Of which timer wakes (hosts only).
    pub wakes: u64,
    /// Blocks re-sent by retransmission timers (hosts only).
    pub retransmits: u64,
    /// Buffer-pool and slab counters (switches only).
    pub pools: ProgramStats,
}

/// Program state a wrapper reads into the [`Tally`] when it is dropped.
pub trait Inspect {
    /// Add this program's own counters to `tally`.
    fn inspect(&self, tally: &mut Tally);
}

impl Inspect for DenseFlareHost<f32> {
    fn inspect(&self, tally: &mut Tally) {
        tally.retransmits += self.retransmits;
    }
}

impl Inspect for FlareDenseProgram<f32, Sum> {
    fn inspect(&self, tally: &mut Tally) {
        let s = self.stats();
        let p = &mut tally.pools;
        add_pool(&mut p.agg_pool, s.agg_pool);
        add_pool(&mut p.byte_pool, s.byte_pool);
        p.slab.direct += s.slab.direct;
        p.slab.collisions += s.slab.collisions;
        p.slab.stale_rejected += s.slab.stale_rejected;
    }
}

fn add_pool(a: &mut PoolStats, b: PoolStats) {
    a.gets += b.gets;
    a.hits += b.hits;
    a.puts += b.puts;
}

/// Hit ratios `(aggregation pool, byte pool, slab)` of switch counters.
/// These depend on thread timing under the partitioned driver, so they
/// sit outside the determinism contract.
pub fn pool_ratios(s: &ProgramStats) -> (f64, f64, f64) {
    (
        crate::ratio(s.agg_pool.hits as f64, s.agg_pool.gets as f64),
        crate::ratio(s.byte_pool.hits as f64, s.byte_pool.gets as f64),
        crate::ratio(
            s.slab.direct as f64,
            (s.slab.direct + s.slab.collisions) as f64,
        ),
    )
}

/// A program wrapped so that every callback is timed and counted.
pub struct Timed<P: Inspect> {
    inner: P,
    ns: u64,
    calls: u64,
    wakes: u64,
    sink: Arc<Mutex<Tally>>,
}

impl<P: Inspect> Timed<P> {
    /// Wrap `inner`; its counters land in `sink` when the wrapper drops.
    pub fn new(inner: P, sink: Arc<Mutex<Tally>>) -> Self {
        Self {
            inner,
            ns: 0,
            calls: 0,
            wakes: 0,
            sink,
        }
    }

    fn timed(&mut self, f: impl FnOnce(&mut P)) {
        let t = Instant::now();
        f(&mut self.inner);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
    }
}

impl<P: Inspect> Drop for Timed<P> {
    fn drop(&mut self) {
        // A poisoned tally means a program panicked; its counters no
        // longer matter and a panic here would abort the process.
        if let Ok(mut t) = self.sink.lock() {
            t.ns += self.ns;
            t.calls += self.calls;
            t.wakes += self.wakes;
            self.inner.inspect(&mut t);
        }
    }
}

impl<P: HostProgram + Inspect> HostProgram for Timed<P> {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.timed(|p| p.on_start(ctx));
    }

    fn on_packet(&mut self, ctx: &mut HostCtx<'_>, pkt: NetPacket) {
        self.timed(|p| p.on_packet(ctx, pkt));
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, tag: u64) {
        self.wakes += 1;
        self.timed(|p| p.on_wake(ctx, tag));
    }
}

impl<P: SwitchProgram + Inspect> SwitchProgram for Timed<P> {
    fn matches(&self, pkt: &NetPacket) -> bool {
        self.inner.matches(pkt)
    }

    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, in_port: PortId, pkt: NetPacket) {
        self.timed(|p| p.on_packet(ctx, in_port, pkt));
    }
}
