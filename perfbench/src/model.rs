//! Model probe, run by every workload outside `wall_s`: the seven paper
//! anchor points of `crates/core/tests/calibration.rs` (calibration
//! anchors, not held-out data) measured with `omb::latency`, and a
//! 4-PE full-physics Stencil2D. It gives `paper_err_pct`, and the
//! virtual-time metrics a workload does not measure itself.
//!
//! Also the engine dispatch probe of the traced run.

use crate::{geomean, median, Ctx};
use apps_sim::{stencil2d, StencilParams};
use obs::ObsLevel;
use omb::Config;
use pcie_sim::ClusterSpec;
use shmem_gdr::{Design, RuntimeConfig, ShmemMachine};
use sim_core::{Sim, SimDuration};
use std::time::Instant;

const GDR: Design = Design::EnhancedGdr;
const HP: Design = Design::HostPipeline;

/// Paper §I and §V-B point values, as listed in calibration.rs:
/// (design, get?, intra-node?, buffers, bytes, paper µs).
const ANCHORS: [(Design, bool, bool, Config, u64, f64); 7] = [
    (GDR, false, true, Config::HD, 8, 2.2),
    (GDR, true, true, Config::HD, 4, 2.02),
    (HP, false, true, Config::HD, 4, 6.2),
    (GDR, false, false, Config::DD, 8, 3.13),
    (HP, false, false, Config::DD, 8, 20.9),
    (GDR, false, false, Config::HD, 8, 2.81),
    (GDR, false, false, Config::HD, 4096, 3.7),
];

pub struct Probe {
    pub paper_err_pct: f64,
    /// Geomean of the Enhanced-GDR put anchors.
    pub put_us: f64,
    /// The Enhanced-GDR get anchor.
    pub get_us: f64,
    /// Geomean of the Host-Pipeline put anchors.
    pub hp_us: f64,
    /// 4-PE full-physics Stencil2D application time, Enhanced-GDR.
    pub app_us: f64,
}

pub fn probe(ctx: &mut Ctx) -> Probe {
    let s = ctx.spans.enter("probe");
    let (mut put, mut get, mut hp, mut err) = (vec![], vec![], vec![], 0.0);
    for (design, is_get, intra, config, bytes, paper_us) in ANCHORS {
        let rc = RuntimeConfig::tuned(design).with_obs(ObsLevel::Off);
        let ours = ctx.spans.time("omb_latency", || {
            if is_get {
                omb::get_latency(design, rc, intra, config, bytes)
            } else {
                omb::put_latency(design, rc, intra, config, bytes)
            }
        });
        err += (ours.usec - paper_us).abs() / paper_us;
        match (design, is_get) {
            (Design::HostPipeline, _) => hp.push(ours.usec),
            (_, true) => get.push(ours.usec),
            (_, false) => put.push(ours.usec),
        }
    }

    let (n, iters) = (32, 5);
    let want: f64 = ctx.spans.time("serial_reference", || {
        stencil2d::serial_reference(n, iters).iter().sum()
    });
    let m = ctx.spans.time("build", || {
        ShmemMachine::build(
            ClusterSpec::wilkes(2, 2),
            RuntimeConfig::tuned(GDR).with_obs(ObsLevel::Off),
        )
    });
    let r = ctx.spans.time("stencil2d_run", || {
        stencil2d::run(&m, StencilParams::validate(n, iters))
    });
    let got = r.checksum.unwrap_or(f64::NAN);
    ctx.checks
        .check((got - want).abs() < 1e-9 * want.abs().max(1.0), || {
            format!("4-PE Stencil2D checksum {got}, serial reference {want}")
        });
    ctx.spans.exit(s);
    Probe {
        paper_err_pct: err * 100.0 / ANCHORS.len() as f64,
        put_us: geomean(&put),
        get_us: geomean(&get),
        hp_us: geomean(&hp),
        app_us: r.elapsed.as_us_f64(),
    }
}

/// Host ns per event of `Sim::drain` over 100k no-op events (the shape
/// of `engine_micro`'s `engine_100k_events`): dispatch without handoff.
pub fn drain_probe(ctx: &mut Ctx) -> f64 {
    const EVENTS: u64 = 100_000;
    let s = ctx.spans.enter("probe");
    let mut samples = Vec::new();
    for _ in 0..7 {
        let sim = Sim::new();
        sim.with_sched(|s| {
            for i in 0..EVENTS {
                s.schedule_in(SimDuration::from_ns(i), Box::new(|_| {}));
            }
        });
        let t = Instant::now();
        ctx.spans.time("drain", || sim.drain());
        let dt = t.elapsed().as_secs_f64();
        assert_eq!(sim.stats().events_executed, EVENTS, "drain ran every event");
        samples.push(dt * 1e9 / EVENTS as f64);
    }
    ctx.spans.exit(s);
    median(&samples)
}
