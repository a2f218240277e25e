//! `omb_sweep`: OMB put and get latency over `standard_sizes()` for
//! every buffer configuration and locality, under Enhanced-GDR and
//! under the configurations Host-Pipeline supports, one two-PE machine
//! per point.
//!
//! Two PE threads leave almost no thread handoff, so host time goes to
//! per-event dispatch, protocol selection and byte movement in the
//! hardware models; with one build per point, set-up counts as well.

use crate::tally::{Calls, Tally};
use crate::{geomean, shuffle, Ctx, Pass, SimOut, Workload};
use obs::ObsLevel;
use omb::sweep::{iters_for, standard_sizes};
use omb::{Config, Loc};
use pcie_sim::{ClusterSpec, MemRef};
use shmem_gdr::{Design, Pe, RuntimeConfig, ShmemMachine};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Warm-up iterations before the timed loop, as in `omb::latency`.
const WARMUP: u64 = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Put,
    Get,
}

/// One latency point of the sweep.
#[derive(Clone, Copy)]
struct Point {
    design: Design,
    op: Op,
    intra: bool,
    config: Config,
    bytes: u64,
}

impl Point {
    /// `gdr:put/D-D/inter/8`; the part after the design matches the
    /// names in `BENCH_omb.json`.
    fn key(&self) -> String {
        let design = match self.design {
            Design::HostPipeline => "hp",
            _ => "gdr",
        };
        let op = if self.op == Op::Put { "put" } else { "get" };
        let loc = if self.intra { "intra" } else { "inter" };
        format!("{design}:{op}/{}/{loc}/{}", self.config, self.bytes)
    }

    fn spec(&self) -> ClusterSpec {
        if self.intra {
            ClusterSpec::intranode_pair()
        } else {
            ClusterSpec::internode_pair()
        }
    }
}

/// What each PE hands back from the measured run.
struct PeOut {
    usec: f64,
    calls: Calls,
    /// Where the transferred bytes must have landed (PE 0 only).
    landed: Option<MemRef>,
}

/// Bytes a point moves: a seed-derived pattern, so a transfer that moves
/// the wrong bytes fails the check.
fn pattern(seed: u64, bytes: u64) -> Vec<u8> {
    let w = (seed ^ bytes).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..bytes)
        .map(|i| w.rotate_left((i % 64) as u32) as u8 ^ (i >> 6) as u8)
        .collect()
}

fn alloc(pe: &Pe, loc: Loc, bytes: u64) -> MemRef {
    match loc {
        Loc::Host => pe.malloc_host(bytes),
        Loc::Dev => pe.malloc_dev(bytes),
    }
}

/// Build a pair machine and run the OMB loop of `omb::latency` for `p`
/// — the same calls in the same order, so the virtual-time result is
/// identical — then check that the pattern arrived. Returns the host
/// seconds of the run alone and the latency in virtual µs.
fn measure(
    ctx: &mut Ctx,
    p: &Point,
    pat: &Arc<Vec<u8>>,
    level: ObsLevel,
    time_calls: bool,
    tally: &mut Tally,
) -> (f64, f64) {
    let cfg = RuntimeConfig::tuned(p.design).with_obs(level);
    let m = ctx
        .spans
        .time("build", || ShmemMachine::build(p.spec(), cfg));
    let (bytes, local, domain, op) = (p.bytes, p.config.local, p.config.remote_domain(), p.op);
    let pat2 = pat.clone();
    let tc = time_calls;
    let t = Instant::now();
    let s = ctx.spans.enter("machine_run");
    let outs = m.run(move |pe| {
        let mut c = Calls::default();
        let me = pe.my_pe();
        let mut usec = 0.0;
        let mut landed = None;
        match op {
            Op::Put => {
                let dest = c.shmalloc.time(tc, || pe.shmalloc(bytes + 4096, domain));
                let src = alloc(pe, local, bytes + 4096);
                if me == 0 {
                    pe.write_raw(src, &pat2);
                }
                c.barrier.time(tc, || pe.barrier_all());
                if me == 0 {
                    for _ in 0..WARMUP {
                        c.put.time(tc, || pe.putmem(dest, src, bytes, 1));
                        c.quiet.time(tc, || pe.quiet());
                    }
                    let iters = iters_for(bytes);
                    let t0 = pe.now();
                    for _ in 0..iters {
                        c.put.time(tc, || pe.putmem(dest, src, bytes, 1));
                        c.quiet.time(tc, || pe.quiet());
                    }
                    usec = (pe.now() - t0).as_us_f64() / iters as f64;
                    landed = Some(pe.addr_of(dest, 1));
                }
            }
            Op::Get => {
                let source = c.shmalloc.time(tc, || pe.shmalloc(bytes + 4096, domain));
                if me == 1 {
                    pe.write_raw(pe.addr_of(source, 1), &pat2);
                }
                c.barrier.time(tc, || pe.barrier_all());
                if me == 0 {
                    let dst = alloc(pe, local, bytes + 4096);
                    for _ in 0..WARMUP {
                        c.get.time(tc, || pe.getmem(dst, source, bytes, 1));
                    }
                    let iters = iters_for(bytes);
                    let t0 = pe.now();
                    for _ in 0..iters {
                        c.get.time(tc, || pe.getmem(dst, source, bytes, 1));
                    }
                    usec = (pe.now() - t0).as_us_f64() / iters as f64;
                    landed = Some(dst);
                }
            }
        }
        c.barrier.time(tc, || pe.barrier_all());
        PeOut {
            usec,
            calls: c,
            landed,
        }
    });
    ctx.spans.exit(s);
    let wall = t.elapsed().as_secs_f64();
    tally.machine(&m);
    tally.calls.add(&outs[0].calls);
    ctx.spans.time("analyze", || tally.obs.add(&m));
    let landed = outs[0].landed.expect("PE 0 reports where the bytes landed");
    let ok = ctx.spans.time("verify", || {
        m.cluster()
            .mem()
            .read_bytes(landed, bytes)
            .is_ok_and(|b| b == **pat)
    });
    ctx.checks.check(ok, || {
        format!("{}: landed bytes differ from the source", p.key())
    });
    (wall, outs[0].usec)
}

/// Every point of the sweep, in a fixed order.
fn all_points() -> Vec<Point> {
    let mut v = Vec::new();
    for design in [Design::EnhancedGdr, Design::HostPipeline] {
        for op in [Op::Put, Op::Get] {
            for intra in [true, false] {
                for config in [Config::HH, Config::HD, Config::DH, Config::DD] {
                    // Host-Pipeline has no inter-node H-D / D-H path (paper Table I)
                    let mixed = config.local != config.remote;
                    if design == Design::HostPipeline && !intra && mixed {
                        continue;
                    }
                    for bytes in standard_sizes() {
                        v.push(Point {
                            design,
                            op,
                            intra,
                            config,
                            bytes,
                        });
                    }
                }
            }
        }
    }
    v
}

pub struct OmbSweep {
    /// Points in seed-shuffled order.
    points: Vec<Point>,
    patterns: BTreeMap<u64, Arc<Vec<u8>>>,
    bench_omb: PathBuf,
    /// Latency per point key, from the first pass.
    values: BTreeMap<String, f64>,
}

impl OmbSweep {
    pub fn new(seed: u64, root: &Path) -> OmbSweep {
        let mut points = all_points();
        shuffle(&mut points, seed);
        let patterns = standard_sizes()
            .into_iter()
            .map(|b| (b, Arc::new(pattern(seed, b))))
            .collect();
        OmbSweep {
            points,
            patterns,
            bench_omb: root.join("BENCH_omb.json"),
            values: BTreeMap::new(),
        }
    }
}

impl Workload for OmbSweep {
    fn pass(&mut self, ctx: &mut Ctx, level: ObsLevel, time_calls: bool) -> Pass {
        let mut pass = Pass::default();
        let mut values = BTreeMap::new();
        for p in &self.points {
            let pat = &self.patterns[&p.bytes];
            let (wall, usec) = measure(ctx, p, pat, level, time_calls, &mut pass.tally);
            pass.add_part(wall);
            values.insert(p.key(), usec);
        }
        let series = |prefix: &str| -> Vec<f64> {
            values
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(_, &v)| v)
                .collect()
        };
        pass.sim = SimOut {
            put_us: Some(geomean(&series("gdr:put/"))),
            get_us: Some(geomean(&series("gdr:get/"))),
            app_us: None,
            hp_us: Some(geomean(&series("hp:put/"))),
        };
        pass.fingerprint = values.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
        if self.values.is_empty() {
            self.values = values;
        }
        pass
    }

    fn setup(&mut self, ctx: &mut Ctx) -> (f64, u64) {
        let mut secs = 0.0;
        for p in &self.points {
            let cfg = RuntimeConfig::tuned(p.design).with_obs(ObsLevel::Off);
            let t = Instant::now();
            let m = ctx
                .spans
                .time("build", || ShmemMachine::build(p.spec(), cfg));
            secs += t.elapsed().as_secs_f64();
            drop(m);
        }
        (secs, self.points.len() as u64)
    }

    /// The inter-node D-D points must equal `BENCH_omb.json` `results[]`
    /// exactly, both as this sweep measured them and as `omb::latency`
    /// measures them.
    fn check(&mut self, ctx: &mut Ctx) {
        let text = std::fs::read_to_string(&self.bench_omb).unwrap_or_default();
        let pinned = bench_omb_results(&text);
        ctx.checks.check(pinned.len() == 10, || {
            format!(
                "{}: expected 10 results, found {}",
                self.bench_omb.display(),
                pinned.len()
            )
        });
        for (name, usec) in pinned {
            let ours = self.values.get(&format!("gdr:{name}")).copied();
            ctx.checks.check(ours == Some(usec), || {
                format!("{name}: sweep measured {ours:?}, BENCH_omb.json pins {usec}")
            });
            let Some(bytes) = name.rsplit('/').next().and_then(|b| b.parse().ok()) else {
                ctx.checks
                    .check(false, || format!("{name}: no size in the name"));
                continue;
            };
            let rc = RuntimeConfig::tuned(Design::EnhancedGdr).with_obs(ObsLevel::Off);
            let gdr = Design::EnhancedGdr;
            let omb = ctx.spans.time("omb_latency", || {
                if name.starts_with("get/") {
                    omb::get_latency(gdr, rc, false, Config::DD, bytes)
                } else {
                    omb::put_latency(gdr, rc, false, Config::DD, bytes)
                }
            });
            ctx.checks.check(omb.usec == usec, || {
                format!(
                    "{name}: omb::latency gives {}, BENCH_omb.json pins {usec}",
                    omb.usec
                )
            });
        }
    }
}

/// `(name, usec)` of every entry of `results[]`, read with plain string
/// matching (the file is written by this repository's `bench_omb`).
fn bench_omb_results(text: &str) -> Vec<(String, f64)> {
    let Some(start) = text.find("\"results\":[") else {
        return Vec::new();
    };
    let body = &text[start..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    let field = |entry: &str, key: &str| -> Option<String> {
        let at = entry.find(key)? + key.len();
        let rest = &entry[at..];
        let end = rest.find([',', '"', '}']).unwrap_or(rest.len());
        Some(rest[..end].to_string())
    };
    body.split("{\"name\":\"")
        .skip(1)
        .filter_map(|e| {
            let name = e[..e.find('"')?].to_string();
            let usec = field(e, "\"usec\":")?.parse().ok()?;
            Some((name, usec))
        })
        .collect()
}
