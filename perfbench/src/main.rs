//! Two-clock benchmark of the GDR OpenSHMEM simulator.
//!
//! Host clock: what the simulator costs to run (wall, set-up, memory).
//! Virtual clock: what the modelled cluster would take (OMB latencies,
//! Stencil2D application time). See `perfbench/README.md` for the
//! workloads, the metrics and the layer each one belongs to.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1 --root DIR
//!           [--out DIR] [--campaign-seed N]
//! ```
//!
//! Prints one JSON result object as the last line of standard output.

mod chaos_wl;
mod model;
mod omb_sweep;
mod rusage;
mod spans;
mod stencil;
mod tally;

use obs::ObsLevel;
use spans::Spans;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use tally::Tally;

/// Set-up repetitions per run (`setup_s` is their median): at least
/// `MIN_SETUP_REPS`, and more while they take under `SETUP_BUDGET_S`.
const MIN_SETUP_REPS: usize = 5;
const MAX_SETUP_REPS: usize = 50;
const SETUP_BUDGET_S: f64 = 1.0;

/// State every workload stage shares.
pub struct Ctx {
    pub spans: Spans,
    pub checks: Checks,
    /// Workload-specific per-layer values (`apps.*`, `chaos.*`).
    pub layer: BTreeMap<&'static str, f64>,
}

/// Correctness-check tally behind `attempted`, `failed` and `pass_frac`.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// Virtual-time results a pass produced (µs); `None` falls back to the
/// model probe (see `model::Probe`).
#[derive(Clone, Copy, Default)]
pub struct SimOut {
    pub put_us: Option<f64>,
    pub get_us: Option<f64>,
    pub app_us: Option<f64>,
    pub hp_us: Option<f64>,
}

/// One pass of a workload's fixed work.
#[derive(Default)]
pub struct Pass {
    /// Host seconds of each unit of the fixed work, in a fixed order,
    /// without machine builds and checks.
    pub parts: Vec<f64>,
    pub sim: SimOut,
    /// Everything in the pass that must repeat exactly between passes.
    pub fingerprint: String,
    pub tally: Tally,
}

impl Pass {
    /// Count `secs` of host time for the next unit of the fixed work.
    pub fn add_part(&mut self, secs: f64) {
        self.parts.push(secs);
    }

    pub fn wall_s(&self) -> f64 {
        self.parts.iter().sum()
    }
}

/// Host time of the fixed work over several passes: the sum over its
/// units of each unit's median time, so that a burst of host noise
/// during one unit of one pass moves the result little.
fn wall_of(passes: &[Pass]) -> f64 {
    (0..passes[0].parts.len())
        .map(|i| median(&passes.iter().map(|p| p.parts[i]).collect::<Vec<_>>()))
        .sum()
}

pub trait Workload {
    /// Run the fixed work once with observability at `level`;
    /// `time_calls` also times each `Pe` call from PE 0.
    fn pass(&mut self, ctx: &mut Ctx, level: ObsLevel, time_calls: bool) -> Pass;
    /// Build every machine one pass builds, without running them.
    /// Returns (host seconds spent in `ShmemMachine::build`, builds).
    fn setup(&mut self, ctx: &mut Ctx) -> (f64, u64);
    /// Correctness checks that are not part of a pass.
    fn check(&mut self, ctx: &mut Ctx);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    out: Option<PathBuf>,
    campaign_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {k}"))?;
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or(format!("missing --{k}"));
    let num =
        |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("--{k}: {e}")) };
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: get("workload")?,
        seed: num("seed")?,
        seconds: seconds as f64,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
        root: PathBuf::from(get("root")?),
        out: kv.get("out").map(PathBuf::from),
        campaign_seed: match kv.get("campaign-seed") {
            Some(v) => v.parse().map_err(|e| format!("--campaign-seed: {e}"))?,
            None => chaos_wl::DEFAULT_CAMPAIGN_SEED,
        },
    })
}

/// SplitMix64 step: the benchmark's seed-derived choices.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed-derived Fisher-Yates shuffle.
pub fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut s = seed;
    for i in (1..v.len()).rev() {
        v.swap(i, (splitmix(&mut s) % (i as u64 + 1)) as usize);
    }
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload does not reach).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Untraced run: passes until the next one would end past `seconds`.
fn timed_passes(w: &mut dyn Workload, ctx: &mut Ctx, seconds: f64) -> Vec<Pass> {
    let t0 = Instant::now();
    let mut passes = Vec::new();
    let mut lens = Vec::new();
    loop {
        let t = Instant::now();
        let s = ctx.spans.enter("pass");
        passes.push(w.pass(ctx, ObsLevel::Off, false));
        ctx.spans.exit(s);
        lens.push(t.elapsed().as_secs_f64());
        if t0.elapsed().as_secs_f64() + median(&lens) > seconds {
            return passes;
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "omb_sweep" => Box::new(omb_sweep::OmbSweep::new(args.seed, &args.root)),
        "stencil2d_64" => Box::new(stencil::Stencil::new(args.seed)),
        "chaos_campaign" => Box::new(chaos_wl::Campaign::new(args.seed, args.campaign_seed)),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx {
        spans: Spans::new(args.trace),
        checks: Checks::default(),
        layer: BTreeMap::new(),
    };

    let s = ctx.spans.enter("setup");
    let mut setups = Vec::new();
    let mut builds = 0;
    while setups.len() < MIN_SETUP_REPS
        || (setups.iter().sum::<f64>() < SETUP_BUDGET_S && setups.len() < MAX_SETUP_REPS)
    {
        let (secs, n) = w.setup(&mut ctx);
        setups.push(secs);
        builds = n;
    }
    ctx.spans.exit(s);

    // traced run: one untraced pass (host counters, call timing) and one
    // span-traced pass (virtual-time stages), instead of a timed loop
    let mut usage = rusage::Usage::default();
    let passes = if args.trace {
        let u0 = rusage::now();
        let s = ctx.spans.enter("pass");
        let plain = w.pass(&mut ctx, ObsLevel::Off, true);
        ctx.spans.exit(s);
        usage = rusage::now().since(u0);
        let s = ctx.spans.enter("traced_pass");
        let traced = w.pass(&mut ctx, ObsLevel::Spans, false);
        ctx.spans.exit(s);
        vec![plain, traced]
    } else {
        timed_passes(w.as_mut(), &mut ctx, args.seconds)
    };

    let s = ctx.spans.enter("check");
    w.check(&mut ctx);
    for p in &passes[1..] {
        ctx.checks
            .check(p.fingerprint == passes[0].fingerprint, || {
                "virtual-time results differ between two passes of the same work".into()
            });
    }
    ctx.spans.exit(s);
    let probe = model::probe(&mut ctx);

    let base = &passes[0];
    for (i, p) in passes.iter().enumerate() {
        eprintln!(
            "perfbench: pass {i}: wall {:.3} s, sim-core.events {}, sim_hp_us {:?}",
            p.wall_s(),
            p.tally.events,
            p.sim.hp_us
        );
    }
    let sim = base.sim;
    let mut m = Metrics::default();
    if !args.trace {
        m.put("wall_s", wall_of(&passes), "s");
        m.put("setup_s", median(&setups), "s");
        m.put("peak_rss_mb", rusage::now().maxrss_kb / 1024.0, "MB");
        let fail = ratio(ctx.checks.failed as f64, ctx.checks.attempted as f64);
        m.put("pass_frac", 1.0 - fail, "ratio");
        m.put("sim_put_us", sim.put_us.unwrap_or(probe.put_us), "sim_us");
        m.put("sim_get_us", sim.get_us.unwrap_or(probe.get_us), "sim_us");
        m.put("sim_app_us", sim.app_us.unwrap_or(probe.app_us), "sim_us");
        m.put("sim_hp_us", sim.hp_us.unwrap_or(probe.hp_us), "sim_us");
        m.put("paper_err_pct", probe.paper_err_pct, "%");
    } else {
        let drain = model::drain_probe(&mut ctx);
        let traced = &passes[1];
        per_layer(
            &mut m,
            base,
            traced,
            usage,
            &ctx,
            drain,
            median(&setups),
            builds,
        );
        if let Some(dir) = &args.out {
            let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
            let written = std::fs::create_dir_all(dir)
                .and_then(|_| std::fs::write(&path, ctx.spans.to_json()));
            if let Err(e) = written {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    let correct = ctx.checks.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ctx.checks.attempted,
        ctx.checks.failed,
        m.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Span names whose self time is reported as `self_s.<name>`.
const SPAN_NAMES: [&str; 14] = [
    "setup",
    "pass",
    "traced_pass",
    "check",
    "probe",
    "build",
    "machine_run",
    "stencil2d_run",
    "campaign",
    "verify",
    "analyze",
    "omb_latency",
    "serial_reference",
    "drain",
];

#[allow(clippy::too_many_arguments)]
fn per_layer(
    m: &mut Metrics,
    plain: &Pass,
    traced: &Pass,
    u: rusage::Usage,
    ctx: &Ctx,
    drain_ns: f64,
    setup_s: f64,
    builds: u64,
) {
    let t = &plain.tally;
    let ev = t.events as f64;
    // engine, handoff side
    m.put("sim-core.events", ev, "count");
    m.put("sim-core.wakeups", t.wakeups as f64, "count");
    m.put(
        "sim-core.wakeups_per_event",
        ratio(t.wakeups as f64, ev),
        "ratio",
    );
    m.put("sim-core.stalls", t.stalls as f64, "count");
    m.put("sim-core.signals", t.signals as f64, "count");
    m.put("sim-core.max_heap", t.max_heap as f64, "count");
    m.put("host.user_s", u.user_s, "s");
    m.put("host.sys_s", u.sys_s, "s");
    m.put("host.vcsw", u.vcsw, "count");
    m.put("host.nivcsw", u.nivcsw, "count");
    m.put("host.vcsw_per_event", ratio(u.vcsw, ev), "ratio");
    // engine, dispatch side
    m.put(
        "sim-core.ns_per_event",
        ratio(plain.wall_s() * 1e9, ev),
        "ns",
    );
    m.put("sim-core.drain_ns_per_event", drain_ns, "ns");
    // set-up
    m.put("setup.builds", builds as f64, "count");
    m.put("setup.build_ms", ratio(setup_s * 1e3, builds as f64), "ms");
    let c = &t.calls;
    m.put("shmem-gdr.shmalloc_us", c.shmalloc.mean_us(), "us");
    // shmem-gdr host cost per call
    m.put("shmem-gdr.put_call_us", c.put.mean_us(), "us");
    m.put("shmem-gdr.get_call_us", c.get.mean_us(), "us");
    m.put("shmem-gdr.quiet_call_us", c.quiet.mean_us(), "us");
    m.put("shmem-gdr.barrier_call_us", c.barrier.mean_us(), "us");
    // shmem-gdr virtual-time counts
    for p in shmem_gdr::Protocol::ALL {
        m.put(
            &format!("shmem-gdr.ops.{}", p.name()),
            t.ops[p as usize] as f64,
            "count",
        );
    }
    m.put("shmem-gdr.progressed", t.progressed as f64, "count");
    m.put("shmem-gdr.proxy.gets_served", t.proxy_gets as f64, "count");
    m.put("shmem-gdr.proxy.bytes", t.proxy_bytes as f64, "bytes");
    // virtual time per protocol, stage and link (traced pass)
    traced.tally.obs.put_metrics(m);
    // apps, chaos and faults (workload-specific; 0 where not reached)
    for (name, unit) in WORKLOAD_LAYER {
        m.put(name, ctx.layer.get(name).copied().unwrap_or(0.0), unit);
    }
    m.put(
        "trace.overhead_pct",
        (ratio(traced.wall_s(), plain.wall_s()) - 1.0) * 100.0,
        "%",
    );
    let selfs = ctx.spans.self_times();
    for name in SPAN_NAMES {
        m.put(
            &format!("self_s.{name}"),
            selfs.get(name).copied().unwrap_or(0.0),
            "s",
        );
    }
}

/// Per-layer metrics only some workloads reach, with their units.
const WORKLOAD_LAYER: [(&str, &str); 10] = [
    ("apps.run_s.hp", "s"),
    ("apps.run_s.gdr", "s"),
    ("apps.check_s", "s"),
    ("chaos.trials", "count"),
    ("chaos.trial_ms", "ms"),
    ("chaos.mode_s.base", "s"),
    ("chaos.mode_s.crash", "s"),
    ("chaos.mode_s.partition", "s"),
    ("chaos.violations", "count"),
    ("faults.injected", "count"),
];

/// Named metrics in output order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
