//! Micro-benchmarks of the simulator itself: event throughput, a task
//! waking itself, put-call overhead, machine construction.
//!
//! Plain wall-clock harness (no external benchmarking crate — the
//! build environment resolves crates offline). Run with
//! `cargo bench -p bench-gdr --bench engine_micro`; set
//! `GDR_BENCH_ITERS=n` to change the sample count. This is also the
//! regression vehicle for the observability hot path: compare runs
//! with `GDR_SHMEM_OBS=off` vs `=spans`.

use pcie_sim::ClusterSpec;
use shmem_gdr::{Design, Domain, RuntimeConfig, ShmemMachine};
use sim_core::{Sim, SimDuration};
use std::time::Instant;

fn iters() -> u32 {
    std::env::var("GDR_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
}

/// Run `f` once to warm up, then `n` timed samples; report best and
/// mean (best-of filters scheduler noise, like criterion's lower bound).
fn bench<T>(name: &str, n: u32, mut f: impl FnMut() -> T) {
    f();
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..n {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        best = best.min(dt);
        total += dt;
    }
    println!("{name:<28} best {best:9.3} ms   mean {:9.3} ms   ({n} samples)", total / n as f64);
}

fn engine_event_throughput(n: u32) {
    bench("engine_100k_events", n, || {
        let sim = Sim::new();
        sim.with_sched(|s| {
            for i in 0..100_000u64 {
                s.schedule_in(SimDuration::from_ns(i), Box::new(|_| {}));
            }
        });
        sim.drain();
        sim.stats().events_executed
    });
}

fn engine_self_wakes(n: u32) {
    bench("engine_100k_self_wakes", n, || {
        let sim = Sim::new();
        sim.run(1, |ctx| {
            for _ in 0..100_000 {
                ctx.advance(SimDuration::from_ns(1));
            }
        });
        sim.stats().wakeups
    });
}

fn shmem_put_roundtrips(n: u32) {
    bench("shmem_1k_puts_quiet", n, || {
        let m = ShmemMachine::build(
            ClusterSpec::internode_pair(),
            RuntimeConfig::tuned(Design::EnhancedGdr),
        );
        m.run(|pe| {
            let dest = pe.shmalloc(4096, Domain::Gpu);
            if pe.my_pe() == 0 {
                let src = pe.malloc_dev(4096);
                for _ in 0..1000 {
                    pe.putmem(dest, src, 8, 1);
                }
                pe.quiet();
            }
            pe.barrier_all();
        });
    });
}

fn machine_construction(n: u32) {
    bench("build_16_node_machine", n, || {
        ShmemMachine::build(
            ClusterSpec::wilkes(16, 2),
            RuntimeConfig::tuned(Design::EnhancedGdr),
        )
    });
}

fn main() {
    let n = iters();
    engine_event_throughput(n);
    engine_self_wakes(n);
    shmem_put_roundtrips(n);
    machine_construction(n);
}
