//! Per-layer tallies of one pass: engine counters, protocol counts,
//! host cost per `Pe` call, and the virtual-time analysis of traces.

use crate::Metrics;
use pcie_sim::{NodeId, ProcId};
use shmem_gdr::{Protocol, ShmemMachine};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Default)]
pub struct Tally {
    // sim-core, summed over the pass's machines (max for the heap)
    pub events: u64,
    pub wakeups: u64,
    pub signals: u64,
    pub stalls: u64,
    pub max_heap: u64,
    // shmem-gdr
    pub ops: [u64; Protocol::COUNT],
    pub progressed: u64,
    pub proxy_gets: u64,
    pub proxy_bytes: u64,
    pub calls: Calls,
    pub obs: ObsTally,
}

impl Tally {
    /// Add the counters of a machine that finished its run.
    pub fn machine(&mut self, m: &ShmemMachine) {
        use std::sync::atomic::Ordering::Relaxed;
        let es = m.sim().stats();
        self.events += es.events_executed;
        self.wakeups += es.wakeups;
        self.signals += es.completions_signalled;
        self.stalls += es.time_advance_stalls;
        self.max_heap = self.max_heap.max(es.max_heap_len as u64);
        for p in 0..m.n_pes() {
            let st = m.pe_state(ProcId(p as u32)).stats.lock().clone();
            for (o, n) in self.ops.iter_mut().zip(st.by_protocol) {
                *o += n;
            }
            self.progressed += st.progressed;
        }
        for n in 0..m.cluster().topo().nnodes() {
            let px = m.proxy(NodeId(n as u32));
            self.proxy_gets += px.gets_served.load(Relaxed);
            self.proxy_bytes += px.bytes.load(Relaxed);
        }
    }
}

/// Host time of one kind of `Pe` call.
#[derive(Clone, Copy, Default)]
pub struct CallTime {
    pub n: u64,
    pub secs: f64,
}

impl CallTime {
    /// Run `f`, timing it when `on`.
    pub fn time<T>(&mut self, on: bool, f: impl FnOnce() -> T) -> T {
        if !on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.secs += t.elapsed().as_secs_f64();
        self.n += 1;
        out
    }

    pub fn mean_us(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.secs * 1e6 / self.n as f64
        }
    }

    fn add(&mut self, o: CallTime) {
        self.n += o.n;
        self.secs += o.secs;
    }
}

/// Host time per `Pe` call kind, as seen from PE 0.
#[derive(Clone, Copy, Default)]
pub struct Calls {
    pub put: CallTime,
    pub get: CallTime,
    pub quiet: CallTime,
    pub barrier: CallTime,
    pub shmalloc: CallTime,
}

impl Calls {
    pub fn add(&mut self, o: &Calls) {
        self.put.add(o.put);
        self.get.add(o.get);
        self.quiet.add(o.quiet);
        self.barrier.add(o.barrier);
        self.shmalloc.add(o.shmalloc);
    }
}

/// Utilisation of one class of simulated link, summed over instances.
#[derive(Clone, Copy, Default)]
struct LinkTally {
    busy_us: f64,
    contended_us: f64,
    peak_queue: u32,
}

/// The `obs_analyze` report of every span-traced machine in a pass.
#[derive(Default)]
pub struct ObsTally {
    /// protocol -> (ops, total critical-path µs), over puts and gets
    protocols: BTreeMap<String, (u64, f64)>,
    /// stage -> total µs
    stages: BTreeMap<String, f64>,
    /// d2h copy engines, P2P PCIe ports, HCA transmit
    links: [LinkTally; 3],
}

const STAGES: [&str; 4] = ["d2h", "rdma", "wakeup", "direct"];
const LINKS: [(&str, &str); 3] = [
    ("gpu-sim.d2h", "/d2h"),
    ("pcie-sim.p2p", "/p2p-"),
    ("ib-sim.tx", "/tx"),
];

impl ObsTally {
    /// Analyze the machine's span trace (a no-op when spans are off).
    pub fn add(&mut self, m: &ShmemMachine) {
        if !m.obs().spans_on() {
            return;
        }
        let rep = obs_analyze::analyze_str(&m.obs().chrome_trace())
            .expect("the recorder's own trace parses");
        for (key, st) in &rep.protocols {
            let proto = key.split_once('/').map_or(key.as_str(), |(_, p)| p);
            let e = self.protocols.entry(proto.to_string()).or_default();
            e.0 += st.count;
            e.1 += st.total_us;
            for (stage, us) in &st.stages {
                *self.stages.entry(stage.clone()).or_default() += us;
            }
        }
        for (name, l) in &rep.links {
            if let Some(i) = LINKS.iter().position(|(_, pat)| name.contains(pat)) {
                let t = &mut self.links[i];
                t.busy_us += l.busy_us;
                t.contended_us += l.contended_us;
                t.peak_queue = t.peak_queue.max(l.peak_queue);
            }
        }
    }

    pub fn put_metrics(&self, m: &mut Metrics) {
        for p in Protocol::ALL {
            let (n, us) = self.protocols.get(p.name()).copied().unwrap_or_default();
            let mean = if n == 0 { 0.0 } else { us / n as f64 };
            m.put(&format!("obs.{}.mean_us", p.name()), mean, "sim_us");
        }
        for s in STAGES {
            let us = self.stages.get(s).copied().unwrap_or(0.0);
            m.put(&format!("obs.stage.{s}_us"), us, "sim_us");
        }
        for ((name, _), l) in LINKS.iter().zip(&self.links) {
            m.put(&format!("{name}_busy_us"), l.busy_us, "sim_us");
            m.put(&format!("{name}_contended_us"), l.contended_us, "sim_us");
            m.put(&format!("{name}_peak_queue"), l.peak_queue as f64, "count");
        }
    }
}
