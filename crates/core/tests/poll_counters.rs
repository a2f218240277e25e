//! Engine counters of a polling workload, pinned exactly.
//!
//! PE 0 issues inter-node 8 B D-D puts, each followed by `quiet`, while
//! PE 1 polls its barrier flag. The poll runs as an engine step on PE
//! 0's thread, which must leave the event order untouched: every
//! counter except `handoffs` equals the plain thread-polling loop's.

use pcie_sim::ClusterSpec;
use shmem_gdr::{Design, Domain, RuntimeConfig, ShmemMachine};

#[test]
fn polling_peer_keeps_event_order_and_costs_no_handoffs() {
    let m = ShmemMachine::build(
        ClusterSpec::internode_pair(),
        RuntimeConfig::tuned(Design::EnhancedGdr),
    );
    let ends = m.run(|pe| {
        let dest = pe.shmalloc(4096, Domain::Gpu);
        if pe.my_pe() == 0 {
            let src = pe.malloc_dev(4096);
            for _ in 0..200 {
                pe.putmem(dest, src, 8, 1);
                pe.quiet();
            }
        }
        pe.barrier_all();
        pe.now().0
    });
    assert_eq!(ends, [713_670_102, 716_602_502]);
    let es = m.sim().stats();
    assert_eq!(es.events_executed, 1182);
    assert_eq!(es.wakeups, 974);
    assert_eq!(es.completions_signalled, 408);
    assert_eq!(es.time_advance_stalls, 1182);
    assert_eq!(es.max_heap_len, 4);
    // task starts, exits and the collective set-up; none per put
    assert_eq!(es.handoffs, 10, "{es:?}");
}
