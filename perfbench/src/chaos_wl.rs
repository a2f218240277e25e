//! `chaos_campaign`: a gdrchaos campaign in each of the base, crash and
//! partition modes. The campaign seed is a benchmark argument
//! (`--campaign-seed`, default 11, a seed CI gates in all three modes);
//! the run's seed sets the order of the modes.
//!
//! Hundreds of short faulted two-PE trials: machine set-up and the
//! fault, membership, recovery and oracle code dominate, while thread
//! handoff and large byte moves hardly matter. The protocol layer is
//! used through retries, typed errors and reroutes.

use crate::{shuffle, Ctx, Pass, Workload};
use chaos::{run_campaign_mode, CampaignMode};
use faults::FaultPlan;
use obs::ObsLevel;
use pcie_sim::ClusterSpec;
use shmem_gdr::{Design, RuntimeConfig, ShmemMachine};
use std::collections::BTreeSet;
use std::time::Instant;

/// Campaign seed unless `--campaign-seed` names another.
pub const DEFAULT_CAMPAIGN_SEED: u64 = 11;

/// Trials per mode.
const TRIALS: u64 = 200;

const MODES: [(CampaignMode, &str); 3] = [
    (CampaignMode::Base, "chaos.mode_s.base"),
    (CampaignMode::Crash, "chaos.mode_s.crash"),
    (CampaignMode::Partition, "chaos.mode_s.partition"),
];

pub struct Campaign {
    campaign_seed: u64,
    /// Mode order within a pass, chosen by the run's seed.
    modes: [(CampaignMode, &'static str); 3],
}

impl Campaign {
    pub fn new(seed: u64, campaign_seed: u64) -> Campaign {
        let mut modes = MODES;
        shuffle(&mut modes, seed);
        Campaign {
            campaign_seed,
            modes,
        }
    }
}

impl Workload for Campaign {
    /// Trials pick their own observability level, so `level` only says
    /// whether this pass's host times are the ones to report.
    fn pass(&mut self, ctx: &mut Ctx, level: ObsLevel, _time_calls: bool) -> Pass {
        let mut pass = Pass::default();
        let (mut violations, mut injected) = (0, 0);
        for (mode, layer) in self.modes {
            let t = Instant::now();
            let (summary, _) = ctx.spans.time("campaign", || {
                run_campaign_mode(self.campaign_seed, TRIALS, mode)
            });
            let wall = t.elapsed().as_secs_f64();
            pass.add_part(wall);
            if level == ObsLevel::Off {
                ctx.layer.insert(layer, wall);
            }
            // one check per trial: it must end without an oracle violation
            let bad: BTreeSet<u64> = summary.violations.iter().map(|v| v.trial).collect();
            for trial in 0..TRIALS {
                ctx.checks.check(!bad.contains(&trial), || {
                    let seed = self.campaign_seed;
                    format!("{mode:?} campaign, seed {seed}, trial {trial}: oracle violation")
                });
            }
            violations += summary.violations.len();
            injected += summary
                .fault_counters
                .iter()
                .filter(|((what, _), _)| what == "injected")
                .map(|(_, n)| n)
                .sum::<u64>();
            pass.fingerprint.push_str(&summary.render());
        }
        let trials = (TRIALS as usize * MODES.len()) as f64;
        ctx.layer.insert("chaos.trials", trials);
        if level == ObsLevel::Off {
            ctx.layer
                .insert("chaos.trial_ms", pass.wall_s() * 1e3 / trials);
        }
        ctx.layer.insert("chaos.violations", violations as f64);
        ctx.layer.insert("faults.injected", injected as f64);
        pass
    }

    /// The builds the campaign's trials make, replayed outside it: one
    /// two-PE machine per trial with that trial's fault plan.
    fn setup(&mut self, ctx: &mut Ctx) -> (f64, u64) {
        let mut secs = 0.0;
        let seed = self.campaign_seed;
        for (mode, _) in self.modes {
            for trial in 0..TRIALS {
                let plan = match mode {
                    CampaignMode::Base => FaultPlan::generate(seed, trial),
                    CampaignMode::Crash => FaultPlan::generate_with_crashes(seed, trial),
                    CampaignMode::Partition => FaultPlan::generate_with_partitions(seed, trial),
                };
                let cfg = RuntimeConfig::tuned(Design::EnhancedGdr)
                    .with_faults(plan)
                    .with_obs(ObsLevel::Counters);
                let t = Instant::now();
                let m = ctx.spans.time("build", || {
                    ShmemMachine::build(ClusterSpec::internode_pair(), cfg)
                });
                secs += t.elapsed().as_secs_f64();
                drop(m);
            }
        }
        (secs, TRIALS * MODES.len() as u64)
    }

    /// Every trial is checked inside the pass.
    fn check(&mut self, _ctx: &mut Ctx) {}
}
