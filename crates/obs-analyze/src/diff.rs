//! A/B comparison of two reports with a regression threshold.
//!
//! `gdrprof diff baseline.json candidate.json --threshold 10` compares
//! every gated metric of the two reports: mean critical-path latency
//! per `op/protocol` key, plus the fault, contention, SLO, membership
//! and partition rollups. [`SECTIONS`] lists those metrics in render
//! order, each with the [`Rule`] that decides a regression and the exit
//! code it trips; [`DiffReport::exit_code`] gates CI on the result.

use crate::report::{LinkStat, ProtoStat, Report};
use obs::json::ObjWriter;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// How a section decides that the candidate (`b`) regressed against
/// the baseline (`a`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Rule {
    /// A microsecond metric: regressed when `b` exceeds `a` by more
    /// than the threshold, as a percentage of `a`.
    Relative,
    /// A 0..=1 fraction where lower is worse: regressed when it fell by
    /// more than the threshold, in percentage points.
    PointsDrop,
    /// A 0..=1 fraction where higher is worse: regressed when it rose by
    /// more than the threshold, in percentage points.
    PointsRise,
    /// An event count: regressed whenever `b` exceeds `a`.
    CountGrows,
}

impl Rule {
    /// Signed change from `a` to `b` in the rule's unit (percent of `a`,
    /// percentage points, or events); `None` when a side is missing or
    /// a relative change has no base.
    fn delta(self, a: Option<f64>, b: Option<f64>) -> Option<f64> {
        let (a, b) = (a?, b?);
        match self {
            Rule::Relative if a > 0.0 => Some((b - a) / a * 100.0),
            Rule::Relative => None,
            Rule::PointsDrop | Rule::PointsRise => Some((b - a) * 100.0),
            Rule::CountGrows => Some(b - a),
        }
    }

    fn regressed(self, delta: Option<f64>, threshold_pct: f64) -> bool {
        delta.is_some_and(|d| match self {
            Rule::Relative | Rule::PointsRise => d > threshold_pct,
            Rule::PointsDrop => -d > threshold_pct,
            Rule::CountGrows => d > 0.0,
        })
    }

    fn show(self, v: Option<f64>) -> String {
        match (self, v) {
            (_, None) => "-".to_string(),
            (Rule::Relative, Some(us)) => format!("{us:.3}us"),
            (Rule::PointsDrop | Rule::PointsRise, Some(f)) => format!("{:.1}%", f * 100.0),
            (Rule::CountGrows, Some(n)) => format!("{n}"),
        }
    }

    fn show_delta(self, d: Option<f64>) -> String {
        match (self, d) {
            (_, None) => "n/a".to_string(),
            (Rule::Relative, Some(d)) => format!("{d:+.1}%"),
            (Rule::PointsDrop | Rule::PointsRise, Some(d)) => format!("{d:+.1}pp"),
            (Rule::CountGrows, Some(d)) => format!("{d:+}"),
        }
    }
}

/// One report's view of a section: key -> (value, whether that report
/// exercised the metric at all).
type Side = BTreeMap<String, (f64, bool)>;

/// Every entry of a per-key report section, read by `f`.
fn per_key<V>(map: &BTreeMap<String, V>, f: impl Fn(&V) -> (f64, bool)) -> Side {
    map.iter().map(|(k, v)| (k.clone(), f(v))).collect()
}

/// A whole-report metric: a single key.
fn one(key: &str, value: f64, active: bool) -> Side {
    [(key.to_string(), (value, active))].into()
}

/// One gated metric of the diff.
#[derive(Debug)]
pub struct Section {
    /// Section name on JSON rows; the two metrics of the membership
    /// and partition rollups share one.
    pub name: &'static str,
    /// Text heading above the section's rows, printed once for a run of
    /// sections that share it (latency rows have none).
    pub title: &'static str,
    pub rule: Rule,
    /// `gdrprof diff` exit code when a row of this section regresses.
    pub gate: u8,
    /// Value of a key only the other report has: what an idle metric
    /// reads, or `None` for the latency of a new or vanished op.
    absent: Option<f64>,
    /// The section's values in one report.
    side: fn(&Report) -> Side,
}

/// Every gated metric, in render order (gates never decrease).
pub const SECTIONS: [Section; 10] = [
    Section {
        name: "latency",
        title: "",
        rule: Rule::Relative,
        gate: 4,
        absent: None,
        side: |r| per_key(&r.protocols, |s| (s.mean_us(), true)),
    },
    Section {
        name: "recovery",
        title: "recovery-rate:",
        rule: Rule::PointsDrop,
        gate: 4,
        absent: Some(1.0),
        side: |r| per_key(&r.faults, |f| (f.recovery_rate(), f.faulted_ops > 0)),
    },
    Section {
        name: "partial",
        title: "partial-delivery (bytes landed):",
        rule: Rule::PointsDrop,
        gate: 4,
        absent: Some(1.0),
        side: |r| per_key(&r.faults, |f| (f.delivered_fraction(), f.partials > 0)),
    },
    Section {
        name: "health",
        title: "promote-rate (demotions recovered):",
        rule: Rule::PointsDrop,
        gate: 4,
        absent: Some(1.0),
        side: |r| per_key(&r.health, |h| (h.promote_rate(), h.demotes > 0)),
    },
    Section {
        name: "contention",
        title: "link-contention (fraction of trace contended):",
        rule: Rule::PointsRise,
        gate: 5,
        absent: Some(0.0),
        side: |r| {
            let frac = |l: &LinkStat| l.contended_fraction(r.trace_span_us);
            per_key(&r.links, |l| (frac(l), l.contended_windows > 0))
        },
    },
    Section {
        name: "slo",
        title: "slo-violations (windowed metrics):",
        rule: Rule::CountGrows,
        gate: 6,
        absent: None,
        side: |r| one("violations", r.slo_violations as f64, r.windows > 0),
    },
    Section {
        name: "membership",
        title: "membership (fail-stop view):",
        rule: Rule::Relative,
        gate: 7,
        absent: None,
        side: |r| {
            let m = &r.membership;
            one("view-convergence", m.convergence_us, m.pe_dead > 0)
        },
    },
    Section {
        name: "membership",
        title: "membership (fail-stop view):",
        rule: Rule::CountGrows,
        gate: 7,
        absent: None,
        side: |r| {
            let m = &r.membership;
            let unrecovered = m.evicts.saturating_sub(m.rejoins) as f64;
            one("unrecovered-evictions", unrecovered, m.pe_dead > 0)
        },
    },
    Section {
        name: "partitions",
        title: "partitions (quorum-fenced view):",
        rule: Rule::Relative,
        gate: 8,
        absent: None,
        side: |r| {
            let p = &r.partitions;
            one("heal-convergence", p.heal_convergence_us, p.fences > 0)
        },
    },
    Section {
        name: "partitions",
        title: "partitions (quorum-fenced view):",
        rule: Rule::CountGrows,
        gate: 8,
        absent: None,
        side: |r| {
            let p = &r.partitions;
            let unhealed = p.fences.saturating_sub(p.heals) as f64;
            one("unhealed-fences", unhealed, p.fences > 0)
        },
    },
];

/// One compared metric: a key of one [`Section`] in either report.
#[derive(Clone, Debug)]
pub struct DiffRow {
    pub section: &'static Section,
    pub key: String,
    /// Baseline value; `None` when a latency key is new.
    pub a: Option<f64>,
    /// Candidate value; `None` when a latency key vanished.
    pub b: Option<f64>,
    pub regressed: bool,
    /// On a regressed latency row whose sides both carry per-stage busy
    /// time: the pipeline stage whose per-op mean grew the most, i.e.
    /// where the regression actually lives (d2h staging? rdma leg?
    /// wakeup?).
    pub stage: Option<StageDelta>,
}

impl DiffRow {
    /// Signed change in the section rule's unit: percent, percentage
    /// points, or events.
    pub fn delta(&self) -> Option<f64> {
        self.section.rule.delta(self.a, self.b)
    }
}

/// Stage-level attribution of a regressed row.
#[derive(Clone, Debug)]
pub struct StageDelta {
    pub stage: String,
    /// Baseline per-op mean busy us for this stage.
    pub a_us: f64,
    /// Candidate per-op mean busy us.
    pub b_us: f64,
}

#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    pub threshold_pct: f64,
    /// Rows in [`SECTIONS`] order, sorted by key within a section.
    pub rows: Vec<DiffRow>,
}

impl DiffReport {
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regressed).count()
    }

    /// The `gdrprof diff` exit code: the lowest gate among regressed
    /// rows (4 latency/fault, 5 contention, 6 SLO, 7 membership, 8
    /// partition), or 0 when nothing regressed.
    pub fn exit_code(&self) -> u8 {
        self.rows
            .iter()
            .filter(|r| r.regressed)
            .map(|r| r.section.gate)
            .min()
            .unwrap_or(0)
    }

    pub fn text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "gdrprof diff (regression threshold {:.1}%)",
            self.threshold_pct
        );
        let mut title = "";
        for r in &self.rows {
            if r.section.title != title {
                title = r.section.title;
                let _ = writeln!(s, "{title}");
            }
            let rule = r.section.rule;
            let mark = if r.regressed { "  REGRESSED" } else { "" };
            let _ = writeln!(
                s,
                "  {:<28} a {:<12} b {:<12} {}{mark}",
                r.key,
                rule.show(r.a),
                rule.show(r.b),
                rule.show_delta(r.delta()),
            );
            if let Some(sd) = &r.stage {
                let _ = writeln!(
                    s,
                    "  {:<28} stage {:<10} a {:.3}us  b {:.3}us per op",
                    "", sd.stage, sd.a_us, sd.b_us,
                );
            }
        }
        let _ = writeln!(s, "regressions: {}", self.regressions());
        s
    }

    /// Machine-readable rendering of the diff (`gdrprof diff --json`):
    /// the `gdrprof-diff-v2` document. Deterministic field order and
    /// float formatting, like [`Report::to_json`].
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        let mut o = ObjWriter::new(&mut out);
        o.str_field("schema", "gdrprof-diff-v2");
        o.num_field("threshold_pct", self.threshold_pct);
        {
            let buf = o.raw_field("rows");
            buf.push('[');
            for (i, r) in self.rows.iter().enumerate() {
                if i > 0 {
                    buf.push(',');
                }
                let mut e = ObjWriter::new(buf);
                e.str_field("section", r.section.name)
                    .str_field("key", &r.key);
                for (k, v) in [("a", r.a), ("b", r.b), ("delta", r.delta())] {
                    match v {
                        Some(v) => {
                            e.num_field(k, v);
                        }
                        None => e.raw_field(k).push_str("null"),
                    }
                }
                e.bool_field("regressed", r.regressed);
                if let Some(sd) = &r.stage {
                    let buf = e.raw_field("stage");
                    let mut sj = ObjWriter::new(buf);
                    sj.str_field("stage", &sd.stage)
                        .num_field("a_us", sd.a_us)
                        .num_field("b_us", sd.b_us);
                    sj.finish();
                }
                e.finish();
            }
            buf.push(']');
        }
        o.u64_field("regressions", self.regressions() as u64);
        o.u64_field("exit_code", self.exit_code() as u64);
        o.finish();
        out
    }
}

/// Per-op mean busy time of each stage for one `op/protocol` aggregate.
fn stage_means(st: &ProtoStat) -> Vec<(String, f64)> {
    if st.count == 0 {
        return Vec::new();
    }
    st.stages
        .iter()
        .map(|(k, us)| (k.clone(), us / st.count as f64))
        .collect()
}

/// Attribute a regressed row to the pipeline stage whose per-op mean
/// grew the most between baseline and candidate. `None` when neither
/// side recorded stage detail or no stage actually grew.
fn attribute_stage(a: Option<&ProtoStat>, b: Option<&ProtoStat>) -> Option<StageDelta> {
    let (a, b) = match (a, b) {
        (Some(a), Some(b)) => (a, b),
        _ => return None,
    };
    let am: BTreeMap<String, f64> = stage_means(a).into_iter().collect();
    let mut best: Option<StageDelta> = None;
    for (stage, b_us) in stage_means(b) {
        let a_us = am.get(&stage).copied().unwrap_or(0.0);
        let grew = b_us - a_us;
        if grew <= 0.0 {
            continue;
        }
        let better = match &best {
            Some(cur) => grew > cur.b_us - cur.a_us,
            None => true,
        };
        if better {
            best = Some(StageDelta { stage, a_us, b_us });
        }
    }
    best
}

/// Compare every gated metric of `b` (the candidate) against `a` (the
/// baseline).
pub fn diff(a: &Report, b: &Report, threshold_pct: f64) -> DiffReport {
    let mut rows = Vec::new();
    for section in &SECTIONS {
        let (sa, sb) = ((section.side)(a), (section.side)(b));
        let keys: BTreeSet<&String> = sa.keys().chain(sb.keys()).collect();
        for key in keys {
            let (va, vb) = (sa.get(key), sb.get(key));
            // a metric neither run exercised produces no row
            if !(va.is_some_and(|v| v.1) || vb.is_some_and(|v| v.1)) {
                continue;
            }
            let av = va.map_or(section.absent, |v| Some(v.0));
            let bv = vb.map_or(section.absent, |v| Some(v.0));
            let rule = section.rule;
            let regressed = rule.regressed(rule.delta(av, bv), threshold_pct);
            let stage = if regressed && section.name == "latency" {
                attribute_stage(a.protocols.get(key), b.protocols.get(key))
            } else {
                None
            };
            rows.push(DiffRow {
                section,
                key: key.clone(),
                a: av,
                b: bv,
                regressed,
                stage,
            });
        }
    }
    DiffReport {
        threshold_pct,
        rows,
    }
}
