//! `gdrprof` — critical-path profiler for recorder traces.
//!
//! ```text
//! gdrprof report <trace.json> [--json <report.json>]        (alias: analyze)
//! gdrprof diff <baseline.json> <candidate.json> [--threshold <pct>] [--json <diff.json>]
//! gdrprof crossover <trace.json> [--suggest <thresholds.json>] [--json <out.json>]
//! gdrprof whatif <trace.json> --thresholds <thresholds.json> [--json <out.json>]
//! gdrprof timeline <trace.json> [--window <us>] [--json <out.json>]
//! ```
//!
//! `diff` accepts either raw Chrome traces or `gdrprof-report-v2` JSON
//! files; traces are analyzed on the fly, and a report file of any
//! other schema is rejected (exit 2). `--json` writes the comparison as
//! a `gdrprof-diff-v2` document.
//! `crossover` reconstructs per-configuration latency curves and the
//! observed protocol-switch points; `--suggest` writes the estimated
//! true crossovers as a `thresholds-v1` artifact. `whatif` replays the
//! recorded protocol decisions under an alternate `thresholds-v1`
//! table and prints the predicted aggregate latency delta. `timeline`
//! turns a windowed trace (`GDR_SHMEM_OBS_WINDOW_US`) into a
//! per-window latency/contention/fault series with change-point flags;
//! `--window <us>` derives the windows from raw spans instead.
//!
//! Exit codes (CI gates on these):
//!   0  success
//!   1  usage error
//!   2  malformed trace / IO error
//!   3  trace contained no analyzable operations
//!   4  diff found a latency/recovery regression over the threshold
//!   5  diff found a contention-only regression (link contention grew,
//!      latencies held — the throughput early-warning gate)
//!   6  diff found an SLO-violation-count regression (the candidate's
//!      windowed metrics plane breached more budgets than the baseline)
//!   7  diff found a membership regression (the candidate converged its
//!      fail-stop view slower than the baseline or left more evictions
//!      without a rejoin)
//!   8  diff found a partition regression (the candidate healed its
//!      quorum-fenced view slower than the baseline or left more fences
//!      without a heal)

use obs_analyze::{analyze, crossover, diff, timeline, whatif, Report, Trace};
use std::process::ExitCode;

const USAGE: &str = "usage:
  gdrprof report <trace.json> [--json <report.json>]        (alias: analyze)
  gdrprof diff <baseline.json> <candidate.json> [--threshold <pct>] [--json <diff.json>]
  gdrprof crossover <trace.json> [--suggest <thresholds.json>] [--json <out.json>]
  gdrprof whatif <trace.json> --thresholds <thresholds.json> [--json <out.json>]
  gdrprof timeline <trace.json> [--window <us>] [--json <out.json>]

exit codes:
  0  success
  1  usage error
  2  malformed trace / IO error
  3  trace contained no analyzable operations
  4  diff found a latency/recovery regression over the threshold
  5  diff found a contention-only regression
  6  diff found an SLO-violation-count regression
  7  diff found a membership (fail-stop view) regression
  8  diff found a partition (quorum-fenced view) regression";

fn fail(code: u8, msg: &str) -> ExitCode {
    eprintln!("gdrprof: {msg}");
    ExitCode::from(code)
}

/// Load a `gdrprof-report-v2` file or analyze a raw trace.
fn load_report(path: &str) -> Result<Report, String> {
    let doc =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // a report file carries its schema marker; anything else must be a trace
    if let Ok(v) = obs::json::parse(&doc) {
        if v.get("schema")
            .and_then(|s| s.as_str())
            .is_some_and(|s| s.starts_with("gdrprof-report-"))
        {
            return Report::from_json(&v).map_err(|e| format!("{path}: {e}"));
        }
    }
    Ok(analyze(&Trace::parse(&doc).map_err(|e| format!("{path}: {e}"))?))
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let doc =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Trace::parse(&doc).map_err(|e| format!("{path}: {e}"))
}

fn cmd_analyze(args: &[String]) -> ExitCode {
    let mut trace_path = None;
    let mut json_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => match it.next() {
                Some(p) => json_out = Some(p.clone()),
                None => return fail(1, "--json needs a path"),
            },
            _ if trace_path.is_none() => trace_path = Some(a.clone()),
            _ => return fail(1, USAGE),
        }
    }
    let Some(trace_path) = trace_path else {
        return fail(1, USAGE);
    };
    let tr = match load_trace(&trace_path) {
        Ok(t) => t,
        Err(e) => return fail(2, &e),
    };
    let rep = analyze(&tr);
    print!("{}", rep.text());
    if let Some(out) = json_out {
        if let Err(e) = std::fs::write(&out, rep.to_json()) {
            return fail(2, &format!("cannot write {out}: {e}"));
        }
    }
    if rep.ops_analyzed == 0 {
        return fail(3, "trace contained no analyzable operations");
    }
    ExitCode::SUCCESS
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut threshold = 10.0f64;
    let mut json_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => match it.next().and_then(|t| t.parse::<f64>().ok()) {
                Some(t) => threshold = t,
                None => return fail(1, "--threshold needs a percentage"),
            },
            "--json" => match it.next() {
                Some(p) => json_out = Some(p.clone()),
                None => return fail(1, "--json needs a path"),
            },
            _ => paths.push(a.clone()),
        }
    }
    let [a, b] = paths.as_slice() else {
        return fail(1, USAGE);
    };
    let (ra, rb) = match (load_report(a), load_report(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => return fail(2, &e),
    };
    let d = diff(&ra, &rb, threshold);
    print!("{}", d.text());
    if let Some(out) = json_out {
        if let Err(e) = std::fs::write(&out, d.to_json()) {
            return fail(2, &format!("cannot write {out}: {e}"));
        }
    }
    match d.exit_code() {
        0 => ExitCode::SUCCESS,
        code => fail(code, "diff found a regression"),
    }
}

fn cmd_timeline(args: &[String]) -> ExitCode {
    let mut trace_path = None;
    let mut window = None;
    let mut json_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--window" => match it.next().and_then(|w| w.parse::<u32>().ok()) {
                Some(w) => window = Some(w),
                None => return fail(1, "--window needs a microsecond count"),
            },
            "--json" => match it.next() {
                Some(p) => json_out = Some(p.clone()),
                None => return fail(1, "--json needs a path"),
            },
            _ if trace_path.is_none() => trace_path = Some(a.clone()),
            _ => return fail(1, USAGE),
        }
    }
    let Some(trace_path) = trace_path else {
        return fail(1, USAGE);
    };
    let tr = match load_trace(&trace_path) {
        Ok(t) => t,
        Err(e) => return fail(2, &e),
    };
    let tl = match timeline(&tr, window) {
        Ok(t) => t,
        Err(e) => return fail(3, &e),
    };
    print!("{}", tl.text());
    if let Some(out) = json_out {
        if let Err(e) = std::fs::write(&out, tl.to_json()) {
            return fail(2, &format!("cannot write {out}: {e}"));
        }
    }
    if tl.rows.is_empty() {
        return fail(3, "trace contained no windowed activity");
    }
    ExitCode::SUCCESS
}

fn cmd_crossover(args: &[String]) -> ExitCode {
    let mut trace_path = None;
    let mut suggest_out = None;
    let mut json_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--suggest" => match it.next() {
                Some(p) => suggest_out = Some(p.clone()),
                None => return fail(1, "--suggest needs a path"),
            },
            "--json" => match it.next() {
                Some(p) => json_out = Some(p.clone()),
                None => return fail(1, "--json needs a path"),
            },
            _ if trace_path.is_none() => trace_path = Some(a.clone()),
            _ => return fail(1, USAGE),
        }
    }
    let Some(trace_path) = trace_path else {
        return fail(1, USAGE);
    };
    let tr = match load_trace(&trace_path) {
        Ok(t) => t,
        Err(e) => return fail(2, &e),
    };
    let x = crossover(&tr);
    print!("{}", x.text());
    if let Some(out) = json_out {
        if let Err(e) = std::fs::write(&out, x.to_json()) {
            return fail(2, &format!("cannot write {out}: {e}"));
        }
    }
    if let Some(out) = suggest_out {
        if let Err(e) = std::fs::write(&out, x.suggestions().to_json()) {
            return fail(2, &format!("cannot write {out}: {e}"));
        }
    }
    if x.curves.is_empty() {
        return fail(3, "trace contained no enriched decision records");
    }
    ExitCode::SUCCESS
}

fn cmd_whatif(args: &[String]) -> ExitCode {
    let mut trace_path = None;
    let mut table_path = None;
    let mut json_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--thresholds" => match it.next() {
                Some(p) => table_path = Some(p.clone()),
                None => return fail(1, "--thresholds needs a path"),
            },
            "--json" => match it.next() {
                Some(p) => json_out = Some(p.clone()),
                None => return fail(1, "--json needs a path"),
            },
            _ if trace_path.is_none() => trace_path = Some(a.clone()),
            _ => return fail(1, USAGE),
        }
    }
    let (Some(trace_path), Some(table_path)) = (trace_path, table_path) else {
        return fail(1, USAGE);
    };
    let table = match std::fs::read_to_string(&table_path) {
        Ok(doc) => match obs::ThresholdTable::from_json_str(&doc) {
            Ok(t) => t,
            Err(e) => return fail(2, &format!("{table_path}: {e}")),
        },
        Err(e) => return fail(2, &format!("cannot read {table_path}: {e}")),
    };
    let tr = match load_trace(&trace_path) {
        Ok(t) => t,
        Err(e) => return fail(2, &e),
    };
    let w = whatif(&tr, &table);
    print!("{}", w.text());
    if let Some(out) = json_out {
        if let Err(e) = std::fs::write(&out, w.to_json()) {
            return fail(2, &format!("cannot write {out}: {e}"));
        }
    }
    if w.replayed == 0 {
        return fail(3, "trace contained no replayable decision records");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, _)) if cmd == "--help" || cmd == "-h" || cmd == "help" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some((cmd, rest)) if cmd == "analyze" || cmd == "report" => cmd_analyze(rest),
        Some((cmd, rest)) if cmd == "diff" => cmd_diff(rest),
        Some((cmd, rest)) if cmd == "crossover" => cmd_crossover(rest),
        Some((cmd, rest)) if cmd == "whatif" => cmd_whatif(rest),
        Some((cmd, rest)) if cmd == "timeline" => cmd_timeline(rest),
        _ => fail(1, USAGE),
    }
}
