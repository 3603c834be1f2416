//! Run the wall-clock perf matrix and write `BENCH_*.json`.
//!
//! Usage:
//!   perf [--smoke] [--out PATH] [--only SUBSTR] [--baseline PATH]
//!        [--threads N] [--trace PATH]
//!
//! `--smoke` runs the reduced CI matrix; `--out` sets
//! the JSON output path (default `BENCH_PR8.json` in the working
//! directory); `--only` filters cells by name substring; `--baseline`
//! compares every measured cell's *simulated makespan* against a
//! checked-in `BENCH_*.json` and exits non-zero on any drift — wall-clock
//! changes are expected between machines, simulation-semantics changes
//! are not. The scenario rows also print as an aligned table.
//!
//! `--threads N` reruns every cell under the partitioned parallel driver
//! with `N` workers. The cells pick up a `/parN` name suffix, so such a
//! run never matches (and can never corrupt) the serial lossless
//! baseline — it measures the parallel datapath against other `/parN`
//! runs.
//!
//! Every run also checks each `/parN` cell against its serial twin, when
//! the matrix holds one (the smoke matrix does for both of its parallel
//! cells), and exits non-zero if their simulated makespans differ.
//!
//! `--trace PATH` additionally captures a lossy multi-tenant run with
//! telemetry enabled and writes its chrome-trace JSON to PATH — load it
//! at `ui.perfetto.dev` to browse link utilization, in-flight gauges and
//! per-tenant flow lifecycles. The trace is schema-validated before it
//! is written, so CI archiving the file is also a correctness check.

use flare_bench::perf::{
    diff_against_baseline, diff_parallel_twins, dump_trace, matrix, parse_baseline, run,
    smoke_matrix, to_json,
};
use flare_bench::table::render;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR8.json".to_string());
    let only = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let baseline_path = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let threads: Option<usize> = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--threads takes an integer >= 1"));
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let mut scenarios = if smoke { smoke_matrix() } else { matrix() };
    if let Some(n) = threads {
        assert!(n >= 1, "--threads takes an integer >= 1");
        for s in &mut scenarios {
            s.threads = n;
        }
    }
    if let Some(filter) = &only {
        scenarios.retain(|s| s.name().contains(filter.as_str()));
    }
    let cells = scenarios.len();
    let mut rows = Vec::with_capacity(cells);
    let mut table = Vec::with_capacity(cells);
    for (i, s) in scenarios.iter().enumerate() {
        eprintln!("[{}/{}] {}", i + 1, cells, s.name());
        let m = run(s);
        table.push(vec![
            s.name(),
            format!("{:.1}", m.wall_ms),
            format!("{:.2e}", m.events_per_sec),
            format!("{:.1}", m.ns_per_element),
            format!("{}", m.makespan_ns),
        ]);
        rows.push(m);
    }
    println!(
        "{}",
        render(
            &["scenario", "wall (ms)", "events/s", "ns/elem", "sim ns"],
            &table
        )
    );
    let label = if smoke {
        "flare-perf-smoke"
    } else {
        "flare-perf"
    };
    let json = to_json(label, &rows);
    std::fs::write(&out_path, json).expect("write JSON output");
    eprintln!("wrote {out_path}");
    if let Some(path) = trace_path {
        let trace = dump_trace();
        std::fs::write(&path, &trace).expect("write trace output");
        eprintln!("wrote {path} ({} bytes, Perfetto-loadable)", trace.len());
    }
    let twins = diff_parallel_twins(&rows);
    if twins.compared > 0 {
        if twins.drift.is_empty() {
            eprintln!(
                "parallel twins: no makespan drift ({} pair(s) compared)",
                twins.compared
            );
        } else {
            for line in &twins.drift {
                eprintln!("DRIFT {line}");
            }
            eprintln!(
                "{} parallel cell(s) drifted from their serial twin: the partitioned driver broke determinism",
                twins.drift.len()
            );
            std::process::exit(1);
        }
    }
    if let Some(path) = baseline_path {
        let doc =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let baseline = parse_baseline(&doc);
        assert!(!baseline.is_empty(), "baseline {path} has no rows");
        let diff = diff_against_baseline(&rows, &baseline);
        if diff.compared == 0 {
            // A gate that matched nothing proves nothing: fail loudly
            // instead of printing a vacuous "no drift".
            eprintln!("baseline {path}: no measured cell matched any baseline row — gate vacuous");
            std::process::exit(1);
        }
        if diff.drift.is_empty() {
            eprintln!(
                "baseline {path}: no makespan drift ({} cell(s) compared)",
                diff.compared
            );
        } else {
            for line in &diff.drift {
                eprintln!("DRIFT {line}");
            }
            eprintln!(
                "{} cell(s) drifted from {path}: the datapath changed simulation semantics",
                diff.drift.len()
            );
            std::process::exit(1);
        }
    }
}
