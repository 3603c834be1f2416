//! Tests of the benchmark itself: its metric table matches
//! `BENCHMARK.json`, every workload passes its checks at a tiny size, and
//! the timing shims do not change the simulation they measure.

use flare_benchmark::dense::{fingerprint, rebuild, DenseCfg};
use flare_benchmark::{run, Budget, Scale, Workload, E2E, LAYER};

/// `(name, unit)` of every object in the `key` array of `BENCHMARK.json`,
/// or just the names when the objects carry no unit.
fn entries(json: &str, key: &str) -> Vec<(String, Option<String>)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[body.find('[').expect("array")..body.find(']').expect("array end")];
    let field = |obj: &str, f: &str| -> Option<String> {
        let at = obj.find(&format!("\"{f}\""))?;
        let rest = &obj[at + f.len() + 2..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name").expect("name"), field(obj, "unit")))
        .collect()
}

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("read BENCHMARK.json")
}

fn table(t: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
    t.iter()
        .map(|&(n, u)| (n.to_string(), Some(u.to_string())))
        .collect()
}

#[test]
fn metric_names_and_units_match_benchmark_json() {
    let json = manifest();
    assert_eq!(entries(&json, "end_to_end"), table(E2E));
    assert_eq!(entries(&json, "per_layer"), table(LAYER));
    let names: Vec<String> = entries(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
}

#[test]
fn every_workload_passes_its_checks_at_a_tiny_size() {
    let budget = Budget {
        seconds: 0.0,
        min_reps: 2,
        setup_seconds: 0.0,
    };
    for w in Workload::ALL {
        for (trace, metrics) in [(false, E2E), (true, LAYER)] {
            let out = run(w, 5, &budget, trace, Scale::Tiny);
            assert!(out.correct(), "{} trace={trace}: {:?}", w.name(), out.lines);
            assert_eq!(out.failed, 0);
            let line = out.json(metrics);
            for (name, unit) in metrics {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name} missing from {line}"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
            }
            assert_eq!(out.metrics.len(), metrics.len(), "no stray metrics");
            if !trace {
                assert_eq!(out.metrics["op_ok_ratio"], 1.0);
                assert!(out.metrics.values().all(|&v| v > 0.0), "{line}");
            }
        }
    }
}

#[test]
fn timing_shims_leave_the_simulation_unchanged() {
    for w in [Workload::DenseBulk, Workload::DenseWidePar2] {
        let cfg = DenseCfg::new(w, Scale::Tiny);
        let plain = cfg.plain(9, cfg.inputs(9)).expect("plain run");
        for threads in [None, Some(2)] {
            let (mut session, handle) = cfg.setup(9).expect("setup");
            let shimmed = rebuild(&mut session, &handle, cfg.inputs(9), threads);
            assert_eq!(shimmed.net.makespan, plain.net.makespan);
            assert_eq!(shimmed.net.events, plain.net.events);
            assert_eq!(fingerprint(&shimmed.net), fingerprint(&plain.net));
            assert_eq!(shimmed.ranks, plain.ranks);
            assert!(shimmed.hosts.calls > 0 && shimmed.switches.calls > 0);
            session.release(handle).expect("release");
        }
    }
}
