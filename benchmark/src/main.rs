//! Command-line entry point of the Flare benchmark:
//!
//! ```text
//! flare-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the machine stamp, the workload's simulated fingerprint and
//! notes, then as the last line one JSON object with `correct`,
//! `attempted`, `failed` and the metrics. Exits 1 when a correctness
//! check failed and 2 on a usage error.

use std::process::ExitCode;

use flare_benchmark::{machine, Budget, Scale, Workload, E2E, LAYER};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    // Each workload pins its own driver; an inherited FLARE_DES_THREADS
    // would otherwise switch the serial workloads to the partitioned one.
    std::env::remove_var("FLARE_DES_THREADS");
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: flare-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", machine::stamp(args.workload.name(), args.seed));
    let budget = Budget {
        seconds: args.seconds,
        min_reps: 3,
        setup_seconds: 0.15,
    };
    let out = flare_benchmark::run(args.workload, args.seed, &budget, args.trace, Scale::Full);
    for line in &out.lines {
        println!("{line}");
    }
    println!("{}", out.json(if args.trace { LAYER } else { E2E }));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
