//! The machine stamp printed with every result, and the process's peak
//! resident memory. Wall times compare only between runs whose stamps
//! match.

/// One line naming the machine, toolchain, build profile and seed.
pub fn stamp(workload: &str, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    let mem_kib = proc_field("/proc/meminfo", "MemTotal")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<u64>().ok())
        .unwrap_or(0);
    format!(
        "machine: nproc={nproc} cpu=\"{cpu}\" mem_total_mib={} rustc=\"{}\" profile={} workload={workload} seed={seed}",
        mem_kib / 1024,
        env!("BENCH_RUSTC_VERSION"),
        env!("BENCH_PROFILE"),
    )
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// The value of the first `key: value` line of a `/proc` file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}
