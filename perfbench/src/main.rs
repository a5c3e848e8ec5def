//! `ghost-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`

use ghost_perfbench::layers::{complete_end_to_end, complete_per_layer};
use ghost_perfbench::probe::Fingerprint;
use ghost_perfbench::{live, percpu, scale, sweep};

fn usage() -> ! {
    eprintln!(
        "usage: ghost-perfbench --workload <sim-percpu|sim-scale|sim-sweep|live-kv> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    if !(seconds > 0.0 && seconds <= 120.0) {
        usage();
    }
    let fp = Fingerprint::take();
    let mut report = match (workload.as_str(), trace) {
        ("sim-percpu", false) => percpu::run(seed, seconds),
        ("sim-percpu", true) => percpu::run_traced(seed, &fp),
        ("sim-scale", false) => scale::run(seed, seconds),
        ("sim-scale", true) => scale::run_traced(seed, &fp),
        ("sim-sweep", false) => sweep::run(seed, seconds),
        ("sim-sweep", true) => sweep::run_traced(seed, &fp),
        ("live-kv", false) => live::run(seed, seconds),
        ("live-kv", true) => live::run_traced(seed, seconds, &fp),
        _ => usage(),
    };
    if trace {
        complete_per_layer(&mut report);
    } else {
        complete_end_to_end(&mut report);
    }
    report.print(&workload, seed, trace, &fp);
    if !report.correct() {
        std::process::exit(1);
    }
}
