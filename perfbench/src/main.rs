//! One benchmark pass in this process:
//!
//! ```text
//! gopim-perfbench --workload <name> --seed <n> [--spawned-unix-ns <n>]
//! ```
//!
//! Prints the pass record as one JSON line on stdout. Cold or warm
//! caching, the thread count and the metrics registry are selected by
//! the caller through the program's own environment knobs
//! (`GOPIM_NO_CACHE`, `GOPIM_THREADS`, `GOPIM_METRICS`).

use gopim_perfbench::pass::spawn_time;
use gopim_perfbench::run_pass;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut spawned = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().map(String::as_str);
        match (flag.as_str(), value) {
            ("--workload", Some(v)) => workload = Some(v.to_string()),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--spawned-unix-ns", Some(v)) => spawned = v.parse::<u64>().ok().map(spawn_time),
            _ => usage(&format!("bad argument '{flag}'")),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        usage("--workload and --seed are required");
    };
    match run_pass(&workload, seed, spawned) {
        Ok(pass) => println!("{}", pass.to_json()),
        Err(e) => {
            eprintln!("gopim-perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("gopim-perfbench: {msg}");
    eprintln!("usage: gopim-perfbench --workload <name> --seed <n> [--spawned-unix-ns <n>]");
    std::process::exit(2);
}
