//! Benchmark of the GoPIM workspace: four seeded workloads
//! measured end to end, plus a traced pass that reports per-layer
//! metrics. `run.py` spawns this crate's binary once per pass; see
//! `README.md` in this directory.

pub mod layers;
pub mod pass;
pub mod workloads;

use std::time::SystemTime;

use pass::Pass;
use workloads::Provided;

/// Runs one pass and returns it (per-layer metrics filled when the
/// program's metrics registry is on).
///
/// # Errors
///
/// Returns a message for an unknown workload name.
pub fn run_pass(workload: &str, seed: u64, spawned: Option<SystemTime>) -> Result<Pass, String> {
    let mut pass = Pass::new(workload, seed, spawned);
    let mut provided = Provided::new();
    workloads::run(&mut pass, &mut provided)?;
    if pass.traced {
        layers::collect(&mut pass, &provided);
    }
    Ok(pass)
}
