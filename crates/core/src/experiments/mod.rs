//! One module per paper table/figure (see DESIGN.md §3 for the full
//! index). Each returns typed rows; the `gopim-bench` binaries format
//! and print them.

use gopim_graph::datasets::Dataset;

use crate::runner::{run_sweep, Cell, RunConfig, SystemRun};
use crate::system::System;

pub mod faults;
pub mod fig04;
pub mod fig06;
pub mod fig09;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod table05;
pub mod table06;
pub mod table07;

/// Serial and GoPIM on `dataset` under each of `configs`, as one
/// [`run_sweep`]: the runs alternate Serial, GoPIM, one pair per
/// config, in order.
fn serial_and_gopim(dataset: Dataset, configs: &[RunConfig]) -> Vec<SystemRun> {
    let cells: Vec<Cell> = configs
        .iter()
        .flat_map(|c| {
            [
                Cell::system(dataset, System::Serial, c.clone()),
                Cell::system(dataset, System::Gopim, c.clone()),
            ]
        })
        .collect();
    run_sweep(&cells)
}
