//! End-to-end host-time benchmark of the tc-putget simulator.
//!
//! The binary runs one workload for a fixed number of seconds and prints
//! every metric by name and unit; see `README.md` next to this crate for
//! the workloads, the metrics and the layers they map to.

pub mod frozen;
pub mod json;
pub mod reference;
pub mod report;
pub mod spans;
pub mod workloads;
