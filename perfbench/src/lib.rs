//! The GROUTER simulator benchmark: three workloads timed end to end, and a
//! traced run that measures each layer from outside the program.
//!
//! See `README.md` in this directory for the workloads, the metrics, and
//! which metric each layer should move.

pub mod layers;
pub mod metrics;
pub mod workloads;
