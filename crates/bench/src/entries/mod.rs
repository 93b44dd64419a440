//! The entries of [`crate::BENCHES`] other than `paper`: one file per
//! tracked report, each a `run(&mut Report)` that adds its fields, row
//! tables and gates.

pub mod ablations;
pub mod bricks;
pub mod conv;
pub mod gemm;
pub mod plan;
pub mod profile;
pub mod serve;
