//! The entries of [`crate::BENCHES`] other than `paper`: one file per
//! tracked report, each a `measure() -> Vec<Row>` and the gates, pure
//! functions of those rows, that `BENCHES` lists beside it.

pub mod ablations;
pub mod bricks;
pub mod conv;
pub mod gemm;
pub mod plan;
pub mod profile;
pub mod serve;
