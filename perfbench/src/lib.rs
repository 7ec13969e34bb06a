//! Support code shared by the `perfbench` benchmark and its `compare`
//! command: order statistics with the median-and-tail rule, and a small
//! JSON reader/writer for result files.

pub mod json;
pub mod stats;
