//! Dynamic (incremental) betweenness-centrality engines.

pub mod cpu;
pub mod delete;
pub mod mlq;
pub mod result;

pub use cpu::CpuDynamicBc;
pub use mlq::MultiLevelQueue;
pub use result::{BatchResult, OpOutcome, SourceOutcome, UpdateResult};
