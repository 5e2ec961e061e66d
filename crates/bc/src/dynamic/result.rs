//! Result types shared by the dynamic engines (CPU and GPU).

use crate::cases::{CaseCounts, InsertionCase};
use dynbc_graph::EdgeOp;

/// Per-source outcome of one edge insertion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceOutcome {
    /// Which scenario the source faced.
    pub case: InsertionCase,
    /// Vertices touched while updating this source (0 for Case 1) — the
    /// `|{i ∈ V : t[i] ≠ untouched}|` statistic of the paper's Figure 4.
    pub touched: usize,
}

/// Outcome of one edge insertion across all sources.
#[derive(Debug, Clone)]
pub struct UpdateResult {
    /// Scenario tallies over the sources (Figure 2 data).
    pub cases: CaseCounts,
    /// Per-source details, in source order (Figure 4 data).
    pub per_source: Vec<SourceOutcome>,
    /// Modeled seconds for this update on the engine's machine model.
    pub model_seconds: f64,
    /// Real wall-clock seconds this process spent (diagnostic only; never
    /// used in cross-machine ratios).
    pub wall_seconds: f64,
}

impl UpdateResult {
    /// Number of sources that required any work (Cases 2 and 3).
    pub fn worked_sources(&self) -> usize {
        self.per_source
            .iter()
            .filter(|o| o.case != InsertionCase::Same)
            .count()
    }

    /// Largest per-source touched count.
    pub fn max_touched(&self) -> usize {
        self.per_source.iter().map(|o| o.touched).max().unwrap_or(0)
    }
}

/// Per-op outcome within a batch.
///
/// Carries no timing: fused execution times the batch as a whole, not
/// its constituent ops (see [`BatchResult::model_seconds`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OpOutcome {
    /// The edge mutation this outcome belongs to.
    pub op: EdgeOp,
    /// Scenario tallies over the sources.
    pub cases: CaseCounts,
    /// Per-source details, in source order.
    pub per_source: Vec<SourceOutcome>,
}

/// Outcome of `apply_batch`: one [`OpOutcome`] per submitted op (in
/// submission order) plus the whole-batch costs.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-op outcomes, in submission order.
    pub per_op: Vec<OpOutcome>,
    /// Modeled seconds for the whole batch on the engine's machine
    /// model. Under fusion this is *not* the sum of what the ops would
    /// cost individually — amortizing launches is the point.
    pub model_seconds: f64,
    /// Real wall-clock seconds this process spent (diagnostic only).
    pub wall_seconds: f64,
}

impl BatchResult {
    /// Aggregate case tallies across every op of the batch.
    pub fn cases(&self) -> CaseCounts {
        let mut total = CaseCounts::default();
        for op in &self.per_op {
            total.add(&op.cases);
        }
        total
    }

    /// Collapses a batch-of-one into the single-op result shape; the
    /// `insert_edge`/`remove_edge` wrappers are this.
    ///
    /// # Panics
    /// Panics if the batch did not contain exactly one op.
    pub fn into_update_result(mut self) -> UpdateResult {
        assert_eq!(self.per_op.len(), 1, "batch-of-one expected");
        let op = self.per_op.pop().expect("one op");
        UpdateResult {
            cases: op.cases,
            per_source: op.per_source,
            model_seconds: self.model_seconds,
            wall_seconds: self.wall_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worked_and_touched_summaries() {
        let r = UpdateResult {
            cases: CaseCounts {
                same: 1,
                adjacent: 1,
                distant: 1,
            },
            per_source: vec![
                SourceOutcome {
                    case: InsertionCase::Same,
                    touched: 0,
                },
                SourceOutcome {
                    case: InsertionCase::Adjacent,
                    touched: 5,
                },
                SourceOutcome {
                    case: InsertionCase::Distant,
                    touched: 9,
                },
            ],
            model_seconds: 0.0,
            wall_seconds: 0.0,
        };
        assert_eq!(r.worked_sources(), 2);
        assert_eq!(r.max_touched(), 9);
    }
}
