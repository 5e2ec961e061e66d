//! The **plan layer** of the batched update pipeline: every engine-facing
//! case decision lives here.
//!
//! A streaming batch is a sequence of [`EdgeOp`]s. For each op, every BC
//! source is classified into the paper's taxonomy before any update work
//! is dispatched:
//!
//! * insertions — Case 1/2/3 of Section II-D-1 ([`classify`]), including
//!   the component-merge subcase (one endpoint unreachable);
//! * removals — the deletion duals D1 (same level, free), D2 (adjacent
//!   levels with a surviving predecessor) and D3 (sole predecessor, full
//!   per-source fallback), via [`classify_removal`].
//!
//! The result is one [`PlannedOp`] per op: the per-source decisions with
//! Case 1 / D1 sources already separated out, so the exec layers (CPU
//! loop, GPU batch dispatcher) only ever see non-trivial `(source, op)`
//! work items.
//!
//! ## Stages
//!
//! Classification only reads the source's distance row, and Case 2 / D2
//! updates never modify distances. A *stage* is therefore a maximal run
//! of consecutive ops in which only the **last** op has any
//! distance-changing item (insertion Case 3 or deletion D3): within a
//! stage every op can be classified against the distances as they stood
//! at stage start, and the whole stage can be fused into one launch
//! without changing any decision the sequential path would have made.
//! [`PlannedOp::cuts_stage`] is that boundary predicate.

use crate::cases::{CaseCounts, InsertionCase, INF};
use crate::topology::Topology;
use dynbc_graph::{BatchOpError, BatchOpErrorKind, DynGraph, EdgeOp, VertexId};
use std::collections::BTreeMap;

/// A classified `(source, op)` pair, oriented so `u_high` is the endpoint
/// nearer the source ("higher in the BFS tree") and `u_low` the farther
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Classified {
    /// Which scenario this source faces.
    pub case: InsertionCase,
    /// Endpoint closer to the source (valid for `Adjacent`/`Distant`).
    pub u_high: VertexId,
    /// Endpoint farther from the source.
    pub u_low: VertexId,
}

/// Classifies the insertion `(u, v)` for a source with distance array `d`.
///
/// "Figuring out which case each source node has to compute is trivial":
/// two distance lookups.
pub fn classify(d: &[u32], u: VertexId, v: VertexId) -> Classified {
    let du = d[u as usize];
    let dv = d[v as usize];
    match (du == INF, dv == INF) {
        (true, true) => Classified {
            case: InsertionCase::Same,
            u_high: u,
            u_low: v,
        },
        (false, true) => Classified {
            case: InsertionCase::Distant,
            u_high: u,
            u_low: v,
        },
        (true, false) => Classified {
            case: InsertionCase::Distant,
            u_high: v,
            u_low: u,
        },
        (false, false) => {
            let (u_high, u_low) = if du <= dv { (u, v) } else { (v, u) };
            let gap = du.abs_diff(dv);
            let case = match gap {
                0 => InsertionCase::Same,
                1 => InsertionCase::Adjacent,
                _ => InsertionCase::Distant,
            };
            Classified {
                case,
                u_high,
                u_low,
            }
        }
    }
}

/// Classifies the removal `(u, v)` for a source with **pre-removal**
/// distance array `d`; `g` must already reflect the removal (the
/// surviving-predecessor scan must not see the deleted edge).
///
/// The deletion duals map onto [`InsertionCase`]: D1 → `Same` (equal
/// levels, nothing changes), D2 → `Adjacent` (a surviving predecessor at
/// `d_low − 1` keeps all distances intact; only path counts shrink),
/// D3 → `Distant` (the removed edge was `u_low`'s sole predecessor, so
/// distances grow and the engine falls back to a fresh source pass).
pub fn classify_removal<G: Topology>(d: &[u32], u: VertexId, v: VertexId, g: &G) -> Classified {
    let du = d[u as usize];
    let dv = d[v as usize];
    if du == dv {
        return Classified {
            case: InsertionCase::Same,
            u_high: u,
            u_low: v,
        };
    }
    // The edge existed, so the endpoints were in one component: either
    // both reachable (levels differing by exactly one) or both INF
    // (handled above as Same).
    let (u_high, u_low) = if du < dv { (u, v) } else { (v, u) };
    let d_low = d[u_low as usize];
    let survives = g
        .neighbors_of(u_low)
        .any(|x| d[x as usize] != INF && d[x as usize] + 1 == d_low);
    Classified {
        case: if survives {
            InsertionCase::Adjacent
        } else {
            InsertionCase::Distant
        },
        u_high,
        u_low,
    }
}

/// One op of a batch with every source's case decision attached — the
/// `(source × edge-op)` slice of the `UpdatePlan`.
#[derive(Debug, Clone)]
pub struct PlannedOp {
    /// The mutation this plan covers (already committed to the graph).
    pub op: EdgeOp,
    /// Per-source decisions, indexed by source row.
    pub sources: Vec<Classified>,
    /// Case tallies across the sources.
    pub cases: CaseCounts,
    /// Adjacency entries read by the deletion surviving-predecessor
    /// scans (Σ degree(`u_low`) over non-D1 sources); zero for
    /// insertions. The CPU cost model charges these as edge traversals.
    pub scan_edges: u64,
}

impl PlannedOp {
    /// The non-trivial work items: `(source_row, decision)` pairs with
    /// Case 1 / D1 sources dropped.
    pub fn items(&self) -> impl Iterator<Item = (usize, Classified)> + '_ {
        self.sources
            .iter()
            .enumerate()
            .filter(|(_, c)| c.case != InsertionCase::Same)
            .map(|(row, c)| (row, *c))
    }

    /// True if any source's update may change distances (insertion
    /// Case 3 or deletion D3) — the op must then be the last one of its
    /// fused stage, because later classifications need the new
    /// distances.
    pub fn cuts_stage(&self) -> bool {
        self.cases.distant > 0
    }
}

/// Commits `op` to `g` and classifies it ([`classify_op`]).
///
/// # Panics
/// Panics if the op is a no-op (self loop, duplicate insert, absent
/// removal); callers are expected to have validated the batch via
/// [`validate_batch`] first.
pub fn plan_op<R: AsRef<[u32]>>(g: &mut DynGraph, d: &[R], op: EdgeOp) -> PlannedOp {
    let applied = g.apply_op(op);
    assert!(
        applied,
        "plan_op: {op} is a no-op (validate the batch first)"
    );
    classify_op(g, d, op)
}

/// Classifies every source for `op` against the distance rows `d`
/// (`d[row]` = that source's distances, valid at the current stage
/// start). `g` must already reflect `op`.
///
/// Removals are classified *after* their commit — the
/// surviving-predecessor scan must not see the deleted edge — while
/// insertion classification only reads distances, so one
/// commit-then-classify order serves both.
pub fn classify_op<G: Topology, R: AsRef<[u32]>>(g: &G, d: &[R], op: EdgeOp) -> PlannedOp {
    let (u, v) = op.endpoints();
    let sources: Vec<Classified> = match op {
        EdgeOp::Insert(..) => d.iter().map(|row| classify(row.as_ref(), u, v)).collect(),
        EdgeOp::Remove(..) => d
            .iter()
            .map(|row| classify_removal(row.as_ref(), u, v, g))
            .collect(),
    };
    let mut cases = CaseCounts::default();
    for c in &sources {
        cases.record(c.case);
    }
    // One degree per endpoint, not per source: on the slack store a
    // degree is a row scan.
    let mut scan_edges = 0u64;
    if !op.is_insert() {
        let (deg_u, deg_v) = (g.degree_of(u) as u64, g.degree_of(v) as u64);
        for c in sources.iter().filter(|c| c.case != InsertionCase::Same) {
            scan_edges += if c.u_low == u { deg_u } else { deg_v };
        }
    }
    PlannedOp {
        op,
        sources,
        cases,
        scan_edges,
    }
}

/// Checks a whole batch against the graph before any engine state is
/// touched, without mutating anything: each op is judged against the
/// graph's edge set overlaid with the edges the batch's earlier ops
/// inserted or removed.
///
/// # Panics
/// Panics with the first offending op's [`BatchOpError`] if any
/// endpoint is out of range, or an op is a self loop, a duplicate
/// insertion, or a removal of an absent edge.
pub fn validate_batch<G: Topology>(g: &G, ops: &[EdgeOp]) {
    let n = g.vertex_count();
    let mut overlay: BTreeMap<(VertexId, VertexId), bool> = BTreeMap::new();
    for (index, &op) in ops.iter().enumerate() {
        let (u, v) = op.endpoints();
        let kind = if u.max(v) as usize >= n {
            BatchOpErrorKind::OutOfRange
        } else if u == v {
            BatchOpErrorKind::SelfLoop
        } else {
            let present = overlay
                .entry((u.min(v), u.max(v)))
                .or_insert_with(|| g.has_edge(u, v));
            if *present != op.is_insert() {
                *present = op.is_insert();
                continue;
            }
            if op.is_insert() {
                BatchOpErrorKind::AlreadyPresent
            } else {
                BatchOpErrorKind::NotPresent
            }
        };
        panic!("{}", BatchOpError { index, op, kind });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_level_is_case1() {
        let d = [0, 1, 1, 2];
        let c = classify(&d, 1, 2);
        assert_eq!(c.case, InsertionCase::Same);
    }

    #[test]
    fn adjacent_levels_oriented_correctly() {
        let d = [0, 1, 2, 3];
        let c = classify(&d, 2, 1);
        assert_eq!(c.case, InsertionCase::Adjacent);
        assert_eq!(c.u_high, 1);
        assert_eq!(c.u_low, 2);
        // Argument order must not matter.
        let c2 = classify(&d, 1, 2);
        assert_eq!((c2.u_high, c2.u_low, c2.case), (c.u_high, c.u_low, c.case));
    }

    #[test]
    fn distant_levels_are_case3() {
        let d = [0, 1, 5, 3];
        let c = classify(&d, 0, 2);
        assert_eq!(c.case, InsertionCase::Distant);
        assert_eq!(c.u_high, 0);
        assert_eq!(c.u_low, 2);
    }

    #[test]
    fn both_unreachable_is_case1() {
        let d = [0, INF, INF];
        assert_eq!(classify(&d, 1, 2).case, InsertionCase::Same);
    }

    #[test]
    fn one_unreachable_is_case3_with_reachable_high() {
        let d = [0, 2, INF];
        let c = classify(&d, 2, 1);
        assert_eq!(c.case, InsertionCase::Distant);
        assert_eq!(c.u_high, 1);
        assert_eq!(c.u_low, 2);
    }

    #[test]
    fn removal_with_surviving_predecessor_is_d2() {
        // Path 0-1-3 plus 0-2-3: removing (1,3) leaves predecessor 2 at
        // level 1, so distances from source 0 hold → D2 (Adjacent).
        let mut g = DynGraph::new(4);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            g.insert_edge(u, v);
        }
        let d = [0u32, 1, 1, 2];
        g.remove_edge(1, 3);
        let c = classify_removal(&d, 1, 3, &g);
        assert_eq!(c.case, InsertionCase::Adjacent);
        assert_eq!((c.u_high, c.u_low), (1, 3));
    }

    #[test]
    fn removal_of_sole_predecessor_is_d3() {
        // Path 0-1-2: removing (1,2) orphans vertex 2 → D3 (Distant).
        let mut g = DynGraph::new(3);
        g.insert_edge(0, 1);
        g.insert_edge(1, 2);
        let d = [0u32, 1, 2];
        g.remove_edge(1, 2);
        let c = classify_removal(&d, 2, 1, &g);
        assert_eq!(c.case, InsertionCase::Distant);
        assert_eq!((c.u_high, c.u_low), (1, 2));
    }

    #[test]
    fn removal_at_equal_levels_is_d1() {
        let mut g = DynGraph::new(4);
        for (u, v) in [(0, 1), (0, 2), (1, 2)] {
            g.insert_edge(u, v);
        }
        let d = [0u32, 1, 1, INF];
        g.remove_edge(1, 2);
        assert_eq!(classify_removal(&d, 1, 2, &g).case, InsertionCase::Same);
    }

    #[test]
    fn plan_op_drops_case1_sources_and_tallies() {
        // Star around 0; inserting (1, 2) is Case 1 for the source row
        // seeing both endpoints at level 1, Case 2 for the row seeing
        // levels 2 and 1 (insert classification reads only distances).
        let mut g = DynGraph::new(4);
        for w in 1..4 {
            g.insert_edge(0, w);
        }
        let d = vec![vec![0u32, 1, 1, 1], vec![1u32, 2, 1, 0]];
        let p = plan_op(&mut g, &d, EdgeOp::Insert(1, 2));
        assert!(g.has_edge(1, 2), "plan_op commits the op");
        assert_eq!(p.cases.same, 1);
        assert_eq!(p.cases.adjacent, 1);
        let items: Vec<_> = p.items().collect();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].0, 1, "only source row 1 has work");
        assert!(!p.cuts_stage());
    }

    #[test]
    fn stage_cut_on_distance_changing_item() {
        let mut g = DynGraph::new(4);
        g.insert_edge(0, 1);
        // Source 0: vertex 3 unreachable → component merge → Distant.
        let d = vec![vec![0u32, 1, INF, INF]];
        let p = plan_op(&mut g, &d, EdgeOp::Insert(1, 2));
        assert!(p.cuts_stage());
    }

    #[test]
    fn validate_batch_judges_each_op_after_the_earlier_ones() {
        use EdgeOp::{Insert as I, Remove as R};
        let mut g = DynGraph::new(6);
        g.insert_edge(0, 1);
        let rejection = |ops: &[EdgeOp]| {
            std::panic::catch_unwind(|| validate_batch(&g, ops))
                .err()
                .map(|e| *e.downcast::<String>().expect("formatted panic"))
        };
        // Remove-then-reinsert and insert-then-remove are both valid.
        assert_eq!(rejection(&[I(1, 2), R(0, 1), I(1, 0), R(2, 1)]), None);
        for (ops, msg) in [
            (
                &[I(2, 3), R(0, 1), I(3, 2)][..],
                "batch op 2 (insert(3, 2)): edge already present",
            ),
            (
                &[R(0, 1), R(1, 0)],
                "batch op 1 (remove(1, 0)): edge not present",
            ),
            (&[I(1, 1)], "batch op 0 (insert(1, 1)): self-loop insertion"),
            (&[R(2, 2)], "batch op 0 (remove(2, 2)): self-loop removal"),
            (
                &[I(2, 3), I(0, 9)],
                "batch op 1 (insert(0, 9)): endpoint out of range",
            ),
        ] {
            assert_eq!(rejection(ops).as_deref(), Some(msg));
        }
        assert_eq!(g.edge_count(), 1, "validation never mutates");
    }
}
