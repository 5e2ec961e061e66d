//! Minimal graph-access trait so the host-side algorithms (Brandes
//! seeding, batch validation, planning, oracles) run on the CSR form,
//! the STINGER-lite store and the GPU engines' slack-CSR store alike.
//! Device kernels read the engines' mirror instead
//! (`gpu::kernels::GraphView`).

use dynbc_graph::{Csr, DynGraph, SlackCsr, VertexId};

/// Read-only access to a graph's current edge set.
pub trait Topology {
    /// Number of vertices.
    fn vertex_count(&self) -> usize;
    /// The neighbours of `v`.
    fn neighbors_of(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_;
    /// Degree of `v`.
    fn degree_of(&self, v: VertexId) -> usize;
    /// True if the undirected edge `{u, v}` is present (`u`, `v` in
    /// range).
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool;
}

impl Topology for Csr {
    fn vertex_count(&self) -> usize {
        Csr::vertex_count(self)
    }

    fn neighbors_of(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.neighbors(v).iter().copied()
    }

    fn degree_of(&self, v: VertexId) -> usize {
        self.degree(v)
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        Csr::has_edge(self, u, v)
    }
}

impl Topology for DynGraph {
    fn vertex_count(&self) -> usize {
        DynGraph::vertex_count(self)
    }

    fn neighbors_of(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.neighbors(v)
    }

    fn degree_of(&self, v: VertexId) -> usize {
        self.degree(v) as usize
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        DynGraph::has_edge(self, u, v)
    }
}

/// The store at its latest version: every op spliced so far, staged or
/// settled — what the plan layer must see while it walks a stage.
impl Topology for SlackCsr {
    fn vertex_count(&self) -> usize {
        SlackCsr::vertex_count(self)
    }

    fn neighbors_of(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.neighbors(v)
    }

    fn degree_of(&self, v: VertexId) -> usize {
        self.degree(v) as usize
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        SlackCsr::has_edge(self, u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynbc_graph::EdgeList;

    /// Neighbours (sorted), degree and edge test of `v` through the trait.
    fn read<T: Topology>(g: &T, v: VertexId) -> (Vec<VertexId>, usize, Vec<bool>) {
        let mut nb: Vec<_> = g.neighbors_of(v).collect();
        nb.sort_unstable();
        let n = g.vertex_count() as VertexId;
        (
            nb,
            g.degree_of(v),
            (0..n).map(|w| g.has_edge(v, w)).collect(),
        )
    }

    #[test]
    fn csr_dyngraph_and_slack_agree() {
        let el = EdgeList::from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let csr = Csr::from_edge_list(&el);
        let dyng = DynGraph::from_edge_list(&el);
        // The slack store answers at its latest version, staged ops
        // included: stage (1,3) in and (0,1) out on both sides.
        let mut slack = SlackCsr::from_csr(&csr, 25, 25);
        slack.insert_edge_versioned(1, 3, 1);
        slack.remove_edge_versioned(0, 1, 2);
        let mut dyng_now = dyng.clone();
        dyng_now.insert_edge(1, 3);
        dyng_now.remove_edge(0, 1);
        for v in 0..5u32 {
            assert_eq!(read(&csr, v), read(&dyng, v), "vertex {v}");
            assert_eq!(read(&slack, v), read(&dyng_now, v), "vertex {v}");
        }
    }
}
