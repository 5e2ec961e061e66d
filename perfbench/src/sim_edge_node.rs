//! `sim-edge-node`: the §IV protocol on a small caida-family graph
//! through the SIMT simulator, node-parallel (the primary path) and
//! edge-parallel (the reference path) — the paper's Table II pairing.
//!
//! Each round removes `batch` random non-tabu edges and reinserts them
//! one at a time into a node-parallel engine, then reinserts the round's
//! first `edge_ops` of them into an edge-parallel engine built on the
//! same graph. Rounds repeat until the budget is spent, so both paths
//! sample every round's edges and the whole run's host speed. Round 0's
//! shared insertions give the exact model-clock times and simulator
//! counters of both decompositions.

use dynbc_bc::brandes::brandes_state;
use dynbc_bc::gpu::{Backend, GpuDynamicBc, Parallelism};
use dynbc_bc::BatchResult;
use dynbc_bench::stream;
use dynbc_gpusim::KernelStats;
use dynbc_graph::{Csr, EdgeList, EdgeOp};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{self, check_close, gpu_engine, Ctx};
use crate::host::WallSamples;
use crate::metrics::Report;
use crate::stats::Samples;
use crate::trace;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Suite graph (Table I short name).
    pub graph: &'static str,
    /// Suite scale.
    pub scale: f64,
    /// BC sources.
    pub sources: usize,
    /// Edges removed and reinserted per round.
    pub batch: usize,
    /// Insertions per round that also run edge-parallel (at least 1, at
    /// most `batch`).
    pub edge_ops: usize,
    /// Engine constructions timed for `setup_s`.
    pub setups: usize,
}

impl Params {
    /// The benchmark's size.
    pub const FULL: Params = Params {
        graph: "caida",
        scale: 0.1,
        sources: 24,
        batch: 100,
        edge_ops: 10,
        setups: 7,
    };
    /// A seconds-long size for tests.
    pub const SMOKE: Params = Params {
        graph: "caida",
        scale: 0.01,
        sources: 4,
        batch: 6,
        edge_ops: 2,
        setups: 1,
    };
}

/// One decomposition's measurements.
#[derive(Default)]
struct Path {
    wall_ms: WallSamples,
    /// Exact ops only (round 0's shared insertions).
    model_s: f64,
    stats: KernelStats,
    wall_ns_exact: f64,
    ops_exact: u64,
}

impl Path {
    /// Applies `op`, timing it; `exact` ops also count toward the exact
    /// totals.
    fn apply(
        &mut self,
        ctx: &mut Ctx,
        name: &'static str,
        id: u64,
        e: &mut GpuDynamicBc,
        op: EdgeOp,
        exact: bool,
    ) -> BatchResult {
        let root = ctx.tracer.begin("op", id);
        let before = *e.total_stats();
        let t = trace::now();
        let r = ctx.tracer.span(name, id, || e.apply_batch(&[op]));
        let ns = t.elapsed().as_nanos() as f64;
        ctx.tracer.end(root);
        self.wall_ms.push(ns / 1e6);
        if exact {
            let after = e.total_stats();
            self.model_s += r.model_seconds;
            self.wall_ns_exact += ns;
            self.ops_exact += 1;
            self.stats.warp_execs += after.warp_execs - before.warp_execs;
            self.stats.lane_events += after.lane_events - before.lane_events;
            self.stats.mem_segments += after.mem_segments - before.mem_segments;
            self.stats.atomics += after.atomics - before.atomics;
            self.stats.atomic_conflicts += after.atomic_conflicts - before.atomic_conflicts;
            self.stats.barriers += after.barriers - before.barriers;
        }
        r
    }

    fn report(&self, rep: &mut Report, which: &str) {
        let per = |x: u64| x as f64 / self.ops_exact as f64;
        let set = |rep: &mut Report, metric: &str, v: f64| {
            rep.set(&format!("gpusim.{which}.{metric}"), v);
        };
        set(rep, "lane_events_per_update", per(self.stats.lane_events));
        set(rep, "mem_segments_per_update", per(self.stats.mem_segments));
        set(
            rep,
            "atomic_conflicts_per_update",
            per(self.stats.atomic_conflicts),
        );
        set(
            rep,
            "traffic_bytes_per_update",
            per(self.stats.traffic_bytes()),
        );
    }
}

/// Runs the workload into `rep`; `Err` is a failed correctness gate.
pub fn run(p: Params, ctx: &mut Ctx, rep: &mut Report) -> Result<(), String> {
    assert!(
        (1..=p.batch).contains(&p.edge_ops),
        "edge_ops must be in 1..=batch"
    );
    let el = common::suite_graph(p.graph, p.scale);
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let sources = common::suite_sources(el.vertex_count(), p.sources);
    let tabu = stream::spanning_forest_tabu(&el);
    let (removals0, additions0) = stream::remove_then_add(&el, p.batch, &tabu, &mut rng);
    let start0 = common::without(&el, &removals0);
    rep.note(format!(
        "sim-edge-node: {}@{} n={} m={} k={} batch={} edge_ops={} on Tesla C2075 model",
        p.graph,
        p.scale,
        el.vertex_count(),
        el.edge_count(),
        p.sources,
        p.batch,
        p.edge_ops
    ));

    let build = |g: &EdgeList| {
        (
            gpu_engine(g, &sources, Parallelism::Node, Backend::Simulator),
            gpu_engine(g, &sources, Parallelism::Edge, Backend::Simulator),
        )
    };
    let mut setup = Samples::new();
    let mut engines = None;
    for _ in 0..p.setups {
        drop(engines.take());
        let t = trace::now();
        engines = Some(build(&start0));
        setup.push(t.elapsed().as_secs_f64());
    }
    let setup_factor = ctx.calib.segment_factor();
    if ctx.traced() {
        let start_csr = Csr::from_edge_list(&start0);
        let t = trace::now();
        ctx.tracer
            .span("brandes.seed", 0, || brandes_state(&start_csr, &sources));
        rep.set("brandes.seed_s", t.elapsed().as_secs_f64());
    }
    let oracle = brandes_state(&Csr::from_edge_list(&el), &sources);

    // Every round: all insertions node-parallel, then the first
    // `edge_ops` edge-parallel on an engine built on the same graph. The
    // two engines never alternate within a round, so neither's timings
    // run on caches the other just filled.
    let t_all = trace::now();
    let mut node_path = Path::default();
    let mut edge_path = Path::default();
    let mut attempted = 0u64;
    let mut id = 0u64;
    for round in 0.. {
        let (start, additions) = if round == 0 {
            (start0.clone(), additions0.clone())
        } else {
            let (removals, additions) = stream::remove_then_add(&el, p.batch, &tabu, &mut rng);
            (common::without(&el, &removals), additions)
        };
        // Old engines are dropped before new ones are built, so peak
        // memory does not depend on the number of rounds.
        let (mut node, mut edge) = match engines.take() {
            Some(pair) => pair,
            None => build(&start),
        };
        let exact = round == 0;
        let mut node_cases = Vec::with_capacity(p.edge_ops);
        let mut node_mid = Vec::new();
        for (j, &op) in additions.iter().enumerate() {
            let shared = j < p.edge_ops;
            let r = node_path.apply(
                ctx,
                "gpusim.node.apply_batch",
                id,
                &mut node,
                op,
                exact && shared,
            );
            if shared {
                node_cases.push(r.per_op[0].cases);
            }
            if j + 1 == p.edge_ops {
                node_mid = node.bc_scores();
            }
            attempted += 1;
            id += 1;
        }
        for (j, &op) in additions[..p.edge_ops].iter().enumerate() {
            let r = edge_path.apply(ctx, "gpusim.edge.apply_batch", id, &mut edge, op, exact);
            if r.per_op[0].cases != node_cases[j] {
                return Err(format!(
                    "round {round} insertion {op:?}: node cases {:?} != edge cases {:?}",
                    node_cases[j], r.per_op[0].cases
                ));
            }
            attempted += 1;
            id += 1;
        }
        let mut mid = start;
        for op in &additions[..p.edge_ops] {
            let (u, v) = op.endpoints();
            mid.insert_edge(u, v);
        }
        let mid_oracle = brandes_state(&Csr::from_edge_list(&mid), &sources);
        check_close("edge-parallel engine", &edge.bc_scores(), &mid_oracle.bc)?;
        check_close("node-parallel engine", &node_mid, &mid_oracle.bc)?;
        check_close("node-parallel engine", &node.bc_scores(), &oracle.bc)?;
        let f = ctx.calib.segment_factor();
        node_path.wall_ms.close_segment(f);
        edge_path.wall_ms.close_segment(f);
        if t_all.elapsed() >= ctx.budget {
            break;
        }
    }

    rep.attempted = attempted;
    let rate = node_path.wall_ms.rate_per_s();
    common::report_wall(
        rep,
        setup.p50(),
        setup_factor,
        &mut node_path.wall_ms,
        &mut edge_path.wall_ms,
        rate,
    );
    let model_node_us = 1e6 * node_path.model_s / node_path.ops_exact as f64;
    let model_edge_us = 1e6 * edge_path.model_s / edge_path.ops_exact as f64;
    rep.set("gpusim.model_node_update_us", model_node_us);
    rep.set("gpusim.model_edge_update_us", model_edge_us);
    rep.note(format!(
        "sim-edge-node: node {} insertions p50 {:.4} ms, edge {} insertions p50 {:.4} ms; \
         model node {model_node_us:.4} us, edge {model_edge_us:.4} us per insertion",
        node_path.wall_ms.len(),
        node_path.wall_ms.measured.p50(),
        edge_path.wall_ms.len(),
        edge_path.wall_ms.measured.p50()
    ));
    node_path.report(rep, "node");
    edge_path.report(rep, "edge");
    let lanes = node_path.stats.lane_events + edge_path.stats.lane_events;
    rep.set(
        "gpusim.host_ns_per_lane_event",
        (node_path.wall_ns_exact + edge_path.wall_ns_exact) / lanes as f64,
    );
    if ctx.traced() {
        let spans = ctx.take_spans();
        common::report_trace(&spans, "op", t_all.elapsed().as_secs_f64(), rep);
        ctx.spans = spans;
    }
    Ok(())
}
