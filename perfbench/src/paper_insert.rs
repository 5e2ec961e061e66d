//! `paper-insert`: the paper's §IV protocol on a delaunay-family graph.
//!
//! Each round removes `batch` random non-tabu edges, then reinserts them
//! one insertion at a time. Every insertion goes to the sequential
//! `CpuDynamicBc` (the reference path) and to a native node-parallel
//! `GpuDynamicBc` (the primary path), alternating which engine runs
//! first. Round 0 starts from the engines built at set-up, round 1
//! removes its edges through the sequential engine in one batch, and
//! otherwise rounds start from engines built without their edges. Rounds repeat until the
//! budget is spent; the exact work counts come from round 0, which
//! always runs whole.

use dynbc_bc::brandes::brandes_state;
use dynbc_bc::gpu::{Backend, Parallelism};
use dynbc_bc::{plan, CpuDynamicBc};
use dynbc_bench::stream;
use dynbc_graph::{Csr, DynGraph, EdgeList};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{self, check_close, gpu_engine, self_samples, Ctx, Work};
use crate::host::WallSamples;
use crate::metrics::Report;
use crate::stats::Samples;
use crate::trace::{self, self_times};

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Suite graph (Table I short name).
    pub graph: &'static str,
    /// Suite scale.
    pub scale: f64,
    /// BC sources (the paper's `k`).
    pub sources: usize,
    /// Edges removed and reinserted per round (paper: 100).
    pub batch: usize,
    /// Engine constructions timed for `setup_s`.
    pub setups: usize,
}

impl Params {
    /// The benchmark's size.
    pub const FULL: Params = Params {
        graph: "del",
        scale: 0.35,
        sources: 24,
        batch: 100,
        setups: 7,
    };
    /// A seconds-long size for tests.
    pub const SMOKE: Params = Params {
        graph: "del",
        scale: 0.01,
        sources: 4,
        batch: 6,
        setups: 1,
    };
}

/// Runs the workload into `rep`; `Err` is a failed correctness gate.
pub fn run(p: Params, ctx: &mut Ctx, rep: &mut Report) -> Result<(), String> {
    let el = common::suite_graph(p.graph, p.scale);
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let sources = common::suite_sources(el.vertex_count(), p.sources);
    let tabu = stream::spanning_forest_tabu(&el);
    let (removals0, additions0) = stream::remove_then_add(&el, p.batch, &tabu, &mut rng);
    let start = common::without(&el, &removals0);
    rep.note(format!(
        "paper-insert: {}@{} n={} m={} k={} batch={}",
        p.graph,
        p.scale,
        el.vertex_count(),
        el.edge_count(),
        p.sources,
        p.batch
    ));

    // Both engines, built on the graph without a round's edges. Old
    // engines are dropped before new ones are built, so peak memory does
    // not depend on the number of rounds.
    let build = |start: &EdgeList| {
        (
            CpuDynamicBc::new(start, &sources),
            gpu_engine(start, &sources, Parallelism::Node, Backend::Native),
        )
    };
    let mut setup = Samples::new();
    let mut engines = None;
    for _ in 0..p.setups {
        drop(engines.take());
        let t = trace::now();
        engines = Some(build(&start));
        setup.push(t.elapsed().as_secs_f64());
    }
    let setup_factor = ctx.calib.segment_factor();

    let traced = ctx.traced();
    if traced {
        let t = trace::now();
        let csr = Csr::from_edge_list(&start);
        ctx.tracer
            .span("brandes.seed", 0, || brandes_state(&csr, &sources));
        rep.set("brandes.seed_s", t.elapsed().as_secs_f64());
    }
    // The plan layer, timed on a shadow graph against the sequential
    // engine's pre-op distances (traced runs only).
    let mut shadow = DynGraph::from_edge_list(&start);
    let mut stage_cuts = 0usize;
    let mut stage_count = 0usize;

    let mut cpu_ms = WallSamples::default();
    let mut native_ms = WallSamples::default();
    let mut work = Work::default();
    let mut ops_round0 = 0u64;
    let mut attempted = 0u64;
    let mut id = 0u64;
    let t_measure = trace::now();
    for round in 0.. {
        let additions = if round == 0 {
            additions0.clone()
        } else if round == 1 {
            // Once per run, the removal goes through the sequential
            // engine's removal path (`dynamic.removal_batch_ms`); the
            // native engine is rebuilt, as in later rounds, so its
            // scratch never grows to the removal batch's stage width.
            let (removals, additions) = stream::remove_then_add(&el, p.batch, &tabu, &mut rng);
            let (cpu, gpu) = engines.as_mut().expect("engines built");
            let root = ctx.tracer.begin("removal", id);
            ctx.tracer
                .span("dynamic.removal_batch", id, || cpu.apply_batch(&removals));
            ctx.tracer.end(root);
            attempted += removals.len() as u64;
            let start = common::without(&el, &removals);
            *gpu = gpu_engine(&start, &sources, Parallelism::Node, Backend::Native);
            if traced {
                shadow = DynGraph::from_edge_list(&start);
            }
            additions
        } else {
            // Later rounds start from engines built on the graph without
            // the round's edges: a removal batch costs several engine
            // builds, and is not what this workload measures.
            let (removals, additions) = stream::remove_then_add(&el, p.batch, &tabu, &mut rng);
            let start = common::without(&el, &removals);
            drop(engines.take());
            engines = Some(build(&start));
            if traced {
                shadow = DynGraph::from_edge_list(&start);
            }
            additions
        };
        let (cpu, gpu) = engines.as_mut().expect("engines built");
        for &op in &additions {
            let root = ctx.tracer.begin("op", id);
            if traced {
                ctx.tracer.span("plan.validate_batch", id, || {
                    plan::validate_batch(&mut shadow, &[op])
                });
                let d = &cpu.state().d;
                let planned = ctx
                    .tracer
                    .span("plan.plan_op", id, || plan::plan_op(&mut shadow, d, op));
                stage_cuts += usize::from(planned.cuts_stage());
                stage_count += common::stages(&[planned.cuts_stage()]);
            }
            let ops_before = *cpu.total_ops();
            let mut on_cpu = |ctx: &mut Ctx| {
                let t = trace::now();
                let r = ctx
                    .tracer
                    .span("dynamic.apply_batch", id, || cpu.apply_batch(&[op]));
                cpu_ms.push(t.elapsed().as_secs_f64() * 1e3);
                r
            };
            let mut on_native = |ctx: &mut Ctx| {
                let t = trace::now();
                let r = ctx
                    .tracer
                    .span("native.apply_batch", id, || gpu.apply_batch(&[op]));
                native_ms.push(t.elapsed().as_secs_f64() * 1e3);
                r
            };
            let (rc, rn) = if id.is_multiple_of(2) {
                let rc = on_cpu(ctx);
                (rc, on_native(ctx))
            } else {
                let rn = on_native(ctx);
                (on_cpu(ctx), rn)
            };
            if traced {
                ctx.tracer.span("native.bc_scores", id, || gpu.bc_scores());
            }
            ctx.tracer.end(root);
            if rc.per_op[0].cases != rn.per_op[0].cases {
                return Err(format!(
                    "insertion {op:?}: sequential cases {:?} != native cases {:?}",
                    rc.per_op[0].cases, rn.per_op[0].cases
                ));
            }
            if round == 0 {
                work.add(&rc);
                let d = *cpu.total_ops();
                ops_round0 += (d.edges - ops_before.edges)
                    + (d.inits - ops_before.inits)
                    + (d.queue_ops - ops_before.queue_ops)
                    + (d.accums - ops_before.accums);
            }
            attempted += 2;
            id += 1;
        }
        let f = ctx.calib.segment_factor();
        cpu_ms.close_segment(f);
        native_ms.close_segment(f);
        if t_measure.elapsed() >= ctx.budget {
            break;
        }
    }
    let wall_s = t_measure.elapsed().as_secs_f64();

    // Correctness: every round restores the full graph, so both engines
    // must match a fresh Brandes run on it.
    let oracle = brandes_state(&Csr::from_edge_list(&el), &sources);
    let (cpu, gpu) = engines.as_ref().expect("engines built");
    check_close("sequential engine", &cpu.state().bc, &oracle.bc)?;
    check_close("native engine", &gpu.bc_scores(), &oracle.bc)?;

    rep.attempted = attempted;
    let rate = native_ms.rate_per_s();
    common::report_wall(
        rep,
        setup.p50(),
        setup_factor,
        &mut native_ms,
        &mut cpu_ms,
        rate,
    );
    rep.note(format!(
        "paper-insert: {} insertions per engine; native p50 {:.4} p99 {:.4} ms; \
         sequential p50 {:.4} p99 {:.4} ms",
        native_ms.len(),
        native_ms.measured.p50(),
        native_ms.measured.p99(),
        cpu_ms.measured.p50(),
        cpu_ms.measured.p99()
    ));

    rep.set(
        "dynamic.ops_per_update",
        ops_round0 as f64 / work.ops as f64,
    );
    work.report(rep);
    if traced {
        let spans = ctx.take_spans();
        let selfs = self_times(&spans);
        let ms = |name| self_samples(&spans, &selfs, name, 1e6);
        let us = |name| self_samples(&spans, &selfs, name, 1e3);
        rep.set("native.apply_batch_ms_p50", ms("native.apply_batch").p50());
        rep.set("native.bc_scores_us_p50", us("native.bc_scores").p50());
        rep.set(
            "dynamic.removal_batch_ms",
            ms("dynamic.removal_batch").p50(),
        );
        rep.set("plan.validate_us_per_op", us("plan.validate_batch").mean());
        rep.set("plan.plan_us_per_op", us("plan.plan_op").mean());
        rep.set("plan.stages_per_op", stage_count as f64 / id as f64);
        rep.note(format!(
            "paper-insert: {stage_cuts} of {id} insertions change distances (cut a stage)"
        ));
        common::report_trace(&spans, "op", wall_s, rep);
        ctx.spans = spans;
    }
    Ok(())
}
