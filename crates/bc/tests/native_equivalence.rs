//! Property test for the backend bit-exactness contract: the native
//! direct-execution backend must be *bit*-identical to the SIMT
//! simulator — same BC score bits, same per-op case tallies, same
//! per-source touched statistics — on mixed insert/delete streams, for
//! any host-thread count, on both the single- and multi-GPU engines.
//!
//! The simulator is the oracle: it interprets every kernel lane against
//! the machine model, so agreement here certifies the plain-loop
//! translations in `bc/src/native` statement by statement.

use dynbc_bc::cases::InsertionCase;
use dynbc_bc::dynamic::{OpOutcome, SourceOutcome};
use dynbc_bc::gpu::{Backend, GpuDynamicBc, MultiGpuDynamicBc, Parallelism};
use dynbc_gpusim::DeviceConfig;
use dynbc_graph::{DynGraph, EdgeList, EdgeOp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (
        6usize..18,
        proptest::collection::vec((0u32..18, 0u32..18), 4..40),
    )
        .prop_map(|(n, pairs)| {
            let n = n.max(
                pairs
                    .iter()
                    .map(|&(a, b)| a.max(b) as usize + 1)
                    .max()
                    .unwrap_or(0),
            );
            EdgeList::from_pairs(n, pairs)
        })
}

/// Derives a valid mixed op stream from `(graph, seed)`: at each step a
/// random vertex pair becomes a removal if the edge currently exists and
/// an insertion otherwise, tracked against a probe graph so the stream
/// never contains self loops, duplicate insertions, or absent removals.
fn op_stream(el: &EdgeList, seed: u64, len: usize) -> Vec<EdgeOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut probe = DynGraph::from_edge_list(el);
    let n = probe.vertex_count() as u32;
    let mut ops = Vec::new();
    let mut attempts = 0;
    while ops.len() < len && attempts < 400 {
        attempts += 1;
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        let op = if probe.has_edge(a, b) {
            EdgeOp::Remove(a, b)
        } else {
            EdgeOp::Insert(a, b)
        };
        assert!(probe.apply_op(op));
        ops.push(op);
    }
    ops
}

fn sources_for(el: &EdgeList) -> Vec<u32> {
    (0..el.vertex_count() as u32).step_by(3).collect()
}

fn bits(bc: &[f64]) -> Vec<u64> {
    bc.iter().map(|x| x.to_bits()).collect()
}

/// One batched run on the single-GPU engine; returns `(bc bits, per-op
/// outcomes)` — cases *and* per-source touched statistics.
fn run_single(
    el: &EdgeList,
    ops: &[EdgeOp],
    backend: Backend,
    threads: usize,
) -> (Vec<u64>, Vec<OpOutcome>) {
    let mut eng = GpuDynamicBc::new(el, &sources_for(el), DeviceConfig::test_tiny(), {
        Parallelism::Node
    })
    .with_backend(backend)
    .with_host_threads(threads);
    let br = eng.apply_batch(ops);
    (bits(&eng.state_snapshot().bc), br.per_op)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn native_backend_is_bit_identical_to_simulator(el in arb_graph(), seed in 0u64..1_000, len in 2usize..8) {
        let ops = op_stream(&el, seed, len);
        if ops.is_empty() { return Ok(()); }
        let (oracle_bits, oracle_ops) = run_single(&el, &ops, Backend::Simulator, 1);

        for backend in [Backend::Native] {
            for threads in [1usize, 2, 8] {
                let (got_bits, got_ops) = run_single(&el, &ops, backend, threads);
                prop_assert_eq!(got_ops.len(), oracle_ops.len());
                for (i, (got, want)) in got_ops.iter().zip(&oracle_ops).enumerate() {
                    prop_assert_eq!(
                        got.cases, want.cases,
                        "{} t{}: op {} case tallies", backend, threads, i
                    );
                    prop_assert_eq!(
                        &got.per_source, &want.per_source,
                        "{} t{}: op {} per-source outcomes", backend, threads, i
                    );
                }
                prop_assert_eq!(
                    got_bits, oracle_bits.clone(),
                    "{} t{}: BC bits vs simulator", backend, threads
                );
            }
        }
    }

    #[test]
    fn multi_gpu_native_is_bit_identical_to_simulator(el in arb_graph(), seed in 0u64..1_000, len in 2usize..6) {
        let ops = op_stream(&el, seed, len);
        if ops.is_empty() { return Ok(()); }
        let sources = sources_for(&el);
        let device = DeviceConfig::test_tiny();
        let mut oracle = MultiGpuDynamicBc::new(&el, &sources, device, Parallelism::Node, 2)
            .with_devices(|e| e.with_backend(Backend::Simulator).with_host_threads(1));
        let oracle_br = oracle.apply_batch(&ops);
        let oracle_bits = bits(&oracle.bc());

        for backend in [Backend::Native] {
            for threads in [1usize, 2, 8] {
                let mut eng = MultiGpuDynamicBc::new(&el, &sources, device, Parallelism::Node, 2)
                    .with_devices(|e| e.with_backend(backend).with_host_threads(threads));
                let br = eng.apply_batch(&ops);
                for (i, (got, want)) in br.per_op.iter().zip(&oracle_br.per_op).enumerate() {
                    prop_assert_eq!(
                        got.cases, want.cases,
                        "{} t{}: op {} case tallies", backend, threads, i
                    );
                    prop_assert_eq!(
                        &got.per_source, &want.per_source,
                        "{} t{}: op {} per-source outcomes", backend, threads, i
                    );
                }
                prop_assert_eq!(
                    bits(&eng.bc()), oracle_bits.clone(),
                    "{} t{}: BC bits vs simulator", backend, threads
                );
            }
        }
    }
}

/// A two-level tree of `width` children under root 0, `width` grandchildren
/// under each child, plus one isolated vertex at the end — distances from
/// root 0 are 0 / 1 / 2 / ∞, which lets a stream dial in exactly the case
/// it wants.
fn two_level_tree(width: usize) -> EdgeList {
    let n = 1 + width + width * width + 1;
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for c in 0..width as u32 {
        pairs.push((0, 1 + c));
    }
    for g in 0..(width * width) as u32 {
        let parent = 1 + (g % width as u32);
        pairs.push((parent, 1 + width as u32 + g));
    }
    EdgeList::from_pairs(n, pairs)
}

/// A component merge (Case 3 for every source) followed by small Case 2
/// insertions, one op per batch: native must match the simulator bit for
/// bit at 1 and 2 host threads, outcome by outcome.
#[test]
fn merge_then_case2_stream_is_bit_identical_across_backends() {
    let width = 12;
    let el = two_level_tree(width);
    let isolated = el.vertex_count() as u32 - 1;
    let grandchild = 1 + width as u32;
    // Root, a child and a grandchild: three source rows, so two host
    // threads have distinct blocks to fan over.
    let sources = [0u32, 1, grandchild];
    let ops = [
        // The isolated vertex is unreachable from every source.
        EdgeOp::Insert(0, isolated),
        // (child, foreign grandchild): distances 1 and 2 from the root.
        EdgeOp::Insert(1, grandchild + 1),
        EdgeOp::Insert(2, grandchild + 2),
        EdgeOp::Insert(3, grandchild + 3),
    ];
    let run = |backend: Backend, threads: usize| {
        let mut eng = GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), {
            Parallelism::Node
        })
        .with_backend(backend)
        .with_host_threads(threads);
        let per_op: Vec<OpOutcome> = ops
            .iter()
            .flat_map(|&op| eng.apply_batch(&[op]).per_op)
            .collect();
        (bits(&eng.state_snapshot().bc), per_op)
    };

    let (oracle_bits, oracle_ops) = run(Backend::Simulator, 1);
    assert_eq!(oracle_ops[0].cases.distant, 3, "merge is Case 3");
    assert!(
        oracle_ops[1..]
            .iter()
            .all(|o| o.per_source[0].case == InsertionCase::Adjacent),
        "later ops are Case 2 for the root"
    );
    for threads in [1usize, 2] {
        let (got_bits, got_ops) = run(Backend::Native, threads);
        assert_eq!(got_ops, oracle_ops, "native t{threads}: per-op outcomes");
        assert_eq!(got_bits, oracle_bits, "native t{threads}: BC bits");
    }
}

/// The backend can change after batches have run: simulator stages leave
/// scratch `t` flags behind that the sparse native kernels must never see,
/// so `with_backend(Native)` clears them. Switching mid-stream must match
/// an all-simulator run.
#[test]
fn switching_to_native_after_simulator_stages_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(11);
    let el = dynbc_graph::gen::er(&mut rng, 40, 70);
    let sources = sources_for(&el);
    let ops = op_stream(&el, 5, 12);
    let (head, tail) = ops.split_at(ops.len() / 2);
    let engine = || {
        GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), Parallelism::Node)
            .with_backend(Backend::Simulator)
            .with_host_threads(1)
    };
    let apply = |eng: &mut GpuDynamicBc, ops: &[EdgeOp]| -> Vec<OpOutcome> {
        ops.iter()
            .flat_map(|&op| eng.apply_batch(&[op]).per_op)
            .collect()
    };

    let mut oracle = engine();
    let mut oracle_ops = apply(&mut oracle, head);
    oracle_ops.extend(apply(&mut oracle, tail));

    let mut switched = engine();
    let mut got_ops = apply(&mut switched, head);
    let mut switched = switched.with_backend(Backend::Native);
    got_ops.extend(apply(&mut switched, tail));

    assert_eq!(got_ops, oracle_ops, "per-op outcomes");
    assert_eq!(
        bits(&switched.state_snapshot().bc),
        bits(&oracle.state_snapshot().bc),
        "BC bits"
    );
}

/// Touched statistics land in `SourceOutcome`s — make sure the import is
/// exercised so the per-source comparison above stays honest about what
/// it compares.
#[test]
fn per_source_outcomes_carry_touched_counts() {
    let el = EdgeList::from_pairs(4, [(0, 1), (0, 2), (1, 3)]);
    let mut eng = GpuDynamicBc::new(&el, &[0], DeviceConfig::test_tiny(), Parallelism::Node)
        .with_backend(Backend::Native);
    let r = eng.insert_edge(2, 3);
    let touched: Vec<SourceOutcome> = r.per_source;
    assert!(touched[0].touched > 0);
}
