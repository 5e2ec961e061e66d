//! Golden test of the update-lifecycle telemetry every engine records.
//!
//! For one fixed mixed insert/remove stream, applied in batches of mixed
//! width, it pins each engine's `prometheus_deterministic()` exposition
//! and every span's model-clock fields (name, track, depth, start,
//! duration, arguments) against `tests/golden/lifecycle.txt`. Wall-clock
//! fields are left out: they are the only non-deterministic part of a
//! report.
//!
//! Memsim counters depend on synthetic buffer addresses, which each
//! device allocates from its own address space, so nothing else the
//! process allocates can move them.

use dynbc::gpusim::DeviceConfig;
use dynbc::prelude::*;
use dynbc::telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/lifecycle.txt");

/// A small-world graph, 6 sources and 24 ops, each valid when applied in
/// order: an op removes `{a, b}` when present and inserts it otherwise.
fn workload() -> (EdgeList, Vec<VertexId>, Vec<EdgeOp>) {
    let mut rng = StdRng::seed_from_u64(2014);
    let n = 96;
    let el = dynbc::graph::gen::ws(&mut rng, n, 3, 0.2);
    let sources = sample_sources(&mut rng, n, 6);
    let mut probe = DynGraph::from_edge_list(&el);
    let mut ops = Vec::new();
    while ops.len() < 24 {
        let a = rng.gen_range(0..n as u32);
        let b = rng.gen_range(0..n as u32);
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
    (el, sources, ops)
}

/// Batch widths the stream is cut into (sums to the stream length).
const WIDTHS: [usize; 6] = [1, 3, 1, 8, 4, 7];

fn drive(ops: &[EdgeOp], mut apply: impl FnMut(&[EdgeOp])) {
    let mut at = 0;
    for w in WIDTHS {
        apply(&ops[at..at + w]);
        at += w;
    }
    assert_eq!(at, ops.len());
}

fn render(label: &str, tel: &Telemetry, out: &mut String) {
    writeln!(out, "== {label} ==").unwrap();
    out.push_str(&tel.prometheus_deterministic());
    for s in tel.trace().spans() {
        writeln!(
            out,
            "span {} track={} depth={} start={:?} dur={:?} args={:?}",
            s.name, s.track, s.depth, s.start_s, s.dur_s, s.args
        )
        .unwrap();
    }
}

fn lifecycle_text() -> String {
    let (el, sources, ops) = workload();
    let mut out = String::new();

    let mut cpu = CpuDynamicBc::new(&el, &sources).with_telemetry(true);
    drive(&ops, |b| {
        cpu.apply_batch(b);
    });
    render("cpu", cpu.telemetry_report().unwrap(), &mut out);

    let mut gpu = GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), Parallelism::Node)
        .with_backend(Backend::Simulator)
        .with_profiling(true)
        .with_memsim(true)
        .with_telemetry(true);
    drive(&ops, |b| {
        gpu.apply_batch(b);
    });
    render("gpu", gpu.telemetry_report().unwrap(), &mut out);

    let mut multi = MultiGpuDynamicBc::new(
        &el,
        &sources,
        DeviceConfig::test_tiny(),
        Parallelism::Node,
        2,
    )
    .with_devices(|e| {
        e.with_backend(Backend::Simulator)
            .with_profiling(true)
            .with_memsim(true)
    })
    .with_telemetry(true);
    drive(&ops, |b| {
        multi.apply_batch(b);
    });
    render("multi", multi.telemetry_report().unwrap(), &mut out);
    out
}

#[test]
fn lifecycle_telemetry_matches_golden() {
    let got = lifecycle_text();
    if let Some((i, (g, e))) = got
        .lines()
        .zip(GOLDEN.lines())
        .enumerate()
        .find(|(_, (g, e))| g != e)
    {
        panic!("line {}: got\n  {g}\nexpected\n  {e}", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        GOLDEN.lines().count(),
        "line count differs"
    );
}
