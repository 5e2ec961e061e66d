//! Table II: dynamic CPU vs dynamic GPU (edge- and node-parallel) across
//! the benchmark suite.
//!
//! The paper's numbers (Tesla C2075 vs one i7-2600K core, 100 insertions,
//! k = 256): node-parallel wins everywhere, up to 110×; edge-parallel
//! ranges from 20.6× (caida) down to 1.03× (delaunay — its many BFS
//! levels each rescan all |E| arcs). Shape checks: node beats edge on
//! every graph, node beats the CPU by a large factor everywhere, and
//! edge's advantage over the CPU collapses on the mesh.

use dynbc_bc::gpu::{Backend, Parallelism};
use dynbc_bench::table::{fmt_seconds, fmt_speedup, Table};
use dynbc_bench::{build_setup, emit_bench_json, paper, run_cpu, run_gpu, Config, DynRun};
use dynbc_gpusim::DeviceConfig;
use dynbc_graph::suite::TABLE_I;

fn main() {
    let cfg = Config::from_env(0.35, 24, 20);
    let device = DeviceConfig::tesla_c2075();
    println!(
        "== Table II: dynamic CPU vs dynamic GPU ({}; device = {}) ==\n",
        cfg.describe(),
        device.name
    );

    let mut table = Table::new(vec![
        "Graph",
        "CPU (model)",
        "GPU Edge",
        "Edge speedup",
        "GPU Node",
        "Node speedup",
        "paper E/N",
    ]);
    let mut node_beats_edge_everywhere = true;
    let mut min_node_speedup = f64::INFINITY;
    let mut max_node_speedup: f64 = 0.0;
    let mut edge_speedups = Vec::new();
    let mut measured: Vec<(&str, DynRun)> = Vec::new();
    let mut wall_table = Table::new(vec!["Graph", "Node sim wall", "Node native wall"]);
    for entry in &TABLE_I {
        let setup = build_setup(entry, &cfg);
        eprintln!(
            "[table2] {}: n={} m={} ... ",
            entry.short,
            setup.n(),
            setup.m()
        );
        let cpu = run_cpu(&setup);
        let (edge, _) = run_gpu(&setup, setup.gpu(device, Parallelism::Edge));
        let (node, _) = run_gpu(&setup, setup.gpu(device, Parallelism::Node));
        let edge_speedup = cpu.total_model_seconds / edge.total_model_seconds;
        let node_speedup = cpu.total_model_seconds / node.total_model_seconds;
        node_beats_edge_everywhere &= node.total_model_seconds < edge.total_model_seconds;
        min_node_speedup = min_node_speedup.min(node_speedup);
        max_node_speedup = max_node_speedup.max(node_speedup);
        edge_speedups.push((entry.short, edge_speedup));
        let p = paper::table2_row(entry.short).unwrap();
        table.row(vec![
            entry.short.to_string(),
            fmt_seconds(cpu.total_model_seconds),
            fmt_seconds(edge.total_model_seconds),
            fmt_speedup(edge_speedup),
            fmt_seconds(node.total_model_seconds),
            fmt_speedup(node_speedup),
            format!(
                "{} / {}",
                fmt_speedup(p.edge_speedup()),
                fmt_speedup(p.node_speedup())
            ),
        ]);
        // Serving-speed row: the same node-parallel stream on the native
        // backend (identical results, no model clock — wall time is the
        // number that matters there).
        let (native, _) = run_gpu(
            &setup,
            setup
                .gpu(device, Parallelism::Node)
                .with_backend(Backend::Native),
        );
        wall_table.row(vec![
            entry.short.to_string(),
            fmt_seconds(node.total_wall_seconds),
            fmt_seconds(native.total_wall_seconds),
        ]);
        measured.push((entry.short, cpu));
        measured.push((entry.short, edge));
        measured.push((entry.short, node));
        measured.push((entry.short, native));
    }
    println!("{}", table.render());
    println!("host wall-clock of the node-parallel stream per backend:");
    println!("{}", wall_table.render());
    let rows: Vec<(&str, &DynRun)> = measured.iter().map(|(g, r)| (*g, r)).collect();
    if let Some(path) = emit_bench_json("table2_cpu_vs_gpu", &rows) {
        println!("machine-readable rows appended to {}", path.display());
    }
    println!(
        "paper headline: node up to {:.0}x over CPU; node > edge on all graphs",
        paper::MAX_NODE_SPEEDUP_VS_CPU
    );

    // Shape checks.
    let del_edge = edge_speedups
        .iter()
        .find(|(g, _)| *g == "del")
        .map(|&(_, s)| s)
        .unwrap();
    let best_edge = edge_speedups.iter().map(|&(_, s)| s).fold(0.0, f64::max);
    let ok = node_beats_edge_everywhere
        && min_node_speedup > 3.0
        && max_node_speedup > 15.0
        && del_edge < best_edge / 3.0;
    println!(
        "\npaper-shape check: node<edge time on all graphs = {node_beats_edge_everywhere}; \
         node speedup range {:.1}x..{:.1}x (paper 23.9x..110.4x); \
         edge speedup collapses on del ({:.2}x vs best {:.1}x) => {}",
        min_node_speedup,
        max_node_speedup,
        del_edge,
        best_edge,
        if ok { "PASS" } else { "FAIL" }
    );
    assert!(ok, "Table II shape did not reproduce");
}
