//! Native direct-execution backend: bit-exactness and wall-clock speedup
//! over the SIMT simulator.
//!
//! The simulator interprets every kernel lane against the machine model,
//! which is what the paper's *measurements* need — but serving an update
//! stream only needs the results. The native backend runs the same
//! node-parallel stage work as plain Rust loops over the same buffers;
//! this harness asserts the contract on a caida-scale insertion stream:
//! BC scores **bit-identical** to the simulator, case tallies identical,
//! and wall-clock at least 20× faster.

use dynbc_bc::gpu::{Backend, Parallelism};
use dynbc_bench::table::{fmt_seconds, fmt_speedup, Table};
use dynbc_bench::{build_setup, emit_bench_json, run_gpu, Config, DynRun};
use dynbc_gpusim::DeviceConfig;
use dynbc_graph::suite::TABLE_I;

fn main() {
    let cfg = Config::from_env(0.35, 24, 20);
    let device = DeviceConfig::tesla_c2075();
    println!(
        "== native backend: wall-clock serving speed vs the simulator \
         ({}; device = {}) ==\n",
        cfg.describe(),
        device.name
    );

    let mut table = Table::new(vec![
        "Graph",
        "Sim wall",
        "Native wall",
        "Native speedup",
        "BC bits",
    ]);
    let mut measured: Vec<(&str, DynRun)> = Vec::new();
    let mut caida_speedup = 0.0f64;
    let mut bits_identical_everywhere = true;
    // caida is the headline graph (the paper's Table II opener); the two
    // structural extremes — the mesh-like delaunay and the small-world
    // graph — keep the bit-exactness claim honest across BFS shapes.
    for entry in TABLE_I
        .iter()
        .filter(|e| matches!(e.short, "caida" | "del" | "small"))
    {
        let setup = build_setup(entry, &cfg);
        eprintln!(
            "[native_backend] {}: n={} m={} ...",
            entry.short,
            setup.n(),
            setup.m()
        );
        let on = |backend| setup.gpu(device, Parallelism::Node).with_backend(backend);
        let (sim, sim_eng) = run_gpu(&setup, on(Backend::Simulator));
        let (native, native_eng) = run_gpu(&setup, on(Backend::Native));
        let (sim_bc, native_bc) = (sim_eng.bc_scores(), native_eng.bc_scores());

        let bits_ok = sim_bc
            .iter()
            .zip(&native_bc)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        bits_identical_everywhere &= bits_ok;
        for (rs, rn) in sim.per_insertion.iter().zip(&native.per_insertion) {
            assert_eq!(rs.cases, rn.cases, "{}: case tallies diverged", entry.short);
            assert_eq!(
                rs.per_source, rn.per_source,
                "{}: per-source outcomes diverged",
                entry.short
            );
        }

        let speedup = sim.total_wall_seconds / native.total_wall_seconds;
        if entry.short == "caida" {
            caida_speedup = speedup;
        }
        table.row(vec![
            entry.short.to_string(),
            fmt_seconds(sim.total_wall_seconds),
            fmt_seconds(native.total_wall_seconds),
            fmt_speedup(speedup),
            if bits_ok { "identical" } else { "DIVERGED" }.to_string(),
        ]);
        measured.push((entry.short, sim));
        measured.push((entry.short, native));
    }
    println!("{}", table.render());
    let rows: Vec<(&str, &DynRun)> = measured.iter().map(|(g, r)| (*g, r)).collect();
    if let Some(path) = emit_bench_json("native_backend", &rows) {
        println!("machine-readable rows appended to {}", path.display());
    }

    let ok = bits_identical_everywhere && caida_speedup >= 20.0;
    println!(
        "\nbackend check: BC bit-identical on all graphs = {bits_identical_everywhere}; \
         caida native speedup {caida_speedup:.0}x (floor 20x) => {}",
        if ok { "PASS" } else { "FAIL" }
    );
    assert!(ok, "native backend contract did not hold");
}
