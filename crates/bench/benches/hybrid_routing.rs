//! Adaptive hybrid CPU/GPU routing: per-update backend selection.
//!
//! The paper's Figure 1 observation — the median Case 2 update touches
//! well under 10 % of |V| — means most updates are too small to be worth
//! fanning out over host threads (the spawn alone costs more than the
//! work), while the occasional relocation wants every core. The hybrid
//! backend routes each stage on a predicted touched footprint (online
//! EWMA keyed on case and root distance). This harness asserts the
//! routing claims on a caida insertion stream of mostly-Case-2 updates:
//! the median Case 2 update goes down the sequential CPU path, both
//! paths are exercised, results stay bit-identical, and the hybrid run
//! beats *both* pure backends on wall clock.

use dynbc_bc::gpu::{Backend, Parallelism};
use dynbc_bench::table::{fmt_seconds, fmt_speedup, Table};
use dynbc_bench::{build_setup, emit_bench_json, run_gpu, Config, DynRun};
use dynbc_gpusim::DeviceConfig;
use dynbc_graph::suite::entry_by_short;

fn main() {
    // Small caida (n ≈ 2.4k) with few sources: per-update work is tiny,
    // which is exactly the regime where routing matters. 60 updates give
    // the estimator room to learn and average out scheduler noise.
    let cfg = Config::from_env(0.1, 8, 60);
    let device = DeviceConfig::tesla_c2075();
    let entry = entry_by_short("caida").expect("caida is in the suite");
    let setup = build_setup(entry, &cfg);
    println!(
        "== hybrid routing: adaptive CPU-vs-native per update \
         ({}; caida n={} m={}; device = {}) ==\n",
        cfg.describe(),
        setup.n(),
        setup.m(),
        device.name
    );

    let on = |backend| setup.gpu(device, Parallelism::Node).with_backend(backend);
    let (sim, sim_eng) = run_gpu(&setup, on(Backend::Simulator));
    let (native, _) = run_gpu(&setup, on(Backend::Native));
    let (hybrid, hybrid_eng) = run_gpu(&setup, on(Backend::Hybrid));
    assert!(
        sim_eng
            .bc_scores()
            .iter()
            .zip(&hybrid_eng.bc_scores())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "routing must be invisible in the results"
    );

    // Replay the same stream with per-update router attribution: the
    // counter delta around each insertion says which path its stages
    // took. Case 2 updates (adjacent work, no relocation) are the
    // paper's common case — the router should keep their median on the
    // sequential CPU path once the estimator has seen a few.
    let mut router = on(Backend::Hybrid);
    let mut case2_total = 0u64;
    let mut case2_cpu = 0u64;
    for &(u, v) in &setup.insertions {
        let cpu_before = router.router_cpu_stages();
        let native_before = router.router_native_stages();
        let r = router.insert_edge(u, v);
        if r.cases.distant == 0 && r.cases.adjacent > 0 {
            case2_total += 1;
            if router.router_cpu_stages() > cpu_before
                && router.router_native_stages() == native_before
            {
                case2_cpu += 1;
            }
        }
    }
    let cpu_stages = router.router_cpu_stages();
    let native_stages = router.router_native_stages();

    let mut table = Table::new(vec!["Backend", "Wall", "vs hybrid"]);
    for run in [&sim, &native, &hybrid] {
        table.row(vec![
            run.label.clone(),
            fmt_seconds(run.total_wall_seconds),
            fmt_speedup(run.total_wall_seconds / hybrid.total_wall_seconds),
        ]);
    }
    println!("{}", table.render());
    println!(
        "router: {cpu_stages} stages -> sequential CPU path, \
         {native_stages} -> parallel native; \
         {case2_cpu}/{case2_total} Case 2 updates stayed on the CPU path"
    );
    let rows: Vec<(&str, &DynRun)> = [&sim, &native, &hybrid]
        .iter()
        .map(|r| ("caida", *r))
        .collect();
    if let Some(path) = emit_bench_json("hybrid_routing", &rows) {
        println!("machine-readable rows appended to {}", path.display());
    }

    let both_paths = cpu_stages > 0 && native_stages > 0;
    let median_case2_on_cpu = case2_cpu * 2 >= case2_total && case2_total > 0;
    let beats_native = hybrid.total_wall_seconds < native.total_wall_seconds;
    let beats_sim = hybrid.total_wall_seconds < sim.total_wall_seconds;
    println!(
        "\nrouting check: both paths exercised = {both_paths}; \
         median Case 2 on CPU path = {median_case2_on_cpu}; \
         hybrid beats native = {beats_native}; hybrid beats sim = {beats_sim} => {}",
        if both_paths && median_case2_on_cpu && beats_native && beats_sim {
            "PASS"
        } else {
            "FAIL"
        }
    );
    assert!(
        both_paths && median_case2_on_cpu && beats_native && beats_sim,
        "hybrid routing contract did not hold"
    );
}
