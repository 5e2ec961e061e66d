//! Shared experiment protocol (Section IV of the paper).
//!
//! "For each dynamic computation, 100 edges are chosen at random to be
//! removed from the graph ... These edges are then reinserted into the
//! graph one at a time and the analytic is updated. We choose k = 256
//! source nodes for approximation of BC, also at random ... For each
//! experiment we compare the results of the baseline and our algorithms
//! to ensure that both yield the same results."
//!
//! [`build_setup`] realizes that protocol (at configurable scale);
//! [`run_cpu`] / [`run_gpu`] execute it on one engine and verify the final
//! state against a from-scratch Brandes run before reporting any number.

use crate::config::Config;
use dynbc_bc::brandes::{brandes_state, sample_sources};
use dynbc_bc::dynamic::{CpuDynamicBc, UpdateResult};
use dynbc_bc::gpu::{Backend, GpuDynamicBc, Parallelism};
use dynbc_gpusim::DeviceConfig;
use dynbc_graph::suite::SuiteEntry;
use dynbc_graph::{Csr, EdgeList, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One prepared experiment: the start graph (suite graph minus the chosen
/// edges), the reinsertion stream, and the source set.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Suite short name.
    pub name: &'static str,
    /// Start graph (full graph with `insertions` removed).
    pub start: EdgeList,
    /// Edges to reinsert, in order.
    pub insertions: Vec<(VertexId, VertexId)>,
    /// BC source vertices.
    pub sources: Vec<VertexId>,
}

impl Setup {
    /// A GPU engine on the start graph and sources, ready for builders.
    pub fn gpu(&self, device: DeviceConfig, par: Parallelism) -> GpuDynamicBc {
        GpuDynamicBc::new(&self.start, &self.sources, device, par)
    }

    /// Vertex count.
    pub fn n(&self) -> usize {
        self.start.vertex_count()
    }

    /// Edge count of the start graph.
    pub fn m(&self) -> usize {
        self.start.edge_count()
    }
}

/// Builds the removal/reinsertion experiment for one suite entry.
pub fn build_setup(entry: &SuiteEntry, cfg: &Config) -> Setup {
    let full = entry.generate(cfg.scale, cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD1CE ^ entry.short.len() as u64);
    let mut idx: Vec<usize> = (0..full.edge_count()).collect();
    idx.shuffle(&mut rng);
    idx.truncate(cfg.insertions.min(full.edge_count()));
    let chosen: Vec<(VertexId, VertexId)> = idx.iter().map(|&i| full.edges()[i]).collect();
    let mut start = full;
    let removed = start.remove_edges(&chosen);
    assert_eq!(removed, chosen.len(), "all chosen edges must be removable");
    let sources = sample_sources(&mut rng, start.vertex_count(), cfg.sources);
    Setup {
        name: entry.short,
        start,
        insertions: chosen,
        sources,
    }
}

/// Result of one dynamic run over the full insertion stream.
#[derive(Debug)]
pub struct DynRun {
    /// Engine label (for tables).
    pub label: String,
    /// Per-insertion outcomes.
    pub per_insertion: Vec<UpdateResult>,
    /// Total modeled seconds across all insertions.
    pub total_model_seconds: f64,
    /// Total host wall seconds spent inside updates (diagnostic).
    pub total_wall_seconds: f64,
}

impl DynRun {
    fn from_results(label: String, per_insertion: Vec<UpdateResult>) -> Self {
        let total_model_seconds = per_insertion.iter().map(|r| r.model_seconds).sum();
        let total_wall_seconds = per_insertion.iter().map(|r| r.wall_seconds).sum();
        Self {
            label,
            per_insertion,
            total_model_seconds,
            total_wall_seconds,
        }
    }

    /// Slowest single-insertion modeled time.
    pub fn slowest(&self) -> f64 {
        self.per_insertion
            .iter()
            .map(|r| r.model_seconds)
            .fold(0.0, f64::max)
    }

    /// Mean single-insertion modeled time.
    pub fn average(&self) -> f64 {
        if self.per_insertion.is_empty() {
            0.0
        } else {
            self.total_model_seconds / self.per_insertion.len() as f64
        }
    }

    /// Fastest single-insertion modeled time.
    pub fn fastest(&self) -> f64 {
        self.per_insertion
            .iter()
            .map(|r| r.model_seconds)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Verifies a final BC state against a from-scratch Brandes recomputation,
/// panicking with context on any mismatch (the paper's every-experiment
/// equality check).
fn verify_final_state(setup: &Setup, bc: &[f64], label: &str) {
    let mut final_graph = setup.start.clone();
    for &(u, v) in &setup.insertions {
        final_graph.insert_edge(u, v);
    }
    let csr = Csr::from_edge_list(&final_graph);
    let fresh = brandes_state(&csr, &setup.sources);
    for (v, (&got, &want)) in bc.iter().zip(&fresh.bc).enumerate() {
        let diff = (got - want).abs();
        let tol = 1e-6 * want.abs().max(1.0);
        assert!(
            diff <= tol,
            "{label}: BC[{v}] = {got} disagrees with recomputation {want}"
        );
    }
}

/// Runs the insertion stream through the sequential CPU engine.
pub fn run_cpu(setup: &Setup) -> DynRun {
    let mut engine = CpuDynamicBc::new(&setup.start, &setup.sources);
    let results: Vec<UpdateResult> = setup
        .insertions
        .iter()
        .map(|&(u, v)| engine.insert_edge(u, v))
        .collect();
    verify_final_state(setup, &engine.state().bc, "cpu");
    DynRun::from_results("CPU (i7-2600K model)".to_string(), results)
}

/// Emits one harness's measured runs to `BENCH_dynbc.json` at the
/// workspace root (merge-by-harness; see [`crate::report`]): one row per
/// `(graph, engine)` cell carrying simulated and wall-clock seconds, plus
/// the host-thread count and git revision. Returns the path written, or
/// `None` when the file could not be written (reporting is best-effort —
/// it must never fail the harness).
pub fn emit_bench_json(harness: &str, runs: &[(&str, &DynRun)]) -> Option<std::path::PathBuf> {
    let mut report = crate::report::HarnessReport::new(harness);
    for (graph, run) in runs {
        report.push_row(
            graph,
            &run.label,
            run.total_model_seconds,
            run.total_wall_seconds,
        );
        report.annotate("updates", run.per_insertion.len() as f64);
        report.annotate("slowest_model_seconds", run.slowest());
    }
    report.write_default()
}

/// Runs the insertion stream through `engine`, configured by the
/// caller's builders (backend, profiling, memsim, ...), verifies the
/// final BC against Brandes, and hands the engine back so the caller can
/// read its scores (`bc_scores`, for bitwise comparisons the tolerance
/// check cannot express) or its profile report.
pub fn run_gpu(setup: &Setup, mut engine: GpuDynamicBc) -> (DynRun, GpuDynamicBc) {
    let results: Vec<UpdateResult> = setup
        .insertions
        .iter()
        .map(|&(u, v)| engine.insert_edge(u, v))
        .collect();
    let par = engine.parallelism();
    let backend = match engine.backend() {
        Backend::Simulator => String::new(),
        b => format!(" {b}"),
    };
    let label = format!("GPU {par}{backend} ({})", engine.device().name);
    verify_final_state(setup, &engine.bc_scores(), &label);
    (DynRun::from_results(label, results), engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynbc_graph::suite::entry_by_short;

    fn tiny_cfg() -> Config {
        Config {
            scale: 0.008,
            sources: 4,
            insertions: 5,
            seed: 99,
        }
    }

    #[test]
    fn setup_removes_then_reinserts_the_same_edges() {
        let entry = entry_by_short("small").unwrap();
        let cfg = tiny_cfg();
        let setup = build_setup(entry, &cfg);
        assert_eq!(setup.insertions.len(), 5);
        for &(u, v) in &setup.insertions {
            assert!(!setup.start.contains(u, v), "({u},{v}) should be removed");
        }
        assert_eq!(setup.sources.len(), 4);
    }

    #[test]
    fn setup_is_deterministic() {
        let entry = entry_by_short("pref").unwrap();
        let cfg = tiny_cfg();
        let a = build_setup(entry, &cfg);
        let b = build_setup(entry, &cfg);
        assert_eq!(a.start, b.start);
        assert_eq!(a.insertions, b.insertions);
        assert_eq!(a.sources, b.sources);
    }

    #[test]
    fn cpu_and_gpu_runs_verify_and_agree_on_cases() {
        let entry = entry_by_short("small").unwrap();
        let cfg = tiny_cfg();
        let setup = build_setup(entry, &cfg);
        let cpu = run_cpu(&setup);
        let (gpu, _) = run_gpu(
            &setup,
            setup.gpu(DeviceConfig::test_tiny(), Parallelism::Node),
        );
        assert_eq!(cpu.per_insertion.len(), gpu.per_insertion.len());
        for (rc, rg) in cpu.per_insertion.iter().zip(&gpu.per_insertion) {
            assert_eq!(rc.cases, rg.cases);
        }
        assert!(cpu.total_model_seconds > 0.0);
        assert!(gpu.fastest() <= gpu.average());
        assert!(gpu.average() <= gpu.slowest());
    }

    #[test]
    fn profiled_run_keeps_modeled_time_and_yields_counters() {
        let entry = entry_by_short("small").unwrap();
        let cfg = tiny_cfg();
        let setup = build_setup(entry, &cfg);
        let device = DeviceConfig::test_tiny();
        let (plain, _) = run_gpu(&setup, setup.gpu(device, Parallelism::Edge));
        let (profiled, mut engine) = run_gpu(
            &setup,
            setup.gpu(device, Parallelism::Edge).with_profiling(true),
        );
        let profile = engine.take_profile_report();
        assert_eq!(
            plain.total_model_seconds.to_bits(),
            profiled.total_model_seconds.to_bits(),
            "profiling must not perturb the machine model"
        );
        assert!(profile.total().edges_scanned > 0);
        assert!(!profile.launches.is_empty());
    }
}
