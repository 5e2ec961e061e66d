//! Shared pieces of the workloads: the run context, the pinned engine
//! constructors, the Brandes check, and work counts from batch results.

use std::time::Duration;

use dynbc_bc::brandes::sample_sources;
use dynbc_bc::gpu::{Backend, GpuDynamicBc, Parallelism};
use dynbc_bc::{BatchResult, InsertionCase};
use dynbc_gpusim::DeviceConfig;
use dynbc_graph::suite::entry_by_short;
use dynbc_graph::{EdgeList, EdgeOp, VertexId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::host::{Calibration, WallSamples};
use crate::stats::Samples;
use crate::trace::{self, self_times, Span, Tracer};

/// Seed of the suite graphs and their BC sources. Fixed, so every
/// `--seed` runs on the same graph with the same sources; the seed picks
/// the edge stream. (Per-insertion cost depends strongly on where the
/// few sources sit, so seeding them per run would swamp the ten-seed
/// spread with input variation.)
pub const GRAPH_SEED: u64 = 20_140_519;

/// One workload run's settings and recorder.
#[derive(Debug)]
pub struct Ctx {
    /// Seed of the sources and the edge stream.
    pub seed: u64,
    /// Measurement budget.
    pub budget: Duration,
    /// Span recorder of the driving thread (off for untraced runs).
    pub tracer: Tracer,
    /// Every span of the run, once the workload has finished tracing.
    pub spans: Vec<Span>,
    /// Host-speed calibration, sampled while the engines are idle.
    pub calib: Calibration,
}

impl Ctx {
    /// A context whose trace clock starts now.
    pub fn new(seed: u64, seconds: f64, traced: bool) -> Self {
        Self {
            seed,
            budget: Duration::from_secs_f64(seconds),
            tracer: Tracer::new(traced, trace::now(), 0),
            spans: Vec::new(),
            calib: Calibration::new(),
        }
    }

    /// Stops recording and returns the driving thread's spans.
    pub fn take_spans(&mut self) -> Vec<Span> {
        let off = Tracer::new(false, trace::now(), 0);
        std::mem::replace(&mut self.tracer, off).into_spans()
    }

    /// True for the traced (per-layer) run.
    pub fn traced(&self) -> bool {
        self.tracer.on()
    }
}

/// A Table I suite graph at `scale`, from the fixed graph seed.
pub fn suite_graph(short: &str, scale: f64) -> EdgeList {
    entry_by_short(short)
        .unwrap_or_else(|| panic!("no suite graph {short}"))
        .generate(scale, GRAPH_SEED)
}

/// `k` BC sources of an `n`-vertex suite graph, from the fixed seed.
pub fn suite_sources(n: usize, k: usize) -> Vec<VertexId> {
    sample_sources(&mut StdRng::seed_from_u64(GRAPH_SEED), n, k)
}

/// `el` with the edges of `ops` removed.
pub fn without(el: &EdgeList, ops: &[EdgeOp]) -> EdgeList {
    let pairs: Vec<(VertexId, VertexId)> = ops.iter().map(|op| op.endpoints()).collect();
    let mut g = el.clone();
    assert_eq!(
        g.remove_edges(&pairs),
        pairs.len(),
        "every removed edge present"
    );
    g
}

/// A GPU engine with every option set explicitly: the given
/// decomposition and backend, one host thread, and no telemetry,
/// profiling, memsim or racecheck.
pub fn gpu_engine(
    el: &EdgeList,
    sources: &[VertexId],
    par: Parallelism,
    backend: Backend,
) -> GpuDynamicBc {
    GpuDynamicBc::new(el, sources, DeviceConfig::tesla_c2075(), par)
        .with_backend(backend)
        .with_host_threads(1)
        .with_telemetry(false)
        .with_profiling(false)
        .with_memsim(false)
        .with_racecheck(false)
}

/// Checks `got` against a fresh Brandes recomputation `want` within
/// 1e-6 relative (absolute near zero).
pub fn check_close(label: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{label}: {} scores, oracle has {}",
            got.len(),
            want.len()
        ));
    }
    for (v, (&g, &w)) in got.iter().zip(want).enumerate() {
        if (g - w).abs() > 1e-6 * w.abs().max(1.0) {
            return Err(format!("{label}: BC[{v}] = {g}, Brandes recomputation {w}"));
        }
    }
    Ok(())
}

/// Work counts over the ops of batch results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Ops counted.
    pub ops: u64,
    /// `(source, op)` pairs counted.
    pub pairs: u64,
    /// Vertices touched, summed over pairs.
    pub touched: u64,
    /// Pairs in Case 2 or 3 (any work).
    pub worked: u64,
    /// Pairs in Case 3 (distances change).
    pub case3: u64,
}

impl Work {
    /// Folds in every op of `r`.
    pub fn add(&mut self, r: &BatchResult) {
        for op in &r.per_op {
            self.ops += 1;
            for s in &op.per_source {
                self.pairs += 1;
                self.touched += s.touched as u64;
                self.worked += u64::from(s.case != InsertionCase::Same);
                self.case3 += u64::from(s.case == InsertionCase::Distant);
            }
        }
    }

    /// Records the `bc.*` metrics.
    pub fn report(&self, rep: &mut crate::metrics::Report) {
        let per = |x: u64, of: u64| if of == 0 { 0.0 } else { x as f64 / of as f64 };
        rep.set("bc.touched_per_op", per(self.touched, self.ops));
        rep.set("bc.worked_source_frac", per(self.worked, self.pairs));
        rep.set("bc.case3_frac", per(self.case3, self.pairs));
    }
}

/// Records the end-to-end wall-clock metrics, each on the reference
/// host and as measured: the set-up time (scaled by `setup_factor`), the
/// primary path's per-op p50 and p99, the reference path's p50, and
/// `rate` (ops per second, as measured and scaled).
pub fn report_wall(
    rep: &mut crate::metrics::Report,
    setup_s: f64,
    setup_factor: f64,
    primary: &mut WallSamples,
    reference: &mut WallSamples,
    rate: (f64, f64),
) {
    rep.set_wall("setup_s", setup_s, setup_s * setup_factor);
    rep.set_wall(
        "update_ms_p50",
        primary.measured.p50(),
        primary.scaled.p50(),
    );
    rep.set_wall(
        "update_ms_p99",
        primary.measured.p99(),
        primary.scaled.p99(),
    );
    rep.set_wall(
        "ref_update_ms_p50",
        reference.measured.p50(),
        reference.scaled.p50(),
    );
    rep.set_wall("ops_per_s", rate.0, rate.1);
}

/// Stage count of one batch from its ops' stage-cut flags: a stage ends
/// at every cutting op and at the batch's end.
pub fn stages(cuts: &[bool]) -> usize {
    cuts.iter().filter(|&&c| c).count() + usize::from(cuts.last() == Some(&false))
}

/// Self times of the spans named `name`, in units of `scale_ns`.
pub fn self_samples(spans: &[Span], selfs: &[u64], name: &str, scale_ns: f64) -> Samples {
    let mut s = Samples::new();
    for (sp, &t) in spans.iter().zip(selfs) {
        if sp.name == name {
            s.push(t as f64 / scale_ns);
        }
    }
    s
}

/// Span-derived metrics every traced workload reports: the remainder of
/// the root spans named `root` no timed layer covers, and the share of
/// the traced wall time spent recording spans. Also notes the check
/// that the layers plus the remainder add up to the roots.
pub fn report_trace(spans: &[Span], root: &str, wall_s: f64, rep: &mut crate::metrics::Report) {
    let selfs = self_times(spans);
    rep.set(
        "unattributed_ms_p50",
        self_samples(spans, &selfs, root, 1e6).p50(),
    );
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == root)
        .collect();
    let root_ns: u64 = roots.iter().map(|&i| spans[i].dur_ns()).sum();
    let under_root = |mut i: usize| loop {
        if spans[i].name == root {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    };
    let inside_ns: u64 = (0..spans.len())
        .filter(|&i| under_root(i))
        .map(|i| selfs[i])
        .sum();
    rep.note(format!(
        "trace: {} '{root}' spans total {:.3} ms = layers + unattributed {:.3} ms",
        roots.len(),
        root_ns as f64 / 1e6,
        inside_ns as f64 / 1e6
    ));
    let cost = crate::trace::span_cost_ns();
    rep.set(
        "trace.overhead_pct",
        100.0 * spans.len() as f64 * cost / (wall_s * 1e9),
    );
    rep.note(format!(
        "trace: {} spans at {cost:.0} ns each over {wall_s:.3} s traced",
        spans.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_count_from_cuts() {
        assert_eq!(stages(&[]), 0);
        assert_eq!(stages(&[false]), 1);
        assert_eq!(stages(&[true]), 1);
        assert_eq!(stages(&[false, false, true]), 1);
        assert_eq!(stages(&[true, false, true, false]), 3);
    }

    #[test]
    fn close_check_is_relative_with_an_absolute_floor() {
        assert!(check_close("x", &[1000.0, 0.0], &[1000.0005, 5e-7]).is_ok());
        assert!(check_close("x", &[1000.0], &[1000.01]).is_err());
        assert!(check_close("x", &[1.0], &[1.0, 2.0]).is_err());
    }
}
