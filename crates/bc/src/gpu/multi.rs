//! Multi-GPU dynamic BC — the paper's first future-work item.
//!
//! "Further performance improvements can be attained with multi-GPU,
//! heterogeneous, or distributed implementations of this algorithm. The
//! vast amount of coarse-grained parallelism that exists should allow for
//! excellent strong scaling."
//!
//! The coarse grain is the *source vertex*: per-source updates never
//! communicate (only the final BC accumulation does), so a D-device
//! system partitions the k sources round-robin, replicates the graph, and
//! reduces per-device partial BC vectors on the host when scores are
//! read. Per-update simulated time is the slowest device's time — the
//! honest strong-scaling number, which degrades exactly when source
//! workloads are skewed (one device drawing the heavy Case 3 sources).

use super::engine::{GpuDynamicBc, Parallelism};
use crate::dynamic::result::{BatchResult, UpdateResult};
use crate::obs::{Recorder, Volume};
use dynbc_gpusim::{telemetry_from_env, DeviceConfig, ProfileReport};
use dynbc_graph::{EdgeList, EdgeOp, SlackCsr, VertexId};
use dynbc_telemetry::{Span, Telemetry};

/// Dynamic BC across several (simulated) GPUs.
#[derive(Debug)]
pub struct MultiGpuDynamicBc {
    devices: Vec<GpuDynamicBc>,
    rec: Recorder,
}

impl MultiGpuDynamicBc {
    /// Builds a `num_devices`-GPU engine, partitioning `sources`
    /// round-robin. Every device holds the whole graph (the replication
    /// model the paper's future-work sketch implies).
    pub fn new(
        el: &EdgeList,
        sources: &[VertexId],
        device: DeviceConfig,
        par: Parallelism,
        num_devices: usize,
    ) -> Self {
        assert!(num_devices >= 1, "need at least one device");
        assert!(!sources.is_empty(), "need at least one source to partition");
        let devices = (0..num_devices.min(sources.len()))
            .map(|d| {
                let mine: Vec<VertexId> = sources
                    .iter()
                    .copied()
                    .skip(d)
                    .step_by(num_devices)
                    .collect();
                // Telemetry stays at the multi-engine level: per-device
                // collectors would double-count every update (see
                // `with_telemetry`).
                GpuDynamicBc::new(el, &mine, device, par).with_telemetry(false)
            })
            .collect();
        Self {
            devices,
            rec: Recorder::new(telemetry_from_env()),
        }
    }

    /// Configures every device engine with the same builder chain, e.g.
    /// `.with_devices(|e| e.with_backend(Backend::Simulator).with_profiling(true))`.
    /// Device-level telemetry is forced back off afterwards (see
    /// [`with_telemetry`](Self::with_telemetry)).
    pub fn with_devices(mut self, configure: impl Fn(GpuDynamicBc) -> GpuDynamicBc) -> Self {
        self.devices = self
            .devices
            .into_iter()
            .map(|d| configure(d).with_telemetry(false))
            .collect();
        self
    }

    /// Enables/disables engine-level telemetry; overrides
    /// `DYNBC_TELEMETRY`.
    ///
    /// Deliberately *not* forwarded to the per-device engines: the batch
    /// is one logical update, so the multi engine records it once —
    /// makespan latency, summed case tallies, per-device utilization
    /// gauges, and one `device[d]` span per device, merged in
    /// device-index order so everything model-clocked stays bit-identical
    /// for any `DYNBC_HOST_THREADS`.
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.rec.enable(on);
        self
    }

    /// True when batches record telemetry.
    pub fn telemetry(&self) -> bool {
        self.rec.on()
    }

    /// The telemetry accumulated by batches applied with telemetry on.
    pub fn telemetry_report(&self) -> Option<&Telemetry> {
        self.rec.report()
    }

    /// Drains the accumulated telemetry, leaving a fresh collector behind.
    pub fn take_telemetry_report(&mut self) -> Option<Telemetry> {
        self.rec.take()
    }

    /// Warning-severity racecheck diagnostics summed over all devices.
    pub fn racecheck_warnings(&self) -> u64 {
        self.devices
            .iter()
            .map(GpuDynamicBc::racecheck_warnings)
            .sum()
    }

    /// Number of participating devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The shared graph (every replica is identical; the first is
    /// authoritative).
    pub fn graph(&self) -> &SlackCsr {
        self.devices[0].graph()
    }

    /// Inserts `{u, v}` on every device. The reported `model_seconds` is
    /// the *makespan* — devices run concurrently and the update completes
    /// when the slowest finishes.
    ///
    /// A batch-of-one wrapper around [`MultiGpuDynamicBc::apply_batch`].
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> UpdateResult {
        self.apply_batch(&[EdgeOp::Insert(u, v)])
            .into_update_result()
    }

    /// Removes `{u, v}` on every device (makespan semantics as above).
    ///
    /// A batch-of-one wrapper around [`MultiGpuDynamicBc::apply_batch`].
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> UpdateResult {
        self.apply_batch(&[EdgeOp::Remove(u, v)])
            .into_update_result()
    }

    /// Applies a batch of edge mutations on every device (each runs the
    /// fused pipeline over its own source partition; see
    /// [`GpuDynamicBc::apply_batch`]).
    ///
    /// Per-op outcomes are merged across devices: case tallies add, and
    /// per-source details concatenate in device order — the same order
    /// single-op updates have always reported. `model_seconds` is the
    /// whole-batch makespan over devices.
    ///
    /// # Panics
    /// Panics (before touching any device state) if any op is a self
    /// loop, a duplicate insertion, or a removal of an absent edge.
    pub fn apply_batch(&mut self, batch: &[EdgeOp]) -> BatchResult {
        let clock_before = self.elapsed_seconds();
        let mut rb = self.rec.begin(clock_before);
        let prof_before: Vec<usize> = if rb.on() {
            self.devices
                .iter()
                .map(|d| d.profile_report().launches.len())
                .collect()
        } else {
            Vec::new()
        };
        let mut per_op = Vec::new();
        let mut makespan = 0.0f64;
        let mut dev_times: Vec<(f64, f64)> = Vec::new();
        for dev in &mut self.devices {
            let r = dev.apply_batch(batch);
            makespan = makespan.max(r.model_seconds);
            if rb.on() {
                dev_times.push((r.model_seconds, r.wall_seconds));
            }
            if per_op.is_empty() {
                per_op = r.per_op;
            } else {
                for (acc, dr) in per_op.iter_mut().zip(r.per_op) {
                    debug_assert_eq!(acc.op, dr.op);
                    acc.cases.add(&dr.cases);
                    acc.per_source.extend(dr.per_source);
                }
            }
        }
        rb.arg("devices", dev_times.len() as f64);
        for (d, &(model_s, wall_s)) in dev_times.iter().enumerate() {
            rb.push(
                Span::new(format!("device[{d}]"), 1, clock_before, model_s)
                    .wall(wall_s)
                    .on_track(d as u32 + 1),
            );
            let util = if makespan > 0.0 {
                model_s / makespan
            } else {
                0.0
            };
            if let Some(tel) = self.rec.telemetry_mut() {
                tel.set_device_utilization(d, util);
            }
        }
        // Queue/dedup volume and cache counters: the profiler counters of
        // the launches this batch added, summed in device-index order.
        let devices = &self.devices;
        let wall_seconds = self.rec.finish(
            rb,
            makespan,
            &per_op,
            devices[0].graph().vertex_count(),
            || {
                let mut v = Volume::default();
                for (dev, &before) in devices.iter().zip(&prof_before) {
                    v.add_launches(&dev.profile_report().launches[before..]);
                }
                v
            },
        );
        BatchResult {
            per_op,
            model_seconds: makespan,
            wall_seconds,
        }
    }

    /// Gathers the global BC scores: the host-side reduction over the
    /// per-device partial vectors (untimed staging, like all host↔device
    /// transfers in this workspace).
    pub fn bc(&self) -> Vec<f64> {
        let n = self.devices[0].graph().vertex_count();
        let mut bc = vec![0.0f64; n];
        for dev in &self.devices {
            for (acc, x) in bc.iter_mut().zip(dev.state_snapshot().bc) {
                *acc += x;
            }
        }
        bc
    }

    /// Cumulative simulated seconds, makespan-style: the maximum over
    /// devices (they run concurrently).
    pub fn elapsed_seconds(&self) -> f64 {
        self.devices
            .iter()
            .map(GpuDynamicBc::elapsed_seconds)
            .fold(0.0, f64::max)
    }

    /// Merges the per-device profiles into one report, **in device-index
    /// order** (the only aggregation a sum-type counter set admits, and
    /// deterministic for any host-thread count because each device's own
    /// report already is).
    pub fn profile_report(&self) -> ProfileReport {
        let mut merged = ProfileReport::new();
        for dev in &self.devices {
            merged.merge(dev.profile_report());
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes::{brandes_approx, sample_sources};
    use crate::gpu::Backend;
    use dynbc_graph::gen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn multi_gpu_matches_single_gpu_scores() {
        let mut rng = StdRng::seed_from_u64(8);
        let el = gen::ws(&mut rng, 120, 3, 0.2);
        let sources = sample_sources(&mut rng, 120, 12);
        let mut single =
            GpuDynamicBc::new(&el, &sources, DeviceConfig::test_tiny(), Parallelism::Node);
        let mut multi = MultiGpuDynamicBc::new(
            &el,
            &sources,
            DeviceConfig::test_tiny(),
            Parallelism::Node,
            3,
        );
        for (u, v) in [(0u32, 60u32), (10, 110), (33, 77), (5, 119)] {
            if single.graph().has_edge(u, v) {
                continue;
            }
            let rs = single.insert_edge(u, v);
            let rm = multi.insert_edge(u, v);
            assert_eq!(rs.cases, rm.cases, "case tallies must be partition-blind");
        }
        let a = single.state_snapshot().bc;
        let b = multi.bc();
        for v in 0..120 {
            assert!((a[v] - b[v]).abs() < 1e-9, "BC[{v}] differs across layouts");
        }
    }

    #[test]
    fn multi_gpu_matches_fresh_brandes_after_mixed_stream() {
        let mut rng = StdRng::seed_from_u64(21);
        let n = 80;
        let el = gen::ba(&mut rng, n, 3);
        let sources = sample_sources(&mut rng, n, 10);
        let mut multi = MultiGpuDynamicBc::new(
            &el,
            &sources,
            DeviceConfig::test_tiny(),
            Parallelism::Node,
            4,
        );
        for _ in 0..10 {
            let a = rng.gen_range(0..n as u32);
            let b = rng.gen_range(0..n as u32);
            if a == b {
                continue;
            }
            if multi.graph().has_edge(a, b) {
                multi.remove_edge(a, b);
            } else {
                multi.insert_edge(a, b);
            }
        }
        let fresh = brandes_approx(&multi.graph().to_csr(), &sources);
        let got = multi.bc();
        for v in 0..n {
            assert!((got[v] - fresh[v]).abs() < 1e-6, "BC[{v}]");
        }
    }

    #[test]
    fn strong_scaling_reduces_update_time() {
        let mut rng = StdRng::seed_from_u64(99);
        let el = gen::geometric(&mut rng, 900, 0.05);
        let sources = sample_sources(&mut rng, 900, 96);
        let time_with = |d: usize| {
            let mut eng = MultiGpuDynamicBc::new(
                &el,
                &sources,
                DeviceConfig::tesla_c2075(),
                Parallelism::Node,
                d,
            )
            // Strong scaling is a model-clock claim: pin the simulator.
            .with_devices(|e| e.with_backend(Backend::Simulator));
            let mut rng = StdRng::seed_from_u64(5);
            let mut total = 0.0;
            let mut done = 0;
            while done < 4 {
                let a = rng.gen_range(0..900u32);
                let b = rng.gen_range(0..900u32);
                if a == b || eng.graph().has_edge(a, b) {
                    continue;
                }
                total += eng.insert_edge(a, b).model_seconds;
                done += 1;
            }
            total
        };
        let t1 = time_with(1);
        let t4 = time_with(4);
        // Ideal strong scaling would be 0.25x; queue quantization over 14
        // SMs, fixed launch overhead, and heavy-source skew push it up —
        // but it must remain a clear win.
        assert!(
            t4 < t1 * 0.55,
            "4 devices should cut update time well below 1 device: {t1} -> {t4}"
        );
    }

    #[test]
    fn device_count_clamps_to_source_count() {
        let el = EdgeList::from_pairs(8, [(0, 1), (1, 2), (2, 3)]);
        let multi = MultiGpuDynamicBc::new(
            &el,
            &[0, 2],
            DeviceConfig::test_tiny(),
            Parallelism::Node,
            16,
        );
        assert_eq!(multi.device_count(), 2);
    }
}
