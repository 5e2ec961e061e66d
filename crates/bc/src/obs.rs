//! The lifecycle recorder every engine shares.
//!
//! A [`Recorder`] owns an engine's optional telemetry collector. Each
//! `apply_batch` opens a [`Batch`], adds its own child spans (`stage#i`
//! with plan/launch/commit, `op#i`, `device[d]`), and hands it back to
//! [`Recorder::finish`], which writes the `update` and `validate` spans
//! and the batch's [`UpdateObservation`]. With telemetry off a batch costs
//! one wall-clock read (the one `BatchResult::wall_seconds` needs) and no
//! allocation.

use crate::cases::InsertionCase;
use crate::dynamic::result::OpOutcome;
use dynbc_gpusim::LaunchProfile;
use dynbc_telemetry::{CacheCounters, Span, Telemetry, UpdateObservation};
use std::time::Instant;

/// An engine's telemetry collector, present only when telemetry is on.
#[derive(Debug, Clone, Default)]
pub(crate) struct Recorder {
    telemetry: Option<Box<Telemetry>>,
}

impl Recorder {
    /// A recorder that collects iff `on`.
    pub(crate) fn new(on: bool) -> Self {
        let mut rec = Self::default();
        rec.enable(on);
        rec
    }

    /// Turns collection on (keeping a collector that already exists) or
    /// off (dropping it).
    pub(crate) fn enable(&mut self, on: bool) {
        if !on {
            self.telemetry = None;
        } else if self.telemetry.is_none() {
            self.telemetry = Some(Box::default());
        }
    }

    /// True when batches record telemetry.
    pub(crate) fn on(&self) -> bool {
        self.telemetry.is_some()
    }

    /// The accumulated report.
    pub(crate) fn report(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Drains the accumulated report, leaving a fresh collector behind.
    pub(crate) fn take(&mut self) -> Option<Telemetry> {
        self.telemetry.as_mut().map(|t| std::mem::take(&mut **t))
    }

    /// The collector, for engine-specific metrics recorded mid-batch.
    pub(crate) fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.telemetry.as_deref_mut()
    }

    /// Opens a batch starting at `clock_s` on the engine's model clock.
    pub(crate) fn begin(&self, clock_s: f64) -> Batch {
        Batch {
            on: self.on(),
            // dynbc-lint: allow(no-wall-clock) — BatchResult::wall_seconds and the update span's wall_s are observability-only; no model result reads them
            wall_start: Instant::now(),
            clock_s,
            validate_wall: None,
            args: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Closes `batch` after `model_s` model seconds and returns its wall
    /// seconds. With telemetry on, records the `update` span, the
    /// `validate` marker (if the engine validated), the engine's child
    /// spans, and the batch's observation; `volume` is evaluated only
    /// then.
    pub(crate) fn finish(
        &mut self,
        batch: Batch,
        model_s: f64,
        per_op: &[OpOutcome],
        n: usize,
        volume: impl FnOnce() -> Volume,
    ) -> f64 {
        let wall_s = batch.wall_start.elapsed().as_secs_f64();
        let Some(tel) = self.telemetry.as_deref_mut() else {
            return wall_s;
        };
        let mut update = Span::new("update", 0, batch.clock_s, model_s)
            .wall(wall_s)
            .arg("ops", per_op.len() as f64);
        update.args.extend(batch.args);
        tel.push_span(update);
        if let Some(w) = batch.validate_wall {
            tel.push_span(Span::instant("validate", 1, batch.clock_s, w));
        }
        for s in batch.spans {
            tel.push_span(s);
        }
        tel.record_update(&batch_observation(per_op, n, model_s, wall_s, volume()));
        wall_s
    }
}

/// One batch in flight: its start on both clocks and the spans the
/// engine adds before [`Recorder::finish`].
#[derive(Debug)]
pub(crate) struct Batch {
    on: bool,
    wall_start: Instant,
    clock_s: f64,
    validate_wall: Option<f64>,
    args: Vec<(&'static str, f64)>,
    spans: Vec<Span>,
}

impl Batch {
    /// True when the batch is recorded; engines build child spans only
    /// then.
    pub(crate) fn on(&self) -> bool {
        self.on
    }

    /// A wall-clock start mark for a child span, taken only when on.
    pub(crate) fn timer(&self) -> Option<Instant> {
        // dynbc-lint: allow(no-wall-clock) — child-span wall_s is an observability-only telemetry field; no model result reads it
        self.on.then(Instant::now)
    }

    /// Marks validation done: the `validate` marker carries the wall time
    /// since the batch opened.
    pub(crate) fn validated(&mut self) {
        if self.on {
            self.validate_wall = Some(self.wall_start.elapsed().as_secs_f64());
        }
    }

    /// Appends an argument to the `update` span.
    pub(crate) fn arg(&mut self, key: &'static str, value: f64) {
        if self.on {
            self.args.push((key, value));
        }
    }

    /// Appends a child span (after `update` and `validate`).
    pub(crate) fn push(&mut self, span: Span) {
        self.spans.push(span);
    }
}

/// Wall seconds since a [`Batch::timer`] mark (`0.0` when off).
pub(crate) fn wall_since(t: Option<Instant>) -> f64 {
    t.map_or(0.0, |t| t.elapsed().as_secs_f64())
}

/// Queue/dedup volume and cache counters attributed to one batch.
#[derive(Debug, Default)]
pub(crate) struct Volume {
    pub(crate) queue_ops: u64,
    pub(crate) dedup_ops: u64,
    pub(crate) cache: CacheCounters,
}

impl Volume {
    /// Folds in the profiler's kernel-annotated counters of the launches
    /// a batch added (in launch order; call once per device, in
    /// device-index order).
    pub(crate) fn add_launches(&mut self, launches: &[LaunchProfile]) {
        for l in launches {
            self.cache.merge(&l.total.cache);
            self.queue_ops += l.total.queue_pushes;
            self.dedup_ops += l.total.dedup_ops;
        }
    }
}

/// Builds the metrics contribution of one batch from its per-op outcomes.
///
/// The touched-fraction histogram gets one sample per *work-requiring
/// (Case 2) source scenario*: `touched / n` for every `(op, source)` pair
/// whose source actually rebuilt part of its DAG. This is the same
/// population the `fig4_touched` harness quantiles — the paper's "typical
/// scenarios touch a tiny fraction of the graph" observation — so the
/// histogram's median is the median scenario, not the median insertion
/// (whose worst source would dominate).
fn batch_observation(
    per_op: &[OpOutcome],
    n: usize,
    model_seconds: f64,
    wall_seconds: f64,
    volume: Volume,
) -> UpdateObservation {
    let n = n.max(1) as f64;
    let mut obs = UpdateObservation {
        ops: per_op.len() as u64,
        model_seconds,
        wall_seconds,
        queue_ops: volume.queue_ops,
        dedup_ops: volume.dedup_ops,
        cache: volume.cache,
        touched_fractions: Vec::with_capacity(per_op.len()),
        ..UpdateObservation::default()
    };
    for op in per_op {
        obs.case_same += op.cases.same;
        obs.case_adjacent += op.cases.adjacent;
        obs.case_distant += op.cases.distant;
        obs.touched_fractions.extend(
            op.per_source
                .iter()
                .filter(|s| s.case == InsertionCase::Adjacent)
                .map(|s| s.touched as f64 / n),
        );
    }
    obs
}
