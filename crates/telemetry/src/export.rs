//! The unified Chrome/Perfetto trace: host pipeline spans and device
//! kernel profiles on one timeline.

use std::fmt::Write as _;

use dynbc_prof::{json, ProfileReport};

use crate::trace::Trace;

/// Render the host-pipeline trace and any number of device kernel profiles
/// as one Chrome trace-event JSON document.
///
/// Track layout (Perfetto shows one process group per pid):
///
/// * pid 0 "host pipeline" — lifecycle spans; tid = [`crate::Span::track`]
///   (0 = main pipeline, the multi-GPU engine adds one track per device).
///   On-clock spans are complete (`"X"`) events; off-clock phases are
///   instant (`"i"`) events with their wall cost in `args`.
/// * pid 1+d — one process per entry of `devices`, named by its label:
///   kernel launches on tid 0 (with their scanned/passed edge counts),
///   per-SM block spans on tid 1+sm, and counter tracks for cumulative
///   futile vs useful edge work and, when memsim recorded traffic, the
///   L1/L2 hit rates.
///
/// All timestamps are the simulated clock in microseconds — the clock
/// both spans and [`dynbc_prof::LaunchProfile`]s run on — so host stages
/// and kernel spans line up.
pub fn unified_chrome_trace(trace: &Trace, devices: &[(String, &ProfileReport)]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
    };
    sep(&mut out);
    out.push_str(
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \
         \"args\": {\"name\": \"host pipeline\"}}",
    );
    for (d, (label, _)) in devices.iter().enumerate() {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {}, \"args\": {{\"name\": {}}}}}",
            1 + d,
            json::string(label),
        );
    }
    for s in trace.spans() {
        sep(&mut out);
        let mut args = format!("\"wall_ms\": {}", json::number(s.wall_s * 1e3));
        for (k, v) in &s.args {
            let _ = write!(args, ", {}: {}", json::string(k), json::number(*v));
        }
        if s.dur_s > 0.0 {
            let _ = write!(
                out,
                "{{\"name\": {}, \"cat\": \"pipeline\", \"ph\": \"X\", \"pid\": 0, \
                 \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{{args}}}}}",
                json::string(&s.name),
                s.track,
                json::number(s.start_s * 1e6),
                json::number(s.dur_s * 1e6),
            );
        } else {
            let _ = write!(
                out,
                "{{\"name\": {}, \"cat\": \"pipeline\", \"ph\": \"i\", \"s\": \"t\", \
                 \"pid\": 0, \"tid\": {}, \"ts\": {}, \"args\": {{{args}}}}}",
                json::string(&s.name),
                s.track,
                json::number(s.start_s * 1e6),
            );
        }
    }
    for (d, (_, report)) in devices.iter().enumerate() {
        let pid = 1 + d;
        let (mut futile, mut useful) = (0u64, 0u64);
        for l in &report.launches {
            sep(&mut out);
            // Memsim hit rates ride along only when the launch carried
            // cache counters, so traces without DYNBC_MEMSIM are unchanged.
            let cache = if l.total.cache.is_empty() {
                String::new()
            } else {
                format!(
                    ", \"l1_hit_rate\": {}, \"l2_hit_rate\": {}",
                    json::number(l.total.cache.l1_hit_rate()),
                    json::number(l.total.cache.l2_hit_rate()),
                )
            };
            let _ = write!(
                out,
                "{{\"name\": {}, \"cat\": \"launch\", \"ph\": \"X\", \"pid\": {pid}, \
                 \"tid\": 0, \"ts\": {}, \"dur\": {}, \"args\": {{\"index\": {}, \
                 \"num_blocks\": {}, \"edges_scanned\": {}, \"edges_passed\": {}, \
                 \"occupancy\": {}{cache}}}}}",
                json::string(&l.kernel),
                json::number(l.start_s * 1e6),
                json::number(l.seconds * 1e6),
                l.index,
                l.num_blocks,
                l.total.edges_scanned,
                l.total.edges_passed,
                json::number(l.total.occupancy()),
            );
            // Cumulative futile vs useful edge work (the paper's
            // edge-parallel waste), sampled at the end of every launch
            // that scanned edges.
            if l.total.edges_scanned > 0 {
                useful += l.total.edges_passed;
                futile += l.total.edges_scanned - l.total.edges_passed.min(l.total.edges_scanned);
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\": \"edge work\", \"cat\": \"profile\", \"ph\": \"C\", \
                     \"pid\": {pid}, \"tid\": 0, \"ts\": {}, \"args\": {{\"futile\": {futile}, \
                     \"useful\": {useful}}}}}",
                    json::number((l.start_s + l.seconds) * 1e6),
                );
            }
            if !l.total.cache.is_empty() {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\": \"L1/L2 hit rate\", \"cat\": \"memsim\", \"ph\": \"C\", \
                     \"pid\": {pid}, \"tid\": 0, \"ts\": {}, \"args\": {{\"l1\": {}, \
                     \"l2\": {}}}}}",
                    json::number(l.start_s * 1e6),
                    json::number(l.total.cache.l1_hit_rate()),
                    json::number(l.total.cache.l2_hit_rate()),
                );
            }
            for b in &l.blocks {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\": {}, \"cat\": \"block\", \"ph\": \"X\", \"pid\": {pid}, \
                     \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"block\": {}}}}}",
                    json::string(&format!("{}#b{}", l.kernel, b.block)),
                    1 + b.sm,
                    json::number(b.start_s * 1e6),
                    json::number(b.dur_s * 1e6),
                    b.block,
                );
            }
        }
    }
    out.push_str("\n],\n\"displayTimeUnit\": \"ms\",\n");
    let _ = writeln!(
        out,
        "\"metadata\": {{\"clock\": \"simulated\", \"devices\": {}}}}}",
        devices.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Span;
    use dynbc_prof::{CacheCounters, Counters, LaunchProfile};

    fn report(cache: CacheCounters) -> ProfileReport {
        let mut report = ProfileReport::default();
        report.launches.push(LaunchProfile {
            kernel: "k".to_string(),
            index: 0,
            num_blocks: 1,
            start_s: 0.0,
            seconds: 1e-6,
            stages: Vec::new(),
            total: Counters {
                cache,
                ..Counters::default()
            },
            blocks: Vec::new(),
            wall_s: 0.0,
        });
        report
    }

    #[test]
    fn memsim_counters_add_a_hit_rate_track_only_when_present() {
        let t = Trace::new();
        let plain = report(CacheCounters::default());
        let json = unified_chrome_trace(&t, &[("gpu0".to_string(), &plain)]);
        assert!(!json.contains("hit_rate"), "{json}");
        assert!(!json.contains("\"ph\": \"C\""), "{json}");

        let cached = report(CacheCounters {
            l1_hits: 3,
            l1_misses: 1,
            l2_hits: 1,
            l2_misses: 0,
            l2_sector_fills: 0,
            ..CacheCounters::default()
        });
        let json = unified_chrome_trace(&t, &[("gpu0".to_string(), &cached)]);
        assert!(json.contains("\"l1_hit_rate\": 0.75"), "{json}");
        assert!(json.contains("\"L1/L2 hit rate\""), "{json}");
        assert!(json.contains("\"ph\": \"C\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn launches_carry_edge_counts_and_an_edge_work_track() {
        let mut r = report(CacheCounters::default());
        r.launches[0].total.edges_scanned = 10;
        r.launches[0].total.edges_passed = 4;
        let mut second = r.launches[0].clone();
        second.index = 1;
        second.start_s = 2e-6;
        r.launches.push(second);
        let json = unified_chrome_trace(&Trace::new(), &[("gpu0".to_string(), &r)]);
        assert!(
            json.contains("\"edges_scanned\": 10, \"edges_passed\": 4"),
            "{json}"
        );
        // Cumulative: the second sample carries both launches' work.
        assert!(
            json.contains("\"args\": {\"futile\": 6, \"useful\": 4}"),
            "{json}"
        );
        assert!(
            json.contains("\"args\": {\"futile\": 12, \"useful\": 8}"),
            "{json}"
        );
    }

    #[test]
    fn unified_trace_has_process_tracks_and_both_event_kinds() {
        let mut t = Trace::new();
        t.push(Span::new("stage#0", 1, 0.0, 1.0).wall(0.5));
        t.push(Span::instant("plan", 2, 0.0, 0.001));
        let json = unified_chrome_trace(&t, &[]);
        assert!(json.contains("\"host pipeline\""), "{json}");
        assert!(json.contains("\"ph\": \"X\""), "{json}");
        assert!(json.contains("\"ph\": \"i\""), "{json}");
        assert!(json.contains("\"displayTimeUnit\""), "{json}");
        // Balanced braces: crude structural check.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close, "{json}");
    }
}
