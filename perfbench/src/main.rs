//! `perfbench` — the dynbc benchmark.
//!
//! ```text
//! perfbench --workload <paper-insert|serve-churn|sim-edge-node> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds` of measurement, checks its
//! outputs, and prints context lines followed by one JSON result line:
//! the end-to-end metrics (`--trace 0`; times and rates put on a
//! reference host by a calibration sweep, see `host::Calibration`) or
//! the per-layer metrics of a traced run (`--trace 1`, as measured).
//! Results, and the traced run's Chrome trace,
//! are also written under `perfbench/out/`. A failed correctness gate
//! prints `"correct": false` with no metrics and exits 1. See README.md
//! for the metric definitions.

mod common;
mod host;
mod metrics;
mod openloop;
mod paper_insert;
mod serve_churn;
mod sim_edge_node;
mod stats;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use common::Ctx;
use metrics::{json_str, result_line, Report};

const USAGE: &str = "usage: perfbench --workload <paper-insert|serve-churn|sim-edge-node> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where results and traces are written, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Workload sizes: the benchmark's, or the test suite's smoke sizes.
#[derive(Debug, Clone, Copy)]
enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// Runs `workload`, turning a panic into a failed gate.
fn run_workload(workload: &str, size: Size, ctx: &mut Ctx, rep: &mut Report) -> Result<(), String> {
    let full = matches!(size, Size::Full);
    let run = AssertUnwindSafe(|| match workload {
        "paper-insert" => paper_insert::run(
            if full {
                paper_insert::Params::FULL
            } else {
                paper_insert::Params::SMOKE
            },
            ctx,
            rep,
        ),
        "serve-churn" => serve_churn::run(
            if full {
                serve_churn::Params::FULL
            } else {
                serve_churn::Params::SMOKE
            },
            ctx,
            rep,
        ),
        "sim-edge-node" => sim_edge_node::run(
            if full {
                sim_edge_node::Params::FULL
            } else {
                sim_edge_node::Params::SMOKE
            },
            ctx,
            rep,
        ),
        other => Err(format!("unknown workload {other:?}")),
    });
    catch_unwind(run).unwrap_or_else(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into());
        Err(format!("workload panicked: {msg}"))
    })
}

/// Writes the result document (and the trace, if any) under `OUT_DIR`.
fn write_outputs(args: &Args, fp: &host::Fingerprint, rep: &Report, line: &str, ctx: &Ctx) {
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-{}",
        args.workload,
        args.seed,
        if args.trace { "layer" } else { "e2e" }
    );
    let notes: Vec<String> = rep.notes.iter().map(|n| json_str(n)).collect();
    let doc = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {},\n \
         \"host\": {{\"nproc\": {}, \"git_rev\": {}, \"source_digest\": {}, \"rustc\": {}}},\n \
         \"notes\": [{}],\n \"result\": {line}}}\n",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        fp.nproc,
        json_str(&fp.git_rev),
        json_str(&fp.source_digest),
        json_str(&fp.rustc),
        notes.join(", "),
    );
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{stem}.json"), doc))
        .and_then(|()| {
            if args.trace {
                let path = format!("{OUT_DIR}/{}-seed{}-trace.json", args.workload, args.seed);
                std::fs::write(&path, trace::chrome_json(&ctx.spans))?;
                println!("trace: wrote {path}");
            }
            Ok(())
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {OUT_DIR}: {e}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let knobs = host::knobs_set();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: the benchmark pins every \
             engine and serve option itself",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let fp = host::Fingerprint::collect();
    println!(
        "host: nproc={} git_rev={} source_digest={} rustc={:?}",
        fp.nproc, fp.git_rev, fp.source_digest, fp.rustc
    );

    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace);
    let mut rep = Report::default();
    ctx.calib.sample();
    let outcome = run_workload(&args.workload, Size::Full, &mut ctx, &mut rep);
    rep.note(format!(
        "host: calibration sweep median {:.1} us over {} sweeps; reference host {:.1} us",
        ctx.calib.median_ns_since(0) / 1e3,
        ctx.calib.sweeps(),
        host::Calibration::REF_SWEEP_NS / 1e3
    ));
    rep.note(format!(
        "wall-clock metrics as measured: {}",
        rep.measured.join(", ")
    ));
    rep.set("peak_rss_mb", host::peak_rss_mb());
    let metrics = outcome.and_then(|()| rep.metrics(args.trace));
    for note in &rep.notes {
        println!("{note}");
    }
    println!(
        "ops: attempted {} failed {} (ops_failed_frac {})",
        rep.attempted,
        rep.failed,
        rep.failed as f64 / rep.attempted.max(1) as f64
    );
    match metrics {
        Ok(m) => {
            let line = result_line(true, rep.attempted.max(1), rep.failed, &m);
            write_outputs(&args, &fp, &rep, &line, &ctx);
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: correctness gate failed: {e}", args.workload);
            println!(
                "{}",
                result_line(false, rep.attempted.max(1), rep.failed, &[])
            );
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_arguments() {
        let a = parse_args(&argv(
            "--workload serve-churn --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve-churn".into(),
                seed: 7,
                seconds: 20.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload x --seed 7 --seconds 20")).is_err());
        assert!(parse_args(&argv("--workload x --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed 7 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
    }

    fn smoke(workload: &str, traced: bool) -> Report {
        let mut ctx = Ctx::new(3, 0.3, traced);
        let mut rep = Report::default();
        run_workload(workload, Size::Smoke, &mut ctx, &mut rep).unwrap();
        rep.set("peak_rss_mb", host::peak_rss_mb());
        let m = rep.metrics(traced).unwrap();
        assert!(!m.is_empty());
        assert!(rep.attempted > 0);
        assert_eq!(rep.failed, 0);
        if traced {
            assert!(!ctx.spans.is_empty(), "traced run records spans");
            assert!(trace::chrome_json(&ctx.spans).contains("\"ph\":\"X\""));
        }
        rep
    }

    #[test]
    fn paper_insert_smoke() {
        let r = smoke("paper-insert", false);
        assert!(r.get("dynamic.ops_per_update").unwrap() > 0.0);
        let t = smoke("paper-insert", true);
        assert_eq!(
            r.get("dynamic.ops_per_update"),
            t.get("dynamic.ops_per_update"),
            "exact counts do not depend on tracing"
        );
        assert_eq!(t.get("plan.stages_per_op"), Some(1.0));
    }

    #[test]
    fn serve_churn_smoke() {
        smoke("serve-churn", false);
        let t = smoke("serve-churn", true);
        assert!(t.get("serve.batches").unwrap() >= 1.0);
        assert!(t.get("plan.stages_per_op").unwrap() > 0.0);
    }

    #[test]
    fn sim_edge_node_smoke() {
        let r = smoke("sim-edge-node", false);
        let t = smoke("sim-edge-node", true);
        for exact in [
            "gpusim.model_node_update_us",
            "gpusim.model_edge_update_us",
            "gpusim.node.lane_events_per_update",
            "gpusim.edge.traffic_bytes_per_update",
        ] {
            assert!(r.get(exact).unwrap() > 0.0, "{exact}");
            assert_eq!(r.get(exact), t.get(exact), "{exact} is exact");
        }
    }

    #[test]
    fn unknown_workload_is_a_failed_gate() {
        let mut ctx = Ctx::new(1, 0.1, false);
        let mut rep = Report::default();
        assert!(run_workload("nope", Size::Smoke, &mut ctx, &mut rep).is_err());
    }
}
