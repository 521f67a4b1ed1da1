//! symbench: the end-to-end and per-layer benchmark of `symloc`.
//!
//! ```text
//! symbench --symloc PATH --workload NAME --seed N --seconds S --trace 0|1
//!          [--scratch DIR] [--tiny]
//! ```
//!
//! With `--trace 0` the workload runs against the release binary as a
//! separate process, its outputs are checked against in-process
//! references, and the end-to-end metrics are printed. With `--trace 1`
//! every workload's pipeline is replayed in process with spans around the
//! calls into each layer, and the per-layer metrics are printed, together
//! with each pipeline's stage table. The last line of standard output is
//! the JSON result. See `symbench/README.md`.

mod common;
mod proc;
mod serve_wl;
mod spans;
mod stats;
mod sweep_wl;
mod trace_wl;

use std::fmt::Write as _;
use std::path::PathBuf;

use common::{json_num, json_str, Ctx, E2e, Metric, Tally, Traced};

/// Owned argument vector from mixed displayable values.
#[macro_export]
macro_rules! argv {
    ($($a:expr),* $(,)?) => { vec![$($a.to_string()),*] };
}

const WORKLOADS: [&str; 4] = [
    "trace_sltr_fused",
    "trace_gen_exact",
    "serve_ingest_query",
    "sweep_fig1",
];

const USAGE: &str = "usage: symbench --symloc PATH --workload NAME --seed N --seconds S \
                     --trace 0|1 [--scratch DIR] [--tiny]";

struct Args {
    symloc: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
    tiny: bool,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut symloc, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    let mut scratch = PathBuf::from(".bench_scratch");
    let mut tiny = false;
    while let Some(flag) = raw.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a number, got {v:?}"))
        };
        match flag.as_str() {
            "--symloc" => symloc = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)? as f64),
            "--trace" => trace = Some(number(&value)? == 1),
            "--scratch" => scratch = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let symloc = symloc.ok_or("--symloc is required")?;
    if !symloc.is_file() {
        return Err(format!("no symloc binary at {}", symloc.display()));
    }
    Ok(Args {
        symloc,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1.0),
        trace: trace.ok_or("--trace is required")?,
        scratch,
        tiny,
    })
}

/// Metrics, the human-readable report, and the raw samples (JSON).
type Pass = (Vec<Metric>, String, String);

fn e2e_pass(ctx: &Ctx, workload: &str, tally: &mut Tally) -> Pass {
    let e2e: E2e = match workload {
        "trace_sltr_fused" => trace_wl::sltr_e2e(ctx, tally),
        "trace_gen_exact" => trace_wl::gen_e2e(ctx, tally),
        "serve_ingest_query" => serve_wl::e2e(ctx, tally),
        _ => sweep_wl::e2e(ctx, tally),
    };
    let mut report = format!(
        "{workload}: {} timed operation(s), {} latency sample(s), {} set-up sample(s)\n",
        e2e.throughput.len(),
        e2e.latency_ms.len(),
        e2e.setup_s.len()
    );
    let item = match workload {
        "sweep_fig1" => "perms_per_s",
        _ => "accesses_per_s",
    };
    let metrics = e2e.metrics();
    let _ = writeln!(
        report,
        "  {item:<20} {:.1}  (reported as throughput_per_s)",
        metrics[1].value
    );
    (metrics, report, e2e.samples_json())
}

/// Replays every pipeline with the named workload first, so that every
/// per-layer metric is measured on the inputs of the workload that runs
/// the layer.
fn traced_pass(ctx: &Ctx, workload: &str, tally: &mut Tally) -> Pass {
    let _ = std::fs::remove_file(ctx.scratch.join("spans.tsv"));
    let mut order: Vec<&str> = vec![workload];
    order.extend(WORKLOADS.iter().filter(|w| **w != workload));
    let mut runs: Vec<Traced> = Vec::new();
    for name in order {
        let traced = match name {
            "trace_sltr_fused" => trace_wl::sltr_traced(ctx, tally),
            "trace_gen_exact" => trace_wl::gen_traced(ctx, tally),
            "serve_ingest_query" => serve_wl::traced(ctx, tally),
            _ => sweep_wl::traced(ctx, tally),
        };
        match traced {
            Some(t) => runs.push(t),
            None => tally.check(
                &format!("traced {name}"),
                Err("did not complete".to_string()),
            ),
        }
    }
    let mut report = String::new();
    let mut metrics = Vec::new();
    for run in &runs {
        report.push_str(&run.table.render(run.pipeline));
        metrics.extend(run.layers.iter().cloned());
        let unit = if run.table.item == "perm" {
            "perm"
        } else {
            "access"
        };
        metrics.push(Metric::new(
            format!("residual_ns_per_{unit}.{}", run.pipeline),
            run.table.residual(),
            "ns",
        ));
    }
    let traced: f64 = runs.iter().map(|r| r.traced_s).sum();
    let untraced: f64 = runs.iter().map(|r| r.untraced_s).sum();
    metrics.push(Metric::new(
        "obs.trace_overhead_ratio",
        traced / untraced,
        "ratio",
    ));
    metrics.sort_by(|a, b| a.name.cmp(&b.name));
    (metrics, report, "{}".to_string())
}

fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("symbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("symbench: cannot create {}: {e}", args.scratch.display());
        std::process::exit(2);
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let ctx = Ctx {
        symloc: args.symloc,
        scratch: args.scratch,
        seed: args.seed,
        seconds: args.seconds,
        tiny: args.tiny,
        threads,
    };
    let host = common::host_fingerprint();
    let host_line: Vec<String> = host.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    println!("host: {}", host_line.join(" "));

    let mut tally = Tally::default();
    let (mut metrics, report, samples) = if args.trace {
        traced_pass(&ctx, &args.workload, &mut tally)
    } else {
        e2e_pass(&ctx, &args.workload, &mut tally)
    };
    for m in &mut metrics {
        if !m.value.is_finite() {
            tally.check(&m.name, Err(format!("measured {}", m.value)));
        }
    }
    print!("{report}");
    println!(
        "error_rate: {} ({} failed of {} attempted)",
        tally.error_rate(),
        tally.failed,
        tally.attempted
    );
    for m in &metrics {
        println!("  {:<44} {:>18.4} {}", m.name, m.value, m.unit);
    }

    let result = result_json(&tally, &metrics);
    let host_json: Vec<String> = host
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let failures: Vec<String> = tally.failures.iter().map(|f| json_str(f)).collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"tiny\": {}, \"threads\": {}, \
         \"host\": {{{}}}, \"error_rate\": {}, \"failures\": [{}], \"report\": {}, \"samples\": {}, \"result\": {}}}\n",
        json_str(&args.workload),
        ctx.seed,
        u8::from(args.trace),
        ctx.tiny,
        ctx.threads,
        host_json.join(", "),
        json_num(tally.error_rate()),
        failures.join(", "),
        json_str(&report),
        samples,
        result
    );
    let path = ctx.scratch.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload,
        ctx.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("symbench: cannot write {}: {e}", path.display());
    }
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// The release binary the tiny end-to-end test drives.
    fn symloc() -> PathBuf {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let target =
            std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), PathBuf::from);
        let target = if target.is_absolute() {
            target
        } else {
            root.join(target)
        };
        let bin = target.join("release").join("symloc");
        assert!(
            bin.is_file(),
            "build the binary first: cargo build --release --bin symloc (looked at {})",
            bin.display()
        );
        bin
    }

    fn tiny_ctx(name: &str) -> Ctx {
        let scratch =
            std::env::temp_dir().join(format!("symbench-test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        Ctx {
            symloc: symloc(),
            scratch,
            seed: 7,
            seconds: 1.0,
            tiny: true,
            threads: 2,
        }
    }

    #[test]
    fn every_tiny_workload_passes_its_checks() {
        for workload in WORKLOADS {
            let ctx = tiny_ctx(workload);
            let mut tally = Tally::default();
            let (metrics, _, _) = e2e_pass(&ctx, workload, &mut tally);
            assert_eq!(tally.failed, 0, "{workload}: {:?}", tally.failures);
            assert!(tally.attempted > 0);
            assert_eq!(metrics.len(), 6);
            assert!(
                metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0),
                "{metrics:?}"
            );
            let _ = std::fs::remove_dir_all(&ctx.scratch);
        }
    }

    #[test]
    fn the_tiny_traced_pass_reports_every_layer() {
        let ctx = tiny_ctx("traced");
        let mut tally = Tally::default();
        let (metrics, report, _) = traced_pass(&ctx, "trace_sltr_fused", &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.failures);
        assert!(report.contains("residual"), "{report}");
        assert!(metrics.iter().all(|m| m.value.is_finite()), "{metrics:?}");
        assert!(metrics.iter().any(|m| m.name == "obs.trace_overhead_ratio"));
        let _ = std::fs::remove_dir_all(&ctx.scratch);
    }

    #[test]
    fn the_result_line_has_the_contract_keys() {
        let mut tally = Tally::default();
        tally.check("ok", Ok(()));
        tally.check("bad", Err("wrong".into()));
        let line = result_json(&tally, &[Metric::new("setup_s", 0.5, "s")]);
        let doc = symloc_core::jsonio::parse(&line).unwrap();
        assert_eq!(
            doc.get("correct"),
            Some(&symloc_core::jsonio::JsonValue::Bool(false))
        );
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(1));
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0 --symloc /").is_err());
        assert!(args("--workload sweep_fig1 --seed x").is_err());
        assert!(args("--bogus 1").is_err());
    }
}
