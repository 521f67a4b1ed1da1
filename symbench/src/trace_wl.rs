//! The two trace workloads.
//!
//! * `trace_sltr_fused`: a recorded `.sltr` trace with a footprint far
//!   beyond L2, through the fused exact + sampled pass with checkpoints.
//! * `trace_gen_exact`: a `gen:` spec with an L2-sized footprint through
//!   the exact sharded pass: no decode, no sampling, no saves.
//!
//! The untraced run times `symloc trace mrc` and checks its curves against
//! in-process references. The traced run replays the same chunk plan
//! through the layers' public functions, one span per call.

use std::path::Path;
use std::time::Instant;

use symloc_core::jsonio::{self, JsonValue};
use symloc_core::obs::MetricsRegistry;
use symloc_core::tracesweep::{
    chunk_partial, log_spaced_sizes, ChunkPartial, MergeState, OnlineReuseEngine, SampledIngest,
    ShardsEstimator, StreamHistogram, WeightedHistogram, SHARDS_MODULUS,
};
use symloc_par::split_indices;
use symloc_trace::stream::{GenSpec, TraceSource};

use crate::argv;
use crate::common::{arg, Ctx, E2e, Metric, StageTable, Tally, Traced};
use crate::spans::{self, Tracer, NO_PARENT};

/// MRC points the CLI reports by default.
const POINTS: usize = 16;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Start-up probes before each timed `trace_gen_exact` invocation, so the
/// probes spread over the whole run; `setup_s` is their median.
const PROBES_PER_OP: usize = 5;
/// Timed invocations per run, at least.
const MIN_REPS: usize = 3;

/// A trace workload's input and chunk plan.
pub struct Plan {
    /// The `gen:` spec the input comes from.
    pub spec: String,
    pub accesses: u64,
    /// Chunks (exact) and hash shards (sampled).
    pub chunks: usize,
    /// Total SHARDS budget of the sampled side (0 = no sampling).
    pub sample: usize,
}

impl Plan {
    /// Zipf(0.8) over a million addresses: ~800k distinct in 4M accesses,
    /// so engine state is far beyond a 2 MB L2.
    pub fn sltr(seed: u64, tiny: bool) -> Plan {
        let (m, n, chunks, sample) = if tiny {
            (5_000, 60_000, 4, 512)
        } else {
            (1_000_000, 4_000_000, 16, 16_384)
        };
        Plan {
            spec: format!("gen:zipf:{m}:{n}:0.8:{seed}"),
            accesses: n,
            chunks,
            sample,
        }
    }

    /// Zipf(0.8) over 20 000 addresses: state stays in L2.
    pub fn gen(seed: u64, tiny: bool) -> Plan {
        let (n, chunks) = if tiny { (50_000, 4) } else { (8_000_000, 16) };
        Plan {
            spec: format!("gen:zipf:20000:{n}:0.8:{seed}"),
            accesses: n,
            chunks,
            sample: 0,
        }
    }
}

/// A miss-ratio curve as `(cache size, miss ratio)` points.
pub type Curve = Vec<(usize, f64)>;

/// The answer a CLI report must carry for one curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub accesses: u64,
    pub footprint: usize,
    pub curve: Curve,
}

fn expected_exact(histogram: &StreamHistogram) -> Expected {
    let footprint = usize::try_from(histogram.cold_count()).unwrap_or(usize::MAX);
    let curve = histogram
        .mrc_points(&log_spaced_sizes(footprint, POINTS))
        .iter()
        .map(|p| (p.cache_size, p.miss_ratio))
        .collect();
    Expected {
        accesses: histogram.accesses(),
        footprint,
        curve,
    }
}

fn expected_sampled(histogram: &WeightedHistogram, accesses: u64) -> Expected {
    let footprint = histogram.cold_weight().round().max(1.0) as usize;
    let curve = histogram
        .mrc_points(&log_spaced_sizes(footprint, POINTS))
        .iter()
        .map(|p| (p.cache_size, p.miss_ratio))
        .collect();
    Expected {
        accesses,
        footprint,
        curve,
    }
}

/// The exact curve of a single-thread [`OnlineReuseEngine`] over the
/// source, and the engine's compaction count.
pub fn exact_reference(source: &TraceSource) -> Result<(Expected, u64), String> {
    let total = source.total_accesses().map_err(|e| e.to_string())?;
    let mut blocks = source
        .stream_blocks_range(0, total)
        .map_err(|e| e.to_string())?;
    let mut engine = OnlineReuseEngine::new();
    let mut buf = Vec::new();
    while blocks.next_block(&mut buf) > 0 {
        engine.record_block(&buf);
    }
    let compactions = engine.compactions();
    Ok((expected_exact(&engine.into_histogram()), compactions))
}

/// The sampled curve of an in-process [`SampledIngest`] with the CLI's
/// shard count and per-shard budget.
pub fn sampled_reference(
    source: &TraceSource,
    plan: &Plan,
    threads: usize,
) -> Result<Expected, String> {
    let budget = (plan.sample / plan.chunks).max(1);
    let mut ingest = SampledIngest::new(source, plan.chunks, budget, threads)?;
    ingest.run_pending(source, None);
    let summary = ingest.merged().ok_or("sampled ingest did not complete")?;
    Ok(expected_sampled(&summary.histogram, summary.raw_accesses))
}

fn curve_of(value: Option<&JsonValue>) -> Result<Curve, String> {
    let points = value
        .and_then(JsonValue::as_array)
        .ok_or("report has no mrc array")?;
    points
        .iter()
        .map(|p| match p.as_array() {
            Some([size, ratio]) => Ok((
                size.as_usize().ok_or("bad cache size")?,
                ratio.as_f64().ok_or("bad miss ratio")?,
            )),
            _ => Err("bad mrc point".to_string()),
        })
        .collect()
}

fn number(doc: &JsonValue, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("report has no {key}"))
}

/// Compares a reported curve with the expected one, bit for bit.
fn compare(what: &str, footprint: u64, curve: &Curve, want: &Expected) -> Result<(), String> {
    if footprint != want.footprint as u64 {
        return Err(format!(
            "{what} footprint {footprint}, expected {}",
            want.footprint
        ));
    }
    let same = curve.len() == want.curve.len()
        && curve
            .iter()
            .zip(&want.curve)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
    if !same {
        return Err(format!("{what} curve {curve:?}, expected {:?}", want.curve));
    }
    Ok(())
}

/// Checks a fused `--json` report against both references.
pub fn check_fused(report: &str, exact: &Expected, sampled: &Expected) -> Result<(), String> {
    let doc = jsonio::parse(report)?;
    for key in ["accesses", "streamed"] {
        let got = number(&doc, key)?;
        if got != exact.accesses {
            return Err(format!("{key} {got}, expected {}", exact.accesses));
        }
    }
    let side = |key: &str| doc.get(key).ok_or_else(|| format!("report has no {key}"));
    let e = side("exact")?;
    compare(
        "exact",
        number(e, "footprint")?,
        &curve_of(e.get("mrc"))?,
        exact,
    )?;
    let s = side("sampled")?;
    compare(
        "sampled",
        number(s, "footprint")?,
        &curve_of(s.get("mrc"))?,
        sampled,
    )
}

/// Checks an exact `--json` report against the reference.
pub fn check_exact(report: &str, exact: &Expected) -> Result<(), String> {
    let doc = jsonio::parse(report)?;
    let got = number(&doc, "accesses")?;
    if got != exact.accesses {
        return Err(format!("accesses {got}, expected {}", exact.accesses));
    }
    compare(
        "exact",
        number(&doc, "footprint")?,
        &curve_of(doc.get("mrc"))?,
        exact,
    )
}

fn convert_args(plan: &Plan, sltr: &Path) -> Vec<String> {
    argv!["trace", "convert", plan.spec, arg(sltr)]
}

fn fused_args(sltr: &Path, plan: &Plan, ck: &Path, threads: usize) -> Vec<String> {
    argv![
        "trace",
        "mrc",
        arg(sltr),
        "--exact",
        "--sample",
        plan.sample,
        "--shards",
        plan.chunks,
        "--threads",
        threads,
        "--checkpoint",
        arg(ck),
        "--json"
    ]
}

fn gen_args(spec: &str, chunks: usize, threads: usize) -> Vec<String> {
    argv![
        "trace",
        "mrc",
        spec,
        "--exact",
        "--shards",
        chunks,
        "--threads",
        threads,
        "--json"
    ]
}

/// Converts the seeded trace to `.sltr` (the set-up step), returning the
/// wall time when it succeeded.
fn convert(ctx: &Ctx, tally: &mut Tally, plan: &Plan, sltr: &Path) -> Option<f64> {
    let run = ctx.symloc(&convert_args(plan, sltr));
    tally
        .check_exit("trace convert", &run)
        .then(|| run.map(|r| r.wall.as_secs_f64()).unwrap_or_default())
}

fn fused_references(
    tally: &mut Tally,
    source: &TraceSource,
    plan: &Plan,
    threads: usize,
) -> Option<(Expected, u64, Expected)> {
    let refs = exact_reference(source).and_then(|(exact, compactions)| {
        Ok((
            exact,
            compactions,
            sampled_reference(source, plan, threads)?,
        ))
    });
    match refs {
        Ok(refs) => {
            let length = if refs.0.accesses == plan.accesses {
                Ok(())
            } else {
                Err(format!("trace holds {} accesses", refs.0.accesses))
            };
            tally.check("converted trace length", length);
            Some(refs)
        }
        Err(e) => {
            tally.check("in-process references", Err(e));
            None
        }
    }
}

/// Untraced `trace_sltr_fused`.
pub fn sltr_e2e(ctx: &Ctx, tally: &mut Tally) -> E2e {
    let plan = Plan::sltr(ctx.seed, ctx.tiny);
    let dir = ctx.dir("trace_sltr_fused");
    let sltr = dir.join("trace.sltr");
    let ck = dir.join("checkpoint.json");
    let mut e2e = E2e::default();
    for _ in 0..SETUP_REPS {
        e2e.setup_s.extend(convert(ctx, tally, &plan, &sltr));
    }
    let source = TraceSource::Binary(sltr.clone());
    let Some((exact, _, sampled)) = fused_references(tally, &source, &plan, ctx.threads) else {
        return e2e;
    };
    let args = fused_args(&sltr, &plan, &ck, ctx.threads);
    ctx.timed(MIN_REPS, || {
        // A finished checkpoint would turn the next run into a no-op resume.
        let _ = std::fs::remove_file(&ck);
        let run = ctx.symloc(&args);
        if tally.check_exit("trace mrc (fused)", &run) {
            let run = run.expect("checked");
            tally.check("fused curves", check_fused(&run.stdout, &exact, &sampled));
            e2e.add_invocation(plan.accesses as f64, &run);
        }
    });
    e2e
}

/// The start-up probe: `symloc trace mrc` on a one-access spec, i.e.
/// process start, argument parsing, generator tables and report, the
/// fixed cost every `trace_gen_exact` invocation pays before it streams.
/// Returns the probe's arguments and its expected curve.
fn gen_probe(seed: u64) -> (Vec<String>, Expected) {
    let spec = format!("gen:zipf:20000:1:0.8:{seed}");
    let source = TraceSource::Gen(GenSpec::parse(&spec).expect("valid spec"));
    let want = exact_reference(&source).expect("generators stream").0;
    (gen_args(&spec, 1, 1), want)
}

/// Untraced `trace_gen_exact`.
pub fn gen_e2e(ctx: &Ctx, tally: &mut Tally) -> E2e {
    let plan = Plan::gen(ctx.seed, ctx.tiny);
    let mut e2e = E2e::default();
    let (probe_args, probe_want) = gen_probe(ctx.seed);
    let source = TraceSource::Gen(GenSpec::parse(&plan.spec).expect("valid spec"));
    let exact = match exact_reference(&source) {
        Ok((exact, _)) => exact,
        Err(e) => {
            tally.check("in-process reference", Err(e));
            return e2e;
        }
    };
    let args = gen_args(&plan.spec, plan.chunks, ctx.threads);
    ctx.timed(MIN_REPS, || {
        for _ in 0..PROBES_PER_OP {
            let run = ctx.symloc(&probe_args);
            if tally.check_exit("trace mrc (start-up)", &run) {
                let run = run.expect("checked");
                tally.check("start-up curve", check_exact(&run.stdout, &probe_want));
                e2e.setup_s.push(run.wall.as_secs_f64());
            }
        }
        let run = ctx.symloc(&args);
        if tally.check_exit("trace mrc (gen exact)", &run) {
            let run = run.expect("checked");
            tally.check("exact curve", check_exact(&run.stdout, &exact));
            e2e.add_invocation(plan.accesses as f64, &run);
        }
    });
    e2e
}

// ---------------------------------------------------------------------------
// The traced replay
// ---------------------------------------------------------------------------

/// The hash the sampled pipeline routes accesses by (SplitMix64's
/// finalizer, as `symloc_core::tracesweep` applies it).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Splits a chunk's accesses by owning hash shard, in access order.
fn route(accesses: &[u64], shards: usize) -> Vec<Vec<u64>> {
    let mut routed = vec![Vec::new(); shards];
    for &addr in accesses {
        let shard = splitmix64(addr) % SHARDS_MODULUS % shards as u64;
        routed[shard as usize].push(addr);
    }
    routed
}

/// One chunk-plan replay: the CLI's passes of `threads` chunks, each
/// chunk opened, streamed and folded on its own worker, then merged (and
/// replayed through the hash-shard estimators) in chunk order, with a
/// checkpoint-sized save after every pass.
struct Replay<'a> {
    source: &'a TraceSource,
    total: u64,
    chunks: usize,
    threads: usize,
    /// Span name of the stream step: `binio.decode` or `stream.gen`.
    stream: &'static str,
    /// `(hash shards, budget per shard)` of the sampled side.
    sampled: Option<(usize, usize)>,
    /// `(document, path)` saved after every pass.
    save: Option<(&'a str, &'a Path)>,
}

struct ReplayOut {
    wall_s: f64,
    state: MergeState,
    estimators: Vec<ShardsEstimator>,
}

impl Replay<'_> {
    fn run(&self, tracer: &Tracer) -> ReplayOut {
        let bounds: Vec<(u64, u64)> = split_indices(self.total as usize, self.chunks)
            .iter()
            .map(|c| (c.start as u64, c.end as u64))
            .collect();
        let (shards, budget) = self.sampled.unwrap_or((0, 1));
        let mut estimators: Vec<ShardsEstimator> = (0..shards)
            .map(|i| ShardsEstimator::for_shard(budget, SHARDS_MODULUS, i as u64, shards as u64))
            .collect();
        let mut state = MergeState::new();
        let start = Instant::now();
        let mut main = tracer.local(0);
        let root = main.begin("replay", NO_PARENT);
        for pass in bounds.chunks(self.threads) {
            let region = main.begin("job.pass", root.id);
            let region_id = region.id;
            let results: Vec<(ChunkPartial, Vec<Vec<u64>>)> = std::thread::scope(|scope| {
                let workers: Vec<_> = pass
                    .iter()
                    .enumerate()
                    .map(|(k, &(lo, hi))| {
                        scope.spawn(move || self.chunk(tracer, k as u32 + 1, region_id, lo, hi))
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("replay worker panicked"))
                    .collect()
            });
            main.end(region);
            for (partial, routed) in results {
                main.span("tracesweep.merge", root.id, || state.absorb(&partial));
                if shards > 0 {
                    main.span("tracesweep.sampled", root.id, || {
                        for (estimator, slice) in estimators.iter_mut().zip(&routed) {
                            estimator.record_all(slice.iter().copied());
                        }
                    });
                }
            }
            if let Some((doc, path)) = self.save {
                main.span("jsonio.save", root.id, || jsonio::save_atomic(path, doc))
                    .expect("scratch directory is writable");
            }
        }
        main.end(root);
        ReplayOut {
            wall_s: start.elapsed().as_secs_f64(),
            state,
            estimators,
        }
    }

    fn chunk(
        &self,
        tracer: &Tracer,
        thread: u32,
        parent: u32,
        lo: u64,
        hi: u64,
    ) -> (ChunkPartial, Vec<Vec<u64>>) {
        let mut local = tracer.local(thread);
        let unit = local.begin("job.unit", parent);
        let mut blocks = local.span("stream.range_open", unit.id, || {
            self.source
                .stream_blocks_range(lo, hi)
                .expect("validated sources stream")
        });
        let accesses = local.span(self.stream, unit.id, || {
            let mut all = Vec::with_capacity((hi - lo) as usize);
            let mut buf = Vec::new();
            while blocks.next_block(&mut buf) > 0 {
                all.extend_from_slice(&buf);
            }
            all
        });
        let partial = local.span("tracesweep.exact", unit.id, || {
            chunk_partial(accesses.iter().copied())
        });
        let routed = match self.sampled {
            Some((shards, _)) => {
                local.span("tracesweep.route", unit.id, || route(&accesses, shards))
            }
            None => Vec::new(),
        };
        local.end(unit);
        (partial, routed)
    }

    /// Runs the replay untraced, then traced; returns the traced spans.
    fn measure(&self, ctx: &Ctx, pipeline: &str) -> (ReplayOut, f64, Vec<spans::SpanRec>) {
        let untraced = self.run(&Tracer::new(false)).wall_s;
        let tracer = Tracer::new(true);
        let out = self.run(&tracer);
        let spans = tracer.spans();
        let _ = spans::dump(&ctx.scratch.join("spans.tsv"), pipeline, &spans);
        (out, untraced, spans)
    }
}

/// Worker stages divided by the worker count, the workers' wait for the
/// slowest chunk of each pass, then the serial stages.
fn stage_table(
    spans: &[spans::SpanRec],
    threads: usize,
    worker: &[&'static str],
    serial: &[&'static str],
    items: f64,
    e2e_ns: f64,
) -> StageTable {
    let per_item = |ns: f64| ns / items;
    let t = threads as f64;
    let mut stages: Vec<(String, f64)> = worker
        .iter()
        .map(|&name| {
            (
                name.to_string(),
                per_item(spans::total_ns(spans, name) as f64 / t),
            )
        })
        .collect();
    let wait =
        spans::total_ns(spans, "job.pass") as f64 - spans::total_ns(spans, "job.unit") as f64 / t;
    stages.push(("par.wait".to_string(), per_item(wait)));
    stages.extend(serial.iter().map(|&name| {
        (
            name.to_string(),
            per_item(spans::total_ns(spans, name) as f64),
        )
    }));
    StageTable {
        item: "access",
        stages,
        e2e: e2e_ns,
    }
}

fn histogram_sum(registry: &MetricsRegistry, name: &str) -> f64 {
    registry.histogram(name).map_or(0.0, |h| h.sum() as f64)
}

/// Traced `trace_sltr_fused`.
pub fn sltr_traced(ctx: &Ctx, tally: &mut Tally) -> Option<Traced> {
    let plan = Plan::sltr(ctx.seed, ctx.tiny);
    let dir = ctx.dir("trace_sltr_fused");
    let sltr = dir.join("trace.sltr");
    let ck = dir.join("checkpoint.json");
    let metrics = dir.join("metrics.json");
    convert(ctx, tally, &plan, &sltr)?;
    let source = TraceSource::Binary(sltr.clone());
    let (exact, compactions, sampled) = fused_references(tally, &source, &plan, ctx.threads)?;

    let mut args = fused_args(&sltr, &plan, &ck, ctx.threads);
    args.extend(argv!["--metrics", arg(&metrics)]);
    let run = ctx.symloc(&args);
    if !tally.check_exit("trace mrc (fused, metrics)", &run) {
        return None;
    }
    let run = run.expect("checked");
    tally.check("fused curves", check_fused(&run.stdout, &exact, &sampled));
    let n = plan.accesses as f64;
    let e2e_ns = run.wall.as_secs_f64() * 1e9 / n;
    let registry = std::fs::read_to_string(&metrics)
        .map_err(|e| e.to_string())
        .and_then(|text| MetricsRegistry::from_json(&text));
    let registry = match registry {
        Ok(registry) => registry,
        Err(e) => {
            tally.check("--metrics snapshot", Err(e));
            return None;
        }
    };
    let checkpoint = std::fs::read_to_string(&ck).unwrap_or_default();

    let save_path = dir.join("replay-checkpoint.json");
    let replay = Replay {
        source: &source,
        total: plan.accesses,
        chunks: plan.chunks,
        threads: ctx.threads,
        stream: "binio.decode",
        sampled: Some((plan.chunks, (plan.sample / plan.chunks).max(1))),
        save: Some((&checkpoint, &save_path)),
    };
    let (out, untraced_s, spans) = replay.measure(ctx, "trace_sltr_fused");
    tally.check(
        "replayed exact curve",
        (expected_exact(out.state.histogram()) == exact)
            .then_some(())
            .ok_or_else(|| "differs from the reference".to_string()),
    );
    let mut merged = WeightedHistogram::default();
    for estimator in &out.estimators {
        merged.merge(estimator.histogram());
    }
    tally.check(
        "replayed sampled curve",
        (expected_sampled(&merged, plan.accesses) == sampled)
            .then_some(())
            .ok_or_else(|| "differs from the reference".to_string()),
    );

    let ns = |name: &str| spans::self_ns(&spans, name) as f64;
    let raw: u64 = out
        .estimators
        .iter()
        .map(ShardsEstimator::raw_accesses)
        .sum();
    let kept: u64 = out
        .estimators
        .iter()
        .map(ShardsEstimator::sampled_accesses)
        .sum();
    let unit_ns = histogram_sum(&registry, "job.unit_nanos");
    let elapsed = registry.gauge("job.elapsed_secs").unwrap_or(f64::NAN);
    let saves = spans::count(&spans, "jsonio.save").max(1) as f64;
    let layers = vec![
        Metric::new("binio.decode_ns_per_access", ns("binio.decode") / n, "ns"),
        Metric::new(
            "tracesweep.exact_ns_per_access",
            ns("tracesweep.exact") / n,
            "ns",
        ),
        Metric::new(
            "tracesweep.merge_ns_per_access",
            ns("tracesweep.merge") / n,
            "ns",
        ),
        Metric::new(
            "tracesweep.sampled_ns_per_access",
            (ns("tracesweep.route") + ns("tracesweep.sampled")) / n,
            "ns",
        ),
        Metric::new(
            "tracesweep.sampled_ratio",
            kept as f64 / raw.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "tracesweep.footprint",
            out.state.footprint() as f64,
            "count",
        ),
        Metric::new("tracesweep.compactions", compactions as f64, "count"),
        Metric::new("job.unit_s", unit_ns / 1e9, "s"),
        Metric::new(
            "job.absorb_s",
            histogram_sum(&registry, "job.absorb_nanos") / 1e9,
            "s",
        ),
        Metric::new(
            "job.save_s",
            histogram_sum(&registry, "job.save_nanos") / 1e9,
            "s",
        ),
        Metric::new(
            "job.worker_busy_ratio",
            unit_ns / (ctx.threads as f64 * elapsed * 1e9),
            "ratio",
        ),
        Metric::new("jsonio.save_ms", ns("jsonio.save") / saves / 1e6, "ms"),
        Metric::new("jsonio.checkpoint_bytes", checkpoint.len() as f64, "bytes"),
    ];
    let table = stage_table(
        &spans,
        ctx.threads,
        &[
            "stream.range_open",
            "binio.decode",
            "tracesweep.exact",
            "tracesweep.route",
        ],
        &["tracesweep.merge", "tracesweep.sampled", "jsonio.save"],
        n,
        e2e_ns,
    );
    Some(Traced {
        pipeline: "trace_sltr_fused",
        layers,
        table,
        traced_s: out.wall_s,
        untraced_s,
    })
}

/// Traced `trace_gen_exact`.
pub fn gen_traced(ctx: &Ctx, tally: &mut Tally) -> Option<Traced> {
    let plan = Plan::gen(ctx.seed, ctx.tiny);
    let source = TraceSource::Gen(GenSpec::parse(&plan.spec).expect("valid spec"));
    let exact = match exact_reference(&source) {
        Ok((exact, _)) => exact,
        Err(e) => {
            tally.check("in-process reference", Err(e));
            return None;
        }
    };
    let run = ctx.symloc(&gen_args(&plan.spec, plan.chunks, ctx.threads));
    if !tally.check_exit("trace mrc (gen exact)", &run) {
        return None;
    }
    let run = run.expect("checked");
    tally.check("exact curve", check_exact(&run.stdout, &exact));
    let n = plan.accesses as f64;
    let e2e_ns = run.wall.as_secs_f64() * 1e9 / n;

    let replay = Replay {
        source: &source,
        total: plan.accesses,
        chunks: plan.chunks,
        threads: ctx.threads,
        stream: "stream.gen",
        sampled: None,
        save: None,
    };
    let (out, untraced_s, spans) = replay.measure(ctx, "trace_gen_exact");
    tally.check(
        "replayed exact curve",
        (expected_exact(out.state.histogram()) == exact)
            .then_some(())
            .ok_or_else(|| "differs from the reference".to_string()),
    );
    let ns = |name: &str| spans::self_ns(&spans, name) as f64;
    let layers = vec![
        Metric::new("stream.gen_ns_per_access", ns("stream.gen") / n, "ns"),
        Metric::new(
            "stream.range_open_ms_per_chunk",
            ns("stream.range_open") / plan.chunks as f64 / 1e6,
            "ms",
        ),
        Metric::new(
            "tracesweep.exact_l2_ns_per_access",
            ns("tracesweep.exact") / n,
            "ns",
        ),
    ];
    let table = stage_table(
        &spans,
        ctx.threads,
        &["stream.range_open", "stream.gen", "tracesweep.exact"],
        &["tracesweep.merge"],
        n,
        e2e_ns,
    );
    Some(Traced {
        pipeline: "trace_gen_exact",
        layers,
        table,
        traced_s: out.wall_s,
        untraced_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_source() -> TraceSource {
        TraceSource::Gen(GenSpec::parse(&Plan::sltr(3, true).spec).unwrap())
    }

    /// A report in the CLI's fused `--json` shape.
    fn fused_report(exact: &Expected, sampled: &Expected) -> String {
        let curve = |c: &Curve| {
            let pts: Vec<String> = c.iter().map(|(s, r)| format!("[{s}, {r}]")).collect();
            format!("[{}]", pts.join(", "))
        };
        format!(
            "{{\"accesses\": {a}, \"streamed\": {a}, \"exact\": {{\"footprint\": {}, \"mrc\": {}}}, \
             \"sampled\": {{\"footprint\": {}, \"mrc\": {}}}}}",
            exact.footprint,
            curve(&exact.curve),
            sampled.footprint,
            curve(&sampled.curve),
            a = exact.accesses,
        )
    }

    #[test]
    fn a_corrupted_curve_is_flagged() {
        let source = tiny_source();
        let plan = Plan::sltr(3, true);
        let (exact, _) = exact_reference(&source).unwrap();
        let sampled = sampled_reference(&source, &plan, 2).unwrap();
        assert_eq!(
            check_fused(&fused_report(&exact, &sampled), &exact, &sampled),
            Ok(())
        );

        let mut wrong = exact.clone();
        wrong.curve[3].1 = f64::from_bits(wrong.curve[3].1.to_bits() + 1);
        assert!(check_fused(&fused_report(&wrong, &sampled), &exact, &sampled).is_err());
        let mut wrong = sampled.clone();
        wrong.footprint += 1;
        assert!(check_fused(&fused_report(&exact, &wrong), &exact, &sampled).is_err());
        let mut short = exact.clone();
        short.accesses -= 1;
        assert!(check_fused(&fused_report(&short, &sampled), &exact, &sampled).is_err());
    }

    #[test]
    fn the_replay_reproduces_the_references() {
        let source = tiny_source();
        let plan = Plan::sltr(3, true);
        let (exact, _) = exact_reference(&source).unwrap();
        let sampled = sampled_reference(&source, &plan, 2).unwrap();
        let replay = Replay {
            source: &source,
            total: plan.accesses,
            chunks: plan.chunks,
            threads: 2,
            stream: "stream.gen",
            sampled: Some((plan.chunks, plan.sample / plan.chunks)),
            save: None,
        };
        let tracer = Tracer::new(true);
        let out = replay.run(&tracer);
        assert_eq!(expected_exact(out.state.histogram()), exact);
        let mut merged = WeightedHistogram::default();
        for e in &out.estimators {
            merged.merge(e.histogram());
        }
        assert_eq!(expected_sampled(&merged, plan.accesses), sampled);
        let spans = tracer.spans();
        assert_eq!(spans::count(&spans, "job.unit"), plan.chunks);
        assert_eq!(spans::count(&spans, "tracesweep.merge"), plan.chunks);
    }
}
