//! `symloc trace` — streaming trace analysis: `mrc` (exact or sampled,
//! resumable), `convert` (format conversion + sidecar chunk indexes) and
//! `index` (build the sidecar for an existing file).

use super::batch::{json_report, run_and_report, BatchJob, Caller, Curve, Finished, RunSpec};
use super::flags::{write_metrics, CommandSpec, FlagSpec, CHECKPOINT, JSON, METRICS, THREADS};
use super::{help_requested, CliError};
use std::fmt::Write as _;
use std::path::Path;

use symloc_core::obs::{MetricsRegistry, Span};
use symloc_core::tracesweep::{
    MrcPoint, OnlineReuseEngine, SampledIngest, SampledPlan, ShardsEstimator, TraceIngest,
};
use symloc_par::default_threads;
use symloc_trace::binio::{
    build_sltr_index, sltr_index_path, SltrError, SltrIndex, SltrWriter, DEFAULT_INDEX_INTERVAL,
};
use symloc_trace::stream::{
    build_text_index, AccessBlocks, AccessSink as _, BlockRead, MeteredSink, TraceSource,
};

const EXACT: FlagSpec = FlagSpec::switch(
    "--exact",
    "the exact engine (the default); with --sample = fused single-pass both",
);
const SAMPLE: FlagSpec = FlagSpec::value(
    "--sample",
    "S_MAX",
    "bounded-memory SHARDS sampling with this tracked-address budget",
);
const SHARDS: FlagSpec = FlagSpec::value(
    "--shards",
    "N",
    "chunk count (exact) / hash-shard count (sampled); default 8 / 1",
);
const POINTS: FlagSpec = FlagSpec::value(
    "--points",
    "K",
    "MRC evaluation points, log-spaced over the footprint (default 16)",
);
const MAX_CHUNKS: FlagSpec = FlagSpec::value(
    "--max-chunks",
    "N",
    "run at most N chunks/shards this invocation (needs --checkpoint)",
);
const INDEX: FlagSpec = FlagSpec::value(
    "--index",
    "N",
    "sidecar chunk-index interval for the output (0 = none; default 4096)",
);
const INTERVAL: FlagSpec = FlagSpec::value(
    "--interval",
    "N",
    "accesses between indexed offsets (default 4096)",
);

/// MRC evaluation points when `--points` is not given.
pub(crate) const DEFAULT_POINTS: usize = 16;

/// `symloc trace mrc` command table.
pub(crate) const TRACE_MRC: CommandSpec = CommandSpec {
    name: "trace mrc",
    summary: "reuse-distance profile and miss-ratio curve of a trace stream",
    usage: "symloc trace mrc <file|gen:...> [flags]",
    positionals: &[("source", "a trace file (text or .sltr) or a gen: spec")],
    variadic: false,
    flags: &[
        EXACT, SAMPLE, SHARDS, THREADS, POINTS, CHECKPOINT, MAX_CHUNKS, JSON, METRICS,
    ],
};

/// `symloc trace convert` command table.
pub(crate) const TRACE_CONVERT: CommandSpec = CommandSpec {
    name: "trace convert",
    summary: "convert a trace between text and .sltr (streaming, indexed)",
    usage: "symloc trace convert <file|gen:...> <out-file> [--index N]",
    positionals: &[
        ("source", "a trace file (text or .sltr) or a gen: spec"),
        (
            "out-file",
            ".sltr extension = binary output, anything else = text",
        ),
    ],
    variadic: false,
    flags: &[INDEX],
};

/// `symloc trace index` command table.
pub(crate) const TRACE_INDEX: CommandSpec = CommandSpec {
    name: "trace index",
    summary: "build the seekable sidecar chunk index for an existing trace",
    usage: "symloc trace index <file> [--interval N]",
    positionals: &[("file", "an existing text or .sltr trace file")],
    variadic: false,
    flags: &[INTERVAL],
};

/// Options of `symloc trace mrc`, parsed from its argument list.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMrcOptions {
    /// The trace source (file or `gen:` spec).
    pub source: TraceSource,
    /// `Some(s_max)` selects the bounded-memory sampled estimator
    /// (`s_max` = total tracked-address budget, split across hash shards).
    pub sample: Option<usize>,
    /// Chunk count for sharded exact ingestion.
    pub shards: usize,
    /// Hash-shard count for the sampled estimator (set by the same
    /// `--shards` flag; defaults to 1 = the sequential estimator).
    pub sample_shards: usize,
    /// Worker threads.
    pub threads: usize,
    /// Number of MRC evaluation points (log-spaced over the footprint).
    pub points: usize,
    /// Checkpoint file enabling resumable exact ingestion.
    pub checkpoint: Option<String>,
    /// At most this many chunks this invocation (`None` = run to the end).
    pub max_chunks: Option<usize>,
    /// Emit a machine-readable JSON report instead of the table.
    pub json: bool,
    /// `--exact --sample S` together: the fused single-pass run producing
    /// both the exact and the sampled curve from one streaming pass.
    pub fused: bool,
    /// Write the metrics-registry snapshot (JSON) to this file.
    pub metrics: Option<String>,
}

/// Parses the argument list of `symloc trace mrc` (everything after the
/// `mrc` subcommand).
///
/// # Errors
///
/// Returns a [`CliError`] on malformed flags or unsupported combinations.
pub fn parse_trace_mrc_options(args: &[String]) -> Result<TraceMrcOptions, CliError> {
    let parsed = TRACE_MRC
        .parse(args)?
        .expect("callers handle --help before parsing");
    let source_arg = parsed
        .positionals
        .first()
        .ok_or_else(|| CliError("trace mrc needs a trace file or gen: spec".into()))?;
    let source = TraceSource::parse(source_arg).map_err(CliError)?;
    let shards = parsed.usize(SHARDS.name)?;
    let sample = parsed.usize(SAMPLE.name)?;
    let options = TraceMrcOptions {
        source,
        sample,
        shards: shards.unwrap_or(8),
        sample_shards: shards.unwrap_or(1),
        threads: parsed.usize(THREADS.name)?.unwrap_or_else(default_threads),
        points: parsed.usize(POINTS.name)?.unwrap_or(DEFAULT_POINTS),
        checkpoint: parsed.value(CHECKPOINT.name).map(ToString::to_string),
        max_chunks: parsed.usize(MAX_CHUNKS.name)?,
        json: parsed.switch(JSON.name),
        fused: parsed.switch(EXACT.name) && sample.is_some(),
        metrics: parsed.value(METRICS.name).map(ToString::to_string),
    };
    if options.sample == Some(0) {
        return Err(CliError("--sample needs a positive budget".into()));
    }
    if shards == Some(0) {
        return Err(CliError("--shards must be positive".into()));
    }
    if options.points == 0 {
        return Err(CliError("--points must be positive".into()));
    }
    if let Some(s_max) = options.sample {
        if s_max < options.sample_shards {
            return Err(CliError(format!(
                "--sample {s_max} is below one tracked address per hash shard \
                 (--shards {})",
                options.sample_shards
            )));
        }
    }
    if options.max_chunks.is_some() && options.checkpoint.is_none() {
        return Err(CliError(
            "--max-chunks only makes sense with --checkpoint (a bounded \
             partial ingest needs somewhere to save its progress)"
                .into(),
        ));
    }
    Ok(options)
}

/// Opens a block reader over the whole of a fully validated `source`:
/// scans it once (catching unreadable files and malformed content as a
/// [`CliError`] instead of the panic block readers reserve for validated
/// sources), then streams.
fn validated_blocks(source: &TraceSource) -> Result<AccessBlocks, CliError> {
    let total = source
        .total_accesses()
        .map_err(|e| CliError(format!("cannot read {source}: {e}")))?;
    source
        .stream_blocks_range(0, total)
        .map_err(|e| CliError(format!("cannot read {source}: {e}")))
}

/// Renders the MRC table of a finished (exact or sampled) analysis.
pub(crate) fn mrc_table(points: &[MrcPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:>12} {:>12}", "cache size", "miss ratio");
    for p in points {
        let _ = writeln!(out, "{:>12} {:>12.4}", p.cache_size, p.miss_ratio);
    }
    out
}

/// Renders MRC points as a JSON `[[size, ratio], ...]` array fragment.
pub(crate) fn mrc_array(points: &[MrcPoint]) -> String {
    let mut out = String::from("[");
    for (i, p) in points.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}[{}, {}]", p.cache_size, p.miss_ratio);
    }
    out.push(']');
    out
}

/// The JSON header keys of a trace report: `engine` names the engine of a
/// finished run, `None` marks an unfinished one.
pub(crate) fn trace_head(source: &TraceSource, engine: Option<&str>) -> String {
    let mut out = format!(
        "  \"source\": \"{}\",\n",
        symloc_core::jsonio::escape(&source.fingerprint())
    );
    if let Some(engine) = engine {
        let _ = writeln!(out, "  \"engine\": \"{engine}\",");
    }
    let _ = writeln!(out, "  \"complete\": {},", engine.is_some());
    out
}

/// `symloc trace mrc <file|gen:...>` — streams the trace once and reports
/// its reuse-distance profile and miss-ratio curve: exact (optionally
/// sharded and checkpoint-resumable), SHARDS-sampled in `O(s_max)` memory,
/// or — with `--exact --sample S` together — the fused single-pass run
/// reporting both curves from one streaming pass.
///
/// # Errors
///
/// Returns a [`CliError`] on malformed arguments, unreadable sources,
/// checkpoint I/O failures, or a checkpoint file of a different job kind.
pub fn trace_mrc(args: &[String]) -> Result<String, CliError> {
    if help_requested(args) {
        return Ok(TRACE_MRC.help());
    }
    let options = parse_trace_mrc_options(args)?;
    let source = &options.source;
    let mut registry = MetricsRegistry::new();
    let out = format!("trace mrc — {source}\n");
    let checkpoint = options.checkpoint.as_deref().map(Path::new);

    let (job, resumed) = match options.sample {
        // Hash-sharded (and optionally checkpoint-resumable) parallel
        // sampling; one hash shard without a checkpoint degenerates to the
        // classic single-pass sequential estimator below.
        Some(s_max) if !options.fused && (checkpoint.is_some() || options.sample_shards > 1) => {
            let (shards, threads) = (options.sample_shards, options.threads);
            let budget = (s_max / shards).max(1);
            let (ingest, resumed) = match checkpoint {
                Some(path) => SampledIngest::resume_or_new(source, shards, budget, threads, path)
                    .map_err(CliError)?,
                None => (
                    SampledIngest::new(source, shards, budget, threads).map_err(CliError)?,
                    false,
                ),
            };
            (BatchJob::SampledTrace(ingest, source.clone()), resumed)
        }
        Some(s_max) if !options.fused => {
            // The bounded-memory sampled estimator: one sequential pass.
            let mut estimator = ShardsEstimator::new(s_max);
            let span = Span::start();
            let mut blocks = validated_blocks(source)?;
            let mut buf = Vec::new();
            while blocks.next_block(&mut buf) > 0 {
                estimator.record_all(buf.iter().copied());
            }
            registry.set_gauge("job.elapsed_secs", span.elapsed_secs());
            span.record(&mut registry, "trace.total_nanos");
            estimator.record_gauges(&mut registry);
            let finished = Finished::Mrc {
                accesses: estimator.raw_accesses(),
                engine: format!(
                    "sampled (s_max {s_max}, rate {:.4}, {} sampled, {} evictions)",
                    estimator.sampling_rate(),
                    estimator.sampled_accesses(),
                    estimator.evictions()
                ),
                curve: Curve::estimated(
                    estimator.estimated_footprint(),
                    estimator.histogram(),
                    options.points,
                ),
            };
            return side_report(&options, out, "sampled", &finished, &registry);
        }
        None if checkpoint.is_none() && options.threads <= 1 => {
            // The single-threaded exact path runs through a `MeteredSink`,
            // so decode time (pulling blocks off the source) and compute
            // time (the engine's Fenwick work) are split — delivery to the
            // engine is unchanged, so the curve is byte-identical to the
            // unmetered loop.
            let mut sink = MeteredSink::new(OnlineReuseEngine::new());
            let mut blocks = validated_blocks(source)?;
            let mut buf = Vec::new();
            loop {
                let decode = Span::start();
                let n = blocks.next_block(&mut buf);
                sink.add_decode_nanos(decode.elapsed_nanos());
                if n == 0 {
                    break;
                }
                sink.on_block(&buf);
            }
            registry.add("trace.accesses", sink.accesses());
            registry.add("trace.blocks", sink.blocks());
            registry.add("trace.decode_nanos", sink.decode_nanos());
            registry.add("trace.compute_nanos", sink.compute_nanos());
            let engine = sink.into_inner();
            engine.record_gauges(&mut registry);
            let finished = Finished::Mrc {
                accesses: engine.accesses(),
                engine: "exact streaming (1 thread)".into(),
                curve: Curve::exact(engine.histogram(), options.points),
            };
            return side_report(&options, out, "exact_streaming", &finished, &registry);
        }
        // One chunked ingest: exact, or — with `--exact --sample S` —
        // fused, where **one** streaming pass produces both the exact and
        // the sampled curve (identical to what separate exact and sampled
        // runs would report).
        _ => {
            let plan = options
                .sample
                .filter(|_| options.fused)
                .map(|s_max| SampledPlan {
                    shard_count: options.sample_shards,
                    budget_per_shard: (s_max / options.sample_shards).max(1),
                });
            let (shards, threads) = (options.shards, options.threads);
            let (ingest, resumed) = match checkpoint {
                Some(path) => TraceIngest::resume_or_new(source, shards, plan, threads, path)
                    .map_err(CliError)?,
                None => (
                    TraceIngest::new(source, shards, plan, threads).map_err(CliError)?,
                    false,
                ),
            };
            (BatchJob::Trace(Box::new(ingest), source.clone()), resumed)
        }
    };
    let run = RunSpec {
        threads: options.threads,
        points: options.points,
        limit: options.max_chunks,
        checkpoint: options.checkpoint.as_deref(),
        json: options.json,
        metrics: options.metrics.as_deref(),
    };
    run_and_report(job, Caller::Command { resumed }, &run, out)
}

/// The report of an uncheckpointed single-pass run, whose engine is named
/// `engine` in the JSON document.
fn side_report(
    options: &TraceMrcOptions,
    out: String,
    engine: &str,
    finished: &Finished,
    registry: &MetricsRegistry,
) -> Result<String, CliError> {
    write_metrics(options.metrics.as_deref(), registry)?;
    Ok(if options.json {
        let head = trace_head(&options.source, Some(engine));
        json_report(&(head + &finished.fields()), registry)
    } else {
        out + &finished.text()
    })
}

/// `symloc trace convert <in> <out> [--index N]` — streams a trace from any
/// source into a file, picking the output format by extension (`.sltr` =
/// binary varint, anything else = plain text). Never materializes the
/// trace, so converting a multi-gigabyte generator spec to `.sltr` is fine.
///
/// Both output formats also get a sidecar chunk index at `<out>.idx` (byte
/// offset every `N` accesses — default 4096) so later range reads *seek*
/// instead of decode- or parse-skipping; `--index 0` disables it.
///
/// # Errors
///
/// Returns a [`CliError`] on malformed arguments, I/O failures, or an
/// output that names the source file itself (the same canonical path, or
/// on Unix the same device and inode), which is refused before the output
/// is created, so the input is never truncated.
pub fn trace_convert(args: &[String]) -> Result<String, CliError> {
    if help_requested(args) {
        return Ok(TRACE_CONVERT.help());
    }
    let parsed = TRACE_CONVERT.parse(args)?.expect("--help handled above");
    let source_arg = parsed
        .positionals
        .first()
        .ok_or_else(|| CliError("trace convert needs a source".into()))?;
    let out_path = parsed
        .positionals
        .get(1)
        .ok_or_else(|| CliError("trace convert needs an output file".into()))?
        .clone();
    let interval = parsed.u64(INDEX.name)?.unwrap_or(DEFAULT_INDEX_INTERVAL);
    let source = TraceSource::parse(source_arg).map_err(CliError)?;
    if let TraceSource::Text(input) | TraceSource::Binary(input) = &source {
        if same_file(input, Path::new(&out_path)) {
            return Err(CliError(format!(
                "trace convert: the output {out_path} is the source file {}; \
                 refusing to overwrite the trace being read",
                input.display()
            )));
        }
    }
    let mut blocks = validated_blocks(&source)?;
    let binary = Path::new(&out_path)
        .extension()
        .is_some_and(|e| e == "sltr");
    let file = std::fs::File::create(&out_path)
        .map_err(|e| CliError(format!("cannot create {out_path}: {e}")))?;
    let write_err = |e: &dyn std::fmt::Display| CliError(format!("cannot write {out_path}: {e}"));
    let (written, index) = if binary {
        let sltr_err = |e: SltrError| write_err(&e);
        let mut writer = if interval > 0 {
            SltrWriter::new_indexed(file, interval)
        } else {
            SltrWriter::new(file)
        }
        .map_err(sltr_err)?;
        for_each_access(blocks.as_mut(), |addr| writer.push(addr)).map_err(sltr_err)?;
        if interval > 0 {
            let (written, index) = writer.finish_indexed().map_err(sltr_err)?;
            (written, Some(index))
        } else {
            (writer.finish().map_err(sltr_err)?, None)
        }
    } else {
        use std::io::Write as _;
        let mut writer = std::io::BufWriter::new(file);
        let header = "# symloc trace\n";
        let (mut written, mut bytes) = (0u64, header.len() as u64);
        let mut offsets = Vec::new();
        let mut line = String::new();
        writer
            .write_all(header.as_bytes())
            .map_err(|e| write_err(&e))?;
        for_each_access(blocks.as_mut(), |addr| {
            if interval > 0 && written > 0 && written.is_multiple_of(interval) {
                offsets.push(bytes);
            }
            line.clear();
            let _ = writeln!(line, "{addr}");
            bytes += line.len() as u64;
            written += 1;
            writer.write_all(line.as_bytes())
        })
        .and_then(|()| writer.flush())
        .map_err(|e| write_err(&e))?;
        let index =
            (interval > 0).then(|| SltrIndex::from_parts(interval, written, bytes, offsets));
        (written, index)
    };
    let sidecar = sltr_index_path(Path::new(&out_path));
    if let Some(index) = &index {
        index
            .write(&sidecar)
            .map_err(|e| CliError(format!("cannot write {}: {e}", sidecar.display())))?;
    } else {
        // --index 0: make sure a stale sidecar from a previous conversion
        // cannot outlive the new payload.
        std::fs::remove_file(&sidecar).ok();
    }
    let indexed = index.is_some();
    Ok(format!(
        "converted {source} -> {out_path} ({written} accesses, {} format{})\n",
        if binary { "sltr" } else { "text" },
        if indexed {
            format!(
                ", {} index every {interval}",
                if binary { "chunk" } else { "line" }
            )
        } else {
            String::new()
        }
    ))
}

/// Feeds every access of `blocks` to `push`, stopping at its first error.
fn for_each_access<E>(
    blocks: &mut dyn BlockRead,
    mut push: impl FnMut(u64) -> Result<(), E>,
) -> Result<(), E> {
    let mut buf = Vec::new();
    while blocks.next_block(&mut buf) > 0 {
        for &addr in &buf {
            push(addr)?;
        }
    }
    Ok(())
}

/// True when `a` and `b` name one existing file: the same canonical path,
/// or (on Unix, catching hard links) the same device and inode.
fn same_file(a: &Path, b: &Path) -> bool {
    if let (Ok(a), Ok(b)) = (std::fs::canonicalize(a), std::fs::canonicalize(b)) {
        if a == b {
            return true;
        }
    }
    #[cfg(unix)]
    if let (Ok(a), Ok(b)) = (std::fs::metadata(a), std::fs::metadata(b)) {
        use std::os::unix::fs::MetadataExt as _;
        return (a.dev(), a.ino()) == (b.dev(), b.ino());
    }
    false
}

/// `symloc trace index <file> [--interval N]` — builds the seekable
/// sidecar chunk index for an *existing* trace file (text or `.sltr`), so
/// sharded ingests seek instead of decode- or parse-skipping to their
/// chunks. Overwrites any previous sidecar.
///
/// # Errors
///
/// Returns a [`CliError`] on malformed arguments, non-file sources, or
/// read/parse failures.
pub fn trace_index(args: &[String]) -> Result<String, CliError> {
    if help_requested(args) {
        return Ok(TRACE_INDEX.help());
    }
    let parsed = TRACE_INDEX.parse(args)?.expect("--help handled above");
    let file = parsed
        .positionals
        .first()
        .ok_or_else(|| CliError("trace index needs a trace file".into()))?;
    let interval = parsed.u64(INTERVAL.name)?.unwrap_or(DEFAULT_INDEX_INTERVAL);
    if interval == 0 {
        return Err(CliError("--interval must be positive".into()));
    }
    let source = TraceSource::parse(file).map_err(CliError)?;
    let (path, index, kind) = match &source {
        TraceSource::Text(path) => (
            path.clone(),
            build_text_index(path, interval)
                .map_err(|e| CliError(format!("cannot index {file}: {e}")))?,
            "line",
        ),
        TraceSource::Binary(path) => (
            path.clone(),
            build_sltr_index(path, interval)
                .map_err(|e| CliError(format!("cannot index {file}: {e}")))?,
            "chunk",
        ),
        TraceSource::Gen(_) | TraceSource::Memory(_) => {
            return Err(CliError(
                "trace index needs a file on disk (generator specs position in O(1) already)"
                    .into(),
            ))
        }
    };
    let sidecar = sltr_index_path(&path);
    index
        .write(&sidecar)
        .map_err(|e| CliError(format!("cannot write {}: {e}", sidecar.display())))?;
    Ok(format!(
        "indexed {file}: {} accesses, {} index every {interval} -> {}\n",
        index.total_accesses(),
        kind,
        sidecar.display()
    ))
}

/// Dispatches the `symloc trace <mrc|convert|index>` subcommands.
///
/// # Errors
///
/// See [`trace_mrc`], [`trace_convert`] and [`trace_index`].
pub fn trace(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("mrc") => trace_mrc(&args[1..]),
        Some("convert") => trace_convert(&args[1..]),
        Some("index") => trace_index(&args[1..]),
        Some("--help" | "-h") => Ok(format!(
            "symloc trace — streaming trace analysis\n\nUSAGE:\n  {}\n  {}\n  {}\n",
            TRACE_MRC.usage, TRACE_CONVERT.usage, TRACE_INDEX.usage
        )),
        Some(other) => Err(CliError(format!(
            "unknown trace subcommand {other:?} (expected mrc, convert or index)"
        ))),
        None => Err(CliError(
            "trace needs a subcommand (mrc, convert or index)".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::sargs;
    use symloc_core::jsonio::{self, JsonValue};
    use symloc_trace::io::read_trace;

    /// Accesses `start..end` of `source`, read through its block reader.
    fn read_range(source: &TraceSource, start: u64, end: u64) -> Vec<u64> {
        let mut blocks = source.stream_blocks_range(start, end).unwrap();
        let (mut all, mut buf) = (Vec::new(), Vec::new());
        while blocks.next_block(&mut buf) > 0 {
            all.extend_from_slice(&buf);
        }
        all
    }

    #[test]
    fn trace_mrc_option_parsing() {
        let options = parse_trace_mrc_options(&sargs(
            "gen:zipf:100:1000:0.9:1 --sample 64 --threads 2 --points 8",
        ))
        .unwrap();
        assert_eq!(options.sample, Some(64));
        assert_eq!(options.threads, 2);
        assert_eq!(options.points, 8);
        assert!(!options.json);
        assert!(matches!(options.source, TraceSource::Gen(_)));
        assert!(parse_trace_mrc_options(&sargs("")).is_err());
        assert!(parse_trace_mrc_options(&sargs("gen:bogus:1")).is_err());
        assert!(parse_trace_mrc_options(&sargs("x.trace --sample 0")).is_err());
        assert!(parse_trace_mrc_options(&sargs("x.trace --shards 0")).is_err());
        assert!(parse_trace_mrc_options(&sargs("x.trace --points 0")).is_err());
        assert!(parse_trace_mrc_options(&sargs("x.trace --frobnicate 1")).is_err());
        // --exact --sample together select the fused single-pass mode.
        let fused = parse_trace_mrc_options(&sargs("x.trace --exact --sample 9")).unwrap();
        assert!(fused.fused);
        assert_eq!(fused.sample, Some(9));
        assert!(
            !parse_trace_mrc_options(&sargs("x.trace --sample 9"))
                .unwrap()
                .fused
        );
        assert!(
            !parse_trace_mrc_options(&sargs("x.trace --exact"))
                .unwrap()
                .fused
        );
        // The fused budget floor matches the sampled path's.
        assert!(parse_trace_mrc_options(&sargs("x.trace --exact --sample 3 --shards 4")).is_err());
        // Sampled runs checkpoint now (hash shards), and --shards doubles
        // as the hash-shard count on the sampled path.
        assert!(parse_trace_mrc_options(&sargs("x.trace --sample 9 --checkpoint c.json")).is_ok());
        let sharded = parse_trace_mrc_options(&sargs("x.trace --sample 64 --shards 4")).unwrap();
        assert_eq!(sharded.sample_shards, 4);
        assert_eq!(
            parse_trace_mrc_options(&sargs("x.trace --sample 64"))
                .unwrap()
                .sample_shards,
            1
        );
        // A budget below one address per shard is rejected.
        assert!(parse_trace_mrc_options(&sargs("x.trace --sample 3 --shards 4")).is_err());
        assert!(parse_trace_mrc_options(&sargs("x.trace --max-chunks 2")).is_err());
        assert!(parse_trace_mrc_options(&sargs("x.trace --exact")).is_ok());
        assert!(
            parse_trace_mrc_options(&sargs("x.trace --json"))
                .unwrap()
                .json
        );
    }

    #[test]
    fn trace_mrc_exact_sampled_and_sharded_agree() {
        // Exact streaming, exact sharded and full-budget sampling must all
        // report the same curve for the same generated trace.
        let exact = trace_mrc(&sargs("gen:sawtooth:50:8 --threads 1 --points 6")).unwrap();
        assert!(exact.contains("accesses            : 400"));
        assert!(exact.contains("exact streaming"));
        assert!(exact.contains("footprint           : 50"));
        let sharded = trace_mrc(&sargs(
            "gen:sawtooth:50:8 --threads 3 --shards 5 --points 6",
        ))
        .unwrap();
        assert!(sharded.contains("exact sharded (5 chunks, 3 threads)"));
        let tail = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("footprint"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&exact), tail(&sharded));
        // A sampling budget beyond the footprint reproduces the exact curve.
        let sampled = trace_mrc(&sargs("gen:sawtooth:50:8 --sample 100 --points 6")).unwrap();
        assert!(sampled.contains("rate 1.0000"));
        assert!(sampled.contains("~50 (estimated)"));
        for line in tail(&exact).lines().skip(1) {
            assert!(
                sampled.contains(line.trim_start_matches(' ')),
                "missing {line:?}"
            );
        }
    }

    #[test]
    fn trace_mrc_json_output_parses() {
        let report = trace_mrc(&sargs("gen:sawtooth:50:8 --threads 1 --points 6 --json")).unwrap();
        let doc = jsonio::parse(&report).unwrap();
        assert_eq!(
            doc.get("source").and_then(JsonValue::as_str),
            Some("gen:sawtooth:50:8")
        );
        assert_eq!(doc.get("complete"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.get("accesses").and_then(JsonValue::as_u64), Some(400));
        assert_eq!(doc.get("footprint").and_then(JsonValue::as_u64), Some(50));
        let mrc = doc.get("mrc").and_then(JsonValue::as_array).unwrap();
        assert!(!mrc.is_empty());
        for point in mrc {
            let pair = point.as_array().unwrap();
            assert!(pair[0].as_u64().is_some());
            assert!((0.0..=1.0).contains(&pair[1].as_f64().unwrap()));
        }
        // The sampled engine reports an estimated footprint.
        let sampled =
            trace_mrc(&sargs("gen:sawtooth:50:8 --sample 100 --points 6 --json")).unwrap();
        let doc = jsonio::parse(&sampled).unwrap();
        assert_eq!(doc.get("footprint_estimated"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn trace_mrc_checkpoint_flow_resumes_and_completes() {
        let path = std::env::temp_dir().join("symloc_cli_trace_checkpoint.json");
        let path_str = path.to_string_lossy().to_string();
        std::fs::remove_file(&path).ok();

        let spec = format!("gen:zipf:60:2000:0.8:3 --shards 6 --threads 2 --checkpoint {path_str}");
        let first = trace_mrc(&sargs(&format!("{spec} --max-chunks 2"))).unwrap();
        assert!(first.contains("2 of 6 complete"));
        assert!(first.contains("ingest incomplete"));

        // A --json probe of the incomplete state reports progress.
        let probe = trace_mrc(&sargs(&format!("{spec} --max-chunks 0 --json"))).unwrap();
        let doc = jsonio::parse(&probe).unwrap();
        assert_eq!(doc.get("complete"), Some(&JsonValue::Bool(false)));
        assert_eq!(doc.get("completed").and_then(JsonValue::as_u64), Some(2));

        let second = trace_mrc(&sargs(&spec)).unwrap();
        assert!(second.contains("resumed from"));
        assert!(second.contains("6 of 6 complete"));
        assert!(second.contains("accesses            : 2000"));

        // A mismatched chunk plan does not silently discard the checkpoint:
        // the report warns before overwriting.
        let mismatched = trace_mrc(&sargs(&format!(
            "gen:zipf:60:2000:0.8:3 --shards 9 --threads 2 --checkpoint {path_str}"
        )))
        .unwrap();
        assert!(mismatched.contains("does not match this source/plan"));
        assert!(mismatched.contains("9 of 9 complete"));

        // The checkpointed result equals the direct streaming analysis.
        let direct = trace_mrc(&sargs("gen:zipf:60:2000:0.8:3 --threads 1")).unwrap();
        let tail = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("footprint"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&second), tail(&direct));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_mrc_hash_sharded_sampling_and_checkpoint_flow() {
        let path = std::env::temp_dir().join("symloc_cli_sampled_trace_checkpoint.json");
        let path_str = path.to_string_lossy().to_string();
        std::fs::remove_file(&path).ok();

        // Hash-sharded sampled run without a checkpoint.
        let direct = trace_mrc(&sargs(
            "gen:zipf:200:4000:0.8:5 --sample 64 --shards 4 --points 6",
        ))
        .unwrap();
        assert!(
            direct.contains("sampled hash-sharded (4 shards x 16 budget"),
            "{direct}"
        );
        assert!(direct.contains("accesses            : 4000"));

        // The same plan, checkpointed and interrupted mid-run.
        let spec = format!(
            "gen:zipf:200:4000:0.8:5 --sample 64 --shards 4 --points 6 --checkpoint {path_str}"
        );
        let first = trace_mrc(&sargs(&format!("{spec} --max-chunks 2"))).unwrap();
        assert!(first.contains("2 of 4 complete"), "{first}");
        assert!(first.contains("sampled ingest incomplete"));

        let second = trace_mrc(&sargs(&spec)).unwrap();
        assert!(second.contains("resumed from"));
        assert!(second.contains("4 of 4 complete"));

        // Checkpointed and direct runs agree from the engine line down.
        let tail = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("accesses"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&second), tail(&direct));

        // One hash shard falls back to the classic sequential estimator
        // output.
        let single = trace_mrc(&sargs("gen:zipf:200:4000:0.8:5 --sample 64 --points 6")).unwrap();
        assert!(single.contains("engine              : sampled (s_max 64"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_mrc_fused_agrees_with_separate_exact_and_sampled_runs() {
        // One fused pass must reproduce the exact table of the sharded
        // exact run *and* the sampled table of the hash-sharded sampled
        // run, for the same plans.
        let fused = trace_mrc(&sargs(
            "gen:zipf:200:4000:0.8:5 --exact --sample 64 --shards 4 --threads 2 --points 6",
        ))
        .unwrap();
        assert!(
            fused.contains(
                "engine              : fused single-pass (4 chunks -> exact + 4 hash \
                 shards x 16 budget"
            ),
            "{fused}"
        );
        assert!(fused.contains("accesses            : 4000"));
        assert!(fused.contains("streamed            : 4000 (each access decoded once)"));
        let exact = trace_mrc(&sargs(
            "gen:zipf:200:4000:0.8:5 --shards 4 --threads 2 --points 6",
        ))
        .unwrap();
        let sampled = trace_mrc(&sargs(
            "gen:zipf:200:4000:0.8:5 --sample 64 --shards 4 --points 6",
        ))
        .unwrap();
        let table_after = |s: &str, marker: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with(marker))
                .skip(1)
                .take_while(|l| l.starts_with("  "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            table_after(&fused, "exact footprint"),
            table_after(&exact, "footprint"),
            "fused exact curve must match the two-pass exact curve"
        );
        assert_eq!(
            table_after(&fused, "sampled footprint"),
            table_after(&sampled, "footprint"),
            "fused sampled curve must match the two-pass sampled curve"
        );
    }

    #[test]
    fn trace_mrc_fused_json_reports_both_curves() {
        let report = trace_mrc(&sargs(
            "gen:zipf:200:4000:0.8:5 --exact --sample 64 --shards 4 --points 6 --json",
        ))
        .unwrap();
        let doc = jsonio::parse(&report).unwrap();
        assert_eq!(
            doc.get("engine").and_then(JsonValue::as_str),
            Some("fused_exact_sampled")
        );
        assert_eq!(doc.get("complete"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.get("accesses").and_then(JsonValue::as_u64), Some(4000));
        // One pass: every access decoded exactly once.
        assert_eq!(doc.get("streamed").and_then(JsonValue::as_u64), Some(4000));
        let exact = doc.get("exact").unwrap();
        assert!(exact.get("footprint").and_then(JsonValue::as_u64).is_some());
        let sampled = doc.get("sampled").unwrap();
        assert_eq!(
            sampled.get("footprint_estimated"),
            Some(&JsonValue::Bool(true))
        );
        assert!(sampled
            .get("min_rate")
            .and_then(JsonValue::as_f64)
            .is_some());
        for engine in [exact, sampled] {
            let mrc = engine.get("mrc").and_then(JsonValue::as_array).unwrap();
            assert!(!mrc.is_empty());
            for point in mrc {
                let pair = point.as_array().unwrap();
                assert!(pair[0].as_u64().is_some());
                assert!((0.0..=1.0).contains(&pair[1].as_f64().unwrap()));
            }
        }
    }

    #[test]
    fn trace_mrc_fused_checkpoint_flow_resumes_and_completes() {
        let path = std::env::temp_dir().join(format!(
            "symloc_cli_fused_trace_checkpoint_{}.json",
            std::process::id()
        ));
        let path_str = path.to_string_lossy().to_string();
        std::fs::remove_file(&path).ok();

        let spec = format!(
            "gen:zipf:200:4000:0.8:5 --exact --sample 64 --shards 4 --points 6 \
             --checkpoint {path_str}"
        );
        let first = trace_mrc(&sargs(&format!("{spec} --max-chunks 2"))).unwrap();
        assert!(first.contains("2 of 4 complete"), "{first}");
        assert!(first.contains("fused ingest incomplete"));

        // A --json probe of the incomplete state reports progress.
        let probe = trace_mrc(&sargs(&format!("{spec} --max-chunks 0 --json"))).unwrap();
        let doc = jsonio::parse(&probe).unwrap();
        assert_eq!(doc.get("complete"), Some(&JsonValue::Bool(false)));
        assert_eq!(doc.get("completed").and_then(JsonValue::as_u64), Some(2));

        let second = trace_mrc(&sargs(&spec)).unwrap();
        assert!(second.contains("resumed from"));
        assert!(second.contains("4 of 4 complete"));

        // Checkpointed and direct fused runs agree from the accesses line.
        let direct = trace_mrc(&sargs(
            "gen:zipf:200:4000:0.8:5 --exact --sample 64 --shards 4 --points 6",
        ))
        .unwrap();
        let tail = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("accesses"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&second), tail(&direct));

        // A mismatched plan warns before overwriting.
        let mismatched = trace_mrc(&sargs(&format!(
            "gen:zipf:200:4000:0.8:5 --exact --sample 64 --shards 6 --points 6 \
             --checkpoint {path_str}"
        )))
        .unwrap();
        assert!(mismatched.contains("does not match this source/plan"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_convert_round_trips_both_formats() {
        let dir = std::env::temp_dir();
        let sltr = dir.join("symloc_cli_convert_test.sltr");
        let text = dir.join("symloc_cli_convert_test.trace");
        let sidecar = sltr_index_path(&sltr);
        let text_sidecar = sltr_index_path(&text);
        let report = trace_convert(&sargs(&format!(
            "gen:sawtooth:9:4 {}",
            sltr.to_string_lossy()
        )))
        .unwrap();
        assert!(report.contains("36 accesses, sltr format, chunk index every 4096"));
        assert!(sidecar.exists(), "convert must write the sidecar index");
        let report = trace_convert(&sargs(&format!(
            "{} {}",
            sltr.to_string_lossy(),
            text.to_string_lossy()
        )))
        .unwrap();
        assert!(report.contains("36 accesses, text format, line index every 4096"));
        assert!(
            text_sidecar.exists(),
            "text output gets a line index sidecar too"
        );
        assert_eq!(
            read_trace(&text).unwrap(),
            symloc_trace::generators::sawtooth_trace(9, 4)
        );
        // A custom interval lands in the report; --index 0 removes the
        // sidecar again, for either format.
        let report = trace_convert(&sargs(&format!(
            "gen:sawtooth:9:4 {} --index 16",
            sltr.to_string_lossy()
        )))
        .unwrap();
        assert!(report.contains("chunk index every 16"));
        let report = trace_convert(&sargs(&format!(
            "gen:sawtooth:9:4 {} --index 0",
            sltr.to_string_lossy()
        )))
        .unwrap();
        assert!(!report.contains("chunk index"));
        assert!(!sidecar.exists(), "--index 0 must clear a stale sidecar");
        let report = trace_convert(&sargs(&format!(
            "gen:sawtooth:9:4 {} --index 0",
            text.to_string_lossy()
        )))
        .unwrap();
        assert!(!report.contains("line index"));
        assert!(!text_sidecar.exists(), "--index 0 clears text sidecars too");
        assert!(trace_convert(&sargs("gen:cyclic:4:2")).is_err());
        assert!(trace_convert(&sargs("")).is_err());
        assert!(trace_convert(&sargs("gen:cyclic:4:2 out.sltr extra")).is_err());
        assert!(trace_convert(&sargs("/no/such/file.trace out.sltr")).is_err());
        std::fs::remove_file(&sltr).ok();
        std::fs::remove_file(&text).ok();
        std::fs::remove_file(&sidecar).ok();
        std::fs::remove_file(&text_sidecar).ok();
    }

    #[test]
    fn converted_text_index_makes_ranges_seek_identically() {
        // The line index written by `trace convert` must validate and give
        // the same ranges as parse-skipping.
        let dir = std::env::temp_dir();
        let text = dir.join(format!(
            "symloc_cli_convert_textidx_{}.trace",
            std::process::id()
        ));
        let sidecar = sltr_index_path(&text);
        trace_convert(&sargs(&format!(
            "gen:zipf:100:3000:0.8:7 {} --index 64",
            text.to_string_lossy()
        )))
        .unwrap();
        assert!(sidecar.exists());
        let source = TraceSource::Text(text.clone());
        assert_eq!(source.total_accesses().unwrap(), 3000);
        let with_index = read_range(&source, 640, 700);
        std::fs::remove_file(&sidecar).unwrap();
        let without = read_range(&source, 640, 700);
        assert_eq!(with_index.len(), 60);
        assert_eq!(with_index, without);
        std::fs::remove_file(&text).ok();
    }

    #[test]
    fn trace_index_builds_sidecars_for_existing_files() {
        let dir = std::env::temp_dir();
        let sltr = dir.join(format!("symloc_cli_index_{}.sltr", std::process::id()));
        let text = dir.join(format!("symloc_cli_index_{}.trace", std::process::id()));
        // Write both formats *without* indexes.
        trace_convert(&sargs(&format!(
            "gen:sawtooth:30:10 {} --index 0",
            sltr.to_string_lossy()
        )))
        .unwrap();
        trace_convert(&sargs(&format!(
            "gen:sawtooth:30:10 {} --index 0",
            text.to_string_lossy()
        )))
        .unwrap();
        let report =
            trace_index(&sargs(&format!("{} --interval 32", sltr.to_string_lossy()))).unwrap();
        assert!(
            report.contains("300 accesses, chunk index every 32"),
            "{report}"
        );
        assert!(sltr_index_path(&sltr).exists());
        let report =
            trace_index(&sargs(&format!("{} --interval 32", text.to_string_lossy()))).unwrap();
        assert!(
            report.contains("300 accesses, line index every 32"),
            "{report}"
        );
        assert!(sltr_index_path(&text).exists());
        // Both sources validate and stream through their new sidecars.
        for source in [
            TraceSource::Binary(sltr.clone()),
            TraceSource::Text(text.clone()),
        ] {
            assert_eq!(source.total_accesses().unwrap(), 300);
            assert_eq!(read_range(&source, 64, 66).len(), 2);
        }
        // Rejections: generator specs, zero intervals, missing files.
        assert!(trace_index(&sargs("gen:cyclic:4:2")).is_err());
        assert!(trace_index(&sargs(&format!("{} --interval 0", text.to_string_lossy()))).is_err());
        assert!(trace_index(&sargs("/no/such/file.trace")).is_err());
        std::fs::remove_file(sltr_index_path(&sltr)).ok();
        std::fs::remove_file(sltr_index_path(&text)).ok();
        std::fs::remove_file(&sltr).ok();
        std::fs::remove_file(&text).ok();
    }

    #[test]
    fn trace_dispatch_and_errors() {
        use crate::cli::run;
        assert!(trace(&sargs("")).is_err());
        assert!(trace(&sargs("bogus")).is_err());
        assert!(run(&sargs("trace mrc gen:cyclic:10:3 --points 4"))
            .unwrap()
            .contains("trace mrc — gen:cyclic:10:3"));
        assert!(trace_mrc(&sargs("/no/such/file.trace")).is_err());
        assert!(trace_mrc(&sargs("/no/such/file.trace --sample 8")).is_err());
    }

    #[test]
    fn trace_commands_report_malformed_content_as_errors() {
        // Every trace path — exact streaming, sampled, convert, index —
        // must turn malformed file content into a CliError, not a panic
        // (regression: only the sharded path used to validate before
        // streaming).
        let path = std::env::temp_dir().join("symloc_cli_malformed_test.trace");
        let path_str = path.to_string_lossy().to_string();
        std::fs::write(&path, "0\n1\nnot-a-number\n2\n").unwrap();
        let exact = trace_mrc(&sargs(&format!("{path_str} --threads 1"))).unwrap_err();
        assert!(exact.to_string().contains("line 3"), "{exact}");
        assert!(trace_mrc(&sargs(&format!("{path_str} --sample 8"))).is_err());
        assert!(trace_mrc(&sargs(&format!("{path_str} --threads 2"))).is_err());
        assert!(trace_index(&sargs(&path_str)).is_err());
        let out = std::env::temp_dir().join("symloc_cli_malformed_test.sltr");
        assert!(trace_convert(&sargs(&format!("{path_str} {}", out.to_string_lossy()))).is_err());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&out).ok();
    }
}
