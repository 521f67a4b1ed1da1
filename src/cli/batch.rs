//! The one run-and-report path of the resumable batch jobs. `sweep
//! --checkpoint`, the chunked and hash-sharded `trace mrc` runs and `job
//! resume` all hand a [`BatchJob`] to [`run_and_report`], so a resumed job
//! prints the finished section its originating command prints.

use super::flags::{embed_json, write_metrics};
use super::sweep::{levels_fields, sampling_line, sweep_head, sweep_report};
use super::tracecmd::{mrc_array, mrc_table, trace_head};
use super::CliError;
use std::fmt::Write as _;
use std::path::Path;

use symloc_core::engine::{SweepLevel, SweepSpec};
use symloc_core::job::{JobKind, JobRunner, RunOptions};
use symloc_core::obs::{MetricsRegistry, Span};
use symloc_core::shard::{SampledSweep, ShardedSweep};
use symloc_core::tracesweep::{
    log_spaced_sizes, MrcPoint, SampledIngest, StreamHistogram, TraceIngest, WeightedHistogram,
};
use symloc_trace::stream::TraceSource;

/// One of the four resumable batch jobs, with the trace source a trace
/// job streams.
pub(crate) enum BatchJob {
    /// An exhaustive rank-sharded sweep.
    Sweep(ShardedSweep),
    /// A sampled level-sharded sweep.
    SampledSweep(SampledSweep),
    /// A chunked trace ingest: exact, or fused exact+sampled.
    Trace(Box<TraceIngest>, TraceSource),
    /// A sampled hash-sharded trace ingest.
    SampledTrace(SampledIngest, TraceSource),
}

/// Who runs the job, which decides the lines around the job's own report.
pub(crate) enum Caller {
    /// `sweep` or `trace mrc`, which planned the job; `resumed` when its
    /// checkpoint carried progress over.
    Command { resumed: bool },
    /// `job resume`, which decoded the job from its checkpoint; `head`
    /// renders its JSON header keys given the units run.
    Resume {
        head: fn(&BatchJob, usize) -> String,
    },
}

/// How to run a batch job and render its report.
pub(crate) struct RunSpec<'a> {
    /// Worker threads, as reported on the trace engine lines.
    pub threads: usize,
    /// MRC evaluation points, log-spaced over the footprint.
    pub points: usize,
    /// Run at most this many units (`None` = run to the end).
    pub limit: Option<usize>,
    /// Save the checkpoint here after every batch.
    pub checkpoint: Option<&'a str>,
    /// Render the JSON document instead of the text report.
    pub json: bool,
    /// Write the metrics-registry snapshot here.
    pub metrics: Option<&'a str>,
}

impl BatchJob {
    /// The kind tag its checkpoints carry.
    pub(crate) fn kind(&self) -> JobKind {
        match self {
            BatchJob::Sweep(_) => JobKind::ShardedSweep,
            BatchJob::SampledSweep(_) => JobKind::SampledSweep,
            BatchJob::Trace(ingest, _) if ingest.sampled_plan().is_some() => JobKind::FusedIngest,
            BatchJob::Trace(..) => JobKind::TraceIngest,
            BatchJob::SampledTrace(..) => JobKind::SampledIngest,
        }
    }

    /// The plan identity its checkpoints record.
    pub(crate) fn fingerprint(&self) -> String {
        match self {
            BatchJob::Sweep(sweep) => sweep.spec().fingerprint(),
            BatchJob::SampledSweep(sweep) => sweep.spec().fingerprint(),
            BatchJob::Trace(ingest, _) => ingest.fingerprint().to_string(),
            BatchJob::SampledTrace(ingest, _) => ingest.fingerprint().to_string(),
        }
    }

    /// `(completed, total)` units.
    pub(crate) fn progress(&self) -> (usize, usize) {
        match self {
            BatchJob::Sweep(sweep) => (sweep.completed_count(), sweep.shard_count()),
            BatchJob::SampledSweep(sweep) => (sweep.completed_count(), sweep.level_count()),
            BatchJob::Trace(ingest, _) => (ingest.completed_count(), ingest.chunk_count()),
            BatchJob::SampledTrace(ingest, _) => (ingest.completed_count(), ingest.shard_count()),
        }
    }

    fn run(&mut self, options: RunOptions<'_>) -> std::io::Result<usize> {
        match self {
            BatchJob::Sweep(sweep) => JobRunner::run(sweep, options),
            BatchJob::SampledSweep(sweep) => JobRunner::run(sweep, options),
            BatchJob::Trace(ingest, source) => ingest.run(source, options),
            BatchJob::SampledTrace(ingest, source) => ingest.run(source, options),
        }
    }

    /// What the incomplete-run line calls the job.
    fn noun(&self) -> &'static str {
        match self.kind() {
            JobKind::FusedIngest => "fused ingest",
            JobKind::TraceIngest => "ingest",
            JobKind::SampledIngest => "sampled ingest",
            _ => "sweep",
        }
    }

    /// The warning that a checkpoint on disk did not match this plan, so
    /// a mistyped flag or path never silently discards progress.
    fn stale_warning(&self, checkpoint: &str) -> String {
        let (source, plan) = match self {
            BatchJob::Sweep(sweep) => {
                return format!(
                    "warning: existing checkpoint {checkpoint} did not match this sweep \
                     ({}, {} shards); started fresh and overwrote it\n",
                    sweep.spec().fingerprint(),
                    sweep.shard_count()
                )
            }
            BatchJob::SampledSweep(sweep) => {
                return format!(
                    "warning: existing checkpoint {checkpoint} did not match this sweep \
                     ({}, budget {}, seed {}); started fresh and overwrote it\n",
                    sweep.spec().fingerprint(),
                    sweep.budget(),
                    sweep.seed()
                )
            }
            BatchJob::Trace(ingest, source) => {
                let mut plan = format!(
                    "{} accesses, {} chunks",
                    ingest.total_accesses(),
                    ingest.chunk_count()
                );
                if let Some(sampled) = ingest.sampled_plan() {
                    let _ = write!(plan, ", {} hash shards", sampled.shard_count);
                }
                (source, plan)
            }
            BatchJob::SampledTrace(ingest, source) => (
                source,
                format!(
                    "{} accesses, {} hash shards",
                    ingest.total_accesses(),
                    ingest.shard_count()
                ),
            ),
        };
        format!(
            "warning: existing checkpoint {checkpoint} does not match this \
             source/plan (source {source}, {plan}); starting fresh and overwriting it\n"
        )
    }

    /// The originating command's JSON header keys.
    fn command_head(&self, complete: bool) -> String {
        match self {
            BatchJob::Sweep(sweep) => sweep_head(sweep.spec(), false, complete),
            BatchJob::SampledSweep(sweep) => sweep_head(sweep.spec(), true, complete),
            BatchJob::Trace(ingest, source) => {
                let engine = if ingest.sampled_plan().is_some() {
                    "fused_exact_sampled"
                } else {
                    "exact_sharded"
                };
                trace_head(source, complete.then_some(engine))
            }
            BatchJob::SampledTrace(_, source) => {
                trace_head(source, complete.then_some("sampled_hash_sharded"))
            }
        }
    }

    /// The finished result, or `None` while units are pending.
    fn finished(&self, threads: usize, points: usize) -> Option<Finished> {
        Some(match self {
            BatchJob::Sweep(sweep) => Finished::Levels {
                spec: sweep.spec(),
                levels: sweep.merged_levels()?,
                sampling: None,
            },
            BatchJob::SampledSweep(sweep) => Finished::Levels {
                spec: sweep.spec(),
                levels: sweep.merged_levels()?,
                sampling: Some(sampling_line(sweep.spec(), sweep.budget(), sweep.seed())),
            },
            BatchJob::Trace(ingest, _) => {
                let histogram = ingest.histogram()?;
                let exact = Curve::exact(histogram, points);
                match (ingest.sampled_plan(), ingest.sampled_summary()) {
                    (Some(plan), Some(summary)) => Finished::Fused {
                        accesses: histogram.accesses(),
                        engine: format!(
                            "fused single-pass ({} chunks -> exact + {} hash shards x {} \
                             budget, min rate {:.4}, {threads} threads)",
                            ingest.chunk_count(),
                            plan.shard_count,
                            plan.budget_per_shard,
                            summary.min_rate
                        ),
                        streamed: ingest.streamed_accesses(),
                        exact,
                        sampled: Curve::estimated(
                            summary.estimated_footprint(),
                            &summary.histogram,
                            points,
                        ),
                        min_rate: summary.min_rate,
                    },
                    _ => Finished::Mrc {
                        accesses: histogram.accesses(),
                        engine: format!(
                            "exact sharded ({} chunks, {threads} threads)",
                            ingest.chunk_count()
                        ),
                        curve: exact,
                    },
                }
            }
            BatchJob::SampledTrace(ingest, _) => {
                let summary = ingest.merged()?;
                Finished::Mrc {
                    accesses: summary.raw_accesses,
                    engine: format!(
                        "sampled hash-sharded ({} shards x {} budget, min rate {:.4}, {} \
                         sampled, {} evictions, {threads} threads)",
                        ingest.shard_count(),
                        ingest.budget_per_shard(),
                        summary.min_rate,
                        summary.sampled_accesses,
                        summary.evictions
                    ),
                    curve: Curve::estimated(
                        summary.estimated_footprint(),
                        &summary.histogram,
                        points,
                    ),
                }
            }
        })
    }
}

/// Runs `job` and renders its report after the `out` lines: the resume
/// banner or stale-checkpoint warning, `JobRunner::run` (bounded by
/// `spec.limit`, checkpointed to `spec.checkpoint`, metered), the `ran`
/// line, then the finished result or the incomplete note — or, with
/// `spec.json`, one JSON document in place of all of it.
///
/// # Errors
///
/// Returns a [`CliError`] when the checkpoint or metrics file cannot be
/// written.
pub(crate) fn run_and_report(
    mut job: BatchJob,
    caller: Caller,
    spec: &RunSpec<'_>,
    mut out: String,
) -> Result<String, CliError> {
    if let (Caller::Command { resumed }, Some(checkpoint)) = (&caller, spec.checkpoint) {
        if *resumed {
            let (done, total) = job.progress();
            let _ = writeln!(
                out,
                "resumed from {checkpoint}: {done} of {total} {}s were already done",
                job.kind().unit_name()
            );
        } else if Path::new(checkpoint).exists() {
            out.push_str(&job.stale_warning(checkpoint));
        }
    }
    let mut registry = MetricsRegistry::new();
    let span = Span::start();
    let ran = job
        .run(RunOptions {
            limit: spec.limit,
            checkpoint: spec.checkpoint.map(Path::new),
            metrics: Some(&mut registry),
            on_batch: None,
        })
        .map_err(|e| {
            let checkpoint = spec.checkpoint.unwrap_or_default();
            CliError(format!("cannot write checkpoint {checkpoint}: {e}"))
        })?;
    if matches!(job, BatchJob::Trace(..) | BatchJob::SampledTrace(..)) {
        span.record(&mut registry, "trace.total_nanos");
    }
    write_metrics(spec.metrics, &registry)?;
    let (done, total) = job.progress();
    if let Some(checkpoint) = spec.checkpoint {
        let _ = writeln!(
            out,
            "ran {ran} {}(s); {done} of {total} complete; checkpoint saved to {checkpoint}",
            job.kind().unit_name()
        );
    }
    let finished = job.finished(spec.threads, spec.points);
    if spec.json {
        let mut fields = match caller {
            Caller::Command { .. } => job.command_head(finished.is_some()),
            Caller::Resume { head } => head(&job, ran),
        };
        match &finished {
            Some(finished) => fields.push_str(&finished.fields()),
            None if matches!(caller, Caller::Command { .. }) => {
                let _ = write!(fields, "  \"completed\": {done},\n  \"total\": {total},\n");
            }
            None => {}
        }
        return Ok(json_report(&fields, &registry));
    }
    match finished {
        Some(finished) => out.push_str(&finished.text()),
        None => {
            let rerun = match caller {
                Caller::Command { .. } => "re-run the same command to continue from the checkpoint",
                Caller::Resume { .. } => "re-run to continue",
            };
            let _ = writeln!(out, "{} incomplete — {rerun}", job.noun());
        }
    }
    Ok(out)
}

/// A JSON report: the `fields` lines (each ending `,\n`), then the run's
/// metrics-registry snapshot.
pub(crate) fn json_report(fields: &str, metrics: &MetricsRegistry) -> String {
    format!(
        "{{\n{fields}  \"metrics\": {}\n}}\n",
        embed_json(&metrics.to_json())
    )
}

/// One `label : value` line of a trace report.
fn line(label: &str, value: impl std::fmt::Display) -> String {
    format!("{label:<20}: {value}\n")
}

/// A finished miss-ratio curve and the footprint it spans.
pub(crate) struct Curve {
    footprint: usize,
    estimated: bool,
    points: Vec<MrcPoint>,
}

impl Curve {
    /// The exact curve of `histogram` at `points` log-spaced sizes.
    pub(crate) fn exact(histogram: &StreamHistogram, points: usize) -> Curve {
        let footprint = usize::try_from(histogram.cold_count()).unwrap_or(usize::MAX);
        Curve {
            footprint,
            estimated: false,
            points: histogram.mrc_points(&log_spaced_sizes(footprint, points)),
        }
    }

    /// A sampled curve over its estimated `footprint`.
    pub(crate) fn estimated(footprint: f64, histogram: &WeightedHistogram, points: usize) -> Curve {
        let footprint = footprint.round().max(1.0) as usize;
        Curve {
            footprint,
            estimated: true,
            points: histogram.mrc_points(&log_spaced_sizes(footprint, points)),
        }
    }

    /// The footprint line under `label`, then the MRC table.
    fn text(&self, label: &str) -> String {
        let mut out = if self.estimated {
            line(label, format!("~{} (estimated)", self.footprint))
        } else {
            line(label, self.footprint)
        };
        out.push_str(&mrc_table(&self.points));
        out
    }
}

/// A finished result: each shape has one text and one JSON-fields renderer.
pub(crate) enum Finished {
    /// A sweep's level table; `sampling` is the sampled sweep's plan line.
    Levels {
        spec: SweepSpec,
        levels: Vec<SweepLevel>,
        sampling: Option<String>,
    },
    /// One trace curve, exact or sampled, with its engine line.
    Mrc {
        accesses: u64,
        engine: String,
        curve: Curve,
    },
    /// The exact and sampled curves of one fused pass.
    Fused {
        accesses: u64,
        engine: String,
        streamed: u64,
        exact: Curve,
        sampled: Curve,
        min_rate: f64,
    },
}

impl Finished {
    /// The text report.
    pub(crate) fn text(&self) -> String {
        match self {
            Finished::Levels {
                spec,
                levels,
                sampling,
            } => {
                let mut out = sweep_report(*spec, levels, sampling.is_some());
                if let Some(sampling) = sampling {
                    let _ = writeln!(out, "{sampling}");
                }
                out
            }
            Finished::Mrc {
                accesses,
                engine,
                curve,
            } => line("accesses", accesses) + &line("engine", engine) + &curve.text("footprint"),
            Finished::Fused {
                accesses,
                engine,
                streamed,
                exact,
                sampled,
                ..
            } => {
                line("accesses", accesses)
                    + &line("engine", engine)
                    + &line("streamed", format!("{streamed} (each access decoded once)"))
                    + &exact.text("exact footprint")
                    + &sampled.text("sampled footprint")
            }
        }
    }

    /// The JSON fields, each line ending `,\n`.
    pub(crate) fn fields(&self) -> String {
        match self {
            Finished::Levels { levels, .. } => levels_fields(levels),
            Finished::Mrc {
                accesses, curve, ..
            } => format!(
                "  \"accesses\": {accesses},\n  \"footprint\": {},\n  \
                 \"footprint_estimated\": {},\n  \"mrc\": {},\n",
                curve.footprint,
                curve.estimated,
                mrc_array(&curve.points)
            ),
            Finished::Fused {
                accesses,
                streamed,
                exact,
                sampled,
                min_rate,
                ..
            } => format!(
                "  \"accesses\": {accesses},\n  \"streamed\": {streamed},\n  \
                 \"exact\": {{\"footprint\": {}, \"mrc\": {}}},\n  \
                 \"sampled\": {{\"footprint\": {}, \"footprint_estimated\": true, \
                 \"min_rate\": {min_rate}, \"mrc\": {}}},\n",
                exact.footprint,
                mrc_array(&exact.points),
                sampled.footprint,
                mrc_array(&sampled.points)
            ),
        }
    }
}
