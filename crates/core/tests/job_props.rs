//! Property tests for the unified `core::job` runner: killing any of the
//! five resumable pipelines at **every unit boundary** and resuming from
//! the serialized checkpoint must reproduce the uninterrupted run's final
//! checkpoint *byte-identically*.
//!
//! This is the load-bearing invariant of the whole job abstraction — unit
//! plans are deterministic, partials are mergeable in unit order, and the
//! checkpoint codec is canonical — pinned here across random plans for
//! [`ShardedSweep`], [`SampledSweep`], [`SampledIngest`] and both
//! configurations of [`TraceIngest`]: exact-only and fused with a
//! [`SampledPlan`].

use proptest::prelude::*;
use symloc_core::engine::SweepSpec;
use symloc_core::job::{JobRunner, RunOptions};
use symloc_core::model::CacheModel;
use symloc_core::obs::MetricsRegistry;
use symloc_core::shard::{SampledSweep, ShardedSweep};
use symloc_core::tracesweep::{SampledIngest, SampledPlan, TraceIngest};
use symloc_perm::statistics::Statistic;
use symloc_trace::stream::{GenSpec, TraceSource};

/// Run options for up to `limit` units, metered when `metrics` is given.
fn options(limit: Option<usize>, metrics: Option<&mut MetricsRegistry>) -> RunOptions<'_> {
    RunOptions {
        limit,
        metrics,
        ..RunOptions::default()
    }
}

/// The fused configuration of [`TraceIngest`].
fn plan(shard_count: usize, budget_per_shard: usize) -> Option<SampledPlan> {
    Some(SampledPlan {
        shard_count,
        budget_per_shard,
    })
}

fn statistic_of(seed: u64) -> Statistic {
    Statistic::ALL[(seed % Statistic::ALL.len() as u64) as usize]
}

/// The registry of a metered run that processed `units` units must have
/// actually observed them — otherwise a "metering is result-invariant"
/// assertion would pass vacuously with metering silently disabled.
fn assert_metering_observed(registry: &MetricsRegistry, units: u64) {
    assert_eq!(registry.counter("job.units"), Some(units));
    let observed = registry.histogram("job.unit_nanos").map(|h| h.count());
    assert_eq!(observed, Some(units));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharded_sweep_kill_resume_at_every_boundary(
        m in 4usize..7,
        shards in 1usize..6,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let spec = SweepSpec {
            m,
            statistic: statistic_of(seed),
            model: CacheModel::LruStack,
        };
        let mut reference = ShardedSweep::new(spec, shards, threads);
        JobRunner::run(&mut reference, options(None, None)).unwrap();
        let reference_json = reference.to_json();

        for kill_at in 0..reference.shard_count() {
            let mut interrupted = ShardedSweep::new(spec, shards, threads);
            prop_assert_eq!(JobRunner::run(&mut interrupted, options(Some(kill_at), None)).unwrap(), kill_at);
            let checkpoint = interrupted.to_json();
            // Resume with a *different* thread count: results must not
            // depend on it.
            let mut resumed = ShardedSweep::from_json(&checkpoint, threads % 3 + 1).unwrap();
            prop_assert_eq!(resumed.completed_count(), kill_at);
            JobRunner::run(&mut resumed, options(None, None)).unwrap();
            prop_assert_eq!(
                &resumed.to_json(),
                &reference_json,
                "kill at shard {}",
                kill_at
            );
        }
    }

    #[test]
    fn sampled_sweep_kill_resume_at_every_boundary(
        m in 4usize..7,
        budget in 20usize..120,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let spec = SweepSpec {
            m,
            statistic: statistic_of(seed),
            model: CacheModel::LruStack,
        };
        let mut reference = SampledSweep::new(spec, budget, 2, seed, threads);
        JobRunner::run(&mut reference, options(None, None)).unwrap();
        let reference_json = reference.to_json();

        for kill_at in 0..reference.level_count() {
            let mut interrupted = SampledSweep::new(spec, budget, 2, seed, threads);
            prop_assert_eq!(JobRunner::run(&mut interrupted, options(Some(kill_at), None)).unwrap(), kill_at);
            let checkpoint = interrupted.to_json();
            let mut resumed = SampledSweep::from_json(&checkpoint, threads % 3 + 1).unwrap();
            prop_assert_eq!(resumed.completed_count(), kill_at);
            JobRunner::run(&mut resumed, options(None, None)).unwrap();
            prop_assert_eq!(
                &resumed.to_json(),
                &reference_json,
                "kill at level {}",
                kill_at
            );
        }
    }

    #[test]
    fn trace_ingest_kill_resume_at_every_boundary(
        m in 8u64..40,
        epochs in 2u64..6,
        chunks in 1usize..7,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let spec = match seed % 3 {
            0 => format!("gen:cyclic:{m}:{epochs}"),
            1 => format!("gen:sawtooth:{m}:{epochs}"),
            _ => format!("gen:zipf:{m}:{len}:0.8:{s}", len = m * epochs, s = seed % 1000),
        };
        let source = TraceSource::Gen(GenSpec::parse(&spec).unwrap());
        let mut reference = TraceIngest::new(&source, chunks, None, threads).unwrap();
        reference.run_pending(&source, None);
        let reference_json = reference.to_json();

        for kill_at in 0..reference.chunk_count() {
            let mut interrupted = TraceIngest::new(&source, chunks, None, threads).unwrap();
            prop_assert_eq!(interrupted.run_pending(&source, Some(kill_at)), kill_at);
            let checkpoint = interrupted.to_json();
            let mut resumed = TraceIngest::from_json(&checkpoint, threads % 3 + 1).unwrap();
            prop_assert_eq!(resumed.completed_count(), kill_at);
            resumed.run_pending(&source, None);
            prop_assert_eq!(
                &resumed.to_json(),
                &reference_json,
                "{} kill at chunk {}",
                &spec,
                kill_at
            );
        }
    }

    #[test]
    fn sampled_ingest_kill_resume_at_every_boundary(
        m in 50u64..300,
        shard_count in 1usize..6,
        budget in 8usize..64,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let spec = format!("gen:zipf:{m}:{len}:0.9:{s}", len = m * 10, s = seed % 1000);
        let source = TraceSource::Gen(GenSpec::parse(&spec).unwrap());
        let mut reference = SampledIngest::new(&source, shard_count, budget, threads).unwrap();
        reference.run_pending(&source, None);
        let reference_json = reference.to_json();

        for kill_at in 0..reference.shard_count() {
            let mut interrupted =
                SampledIngest::new(&source, shard_count, budget, threads).unwrap();
            prop_assert_eq!(interrupted.run_pending(&source, Some(kill_at)), kill_at);
            let checkpoint = interrupted.to_json();
            let mut resumed = SampledIngest::from_json(&checkpoint, threads % 3 + 1).unwrap();
            prop_assert_eq!(resumed.completed_count(), kill_at);
            resumed.run_pending(&source, None);
            prop_assert_eq!(
                &resumed.to_json(),
                &reference_json,
                "{} kill at shard {}",
                &spec,
                kill_at
            );
        }
    }

    #[test]
    fn fused_ingest_kill_resume_at_every_boundary(
        m in 30u64..120,
        chunks in 1usize..7,
        shard_count in 1usize..5,
        budget in 8usize..48,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        // The fused checkpoint carries the exact merge state *and* every
        // mid-stream estimator (threshold, counters, tracked timeline), so
        // a kill at any chunk boundary must still resume — with a
        // different thread count — to the byte-identical final document.
        let spec = format!("gen:zipf:{m}:{len}:0.8:{s}", len = m * 8, s = seed % 1000);
        let source = TraceSource::Gen(GenSpec::parse(&spec).unwrap());
        let mut reference =
            TraceIngest::new(&source, chunks, plan(shard_count, budget), threads).unwrap();
        reference.run_pending(&source, None);
        let reference_json = reference.to_json();

        for kill_at in 0..reference.chunk_count() {
            let mut interrupted =
                TraceIngest::new(&source, chunks, plan(shard_count, budget), threads).unwrap();
            prop_assert_eq!(interrupted.run_pending(&source, Some(kill_at)), kill_at);
            let checkpoint = interrupted.to_json();
            let mut resumed = TraceIngest::from_json(&checkpoint, threads % 3 + 1).unwrap();
            prop_assert_eq!(resumed.completed_count(), kill_at);
            resumed.run_pending(&source, None);
            prop_assert_eq!(
                &resumed.to_json(),
                &reference_json,
                "{} kill at chunk {}",
                &spec,
                kill_at
            );
        }
    }
}

// Metering invariance: running any of the five pipelines with a
// `MetricsRegistry` attached must not change a single checkpoint byte —
// not in the final document, not in any mid-run checkpoint, and not
// through a metered kill/resume cycle. The registry is asserted non-empty
// so the equality cannot pass with metering accidentally disabled.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn metered_sharded_sweep_is_byte_identical(
        m in 4usize..7,
        shards in 1usize..6,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let spec = SweepSpec {
            m,
            statistic: statistic_of(seed),
            model: CacheModel::LruStack,
        };
        let mut reference = ShardedSweep::new(spec, shards, threads);
        JobRunner::run(&mut reference, options(None, None)).unwrap();
        let reference_json = reference.to_json();

        let mut metered = ShardedSweep::new(spec, shards, threads);
        let mut registry = MetricsRegistry::new();
        JobRunner::run(&mut metered, options(None, Some(&mut registry))).unwrap();
        prop_assert_eq!(&metered.to_json(), &reference_json);
        assert_metering_observed(&registry, reference.shard_count() as u64);

        for kill_at in 0..reference.shard_count() {
            let mut plain = ShardedSweep::new(spec, shards, threads);
            JobRunner::run(&mut plain, options(Some(kill_at), None)).unwrap();
            let mut interrupted = ShardedSweep::new(spec, shards, threads);
            let mut registry = MetricsRegistry::new();
            JobRunner::run(&mut interrupted, options(Some(kill_at), Some(&mut registry))).unwrap();
            let checkpoint = interrupted.to_json();
            prop_assert_eq!(&checkpoint, &plain.to_json(), "kill at shard {}", kill_at);
            let mut resumed = ShardedSweep::from_json(&checkpoint, threads % 3 + 1).unwrap();
            let mut resume_registry = MetricsRegistry::new();
            JobRunner::run(&mut resumed, options(None, Some(&mut resume_registry))).unwrap();
            prop_assert_eq!(&resumed.to_json(), &reference_json, "kill at shard {}", kill_at);
            assert_metering_observed(
                &resume_registry,
                (reference.shard_count() - kill_at) as u64,
            );
        }
    }

    #[test]
    fn metered_sampled_sweep_is_byte_identical(
        m in 4usize..7,
        budget in 20usize..120,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let spec = SweepSpec {
            m,
            statistic: statistic_of(seed),
            model: CacheModel::LruStack,
        };
        let mut reference = SampledSweep::new(spec, budget, 2, seed, threads);
        JobRunner::run(&mut reference, options(None, None)).unwrap();
        let reference_json = reference.to_json();
        let levels = reference.level_count();

        let mut metered = SampledSweep::new(spec, budget, 2, seed, threads);
        let mut registry = MetricsRegistry::new();
        JobRunner::run(&mut metered, options(None, Some(&mut registry))).unwrap();
        prop_assert_eq!(&metered.to_json(), &reference_json);
        assert_metering_observed(&registry, levels as u64);

        let kill_at = levels / 2;
        let mut plain = SampledSweep::new(spec, budget, 2, seed, threads);
        JobRunner::run(&mut plain, options(Some(kill_at), None)).unwrap();
        let mut interrupted = SampledSweep::new(spec, budget, 2, seed, threads);
        let mut registry = MetricsRegistry::new();
        JobRunner::run(&mut interrupted, options(Some(kill_at), Some(&mut registry))).unwrap();
        let checkpoint = interrupted.to_json();
        prop_assert_eq!(&checkpoint, &plain.to_json());
        let mut resumed = SampledSweep::from_json(&checkpoint, threads % 3 + 1).unwrap();
        JobRunner::run(&mut resumed, options(None, Some(&mut MetricsRegistry::new()))).unwrap();
        prop_assert_eq!(&resumed.to_json(), &reference_json);
    }

    #[test]
    fn metered_trace_ingest_is_byte_identical(
        m in 8u64..40,
        epochs in 2u64..6,
        chunks in 1usize..7,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let spec = format!("gen:zipf:{m}:{len}:0.8:{s}", len = m * epochs, s = seed % 1000);
        let source = TraceSource::Gen(GenSpec::parse(&spec).unwrap());
        let mut reference = TraceIngest::new(&source, chunks, None, threads).unwrap();
        reference.run_pending(&source, None);
        let reference_json = reference.to_json();
        let total = reference.chunk_count();

        let mut metered = TraceIngest::new(&source, chunks, None, threads).unwrap();
        let mut registry = MetricsRegistry::new();
        metered.run(&source, options(None, Some(&mut registry))).unwrap();
        prop_assert_eq!(&metered.to_json(), &reference_json);
        assert_metering_observed(&registry, total as u64);

        let kill_at = total / 2;
        let mut plain = TraceIngest::new(&source, chunks, None, threads).unwrap();
        plain.run_pending(&source, Some(kill_at));
        let mut interrupted = TraceIngest::new(&source, chunks, None, threads).unwrap();
        let mut registry = MetricsRegistry::new();
        interrupted.run(&source, options(Some(kill_at), Some(&mut registry))).unwrap();
        let checkpoint = interrupted.to_json();
        prop_assert_eq!(&checkpoint, &plain.to_json());
        let mut resumed = TraceIngest::from_json(&checkpoint, threads % 3 + 1).unwrap();
        resumed.run(&source, options(None, Some(&mut MetricsRegistry::new()))).unwrap();
        prop_assert_eq!(&resumed.to_json(), &reference_json);
    }

    #[test]
    fn metered_sampled_ingest_is_byte_identical(
        m in 50u64..300,
        shard_count in 1usize..6,
        budget in 8usize..64,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let spec = format!("gen:zipf:{m}:{len}:0.9:{s}", len = m * 10, s = seed % 1000);
        let source = TraceSource::Gen(GenSpec::parse(&spec).unwrap());
        let mut reference = SampledIngest::new(&source, shard_count, budget, threads).unwrap();
        reference.run_pending(&source, None);
        let reference_json = reference.to_json();
        let total = reference.shard_count();

        let mut metered = SampledIngest::new(&source, shard_count, budget, threads).unwrap();
        let mut registry = MetricsRegistry::new();
        metered.run(&source, options(None, Some(&mut registry))).unwrap();
        prop_assert_eq!(&metered.to_json(), &reference_json);
        assert_metering_observed(&registry, total as u64);

        let kill_at = total / 2;
        let mut plain = SampledIngest::new(&source, shard_count, budget, threads).unwrap();
        plain.run_pending(&source, Some(kill_at));
        let mut interrupted = SampledIngest::new(&source, shard_count, budget, threads).unwrap();
        let mut registry = MetricsRegistry::new();
        interrupted.run(&source, options(Some(kill_at), Some(&mut registry))).unwrap();
        let checkpoint = interrupted.to_json();
        prop_assert_eq!(&checkpoint, &plain.to_json());
        let mut resumed = SampledIngest::from_json(&checkpoint, threads % 3 + 1).unwrap();
        resumed.run(&source, options(None, Some(&mut MetricsRegistry::new()))).unwrap();
        prop_assert_eq!(&resumed.to_json(), &reference_json);
    }

    #[test]
    fn metered_fused_ingest_is_byte_identical(
        m in 30u64..120,
        chunks in 1usize..7,
        shard_count in 1usize..5,
        budget in 8usize..48,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let spec = format!("gen:zipf:{m}:{len}:0.8:{s}", len = m * 8, s = seed % 1000);
        let source = TraceSource::Gen(GenSpec::parse(&spec).unwrap());
        let mut reference =
            TraceIngest::new(&source, chunks, plan(shard_count, budget), threads).unwrap();
        reference.run_pending(&source, None);
        let reference_json = reference.to_json();
        let total = reference.chunk_count();

        let mut metered =
            TraceIngest::new(&source, chunks, plan(shard_count, budget), threads).unwrap();
        let mut registry = MetricsRegistry::new();
        metered.run(&source, options(None, Some(&mut registry))).unwrap();
        prop_assert_eq!(&metered.to_json(), &reference_json);
        assert_metering_observed(&registry, total as u64);

        let kill_at = total / 2;
        let mut plain = TraceIngest::new(&source, chunks, plan(shard_count, budget), threads).unwrap();
        plain.run_pending(&source, Some(kill_at));
        let mut interrupted =
            TraceIngest::new(&source, chunks, plan(shard_count, budget), threads).unwrap();
        let mut registry = MetricsRegistry::new();
        interrupted.run(&source, options(Some(kill_at), Some(&mut registry))).unwrap();
        let checkpoint = interrupted.to_json();
        prop_assert_eq!(&checkpoint, &plain.to_json());
        let mut resumed = TraceIngest::from_json(&checkpoint, threads % 3 + 1).unwrap();
        resumed.run(&source, options(None, Some(&mut MetricsRegistry::new()))).unwrap();
        prop_assert_eq!(&resumed.to_json(), &reference_json);
    }
}
