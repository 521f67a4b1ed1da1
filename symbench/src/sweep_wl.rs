//! `sweep_fig1`: `symloc sweep 11 --threads T --json`, the paper's
//! Figure-1 computation over all 11! permutations. It runs `perm`
//! unranking, the `hits` kernels, `engine` aggregation and `par`, and no
//! trace or serve code. The input is `S_11` itself, so the seed does not
//! change it.

use std::time::Instant;

use symloc_core::engine::SweepLevel;
use symloc_core::jsonio::{self, JsonValue};
use symloc_core::model::{CacheModel, ModelScratch};
use symloc_core::sweep::exhaustive_levels_reference;
use symloc_par::split_indices;
use symloc_perm::iter::RankRangeStream;
use symloc_perm::mahonian::mahonian_row;
use symloc_perm::rank::{factorial, RankRange};
use symloc_perm::statistics::Statistic;

use crate::argv;
use crate::common::{Ctx, E2e, Metric, StageTable, Tally, Traced};
use crate::spans::{self, Tracer, NO_PARENT};

/// Start-up probes (`sweep 2`) before each timed invocation, so the
/// probes spread over the whole run; `setup_s` is their median.
const PROBES_PER_OP: usize = 5;
const MIN_REPS: usize = 3;
/// Permutations per span in the traced replay.
const BATCH: usize = 4096;

/// FNV-1a digest of `exhaustive_levels_reference(11, _)`: every level's
/// inversion number, count and hit sums, in level order.
const REFERENCE_DIGEST_M11: u64 = 0x50ad_33ec_1469_7242;

fn degree(tiny: bool) -> usize {
    if tiny {
        7
    } else {
        11
    }
}

/// One level of a sweep report.
#[derive(Debug, Clone, PartialEq)]
pub struct Level {
    pub level: usize,
    pub count: u64,
    pub hit_sums: Vec<u64>,
    pub hit_sq_sums: Vec<u64>,
}

impl From<&SweepLevel> for Level {
    fn from(l: &SweepLevel) -> Level {
        Level {
            level: l.level,
            count: l.count,
            hit_sums: l.hit_sums.clone(),
            hit_sq_sums: l.hit_sq_sums.clone(),
        }
    }
}

fn numbers(value: Option<&JsonValue>) -> Result<Vec<u64>, String> {
    value
        .and_then(JsonValue::as_array)
        .ok_or("missing array")?
        .iter()
        .map(|v| v.as_u64().ok_or_else(|| "bad number".to_string()))
        .collect()
}

/// The levels of a `sweep --json` report.
pub fn parse_levels(report: &str) -> Result<Vec<Level>, String> {
    let doc = jsonio::parse(report)?;
    if doc.get("complete") != Some(&JsonValue::Bool(true)) {
        return Err("sweep report is not complete".to_string());
    }
    doc.get("levels")
        .and_then(JsonValue::as_array)
        .ok_or("report has no levels")?
        .iter()
        .map(|l| {
            Ok(Level {
                level: l
                    .get("level")
                    .and_then(JsonValue::as_usize)
                    .ok_or("bad level")?,
                count: l
                    .get("count")
                    .and_then(JsonValue::as_u64)
                    .ok_or("bad count")?,
                hit_sums: numbers(l.get("hit_sums"))?,
                hit_sq_sums: numbers(l.get("hit_sq_sums"))?,
            })
        })
        .collect()
}

/// FNV-1a over `(level, count, hit sums)` of every level.
pub fn digest<'a>(levels: impl Iterator<Item = (usize, u64, &'a [u64])>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (level, count, sums) in levels {
        eat(level as u64);
        eat(count);
        for &s in sums {
            eat(s);
        }
    }
    hash
}

/// The digest of `exhaustive_levels_reference(m)`: stored for the full
/// degree, where recomputing it would cost more than the run; computed for
/// the small degrees of the start-up probe and the tiny mode.
pub fn reference_digest(m: usize, threads: usize) -> u64 {
    if m == 11 {
        return REFERENCE_DIGEST_M11;
    }
    let levels = exhaustive_levels_reference(m, threads);
    digest(
        levels
            .iter()
            .map(|l| (l.inversions, l.count, l.hit_sums.as_slice())),
    )
}

/// Level counts must be the Mahonian row of `m` and the hit sums must
/// match the reference digest.
pub fn check_levels(levels: &[Level], m: usize, want_digest: u64) -> Result<(), String> {
    let row = mahonian_row(m);
    let counts: Vec<u128> = levels.iter().map(|l| u128::from(l.count)).collect();
    if counts != row {
        return Err(format!(
            "level counts {counts:?} are not the Mahonian row {row:?}"
        ));
    }
    let got = digest(
        levels
            .iter()
            .map(|l| (l.level, l.count, l.hit_sums.as_slice())),
    );
    if got != want_digest {
        return Err(format!(
            "hit-sum digest {got:#018x}, expected {want_digest:#018x}"
        ));
    }
    Ok(())
}

fn sweep_args(m: usize, threads: usize) -> Vec<String> {
    argv!["sweep", m, "--threads", threads, "--json"]
}

fn checked_sweep(
    ctx: &Ctx,
    tally: &mut Tally,
    m: usize,
    want: u64,
) -> Option<(crate::proc::Finished, Vec<Level>)> {
    let run = ctx.symloc(&sweep_args(m, ctx.threads));
    if !tally.check_exit("sweep", &run) {
        return None;
    }
    let run = run.expect("checked");
    match parse_levels(&run.stdout) {
        Ok(levels) => {
            tally.check("sweep levels", check_levels(&levels, m, want));
            Some((run, levels))
        }
        Err(e) => {
            tally.check("sweep report", Err(e));
            None
        }
    }
}

/// Untraced `sweep_fig1`.
pub fn e2e(ctx: &Ctx, tally: &mut Tally) -> E2e {
    let mut e2e = E2e::default();
    let probe_digest = reference_digest(2, 1);
    let m = degree(ctx.tiny);
    let want = reference_digest(m, ctx.threads);
    let perms = factorial(m).expect("small degree") as f64;
    ctx.timed(MIN_REPS, || {
        for _ in 0..PROBES_PER_OP {
            if let Some((run, _)) = checked_sweep(ctx, tally, 2, probe_digest) {
                e2e.setup_s.push(run.wall.as_secs_f64());
            }
        }
        if let Some((run, _)) = checked_sweep(ctx, tally, m, want) {
            e2e.add_invocation(perms, &run);
        }
    });
    e2e
}

/// One worker's rank range: unrank and step permutations, evaluate their
/// hit vectors, aggregate by level, one span per batch and layer.
fn worker(
    tracer: &Tracer,
    thread: u32,
    parent: u32,
    m: usize,
    lo: usize,
    hi: usize,
) -> Vec<SweepLevel> {
    let mut local = tracer.local(thread);
    let unit = local.begin("par.worker", parent);
    let max_level = m * (m - 1) / 2;
    let mut levels: Vec<SweepLevel> = (0..=max_level).map(|l| SweepLevel::empty(l, m)).collect();
    let mut scratch = ModelScratch::new(CacheModel::LruStack, m);
    let range = RankRange {
        start: lo as u128,
        end: hi as u128,
    };
    let mut stream = local.span("perm.unrank", unit.id, || RankRangeStream::new(m, range));
    let mut images = Vec::with_capacity(BATCH * m);
    let mut hits = Vec::with_capacity(BATCH * m);
    let mut batch_levels = Vec::with_capacity(BATCH);
    loop {
        images.clear();
        let n = local.span("perm.unrank", unit.id, || {
            let mut n = 0;
            while n < BATCH {
                let Some(next) = stream.next_images() else {
                    break;
                };
                images.extend_from_slice(next);
                n += 1;
            }
            n
        });
        if n == 0 {
            break;
        }
        hits.clear();
        batch_levels.clear();
        local.span("hits.kernel", unit.id, || {
            for perm in images.chunks_exact(m) {
                let (level, h) = scratch.eval(Statistic::Inversions, perm);
                batch_levels.push(level);
                hits.extend_from_slice(h);
            }
        });
        local.span("engine.absorb", unit.id, || {
            for (level, h) in batch_levels.iter().zip(hits.chunks_exact(m)) {
                levels[*level].absorb(h);
            }
        });
    }
    local.end(unit);
    levels
}

fn replay(tracer: &Tracer, m: usize, threads: usize) -> (f64, Vec<SweepLevel>) {
    let total = factorial(m).expect("small degree") as usize;
    let start = Instant::now();
    let mut main = tracer.local(0);
    let root = main.begin("replay", NO_PARENT);
    let region = main.begin("par.region", root.id);
    let region_id = region.id;
    let partials: Vec<Vec<SweepLevel>> = std::thread::scope(|scope| {
        let workers: Vec<_> = split_indices(total, threads)
            .into_iter()
            .enumerate()
            .map(|(k, c)| {
                scope.spawn(move || worker(tracer, k as u32 + 1, region_id, m, c.start, c.end))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay worker panicked"))
            .collect()
    });
    main.end(region);
    let merged = main.span("engine.merge", root.id, || {
        let mut parts = partials.into_iter();
        let mut merged = parts.next().expect("at least one worker");
        for part in parts {
            for (a, b) in merged.iter_mut().zip(&part) {
                a.merge(b);
            }
        }
        merged
    });
    main.end(root);
    (start.elapsed().as_secs_f64(), merged)
}

/// Traced `sweep_fig1`.
pub fn traced(ctx: &Ctx, tally: &mut Tally) -> Option<Traced> {
    let m = degree(ctx.tiny);
    let (run, cli_levels) = checked_sweep(ctx, tally, m, reference_digest(m, ctx.threads))?;
    let perms = factorial(m).expect("small degree") as f64;
    let (untraced_s, _) = replay(&Tracer::new(false), m, ctx.threads);
    let tracer = Tracer::new(true);
    let (traced_s, levels) = replay(&tracer, m, ctx.threads);
    let spans = tracer.spans();
    let _ = spans::dump(&ctx.scratch.join("spans.tsv"), "sweep_fig1", &spans);
    let replayed: Vec<Level> = levels.iter().map(Level::from).collect();
    tally.check(
        "replayed levels",
        (replayed == cli_levels)
            .then_some(())
            .ok_or_else(|| "differ from the binary's report".to_string()),
    );

    let t = ctx.threads as f64;
    let ns = |name: &str| spans::self_ns(&spans, name) as f64;
    let workers: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "par.worker")
        .map(|s| s.dur_ns() as f64)
        .collect();
    let mean = workers.iter().sum::<f64>() / workers.len().max(1) as f64;
    let slowest = workers.iter().copied().fold(0.0, f64::max);
    let engine_ns = ns("engine.absorb") + ns("engine.merge");
    let layers = vec![
        Metric::new("engine.ns_per_perm", engine_ns / perms, "ns"),
        Metric::new("perm.unrank_ns_per_perm", ns("perm.unrank") / perms, "ns"),
        Metric::new("hits.ns_per_perm", ns("hits.kernel") / perms, "ns"),
        Metric::new("par.imbalance", slowest / mean, "ratio"),
    ];
    let wait = spans::total_ns(&spans, "par.region") as f64 - workers.iter().sum::<f64>() / t;
    let per_perm = |v: f64| v / perms;
    let table = StageTable {
        item: "perm",
        stages: vec![
            ("perm.unrank".to_string(), per_perm(ns("perm.unrank") / t)),
            ("hits.kernel".to_string(), per_perm(ns("hits.kernel") / t)),
            (
                "engine.absorb".to_string(),
                per_perm(ns("engine.absorb") / t),
            ),
            ("par.wait".to_string(), per_perm(wait)),
            ("engine.merge".to_string(), per_perm(ns("engine.merge"))),
        ],
        e2e: run.wall.as_secs_f64() * 1e9 / perms,
    };
    Some(Traced {
        pipeline: "sweep_fig1",
        layers,
        table,
        traced_s,
        untraced_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_sweep_is_flagged() {
        let m = 6;
        let want = reference_digest(m, 2);
        let (_, levels) = replay(&Tracer::new(false), m, 2);
        let levels: Vec<Level> = levels.iter().map(Level::from).collect();
        assert_eq!(check_levels(&levels, m, want), Ok(()));

        let mut wrong = levels.clone();
        wrong[4].hit_sums[2] += 1;
        assert!(check_levels(&wrong, m, want).is_err());
        let mut wrong = levels.clone();
        wrong[4].count += 1;
        assert!(check_levels(&wrong, m, want).is_err());
    }

    #[test]
    #[ignore = "sweeps all of S_11 through the allocating reference (minutes)"]
    fn the_stored_digest_is_the_reference() {
        let levels = exhaustive_levels_reference(11, 2);
        let got = digest(
            levels
                .iter()
                .map(|l| (l.inversions, l.count, l.hit_sums.as_slice())),
        );
        println!("digest {got:#018x}");
        assert_eq!(got, REFERENCE_DIGEST_M11);
    }
}
