//! Streaming trace sources: traces as address *streams*, not materialized
//! vectors.
//!
//! The batch pipeline ([`crate::Trace`] + `ReuseProfile`) caps analyses at
//! whatever fits in memory. This module is the substrate of the streaming
//! trace-analysis subsystem: a [`TraceSource`] describes where accesses come
//! from — a plain-text file, a binary `.sltr` file ([`crate::binio`]), a
//! synthetic generator spec, or an in-memory trace — and yields any
//! contiguous range of them in blocks through
//! [`TraceSource::stream_blocks_range`], the one range reader: a
//! sequential pass reads the whole range, and each chunk-sharded worker
//! reads only its own chunk.
//!
//! Generator specs ([`GenSpec`]) are parsed from compact `gen:` strings so
//! the CLI can run synthetic workloads of any size without writing a file:
//!
//! ```text
//! gen:cyclic:<m>:<epochs>
//! gen:sawtooth:<m>:<epochs>
//! gen:strided:<m>:<stride>:<epochs>
//! gen:tiled:<m>:<tile>:<epochs>
//! gen:random:<m>:<len>:<seed>
//! gen:zipf:<m>:<len>:<s>:<seed>
//! ```
//!
//! Every generator is random-access: [`GenSpec::address_at`] computes any
//! position directly, so [`GenSpec::stream_range`] starts mid-trace in
//! `O(1)`. The deterministic patterns (cyclic, sawtooth, strided, tiled)
//! are closed forms; the seeded kinds (random, zipf) are counter-based —
//! the workspace `StdRng` is SplitMix64, whose draw `i` is one
//! [`splitmix64`] of `seed + i·γ`, and each access takes exactly one draw
//! — so a chunk never replays its prefix, and the streams equal the batch
//! generators' draw for draw. A generator stream is `O(m)` state (the Zipfian CDF) regardless of
//! trace length, and fills [`BlockRead`] buffers natively.

use crate::binio::{count_sltr_accesses, sltr_index_path, SltrIndex, SltrReader};
use crate::io::{parse_trace_line, TraceIoError};
use crate::trace::Trace;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};

/// A parsed synthetic-generator spec (see the [module docs](self) for the
/// `gen:` grammar). Produces the same access *sequences* as the batch
/// generators in [`crate::generators`], but streamed.
#[derive(Debug, Clone, PartialEq)]
pub enum GenSpec {
    /// `0 1 .. m-1` repeated `epochs` times.
    Cyclic {
        /// Number of distinct addresses.
        m: u64,
        /// Number of traversals.
        epochs: u64,
    },
    /// Forward then reverse traversals, alternating.
    Sawtooth {
        /// Number of distinct addresses.
        m: u64,
        /// Number of traversals.
        epochs: u64,
    },
    /// `0, stride, 2·stride, ..` wrapping modulo `m`, `epochs` passes.
    Strided {
        /// Number of distinct addresses.
        m: u64,
        /// Stride between consecutive accesses.
        stride: u64,
        /// Number of passes.
        epochs: u64,
    },
    /// Tile-by-tile traversal, each tile repeated `epochs` times.
    Tiled {
        /// Number of distinct addresses.
        m: u64,
        /// Tile size.
        tile: u64,
        /// Repetitions per tile.
        epochs: u64,
    },
    /// `len` uniformly random addresses below `m`.
    Random {
        /// Number of distinct addresses.
        m: u64,
        /// Number of accesses.
        len: u64,
        /// RNG seed.
        seed: u64,
    },
    /// `len` Zipfian-distributed addresses below `m` with skew `s`.
    Zipf {
        /// Number of distinct addresses.
        m: u64,
        /// Number of accesses.
        len: u64,
        /// Skew exponent (0 = uniform).
        s: f64,
        /// RNG seed.
        seed: u64,
    },
}

impl GenSpec {
    /// Parses a `gen:` spec string (the leading `gen:` is optional).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem.
    pub fn parse(spec: &str) -> Result<GenSpec, String> {
        let body = spec.strip_prefix("gen:").unwrap_or(spec);
        let parts: Vec<&str> = body.split(':').collect();
        let num = |what: &str, text: &str| -> Result<u64, String> {
            text.parse()
                .map_err(|_| format!("{what} must be a number, got {text:?}"))
        };
        let arity = |n: usize| -> Result<(), String> {
            if parts.len() == n + 1 {
                Ok(())
            } else {
                Err(format!(
                    "gen:{} takes {n} parameter(s), got {}",
                    parts[0],
                    parts.len() - 1
                ))
            }
        };
        let spec = match parts.first().copied() {
            Some("cyclic") => {
                arity(2)?;
                GenSpec::Cyclic {
                    m: num("m", parts[1])?,
                    epochs: num("epochs", parts[2])?,
                }
            }
            Some("sawtooth") => {
                arity(2)?;
                GenSpec::Sawtooth {
                    m: num("m", parts[1])?,
                    epochs: num("epochs", parts[2])?,
                }
            }
            Some("strided") => {
                arity(3)?;
                GenSpec::Strided {
                    m: num("m", parts[1])?,
                    stride: num("stride", parts[2])?,
                    epochs: num("epochs", parts[3])?,
                }
            }
            Some("tiled") => {
                arity(3)?;
                let tile = num("tile", parts[2])?;
                if tile == 0 {
                    return Err("tile must be positive".to_string());
                }
                GenSpec::Tiled {
                    m: num("m", parts[1])?,
                    tile,
                    epochs: num("epochs", parts[3])?,
                }
            }
            Some("random") => {
                arity(3)?;
                GenSpec::Random {
                    m: num("m", parts[1])?,
                    len: num("len", parts[2])?,
                    seed: num("seed", parts[3])?,
                }
            }
            Some("zipf") => {
                arity(4)?;
                let s: f64 = parts[3]
                    .parse()
                    .map_err(|_| format!("s must be a number, got {:?}", parts[3]))?;
                GenSpec::Zipf {
                    m: num("m", parts[1])?,
                    len: num("len", parts[2])?,
                    s,
                    seed: num("seed", parts[4])?,
                }
            }
            Some(other) => {
                return Err(format!(
                    "unknown generator {other:?} (expected cyclic, sawtooth, strided, tiled, random or zipf)"
                ))
            }
            None => return Err("empty generator spec".to_string()),
        };
        if let GenSpec::Cyclic { m, epochs }
        | GenSpec::Sawtooth { m, epochs }
        | GenSpec::Strided { m, epochs, .. }
        | GenSpec::Tiled { m, epochs, .. } = spec
        {
            if m.checked_mul(epochs).is_none() {
                return Err(format!(
                    "gen:{} length m × epochs = {m} × {epochs} overflows u64",
                    parts[0]
                ));
            }
        }
        Ok(spec)
    }

    /// The canonical spec string (parses back to `self`).
    #[must_use]
    pub fn fingerprint(&self) -> String {
        match self {
            GenSpec::Cyclic { m, epochs } => format!("gen:cyclic:{m}:{epochs}"),
            GenSpec::Sawtooth { m, epochs } => format!("gen:sawtooth:{m}:{epochs}"),
            GenSpec::Strided { m, stride, epochs } => format!("gen:strided:{m}:{stride}:{epochs}"),
            GenSpec::Tiled { m, tile, epochs } => format!("gen:tiled:{m}:{tile}:{epochs}"),
            GenSpec::Random { m, len, seed } => format!("gen:random:{m}:{len}:{seed}"),
            GenSpec::Zipf { m, len, s, seed } => format!("gen:zipf:{m}:{len}:{s}:{seed}"),
        }
    }

    /// Total number of accesses the spec generates ([`GenSpec::parse`]
    /// rejects pattern specs whose `m × epochs` overflows `u64`).
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        match *self {
            GenSpec::Cyclic { m, epochs }
            | GenSpec::Sawtooth { m, epochs }
            | GenSpec::Strided { m, epochs, .. }
            | GenSpec::Tiled { m, epochs, .. } => m * epochs,
            GenSpec::Random { len, .. } | GenSpec::Zipf { len, .. } => len,
        }
    }

    /// The address at position `i < total_accesses()`, in `O(1)` for every
    /// kind but Zipf, which first builds its `O(m)` CDF (a stream from
    /// [`GenSpec::stream_range`] builds it once instead). The seeded kinds
    /// are counter-based: access `i` is draw `i` of
    /// `StdRng::seed_from_u64(seed)`, mapped exactly as
    /// [`crate::generators::random_trace`] and
    /// [`crate::generators::zipfian_trace`] map it. A Zipf spec over zero
    /// addresses streams nothing and answers `0`.
    #[must_use]
    pub fn address_at(&self, i: u64) -> u64 {
        self.address_in(i, &self.zipf_table())
    }

    /// The Zipf CDF of a Zipf spec — the batch generator's table, as
    /// draw-for-draw equivalence requires — and empty for other kinds.
    fn zipf_table(&self) -> Vec<f64> {
        match *self {
            GenSpec::Zipf { m, s, .. } => {
                crate::generators::zipfian_cdf(usize::try_from(m).expect("zipf CDF fits memory"), s)
            }
            _ => Vec::new(),
        }
    }

    /// [`GenSpec::address_at`] against a prebuilt [`GenSpec::zipf_table`].
    #[inline]
    fn address_in(&self, i: u64, cdf: &[f64]) -> u64 {
        match *self {
            GenSpec::Cyclic { m, .. } => i % m,
            GenSpec::Sawtooth { m, .. } => {
                let (epoch, pos) = (i / m, i % m);
                if epoch % 2 == 0 {
                    pos
                } else {
                    m - 1 - pos
                }
            }
            GenSpec::Strided { m, stride, .. } => {
                (u128::from(i % m) * u128::from(stride) % u128::from(m)) as u64
            }
            GenSpec::Tiled { m, tile, epochs } => {
                // With `tile > m` there are no full tiles and `span` is
                // unused, so saturating keeps huge tiles from overflowing.
                let span = tile.saturating_mul(epochs);
                let full_tiles = m / tile;
                if i < full_tiles * span {
                    let t = i / span;
                    t * tile + (i % span) % tile
                } else {
                    let last_size = m - full_tiles * tile;
                    full_tiles * tile + (i - full_tiles * span) % last_size
                }
            }
            GenSpec::Random { m, seed, .. } => {
                // The shim's widening-multiply (Lemire) range mapping.
                ((u128::from(seeded_draw(seed, i)) * u128::from(m.max(1))) >> 64) as u64
            }
            GenSpec::Zipf { seed, .. } => {
                // The shim's 53-bit unit-interval mapping, then inversion.
                let u = (seeded_draw(seed, i) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                cdf.partition_point(|&c| c < u)
                    .min(cdf.len().saturating_sub(1)) as u64
            }
        }
    }

    /// A stream over the whole generated trace.
    #[must_use]
    pub fn stream(&self) -> GenStream {
        self.stream_range(0, self.total_accesses())
    }

    /// A stream over positions `start..end` (clamped to the total length),
    /// starting in `O(1)` for every kind (plus building the Zipf CDF):
    /// positions are computed by [`GenSpec::address_at`], never replayed.
    #[must_use]
    pub fn stream_range(&self, start: u64, end: u64) -> GenStream {
        let mut end = end.min(self.total_accesses());
        if let GenSpec::Zipf { m: 0, .. } = self {
            // A Zipfian trace over zero addresses is empty (mirrors the
            // batch generator).
            end = 0;
        }
        GenStream {
            spec: self.clone(),
            index: start.min(end),
            end,
            cdf: self.zipf_table(),
        }
    }

    /// Materializes the spec into a [`Trace`] (intended for tests and small
    /// traces; the whole point of streams is not to call this at scale).
    ///
    /// # Panics
    ///
    /// Panics if an address exceeds `usize`.
    #[must_use]
    pub fn materialize(&self) -> Trace {
        self.stream()
            .map(|a| usize::try_from(a).expect("address fits usize"))
            .collect()
    }
}

impl std::fmt::Display for GenSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.fingerprint())
    }
}

/// SplitMix64's output function on a pre-incremented state: a cheap,
/// stateless, statistically uniform 64-bit mix. It is the workspace
/// `StdRng`'s step (so `splitmix64(seed)` is that generator's first draw),
/// the counter behind the seeded generators' draws, and the SHARDS
/// spatial-sampling hash.
#[inline]
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(SPLITMIX_GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// SplitMix64's state increment (the golden-ratio Weyl constant).
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Draw `i` (0-based) of `StdRng::seed_from_u64(seed)`. SplitMix64 is
/// counter-based — its state after `i` steps is `seed + i·γ` — so any draw
/// costs one hash, whatever its position (cf. Salmon et al., "Parallel
/// random numbers: as easy as 1, 2, 3", SC'11).
#[inline]
fn seeded_draw(seed: u64, i: u64) -> u64 {
    splitmix64(seed.wrapping_add(i.wrapping_mul(SPLITMIX_GAMMA)))
}

/// A streaming iterator over (a sub-range of) a generated trace, and its
/// native [`BlockRead`]er.
#[derive(Debug)]
pub struct GenStream {
    spec: GenSpec,
    index: u64,
    end: u64,
    /// The Zipf CDF, built once per stream (empty for other kinds).
    cdf: Vec<f64>,
}

impl GenStream {
    /// Number of accesses remaining.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.end - self.index
    }
}

impl Iterator for GenStream {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.index >= self.end {
            return None;
        }
        let addr = self.spec.address_in(self.index, &self.cdf);
        self.index += 1;
        Some(addr)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining()).ok();
        (n.unwrap_or(usize::MAX), n)
    }
}

impl BlockRead for GenStream {
    fn next_block(&mut self, buf: &mut Vec<u64>) -> usize {
        let n = self.remaining().min(BLOCK_LEN as u64);
        let (spec, cdf) = (&self.spec, &self.cdf);
        buf.clear();
        buf.extend((self.index..self.index + n).map(|i| spec.address_in(i, cdf)));
        self.index += n;
        buf.len()
    }
}

/// Where a trace's accesses come from. The unit the streaming analysis
/// subsystem is parameterized by: every variant can report its total length
/// and stream any contiguous sub-range on demand, so the same source can be
/// consumed sequentially (one streaming pass) or chunk-sharded across
/// workers.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceSource {
    /// A plain-text trace file ([`crate::io`] format).
    Text(PathBuf),
    /// A binary `.sltr` trace file ([`crate::binio`] format).
    Binary(PathBuf),
    /// A synthetic generator.
    Gen(GenSpec),
    /// An in-memory trace.
    Memory(Trace),
}

/// Preferred number of accesses per block of [`BlockRead::next_block`]:
/// large enough to amortize the per-block call, small enough that a block
/// of `u64`s stays cache-resident.
pub const BLOCK_LEN: usize = 4096;

/// A block-streaming source of addresses: refills a caller-provided buffer
/// with the next run of accesses instead of answering one virtual `next()`
/// call per access. Produced by [`TraceSource::stream_blocks_range`], the
/// one way to read a range of any source; `Send` so chunk workers can own
/// one each.
pub trait BlockRead: Send {
    /// Refills `buf` (cleared first) with up to [`BLOCK_LEN`] accesses,
    /// returning how many were produced; `0` means the range is exhausted.
    ///
    /// # Panics
    ///
    /// May panic on I/O or decode errors past construction — callers
    /// validate file sources with [`TraceSource::total_accesses`] first.
    fn next_block(&mut self, buf: &mut Vec<u64>) -> usize;
}

/// A boxed block reader (see [`TraceSource::stream_blocks_range`]).
pub type AccessBlocks = Box<dyn BlockRead>;

/// A per-access consumer that can be tapped into a streaming pass. The
/// broadcast seam of the fused single-pass pipeline: one decode pass over a
/// source can feed its exact and sampled engines *and* any number of extra
/// sinks (a live daemon, a counter, a recorder) without re-streaming. Sinks
/// observe every access, in trace order, exactly once per pass.
pub trait AccessSink {
    /// Observes one access.
    fn on_access(&mut self, addr: u64);

    /// Observes one decoded block (defaults to per-access delivery; block
    /// consumers can override to stay on the hot block path).
    fn on_block(&mut self, block: &[u64]) {
        for &addr in block {
            self.on_access(addr);
        }
    }
}

/// An [`AccessSink`] that only counts — the observer used to *prove* a
/// fused pass streams each access exactly once, and the no-op-priced
/// default tap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    accesses: u64,
}

impl CountingSink {
    /// A fresh, zeroed counter.
    #[must_use]
    pub fn new() -> CountingSink {
        CountingSink::default()
    }

    /// Accesses observed so far.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

impl AccessSink for CountingSink {
    fn on_access(&mut self, addr: u64) {
        let _ = addr;
        self.accesses += 1;
    }

    fn on_block(&mut self, block: &[u64]) {
        self.accesses += block.len() as u64;
    }
}

/// An [`AccessSink`] that meters an inner sink: counts accesses and
/// blocks, and accumulates the wall-clock nanoseconds the inner sink
/// spends consuming them — the "compute" half of a streaming pass. The
/// "decode" half (time spent in [`BlockRead::next_block`]) is timed by the
/// streaming loop and folded in through [`MeteredSink::add_decode_nanos`],
/// so one sink carries the full decode-vs-compute split.
///
/// Generalizes [`CountingSink`] over the same tap seam: delivery to the
/// inner sink is unchanged (same blocks, same order, exactly once), so
/// metering is result-invariant by construction. The trace crate has no
/// metrics dependency; callers read the totals off the accessors and flush
/// them into whatever registry they aggregate in.
#[derive(Debug, Clone, Default)]
pub struct MeteredSink<S> {
    inner: S,
    accesses: u64,
    blocks: u64,
    compute_nanos: u64,
    decode_nanos: u64,
}

impl<S: AccessSink> MeteredSink<S> {
    /// Wraps `inner`, all meters zeroed.
    pub fn new(inner: S) -> MeteredSink<S> {
        MeteredSink {
            inner,
            accesses: 0,
            blocks: 0,
            compute_nanos: 0,
            decode_nanos: 0,
        }
    }

    /// Accesses delivered to the inner sink so far.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Blocks delivered to the inner sink so far (per-access deliveries
    /// count as zero blocks).
    #[must_use]
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Nanoseconds the inner sink spent consuming deliveries.
    #[must_use]
    pub fn compute_nanos(&self) -> u64 {
        self.compute_nanos
    }

    /// Nanoseconds of decode time folded in by the streaming loop.
    #[must_use]
    pub fn decode_nanos(&self) -> u64 {
        self.decode_nanos
    }

    /// Folds `nanos` of block-decode time into the decode meter
    /// (saturating).
    pub fn add_decode_nanos(&mut self, nanos: u64) {
        self.decode_nanos = self.decode_nanos.saturating_add(nanos);
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Consumes the meter, returning the wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: AccessSink> AccessSink for MeteredSink<S> {
    fn on_access(&mut self, addr: u64) {
        let started = std::time::Instant::now();
        self.inner.on_access(addr);
        self.compute_nanos = self
            .compute_nanos
            .saturating_add(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        self.accesses += 1;
    }

    fn on_block(&mut self, block: &[u64]) {
        let started = std::time::Instant::now();
        self.inner.on_block(block);
        self.compute_nanos = self
            .compute_nanos
            .saturating_add(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        self.accesses += block.len() as u64;
        self.blocks += 1;
    }
}

/// Bytes before a `.sltr` payload: the magic and the version byte.
const SLTR_HEADER_LEN: u64 = 5;

/// Zero-copy block decoding over a (possibly seek-positioned) `.sltr`
/// payload, bounded to `remaining` accesses.
struct SltrBlocks {
    reader: SltrReader<File>,
    remaining: u64,
}

impl BlockRead for SltrBlocks {
    fn next_block(&mut self, buf: &mut Vec<u64>) -> usize {
        let max = BLOCK_LEN.min(usize::try_from(self.remaining).unwrap_or(usize::MAX));
        if max == 0 {
            buf.clear();
            return 0;
        }
        let n = self
            .reader
            .decode_block(buf, max)
            .expect("validated sltr payload");
        self.remaining -= n as u64;
        n
    }
}

/// Line-by-line parsing over a (possibly seek-positioned) text trace,
/// bounded to `remaining` accesses. Also the scanner behind
/// [`TraceSource::total_accesses`] and [`build_text_index`], which is why
/// it tracks byte offsets.
struct TextBlocks {
    reader: BufReader<File>,
    line: String,
    /// Lines read, counted from where reading started.
    lineno: usize,
    /// Bytes read, counted from where reading started.
    offset: u64,
    /// Where the line of the last access returned starts.
    line_start: u64,
    remaining: u64,
}

impl TextBlocks {
    fn new(file: File, remaining: u64) -> TextBlocks {
        TextBlocks {
            reader: BufReader::new(file),
            line: String::new(),
            lineno: 0,
            offset: 0,
            line_start: 0,
            remaining,
        }
    }

    /// The next access, past any comment and blank lines; `None` at the
    /// end of the file.
    fn next_access(&mut self) -> Result<Option<u64>, TraceIoError> {
        loop {
            self.line.clear();
            let bytes = self.reader.read_line(&mut self.line)?;
            if bytes == 0 {
                return Ok(None);
            }
            self.lineno += 1;
            self.line_start = self.offset;
            self.offset += bytes as u64;
            if let Some(addr) = parse_trace_line(&self.line, self.lineno)? {
                return Ok(Some(addr));
            }
        }
    }
}

impl BlockRead for TextBlocks {
    fn next_block(&mut self, buf: &mut Vec<u64>) -> usize {
        buf.clear();
        while buf.len() < BLOCK_LEN && self.remaining > 0 {
            match self.next_access().expect("validated text trace") {
                Some(addr) => {
                    buf.push(addr);
                    self.remaining -= 1;
                }
                None => self.remaining = 0,
            }
        }
        buf.len()
    }
}

/// Blocks copied out of an in-memory range.
struct MemoryBlocks {
    addrs: std::vec::IntoIter<u64>,
}

impl BlockRead for MemoryBlocks {
    fn next_block(&mut self, buf: &mut Vec<u64>) -> usize {
        buf.clear();
        buf.extend(self.addrs.by_ref().take(BLOCK_LEN));
        buf.len()
    }
}

impl TraceSource {
    /// Parses a CLI argument: a `gen:` spec, or a path (`.sltr` extension or
    /// an `SLTR` magic selects the binary format, anything else is text).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the problem.
    pub fn parse(arg: &str) -> Result<TraceSource, String> {
        if arg.starts_with("gen:") {
            return Ok(TraceSource::Gen(GenSpec::parse(arg)?));
        }
        let path = PathBuf::from(arg);
        if path.extension().is_some_and(|e| e == "sltr") || file_has_sltr_magic(&path) {
            Ok(TraceSource::Binary(path))
        } else {
            Ok(TraceSource::Text(path))
        }
    }

    /// Reconstructs a source from a [`TraceSource::fingerprint`] string —
    /// the dispatch `symloc job resume` uses to reopen the trace a
    /// checkpoint was recorded against. Round-trips for every
    /// reconstructible variant: `gen:` specs, `text:` and `sltr:` paths.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description for malformed fingerprints and
    /// for `memory:` sources (which live only in the recording process).
    pub fn from_fingerprint(fingerprint: &str) -> Result<TraceSource, String> {
        if fingerprint.starts_with("gen:") {
            return Ok(TraceSource::Gen(GenSpec::parse(fingerprint)?));
        }
        if let Some(path) = fingerprint.strip_prefix("text:") {
            return Ok(TraceSource::Text(PathBuf::from(path)));
        }
        if let Some(path) = fingerprint.strip_prefix("sltr:") {
            return Ok(TraceSource::Binary(PathBuf::from(path)));
        }
        if fingerprint.starts_with("memory:") {
            return Err(
                "in-memory trace sources cannot be reconstructed from a checkpoint; \
                 re-run against the original file or generator spec"
                    .to_string(),
            );
        }
        Err(format!(
            "unrecognized trace-source fingerprint {fingerprint:?}"
        ))
    }

    /// A stable one-line identity of the source, embedded in ingest
    /// checkpoints so a resume can tell whether the checkpoint belongs to
    /// the trace it is about to process. File fingerprints are *path*-based
    /// (hashing gigabytes on every save would defeat streaming); consumers
    /// that must detect a file changing between runs additionally compare
    /// [`TraceSource::total_accesses`], as the ingest resume does.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        match self {
            TraceSource::Text(path) => format!("text:{}", path.display()),
            TraceSource::Binary(path) => format!("sltr:{}", path.display()),
            TraceSource::Gen(spec) => spec.fingerprint(),
            TraceSource::Memory(trace) => {
                format!("memory:{}:{:016x}", trace.len(), fnv1a_trace(trace))
            }
        }
    }

    /// Total number of accesses. Files are scanned (and thereby fully
    /// validated — later [`TraceSource::stream_blocks_range`] readers may
    /// assume the content decodes); generators and in-memory traces answer
    /// in `O(1)`.
    ///
    /// A file source with a sidecar chunk index also validates the index
    /// here: a corrupt sidecar, or one describing a different payload (the
    /// trace was truncated, appended to or replaced after indexing), is a
    /// loud error rather than a silent mis-seek later.
    ///
    /// # Errors
    ///
    /// Returns the first read or parse error.
    pub fn total_accesses(&self) -> Result<u64, TraceIoError> {
        match self {
            TraceSource::Text(path) => {
                let mut text = TextBlocks::new(File::open(path)?, u64::MAX);
                let mut count = 0u64;
                while text.next_access()?.is_some() {
                    count += 1;
                }
                check_sidecar(path, 0, count)?;
                Ok(count)
            }
            TraceSource::Binary(path) => {
                let count = count_sltr_accesses(path)?;
                check_sidecar(path, SLTR_HEADER_LEN, count)?;
                Ok(count)
            }
            TraceSource::Gen(spec) => Ok(spec.total_accesses()),
            TraceSource::Memory(trace) => Ok(trace.len() as u64),
        }
    }

    /// Streams accesses `start..end` (clamped to the trace length) as
    /// decoded blocks — the one way to read a range of any source, from
    /// one sequential pass to one chunk worker's share. File sources seek
    /// via their sidecar chunk index when one applies (it parses and
    /// matches the file's payload length) and skip the prefix by decoding
    /// otherwise, with identical accesses either way: `.sltr` sources
    /// decode LEB128 runs straight into the caller's buffer
    /// ([`SltrReader::decode_block`]), text sources parse line by line.
    /// Generator sources fill the buffer directly from
    /// [`GenSpec::address_at`] positions; in-memory sources copy their
    /// slice.
    ///
    /// # Errors
    ///
    /// Returns the error of opening the underlying file or of decoding the
    /// skipped prefix, if any.
    pub fn stream_blocks_range(&self, start: u64, end: u64) -> Result<AccessBlocks, TraceIoError> {
        let take = end.saturating_sub(start);
        match self {
            TraceSource::Text(path) => {
                let (file, position) = open_range(path, 0, start)?;
                let mut text = TextBlocks::new(file, take);
                for _ in position.unwrap_or(0)..start {
                    if text.next_access()?.is_none() {
                        break; // range starts at or past the end of the trace
                    }
                }
                Ok(Box::new(text))
            }
            TraceSource::Binary(path) => {
                let (file, position) = open_range(path, SLTR_HEADER_LEN, start)?;
                let mut reader = match position {
                    Some(position) => SltrReader::resume(file, position),
                    None => SltrReader::new(file)?,
                };
                // Fast-skip the unwanted prefix with the block decoder itself.
                let mut skip = start - position.unwrap_or(0);
                let mut scratch = Vec::new();
                while skip > 0 {
                    let max = BLOCK_LEN.min(usize::try_from(skip).unwrap_or(usize::MAX));
                    let n = reader.decode_block(&mut scratch, max)?;
                    if n == 0 {
                        break; // range starts at or past the end of the trace
                    }
                    skip -= n as u64;
                }
                Ok(Box::new(SltrBlocks {
                    reader,
                    remaining: take,
                }))
            }
            TraceSource::Gen(spec) => Ok(Box::new(spec.stream_range(start, end))),
            TraceSource::Memory(trace) => {
                let end = end.min(trace.len() as u64);
                let range = usize::try_from(start.min(end)).unwrap()..usize::try_from(end).unwrap();
                let addrs: Vec<u64> = trace.accesses()[range]
                    .iter()
                    .map(|a| a.value() as u64)
                    .collect();
                Ok(Box::new(MemoryBlocks {
                    addrs: addrs.into_iter(),
                }))
            }
        }
    }
}

impl std::fmt::Display for TraceSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.fingerprint())
    }
}

/// Opens a file source for a range read from access `start`, and decides
/// whether its sidecar index applies — the one place that decides at
/// stream time. It applies when it parses and describes a payload of the
/// file's length past the `header` (5 bytes for `.sltr`, none for text,
/// whose payload is the whole file): the file is then seeked to the
/// indexed access boundary nearest below `start`, and the number of
/// accesses before that boundary is returned. Otherwise — the sidecar is
/// missing, corrupt or stale, which [`TraceSource::total_accesses`] has
/// already reported loudly — the file is left at its start (`None`) and
/// the caller decode-skips the whole prefix. Both yield identical accesses.
///
/// # Errors
///
/// Returns the error of opening or seeking the trace file itself.
fn open_range(path: &Path, header: u64, start: u64) -> Result<(File, Option<u64>), TraceIoError> {
    use std::io::{Seek, SeekFrom};
    let mut file = File::open(path)?;
    let hint = (|| {
        let index = SltrIndex::read(sltr_index_path(path)).ok()?;
        let payload_len = file.metadata().ok()?.len().saturating_sub(header);
        index.check_matches_payload_only(payload_len).ok()?;
        Some(index.seek_hint(start))
    })();
    let Some((offset, skip)) = hint else {
        return Ok((file, None));
    };
    file.seek(SeekFrom::Start(header + offset))?;
    Ok((file, Some(start - skip)))
}

/// Validates `path`'s sidecar index, if there is one, against the `count`
/// accesses the file holds past its `header`.
fn check_sidecar(path: &Path, header: u64, count: u64) -> Result<(), TraceIoError> {
    let sidecar = sltr_index_path(path);
    if sidecar.exists() {
        let payload_len = std::fs::metadata(path)?.len().saturating_sub(header);
        SltrIndex::read(&sidecar)?.check_matches(count, payload_len)?;
    }
    Ok(())
}

/// Builds a line-offset chunk index over a text trace file: the same
/// `SLIX` sidecar shape as `.sltr` indexes ([`SltrIndex`]), with the whole
/// file as the payload and entry `k` holding the byte offset of the line
/// that starts access `k·interval` (comment and blank lines do not count
/// as accesses but do count bytes). Written to [`sltr_index_path`], it
/// makes [`TraceSource::stream_blocks_range`] *seek* on text sources, as
/// it does on indexed `.sltr` files.
///
/// # Errors
///
/// Returns the first read or parse error of the trace file.
///
/// # Panics
///
/// Panics if `interval == 0`.
pub fn build_text_index(path: &Path, interval: u64) -> Result<SltrIndex, TraceIoError> {
    assert!(interval > 0, "the index interval must be positive");
    let mut text = TextBlocks::new(File::open(path)?, u64::MAX);
    let mut offsets = Vec::new();
    let mut count = 0u64;
    while text.next_access()?.is_some() {
        if count > 0 && count.is_multiple_of(interval) {
            offsets.push(text.line_start);
        }
        count += 1;
    }
    // The last scan read to the end of the file, trailing comment lines
    // included, so `offset` is the file length.
    Ok(SltrIndex::from_parts(interval, count, text.offset, offsets))
}

/// True when the file starts with the `SLTR` magic (best-effort sniff).
fn file_has_sltr_magic(path: &Path) -> bool {
    use std::io::Read;
    let Ok(mut file) = File::open(path) else {
        return false;
    };
    let mut magic = [0u8; 4];
    file.read_exact(&mut magic).is_ok() && magic == crate::binio::SLTR_MAGIC
}

/// FNV-1a over the address values, for in-memory source fingerprints.
fn fnv1a_trace(trace: &Trace) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for a in trace.iter() {
        for byte in (a.value() as u64).to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binio::write_sltr;
    use crate::generators::{
        cyclic_trace, random_trace, sawtooth_trace, strided_trace, tiled_trace, zipfian_trace,
    };
    use crate::io::write_trace;

    fn collect(spec: &GenSpec) -> Vec<u64> {
        spec.stream().collect()
    }

    fn as_u64(trace: &Trace) -> Vec<u64> {
        trace.iter().map(|a| a.value() as u64).collect()
    }

    #[test]
    fn gen_streams_match_batch_generators() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        assert_eq!(
            collect(&GenSpec::parse("gen:cyclic:5:3").unwrap()),
            as_u64(&cyclic_trace(5, 3))
        );
        assert_eq!(
            collect(&GenSpec::parse("gen:sawtooth:4:5").unwrap()),
            as_u64(&sawtooth_trace(4, 5))
        );
        assert_eq!(
            collect(&GenSpec::parse("gen:strided:8:3:2").unwrap()),
            as_u64(&strided_trace(8, 3, 2))
        );
        for (m, tile) in [(9, 4), (8, 2), (3, 7)] {
            assert_eq!(
                collect(&GenSpec::parse(&format!("gen:tiled:{m}:{tile}:3")).unwrap()),
                as_u64(&tiled_trace(m, tile, 3)),
                "m={m} tile={tile}"
            );
        }
        let mut rng = StdRng::seed_from_u64(11);
        assert_eq!(
            collect(&GenSpec::parse("gen:random:10:50:11").unwrap()),
            as_u64(&random_trace(10, 50, &mut rng))
        );
        let mut rng = StdRng::seed_from_u64(12);
        assert_eq!(
            collect(&GenSpec::parse("gen:zipf:20:100:0.9:12").unwrap()),
            as_u64(&zipfian_trace(20, 100, 0.9, &mut rng))
        );
    }

    #[test]
    fn stream_range_equals_skip_take_for_every_kind() {
        for spec in [
            "gen:cyclic:7:4",
            "gen:sawtooth:6:5",
            "gen:strided:9:2:3",
            "gen:tiled:10:3:2",
            "gen:random:12:60:5",
            "gen:zipf:15:60:1.1:5",
        ] {
            let spec = GenSpec::parse(spec).unwrap();
            let full = collect(&spec);
            for (start, end) in [(0u64, 9u64), (5, 23), (17, 17), (20, 10_000)] {
                let ranged: Vec<u64> = spec.stream_range(start, end).collect();
                let expect: Vec<u64> = full
                    .iter()
                    .copied()
                    .skip(start as usize)
                    .take(end.saturating_sub(start) as usize)
                    .collect();
                assert_eq!(ranged, expect, "{spec} range {start}..{end}");
            }
        }
    }

    #[test]
    fn parse_round_trips_and_rejects_malformed() {
        for text in [
            "gen:cyclic:5:3",
            "gen:sawtooth:4:5",
            "gen:strided:8:3:2",
            "gen:tiled:9:4:3",
            "gen:random:10:50:11",
            "gen:zipf:20:100:0.9:12",
        ] {
            let spec = GenSpec::parse(text).unwrap();
            assert_eq!(spec.fingerprint(), text);
            assert_eq!(GenSpec::parse(&spec.fingerprint()).unwrap(), spec);
            assert_eq!(format!("{spec}"), text);
        }
        assert!(GenSpec::parse("gen:bogus:1:2").is_err());
        assert!(GenSpec::parse("gen:cyclic:1").is_err());
        assert!(GenSpec::parse("gen:cyclic:1:2:3").is_err());
        assert!(GenSpec::parse("gen:cyclic:x:2").is_err());
        assert!(GenSpec::parse("gen:zipf:5:5:notafloat:1").is_err());
        assert!(GenSpec::parse("gen:tiled:5:0:2").is_err());
        assert!(GenSpec::parse("").is_err());
    }

    #[test]
    fn source_parse_detects_formats() {
        assert!(matches!(
            TraceSource::parse("gen:cyclic:4:2").unwrap(),
            TraceSource::Gen(_)
        ));
        assert!(matches!(
            TraceSource::parse("/tmp/foo.sltr").unwrap(),
            TraceSource::Binary(_)
        ));
        assert!(matches!(
            TraceSource::parse("/tmp/foo.trace").unwrap(),
            TraceSource::Text(_)
        ));
        assert!(TraceSource::parse("gen:frobnicate:1").is_err());
        // Magic sniffing catches .sltr content under a foreign extension.
        let path = std::env::temp_dir().join("symloc_stream_sniff_test.bin");
        write_sltr(&cyclic_trace(3, 1), &path).unwrap();
        assert!(matches!(
            TraceSource::parse(path.to_str().unwrap()).unwrap(),
            TraceSource::Binary(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_sources_stream_and_count() {
        let t = sawtooth_trace(6, 3);
        let dir = std::env::temp_dir();
        let text_path = dir.join("symloc_stream_test.trace");
        let bin_path = dir.join("symloc_stream_test.sltr");
        write_trace(&t, &text_path).unwrap();
        write_sltr(&t, &bin_path).unwrap();
        for source in [
            TraceSource::Text(text_path.clone()),
            TraceSource::Binary(bin_path.clone()),
            TraceSource::Memory(t.clone()),
        ] {
            assert_eq!(source.total_accesses().unwrap(), 18, "{source}");
            assert_eq!(read_range(&source, 0, u64::MAX), as_u64(&t), "{source}");
            assert_eq!(read_range(&source, 4, 9), as_u64(&t)[4..9], "{source}");
        }
        std::fs::remove_file(&text_path).ok();
        std::fs::remove_file(&bin_path).ok();
    }

    #[test]
    fn fingerprints_identify_sources() {
        let a = TraceSource::Memory(cyclic_trace(4, 2));
        let b = TraceSource::Memory(sawtooth_trace(4, 2));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.fingerprint(),
            TraceSource::Memory(cyclic_trace(4, 2)).fingerprint()
        );
        assert!(TraceSource::Text(PathBuf::from("x.trace"))
            .fingerprint()
            .starts_with("text:"));
        assert!(TraceSource::Binary(PathBuf::from("x.sltr"))
            .fingerprint()
            .starts_with("sltr:"));
    }

    #[test]
    fn indexed_sltr_ranges_equal_decode_skip_ranges() {
        use crate::binio::{sltr_index_path, write_sltr_indexed};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(77);
        let t = zipfian_trace(50_000, 2000, 0.8, &mut rng);
        let dir = std::env::temp_dir();
        let plain = dir.join("symloc_stream_unindexed_test.sltr");
        let indexed = dir.join("symloc_stream_indexed_test.sltr");
        write_sltr(&t, &plain).unwrap();
        write_sltr_indexed(&t, &indexed, 128).unwrap();
        let a = TraceSource::Binary(plain.clone());
        let b = TraceSource::Binary(indexed.clone());
        assert_eq!(a.total_accesses().unwrap(), 2000);
        assert_eq!(b.total_accesses().unwrap(), 2000);
        for (start, end) in [
            (0u64, 2000u64),
            (0, 17),
            (127, 129),
            (128, 256),
            (1500, 1600),
            (1999, 5000),
            (2000, 2000),
        ] {
            let via_skip = read_range(&a, start, end);
            let via_seek = read_range(&b, start, end);
            assert_eq!(via_seek, via_skip, "range {start}..{end}");
        }
        std::fs::remove_file(&plain).ok();
        std::fs::remove_file(&indexed).ok();
        std::fs::remove_file(sltr_index_path(&indexed)).ok();
    }

    /// Drains a block stream into one flat vector.
    fn collect_blocks(mut blocks: AccessBlocks) -> Vec<u64> {
        let mut all = Vec::new();
        let mut buf = Vec::new();
        loop {
            let n = blocks.next_block(&mut buf);
            assert_eq!(n, buf.len());
            if n == 0 {
                return all;
            }
            assert!(n <= BLOCK_LEN);
            all.extend_from_slice(&buf);
        }
    }

    /// Accesses `start..end` of `source`, read through its block reader.
    fn read_range(source: &TraceSource, start: u64, end: u64) -> Vec<u64> {
        collect_blocks(source.stream_blocks_range(start, end).unwrap())
    }

    #[test]
    fn block_streams_equal_batch_readers_for_every_kind() {
        use crate::binio::{read_sltr, sltr_index_path, write_sltr_indexed};
        use crate::io::read_trace;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(78);
        let t = zipfian_trace(50_000, 9500, 0.8, &mut rng);
        let other = zipfian_trace(50_000, 7000, 0.8, &mut rng);
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let file = |name: &str| dir.join(format!("symloc_stream_blocks_{pid}_{name}"));
        let mut sources = vec![
            (
                TraceSource::Gen(GenSpec::parse("gen:zipf:100:9500:0.7:3").unwrap()),
                GenSpec::parse("gen:zipf:100:9500:0.7:3")
                    .unwrap()
                    .materialize(),
            ),
            (TraceSource::Memory(t.clone()), t.clone()),
        ];
        // Every file kind with a valid sidecar (interval 128), a stale one
        // (left behind by a different trace) and none; each is checked
        // against its format's batch reader.
        for sidecar in ["valid", "stale", "missing"] {
            let text = file(&format!("{sidecar}.trace"));
            let sltr = file(&format!("{sidecar}.sltr"));
            match sidecar {
                "valid" => {
                    write_trace(&t, &text).unwrap();
                    build_text_index(&text, 128)
                        .unwrap()
                        .write(sltr_index_path(&text))
                        .unwrap();
                    write_sltr_indexed(&t, &sltr, 128).unwrap();
                }
                "stale" => {
                    write_trace(&other, &text).unwrap();
                    build_text_index(&text, 128)
                        .unwrap()
                        .write(sltr_index_path(&text))
                        .unwrap();
                    write_trace(&t, &text).unwrap();
                    write_sltr_indexed(&other, &sltr, 128).unwrap();
                    write_sltr(&t, &sltr).unwrap();
                }
                _ => {
                    write_trace(&t, &text).unwrap();
                    write_sltr(&t, &sltr).unwrap();
                }
            }
            assert_eq!(
                sltr_index_path(&text).exists(),
                sidecar != "missing",
                "{sidecar}"
            );
            sources.push((TraceSource::Text(text.clone()), read_trace(&text).unwrap()));
            sources.push((TraceSource::Binary(sltr.clone()), read_sltr(&sltr).unwrap()));
        }
        for (source, batch) in &sources {
            let batch = as_u64(batch);
            assert_eq!(batch.len(), 9500, "{source}");
            // 9500 accesses span multiple BLOCK_LEN refills; the ranges
            // are empty, sub-block, cross an index interval or a block
            // boundary, are clamped at the tail, or start past the end.
            for (start, end) in [
                (0u64, 9500u64),
                (0, 17),
                (127, 129),
                (250, 1300),
                (4095, 4099),
                (4000, 8300),
                (9000, 50_000),
                (9500, 9500),
                (9499, 9501),
                (20_000, 30_000),
                (u64::MAX - 1, u64::MAX),
            ] {
                let expect = &batch[batch.len().min(start as usize)..batch.len().min(end as usize)];
                assert_eq!(
                    read_range(source, start, end),
                    expect,
                    "{source} range {start}..{end}"
                );
            }
        }
        for (source, _) in &sources {
            if let TraceSource::Text(path) | TraceSource::Binary(path) = source {
                std::fs::remove_file(path).ok();
                std::fs::remove_file(sltr_index_path(path)).ok();
            }
        }
    }

    #[test]
    fn stale_or_corrupt_indexes_fail_validation_loudly() {
        use crate::binio::{sltr_index_path, write_sltr_indexed};
        let dir = std::env::temp_dir();
        let path = dir.join("symloc_stream_stale_index_test.sltr");
        let sidecar = sltr_index_path(&path);
        write_sltr_indexed(&sawtooth_trace(30, 20), &path, 64).unwrap();
        let source = TraceSource::Binary(path.clone());
        assert_eq!(source.total_accesses().unwrap(), 600);

        // Replace the trace but keep the old index: validation must error.
        write_sltr(&sawtooth_trace(30, 10), &path).unwrap();
        let err = source.total_accesses().unwrap_err();
        assert!(err.to_string().contains("stale"), "{err}");
        // Streaming falls back to decode-skip rather than mis-seeking.
        assert_eq!(
            read_range(&source, 0, 10),
            as_u64(&sawtooth_trace(30, 10))[..10]
        );
        assert_eq!(
            read_range(&source, 3, 10),
            as_u64(&sawtooth_trace(30, 10))[3..10]
        );

        // A corrupt sidecar is also a loud validation error.
        std::fs::write(&sidecar, b"garbage").unwrap();
        assert!(source.total_accesses().is_err());

        // Removing the sidecar restores plain decode-skip behavior.
        std::fs::remove_file(&sidecar).ok();
        assert_eq!(source.total_accesses().unwrap(), 300);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn from_fingerprint_round_trips_reconstructible_sources() {
        for fp in ["gen:cyclic:5:3", "gen:zipf:20:100:0.9:12"] {
            let source = TraceSource::from_fingerprint(fp).unwrap();
            assert_eq!(source.fingerprint(), fp);
        }
        let text = TraceSource::from_fingerprint("text:/tmp/a.trace").unwrap();
        assert!(matches!(text, TraceSource::Text(_)));
        assert_eq!(text.fingerprint(), "text:/tmp/a.trace");
        let bin = TraceSource::from_fingerprint("sltr:/tmp/a.sltr").unwrap();
        assert!(matches!(bin, TraceSource::Binary(_)));
        assert_eq!(bin.fingerprint(), "sltr:/tmp/a.sltr");
        let err = TraceSource::from_fingerprint("memory:8:0123456789abcdef").unwrap_err();
        assert!(err.contains("in-memory"), "{err}");
        assert!(TraceSource::from_fingerprint("gen:bogus:1").is_err());
        assert!(TraceSource::from_fingerprint("???").is_err());
    }

    #[test]
    fn indexed_text_ranges_equal_parse_skip_ranges() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(91);
        let t = zipfian_trace(10_000, 1500, 0.8, &mut rng);
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "symloc_stream_text_index_{}.trace",
            std::process::id()
        ));
        let sidecar = sltr_index_path(&path);
        write_trace(&t, &path).unwrap();
        let source = TraceSource::Text(path.clone());
        let plain: Vec<Vec<u64>> = [
            (0u64, 1500u64),
            (0, 17),
            (63, 65),
            (64, 256),
            (1100, 1200),
            (1499, 5000),
            (1500, 1500),
        ]
        .iter()
        .map(|&(a, b)| read_range(&source, a, b))
        .collect();
        // Build and write the line-offset index; ranges must now seek and
        // still yield identical accesses, and validation must pass.
        let index = build_text_index(&path, 64).unwrap();
        assert_eq!(index.interval(), 64);
        assert_eq!(index.total_accesses(), 1500);
        index.write(&sidecar).unwrap();
        assert_eq!(source.total_accesses().unwrap(), 1500);
        for (i, &(a, b)) in [
            (0u64, 1500u64),
            (0, 17),
            (63, 65),
            (64, 256),
            (1100, 1200),
            (1499, 5000),
            (1500, 1500),
        ]
        .iter()
        .enumerate()
        {
            assert_eq!(read_range(&source, a, b), plain[i], "range {a}..{b}");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();
    }

    #[test]
    fn text_index_counts_accesses_not_comment_lines() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "symloc_stream_text_comments_{}.trace",
            std::process::id()
        ));
        let sidecar = sltr_index_path(&path);
        std::fs::write(&path, "# header\n10\n11\n\n# middle\n12\n13\n14\n").unwrap();
        let index = build_text_index(&path, 2).unwrap();
        assert_eq!(index.total_accesses(), 5);
        assert_eq!(index.entry_count(), 2);
        index.write(&sidecar).unwrap();
        let source = TraceSource::Text(path.clone());
        assert_eq!(source.total_accesses().unwrap(), 5);
        assert_eq!(read_range(&source, 2, 5), vec![12, 13, 14]);
        // Malformed content is a parse error with its line number.
        std::fs::write(&path, "0\nnope\n").unwrap();
        assert!(build_text_index(&path, 2).is_err());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();
    }

    #[test]
    fn stale_text_indexes_fail_validation_and_fall_back() {
        let t = sawtooth_trace(20, 10);
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "symloc_stream_text_stale_{}.trace",
            std::process::id()
        ));
        let sidecar = sltr_index_path(&path);
        write_trace(&t, &path).unwrap();
        build_text_index(&path, 32)
            .unwrap()
            .write(&sidecar)
            .unwrap();
        let source = TraceSource::Text(path.clone());
        assert_eq!(source.total_accesses().unwrap(), 200);

        // Replace the trace but keep the old index: validation must error,
        // and streaming must fall back to parse-skip of the true content.
        write_trace(&sawtooth_trace(20, 5), &path).unwrap();
        let err = source.total_accesses().unwrap_err();
        assert!(err.to_string().contains("stale"), "{err}");
        assert_eq!(read_range(&source, 0, 5), vec![0, 1, 2, 3, 4]);

        // A corrupt sidecar is a loud validation error too.
        std::fs::write(&sidecar, b"garbage").unwrap();
        assert!(source.total_accesses().is_err());
        std::fs::remove_file(&sidecar).ok();
        assert_eq!(source.total_accesses().unwrap(), 100);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn total_accesses_reports_file_errors() {
        let missing = TraceSource::Text(PathBuf::from("/no/such/file.trace"));
        assert!(missing.total_accesses().is_err());
        assert!(missing.stream_blocks_range(0, 1).is_err());
        let path = std::env::temp_dir().join("symloc_stream_bad_test.trace");
        std::fs::write(&path, "0\nnot-a-number\n").unwrap();
        let bad = TraceSource::Text(path.clone());
        assert!(bad.total_accesses().is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_degree_generators_are_empty() {
        assert_eq!(
            GenSpec::parse("gen:zipf:0:10:1.0:1")
                .unwrap()
                .stream()
                .count(),
            0
        );
        assert_eq!(
            GenSpec::parse("gen:cyclic:0:5").unwrap().total_accesses(),
            0
        );
    }

    #[test]
    fn address_at_is_draw_i_of_the_seeded_std_rng() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let len = 300u64;
        for seed in [0, 42, u64::MAX] {
            for m in [0u64, 1, 2, 10, 1000] {
                let spec = GenSpec::Random { m, len, seed };
                let mut rng = StdRng::seed_from_u64(seed);
                let batch = as_u64(&random_trace(m as usize, len as usize, &mut rng));
                let positioned: Vec<u64> = (0..len).map(|i| spec.address_at(i)).collect();
                assert_eq!(positioned, batch, "{spec}");
                assert_eq!(collect(&spec), batch, "{spec}");
            }
            for m in [0u64, 1, 2, 20, 1000] {
                let spec = GenSpec::Zipf {
                    m,
                    len,
                    s: 0.9,
                    seed,
                };
                let mut rng = StdRng::seed_from_u64(seed);
                let batch = as_u64(&zipfian_trace(m as usize, len as usize, 0.9, &mut rng));
                assert_eq!(collect(&spec), batch, "{spec}");
                if m > 0 {
                    let positioned: Vec<u64> = (0..len).map(|i| spec.address_at(i)).collect();
                    assert_eq!(positioned, batch, "{spec}");
                }
            }
        }
    }

    #[test]
    fn gen_block_reader_equals_stream_range_across_block_boundaries() {
        let b = BLOCK_LEN as u64;
        for text in ["gen:random:5000:13000:9", "gen:zipf:3000:13000:0.8:9"] {
            let spec = GenSpec::parse(text).unwrap();
            let source = TraceSource::Gen(spec.clone());
            for (start, end) in [
                (0, 13_000),
                (b - 3, b + 5),
                (1, 2 * b + 1),
                (b, 2 * b),
                (2 * b + 7, 20_000),
                (13_000, 13_000),
            ] {
                let via_range: Vec<u64> = spec.stream_range(start, end).collect();
                let mut blocks = source.stream_blocks_range(start, end).unwrap();
                let mut via_blocks = Vec::new();
                let mut buf = Vec::new();
                while blocks.next_block(&mut buf) > 0 {
                    // Every block but the last is full.
                    assert!(via_blocks.len() % BLOCK_LEN == 0, "{text} {start}..{end}");
                    via_blocks.extend_from_slice(&buf);
                }
                assert_eq!(via_blocks, via_range, "{text} range {start}..{end}");
            }
        }
    }

    #[test]
    fn seeded_streams_seek_to_any_position_in_constant_time() {
        // A replaying generator would need 10^18 draws to get here.
        let end = 1_000_000_000_000_000_000u64;
        let spec = GenSpec::parse(&format!("gen:zipf:20000:{end}:0.8:7")).unwrap();
        let cdf = crate::generators::zipfian_cdf(20_000, 0.8);
        let expect: Vec<u64> = (end - 5..end)
            .map(|i| {
                let x = splitmix64(7u64.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                let u = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                cdf.partition_point(|&c| c < u).min(19_999) as u64
            })
            .collect();
        let tail: Vec<u64> = spec.stream_range(end - 5, end).collect();
        assert_eq!(tail, expect);
        assert_eq!(spec.address_at(end - 1), expect[4]);
    }

    #[test]
    fn pattern_lengths_that_overflow_u64_are_rejected() {
        for text in [
            "gen:cyclic:4294967296:4294967296",
            "gen:sawtooth:18446744073709551615:2",
            "gen:strided:4294967296:3:4294967296",
            "gen:tiled:4294967296:7:4294967296",
        ] {
            let err = GenSpec::parse(text).unwrap_err();
            assert!(err.contains("overflows u64"), "{text}: {err}");
            assert!(TraceSource::parse(text).is_err(), "{text}");
        }
        let widest = GenSpec::parse("gen:cyclic:4294967296:4294967295").unwrap();
        assert_eq!(widest.total_accesses(), 4_294_967_296 * 4_294_967_295);
        assert_eq!(
            widest.address_at(widest.total_accesses() - 1),
            4_294_967_295
        );
        // A tile wider than the trace is one partial tile whatever its
        // size: `tile × epochs` may overflow, the stream does not.
        let huge_tile = GenSpec::parse("gen:tiled:3:18446744073709551615:5").unwrap();
        assert_eq!(
            collect(&huge_tile),
            collect(&GenSpec::parse("gen:tiled:3:7:5").unwrap())
        );
    }

    #[test]
    fn counting_sink_counts_blocks_and_single_accesses_identically() {
        let mut by_access = CountingSink::new();
        let mut by_block = CountingSink::new();
        let block: Vec<u64> = (0..37).collect();
        for &addr in &block {
            by_access.on_access(addr);
        }
        by_block.on_block(&block);
        assert_eq!(by_access.accesses(), 37);
        assert_eq!(by_access, by_block);
        // The default block delivery also counts once per access.
        struct Defaulted(CountingSink);
        impl AccessSink for Defaulted {
            fn on_access(&mut self, addr: u64) {
                self.0.on_access(addr);
            }
        }
        let mut defaulted = Defaulted(CountingSink::new());
        defaulted.on_block(&block);
        assert_eq!(defaulted.0.accesses(), 37);
    }

    #[test]
    fn metered_sink_delivers_unchanged_and_meters() {
        // Inner sink records the exact delivery it saw, proving the meter
        // is a transparent tap.
        #[derive(Default)]
        struct Recorder(Vec<u64>);
        impl AccessSink for Recorder {
            fn on_access(&mut self, addr: u64) {
                self.0.push(addr);
            }
        }
        let block: Vec<u64> = (0..37).collect();
        let mut metered = MeteredSink::new(Recorder::default());
        metered.on_block(&block);
        metered.on_access(99);
        assert_eq!(metered.accesses(), 38);
        assert_eq!(metered.blocks(), 1);
        assert_eq!(metered.inner().0.len(), 38);
        assert_eq!(metered.inner().0[37], 99);
        assert_eq!(metered.decode_nanos(), 0);
        metered.add_decode_nanos(250);
        metered.add_decode_nanos(u64::MAX);
        assert_eq!(metered.decode_nanos(), u64::MAX);
        let expected: Vec<u64> = block.iter().copied().chain([99]).collect();
        assert_eq!(metered.into_inner().0, expected);
    }

    #[test]
    fn materialize_matches_stream() {
        let spec = GenSpec::parse("gen:sawtooth:5:2").unwrap();
        assert_eq!(spec.materialize(), sawtooth_trace(5, 2));
        let mut s = spec.stream();
        assert_eq!(s.remaining(), 10);
        assert_eq!(s.size_hint(), (10, Some(10)));
        let _ = s.next();
        assert_eq!(s.remaining(), 9);
    }
}
