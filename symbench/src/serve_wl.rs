//! `serve_ingest_query`: the daemon over loopback TCP.
//!
//! Each session spawns `symloc serve --port 0 --checkpoint F --save-every
//! K`. One connection streams seeded accesses round-robin over four
//! tenants as a closed loop (TCP back-pressure paces it). A second
//! connection sends `MRC`/`MRCJ`/`WSS`/`PARTITION` as an open loop at a
//! fixed rate while the ingest runs; each query is timed from when it was
//! due, and the generator records how late it sent. After the ingest the
//! final answers are compared with an in-process `ServeState` fed the same
//! blocks.

use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use symloc_core::partition::{self, Bounds};
use symloc_core::serve::ServeState;
use symloc_trace::stream::{AccessSink, GenSpec};
use symloc_trace::wire::{parse_request, AccessBatcher, Request, WIRE_BLOCK_LEN};

use crate::argv;
use crate::common::{arg, Ctx, E2e, Metric, StageTable, Tally, Traced};
use crate::proc::{Daemon, Usage};
use crate::spans::{self, Local, SpanRec, Tracer, NO_PARENT};
use crate::stats::{median, quantile};

const TENANTS: usize = 4;
/// Tenant-table cap passed to the daemon.
const MAX_TENANTS: usize = 16;
/// Per-tenant SHARDS budget (the daemon's default).
const BUDGET: usize = 1024;
/// Cache blocks split by `PARTITION`.
const PARTITION_BUDGET: u64 = 4096;
/// MRC points asked for.
const POINTS: usize = 16;
/// Sessions per run, at least.
const MIN_SESSIONS: usize = 3;
/// Restarts per run; `setup_s` is their median.
const RESTARTS: usize = 11;
/// Longest wait for any one reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// The seeded input of one session.
pub struct Plan {
    /// Tenant names and the generator of each tenant's accesses.
    tenants: Vec<(String, GenSpec)>,
    /// Accesses per tenant in one segment.
    per_tenant: u64,
    /// Times the segment is streamed per session.
    reps: usize,
    save_every: u64,
    /// Open-loop query rate.
    rate_hz: f64,
    /// In-process repetitions of each query verb in the traced replay.
    query_reps: usize,
}

impl Plan {
    pub fn new(seed: u64, tiny: bool) -> Plan {
        let (per_tenant, reps, rate_hz, query_reps) = if tiny {
            (8_192, 3, 20.0, 10)
        } else {
            (262_144, 12, 40.0, 200)
        };
        let specs = [
            format!("gen:zipf:5000:{per_tenant}:0.9:{}", seed * 4),
            format!("gen:zipf:50000:{per_tenant}:0.7:{}", seed * 4 + 1),
            format!("gen:random:20000:{per_tenant}:{}", seed * 4 + 2),
            format!("gen:zipf:400000:{per_tenant}:1.0:{}", seed * 4 + 3),
        ];
        Plan {
            tenants: specs
                .iter()
                .enumerate()
                .map(|(i, s)| (format!("t{i}"), GenSpec::parse(s).expect("valid spec")))
                .collect(),
            per_tenant,
            reps,
            save_every: 1_000_000,
            rate_hz,
            query_reps,
        }
    }

    /// One segment as `(tenant, block)` pairs: each tenant's accesses in
    /// blocks of the wire batch size, tenants taking turns.
    fn blocks(&self) -> Vec<(usize, Vec<u64>)> {
        let streams: Vec<Vec<u64>> = self
            .tenants
            .iter()
            .map(|(_, g)| g.stream().collect())
            .collect();
        let per_block = WIRE_BLOCK_LEN;
        let rounds = (self.per_tenant as usize).div_ceil(per_block);
        let mut blocks = Vec::new();
        for round in 0..rounds {
            for (t, stream) in streams.iter().enumerate() {
                let lo = round * per_block;
                let hi = (lo + per_block).min(stream.len());
                if lo < hi {
                    blocks.push((t, stream[lo..hi].to_vec()));
                }
            }
        }
        blocks
    }
}

/// One segment rendered as protocol lines, and the byte length of its
/// first round (every tenant's first block), which each session streams
/// before timing starts so that no query meets an empty tenant.
struct Wire {
    text: Vec<u8>,
    first_round: usize,
    first_round_accesses: u64,
    segment_accesses: u64,
}

fn render(plan: &Plan, blocks: &[(usize, Vec<u64>)]) -> Wire {
    let mut text = Vec::new();
    let (mut first_round, mut first_round_accesses) = (0, 0);
    for (i, (t, block)) in blocks.iter().enumerate() {
        writeln!(text, "HELLO {}", plan.tenants[*t].0).expect("writes to a Vec");
        for addr in block {
            writeln!(text, "{addr}").expect("writes to a Vec");
        }
        if i < TENANTS {
            first_round = text.len();
            first_round_accesses += block.len() as u64;
        }
    }
    Wire {
        text,
        first_round,
        first_round_accesses,
        segment_accesses: blocks.iter().map(|(_, b)| b.len() as u64).sum(),
    }
}

/// `(request, expected reply)` for every final query of a session.
type Answers = Vec<(String, String)>;

fn mrc_line(tenant: &str, state: &ServeState) -> Result<String, String> {
    let points = state.mrc(tenant, POINTS)?;
    let mut line = format!("OK mrc {tenant} {}", points.len());
    for p in points {
        line.push_str(&format!(" {}:{}", p.cache_size, p.miss_ratio));
    }
    Ok(line)
}

/// The answers the daemon must give after a session.
fn answers(plan: &Plan, state: &ServeState) -> Result<Answers, String> {
    let mut lines = Vec::new();
    for (name, _) in &plan.tenants {
        lines.push((format!("MRC {name} {POINTS}"), mrc_line(name, state)?));
        lines.push((
            format!("MRCJ {name} {POINTS}"),
            format!("OK mrcj {name} {}", state.mrcj_line(name, POINTS)?),
        ));
        lines.push((
            format!("WSS {name}"),
            format!("OK wss {name} {}", state.wss(name)?),
        ));
    }
    lines.push((
        format!("PARTITION {PARTITION_BUDGET}"),
        format!("OK {}", state.partition(PARTITION_BUDGET)?.render_compact()),
    ));
    Ok(lines)
}

/// The reference: an in-process `ServeState` fed the session's blocks.
fn reference(plan: &Plan, blocks: &[(usize, Vec<u64>)]) -> Result<Answers, String> {
    let mut state = ServeState::new(BUDGET, MAX_TENANTS)?;
    for _ in 0..plan.reps {
        for (t, block) in blocks {
            let index = state.ensure_tenant(&plan.tenants[*t].0)?;
            state.record_block(index, block);
        }
    }
    answers(plan, &state)
}

/// The open-loop query verbs, in rotation.
fn query_line(plan: &Plan, i: usize) -> (String, String) {
    let tenant = &plan.tenants[(i / 4) % plan.tenants.len()].0;
    match i % 4 {
        0 => (
            format!("MRC {tenant} {POINTS}"),
            format!("OK mrc {tenant} "),
        ),
        1 => (
            format!("MRCJ {tenant} {POINTS}"),
            format!("OK mrcj {tenant} "),
        ),
        2 => (format!("WSS {tenant}"), format!("OK wss {tenant} ")),
        _ => (
            format!("PARTITION {PARTITION_BUDGET}"),
            "OK partition ".to_string(),
        ),
    }
}

struct Session {
    ingest_s: f64,
    timed_accesses: u64,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    usage: Usage,
}

fn read_reply(reader: &mut impl BufRead) -> Result<String, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("connection closed".to_string()),
        Ok(_) => Ok(line.trim_end().to_string()),
        Err(e) => Err(e.to_string()),
    }
}

fn request(
    stream: &mut TcpStream,
    reader: &mut impl BufRead,
    line: &str,
) -> Result<String, String> {
    writeln!(stream, "{line}").map_err(|e| e.to_string())?;
    read_reply(reader)
}

/// Reads replies until one starts with `prefix`, counting the others.
fn read_until(reader: &mut impl BufRead, prefix: &str) -> Result<usize, String> {
    let mut others = 0;
    loop {
        let line = read_reply(reader)?;
        if line.starts_with(prefix) {
            return Ok(others);
        }
        if !line.starts_with("OK ") {
            return Err(format!("unexpected reply {line:?}"));
        }
        others += 1;
    }
}

fn spawn_daemon(ctx: &Ctx, plan: &Plan, ck: &Path) -> Result<(Daemon, String), String> {
    let args = argv![
        "serve",
        "--port",
        0,
        "--checkpoint",
        arg(ck),
        "--save-every",
        plan.save_every,
        "--budget",
        BUDGET,
        "--max-tenants",
        MAX_TENANTS
    ];
    let mut daemon = Daemon::spawn(&ctx.symloc, &args).map_err(|e| format!("cannot spawn: {e}"))?;
    let line = daemon.read_line().map_err(|e| e.to_string())?;
    let addr = line
        .strip_prefix("listening on ")
        .ok_or_else(|| format!("unexpected banner {line:?}"))?
        .to_string();
    Ok((daemon, addr))
}

/// A client connection. Reads time out, so a daemon that stops answering
/// fails the session instead of hanging the run.
fn connect(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((stream, reader))
}

/// Restarts the daemon from a copy of a finished session's checkpoint.
/// Set-up runs from spawn until the daemon announces its address: flags
/// parsed, every tenant restored, port bound. (The first answer can wait
/// a further 25 ms for the accept loop's poll, depending on which of
/// daemon and client the scheduler runs first, so it is not the timed
/// end.) The restored daemon must then answer `check` as before.
fn restart_probe(
    ctx: &Ctx,
    plan: &Plan,
    saved: &Path,
    ck: &Path,
    check: &(String, String),
) -> Result<f64, String> {
    std::fs::copy(saved, ck).map_err(|e| format!("cannot copy checkpoint: {e}"))?;
    let (daemon, addr) = spawn_daemon(ctx, plan, ck)?;
    let setup_s = daemon.spawned.elapsed().as_secs_f64();
    let (mut stream, mut reader) = connect(&addr)?;
    let reply = request(&mut stream, &mut reader, &check.0)?;
    if reply != check.1 {
        return Err(format!(
            "after restart got {reply:?}, expected {:?}",
            check.1
        ));
    }
    let _ = request(&mut stream, &mut reader, "QUIT");
    let usage = daemon.terminate().map_err(|e| e.to_string())?;
    if usage.code != Some(0) {
        return Err(format!("daemon exited with {:?}", usage.code));
    }
    Ok(setup_s)
}

enum Pending {
    Query { due: Instant, expect: String },
    End,
}

/// Open-loop queries at `plan.rate_hz` until `stop`, then a closing
/// `PING`. Returns how late each query was sent, in ms.
fn query_sender(
    plan: &Plan,
    mut stream: TcpStream,
    queue: &Mutex<VecDeque<Pending>>,
    stop: &AtomicBool,
) -> Vec<f64> {
    let start = Instant::now();
    let period = Duration::from_secs_f64(1.0 / plan.rate_hz);
    let mut late = Vec::new();
    for i in 0.. {
        let due = start + period * i;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let (line, expect) = query_line(plan, i as usize);
        queue
            .lock()
            .expect("queue lock")
            .push_back(Pending::Query { due, expect });
        late.push(due.elapsed().as_secs_f64() * 1e3);
        if writeln!(stream, "{line}").is_err() {
            break;
        }
    }
    queue.lock().expect("queue lock").push_back(Pending::End);
    let _ = writeln!(stream, "PING");
    late
}

/// Matches replies to sent queries in order; returns the latencies in ms
/// and one check result per reply.
fn query_receiver(
    mut reader: BufReader<TcpStream>,
    queue: &Mutex<VecDeque<Pending>>,
) -> (Vec<f64>, Vec<Result<(), String>>) {
    let mut latency = Vec::new();
    let mut checks = Vec::new();
    loop {
        let reply = read_reply(&mut reader);
        let arrived = Instant::now();
        let pending = queue.lock().expect("queue lock").pop_front();
        match (pending, reply) {
            (Some(Pending::Query { due, expect }), Ok(reply)) => {
                latency.push(arrived.duration_since(due).as_secs_f64() * 1e3);
                checks.push(if reply.starts_with(&expect) {
                    Ok(())
                } else {
                    Err(format!("got {reply:?}, expected {expect:?}.."))
                });
            }
            (Some(Pending::End), _) => break,
            (_, Err(e)) => {
                checks.push(Err(e));
                break;
            }
            (None, Ok(reply)) => {
                checks.push(Err(format!("unrequested reply {reply:?}")));
                break;
            }
        }
    }
    (latency, checks)
}

fn session(
    ctx: &Ctx,
    plan: &Plan,
    wire: &Wire,
    want: &Answers,
    ck: &Path,
    tally: &mut Tally,
) -> Result<Session, String> {
    let _ = std::fs::remove_file(ck);
    let (daemon, addr) = spawn_daemon(ctx, plan, ck)?;
    let (mut query, mut query_reader) = connect(&addr)?;
    let pong = request(&mut query, &mut query_reader, "PING")?;
    tally.check("PING", (pong == "OK pong").then_some(()).ok_or(pong));

    let (mut ingest, mut ingest_reader) = connect(&addr)?;
    ingest
        .write_all(&wire.text[..wire.first_round])
        .and_then(|()| writeln!(ingest, "WSS t0"))
        .map_err(|e| e.to_string())?;
    read_until(&mut ingest_reader, "OK wss t0 ")?;

    let queue = Mutex::new(VecDeque::new());
    let stop = AtomicBool::new(false);
    let sender_stream = query.try_clone().map_err(|e| e.to_string())?;
    let (ingest_s, late_ms, (latency_ms, checks)) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| query_sender(plan, sender_stream, &queue, &stop));
        let receiver = scope.spawn(|| query_receiver(query_reader, &queue));
        let start = Instant::now();
        let mut streamed = ingest.write_all(&wire.text[wire.first_round..]);
        for _ in 1..plan.reps {
            streamed = streamed.and_then(|()| ingest.write_all(&wire.text));
        }
        let synced = streamed
            .and_then(|()| writeln!(ingest, "WSS t0"))
            .map_err(|e| e.to_string())
            .and_then(|()| read_until(&mut ingest_reader, "OK wss t0 "));
        let ingest_s = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        let late = sender.join().expect("query sender panicked");
        let received = receiver.join().expect("query receiver panicked");
        synced.map(|_| (ingest_s, late, received))
    })?;
    for check in checks {
        tally.check("open-loop query", check);
    }

    let mut query_reader = BufReader::new(query.try_clone().map_err(|e| e.to_string())?);
    for (line, expect) in want {
        let reply = request(&mut query, &mut query_reader, line)?;
        tally.check(
            line,
            (&reply == expect)
                .then_some(())
                .ok_or_else(|| format!("got {reply:?}, expected {expect:?}")),
        );
    }
    let _ = writeln!(ingest, "QUIT");
    let _ = request(&mut query, &mut query_reader, "QUIT");
    let usage = daemon.terminate().map_err(|e| e.to_string())?;
    tally.check(
        "daemon shutdown",
        (usage.code == Some(0))
            .then_some(())
            .ok_or_else(|| format!("exit {:?}", usage.code)),
    );
    Ok(Session {
        ingest_s,
        timed_accesses: wire.segment_accesses * plan.reps as u64 - wire.first_round_accesses,
        latency_ms,
        late_ms,
        usage,
    })
}

struct Prepared {
    plan: Plan,
    wire: Wire,
    want: Answers,
}

fn prepare(ctx: &Ctx, tally: &mut Tally) -> Option<Prepared> {
    let plan = Plan::new(ctx.seed, ctx.tiny);
    let blocks = plan.blocks();
    let wire = render(&plan, &blocks);
    match reference(&plan, &blocks) {
        Ok(want) => Some(Prepared { plan, wire, want }),
        Err(e) => {
            tally.check("in-process reference", Err(e));
            None
        }
    }
}

/// Untraced `serve_ingest_query`.
pub fn e2e(ctx: &Ctx, tally: &mut Tally) -> E2e {
    let mut e2e = E2e::default();
    let dir = ctx.dir("serve_ingest_query");
    let ck = dir.join("serve.json");
    let Some(p) = prepare(ctx, tally) else {
        return e2e;
    };
    ctx.timed(MIN_SESSIONS, || {
        match session(ctx, &p.plan, &p.wire, &p.want, &ck, tally) {
            Ok(s) => {
                tally.check("session", Ok(()));
                e2e.throughput.push(s.timed_accesses as f64 / s.ingest_s);
                e2e.latency_ms.extend(&s.latency_ms);
                e2e.cpu_s.push(s.usage.cpu_s);
                e2e.rss_mb.push(s.usage.peak_rss_mb);
            }
            Err(e) => tally.check("session", Err(e)),
        }
    });
    // The last session's final checkpoint is the state every restart loads.
    let saved = dir.join("restart-source.json");
    if let Err(e) = std::fs::copy(&ck, &saved) {
        tally.check("session checkpoint", Err(e.to_string()));
        return e2e;
    }
    for _ in 0..RESTARTS {
        let probe = restart_probe(ctx, &p.plan, &saved, &ck, &p.want[0]);
        if let Ok(s) = probe {
            e2e.setup_s.push(s);
        }
        tally.check("restart", probe.map(|_| ()));
    }
    e2e
}

// ---------------------------------------------------------------------------
// The traced replay
// ---------------------------------------------------------------------------

/// Delivers a flushed block to one tenant inside a `serve.record` span.
struct RecordSink<'a, 'b> {
    state: &'a mut ServeState,
    index: usize,
    local: &'a mut Local<'b>,
    parent: u32,
}

impl AccessSink for RecordSink<'_, '_> {
    fn on_access(&mut self, addr: u64) {
        self.on_block(&[addr]);
    }

    fn on_block(&mut self, block: &[u64]) {
        let RecordSink {
            state,
            index,
            local,
            parent,
        } = self;
        local.span("serve.record", *parent, || {
            state.record_block(*index, block)
        });
    }
}

/// Lines parsed per `wire.parse` span.
const LINES_PER_SPAN: usize = 4096;

/// The daemon's per-line path in process: parse, batch, record under the
/// state lock, save every `save_every` accesses; then every query verb.
fn replay(tracer: &Tracer, p: &Prepared, ck: &Path) -> (f64, ServeState) {
    let state = Mutex::new(ServeState::new(BUDGET, MAX_TENANTS).expect("valid limits"));
    let text = std::str::from_utf8(&p.wire.text).expect("protocol text is ASCII");
    let start = Instant::now();
    let mut main = tracer.local(0);
    let root = main.begin("replay", NO_PARENT);
    let mut batcher = AccessBatcher::new();
    let mut tenant = 0usize;
    let mut since_save = 0u64;
    let mut lines = Vec::with_capacity(LINES_PER_SPAN);
    for _ in 0..p.plan.reps {
        let mut rest = text.lines();
        loop {
            lines.clear();
            lines.extend(rest.by_ref().take(LINES_PER_SPAN));
            if lines.is_empty() {
                break;
            }
            let requests: Vec<Request> = main.span("wire.parse", root.id, || {
                lines
                    .iter()
                    .map(|l| parse_request(l).expect("generated lines parse"))
                    .collect()
            });
            let batch = main.begin("wire.batch", root.id);
            let batch_id = batch.id;
            let mut flush = |main: &mut Local, batcher: &mut AccessBatcher, tenant: usize| {
                let pending = batcher.pending() as u64;
                if pending == 0 {
                    return;
                }
                let mut state = state.lock().expect("state lock");
                let index = state
                    .ensure_tenant(&p.plan.tenants[tenant].0)
                    .expect("tenant fits");
                batcher.flush(&mut RecordSink {
                    state: &mut state,
                    index,
                    local: main,
                    parent: batch_id,
                });
                since_save += pending;
                if since_save >= p.plan.save_every {
                    since_save = 0;
                    main.span("serve.save", batch_id, || state.save(ck))
                        .expect("scratch directory is writable");
                }
            };
            for request in requests {
                match request {
                    Request::Access(addr) => {
                        if batcher.push(addr) {
                            flush(&mut main, &mut batcher, tenant);
                        }
                    }
                    Request::Hello(name) => {
                        flush(&mut main, &mut batcher, tenant);
                        tenant = p
                            .plan
                            .tenants
                            .iter()
                            .position(|(t, _)| t == name)
                            .expect("known tenant");
                    }
                    _ => unreachable!("the ingest stream holds only HELLO and accesses"),
                }
            }
            flush(&mut main, &mut batcher, tenant);
            main.end(batch);
        }
    }
    let state = state.into_inner().expect("state lock");
    // Each verb as the daemon answers it, reply line included; the replies
    // pass through `black_box` so none of the work can be optimised away.
    for i in 0..p.plan.query_reps {
        let name = &p.plan.tenants[i % TENANTS].0;
        black_box(main.span("serve.query.MRC", root.id, || mrc_line(name, &state)))
            .expect("known tenant");
        black_box(main.span("serve.query.MRCJ", root.id, || {
            state.mrcj_line(name, POINTS)
        }))
        .expect("known tenant");
        black_box(main.span("serve.query.WSS", root.id, || {
            state.wss(name).map(|w| format!("OK wss {name} {w}"))
        }))
        .expect("known tenant");
        let open = main.begin("serve.query.PARTITION", root.id);
        let curves = state.tenant_curves().expect("valid curves");
        let bounds = vec![Bounds::default(); curves.len()];
        let solution = main
            .span("partition.solve", open.id, || {
                partition::solve(&curves, PARTITION_BUDGET, &bounds)
            })
            .expect("solvable");
        black_box(solution.render_compact());
        main.end(open);
    }
    main.end(root);
    (start.elapsed().as_secs_f64(), state)
}

fn durations_us(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Traced `serve_ingest_query`.
pub fn traced(ctx: &Ctx, tally: &mut Tally) -> Option<Traced> {
    let dir = ctx.dir("serve_ingest_query");
    let ck = dir.join("serve.json");
    let p = prepare(ctx, tally)?;
    let s = match session(ctx, &p.plan, &p.wire, &p.want, &ck, tally) {
        Ok(s) => s,
        Err(e) => {
            tally.check("session", Err(e));
            return None;
        }
    };
    let replay_ck = dir.join("replay.json");
    let (untraced_s, _) = replay(&Tracer::new(false), &p, &replay_ck);
    let tracer = Tracer::new(true);
    let (traced_s, state) = replay(&tracer, &p, &replay_ck);
    let spans = tracer.spans();
    let _ = spans::dump(&ctx.scratch.join("spans.tsv"), "serve_ingest_query", &spans);
    tally.check(
        "replayed answers",
        match answers(&p.plan, &state) {
            Ok(a) if a == p.want => Ok(()),
            Ok(_) => Err("differ from the reference".to_string()),
            Err(e) => Err(e),
        },
    );

    let accesses = (p.wire.segment_accesses * p.plan.reps as u64) as f64;
    let lines = (p.wire.text.iter().filter(|&&b| b == b'\n').count() * p.plan.reps) as f64;
    let ns = |name: &str| spans::self_ns(&spans, name) as f64;
    let saves = spans::count(&spans, "serve.save").max(1) as f64;
    let mut layers = vec![
        Metric::new("wire.parse_ns_per_line", ns("wire.parse") / lines, "ns"),
        Metric::new(
            "wire.batch_ns_per_access",
            ns("wire.batch") / accesses,
            "ns",
        ),
        Metric::new(
            "serve.record_ns_per_access",
            ns("serve.record") / accesses,
            "ns",
        ),
    ];
    let mut in_process_us = Vec::new();
    for verb in ["MRC", "MRCJ", "WSS", "PARTITION"] {
        let us = durations_us(&spans, &format!("serve.query.{verb}"));
        layers.push(Metric::new(
            format!("serve.query_us.{verb}"),
            median(&us),
            "us",
        ));
        in_process_us.extend(us);
    }
    let checkpoint_bytes = std::fs::metadata(&replay_ck).map_or(0, |m| m.len());
    layers.extend([
        Metric::new(
            "partition.solve_us",
            median(&durations_us(&spans, "partition.solve")),
            "us",
        ),
        Metric::new("serve.save_ms", ns("serve.save") / saves / 1e6, "ms"),
        Metric::new("serve.checkpoint_bytes", checkpoint_bytes as f64, "bytes"),
        Metric::new(
            "serve.transport_residual_ms",
            median(&s.latency_ms) - median(&in_process_us) / 1e3,
            "ms",
        ),
        Metric::new("loadgen.late_ms_p90", quantile(&s.late_ms, 0.9), "ms"),
    ]);
    let per_access = |name: &str| ns(name) / accesses;
    let table = StageTable {
        item: "access",
        stages: ["wire.parse", "wire.batch", "serve.record", "serve.save"]
            .iter()
            .map(|&name| (name.to_string(), per_access(name)))
            .collect(),
        e2e: s.ingest_s * 1e9 / s.timed_accesses as f64,
    };
    Some(Traced {
        pipeline: "serve_ingest_query",
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
    fn a_corrupted_answer_differs_from_the_reference() {
        let plan = Plan::new(5, true);
        let blocks = plan.blocks();
        let want = reference(&plan, &blocks).unwrap();
        assert_eq!(reference(&plan, &blocks).unwrap(), want);
        // One access missing from one tenant changes its answers.
        let mut short = blocks.clone();
        short[0].1.pop();
        assert_ne!(reference(&plan, &short).unwrap(), want);
        assert_eq!(want.len(), 3 * TENANTS + 1);
    }

    #[test]
    fn the_wire_text_carries_every_block() {
        let plan = Plan::new(5, true);
        let blocks = plan.blocks();
        let wire = render(&plan, &blocks);
        assert_eq!(wire.segment_accesses, plan.per_tenant * TENANTS as u64);
        let hellos = wire
            .text
            .split(|&b| b == b'\n')
            .filter(|l| l.starts_with(b"HELLO"))
            .count();
        assert_eq!(hellos, blocks.len());
        assert_eq!(wire.first_round_accesses, (TENANTS * WIRE_BLOCK_LEN) as u64);
    }
}
