//! One benchmark run.
//!
//! The first set-up (rows, exact marginals, the main server's bind)
//! feeds the run; the population is encoded once and pushed to the main
//! server. Then `BLOCKS` blocks each run a share of the workload's
//! cycles, each after a timed repeat of the set-up, and a slice of the
//! steady phase:
//!
//! - a *cycle* re-encodes the population under a fresh noise seed,
//!   pushes it in closed-loop bursts into a fresh server, releases
//!   every k-way marginal, stops that server and checks it;
//! - a *steady slice* drives the main server open loop: frame pushes on
//!   new connections plus live queries on one control connection.
//!
//! Interleaving spreads every metric's samples over the whole run, so
//! no metric rests on one moment of the host's speed. The main server
//! then answers idle probes and the final releases, and is checked.

use crate::checks;
use crate::cpu;
use crate::load::{ms, probe, query_loop, query_request, sender_loop, Slice, Tally};
use crate::stats::{median, nearest_rank, LatencyLog};
use crate::trace::{layer_self_ns, Tracer};
use crate::workload::{Workload, EPS, SHARDS};
use ldp_bits::{masks_of_weight, Mask};
use ldp_core::frame::{FrameReader, FrameWriter, StreamHeader};
use ldp_core::wire::Writer;
use ldp_core::{Estimate, MarginalEstimator};
use ldp_oracles::pipeline::{
    decode_report_batch_into, Client, PipelineAccumulator, PipelineEstimate,
};
use ldp_server::{push_with, Control, Request, Response, Server, ServerStats, ServerSummary};
use ldp_transform::{marginalize, total_variation_distance};
use std::ops::Range;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Blocks of (set-up, cycles, steady slice) a run interleaves.
const BLOCKS: usize = 24;
/// Timed set-ups a run repeats at least, spread over its cycles.
const SETUP_REPEATS: usize = 24;
/// Reports per encode timing sample (a run of whole frames).
const ENCODE_SAMPLE_REPORTS: usize = 1 << 16;
/// Repetitions of each idle-server probe.
const PROBES: usize = 20;
/// Repetitions of the state round trip.
const STATE_REPS: usize = 5;
/// Frames the serial replay writes into memory before reading them back.
const REPLAY_CHUNK: usize = 16;
/// Lead time before the first scheduled event of a steady slice.
const STEADY_LEAD: Duration = Duration::from_millis(20);

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run measured: metrics by name, operations, failed checks.
pub struct Outcome {
    pub metrics: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub tracer: Tracer,
    /// Human-readable lines (sample counts, the trace summary).
    pub notes: Vec<String>,
}

impl Outcome {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    fn ops(&mut self, log: &LatencyLog) {
        self.attempted += log.attempted();
        self.failed += log.failed();
    }

    /// Report a metric with the number of samples behind it.
    fn put_noted(&mut self, name: &str, value: f64, samples: usize) {
        self.put(name, value);
        self.notes
            .push(format!("{name:<24} {value:>14.6}  (n = {samples})"));
    }

    /// Report a percentile with its sample count, or fail the run.
    fn put_percentile(&mut self, name: &str, log: &LatencyLog, p: f64) {
        match log.percentile(p) {
            Ok(v) => self.put_noted(name, v, log.completed()),
            Err(e) => self.errors.push(format!("{name}: {e}")),
        }
    }
}

/// A server running on its own thread.
struct Live {
    addr: String,
    thread: JoinHandle<Result<ServerSummary, String>>,
}

impl Live {
    fn start(server: Server) -> Result<Live, String> {
        let addr = server.local_addr()?.to_string();
        Ok(Live {
            addr,
            thread: std::thread::spawn(move || server.run()),
        })
    }

    /// Ask for a graceful shutdown and wait for the server thread.
    fn stop(self, ops: &mut LatencyLog) -> Result<(), String> {
        let t = Instant::now();
        let asked = Control::connect(&self.addr).and_then(|mut c| c.request(&Request::Shutdown));
        match asked {
            Ok(_) => ops.ok(ms(t.elapsed())),
            // The thread cannot be joined without a shutdown; it ends
            // with the process.
            Err(e) => {
                ops.fail();
                return Err(format!("shutdown: {e}"));
            }
        }
        match self.thread.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("the server thread panicked".to_string()),
        }
    }
}

/// The fixed inputs of a run.
struct Ctx {
    w: Workload,
    seed: u64,
    header: StreamHeader,
    masks: Vec<Mask>,
    client: Client,
    rows: Vec<u64>,
    exact: Vec<Vec<f64>>,
}

/// Timed `Client::encode_batch` passes over the population.
#[derive(Default)]
struct Encoder {
    writer: Writer,
    /// Encode rates in M reports/s, one per `ENCODE_SAMPLE_REPORTS`.
    rates: Vec<f64>,
    reports: usize,
}

impl Encoder {
    /// Encode the population under `noise_seed` into frames, one thread.
    fn encode(&mut self, ctx: &Ctx, noise_seed: u64, tr: &mut Tracer) -> Vec<Vec<u8>> {
        let s = tr.begin("run.encode");
        let per_sample = (ENCODE_SAMPLE_REPORTS / ctx.w.frame_reports).max(1);
        let mut frames = Vec::with_capacity(ctx.rows.len() / ctx.w.frame_reports);
        let (mut secs, mut reports) = (0.0, 0);
        for (f, rows) in ctx.rows.chunks(ctx.w.frame_reports).enumerate() {
            let first_user = (f * ctx.w.frame_reports) as u64;
            let e = tr.begin("encode.encode_batch");
            let t = Instant::now();
            ctx.client
                .encode_batch(rows, noise_seed, first_user, &mut self.writer);
            secs += t.elapsed().as_secs_f64();
            tr.end(e);
            reports += rows.len();
            if (f + 1) % per_sample == 0 {
                self.rates.push(reports as f64 / secs / 1e6);
                (secs, reports) = (0.0, 0);
            }
            frames.push(self.writer.as_bytes().to_vec());
        }
        self.reports += ctx.rows.len();
        tr.end(s);
        frames
    }
}

/// Noise seed of encoding `index` (0: the main server's population).
fn noise_seed(seed: u64, index: usize) -> u64 {
    seed ^ 0x00C0_FFEE ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Every k-way marginal of a finalized estimate, in mask order, plus
/// the EM iterations and immediate EM failures (both 0 without EM).
fn release_marginals(
    est: &Estimate,
    masks: &[Mask],
    tr: &mut Tracer,
) -> (Vec<Vec<f64>>, usize, usize) {
    let mut iterations = 0;
    let mut em_failed = 0;
    let tables = masks
        .iter()
        .map(|&m| {
            let s = tr.begin("estimate.marginal");
            let table = match est {
                Estimate::Em(em) => {
                    let diag = em.decode(m);
                    iterations += diag.iterations;
                    em_failed += usize::from(diag.failed_immediately);
                    diag.estimate
                }
                other => other.marginal(m),
            };
            tr.end(s);
            table
        })
        .collect();
    (tables, iterations, em_failed)
}

/// One release: snapshot → rebuild → finalize → every k-way marginal.
struct Release {
    state: Vec<u8>,
    tables: Vec<Vec<f64>>,
    em_iterations: usize,
    em_failed: usize,
    ms: f64,
}

fn release(
    control: &mut Control,
    ctx: &Ctx,
    ops: &mut LatencyLog,
    tr: &mut Tracer,
) -> Result<Release, String> {
    let t = Instant::now();
    let s = tr.begin("run.release");
    let snapshot = probe(control, &Request::Snapshot, "server.snapshot", ops, tr);
    let result = (|| {
        let Some(Response::Snapshot { state, .. }) = snapshot else {
            return Err("snapshot request failed".to_string());
        };
        let f = tr.begin("state.from_state");
        let acc = PipelineAccumulator::from_state(&ctx.header, &state);
        tr.end(f);
        let f = tr.begin("estimate.finalize");
        let est = acc?.finalize();
        tr.end(f);
        let PipelineEstimate::Mechanism(est) = est else {
            return Err("not a mechanism pipeline".to_string());
        };
        let (tables, em_iterations, em_failed) = release_marginals(&est, &ctx.masks, tr);
        Ok((state, tables, em_iterations, em_failed))
    })();
    tr.end(s);
    let (state, tables, em_iterations, em_failed) = result?;
    Ok(Release {
        state,
        tables,
        em_iterations,
        em_failed,
        ms: ms(t.elapsed()),
    })
}

/// Serial single-thread ingest of a frame sequence: frames written to
/// memory, read back, batch-decoded and absorbed.
fn replay(
    header: &StreamHeader,
    frames: &[Vec<u8>],
    sequence: &[usize],
    tr: &mut Tracer,
) -> Result<(PipelineAccumulator, u64), String> {
    let mut acc = PipelineAccumulator::empty(header)?;
    let mut scratch = Vec::new();
    let mut payload = Vec::new();
    let mut buf = Vec::new();
    let mut reports = 0u64;
    for chunk in sequence.chunks(REPLAY_CHUNK) {
        buf.clear();
        let mut fw = FrameWriter::new(&mut buf);
        for &at in chunk {
            let s = tr.begin("wire.write_frame");
            fw.write_frame(&frames[at]).map_err(|e| e.to_string())?;
            tr.end(s);
        }
        let mut fr = FrameReader::new(&buf[..]);
        loop {
            let s = tr.begin("wire.read_frame");
            let more = fr
                .next_frame_into(&mut payload)
                .map_err(|e| e.to_string())?;
            tr.end(s);
            if !more {
                break;
            }
            let s = tr.begin("decode.decode_report_batch_into");
            let n = decode_report_batch_into(&payload, &mut scratch)?;
            tr.end(s);
            let s = tr.begin("absorb.absorb_batch");
            acc.absorb_batch(&scratch[..n])?;
            tr.end(s);
            reports += n as u64;
        }
    }
    Ok((acc, reports))
}

/// What one server acknowledged and released, for its output checks.
#[derive(Default)]
struct Served {
    /// Frame indices acknowledged, in the order the server took them.
    sequence: Vec<usize>,
    acked_reports: u64,
    sent_reports: u64,
    releases: Vec<Release>,
    stats: Option<ServerStats>,
}

/// The three output checks of one server, against a serial replay of
/// exactly the frames it acknowledged. Returns the replayed reports.
fn verify(
    ctx: &Ctx,
    frames: &[Vec<u8>],
    served: &Served,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> u64 {
    let v = tr.begin("run.verify");
    let replayed = replay(&ctx.header, frames, &served.sequence, tr);
    tr.end(v);
    let (reference, reports) = match replayed {
        Ok(r) => r,
        Err(e) => {
            out.errors.push(format!("serial replay: {e}"));
            return 0;
        }
    };
    let state = reference.to_bytes();
    let want = match reference.finalize() {
        PipelineEstimate::Mechanism(est) => {
            release_marginals(&est, &ctx.masks, &mut Tracer::new(false)).0
        }
        PipelineEstimate::Oracle(_) => Vec::new(),
    };
    for r in &served.releases {
        let checked = checks::snapshot_matches(&r.state, &state)
            .and_then(|()| checks::marginals_identical(&r.tables, &want));
        if let Err(e) = checked {
            out.errors.push(e);
        }
    }
    match &served.stats {
        Some(stats) => {
            if let Err(e) = checks::stats_reconcile(stats, served.acked_reports) {
                out.errors.push(e);
            }
        }
        None => out.errors.push("no server stats".to_string()),
    }
    if served.releases.is_empty() {
        out.errors.push("a server made no release".to_string());
    }
    reports
}

/// Push `frames[range]` on one connection, closed loop; returns the
/// wall time from connect to ack when the server acknowledged them all.
fn burst(
    addr: &str,
    ctx: &Ctx,
    frames: &[Vec<u8>],
    range: Range<usize>,
    served: &mut Served,
    ops: &mut LatencyLog,
    tr: &mut Tracer,
) -> Option<f64> {
    let n = (range.len() * ctx.w.frame_reports) as u64;
    let t = Instant::now();
    let p = tr.begin("server.push_burst");
    let acked = push_with(addr, &ctx.header, |fw| {
        for frame in &frames[range.clone()] {
            let f = tr.begin("wire.send_frame");
            fw.write_frame(frame)?;
            tr.end(f);
        }
        Ok(())
    });
    tr.end(p);
    let secs = t.elapsed().as_secs_f64();
    served.sent_reports += n;
    if acked == Ok(n) {
        ops.ok(secs * 1e3);
        served.acked_reports += n;
        served.sequence.extend(range);
        Some(secs)
    } else {
        ops.fail();
        None
    }
}

/// Run-wide samples of the cycle phases.
#[derive(Default)]
struct Samples {
    /// Per cycle: the population over the process CPU time of its bursts.
    ingest_cpu_mrps: Vec<f64>,
    /// Per cycle: the population over the summed wall time of its bursts.
    ingest_wall_mrps: Vec<f64>,
    release_ms: Vec<f64>,
    tvd: Vec<f64>,
    replayed_reports: u64,
    sent_reports: u64,
    acked_reports: u64,
}

/// One cycle: fresh noise, fresh server, burst, releases, checks.
fn cycle(
    ctx: &Ctx,
    index: usize,
    enc: &mut Encoder,
    samples: &mut Samples,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let frames = enc.encode(ctx, noise_seed(ctx.seed, index), tr);
    let s = tr.begin("run.cycle");
    let mut ops = LatencyLog::default();
    let mut served = Served::default();
    let live = match Server::bind("127.0.0.1:0", SHARDS).and_then(Live::start) {
        Ok(live) => live,
        Err(e) => {
            tr.end(s);
            out.errors.push(e);
            return;
        }
    };
    // The population goes in `bursts_per_cycle` pieces, which bounds the
    // server's queue of unabsorbed frames. The cycle's rates are the whole
    // population over the process CPU time of the bursts (client and
    // server threads together; the main server only idles meanwhile)
    // and over their summed wall time.
    let cpu0 = cpu::process_secs();
    let b = tr.begin("run.burst");
    let per_burst = frames.len() / ctx.w.bursts_per_cycle;
    let mut secs = Some(0.0);
    for first in (0..frames.len()).step_by(per_burst) {
        let range = first..(first + per_burst).min(frames.len());
        let took = burst(&live.addr, ctx, &frames, range, &mut served, &mut ops, tr);
        secs = secs.zip(took).map(|(a, b)| a + b);
    }
    tr.end(b);
    let cpu_secs = cpu::process_secs() - cpu0;
    if let Some(secs) = secs {
        let n = ctx.rows.len() as f64;
        samples.ingest_cpu_mrps.push(n / cpu_secs / 1e6);
        samples.ingest_wall_mrps.push(n / secs / 1e6);
    }
    match Control::connect(&live.addr) {
        Ok(mut control) => {
            for _ in 0..ctx.w.releases_per_cycle {
                match release(&mut control, ctx, &mut ops, tr) {
                    Ok(r) => served.releases.push(r),
                    Err(e) => out.errors.push(format!("release: {e}")),
                }
            }
            if let Some(Response::Stats(stats)) =
                probe(&mut control, &Request::Stats, "server.stats", &mut ops, tr)
            {
                served.stats = Some(stats);
            }
        }
        Err(e) => out.errors.push(format!("control connection: {e}")),
    }
    if let Err(e) = live.stop(&mut ops) {
        out.errors.push(e);
    }
    tr.end(s);
    out.ops(&ops);
    samples.replayed_reports += verify(ctx, &frames, &served, tr, out);
    samples.sent_reports += served.sent_reports;
    samples.acked_reports += served.acked_reports;
    samples
        .release_ms
        .extend(served.releases.iter().map(|r| r.ms));
    if let Some(r) = served.releases.last() {
        let tvd = ctx
            .exact
            .iter()
            .zip(&r.tables)
            .map(|(truth, guess)| total_variation_distance(truth, guess))
            .sum::<f64>()
            / ctx.masks.len() as f64;
        samples.tvd.push(tvd);
    }
}

/// One steady slice against the main server: the frame sender and the
/// live-query thread, each on its own schedule.
fn steady(
    ctx: &Ctx,
    addr: &str,
    frames: &[Vec<u8>],
    slice: Slice,
    tr: &mut Tracer,
) -> Option<(Tally, Tally)> {
    let s = tr.begin("run.steady");
    let mask = ctx.masks[0];
    let w = &ctx.w;
    let header = &ctx.header;
    let (sender, querier) = std::thread::scope(|scope| {
        let sender = scope.spawn({
            let tr = tr.fork();
            move || sender_loop(addr, header, frames, w, slice, tr)
        });
        let querier = scope.spawn({
            let tr = tr.fork();
            move || query_loop(addr, mask, w, slice, tr)
        });
        (sender.join(), querier.join())
    });
    let parent = tr.current();
    tr.end(s);
    let ((sender, sender_tr), (querier, querier_tr)) = (sender.ok()?, querier.ok()?);
    tr.adopt(sender_tr, parent);
    tr.adopt(querier_tr, parent);
    Some((sender, querier))
}

/// One set-up: rows, exact marginals and a server bind, timed.
fn setup(
    cfg: &Config,
    masks: &[Mask],
    tr: &mut Tracer,
) -> (Vec<u64>, Vec<Vec<f64>>, Result<Server, String>, f64) {
    let w = cfg.workload;
    let t = Instant::now();
    let s = tr.begin("run.setup");
    let g = tr.begin("data.generate");
    let data = w.source.generate(w.d, w.n(), cfg.seed);
    tr.end(g);
    let e = tr.begin("data.exact_marginals");
    let full = data.full_distribution();
    let exact = masks.iter().map(|&m| marginalize(&full, w.d, m)).collect();
    tr.end(e);
    let b = tr.begin("server.bind");
    let server = Server::bind("127.0.0.1:0", SHARDS);
    tr.end(b);
    tr.end(s);
    (
        data.rows().to_vec(),
        exact,
        server,
        t.elapsed().as_secs_f64(),
    )
}

pub fn run(cfg: &Config) -> Outcome {
    let mut tr = Tracer::new(cfg.trace);
    let mut out = Outcome {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        tracer: Tracer::new(false),
        notes: Vec::new(),
    };
    let root = tr.begin("run.total");
    let w = cfg.workload;
    let n = w.n();
    let header = StreamHeader::mechanism(w.kind, w.d, w.k, EPS);
    let masks: Vec<Mask> = masks_of_weight(w.d, w.k).collect();
    let (rows, exact, server, secs) = setup(cfg, &masks, &mut tr);
    let mut setup_s = vec![secs];
    let started =
        Client::from_header(&header).and_then(|client| Ok((client, Live::start(server?)?)));
    let (client, main) = match started {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let ctx = Ctx {
        w,
        seed: cfg.seed,
        header,
        masks,
        client,
        rows,
        exact,
    };

    // The population, encoded once; the main server takes it in one
    // burst, and the steady slices cycle through these frames.
    let mut enc = Encoder::default();
    let frames = enc.encode(&ctx, noise_seed(cfg.seed, 0), &mut tr);
    let wire_bytes: usize = frames.iter().map(Vec::len).sum();
    out.put("wire_bytes_per_report", wire_bytes as f64 / n as f64);
    let mut ops = LatencyLog::default();
    let mut served = Served::default();
    let all = 0..frames.len();
    burst(
        &main.addr,
        &ctx,
        &frames,
        all,
        &mut served,
        &mut ops,
        &mut tr,
    );

    // Blocks: a share of the cycles, then a steady slice.
    let mut samples = Samples::default();
    let (mut sender, mut querier) = (Tally::default(), Tally::default());
    let slice_seconds = cfg.seconds / BLOCKS as f64;
    for block in 0..BLOCKS {
        // The cycles are spread evenly over the blocks.
        for index in block * w.cycles / BLOCKS + 1..=(block + 1) * w.cycles / BLOCKS {
            // Set-up is repeated before every cycle, timed only; the
            // first set-up's outputs are the ones used.
            for _ in 0..SETUP_REPEATS.div_ceil(w.cycles) {
                setup_s.push(setup(cfg, &ctx.masks, &mut tr).3);
            }
            cycle(&ctx, index, &mut enc, &mut samples, &mut tr, &mut out);
        }
        let slice = Slice {
            t0: Instant::now() + STEADY_LEAD,
            seconds: slice_seconds,
            first_send: (block as f64 * slice_seconds * w.send_hz).round() as usize,
            first_query: (block as f64 * slice_seconds * w.query_hz).round() as usize,
        };
        match steady(&ctx, &main.addr, &frames, slice, &mut tr) {
            Some((s, q)) => {
                sender.absorb(s);
                querier.absorb(q);
            }
            None => out
                .errors
                .push("a steady-phase thread panicked".to_string()),
        }
    }
    out.ops(&sender.log);
    out.ops(&querier.log);
    served.sent_reports += sender.log.attempted() * w.frame_reports as u64;
    served.acked_reports += (sender.acked_frames.len() * w.frame_reports) as u64;
    served.sequence.extend(&sender.acked_frames);

    out.put_noted("setup_s", median(&setup_s), setup_s.len());
    // Throughputs and times report their best sample: noise on a shared
    // host only ever slows a sample down.
    out.put_noted("encode_mrps", best(&enc.rates), enc.rates.len());
    if samples.ingest_cpu_mrps.is_empty() {
        out.errors
            .push("no cycle's bursts were acknowledged in full".to_string());
    } else {
        let n = samples.ingest_cpu_mrps.len();
        out.put_noted("ingest_cpu_mrps", best(&samples.ingest_cpu_mrps), n);
        if cfg.trace {
            let wall = best(&samples.ingest_wall_mrps);
            out.put_noted("server.ingest_wall_mrps", wall, n);
        }
    }
    for (name, log) in [("ack", &sender.log), ("query", &querier.log)] {
        // The whole distribution, for reading only: no tail rule here.
        let sorted = log.sorted();
        let line: Vec<String> = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0]
            .iter()
            .filter(|_| !sorted.is_empty())
            .map(|&p| format!("p{p} {:.3}", sorted[nearest_rank(sorted.len(), p) - 1]))
            .collect();
        out.notes.push(format!(
            "{name} ms (n = {}): {}",
            sorted.len(),
            line.join(" ")
        ));
    }
    out.put_percentile("ack_p50_ms", &sender.log, 50.0);
    out.put_percentile("query_p50_ms", &querier.log, 50.0);
    if cfg.trace {
        out.put_percentile("server.ack_p99_ms", &sender.log, 99.0);
        out.put_percentile("server.query_p90_ms", &querier.log, 90.0);
    }
    let late_events = sender.late_events + querier.late_events;
    let max_late = sender.max_late.max(querier.max_late);
    out.notes.push(format!(
        "loadgen: {late_events} events started at least one interval late; \
         max lateness {:.3} ms",
        ms(max_late)
    ));

    // Idle probes, the state round trip and the final releases, on the
    // main server.
    let idle = finish_main(&ctx, &main.addr, &mut served, &mut ops, &mut tr, &mut out);
    if let Err(e) = main.stop(&mut ops) {
        out.errors.push(e);
    }
    out.ops(&ops);
    match peak_rss_mb() {
        Ok(mb) => out.put("peak_rss_mb", mb),
        Err(e) => out.errors.push(e),
    }
    tr.end(root);

    samples
        .release_ms
        .extend(served.releases.iter().map(|r| r.ms));
    if !samples.release_ms.is_empty() {
        let fastest = -best(&samples.release_ms.iter().map(|v| -v).collect::<Vec<_>>());
        out.put_noted("release_ms", fastest, samples.release_ms.len());
    }
    if !samples.tvd.is_empty() {
        let tvd = samples.tvd.iter().sum::<f64>() / samples.tvd.len() as f64;
        out.put_noted("marginal_tvd", tvd, samples.tvd.len());
    }
    samples.replayed_reports += verify(&ctx, &frames, &served, &mut tr, &mut out);
    samples.sent_reports += served.sent_reports;
    samples.acked_reports += served.acked_reports;

    if cfg.trace {
        out.put("loadgen.late_events", late_events as f64);
        out.put("loadgen.max_lateness_ms", ms(max_late));
        if let Some(last) = served.releases.last() {
            let iterations = last.em_iterations as f64 / ctx.masks.len() as f64;
            out.put("estimate.em_iterations", iterations);
            out.put("estimate.em_failed", last.em_failed as f64);
            out.put("state.snapshot_bytes", last.state.len() as f64);
        }
        if let Some(stats) = &served.stats {
            out.put("server.rejected_frames", stats.rejected_frames as f64);
        }
        out.put(
            "server.acked_ratio",
            samples.acked_reports as f64 / samples.sent_reports.max(1) as f64,
        );
        per_layer(&mut out, &tr, samples.replayed_reports, enc.reports, idle);
    }
    out.tracer = tr;
    out
}

/// The main server's closing phases: idle probes, the state round trip
/// of its live snapshot, the final releases and its stats. Returns
/// whether the probes completed.
fn finish_main(
    ctx: &Ctx,
    addr: &str,
    served: &mut Served,
    ops: &mut LatencyLog,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> bool {
    let s = tr.begin("run.probes");
    for _ in 0..PROBES {
        let t = Instant::now();
        let p = tr.begin("server.push_header_only");
        let acked = push_with(addr, &ctx.header, |_| Ok(()));
        tr.end(p);
        match acked {
            Ok(0) => ops.ok(ms(t.elapsed())),
            _ => ops.fail(),
        }
    }
    let mut control = match Control::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            tr.end(s);
            out.errors.push(format!("control connection: {e}"));
            return false;
        }
    };
    let query = query_request(ctx.masks[0]);
    for _ in 0..PROBES {
        probe(&mut control, &Request::Stats, "server.stats", ops, tr);
        probe(&mut control, &query, "server.query_idle", ops, tr);
    }
    let mut state = Vec::new();
    for _ in 0..STATE_REPS {
        let snap = probe(
            &mut control,
            &Request::Snapshot,
            "server.snapshot_idle",
            ops,
            tr,
        );
        if let Some(Response::Snapshot { state: st, .. }) = snap {
            state = st;
        }
    }
    tr.end(s);

    let s = tr.begin("run.state");
    for _ in 0..STATE_REPS {
        let f = tr.begin("state.from_state");
        let a = PipelineAccumulator::from_state(&ctx.header, &state);
        tr.end(f);
        let b = PipelineAccumulator::from_state(&ctx.header, &state);
        let (Ok(mut a), Ok(b)) = (a, b) else {
            out.errors
                .push("the live snapshot does not rebuild".to_string());
            break;
        };
        let t = tr.begin("state.to_bytes");
        let bytes = a.to_bytes();
        tr.end(t);
        if bytes != state {
            out.errors
                .push("the snapshot does not round-trip".to_string());
        }
        let m = tr.begin("state.merge");
        let merged = a.merge(b);
        tr.end(m);
        if let Err(e) = merged {
            out.errors.push(format!("merge: {e}"));
        }
    }
    tr.end(s);

    for _ in 0..ctx.w.releases_per_cycle {
        match release(&mut control, ctx, ops, tr) {
            Ok(r) => served.releases.push(r),
            Err(e) => out.errors.push(format!("release: {e}")),
        }
    }
    if let Some(Response::Stats(stats)) =
        probe(&mut control, &Request::Stats, "server.stats", ops, tr)
    {
        served.stats = Some(stats);
    }
    true
}

/// The largest sample.
fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// VmHWM of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Per-layer metrics from the traced run's spans.
fn per_layer(out: &mut Outcome, tr: &Tracer, replayed: u64, encoded: usize, idle: bool) {
    let med_ns = |name: &str| {
        let d: Vec<f64> = tr.durations_ns(name).iter().map(|&v| v as f64).collect();
        median(&d)
    };
    let per_report = |name: &str| tr.total_ns(name) as f64 / replayed.max(1) as f64;

    out.put("data.generate_s", med_ns("data.generate") / 1e9);
    out.put(
        "encode.ns_per_report",
        tr.total_ns("encode.encode_batch") as f64 / encoded.max(1) as f64,
    );
    out.put(
        "wire.frame_write_ns_per_report",
        per_report("wire.write_frame"),
    );
    out.put(
        "wire.frame_read_ns_per_report",
        per_report("wire.read_frame"),
    );
    out.put(
        "decode.ns_per_report",
        per_report("decode.decode_report_batch_into"),
    );
    out.put("absorb.ns_per_report", per_report("absorb.absorb_batch"));
    let replay_ns = per_report("wire.read_frame")
        + per_report("decode.decode_report_batch_into")
        + per_report("absorb.absorb_batch");
    out.put("ingest.replay_ns_per_report", replay_ns);
    if let Some(mrps) = out.get("ingest_cpu_mrps") {
        out.put("server.remainder_ns_per_report", 1e3 / mrps - replay_ns);
    }
    if idle {
        out.put(
            "server.connect_ack_ms",
            med_ns("server.push_header_only") / 1e6,
        );
        out.put("server.stats_rtt_ms", med_ns("server.stats") / 1e6);
        out.put("server.query_idle_ms", med_ns("server.query_idle") / 1e6);
        out.put("server.snapshot_ms", med_ns("server.snapshot_idle") / 1e6);
        out.put("state.to_bytes_us", med_ns("state.to_bytes") / 1e3);
        out.put("state.from_state_us", med_ns("state.from_state") / 1e3);
        out.put("state.merge_us", med_ns("state.merge") / 1e3);
    }
    out.put("estimate.finalize_us", med_ns("estimate.finalize") / 1e3);
    let marginals = tr.durations_ns("estimate.marginal");
    out.put(
        "estimate.marginal_us",
        marginals.iter().sum::<u64>() as f64 / marginals.len().max(1) as f64 / 1e3,
    );

    let layers = layer_self_ns(tr.spans());
    let total: u64 = layers.values().map(|&(ns, _)| ns).sum();
    out.notes.push(format!(
        "{:<10} {:>8} {:>12} {:>7}",
        "layer", "spans", "self ms", "share"
    ));
    for layer in crate::metrics::LAYERS {
        let (ns, count) = layers.get(layer).copied().unwrap_or_default();
        out.put(&format!("{layer}.self_ms"), ns as f64 / 1e6);
        out.notes.push(format!(
            "{layer:<10} {count:>8} {:>12.3} {:>6.1}%",
            ns as f64 / 1e6,
            100.0 * ns as f64 / total.max(1) as f64
        ));
    }
}
