//! The named benchmark scenario matrix (mechanism × k × n) shared by
//! `ldp-cli bench` and the figure binaries, plus the machine-readable
//! `BENCH.json` format the CI regression gate consumes.
//!
//! A scenario names a grid of [`ScenarioPoint`]s; [`run_point`] measures
//! each one with the serving-side metrics the related sketch-serving
//! systems treat as first-class: ingest throughput (reports/sec into the
//! accumulator), merge throughput (partial-aggregate merges/sec),
//! serialized snapshot size, and wire bytes per report. `to_json` /
//! `parse_bench_json` round-trip the results through the `BENCH.json`
//! schema documented in `docs/BENCHMARKS.md`, and [`regressions`]
//! implements the CI gate: flag any point whose ingest throughput drops
//! more than `max_drop` below a committed baseline.

use crate::DataSource;
use ldp_core::frame::StreamHeader;
use ldp_core::wire::Writer;
use ldp_core::{user_rng, MechanismKind};
use ldp_oracles::pipeline::{Client, PipelineAccumulator, PipelineReport};
use std::time::Instant;

/// How a grid point is measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointMode {
    /// In-process: `absorb_batch` over a buffered report vector.
    Batch,
    /// End-to-end serving: concurrent TCP clients pushing framed report
    /// streams into a live `ldp_server::Server` over loopback.
    Serve,
}

impl PointMode {
    /// The `BENCH.json` spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PointMode::Batch => "batch",
            PointMode::Serve => "serve",
        }
    }
}

/// One measured grid point: a mechanism at a concrete (d, k, n, ε).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioPoint {
    /// Mechanism under test.
    pub mechanism: MechanismKind,
    /// Domain dimensionality.
    pub d: u32,
    /// Target marginal order.
    pub k: u32,
    /// Population size.
    pub n: usize,
    /// Privacy budget ε.
    pub eps: f64,
    /// Measurement mode (in-process batch vs live TCP serving).
    pub mode: PointMode,
    /// Batch size. For [`PointMode::Batch`] points: `0` absorbs the
    /// whole report buffer in one `absorb_batch` call; a positive
    /// value absorbs it in chunks of this many reports — the batch-size
    /// sweep that shows where the kernels' per-batch setup amortizes.
    /// For [`PointMode::Serve`] points: reports per `REPORT_BATCH`
    /// frame the clients push (wire v2); `0` pushes one frame per
    /// report (the wire-v1 shape).
    pub batch: usize,
}

/// A named benchmark scenario: the grid plus its execution parameters.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (`smoke`, `full`).
    pub name: &'static str,
    /// The measurement grid.
    pub points: Vec<ScenarioPoint>,
    /// Number of partial aggregates the merge measurement folds.
    pub merge_shards: usize,
    /// Repetitions per point (rates keep the best rep).
    pub reps: usize,
}

impl Scenario {
    /// The known scenario names.
    pub const NAMES: [&'static str; 2] = ["smoke", "full"];

    /// Look up a scenario by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Scenario> {
        let grid = |ks: &[u32], ns: &[usize]| -> Vec<ScenarioPoint> {
            let mut points = Vec::new();
            for &n in ns {
                for &k in ks {
                    for mechanism in MechanismKind::ALL {
                        points.push(ScenarioPoint {
                            mechanism,
                            d: 8,
                            k,
                            n,
                            eps: 1.1,
                            mode: PointMode::Batch,
                            batch: 0,
                        });
                    }
                }
            }
            points
        };
        let swept = |mechanism: MechanismKind, n: usize, batch: usize| ScenarioPoint {
            mechanism,
            d: 8,
            k: 2,
            n,
            eps: 1.1,
            mode: PointMode::Batch,
            batch,
        };
        let serve = |mechanism: MechanismKind, n: usize, batch: usize| ScenarioPoint {
            mechanism,
            d: 8,
            k: 2,
            n,
            eps: 1.1,
            mode: PointMode::Serve,
            batch,
        };
        match name {
            // Seconds, not minutes: the CI bench-smoke job runs this on
            // every push.
            "smoke" => Some(Scenario {
                name: "smoke",
                points: {
                    let mut points = grid(&[2], &[20_000]);
                    // Batch-size sweep: the server worker's drain bound
                    // (256) and the CLI ingest scratch (1024), on the
                    // two kernels with the most per-batch setup to
                    // amortize (InpEM's dense scratch, MargPS's GRR
                    // histogram).
                    for &batch in &[256usize, 1_024] {
                        points.push(swept(MechanismKind::InpEm, 20_000, batch));
                        points.push(swept(MechanismKind::MargPs, 20_000, batch));
                    }
                    // The encode-throughput gate's batched point: InpRR
                    // has the heaviest client (2^d coins per report), so
                    // it is where the lane-oriented encode kernels show
                    // up (batch=0 measures the serial loop above).
                    points.push(swept(MechanismKind::InpRr, 20_000, 1_024));
                    // Serve points push REPORT_BATCH frames (wire v2);
                    // the pair sweeps the client batch size around the
                    // worker drain bound. n is 10× the batch points':
                    // a serve iteration pays fixed connection-setup
                    // costs (TCP handshake, accept latency, thread
                    // spawns), and at 20k reports those costs — not
                    // the serving path — would be the measurement.
                    points.push(serve(MechanismKind::MargPs, 200_000, 1_024));
                    points.push(serve(MechanismKind::MargPs, 200_000, 256));
                    points
                },
                merge_shards: 8,
                reps: 3,
            }),
            "full" => Some(Scenario {
                name: "full",
                points: {
                    let mut points = grid(&[2, 3], &[100_000, 400_000]);
                    // Wider batch-size sweep at population scale.
                    for &batch in &[64usize, 256, 1_024, 4_096] {
                        points.push(swept(MechanismKind::InpEm, 100_000, batch));
                        points.push(swept(MechanismKind::MargPs, 100_000, batch));
                        points.push(swept(MechanismKind::InpRr, 100_000, batch));
                    }
                    // Both frame shapes at population scale: the
                    // legacy one-frame-per-report serve path and the
                    // batched wire-v2 path.
                    points.push(serve(MechanismKind::MargPs, 100_000, 0));
                    points.push(serve(MechanismKind::InpHt, 100_000, 0));
                    points.push(serve(MechanismKind::MargPs, 100_000, 1_024));
                    points
                },
                merge_shards: 8,
                reps: 3,
            }),
            _ => None,
        }
    }
}

/// The measurements of one [`ScenarioPoint`].
#[derive(Clone, Debug, PartialEq)]
pub struct PointResult {
    /// The grid point measured.
    pub point: ScenarioPoint,
    /// Client encodes/sec (best of reps). `batch == 0` measures the
    /// serial per-user `encode` loop; `batch > 0` measures the batched
    /// `encode_batch` kernel writing `REPORT_BATCH` frames into a
    /// reused `wire::Writer`.
    pub encodes_per_sec: f64,
    /// Accumulator ingest throughput, reports/sec (best of reps).
    pub reports_per_sec: f64,
    /// Partial-aggregate merges/sec (best of reps).
    pub merges_per_sec: f64,
    /// Serialized accumulator state size after ingesting all n reports.
    pub snapshot_bytes: usize,
    /// Mean serialized report size on the wire.
    pub bytes_per_report: f64,
}

/// Floor on every timed region: repeat the measured operation until at
/// least this much wall time has elapsed, so per-op rates are computed
/// over a window far above timer resolution (a sub-millisecond region
/// would make the CI regression gate flaky).
const MIN_MEASURE_SECS: f64 = 0.05;

/// Repeat `op` until [`MIN_MEASURE_SECS`] has elapsed; returns
/// `(elapsed, iterations)`.
fn time_at_least<F: FnMut()>(mut op: F) -> (f64, usize) {
    let mut iters = 0usize;
    let t0 = Instant::now();
    loop {
        op();
        iters += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= MIN_MEASURE_SECS {
            return (elapsed, iters);
        }
    }
}

/// Measure one grid point. `seed` drives both the synthetic population
/// and the per-user report randomness (via the [`user_rng`] schedule),
/// so a measurement is exactly reproducible.
#[must_use]
pub fn run_point(
    point: &ScenarioPoint,
    merge_shards: usize,
    reps: usize,
    seed: u64,
) -> PointResult {
    assert!(reps >= 1 && merge_shards >= 2);
    if point.mode == PointMode::Serve {
        return run_serve_point(point, reps, seed);
    }
    let header = StreamHeader::mechanism(point.mechanism, point.d, point.k, point.eps);
    let client = Client::from_header(&header).expect("scenario points are valid pipelines");
    let data = if point.d == 8 {
        DataSource::Taxi.generate(point.d, point.n, seed)
    } else {
        DataSource::Skewed.generate(point.d, point.n, seed)
    };

    // Client pass (timed inside the same ≥ MIN_MEASURE_SECS window as
    // the other rates): batch == 0 measures the serial per-user encode
    // loop, batch > 0 the batched kernel writing REPORT_BATCH frames
    // into one reused Writer.
    let best_encode = measure_encode(&client, data.rows(), point.batch, reps, seed);

    // The report buffer the ingest/merge measurements consume, plus the
    // wire size of what the population would transmit (untimed).
    let reports: Vec<PipelineReport> = data
        .rows()
        .iter()
        .enumerate()
        .map(|(user, &row)| {
            let mut rng = user_rng(seed, user as u64);
            client.encode(row, &mut rng)
        })
        .collect();
    let empty =
        || PipelineAccumulator::empty(&header).expect("scenario points are valid pipelines");
    let absorb = |acc: &mut PipelineAccumulator, reports: &[PipelineReport]| {
        acc.absorb_batch(reports)
            .expect("reports match their own header");
    };
    let wire_bytes: usize = reports.iter().map(|r| r.to_bytes().len()).sum();

    // Snapshot size after one full ingest (state size is count-invariant,
    // so this is independent of the timing loops below).
    let mut acc = empty();
    absorb(&mut acc, &reports);
    let snapshot_bytes = acc.to_bytes().len();

    // Server ingest: absorb the full report buffer repeatedly inside a
    // ≥ MIN_MEASURE_SECS window; best rate over `reps`. A positive
    // `point.batch` absorbs in bounded chunks instead — the shape the
    // server worker drain and the CLI ingest scratch actually run.
    let mut best_ingest = 0.0f64;
    for _ in 0..reps {
        let mut sink = empty();
        let (elapsed, iters) = time_at_least(|| {
            if point.batch == 0 {
                absorb(&mut sink, &reports);
            } else {
                for chunk in reports.chunks(point.batch) {
                    absorb(&mut sink, chunk);
                }
            }
            std::hint::black_box(&sink);
        });
        best_ingest = best_ingest.max(point.n as f64 * iters as f64 / elapsed);
    }

    // Merge: fold `merge_shards` partial aggregates (each holding an
    // n/shards slice) into one. The fold consumes its inputs, so each
    // iteration re-clones the parts; a clone-only loop is timed
    // separately and subtracted to isolate the merge cost.
    let chunk = point.n.div_ceil(merge_shards).max(1);
    let parts: Vec<_> = reports
        .chunks(chunk)
        .map(|slice| {
            let mut part = empty();
            absorb(&mut part, slice);
            part
        })
        .collect();
    let merges = parts.len().saturating_sub(1).max(1);
    let mut best_merge = 0.0f64;
    for _ in 0..reps {
        let (clone_elapsed, clone_iters) = time_at_least(|| {
            std::hint::black_box(parts.clone());
        });
        let (both_elapsed, both_iters) = time_at_least(|| {
            let mut fold = parts.clone().into_iter();
            let mut base = fold.next().expect("at least one shard");
            for part in fold {
                base.merge(part).expect("shards share one header");
            }
            std::hint::black_box(&base);
        });
        let clone_per_iter = clone_elapsed / clone_iters as f64;
        let both_per_iter = both_elapsed / both_iters as f64;
        // Guard against clone jitter swallowing the whole measurement.
        let merge_per_iter = (both_per_iter - clone_per_iter).max(both_per_iter * 0.05);
        best_merge = best_merge.max(merges as f64 / merge_per_iter);
    }

    PointResult {
        point: *point,
        encodes_per_sec: best_encode,
        reports_per_sec: best_ingest,
        merges_per_sec: best_merge,
        snapshot_bytes,
        bytes_per_report: wire_bytes as f64 / point.n as f64,
    }
}

/// Measure client encode throughput over a population (best of `reps`,
/// each rep a ≥ [`MIN_MEASURE_SECS`] window). `batch == 0` runs the
/// serial per-user `encode`; `batch > 0` runs `encode_batch` over
/// `batch`-row chunks into one reused [`Writer`] — both under the same
/// `user_rng(seed, user)` schedule, so the two rates compare the
/// kernels, not the workloads.
fn measure_encode(client: &Client, rows: &[u64], batch: usize, reps: usize, seed: u64) -> f64 {
    let n = rows.len();
    let mut best = 0.0f64;
    for _ in 0..reps {
        let (elapsed, iters) = if batch == 0 {
            time_at_least(|| {
                for (user, &row) in rows.iter().enumerate() {
                    let mut rng = user_rng(seed, user as u64);
                    std::hint::black_box(client.encode(row, &mut rng));
                }
            })
        } else {
            let mut w = Writer::default();
            time_at_least(|| {
                for (chunk_index, chunk) in rows.chunks(batch).enumerate() {
                    client.encode_batch(chunk, seed, (chunk_index * batch) as u64, &mut w);
                    std::hint::black_box(w.as_bytes());
                }
            })
        };
        best = best.max(n as f64 * iters as f64 / elapsed);
    }
    best
}

/// Concurrent TCP clients a [`PointMode::Serve`] measurement drives.
pub const SERVE_CLIENTS: usize = 4;

/// Worker (shard) count of the in-process server a serve point spins
/// up.
pub const SERVE_SHARDS: usize = 4;

/// Measure one [`PointMode::Serve`] grid point: spin up a real
/// `ldp_server::Server` on a loopback port, push pre-encoded reports
/// from [`SERVE_CLIENTS`] concurrent TCP connections — grouped into
/// `REPORT_BATCH` frames of `point.batch` reports when it is positive,
/// one frame per report when `0` — (each client waiting for the
/// server's absorbed acknowledgement), and read rates
/// off the wall clock. `reports_per_sec` is therefore the full serving
/// path — framing, TCP, connection handling, worker dispatch, absorb —
/// and `merges_per_sec` counts live snapshot requests per second (each
/// one collects and merges every worker's state and ships it back).
fn run_serve_point(point: &ScenarioPoint, reps: usize, seed: u64) -> PointResult {
    use ldp_server::{Control, Request, Response, Server};

    let header = StreamHeader::mechanism(point.mechanism, point.d, point.k, point.eps);
    let client = Client::from_header(&header).expect("scenario points are valid pipelines");
    let data = if point.d == 8 {
        DataSource::Taxi.generate(point.d, point.n, seed)
    } else {
        DataSource::Skewed.generate(point.d, point.n, seed)
    };

    // Client encode pass (timed like the batch mode), then the framed
    // wire form each client will push, built untimed.
    let best_encode = measure_encode(&client, data.rows(), point.batch, reps, seed);
    let frames: Vec<Vec<u8>> = data
        .rows()
        .iter()
        .enumerate()
        .map(|(user, &row)| {
            let mut rng = user_rng(seed, user as u64);
            client.encode_report(row, &mut rng)
        })
        .collect();
    let wire_bytes: usize = frames.iter().map(Vec::len).sum();

    let server = Server::bind("127.0.0.1:0", SERVE_SHARDS).expect("bind the bench server");
    let addr = server
        .local_addr()
        .expect("bench server address")
        .to_string();
    let server_thread = std::thread::spawn(move || server.run());

    // Contiguous per-client slices of the report stream.
    let chunk = point.n.div_ceil(SERVE_CLIENTS).max(1);
    let slices: Vec<&[Vec<u8>]> = frames.chunks(chunk).collect();

    let mut best_ingest = 0.0f64;
    for _ in 0..reps {
        let (elapsed, iters) = time_at_least(|| {
            std::thread::scope(|scope| {
                for slice in &slices {
                    let addr = addr.as_str();
                    scope.spawn(move || {
                        ldp_server::push_report_batches(addr, &header, slice, point.batch)
                            .expect("push reports to the bench server");
                    });
                }
            });
        });
        best_ingest = best_ingest.max(point.n as f64 * iters as f64 / elapsed);
    }

    // Live snapshots: collect + merge every worker's state on demand.
    let mut control = Control::connect(&addr).expect("control connection");
    let mut snapshot_bytes = 0usize;
    let mut best_snapshot = 0.0f64;
    for _ in 0..reps {
        let (elapsed, iters) =
            time_at_least(
                || match control.request(&Request::Snapshot).expect("live snapshot") {
                    Response::Snapshot { state, .. } => snapshot_bytes = state.len(),
                    other => panic!("unexpected snapshot response: {other:?}"),
                },
            );
        best_snapshot = best_snapshot.max(iters as f64 / elapsed);
    }

    control
        .request(&Request::Shutdown)
        .expect("graceful shutdown");
    server_thread
        .join()
        .expect("server thread")
        .expect("server run");

    PointResult {
        point: *point,
        encodes_per_sec: best_encode,
        reports_per_sec: best_ingest,
        merges_per_sec: best_snapshot,
        snapshot_bytes,
        bytes_per_report: wire_bytes as f64 / point.n as f64,
    }
}

/// Run every point of a scenario, invoking `progress` after each one
/// (for CLI logging; pass `|_| ()` to stay quiet).
#[must_use]
pub fn run_scenario<F: FnMut(&PointResult)>(
    scenario: &Scenario,
    seed: u64,
    mut progress: F,
) -> Vec<PointResult> {
    scenario
        .points
        .iter()
        .map(|point| {
            let result = run_point(point, scenario.merge_shards, scenario.reps, seed);
            progress(&result);
            result
        })
        .collect()
}

/// Serialize results into the `BENCH.json` document (schema v1; see
/// `docs/BENCHMARKS.md`).
#[must_use]
pub fn to_json(scenario_name: &str, results: &[PointResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!("  \"scenario\": \"{scenario_name}\",\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mechanism\": \"{}\", \"mode\": \"{}\", \"batch\": {}, \"d\": {}, \"k\": {}, \
             \"n\": {}, \"eps\": {}, \
             \"encodes_per_sec\": {:.1}, \"reports_per_sec\": {:.1}, \"merges_per_sec\": {:.1}, \
             \"snapshot_bytes\": {}, \"bytes_per_report\": {:.2}}}{}\n",
            r.point.mechanism.name(),
            r.point.mode.name(),
            r.point.batch,
            r.point.d,
            r.point.k,
            r.point.n,
            r.point.eps,
            r.encodes_per_sec,
            r.reports_per_sec,
            r.merges_per_sec,
            r.snapshot_bytes,
            r.bytes_per_report,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parse a `BENCH.json` document back into its scenario name and
/// results. Hand-rolled (the workspace builds offline, with no serde);
/// accepts exactly the subset of JSON that [`to_json`] emits, plus
/// arbitrary whitespace.
pub fn parse_bench_json(text: &str) -> Result<(String, Vec<PointResult>), String> {
    let root = json::parse(text)?;
    let obj = root.as_object().ok_or("top level is not an object")?;
    let scenario = json::get(obj, "scenario")?
        .as_str()
        .ok_or("\"scenario\" is not a string")?
        .to_string();
    let results = json::get(obj, "results")?
        .as_array()
        .ok_or("\"results\" is not an array")?;
    let mut out = Vec::new();
    for entry in results {
        let e = entry.as_object().ok_or("result entry is not an object")?;
        let name = json::get(e, "mechanism")?
            .as_str()
            .ok_or("\"mechanism\" is not a string")?;
        let mechanism = MechanismKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| format!("unknown mechanism {name:?}"))?;
        // `mode` is a schema-v1 addition: absent means "batch", so
        // documents written before serve points existed still parse.
        let mode = match e.iter().find(|(k, _)| k == "mode").map(|(_, v)| v) {
            None => PointMode::Batch,
            Some(v) => match v.as_str() {
                Some("batch") => PointMode::Batch,
                Some("serve") => PointMode::Serve,
                other => return Err(format!("unknown mode {other:?}")),
            },
        };
        // `batch` is likewise a later addition: absent means 0 (absorb
        // the whole buffer in one call), so older documents still parse.
        let batch = match e.iter().find(|(k, _)| k == "batch").map(|(_, v)| v) {
            None => 0usize,
            Some(v) => v
                .as_f64()
                .ok_or_else(|| format!("\"batch\" is not a number: {v:?}"))?
                as usize,
        };
        let num = |key: &str| -> Result<f64, String> {
            json::get(e, key)?
                .as_f64()
                .ok_or_else(|| format!("{key:?} is not a number"))
        };
        out.push(PointResult {
            point: ScenarioPoint {
                mechanism,
                d: num("d")? as u32,
                k: num("k")? as u32,
                n: num("n")? as usize,
                eps: num("eps")?,
                mode,
                batch,
            },
            encodes_per_sec: num("encodes_per_sec")?,
            reports_per_sec: num("reports_per_sec")?,
            merges_per_sec: num("merges_per_sec")?,
            snapshot_bytes: num("snapshot_bytes")? as usize,
            bytes_per_report: num("bytes_per_report")?,
        });
    }
    Ok((scenario, out))
}

/// The per-point drop allowance: `serve` points gate at 1.5× the batch
/// threshold (capped below 1), because end-to-end loopback TCP rates
/// carry scheduler noise an in-process `absorb_batch` loop does not.
#[must_use]
pub fn allowed_drop(mode: PointMode, max_drop: f64) -> f64 {
    match mode {
        PointMode::Batch => max_drop,
        PointMode::Serve => (max_drop * 1.5).min(0.95),
    }
}

/// How far a point's `bytes_per_report` may exceed its baseline before
/// the gate fails. Report sizes depend on the seed but not on the
/// machine, so unlike the throughput allowances this needs no room for
/// timing noise: any real growth of the wire format past the Table 2
/// costs the baselines record trips it.
pub const MAX_BYTES_GROWTH: f64 = 0.02;

/// The CI regression gate: one message per grid point whose ingest
/// throughput — or client encode throughput — dropped more than its
/// allowance (`max_drop` for batch points, [`allowed_drop`] for serve
/// points) below the baseline, or whose mean wire size per report grew
/// more than [`MAX_BYTES_GROWTH`] above it. Points missing from either
/// side are reported too — a silently narrowed grid must not pass as
/// "no regressions".
#[must_use]
pub fn regressions(
    current: &[PointResult],
    baseline: &[PointResult],
    max_drop: f64,
) -> Vec<String> {
    let key = |p: &ScenarioPoint| {
        (
            p.mechanism.name(),
            p.mode,
            p.batch,
            p.d,
            p.k,
            p.n,
            p.eps.to_bits(),
        )
    };
    let label = |p: &ScenarioPoint| {
        let batch = if p.batch > 0 {
            format!(" batch={}", p.batch)
        } else {
            String::new()
        };
        format!(
            "{} [{}]{batch} d={} k={} n={}",
            p.mechanism.name(),
            p.mode.name(),
            p.d,
            p.k,
            p.n
        )
    };
    let mut problems = Vec::new();
    for base in baseline {
        match current.iter().find(|c| key(&c.point) == key(&base.point)) {
            None => problems.push(format!(
                "{}: missing from current results",
                label(&base.point)
            )),
            Some(cur) => {
                let allowance = allowed_drop(base.point.mode, max_drop);
                let floor = base.reports_per_sec * (1.0 - allowance);
                if cur.reports_per_sec < floor {
                    problems.push(format!(
                        "{}: {:.0} reports/sec is {:.0}% below baseline {:.0} (floor {:.0})",
                        label(&cur.point),
                        cur.reports_per_sec,
                        (1.0 - cur.reports_per_sec / base.reports_per_sec) * 100.0,
                        base.reports_per_sec,
                        floor
                    ));
                }
                let encode_floor = base.encodes_per_sec * (1.0 - allowance);
                if cur.encodes_per_sec < encode_floor {
                    problems.push(format!(
                        "{}: {:.0} encodes/sec is {:.0}% below baseline {:.0} (floor {:.0})",
                        label(&cur.point),
                        cur.encodes_per_sec,
                        (1.0 - cur.encodes_per_sec / base.encodes_per_sec) * 100.0,
                        base.encodes_per_sec,
                        encode_floor
                    ));
                }
                let bytes_ceiling = base.bytes_per_report * (1.0 + MAX_BYTES_GROWTH);
                if cur.bytes_per_report > bytes_ceiling {
                    problems.push(format!(
                        "{}: {:.2} bytes/report is {:.1}% above baseline {:.2} (ceiling {:.2})",
                        label(&cur.point),
                        cur.bytes_per_report,
                        (cur.bytes_per_report / base.bytes_per_report - 1.0) * 100.0,
                        base.bytes_per_report,
                        bytes_ceiling
                    ));
                }
            }
        }
    }
    for cur in current {
        if !baseline.iter().any(|b| key(&b.point) == key(&cur.point)) {
            problems.push(format!(
                "{}: not in the baseline — refresh it so this point is gated",
                label(&cur.point)
            ));
        }
    }
    problems
}

/// Minimal JSON reader for the `BENCH.json` subset (objects, arrays,
/// strings without escapes beyond `\"` and `\\`, numbers, booleans,
/// null).
mod json {
    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number, as `f64`.
        Num(f64),
        /// A string literal.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in document order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(fields) => Some(fields),
                _ => None,
            }
        }
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(v) => Some(*v),
                _ => None,
            }
        }
    }

    /// Fetch a required object field.
    pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
        obj.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// Parse a complete JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing JSON content at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if *pos < b.len() && b[*pos] == ch {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(ch), *pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => parse_object(b, pos),
            Some(b'[') => parse_array(b, pos),
            Some(b'"') => parse_string(b, pos).map(Value::Str),
            Some(b't') => parse_literal(b, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_literal(b, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_literal(b, pos, "null", Value::Null),
            Some(_) => parse_number(b, pos),
            None => Err("unexpected end of JSON".to_string()),
        }
    }

    fn parse_literal(b: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", *pos))
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        other => return Err(format!("unsupported escape {other:?}")),
                    }
                    *pos += 1;
                }
                c => {
                    out.push(char::from(c));
                    *pos += 1;
                }
            }
        }
        Err("unterminated string".to_string())
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            expect(b, pos, b':')?;
            let value = parse_value(b, pos)?;
            fields.push((key, value));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_point(mechanism: MechanismKind) -> ScenarioPoint {
        ScenarioPoint {
            mechanism,
            d: 4,
            k: 2,
            n: 2_000,
            eps: 1.1,
            mode: PointMode::Batch,
            batch: 0,
        }
    }

    #[test]
    fn known_scenarios_resolve_and_unknown_do_not() {
        for name in Scenario::NAMES {
            let s = Scenario::by_name(name).unwrap();
            assert_eq!(s.name, name);
            assert!(!s.points.is_empty());
        }
        assert!(Scenario::by_name("nope").is_none());
        // The smoke grid covers every mechanism, plus a batch-size
        // pair of serve points.
        let smoke = Scenario::by_name("smoke").unwrap();
        for kind in MechanismKind::ALL {
            assert!(smoke.points.iter().any(|p| p.mechanism == kind));
        }
        let serve: Vec<_> = smoke
            .points
            .iter()
            .filter(|p| p.mode == PointMode::Serve)
            .collect();
        assert_eq!(serve.len(), 2);
        assert!(serve.iter().all(|p| p.batch > 0));
    }

    #[test]
    fn run_point_produces_finite_positive_metrics() {
        let r = run_point(&tiny_point(MechanismKind::MargPs), 4, 1, 7);
        assert!(r.encodes_per_sec > 0.0 && r.encodes_per_sec.is_finite());
        assert!(r.reports_per_sec > 0.0 && r.reports_per_sec.is_finite());
        assert!(r.merges_per_sec > 0.0 && r.merges_per_sec.is_finite());
        assert!(r.snapshot_bytes > 0);
        assert!(r.bytes_per_report > 0.0);
    }

    #[test]
    fn bench_json_round_trips() {
        let results = vec![
            run_point(&tiny_point(MechanismKind::InpHt), 4, 1, 7),
            run_point(&tiny_point(MechanismKind::InpEm), 4, 1, 7),
        ];
        let text = to_json("smoke", &results);
        let (name, back) = parse_bench_json(&text).unwrap();
        assert_eq!(name, "smoke");
        assert_eq!(back.len(), results.len());
        for (b, r) in back.iter().zip(&results) {
            assert_eq!(b.point.mechanism, r.point.mechanism);
            assert_eq!(b.snapshot_bytes, r.snapshot_bytes);
            // Rates go through a one-decimal text form.
            assert!((b.reports_per_sec - r.reports_per_sec).abs() <= 0.06);
        }
    }

    #[test]
    fn serve_points_run_and_round_trip() {
        let point = ScenarioPoint {
            mode: PointMode::Serve,
            n: 1_000,
            ..tiny_point(MechanismKind::MargPs)
        };
        let r = run_point(&point, 4, 1, 7);
        assert!(r.reports_per_sec > 0.0 && r.reports_per_sec.is_finite());
        assert!(r.merges_per_sec > 0.0 && r.merges_per_sec.is_finite());
        assert!(r.snapshot_bytes > 0);
        let text = to_json("smoke", std::slice::from_ref(&r));
        assert!(text.contains("\"mode\": \"serve\""), "{text}");
        let (_, back) = parse_bench_json(&text).unwrap();
        assert_eq!(back[0].point.mode, PointMode::Serve);
        assert_eq!(back[0].snapshot_bytes, r.snapshot_bytes);
    }

    #[test]
    fn mode_defaults_to_batch_for_pre_serve_documents() {
        let legacy = r#"{"scenario": "x", "results": [{"mechanism": "InpHT", "d": 4,
            "k": 2, "n": 10, "eps": 1.0, "encodes_per_sec": 1, "reports_per_sec": 1,
            "merges_per_sec": 1, "snapshot_bytes": 1, "bytes_per_report": 1}]}"#;
        let (_, results) = parse_bench_json(legacy).unwrap();
        assert_eq!(results[0].point.mode, PointMode::Batch);
    }

    #[test]
    fn serve_points_get_a_wider_regression_allowance() {
        assert_eq!(allowed_drop(PointMode::Batch, 0.30), 0.30);
        assert!((allowed_drop(PointMode::Serve, 0.30) - 0.45).abs() < 1e-12);
        let base = run_point(&tiny_point(MechanismKind::MargHt), 4, 1, 7);
        let mut serve_base = base.clone();
        serve_base.point.mode = PointMode::Serve;
        let mut serve_cur = serve_base.clone();
        // A 40% drop trips the 30% batch gate but not the 45% serve one.
        serve_cur.reports_per_sec = serve_base.reports_per_sec * 0.6;
        assert!(regressions(
            std::slice::from_ref(&serve_cur),
            std::slice::from_ref(&serve_base),
            0.30
        )
        .is_empty());
        // Batch and serve points never match each other.
        assert_eq!(
            regressions(
                std::slice::from_ref(&base),
                std::slice::from_ref(&serve_base),
                0.30
            )
            .len(),
            2
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse_bench_json("").is_err());
        assert!(parse_bench_json("{\"scenario\": \"x\"}").is_err()); // no results
        assert!(parse_bench_json("{\"scenario\": 3, \"results\": []}").is_err());
        assert!(parse_bench_json("[1,2,3]").is_err());
        assert!(parse_bench_json("{\"scenario\": \"x\", \"results\": []} trailing").is_err());
        let bad_mech = r#"{"scenario": "x", "results": [{"mechanism": "Nope", "d": 4,
            "k": 2, "n": 10, "eps": 1.0, "encodes_per_sec": 1, "reports_per_sec": 1,
            "merges_per_sec": 1, "snapshot_bytes": 1, "bytes_per_report": 1}]}"#;
        assert!(parse_bench_json(bad_mech).is_err());
    }

    #[test]
    fn batched_points_run_round_trip_and_key_separately() {
        // A chunked ingest must produce the same accumulator state (and
        // valid rates) as the one-call point.
        let whole = tiny_point(MechanismKind::InpEm);
        let chunked = ScenarioPoint {
            batch: 128,
            ..whole
        };
        let a = run_point(&whole, 4, 1, 7);
        let b = run_point(&chunked, 4, 1, 7);
        assert_eq!(a.snapshot_bytes, b.snapshot_bytes);
        assert!(b.reports_per_sec > 0.0 && b.reports_per_sec.is_finite());

        let text = to_json("smoke", &[a.clone(), b.clone()]);
        assert!(text.contains("\"batch\": 0"), "{text}");
        assert!(text.contains("\"batch\": 128"), "{text}");
        let (_, back) = parse_bench_json(&text).unwrap();
        assert_eq!(back[0].point.batch, 0);
        assert_eq!(back[1].point.batch, 128);

        // Different batch sizes are different grid points: comparing one
        // against the other reports both sides as missing.
        assert_eq!(
            regressions(std::slice::from_ref(&a), std::slice::from_ref(&b), 0.30).len(),
            2
        );
    }

    #[test]
    fn batch_defaults_to_zero_for_pre_sweep_documents() {
        let legacy = r#"{"scenario": "x", "results": [{"mechanism": "InpHT", "d": 4,
            "k": 2, "n": 10, "eps": 1.0, "encodes_per_sec": 1, "reports_per_sec": 1,
            "merges_per_sec": 1, "snapshot_bytes": 1, "bytes_per_report": 1}]}"#;
        let (_, results) = parse_bench_json(legacy).unwrap();
        assert_eq!(results[0].point.batch, 0);
        let bad = r#"{"scenario": "x", "results": [{"mechanism": "InpHT", "batch": "big",
            "d": 4, "k": 2, "n": 10, "eps": 1.0, "encodes_per_sec": 1, "reports_per_sec": 1,
            "merges_per_sec": 1, "snapshot_bytes": 1, "bytes_per_report": 1}]}"#;
        assert!(parse_bench_json(bad).is_err());
    }

    #[test]
    fn gate_passes_exactly_at_threshold_and_fails_just_below() {
        let base = run_point(&tiny_point(MechanismKind::MargHt), 4, 1, 7);
        // Exactly at the floor is not a regression: the gate is strict.
        let mut at_floor = base.clone();
        at_floor.reports_per_sec = base.reports_per_sec * (1.0 - 0.30);
        assert!(regressions(
            std::slice::from_ref(&at_floor),
            std::slice::from_ref(&base),
            0.30
        )
        .is_empty());
        // Any measurable amount below the floor is.
        let mut below = base.clone();
        below.reports_per_sec = base.reports_per_sec * (1.0 - 0.30) * 0.999;
        assert_eq!(
            regressions(
                std::slice::from_ref(&below),
                std::slice::from_ref(&base),
                0.30
            )
            .len(),
            1
        );
    }

    #[test]
    fn wire_bytes_per_report_are_gated() {
        let base = run_point(&tiny_point(MechanismKind::InpRr), 4, 1, 7);
        // InpRR reports are fixed-size bitsets: 6 + 8·⌈2^d/64⌉ bytes.
        let words = (1u64 << base.point.d).div_ceil(64);
        assert_eq!(base.bytes_per_report, (6 + 8 * words) as f64);
        // Growth up to the 2% allowance passes; fewer bytes always do.
        for factor in [1.0 + MAX_BYTES_GROWTH, 0.5] {
            let mut cur = base.clone();
            cur.bytes_per_report = base.bytes_per_report * factor;
            assert!(regressions(
                std::slice::from_ref(&cur),
                std::slice::from_ref(&base),
                0.30
            )
            .is_empty());
        }
        // Past it, the point fails even with both rates unchanged —
        // e.g. a fall back to the ~263-byte index-list report.
        let mut grown = base.clone();
        grown.bytes_per_report = base.bytes_per_report * (1.0 + MAX_BYTES_GROWTH) * 1.001;
        let problems = regressions(
            std::slice::from_ref(&grown),
            std::slice::from_ref(&base),
            0.30,
        );
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("bytes/report"), "{problems:?}");
    }

    #[test]
    fn encode_throughput_is_gated_too() {
        let base = run_point(&tiny_point(MechanismKind::MargHt), 4, 1, 7);
        // A halved encode rate trips the gate even when ingest holds.
        let mut slow_encode = base.clone();
        slow_encode.encodes_per_sec = base.encodes_per_sec * 0.5;
        let problems = regressions(
            std::slice::from_ref(&slow_encode),
            std::slice::from_ref(&base),
            0.30,
        );
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("encodes/sec"), "{problems:?}");
        // Exactly at the floor passes — same strictness as ingest.
        let mut at_floor = base.clone();
        at_floor.encodes_per_sec = base.encodes_per_sec * (1.0 - 0.30);
        assert!(regressions(
            std::slice::from_ref(&at_floor),
            std::slice::from_ref(&base),
            0.30
        )
        .is_empty());
        // Both rates dropping reports both problems for the one point.
        let mut both = base.clone();
        both.encodes_per_sec = base.encodes_per_sec * 0.5;
        both.reports_per_sec = base.reports_per_sec * 0.5;
        assert_eq!(
            regressions(
                std::slice::from_ref(&both),
                std::slice::from_ref(&base),
                0.30
            )
            .len(),
            2
        );
    }

    #[test]
    fn batched_encode_points_measure_the_kernel() {
        // batch > 0 routes the encode measurement through encode_batch
        // (REPORT_BATCH frames into a reused Writer); the rate must be
        // a valid gating key and the ingest state unchanged.
        let whole = tiny_point(MechanismKind::InpRr);
        let chunked = ScenarioPoint { batch: 64, ..whole };
        let a = run_point(&whole, 4, 1, 7);
        let b = run_point(&chunked, 4, 1, 7);
        assert!(b.encodes_per_sec > 0.0 && b.encodes_per_sec.is_finite());
        assert_eq!(a.snapshot_bytes, b.snapshot_bytes);
    }

    #[test]
    fn serve_allowance_caps_below_one() {
        // Even an absurd --max-regress cannot widen a serve point's
        // allowance into "any throughput passes".
        assert!((allowed_drop(PointMode::Serve, 0.90) - 0.95).abs() < 1e-12);
        assert_eq!(allowed_drop(PointMode::Batch, 0.90), 0.90);
    }

    #[test]
    fn regression_gate_flags_drops_and_missing_points() {
        let base = run_point(&tiny_point(MechanismKind::MargHt), 4, 1, 7);
        let mut slow = base.clone();
        slow.reports_per_sec = base.reports_per_sec * 0.5;
        let mut fine = base.clone();
        fine.reports_per_sec = base.reports_per_sec * 0.8;

        // 50% drop trips a 30% gate; 20% drop does not.
        assert_eq!(
            regressions(&[slow.clone()], std::slice::from_ref(&base), 0.30).len(),
            1
        );
        assert!(regressions(&[fine], std::slice::from_ref(&base), 0.30).is_empty());
        // A point missing from either side is itself a failure: dropped
        // from the run, or added without a baseline entry to gate it.
        assert_eq!(regressions(&[], std::slice::from_ref(&base), 0.30).len(), 1);
        assert_eq!(regressions(std::slice::from_ref(&base), &[], 0.30).len(), 1);
    }
}
