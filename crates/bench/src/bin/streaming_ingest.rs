#![forbid(unsafe_code)]
//! Streaming-ingest experiment: reports/sec and accumulator memory of
//! the incremental accumulator path vs materializing every report
//! before aggregating.
//!
//! ```text
//! cargo run --release -p ldp_bench --bin streaming_ingest [n] [d] [k] [eps]
//! ```
//!
//! Defaults: n = 200,000 taxi users, d = 8, k = 2, ε = 1.1. For each
//! mechanism the harness runs the same per-user seed schedule twice:
//!
//! * **streaming** — `encode → absorb` per user; the only server state
//!   ever held is the accumulator (its compact serialized size is
//!   reported as `acc state`);
//! * **materialized** — collect all n reports into a buffer first
//!   (`report buf` estimates its heap footprint), then `absorb_batch`.
//!
//! Both paths must produce byte-identical accumulator state — the
//! partition/order-invariance law of `ldp_core::Accumulator` — which is asserted
//! before anything is printed. The interesting columns at scale: the
//! accumulator state is O(mechanism dimensions), independent of n,
//! while the report buffer grows linearly with n.

use ldp_bench::DataSource;
use ldp_core::frame::StreamHeader;
use ldp_core::{user_rng, MechanismKind};
use ldp_oracles::pipeline::{Client, PipelineAccumulator, PipelineReport};
use std::time::Instant;

/// Approximate heap footprint of a materialized report buffer, in bytes.
fn report_buffer_bytes(reports: &[PipelineReport]) -> usize {
    let inline = std::mem::size_of::<PipelineReport>();
    reports
        .iter()
        .map(|r| {
            inline
                + match r {
                    PipelineReport::InpRr(words) => words.len() * std::mem::size_of::<u64>(),
                    PipelineReport::InpRrList(ones) => ones.len() * std::mem::size_of::<u32>(),
                    PipelineReport::MargRr(r) => r.ones.len() * std::mem::size_of::<u16>(),
                    PipelineReport::Cms(r) => r.ones.len() * std::mem::size_of::<u16>(),
                    _ => 0,
                }
        })
        .sum()
}

fn human(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1} MiB", bytes as f64 / (1u64 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1} KiB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut next = |default: f64| -> f64 {
        args.next()
            .map_or(default, |a| a.parse().expect("arguments must be numeric"))
    };
    let n = next(200_000.0) as usize;
    let d = next(8.0) as u32;
    let k = next(2.0) as u32;
    let eps = next(1.1);
    let seed = 42u64;

    println!("population n = {n}, d = {d}, k = {k}, eps = {eps}");
    println!("(InpRR runs its faithful O(2^d)-per-user client here, not the run_fast simulation)");
    println!();
    let data = DataSource::Taxi.generate(d, n, seed);

    println!(
        "{:>8}  {:>12}  {:>12}  {:>12}  {:>12}  {:>9}",
        "", "stream", "reports/s", "batch", "report buf", "acc state"
    );
    for kind in MechanismKind::ALL {
        let header = StreamHeader::mechanism(kind, d, k, eps);
        let client = Client::from_header(&header).expect("valid parameters");
        let empty = || PipelineAccumulator::empty(&header).expect("valid parameters");

        // Streaming: one report in flight at a time.
        let t0 = Instant::now();
        let mut acc = empty();
        for (user, &row) in data.rows().iter().enumerate() {
            let mut rng = user_rng(seed, user as u64);
            acc.absorb(&client.encode(row, &mut rng))
                .expect("a report of the pipeline's own protocol");
        }
        let t_stream = t0.elapsed();

        // Materialized: all reports buffered, then batch-absorbed.
        let reports: Vec<PipelineReport> = data
            .rows()
            .iter()
            .enumerate()
            .map(|(user, &row)| {
                let mut rng = user_rng(seed, user as u64);
                client.encode(row, &mut rng)
            })
            .collect();
        let buffer_bytes = report_buffer_bytes(&reports);
        let t0 = Instant::now();
        let mut batched = empty();
        batched
            .absorb_batch(&reports)
            .expect("reports of the pipeline's own protocol");
        let t_batch = t0.elapsed();

        let state = acc.to_bytes();
        assert_eq!(
            state,
            batched.to_bytes(),
            "{} streaming and batched state diverged",
            kind.name()
        );
        println!(
            "{:>8}  {:>10.1?}  {:>12.0}  {:>10.1?}  {:>12}  {:>9}",
            kind.name(),
            t_stream,
            n as f64 / t_stream.as_secs_f64(),
            t_batch,
            human(buffer_bytes),
            human(state.len()),
        );
    }
}
