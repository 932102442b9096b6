//! Batched encode kernels for the frequency oracles, plus the
//! protocol-erased [`Client::encode_batch`] entry point the CLI and the
//! load generator drive.
//!
//! Mirrors `ldp_core::Mechanism::encode_batch`: each report is encoded
//! under its own `user_rng(seed, user)` stream and written straight
//! into a reusable [`Writer`] as one [`tag::REPORT_BATCH`] frame
//! payload, byte-identical to serializing the serial `Client::encode`
//! loop's reports (`tests/encode_kernels.rs`).
//!
//! This file is covered by the `ldp-lint` hot-path panic scan: no
//! indexing, no unwraps, no lossy counts.

use crate::pipeline::Client;
use crate::streaming::Oracle;
use ldp_core::user_rng;
use ldp_core::wire::{tag, Writer};

impl Oracle {
    /// Serialize one user's report for `row` directly into `w`,
    /// byte-identical to the typed report's `PipelineReport::to_bytes`
    /// appended at the writer's current position.
    pub fn encode_report_into<R: rand::Rng + ?Sized>(&self, row: u64, rng: &mut R, w: &mut Writer) {
        match self {
            Oracle::Olh(o) => {
                let r = o.encode(row, rng);
                w.put_tag(tag::REPORT_OLH);
                w.put_u64(r.seed);
                w.put_u8(r.bucket);
            }
            Oracle::Cms(o) => {
                let (sketch_row, bucket) = o.sample_row(row, rng);
                w.put_tag(tag::REPORT_CMS);
                w.put_u8(sketch_row);
                let prefix = w.len();
                w.put_u32(0);
                let mut count = 0u32;
                o.perturb_row(bucket, rng, |b| {
                    w.put_u16(b);
                    count = count.saturating_add(1);
                });
                w.patch_u32(prefix, count);
            }
            Oracle::Hcms(o) => {
                let r = o.encode(row, rng);
                w.put_tag(tag::REPORT_HCMS);
                w.put_u8(r.row);
                w.put_u16(r.coefficient);
                w.put_u8(u8::from(r.sign_positive));
            }
        }
    }

    /// Encode a batch of values into `w` as one complete
    /// [`tag::REPORT_BATCH`] frame payload (the writer is reset first,
    /// keeping its allocation). Value `i` is encoded under
    /// `user_rng(seed, first_user + i)`.
    pub fn encode_batch(&self, rows: &[u64], seed: u64, first_user: u64, w: &mut Writer) {
        w.reset_with_tag(tag::REPORT_BATCH);
        w.put_u32(u32::try_from(rows.len()).unwrap_or(u32::MAX));
        for (i, &row) in rows.iter().enumerate() {
            let mut rng = user_rng(seed, first_user.wrapping_add(i as u64));
            self.encode_report_into(row, &mut rng, w);
        }
    }
}

impl Client {
    /// Protocol-erased batched encode: one [`tag::REPORT_BATCH`] frame
    /// payload for `rows`, written into the reusable `w`. Row `i` uses
    /// `user_rng(seed, first_user + i)`, so any chunking of a population
    /// yields the same bytes as the serial per-user loop.
    pub fn encode_batch(&self, rows: &[u64], seed: u64, first_user: u64, w: &mut Writer) {
        match self {
            Client::Mechanism(m) => m.encode_batch(rows, seed, first_user, w),
            Client::Oracle(o) => o.encode_batch(rows, seed, first_user, w),
        }
    }
}
