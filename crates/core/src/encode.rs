//! Batched encode kernels: serialize many users' reports straight into
//! one reusable [`tag::REPORT_BATCH`] frame buffer.
//!
//! This mirrors the `absorb_batch` side of the ingest path: the serial
//! client path allocates a typed report plus a `to_bytes` `Vec` per
//! user (`ldp_oracles::pipeline::PipelineReport`) and then
//! concatenates them; the kernels here hoist the per-report dispatch
//! out of the loop and write each report's bytes directly into a
//! caller-owned [`Writer`], allocating nothing per report in steady
//! state. Every report is still encoded under its own
//! `user_rng(seed, user)` stream, so the bytes are identical to the
//! serial loop (`tests/encode_kernels.rs` proves this per mechanism
//! under random batch chunkings).
//!
//! This file is covered by the `ldp-lint` hot-path panic scan: no
//! indexing, no unwraps, no lossy counts.

use crate::wire::{tag, Writer};
use crate::{user_rng, InpRr, Mechanism};

impl InpRr {
    /// Append one user's [`tag::REPORT_INP_RR_BITS`] report for `row`:
    /// each 64-lane draw of [`InpRr::perturbed_words`] goes straight
    /// onto the wire, with no intermediate word buffer.
    pub fn write_report<R: rand::Rng + ?Sized>(&self, row: u64, rng: &mut R, w: &mut Writer) {
        put_inp_rr_bits(w, self.words(), |w| {
            self.perturbed_words(row, rng, |word| w.put_u64(word));
        });
    }
}

/// The one writer of the [`tag::REPORT_INP_RR_BITS`] layout: tag and
/// version, the `u32` word count, then the `count` `u64` words `fill`
/// appends (cell 0 is the LSB of word 0). Shared by the encoders above
/// and `ldp_oracles::pipeline::PipelineReport::to_bytes`.
pub fn put_inp_rr_bits(w: &mut Writer, count: usize, fill: impl FnOnce(&mut Writer)) {
    w.put_tag(tag::REPORT_INP_RR_BITS);
    w.put_u32(u32::try_from(count).unwrap_or(u32::MAX));
    fill(w);
}

impl Mechanism {
    /// Serialize one user's report for `row` directly into `w`,
    /// byte-identical to the typed report's `PipelineReport::to_bytes`
    /// appended at the writer's current position.
    pub fn encode_report_into<R: rand::Rng + ?Sized>(&self, row: u64, rng: &mut R, w: &mut Writer) {
        match self {
            Mechanism::InpRr(m) => m.write_report(row, rng, w),
            Mechanism::InpPs(m) => {
                w.put_tag(tag::REPORT_INP_PS);
                w.put_u64(m.encode(row, rng));
            }
            Mechanism::InpHt(m) => {
                let r = m.encode(row, rng);
                w.put_tag(tag::REPORT_INP_HT);
                w.put_u32(r.coefficient);
                w.put_u8(u8::from(r.sign_positive));
            }
            Mechanism::MargRr(m) => {
                let (marginal, cell) = m.sample_marginal(row, rng);
                w.put_tag(tag::REPORT_MARG_RR);
                w.put_u32(marginal);
                let prefix = w.len();
                w.put_u32(0);
                let mut count = 0u32;
                m.perturb_table(cell, rng, |c| {
                    w.put_u16(c);
                    count = count.saturating_add(1);
                });
                w.patch_u32(prefix, count);
            }
            Mechanism::MargPs(m) => {
                let r = m.encode(row, rng);
                w.put_tag(tag::REPORT_MARG_PS);
                w.put_u32(r.marginal);
                w.put_u16(r.cell);
            }
            Mechanism::MargHt(m) => {
                let r = m.encode(row, rng);
                w.put_tag(tag::REPORT_MARG_HT);
                w.put_u32(r.marginal);
                w.put_u16(r.coefficient);
                w.put_u8(u8::from(r.sign_positive));
            }
            Mechanism::InpEm(m) => {
                w.put_tag(tag::REPORT_INP_EM);
                w.put_u64(m.encode(row, rng));
            }
        }
    }

    /// Encode a batch of rows into `w` as one complete
    /// [`tag::REPORT_BATCH`] frame payload (the writer is reset first,
    /// keeping its allocation). Row `i` is encoded under
    /// `user_rng(seed, first_user + i)`, so chunking a population into
    /// batches of any size produces exactly the bytes of the serial
    /// per-user loop; the frame is byte-identical to
    /// `encode_report_batch` over the serial reports' `to_bytes` blobs.
    pub fn encode_batch(&self, rows: &[u64], seed: u64, first_user: u64, w: &mut Writer) {
        w.reset_with_tag(tag::REPORT_BATCH);
        w.put_u32(u32::try_from(rows.len()).unwrap_or(u32::MAX));
        match self {
            Mechanism::InpEm(m) => {
                // Fully branchless inner loop: one XOR mask per user,
                // with the fixed-point flip threshold hoisted.
                let fixed = m.flip_fixed();
                let d = m.d();
                for (i, &row) in rows.iter().enumerate() {
                    let mut rng = user_rng(seed, first_user.wrapping_add(i as u64));
                    w.put_tag(tag::REPORT_INP_EM);
                    w.put_u64(row ^ ldp_sampling::bernoulli_word(&mut rng, fixed, d));
                }
            }
            _ => {
                // The win is skipping the report/`Vec` round trip; the
                // InpRR and MargRR writers already stream their draws
                // straight into `w`.
                for (i, &row) in rows.iter().enumerate() {
                    let mut rng = user_rng(seed, first_user.wrapping_add(i as u64));
                    self.encode_report_into(row, &mut rng, w);
                }
            }
        }
    }
}
