//! Type-erased streaming client/server pair covering every
//! [`MechanismKind`]: one report enum, one accumulator enum, one
//! [`Estimate`] out.
//!
//! [`Mechanism::run`] and the bench harness are thin drivers over this
//! path; use it directly when reports arrive incrementally (a network
//! collector, a log replay) or when partial aggregates are built by
//! separate processes and merged later:
//!
//! ```
//! use ldp_core::{Accumulator, MarginalEstimator, MechanismKind};
//! use ldp_core::user_rng;
//!
//! let mechanism = MechanismKind::MargHt.build(8, 2, 1.1);
//! let mut acc = mechanism.accumulator();
//! for user in 0..5_000u64 {
//!     let mut rng = user_rng(42, user); // each user's private RNG
//!     let report = mechanism.encode(user % 200, &mut rng);
//!     acc.absorb(&report);
//! }
//! let estimate = acc.finalize();
//! assert_eq!(estimate.marginal(ldp_bits::Mask::from_attrs(&[1, 2])).len(), 4);
//! ```

use crate::wire::{tag, Reader, WireError, Writer};
use crate::{
    Accumulator, Estimate, InpHtReport, InpRrReportRef, MargHtReport, MargPsReport, MargRrReport,
    Mechanism, MechanismKind,
};
use rand::Rng;

/// Decode a 0/1 byte back into a sign flag.
fn get_sign(r: &mut Reader<'_>) -> Result<bool, WireError> {
    match r.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::Invalid("report sign flag")),
    }
}

/// One user's report, for any [`MechanismKind`] — what
/// [`Mechanism::encode`] produces and [`MechanismAccumulator`] absorbs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MechanismReport {
    /// The perturbed one-hot vector as a bitset, 64 cells per word (see
    /// [`crate::InpRr::encode`]).
    InpRr(Vec<u64>),
    /// Perturbed input index (see [`crate::InpPs::encode`]).
    InpPs(u64),
    /// Sampled Hadamard coefficient + sign (see [`crate::InpHt::encode`]).
    InpHt(InpHtReport),
    /// Sampled marginal + perturbed table (see [`crate::MargRr::encode`]).
    MargRr(MargRrReport),
    /// Sampled marginal + perturbed cell (see [`crate::MargPs::encode`]).
    MargPs(MargPsReport),
    /// Sampled marginal + coefficient sign (see [`crate::MargHt::encode`]).
    MargHt(MargHtReport),
    /// Budget-split perturbed row (see [`crate::InpEm::encode`]).
    InpEm(u64),
    /// An InpRR report in its legacy (wire v1–v3) form: the 1-positions
    /// of the perturbed one-hot vector. Decoded from
    /// [`tag::REPORT_INP_RR`] blobs so old streams still ingest; never
    /// produced by [`Mechanism::encode`].
    InpRrList(Vec<u32>),
}

impl MechanismReport {
    /// Borrow an InpRR report in either wire form (`None` for every
    /// other mechanism) — the view [`crate::InpRrAggregator::absorb_batch_by`]
    /// takes.
    #[must_use]
    pub fn inp_rr_ref(&self) -> Option<InpRrReportRef<'_>> {
        match self {
            MechanismReport::InpRr(words) => Some(InpRrReportRef::Bits(words)),
            MechanismReport::InpRrList(positions) => Some(InpRrReportRef::Positions(positions)),
            _ => None,
        }
    }

    /// Which mechanism this report belongs to.
    #[must_use]
    pub fn kind(&self) -> MechanismKind {
        match self {
            MechanismReport::InpRr(_) | MechanismReport::InpRrList(_) => MechanismKind::InpRr,
            MechanismReport::InpPs(_) => MechanismKind::InpPs,
            MechanismReport::InpHt(_) => MechanismKind::InpHt,
            MechanismReport::MargRr(_) => MechanismKind::MargRr,
            MechanismReport::MargPs(_) => MechanismKind::MargPs,
            MechanismReport::MargHt(_) => MechanismKind::MargHt,
            MechanismReport::InpEm(_) => MechanismKind::InpEm,
        }
    }

    /// Serialize into a report frame payload (tags `REPORT_*` of
    /// [`tag`]). This is what one user transmits, so the encodings stay
    /// as close to the Table 2 communication costs as byte alignment
    /// allows.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            MechanismReport::InpRr(words) => {
                let mut w = Writer::default();
                crate::encode::put_inp_rr_bits(&mut w, words.len(), |w| {
                    words.iter().for_each(|&word| w.put_u64(word));
                });
                w.into_bytes()
            }
            MechanismReport::InpRrList(ones) => {
                let mut w = Writer::with_tag(tag::REPORT_INP_RR);
                w.put_u32_slice(ones);
                w.into_bytes()
            }
            MechanismReport::InpPs(cell) => {
                let mut w = Writer::with_tag(tag::REPORT_INP_PS);
                w.put_u64(*cell);
                w.into_bytes()
            }
            MechanismReport::InpHt(r) => {
                let mut w = Writer::with_tag(tag::REPORT_INP_HT);
                w.put_u32(r.coefficient);
                w.put_u8(u8::from(r.sign_positive));
                w.into_bytes()
            }
            MechanismReport::MargRr(r) => {
                let mut w = Writer::with_tag(tag::REPORT_MARG_RR);
                w.put_u32(r.marginal);
                w.put_u16_slice(&r.ones);
                w.into_bytes()
            }
            MechanismReport::MargPs(r) => {
                let mut w = Writer::with_tag(tag::REPORT_MARG_PS);
                w.put_u32(r.marginal);
                w.put_u16(r.cell);
                w.into_bytes()
            }
            MechanismReport::MargHt(r) => {
                let mut w = Writer::with_tag(tag::REPORT_MARG_HT);
                w.put_u32(r.marginal);
                w.put_u16(r.coefficient);
                w.put_u8(u8::from(r.sign_positive));
                w.into_bytes()
            }
            MechanismReport::InpEm(row) => {
                let mut w = Writer::with_tag(tag::REPORT_INP_EM);
                w.put_u64(*row);
                w.into_bytes()
            }
        }
    }

    /// Decode one report at a cursor, leaving the cursor on the byte
    /// after it (no trailing-bytes check) — the walk step for
    /// `REPORT_BATCH` payloads, which concatenate many self-describing
    /// report blobs. [`MechanismReport::from_bytes`] is this plus a
    /// whole-blob [`Reader::finish`].
    pub fn decode_next(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.peek() {
            Some(tag::REPORT_INP_RR_BITS) => {
                r.expect_tag(tag::REPORT_INP_RR_BITS)?;
                let mut words = Vec::new();
                r.get_u64_words_into(&mut words)?;
                Ok(MechanismReport::InpRr(words))
            }
            Some(tag::REPORT_INP_RR) => {
                r.expect_tag(tag::REPORT_INP_RR)?;
                Ok(MechanismReport::InpRrList(r.get_u32_vec()?))
            }
            Some(tag::REPORT_INP_PS) => {
                r.expect_tag(tag::REPORT_INP_PS)?;
                Ok(MechanismReport::InpPs(r.get_u64()?))
            }
            Some(tag::REPORT_INP_HT) => {
                r.expect_tag(tag::REPORT_INP_HT)?;
                let coefficient = r.get_u32()?;
                let sign_positive = get_sign(r)?;
                Ok(MechanismReport::InpHt(InpHtReport {
                    coefficient,
                    sign_positive,
                }))
            }
            Some(tag::REPORT_MARG_RR) => {
                r.expect_tag(tag::REPORT_MARG_RR)?;
                let marginal = r.get_u32()?;
                let ones = r.get_u16_vec()?;
                Ok(MechanismReport::MargRr(MargRrReport { marginal, ones }))
            }
            Some(tag::REPORT_MARG_PS) => {
                r.expect_tag(tag::REPORT_MARG_PS)?;
                let marginal = r.get_u32()?;
                let cell = r.get_u16()?;
                Ok(MechanismReport::MargPs(MargPsReport { marginal, cell }))
            }
            Some(tag::REPORT_MARG_HT) => {
                r.expect_tag(tag::REPORT_MARG_HT)?;
                let marginal = r.get_u32()?;
                let coefficient = r.get_u16()?;
                let sign_positive = get_sign(r)?;
                Ok(MechanismReport::MargHt(MargHtReport {
                    marginal,
                    coefficient,
                    sign_positive,
                }))
            }
            Some(tag::REPORT_INP_EM) => {
                r.expect_tag(tag::REPORT_INP_EM)?;
                Ok(MechanismReport::InpEm(r.get_u64()?))
            }
            _ => Err(WireError::Invalid("unknown mechanism report tag")),
        }
    }

    /// Decode a report frame payload written by
    /// [`MechanismReport::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let report = Self::decode_next(&mut r)?;
        r.finish()?;
        Ok(report)
    }

    /// Cursor form of [`MechanismReport::decode_into`]: decode one
    /// report at the cursor into `self`, reusing any heap capacity the
    /// current value already owns. On error the cursor position and
    /// `self` are unspecified (but valid); neither must be used further.
    pub fn decode_next_into(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        match (r.peek(), &mut *self) {
            (Some(tag::REPORT_INP_RR_BITS), MechanismReport::InpRr(words)) => {
                r.expect_tag(tag::REPORT_INP_RR_BITS)?;
                r.get_u64_words_into(words)
            }
            (Some(tag::REPORT_INP_RR), MechanismReport::InpRrList(ones)) => {
                r.expect_tag(tag::REPORT_INP_RR)?;
                r.get_u32_vec_into(ones)
            }
            (Some(tag::REPORT_MARG_RR), MechanismReport::MargRr(report)) => {
                r.expect_tag(tag::REPORT_MARG_RR)?;
                report.marginal = r.get_u32()?;
                r.get_u16_vec_into(&mut report.ones)
            }
            // Every other report kind is a fixed-size value: a plain
            // decode already allocates nothing.
            _ => {
                *self = MechanismReport::decode_next(r)?;
                Ok(())
            }
        }
    }

    /// Decode a report frame payload into `self`, reusing any heap
    /// capacity the current value already owns (the `InpRR` word and
    /// position buffers, the `MargRR` position buffer) — the
    /// zero-allocation decode path of the batched ingest scratch.
    /// Accepts and rejects exactly what
    /// [`MechanismReport::from_bytes`] does; on error `self` is left as
    /// some valid (but unspecified) report and must not be absorbed.
    pub fn decode_into(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = Reader::new(bytes);
        self.decode_next_into(&mut r)?;
        r.finish()
    }
}

/// Type-erased [`Accumulator`] over the seven mechanism aggregators —
/// the server half of [`Mechanism`].
///
/// Built by [`Mechanism::accumulator`]; absorbs the
/// [`MechanismReport`]s of the *same* kind (a mismatched report kind is
/// a protocol violation and panics) and finalizes into the unified
/// [`Estimate`].
#[derive(Clone, Debug)]
pub enum MechanismAccumulator {
    /// See [`crate::InpRrAggregator`]. Absorbs both report forms
    /// ([`MechanismReport::InpRr`] bitsets and legacy
    /// [`MechanismReport::InpRrList`] position lists). The faithful
    /// streaming path for `InpRR` costs `O(2^d)` per report;
    /// [`Mechanism::run`] uses the exact-in-distribution aggregate
    /// simulation instead.
    InpRr(crate::InpRrAggregator),
    /// See [`crate::InpPsAggregator`].
    InpPs(crate::InpPsAggregator),
    /// See [`crate::InpHtAggregator`].
    InpHt(crate::InpHtAggregator),
    /// See [`crate::MargRrAggregator`].
    MargRr(crate::MargRrAggregator),
    /// See [`crate::MargPsAggregator`].
    MargPs(crate::MargPsAggregator),
    /// See [`crate::MargHtAggregator`].
    MargHt(crate::MargHtAggregator),
    /// See [`crate::InpEmAggregator`].
    InpEm(crate::InpEmAggregator),
}

impl MechanismAccumulator {
    /// Which mechanism this accumulator serves.
    #[must_use]
    pub fn kind(&self) -> MechanismKind {
        match self {
            MechanismAccumulator::InpRr(_) => MechanismKind::InpRr,
            MechanismAccumulator::InpPs(_) => MechanismKind::InpPs,
            MechanismAccumulator::InpHt(_) => MechanismKind::InpHt,
            MechanismAccumulator::MargRr(_) => MechanismKind::MargRr,
            MechanismAccumulator::MargPs(_) => MechanismKind::MargPs,
            MechanismAccumulator::MargHt(_) => MechanismKind::MargHt,
            MechanismAccumulator::InpEm(_) => MechanismKind::InpEm,
        }
    }
}

#[track_caller]
fn kind_mismatch(own: MechanismKind, got: MechanismKind) -> ! {
    panic!(
        "{} accumulator cannot absorb a {} report",
        own.name(),
        got.name()
    );
}

impl Accumulator for MechanismAccumulator {
    type Report = MechanismReport;
    type Output = Estimate;

    fn absorb(&mut self, report: &MechanismReport) {
        match (&mut *self, report) {
            (MechanismAccumulator::InpRr(a), MechanismReport::InpRr(r)) => a.absorb(r),
            (MechanismAccumulator::InpRr(a), MechanismReport::InpRrList(r)) => {
                a.absorb_positions(r);
            }
            (MechanismAccumulator::InpPs(a), MechanismReport::InpPs(r)) => a.absorb(*r),
            (MechanismAccumulator::InpHt(a), MechanismReport::InpHt(r)) => a.absorb(*r),
            (MechanismAccumulator::MargRr(a), MechanismReport::MargRr(r)) => a.absorb(r),
            (MechanismAccumulator::MargPs(a), MechanismReport::MargPs(r)) => a.absorb(*r),
            (MechanismAccumulator::MargHt(a), MechanismReport::MargHt(r)) => a.absorb(*r),
            (MechanismAccumulator::InpEm(a), MechanismReport::InpEm(r)) => a.absorb(*r),
            (acc, r) => kind_mismatch(acc.kind(), r.kind()),
        }
    }

    /// Batched ingest with the accumulator dispatch hoisted out of the
    /// loop: one variant match up front, then a tight absorb loop per
    /// report (no allocation, no per-report double dispatch). `InpRR`
    /// routes through its bit-sliced batch kernel
    /// (`InpRrAggregator::absorb_batch_by`), and `InpEM` through its
    /// group-by-value kernel (`InpEmAggregator::absorb_batch_iter`), so
    /// a batch of n reports over k distinct rows costs k count-map
    /// updates instead of n.
    fn absorb_batch(&mut self, reports: &[MechanismReport]) {
        macro_rules! drain {
            ($acc:ident, $variant:ident, ref) => {
                drain!(@loop $acc, $variant, r, r)
            };
            ($acc:ident, $variant:ident, val) => {
                drain!(@loop $acc, $variant, r, *r)
            };
            (@loop $acc:ident, $variant:ident, $r:ident, $arg:expr) => {
                for report in reports {
                    match report {
                        MechanismReport::$variant($r) => $acc.absorb($arg),
                        other => kind_mismatch(MechanismKind::$variant, other.kind()),
                    }
                }
            };
        }
        match &mut *self {
            MechanismAccumulator::InpRr(a) => {
                if let Some(other) = reports.iter().find(|r| r.kind() != MechanismKind::InpRr) {
                    kind_mismatch(MechanismKind::InpRr, other.kind());
                }
                a.absorb_batch_by(reports, MechanismReport::inp_rr_ref);
            }
            MechanismAccumulator::InpPs(a) => drain!(a, InpPs, val),
            MechanismAccumulator::InpHt(a) => drain!(a, InpHt, val),
            MechanismAccumulator::MargRr(a) => drain!(a, MargRr, ref),
            MechanismAccumulator::MargPs(a) => drain!(a, MargPs, val),
            MechanismAccumulator::MargHt(a) => drain!(a, MargHt, val),
            MechanismAccumulator::InpEm(a) => {
                a.absorb_batch_iter(reports.iter().map(|r| match r {
                    MechanismReport::InpEm(row) => *row,
                    other => kind_mismatch(MechanismKind::InpEm, other.kind()),
                }));
            }
        }
    }

    fn merge(&mut self, other: Self) {
        match (&mut *self, other) {
            (MechanismAccumulator::InpRr(a), MechanismAccumulator::InpRr(b)) => a.merge(b),
            (MechanismAccumulator::InpPs(a), MechanismAccumulator::InpPs(b)) => a.merge(b),
            (MechanismAccumulator::InpHt(a), MechanismAccumulator::InpHt(b)) => a.merge(b),
            (MechanismAccumulator::MargRr(a), MechanismAccumulator::MargRr(b)) => a.merge(b),
            (MechanismAccumulator::MargPs(a), MechanismAccumulator::MargPs(b)) => a.merge(b),
            (MechanismAccumulator::MargHt(a), MechanismAccumulator::MargHt(b)) => a.merge(b),
            (MechanismAccumulator::InpEm(a), MechanismAccumulator::InpEm(b)) => a.merge(b),
            (acc, b) => panic!(
                "{} accumulator cannot merge a {} accumulator",
                acc.kind().name(),
                b.kind().name()
            ),
        }
    }

    fn report_count(&self) -> u64 {
        match self {
            MechanismAccumulator::InpRr(a) => a.report_count(),
            MechanismAccumulator::InpPs(a) => a.report_count(),
            MechanismAccumulator::InpHt(a) => a.report_count(),
            MechanismAccumulator::MargRr(a) => a.report_count(),
            MechanismAccumulator::MargPs(a) => a.report_count(),
            MechanismAccumulator::MargHt(a) => a.report_count(),
            MechanismAccumulator::InpEm(a) => a.report_count(),
        }
    }

    fn finalize(self) -> Estimate {
        match self {
            MechanismAccumulator::InpRr(a) => Estimate::Full(a.finalize()),
            MechanismAccumulator::InpPs(a) => Estimate::Full(a.finalize()),
            MechanismAccumulator::InpHt(a) => Estimate::Hadamard(a.finalize()),
            MechanismAccumulator::MargRr(a) => Estimate::MarginalSet(a.finalize()),
            MechanismAccumulator::MargPs(a) => Estimate::MarginalSet(a.finalize()),
            MechanismAccumulator::MargHt(a) => Estimate::MarginalSet(a.finalize()),
            MechanismAccumulator::InpEm(a) => Estimate::Em(a.finalize()),
        }
    }

    fn to_bytes(&self) -> Vec<u8> {
        match self {
            MechanismAccumulator::InpRr(a) => a.to_bytes(),
            MechanismAccumulator::InpPs(a) => a.to_bytes(),
            MechanismAccumulator::InpHt(a) => a.to_bytes(),
            MechanismAccumulator::MargRr(a) => a.to_bytes(),
            MechanismAccumulator::MargPs(a) => a.to_bytes(),
            MechanismAccumulator::MargHt(a) => a.to_bytes(),
            MechanismAccumulator::InpEm(a) => a.to_bytes(),
        }
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        match Reader::peek_tag(bytes) {
            Some(tag::INP_RR) => Accumulator::from_bytes(bytes).map(MechanismAccumulator::InpRr),
            Some(tag::INP_PS) => Accumulator::from_bytes(bytes).map(MechanismAccumulator::InpPs),
            Some(tag::INP_HT) => Accumulator::from_bytes(bytes).map(MechanismAccumulator::InpHt),
            Some(tag::MARG_RR) => Accumulator::from_bytes(bytes).map(MechanismAccumulator::MargRr),
            Some(tag::MARG_PS) => Accumulator::from_bytes(bytes).map(MechanismAccumulator::MargPs),
            Some(tag::MARG_HT) => Accumulator::from_bytes(bytes).map(MechanismAccumulator::MargHt),
            Some(tag::INP_EM) => Accumulator::from_bytes(bytes).map(MechanismAccumulator::InpEm),
            _ => Err(WireError::Invalid("unknown mechanism accumulator tag")),
        }
    }
}

impl Mechanism {
    /// Client side of the streaming pipeline: encode one user's record
    /// into the report this mechanism transmits, consuming this user's
    /// private randomness (see [`crate::user_rng`] for the schedule the
    /// drivers use).
    #[must_use]
    pub fn encode<R: Rng + ?Sized>(&self, row: u64, rng: &mut R) -> MechanismReport {
        match self {
            Mechanism::InpRr(m) => MechanismReport::InpRr(m.encode(row, rng)),
            Mechanism::InpPs(m) => MechanismReport::InpPs(m.encode(row, rng)),
            Mechanism::InpHt(m) => MechanismReport::InpHt(m.encode(row, rng)),
            Mechanism::MargRr(m) => MechanismReport::MargRr(m.encode(row, rng)),
            Mechanism::MargPs(m) => MechanismReport::MargPs(m.encode(row, rng)),
            Mechanism::MargHt(m) => MechanismReport::MargHt(m.encode(row, rng)),
            Mechanism::InpEm(m) => MechanismReport::InpEm(m.encode(row, rng)),
        }
    }

    /// Server side of the streaming pipeline: a fresh, empty
    /// [`MechanismAccumulator`] matching this mechanism's configuration.
    #[must_use]
    pub fn accumulator(&self) -> MechanismAccumulator {
        match self {
            Mechanism::InpRr(m) => MechanismAccumulator::InpRr(m.aggregator()),
            Mechanism::InpPs(m) => MechanismAccumulator::InpPs(m.aggregator()),
            Mechanism::InpHt(m) => MechanismAccumulator::InpHt(m.aggregator()),
            Mechanism::MargRr(m) => MechanismAccumulator::MargRr(m.aggregator()),
            Mechanism::MargPs(m) => MechanismAccumulator::MargPs(m.aggregator()),
            Mechanism::MargHt(m) => MechanismAccumulator::MargHt(m.aggregator()),
            Mechanism::InpEm(m) => MechanismAccumulator::InpEm(m.aggregator()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn streaming_matches_batched_for_every_kind() {
        for kind in [
            MechanismKind::InpRr,
            MechanismKind::InpPs,
            MechanismKind::InpHt,
            MechanismKind::MargRr,
            MechanismKind::MargPs,
            MechanismKind::MargHt,
            MechanismKind::InpEm,
        ] {
            let mech = kind.build(4, 2, 1.1);
            let mut rng = StdRng::seed_from_u64(11);
            let reports: Vec<MechanismReport> =
                (0..500u64).map(|u| mech.encode(u % 16, &mut rng)).collect();

            let mut one_by_one = mech.accumulator();
            for r in &reports {
                one_by_one.absorb(r);
            }
            let mut batched = mech.accumulator();
            batched.absorb_batch(&reports);

            assert_eq!(one_by_one.report_count(), 500, "{}", kind.name());
            assert_eq!(
                one_by_one.to_bytes(),
                batched.to_bytes(),
                "{} batched ingest diverged",
                kind.name()
            );
        }
    }

    #[test]
    fn round_trips_through_bytes_for_every_kind() {
        for kind in [
            MechanismKind::InpRr,
            MechanismKind::InpPs,
            MechanismKind::InpHt,
            MechanismKind::MargRr,
            MechanismKind::MargPs,
            MechanismKind::MargHt,
            MechanismKind::InpEm,
        ] {
            let mech = kind.build(4, 2, 0.9);
            let mut rng = StdRng::seed_from_u64(5);
            let mut acc = mech.accumulator();
            for u in 0..300u64 {
                acc.absorb(&mech.encode(u % 16, &mut rng));
            }
            let bytes = acc.to_bytes();
            let back = MechanismAccumulator::from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            assert_eq!(back.kind(), kind);
            assert_eq!(back.to_bytes(), bytes, "{} round trip", kind.name());
            assert_eq!(acc.finalize(), back.finalize(), "{} estimates", kind.name());
        }
    }

    #[test]
    #[should_panic(expected = "InpHT accumulator cannot absorb a MargPS report")]
    fn mismatched_report_kind_panics() {
        let mech = MechanismKind::InpHt.build(4, 2, 1.0);
        let other = MechanismKind::MargPs.build(4, 2, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let mut acc = mech.accumulator();
        acc.absorb(&other.encode(3, &mut rng));
    }

    #[test]
    fn rejects_garbage_bytes() {
        assert!(MechanismAccumulator::from_bytes(&[]).is_err());
        assert!(MechanismAccumulator::from_bytes(&[0xFF, 0x01, 2, 3]).is_err());
    }

    #[test]
    fn reports_round_trip_through_bytes_for_every_kind() {
        for kind in MechanismKind::ALL {
            let mech = kind.build(5, 2, 1.3);
            let mut rng = StdRng::seed_from_u64(77);
            let mut acc = mech.accumulator();
            let mut rehydrated = mech.accumulator();
            for u in 0..200u64 {
                let report = mech.encode(u % 32, &mut rng);
                let bytes = report.to_bytes();
                let back = MechanismReport::from_bytes(&bytes)
                    .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
                assert_eq!(back, report, "{} report round trip", kind.name());
                acc.absorb(&report);
                rehydrated.absorb(&back);
            }
            assert_eq!(
                acc.to_bytes(),
                rehydrated.to_bytes(),
                "{} accumulator state diverged after a report wire round trip",
                kind.name()
            );
        }
    }

    #[test]
    fn report_decode_rejects_bad_tag_truncation_and_bad_sign() {
        assert_eq!(
            MechanismReport::from_bytes(&[]),
            Err(WireError::Invalid("unknown mechanism report tag"))
        );
        assert_eq!(
            MechanismReport::from_bytes(&[0x7E, 0x01]),
            Err(WireError::Invalid("unknown mechanism report tag"))
        );

        let full = MechanismReport::InpHt(InpHtReport {
            coefficient: 9,
            sign_positive: true,
        })
        .to_bytes();
        assert_eq!(
            MechanismReport::from_bytes(&full[..full.len() - 1]),
            Err(WireError::Truncated)
        );
        let mut bad_sign = full.clone();
        *bad_sign.last_mut().unwrap() = 2;
        assert_eq!(
            MechanismReport::from_bytes(&bad_sign),
            Err(WireError::Invalid("report sign flag"))
        );

        // Trailing bytes after a complete report are rejected.
        let mut long = MechanismReport::InpPs(3).to_bytes();
        long.push(0);
        assert_eq!(
            MechanismReport::from_bytes(&long),
            Err(WireError::TrailingBytes(1))
        );

        // A MargRR ones-list that claims more elements than the blob
        // holds fails before allocating.
        let mut w = Writer::with_tag(tag::REPORT_MARG_RR);
        w.put_u32(0);
        w.put_u32(u32::MAX); // ones-length prefix with no payload
        assert_eq!(
            MechanismReport::from_bytes(&w.into_bytes()),
            Err(WireError::Truncated)
        );
    }
}
