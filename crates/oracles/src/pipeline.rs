//! Protocol plumbing shared by every process that speaks the framed
//! pipeline — the `ldp-cli` subcommands, the `ldp_server` aggregation
//! server, and the bench harness: one client type and one accumulator
//! type spanning the seven marginal mechanisms *and* the three
//! frequency oracles, keyed by the [`StreamHeader`] that travels as
//! frame 0 of every stream and snapshot.
//!
//! This crate hosts the module because it is the lowest layer that can
//! see both protocol families (`ldp_oracles` depends on `ldp_core`).

use crate::streaming::{
    build_oracle, Oracle, OracleAccumulator, OracleEstimate, OracleKind, OracleReport,
};
use ldp_core::frame::StreamHeader;
use ldp_core::wire::{tag, Reader, Writer};
use ldp_core::{
    Accumulator, Estimate, InpRrAggregator, Mechanism, MechanismAccumulator, MechanismKind,
    MechanismReport,
};
use rand::Rng;

/// A protocol named on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// One of the seven marginal mechanisms.
    Mechanism(MechanismKind),
    /// One of the three frequency oracles.
    Oracle(OracleKind),
}

impl Protocol {
    /// Parse a command-line protocol name (case-insensitive).
    pub fn parse(name: &str) -> Result<Protocol, String> {
        let lower = name.to_ascii_lowercase();
        for kind in MechanismKind::ALL {
            if kind.name().to_ascii_lowercase() == lower {
                return Ok(Protocol::Mechanism(kind));
            }
        }
        for kind in OracleKind::ALL {
            if kind.name().to_ascii_lowercase() == lower {
                return Ok(Protocol::Oracle(kind));
            }
        }
        Err(format!(
            "unknown protocol {name:?}; expected one of {}",
            Protocol::names().join(", ")
        ))
    }

    /// Every accepted protocol name, in display form.
    pub fn names() -> Vec<&'static str> {
        MechanismKind::ALL
            .iter()
            .map(|k| k.name())
            .chain(OracleKind::ALL.iter().map(|k| k.name()))
            .collect()
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Mechanism(k) => k.name(),
            Protocol::Oracle(k) => k.name(),
        }
    }

    /// The protocol a header names, if its tag is known.
    #[must_use]
    pub fn from_header(header: &StreamHeader) -> Option<Protocol> {
        if let Some(kind) = header.mechanism_kind() {
            return Some(Protocol::Mechanism(kind));
        }
        OracleKind::from_wire_tag(header.protocol).map(Protocol::Oracle)
    }
}

/// The sketch shape flags (`--hashes`, `--width`, `--family-seed`) an
/// oracle pipeline carries in its header; ignored by mechanisms.
#[derive(Clone, Copy, Debug)]
pub struct SketchShape {
    /// Hash count `g` (sketch rows).
    pub hashes: u32,
    /// Row width `w`.
    pub width: u32,
    /// Seed of the public hash family.
    pub family_seed: u64,
}

/// Build the stream header for a protocol at concrete parameters.
pub fn header_for(
    protocol: Protocol,
    d: u32,
    k: u32,
    eps: f64,
    sketch: SketchShape,
) -> StreamHeader {
    match protocol {
        Protocol::Mechanism(kind) => StreamHeader::mechanism(kind, d, k, eps),
        Protocol::Oracle(kind) => StreamHeader::oracle(
            kind.wire_tag(),
            d,
            eps,
            sketch.hashes,
            sketch.width,
            sketch.family_seed,
        ),
    }
}

/// The client half of a pipeline: encodes rows into report frames.
pub enum Client {
    /// A mechanism client.
    Mechanism(Mechanism),
    /// A frequency-oracle client.
    Oracle(Oracle),
}

/// Reject parameter combinations the protocol constructors would panic
/// on, with a message naming the offending flag/field. Applied to
/// headers from the command line *and* from incoming streams, so a
/// corrupt or hostile header degrades to an error instead of crashing
/// the collector process.
fn validate_header(header: &StreamHeader) -> Result<(), String> {
    match header.mechanism_kind() {
        Some(MechanismKind::InpRr) => {
            if !(1..=24).contains(&header.d) {
                return Err(format!(
                    "InpRR materializes 2^d cells; need d ≤ 24, got {}",
                    header.d
                ));
            }
        }
        Some(kind @ (MechanismKind::InpPs | MechanismKind::InpEm)) => {
            if !(1..=26).contains(&header.d) {
                return Err(format!(
                    "{} materializes 2^d cells; need d ≤ 26, got {}",
                    kind.name(),
                    header.d
                ));
            }
        }
        Some(kind @ (MechanismKind::MargRr | MechanismKind::MargPs | MechanismKind::MargHt)) => {
            if header.k > 16 {
                return Err(format!(
                    "{} materializes 2^k marginal tables; need k ≤ 16, got {}",
                    kind.name(),
                    header.k
                ));
            }
        }
        Some(MechanismKind::InpHt) => {}
        None => match OracleKind::from_wire_tag(header.protocol) {
            Some(OracleKind::Olh) => {
                if !(1..=40).contains(&header.d) {
                    return Err(format!("OLH needs d ≤ 40, got {}", header.d));
                }
                // g = ⌈e^ε⌉ + 1 must fit the u8 bucket in OlhReport.
                if header.eps > 255f64.ln() {
                    return Err(format!(
                        "OLH buckets are reported as one byte; need eps ≤ ln(255) ≈ 5.54, got {}",
                        header.eps
                    ));
                }
            }
            Some(OracleKind::Cms) | Some(OracleKind::Hcms) => {
                if !(1..=255).contains(&header.hashes) {
                    return Err(format!(
                        "sketch needs 1 ≤ hashes ≤ 255, got {}",
                        header.hashes
                    ));
                }
                if header.width < 2 || header.width > 1 << 16 {
                    return Err(format!(
                        "sketch needs 2 ≤ width ≤ 65536, got {}",
                        header.width
                    ));
                }
                if OracleKind::from_wire_tag(header.protocol) == Some(OracleKind::Hcms)
                    && !header.width.is_power_of_two()
                {
                    return Err(format!(
                        "HCMS width must be a power of two, got {}",
                        header.width
                    ));
                }
            }
            None => {}
        },
    }
    Ok(())
}

impl Client {
    /// Rebuild the client a header describes.
    pub fn from_header(header: &StreamHeader) -> Result<Client, String> {
        validate_header(header)?;
        if let Some(mech) = header.build_mechanism() {
            return Ok(Client::Mechanism(mech));
        }
        if let Some(oracle) = build_oracle(header) {
            return Ok(Client::Oracle(oracle));
        }
        Err(format!(
            "header names unknown protocol tag {:#04x}",
            header.protocol
        ))
    }

    /// Encode one user's record into a typed report.
    pub fn encode<R: Rng + ?Sized>(&self, row: u64, rng: &mut R) -> PipelineReport {
        match self {
            Client::Mechanism(m) => PipelineReport::Mechanism(m.encode(row, rng)),
            Client::Oracle(o) => PipelineReport::Oracle(o.encode(row, rng)),
        }
    }

    /// Encode one user's record into a report frame payload.
    pub fn encode_report<R: Rng + ?Sized>(&self, row: u64, rng: &mut R) -> Vec<u8> {
        self.encode(row, rng).to_bytes()
    }
}

/// One user's report, for either protocol family — what a report frame
/// payload decodes into.
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineReport {
    /// A marginal-mechanism report (frame tags `0x21`–`0x28`).
    Mechanism(MechanismReport),
    /// A frequency-oracle report (frame tags `0x31`–`0x33`).
    Oracle(OracleReport),
}

impl PipelineReport {
    /// Serialize into a report frame payload.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            PipelineReport::Mechanism(r) => r.to_bytes(),
            PipelineReport::Oracle(r) => r.to_bytes(),
        }
    }

    /// Decode one report starting at the cursor of `r` (self-describing
    /// by its tag byte) and leave the cursor on the byte after it — the
    /// walk step used by [`decode_report_batch_into`]. No
    /// trailing-bytes check; callers that decode a standalone payload
    /// should use [`PipelineReport::from_bytes`] instead.
    pub fn decode_next(r: &mut Reader<'_>) -> Result<Self, String> {
        match r.peek() {
            Some(0x21..=0x2F) => MechanismReport::decode_next(r)
                .map(PipelineReport::Mechanism)
                .map_err(|e| format!("bad report frame: {e}")),
            Some(0x31..=0x3F) => OracleReport::decode_next(r)
                .map(PipelineReport::Oracle)
                .map_err(|e| format!("bad report frame: {e}")),
            Some(t) => Err(format!("bad report frame: unknown report tag {t:#04x}")),
            None => Err("bad report frame: empty payload".to_string()),
        }
    }

    /// Decode a report frame payload (self-describing by its leading
    /// tag byte).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        let report = Self::decode_next(&mut r)?;
        r.finish().map_err(|e| format!("bad report frame: {e}"))?;
        Ok(report)
    }

    /// Cursor form of [`PipelineReport::decode_into`]: decode the next
    /// report out of `r` into `self`, reusing heap capacity when the
    /// report family matches. On error the cursor position is
    /// unspecified and `self` is some valid (but unspecified) report
    /// that must not be absorbed.
    pub fn decode_next_into(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        match (r.peek(), &mut *self) {
            (Some(0x21..=0x2F), PipelineReport::Mechanism(m)) => m
                .decode_next_into(r)
                .map_err(|e| format!("bad report frame: {e}")),
            (Some(0x31..=0x3F), PipelineReport::Oracle(o)) => o
                .decode_next_into(r)
                .map_err(|e| format!("bad report frame: {e}")),
            _ => {
                *self = PipelineReport::decode_next(r)?;
                Ok(())
            }
        }
    }

    /// Decode a report frame payload into `self`, reusing any heap
    /// capacity the current value already owns — the zero-allocation
    /// decode path of the batched ingest scratch (see
    /// `MechanismReport::decode_into` and `OracleReport::decode_into`).
    /// Accepts and rejects exactly what [`PipelineReport::from_bytes`]
    /// does; on error `self` is left as some valid (but unspecified)
    /// report and must not be absorbed.
    pub fn decode_into(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(bytes);
        self.decode_next_into(&mut r)?;
        r.finish().map_err(|e| format!("bad report frame: {e}"))
    }

    /// Display name of the protocol this report belongs to.
    #[must_use]
    pub fn protocol_name(&self) -> &'static str {
        match self {
            PipelineReport::Mechanism(r) => r.kind().name(),
            PipelineReport::Oracle(r) => r.kind().name(),
        }
    }

    /// The accumulator type tag (`StreamHeader::protocol`) of the
    /// protocol this report belongs to.
    #[must_use]
    pub fn protocol_tag(&self) -> u8 {
        match self {
            PipelineReport::Mechanism(r) => r.kind().wire_tag(),
            PipelineReport::Oracle(r) => r.kind().wire_tag(),
        }
    }

    /// Check this report against the stream header it arrived under,
    /// with the rule [`PipelineAccumulator::absorb`] applies: it must
    /// belong to the header's protocol, and an InpRR bitset must fit
    /// the header's `2^d` cells. A stream consumer that routes reports
    /// to accumulators elsewhere (the collector's worker pool) calls
    /// this first, so a report it accepted is one every accumulator
    /// built from `header` absorbs.
    pub fn check_header(&self, header: &StreamHeader) -> Result<(), String> {
        if self.protocol_tag() != header.protocol {
            return Err(format!(
                "stream mixes protocols: header names tag {:#04x}, report is {}",
                header.protocol,
                self.protocol_name()
            ));
        }
        if let PipelineReport::Mechanism(MechanismReport::InpRr(words)) = self {
            InpRrAggregator::check_bits(header.d, words).map_err(|e| format!("bad report: {e}"))?;
        }
        Ok(())
    }
}

/// The smallest encodable report blob: tag + version + a 4-byte field
/// (an InpRR report with an empty word or position list). Used to reject batch
/// frames whose count prefix claims more reports than the payload
/// could possibly hold, before any decode work happens.
const MIN_REPORT_BLOB_BYTES: u64 = 6;

/// Build one [`tag::REPORT_BATCH`] frame payload (wire v2) out of
/// pre-encoded report frame payloads: a `u32` count followed by the
/// blobs back to back, each self-describing via its own tag byte.
///
/// The count prefix saturates at `u32::MAX`, which no encodable batch
/// can reach: the 1 GiB frame cap holds fewer than `2^28` copies of
/// even the smallest report blob.
#[must_use]
pub fn encode_report_batch<B: AsRef<[u8]>>(reports: &[B]) -> Vec<u8> {
    let mut w = Writer::with_tag(tag::REPORT_BATCH);
    w.put_u32(u32::try_from(reports.len()).unwrap_or(u32::MAX));
    for report in reports {
        w.put_raw(report.as_ref());
    }
    w.into_bytes()
}

/// Decode a [`tag::REPORT_BATCH`] frame payload into a reusable
/// scratch vector, returning the number of reports decoded. Existing
/// `scratch` slots are refilled in place (reusing their heap capacity)
/// and the vector grows only when the batch is larger than any seen
/// before; entries past the returned count are stale leftovers that
/// must not be absorbed.
///
/// Rejects, without panicking: a non-batch tag, an unsupported
/// version, a count that cannot fit in the payload, a payload that
/// ends mid-report, and trailing bytes after the final report.
pub fn decode_report_batch_into(
    payload: &[u8],
    scratch: &mut Vec<PipelineReport>,
) -> Result<usize, String> {
    let mut r = Reader::new(payload);
    r.expect_tag(tag::REPORT_BATCH)
        .map_err(|e| format!("bad report batch frame: {e}"))?;
    let count = r
        .get_u32()
        .map_err(|e| format!("bad report batch frame: {e}"))?;
    if u64::from(count) * MIN_REPORT_BLOB_BYTES > r.remaining() as u64 {
        return Err(format!(
            "bad report batch frame: count {count} cannot fit in {} payload bytes",
            r.remaining()
        ));
    }
    let want = usize::try_from(count).unwrap_or(usize::MAX);
    let mut filled = 0usize;
    while filled < want {
        if r.remaining() == 0 {
            return Err(format!(
                "bad report batch frame: payload ends after {filled} of {count} reports"
            ));
        }
        if let Some(slot) = scratch.get_mut(filled) {
            slot.decode_next_into(&mut r)?;
        } else {
            scratch.push(PipelineReport::decode_next(&mut r)?);
        }
        filled += 1;
    }
    r.finish()
        .map_err(|e| format!("bad report batch frame: {e}"))?;
    Ok(filled)
}

/// The server half: a type-erased accumulator for either protocol
/// family.
pub enum PipelineAccumulator {
    /// Accumulator for a marginal mechanism.
    Mechanism(MechanismAccumulator),
    /// Accumulator for a frequency oracle.
    Oracle(OracleAccumulator),
}

impl PipelineAccumulator {
    /// A fresh, empty accumulator matching a header.
    pub fn empty(header: &StreamHeader) -> Result<Self, String> {
        match Client::from_header(header)? {
            Client::Mechanism(m) => Ok(PipelineAccumulator::Mechanism(m.accumulator())),
            Client::Oracle(o) => Ok(PipelineAccumulator::Oracle(o.accumulator())),
        }
    }

    /// Rehydrate serialized accumulator state, verifying it matches the
    /// snapshot's header.
    pub fn from_state(header: &StreamHeader, state: &[u8]) -> Result<Self, String> {
        if state.first() != Some(&header.protocol) {
            return Err(format!(
                "snapshot state tag {:?} does not match header protocol {:#04x}",
                state.first(),
                header.protocol
            ));
        }
        if header.mechanism_kind().is_some() {
            MechanismAccumulator::from_bytes(state)
                .map(PipelineAccumulator::Mechanism)
                .map_err(|e| format!("bad mechanism snapshot state: {e}"))
        } else if OracleKind::from_wire_tag(header.protocol).is_some() {
            OracleAccumulator::from_bytes(state)
                .map(PipelineAccumulator::Oracle)
                .map_err(|e| format!("bad oracle snapshot state: {e}"))
        } else {
            Err(format!(
                "header names unknown protocol tag {:#04x}",
                header.protocol
            ))
        }
    }

    /// Absorb one decoded report. Rejects, by name and absorbing
    /// nothing, a report of another protocol and an InpRR bitset whose
    /// word count is not the accumulator's `⌈2^d/64⌉` (or that sets a
    /// bit past cell `2^d − 1`). Mismatched bitsets are rejected rather
    /// than folded, so a corrupt or foreign-`d` report can never
    /// miscount into the state; legacy InpRR position lists keep their
    /// fold-mod-`2^d` rule.
    pub fn absorb(&mut self, report: &PipelineReport) -> Result<(), String> {
        if !self.accepts(report) {
            return Err(self.refusal(report));
        }
        match (self, report) {
            (PipelineAccumulator::Mechanism(acc), PipelineReport::Mechanism(report)) => {
                acc.absorb(report);
            }
            (PipelineAccumulator::Oracle(acc), PipelineReport::Oracle(report)) => {
                acc.absorb(report);
            }
            // `accepts` refused every other pairing.
            _ => {}
        }
        Ok(())
    }

    /// Absorb one report frame payload.
    pub fn absorb_report(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.absorb(&PipelineReport::from_bytes(bytes)?)
    }

    /// Whether [`PipelineAccumulator::absorb`] would accept this report.
    fn accepts(&self, report: &PipelineReport) -> bool {
        match (self, report) {
            (
                PipelineAccumulator::Mechanism(MechanismAccumulator::InpRr(acc)),
                PipelineReport::Mechanism(MechanismReport::InpRr(words)),
            ) => acc.check_report(words).is_ok(),
            (PipelineAccumulator::Mechanism(a), PipelineReport::Mechanism(r)) => {
                a.kind() == r.kind()
            }
            (PipelineAccumulator::Oracle(a), PipelineReport::Oracle(r)) => a.kind() == r.kind(),
            _ => false,
        }
    }

    /// The named error for a report [`PipelineAccumulator::accepts`]
    /// refused.
    fn refusal(&self, report: &PipelineReport) -> String {
        if let (
            PipelineAccumulator::Mechanism(MechanismAccumulator::InpRr(acc)),
            PipelineReport::Mechanism(MechanismReport::InpRr(words)),
        ) = (self, report)
        {
            if let Err(e) = acc.check_report(words) {
                return format!("bad report: {e}");
            }
        }
        format!(
            "stream mixes protocols: {} accumulator got a {} report",
            self.protocol_name(),
            report.protocol_name()
        )
    }

    /// Absorb a buffer of decoded reports with the protocol dispatch
    /// and kind check hoisted out of the hot loop: one validation pass,
    /// then the type-erased batch kernels (`InpRR` routes through its
    /// bit-sliced kernel, `InpEM` through its group-by-value kernel).
    /// Rejects the whole batch — absorbing nothing — if any report
    /// fails [`PipelineAccumulator::absorb`]'s checks, where the serial
    /// loop would have absorbed the prefix before the offending report.
    pub fn absorb_batch(&mut self, reports: &[PipelineReport]) -> Result<(), String> {
        if let Some(bad) = reports.iter().find(|r| !self.accepts(r)) {
            return Err(self.refusal(bad));
        }
        match self {
            PipelineAccumulator::Mechanism(MechanismAccumulator::InpRr(a)) => {
                a.absorb_batch_by(reports, |r| match r {
                    PipelineReport::Mechanism(m) => m.inp_rr_ref(),
                    PipelineReport::Oracle(_) => None,
                });
            }
            PipelineAccumulator::Mechanism(MechanismAccumulator::InpEm(a)) => {
                a.absorb_batch_iter(reports.iter().map(|r| match r {
                    PipelineReport::Mechanism(MechanismReport::InpEm(row)) => *row,
                    _ => unreachable!("batch verified homogeneous"),
                }));
            }
            PipelineAccumulator::Mechanism(acc) => {
                for report in reports {
                    if let PipelineReport::Mechanism(r) = report {
                        Accumulator::absorb(acc, r);
                    }
                }
            }
            PipelineAccumulator::Oracle(acc) => {
                for report in reports {
                    if let PipelineReport::Oracle(r) = report {
                        Accumulator::absorb(acc, r);
                    }
                }
            }
        }
        Ok(())
    }

    /// Fold another partial aggregate of the same protocol into this
    /// one.
    pub fn merge(&mut self, other: PipelineAccumulator) -> Result<(), String> {
        match (self, other) {
            (PipelineAccumulator::Mechanism(a), PipelineAccumulator::Mechanism(b)) => {
                if a.kind() != b.kind() {
                    return Err(format!(
                        "cannot merge a {} snapshot into a {} snapshot",
                        b.kind().name(),
                        a.kind().name()
                    ));
                }
                a.merge(b);
                Ok(())
            }
            (PipelineAccumulator::Oracle(a), PipelineAccumulator::Oracle(b)) => {
                if a.kind() != b.kind() {
                    return Err(format!(
                        "cannot merge a {} snapshot into a {} snapshot",
                        b.kind().name(),
                        a.kind().name()
                    ));
                }
                a.merge(b);
                Ok(())
            }
            _ => Err("cannot merge a mechanism snapshot with an oracle snapshot".to_string()),
        }
    }

    /// Display name of the protocol this accumulator serves.
    #[must_use]
    pub fn protocol_name(&self) -> &'static str {
        match self {
            PipelineAccumulator::Mechanism(a) => a.kind().name(),
            PipelineAccumulator::Oracle(a) => a.kind().name(),
        }
    }

    /// Reports absorbed so far (summed across merges).
    pub fn report_count(&self) -> u64 {
        match self {
            PipelineAccumulator::Mechanism(a) => a.report_count(),
            PipelineAccumulator::Oracle(a) => a.report_count(),
        }
    }

    /// Serialized state for the snapshot's state frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            PipelineAccumulator::Mechanism(a) => a.to_bytes(),
            PipelineAccumulator::Oracle(a) => a.to_bytes(),
        }
    }

    /// Finalize into the queryable estimate.
    pub fn finalize(self) -> PipelineEstimate {
        match self {
            PipelineAccumulator::Mechanism(a) => PipelineEstimate::Mechanism(a.finalize()),
            PipelineAccumulator::Oracle(a) => PipelineEstimate::Oracle(a.finalize()),
        }
    }
}

/// What a finalized snapshot answers queries through.
pub enum PipelineEstimate {
    /// Marginal tables (see `ldp_core::MarginalEstimator`).
    Mechanism(Estimate),
    /// Per-value frequencies (see [`crate::FrequencyOracle`]).
    Oracle(OracleEstimate),
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn typed_reports_round_trip_for_both_families() {
        let mut rng = StdRng::seed_from_u64(11);
        for header in [
            StreamHeader::mechanism(MechanismKind::MargPs, 6, 2, 1.1),
            crate::streaming::oracle_header(OracleKind::Hcms, 6, 1.1, 3, 16, 9),
        ] {
            let client = Client::from_header(&header).unwrap();
            let mut acc = PipelineAccumulator::empty(&header).unwrap();
            for u in 0..50u64 {
                let report = client.encode(u % 64, &mut rng);
                let back = PipelineReport::from_bytes(&report.to_bytes()).unwrap();
                assert_eq!(back, report);
                acc.absorb(&back).unwrap();
            }
            assert_eq!(acc.report_count(), 50);
        }
    }

    #[test]
    fn batch_payload_round_trips_and_reuses_scratch() {
        let mut rng = StdRng::seed_from_u64(29);
        for header in [
            StreamHeader::mechanism(MechanismKind::InpRr, 6, 2, 1.1),
            crate::streaming::oracle_header(OracleKind::Cms, 6, 1.1, 3, 16, 9),
        ] {
            let client = Client::from_header(&header).unwrap();
            let reports: Vec<PipelineReport> = (0..17u64)
                .map(|u| client.encode(u % 64, &mut rng))
                .collect();
            let blobs: Vec<Vec<u8>> = reports.iter().map(PipelineReport::to_bytes).collect();
            let payload = encode_report_batch(&blobs);
            assert_eq!(payload[0], tag::REPORT_BATCH);

            let mut scratch = Vec::new();
            let n = decode_report_batch_into(&payload, &mut scratch).unwrap();
            assert_eq!(n, reports.len());
            assert_eq!(&scratch[..n], &reports[..]);

            // A second decode into the same scratch refills slots in
            // place; a smaller batch leaves stale tail entries behind.
            let small = encode_report_batch(&blobs[..3]);
            let n = decode_report_batch_into(&small, &mut scratch).unwrap();
            assert_eq!(n, 3);
            assert_eq!(&scratch[..3], &reports[..3]);
            assert_eq!(scratch.len(), reports.len());
        }
    }

    #[test]
    fn batch_payload_edge_counts_round_trip() {
        let empty: [&[u8]; 0] = [];
        let payload = encode_report_batch(&empty);
        let mut scratch = Vec::new();
        assert_eq!(decode_report_batch_into(&payload, &mut scratch), Ok(0));

        let mut rng = StdRng::seed_from_u64(5);
        let header = StreamHeader::mechanism(MechanismKind::MargPs, 6, 2, 1.1);
        let report = Client::from_header(&header).unwrap().encode(9, &mut rng);
        let payload = encode_report_batch(&[report.to_bytes()]);
        assert_eq!(decode_report_batch_into(&payload, &mut scratch), Ok(1));
        assert_eq!(scratch[0], report);
    }

    #[test]
    fn batch_decode_rejects_corruption_without_panicking() {
        let mut rng = StdRng::seed_from_u64(7);
        let header = StreamHeader::mechanism(MechanismKind::MargPs, 6, 2, 1.1);
        let client = Client::from_header(&header).unwrap();
        let blobs: Vec<Vec<u8>> = (0..4u64)
            .map(|u| client.encode(u, &mut rng).to_bytes())
            .collect();
        let good = encode_report_batch(&blobs);
        let mut scratch = Vec::new();

        // Truncated anywhere inside the report region: never a panic,
        // always an error mentioning the batch or report frame.
        for cut in 0..good.len() - 1 {
            let err = decode_report_batch_into(&good[..cut], &mut scratch).unwrap_err();
            assert!(err.starts_with("bad report"), "cut {cut}: {err}");
        }

        // Count prefix claims more reports than the payload can hold,
        // including the overflow extreme near the frame cap.
        for claim in [5u32, u32::MAX] {
            let mut forged = good.clone();
            forged[2..6].copy_from_slice(&claim.to_le_bytes());
            let err = decode_report_batch_into(&forged, &mut scratch).unwrap_err();
            assert!(err.contains("bad report batch frame"), "{err}");
        }

        // Count prefix claims fewer reports: the leftover blobs are
        // trailing bytes, not silently dropped data.
        let mut forged = good.clone();
        forged[2..6].copy_from_slice(&3u32.to_le_bytes());
        let err = decode_report_batch_into(&forged, &mut scratch).unwrap_err();
        assert!(err.contains("trailing"), "{err}");

        // Wrong envelope tag and a future envelope version.
        let err = decode_report_batch_into(&blobs[0], &mut scratch).unwrap_err();
        assert!(err.contains("bad report batch frame"), "{err}");
        let mut forged = good.clone();
        forged[1] = ldp_core::wire::VERSION + 1;
        let err = decode_report_batch_into(&forged, &mut scratch).unwrap_err();
        assert!(err.contains("unsupported"), "{err}");
    }

    #[test]
    fn absorb_rejects_cross_family_and_garbage_reports() {
        let mech_header = StreamHeader::mechanism(MechanismKind::MargPs, 6, 2, 1.1);
        let oracle_header = crate::streaming::oracle_header(OracleKind::Olh, 6, 1.1, 3, 16, 9);
        let mut rng = StdRng::seed_from_u64(3);
        let oracle_report = Client::from_header(&oracle_header)
            .unwrap()
            .encode(1, &mut rng);
        let mut acc = PipelineAccumulator::empty(&mech_header).unwrap();
        let err = acc.absorb(&oracle_report).unwrap_err();
        assert!(err.contains("mixes protocols"), "{err}");
        assert!(PipelineReport::from_bytes(&[0x7F, 1]).is_err());
        assert!(PipelineReport::from_bytes(&[]).is_err());
        assert_eq!(acc.report_count(), 0);
    }
}
