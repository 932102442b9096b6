//! Protocol plumbing shared by every process that speaks the framed
//! pipeline — the `ldp-cli` subcommands, the `ldp_server` aggregation
//! server, and the bench harness — and the one type-erased layer over
//! the seven marginal mechanisms *and* the three frequency oracles:
//! [`PipelineReport`] has one variant per report wire tag and
//! [`PipelineAccumulator`] one per protocol, each holding the typed
//! report or aggregator directly, keyed by the [`StreamHeader`] that
//! travels as frame 0 of every stream and snapshot. Every report
//! decoder and every report writer lives here, with the one encode
//! kernel ([`Client::encode_batch`]) and the one acceptance rule
//! ([`ReportRule`]).
//!
//! This crate hosts the module because it is the lowest layer that can
//! see both protocol families (`ldp_oracles` depends on `ldp_core`).
//!
//! This file is covered by the `ldp-lint` hot-path panic scan: no
//! indexing, no unwraps, no lossy counts.

use crate::streaming::{build_oracle, Oracle, OracleEstimate, OracleKind};
use crate::{
    CmsAggregator, CmsReport, HadamardCmsAggregator, HcmsReport, OlhAggregator, OlhReport,
};
use ldp_core::frame::StreamHeader;
use ldp_core::wire::{tag, Reader, U16List, WireError, Writer};
use ldp_core::{
    user_rng, Accumulator, Estimate, InpEmAggregator, InpHtAggregator, InpHtReport,
    InpPsAggregator, InpRrAggregator, InpRrReportRef, MargHtAggregator, MargHtReport,
    MargPsAggregator, MargPsReport, MargRrAggregator, MargRrReport, Mechanism, MechanismKind,
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
        Protocol::from_wire_tag(header.protocol)
    }

    /// The protocol an accumulator type tag (`StreamHeader::protocol`)
    /// names, if it is known.
    #[must_use]
    pub fn from_wire_tag(t: u8) -> Option<Protocol> {
        MechanismKind::from_wire_tag(t)
            .map(Protocol::Mechanism)
            .or_else(|| OracleKind::from_wire_tag(t).map(Protocol::Oracle))
    }
}

/// Display name of the protocol an accumulator type tag names.
fn protocol_name(t: u8) -> &'static str {
    Protocol::from_wire_tag(t).map_or("unknown", Protocol::name)
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
            Client::Mechanism(Mechanism::InpRr(m)) => PipelineReport::InpRr(m.encode(row, rng)),
            Client::Mechanism(Mechanism::InpPs(m)) => PipelineReport::InpPs(m.encode(row, rng)),
            Client::Mechanism(Mechanism::InpHt(m)) => PipelineReport::InpHt(m.encode(row, rng)),
            Client::Mechanism(Mechanism::MargRr(m)) => PipelineReport::MargRr(m.encode(row, rng)),
            Client::Mechanism(Mechanism::MargPs(m)) => PipelineReport::MargPs(m.encode(row, rng)),
            Client::Mechanism(Mechanism::MargHt(m)) => PipelineReport::MargHt(m.encode(row, rng)),
            Client::Mechanism(Mechanism::InpEm(m)) => PipelineReport::InpEm(m.encode(row, rng)),
            Client::Oracle(Oracle::Olh(o)) => PipelineReport::Olh(o.encode(row, rng)),
            Client::Oracle(Oracle::Cms(o)) => PipelineReport::Cms(o.encode(row, rng)),
            Client::Oracle(Oracle::Hcms(o)) => PipelineReport::Hcms(o.encode(row, rng)),
        }
    }

    /// Encode one user's record into a report frame payload.
    pub fn encode_report<R: Rng + ?Sized>(&self, row: u64, rng: &mut R) -> Vec<u8> {
        self.encode(row, rng).to_bytes()
    }

    /// Serialize one user's report for `row` straight into `w`: the
    /// bytes of `self.encode(row, rng).to_bytes()`, drawn from `rng`
    /// in the same order, appended at the writer's current position.
    pub fn encode_report_into<R: Rng + ?Sized>(&self, row: u64, rng: &mut R, w: &mut Writer) {
        self.write_reports(std::iter::once((row, rng)), w);
    }

    /// Encode a batch of rows into `w` as one complete
    /// [`tag::REPORT_BATCH`] frame payload (the writer is reset first,
    /// keeping its allocation). Row `i` is encoded under
    /// `user_rng(seed, first_user + i)`, so chunking a population into
    /// batches of any size produces exactly the bytes of the serial
    /// per-user loop: the frame equals [`encode_report_batch`] over the
    /// serial reports' `to_bytes` blobs (`tests/encode_kernels.rs`).
    pub fn encode_batch(&self, rows: &[u64], seed: u64, first_user: u64, w: &mut Writer) {
        w.reset_with_tag(tag::REPORT_BATCH);
        w.put_u32(u32::try_from(rows.len()).unwrap_or(u32::MAX));
        let users = rows
            .iter()
            .zip(0u64..)
            .map(|(&row, i)| (row, user_rng(seed, first_user.wrapping_add(i))));
        self.write_reports(users, w);
    }

    /// The one encode kernel: append each `(row, rng)` user's report to
    /// `w`, with the protocol match hoisted out of the per-user loop.
    /// Every report goes through its layout's one writer, the one
    /// `to_bytes` uses, and the list layouts stream each draw straight
    /// onto the wire, so no report allocates.
    fn write_reports<G: Rng>(&self, users: impl Iterator<Item = (u64, G)>, w: &mut Writer) {
        macro_rules! each {
            (|$row:ident, $rng:ident| $write:expr) => {
                for ($row, mut owned) in users {
                    let $rng = &mut owned;
                    $write;
                }
            };
        }
        match self {
            Client::Mechanism(Mechanism::InpRr(m)) => each!(|row, rng| {
                put_inp_rr_bits(w, m.words(), |w| {
                    m.perturbed_words(row, rng, |word| w.put_u64(word));
                });
            }),
            Client::Mechanism(Mechanism::InpPs(m)) => {
                each!(|row, rng| put_inp_ps(w, || m.encode(row, rng)))
            }
            Client::Mechanism(Mechanism::InpHt(m)) => {
                each!(|row, rng| put_inp_ht(w, || m.encode(row, rng)))
            }
            Client::Mechanism(Mechanism::MargRr(m)) => each!(|row, rng| {
                let (marginal, cell) = m.sample_marginal(row, rng);
                put_marg_rr(w, marginal, |ones| {
                    m.perturb_table(cell, rng, |c| ones.push(c));
                });
            }),
            Client::Mechanism(Mechanism::MargPs(m)) => {
                each!(|row, rng| put_marg_ps(w, || m.encode(row, rng)))
            }
            Client::Mechanism(Mechanism::MargHt(m)) => {
                each!(|row, rng| put_marg_ht(w, || m.encode(row, rng)))
            }
            Client::Mechanism(Mechanism::InpEm(m)) => {
                each!(|row, rng| put_inp_em(w, || m.encode(row, rng)))
            }
            Client::Oracle(Oracle::Olh(o)) => each!(|row, rng| put_olh(w, || o.encode(row, rng))),
            Client::Oracle(Oracle::Cms(o)) => each!(|row, rng| {
                let (sketch_row, bucket) = o.sample_row(row, rng);
                put_cms(w, sketch_row, |ones| {
                    o.perturb_row(bucket, rng, |b| ones.push(b));
                });
            }),
            Client::Oracle(Oracle::Hcms(o)) => each!(|row, rng| put_hcms(w, || o.encode(row, rng))),
        }
    }
}

// The one writer of each report layout: tag and version, then the
// fields in wire order (`docs/WIRE_FORMAT.md` §5). `PipelineReport::put`
// and the encode kernel both write through these. Each takes the report
// (or, for the list layouts, a `fill` that appends the list) as a
// closure run after the tag is written, so the kernel draws each report
// straight onto the wire; drawing the report before writing its tag
// made the InpEM kernel measurably slower.

fn put_inp_ps(w: &mut Writer, cell: impl FnOnce() -> u64) {
    w.put_tag(tag::REPORT_INP_PS);
    w.put_u64(cell());
}

fn put_inp_ht(w: &mut Writer, report: impl FnOnce() -> InpHtReport) {
    w.put_tag(tag::REPORT_INP_HT);
    let r = report();
    w.put_u32(r.coefficient);
    w.put_u8(u8::from(r.sign_positive));
}

fn put_marg_ps(w: &mut Writer, report: impl FnOnce() -> MargPsReport) {
    w.put_tag(tag::REPORT_MARG_PS);
    let r = report();
    w.put_u32(r.marginal);
    w.put_u16(r.cell);
}

fn put_marg_ht(w: &mut Writer, report: impl FnOnce() -> MargHtReport) {
    w.put_tag(tag::REPORT_MARG_HT);
    let r = report();
    w.put_u32(r.marginal);
    w.put_u16(r.coefficient);
    w.put_u8(u8::from(r.sign_positive));
}

fn put_inp_em(w: &mut Writer, row: impl FnOnce() -> u64) {
    w.put_tag(tag::REPORT_INP_EM);
    w.put_u64(row());
}

fn put_hcms(w: &mut Writer, report: impl FnOnce() -> HcmsReport) {
    w.put_tag(tag::REPORT_HCMS);
    let r = report();
    w.put_u8(r.row);
    w.put_u16(r.coefficient);
    w.put_u8(u8::from(r.sign_positive));
}

fn put_olh(w: &mut Writer, report: impl FnOnce() -> OlhReport) {
    w.put_tag(tag::REPORT_OLH);
    let r = report();
    w.put_u64(r.seed);
    w.put_u8(r.bucket);
}

/// The [`tag::REPORT_INP_RR_BITS`] layout: the `u32` word count, then
/// the `count` `u64` words `fill` appends (cell 0 is the LSB of word 0).
fn put_inp_rr_bits(w: &mut Writer, count: usize, fill: impl FnOnce(&mut Writer)) {
    w.put_tag(tag::REPORT_INP_RR_BITS);
    w.put_u32(u32::try_from(count).unwrap_or(u32::MAX));
    fill(w);
}

/// The [`tag::REPORT_MARG_RR`] layout: the `u32` marginal index, then
/// the list of the table cells `fill` pushes.
fn put_marg_rr(w: &mut Writer, marginal: u32, fill: impl FnOnce(&mut U16List<'_>)) {
    w.put_tag(tag::REPORT_MARG_RR);
    w.put_u32(marginal);
    w.put_u16_list(fill);
}

/// The [`tag::REPORT_CMS`] layout: the `u8` sketch row, then the list of
/// the buckets `fill` pushes.
fn put_cms(w: &mut Writer, row: u8, fill: impl FnOnce(&mut U16List<'_>)) {
    w.put_tag(tag::REPORT_CMS);
    w.put_u8(row);
    w.put_u16_list(fill);
}

/// One user's report, for any of the ten protocols — what a report
/// frame payload decodes into. One variant per report wire tag (see
/// `ldp_core::wire::tag`), each holding the typed report directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineReport {
    /// InpRR's perturbed one-hot vector as a bitset, 64 cells per word
    /// (tag `0x28`; see [`ldp_core::InpRr::encode`]).
    InpRr(Vec<u64>),
    /// A legacy (wire v1–v3) InpRR report: the 1-positions of the
    /// perturbed vector (tag `0x21`). Still decoded so old streams
    /// ingest; never produced by the encoders.
    InpRrList(Vec<u32>),
    /// Perturbed input index (tag `0x22`; see [`ldp_core::InpPs::encode`]).
    InpPs(u64),
    /// Sampled Hadamard coefficient and sign (tag `0x23`).
    InpHt(InpHtReport),
    /// Sampled marginal and its perturbed table (tag `0x24`).
    MargRr(MargRrReport),
    /// Sampled marginal and its perturbed cell (tag `0x25`).
    MargPs(MargPsReport),
    /// Sampled marginal and a coefficient sign (tag `0x26`).
    MargHt(MargHtReport),
    /// Budget-split perturbed row (tag `0x27`).
    InpEm(u64),
    /// Hadamard count-mean-sketch row, coefficient and sign (tag `0x31`).
    Hcms(HcmsReport),
    /// Count-mean-sketch row and its perturbed bucket set (tag `0x32`).
    Cms(CmsReport),
    /// OLH hash seed and perturbed bucket (tag `0x33`).
    Olh(OlhReport),
}

/// Decode a 0/1 byte back into a sign flag.
fn get_sign(r: &mut Reader<'_>) -> Result<bool, WireError> {
    match r.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::Invalid("report sign flag")),
    }
}

fn report_error(e: WireError) -> String {
    format!("bad report frame: {e}")
}

impl PipelineReport {
    /// Serialize into a report frame payload (tags `REPORT_*` of
    /// `ldp_core::wire::tag`). This is what one user transmits, so the
    /// encodings stay as close to the Table 2 communication costs as
    /// byte alignment allows.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        self.put(&mut w);
        w.into_bytes()
    }

    /// Append this report's payload to `w`, through its layout's
    /// writer.
    fn put(&self, w: &mut Writer) {
        match self {
            PipelineReport::InpRr(words) => put_inp_rr_bits(w, words.len(), |w| {
                words.iter().for_each(|&word| w.put_u64(word));
            }),
            PipelineReport::InpRrList(ones) => {
                w.put_tag(tag::REPORT_INP_RR);
                w.put_u32_slice(ones);
            }
            PipelineReport::InpPs(cell) => put_inp_ps(w, || *cell),
            PipelineReport::InpHt(r) => put_inp_ht(w, || *r),
            PipelineReport::MargRr(r) => put_marg_rr(w, r.marginal, |list| {
                r.ones.iter().for_each(|&c| list.push(c));
            }),
            PipelineReport::MargPs(r) => put_marg_ps(w, || *r),
            PipelineReport::MargHt(r) => put_marg_ht(w, || *r),
            PipelineReport::InpEm(row) => put_inp_em(w, || *row),
            PipelineReport::Hcms(r) => put_hcms(w, || *r),
            PipelineReport::Cms(r) => put_cms(w, r.row, |list| {
                r.ones.iter().for_each(|&b| list.push(b));
            }),
            PipelineReport::Olh(r) => put_olh(w, || *r),
        }
    }

    /// The one report decoder: read the report whose tag `t` sits at
    /// the cursor into `self`, leaving the cursor on the byte after it.
    /// A slot that already holds a report of that kind is overwritten
    /// in place, keeping its heap capacity: building a whole new report
    /// and dropping the old one costs more than the decode itself.
    fn read_into(&mut self, t: u8, r: &mut Reader<'_>) -> Result<(), WireError> {
        // A fixed-size report, decoded before the slot is touched.
        macro_rules! put {
            ($variant:ident($value:expr)) => {{
                let value = $value;
                match self {
                    PipelineReport::$variant(slot) => *slot = value,
                    slot => *slot = PipelineReport::$variant(value),
                }
            }};
        }
        // A report with a list, filled into the slot's own buffer once
        // the slot holds that kind.
        macro_rules! reuse {
            ($variant:ident($blank:expr), $slot:ident => $fill:expr) => {{
                if !matches!(self, PipelineReport::$variant(_)) {
                    *self = PipelineReport::$variant($blank);
                }
                if let PipelineReport::$variant($slot) = self {
                    $fill;
                }
            }};
        }
        r.expect_tag(t)?;
        match t {
            tag::REPORT_INP_RR_BITS => {
                reuse!(InpRr(Vec::new()), words => r.get_u64_words_into(words)?);
            }
            tag::REPORT_INP_RR => reuse!(InpRrList(Vec::new()), ones => r.get_u32_vec_into(ones)?),
            tag::REPORT_INP_PS => put!(InpPs(r.get_u64()?)),
            tag::REPORT_INP_HT => put!(InpHt(InpHtReport {
                coefficient: r.get_u32()?,
                sign_positive: get_sign(r)?,
            })),
            tag::REPORT_MARG_RR => {
                let blank = MargRrReport {
                    marginal: 0,
                    ones: Vec::new(),
                };
                reuse!(MargRr(blank), report => {
                    report.marginal = r.get_u32()?;
                    r.get_u16_vec_into(&mut report.ones)?;
                });
            }
            tag::REPORT_MARG_PS => put!(MargPs(MargPsReport {
                marginal: r.get_u32()?,
                cell: r.get_u16()?,
            })),
            tag::REPORT_MARG_HT => put!(MargHt(MargHtReport {
                marginal: r.get_u32()?,
                coefficient: r.get_u16()?,
                sign_positive: get_sign(r)?,
            })),
            tag::REPORT_INP_EM => put!(InpEm(r.get_u64()?)),
            tag::REPORT_HCMS => put!(Hcms(HcmsReport {
                row: r.get_u8()?,
                coefficient: r.get_u16()?,
                sign_positive: get_sign(r)?,
            })),
            tag::REPORT_CMS => {
                let blank = CmsReport {
                    row: 0,
                    ones: Vec::new(),
                };
                reuse!(Cms(blank), report => {
                    report.row = r.get_u8()?;
                    r.get_u16_vec_into(&mut report.ones)?;
                });
            }
            tag::REPORT_OLH => put!(Olh(OlhReport {
                seed: r.get_u64()?,
                bucket: r.get_u8()?,
            })),
            _ => return Err(WireError::Invalid("unknown report tag")),
        }
        Ok(())
    }

    /// Decode one report starting at the cursor of `r` (self-describing
    /// by its tag byte) and leave the cursor on the byte after it — the
    /// walk step used by [`decode_report_batch_into`]. No
    /// trailing-bytes check; callers that decode a standalone payload
    /// should use [`PipelineReport::from_bytes`] instead.
    pub fn decode_next(r: &mut Reader<'_>) -> Result<Self, String> {
        let mut report = PipelineReport::InpPs(0);
        report.decode_next_into(r)?;
        Ok(report)
    }

    /// Decode a report frame payload (self-describing by its leading
    /// tag byte).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        let report = Self::decode_next(&mut r)?;
        r.finish().map_err(report_error)?;
        Ok(report)
    }

    /// Cursor form of [`PipelineReport::decode_into`]: decode the next
    /// report out of `r` into `self`, reusing heap capacity when the
    /// slot already holds a report of the same kind. On error the
    /// cursor position is unspecified and `self` is some valid (but
    /// unspecified) report that must not be absorbed.
    pub fn decode_next_into(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        let t = r.peek().ok_or("bad report frame: empty payload")?;
        self.read_into(t, r).map_err(report_error)
    }

    /// Decode a report frame payload into `self`, reusing any heap
    /// capacity the current value already owns (the InpRR word and
    /// position buffers, the MargRR and CMS position buffers) — the
    /// zero-allocation decode path of the batched ingest scratch.
    /// Accepts and rejects exactly what [`PipelineReport::from_bytes`]
    /// does; on error `self` is left as some valid (but unspecified)
    /// report and must not be absorbed.
    pub fn decode_into(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(bytes);
        self.decode_next_into(&mut r)?;
        r.finish().map_err(report_error)
    }

    /// Display name of the protocol this report belongs to.
    #[must_use]
    pub fn protocol_name(&self) -> &'static str {
        protocol_name(self.protocol_tag())
    }

    /// The accumulator type tag (`StreamHeader::protocol`) of the
    /// protocol this report belongs to.
    #[must_use]
    pub fn protocol_tag(&self) -> u8 {
        match self {
            PipelineReport::InpRr(_) | PipelineReport::InpRrList(_) => tag::INP_RR,
            PipelineReport::InpPs(_) => tag::INP_PS,
            PipelineReport::InpHt(_) => tag::INP_HT,
            PipelineReport::MargRr(_) => tag::MARG_RR,
            PipelineReport::MargPs(_) => tag::MARG_PS,
            PipelineReport::MargHt(_) => tag::MARG_HT,
            PipelineReport::InpEm(_) => tag::INP_EM,
            PipelineReport::Hcms(_) => tag::HCMS,
            PipelineReport::Cms(_) => tag::CMS,
            PipelineReport::Olh(_) => tag::OLH,
        }
    }

    /// Borrow an InpRR report in either wire form (`None` for every
    /// other protocol) — the view the InpRR batch kernel takes.
    fn inp_rr_ref(&self) -> Option<InpRrReportRef<'_>> {
        match self {
            PipelineReport::InpRr(words) => Some(InpRrReportRef::Bits(words)),
            PipelineReport::InpRrList(positions) => Some(InpRrReportRef::Positions(positions)),
            _ => None,
        }
    }
}

/// The one acceptance rule for reports into a pipeline's accumulators,
/// read off an accumulator's table sizes by
/// [`PipelineAccumulator::report_rule`] once per batch or stream. A
/// report passes [`ReportRule::check`] only if it belongs to the
/// pipeline's protocol and addresses cells of its tables:
///
/// * an InpRR bitset has exactly `⌈2^d/64⌉` words and no bit past cell
///   `2^d − 1` (legacy InpRR position lists keep their documented
///   fold-mod-`2^d` rule);
/// * InpPS cell and InpEM row `< 2^d`; InpHT coefficient `< Σ_{j≤k}
///   C(d,j)`;
/// * MargRR/MargPS/MargHT marginal `< C(d,k)` and every cell or
///   coefficient `< 2^k`;
/// * HCMS/CMS row `< hashes` and every coefficient or bucket
///   `< width`; OLH bucket `< g`.
///
/// A report that breaks the rule is refused by name, never folded, so
/// no report field can index past a table or miscount into the state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReportRule {
    protocol: u8,
    /// Attribute count, which sizes an InpRR bitset.
    d: u32,
    /// Bound of the first index field: the InpPS cell, InpHT
    /// coefficient, marginal, InpEM row, sketch row or OLH bucket.
    first: u64,
    /// Bound of the second index field: the cell or coefficient within
    /// a marginal, or the bucket or coefficient within a sketch row.
    second: u64,
}

impl ReportRule {
    /// Accept `report`, or refuse it with a message naming what breaks
    /// the rule.
    pub fn check(&self, report: &PipelineReport) -> Result<(), String> {
        self.verdict(report).map_err(|e| self.message(e))
    }

    /// Accept every report of a batch, or refuse the batch with a
    /// message naming the first report that breaks the rule.
    fn check_all(&self, reports: &[PipelineReport]) -> Result<(), String> {
        reports
            .iter()
            .try_for_each(|r| self.verdict(r))
            .map_err(|e| self.message(e))
    }

    /// The rule itself, allocation-free: the per-report step of every
    /// batch, so it stays inlined and leaves the message to
    /// [`ReportRule::message`].
    #[inline]
    fn verdict(&self, report: &PipelineReport) -> Result<(), Refusal> {
        if report.protocol_tag() != self.protocol {
            return Err(Refusal::Protocol(report.protocol_tag()));
        }
        let (first, second) = (self.first, self.second);
        match report {
            PipelineReport::InpRr(words) => {
                InpRrAggregator::check_bits(self.d, words).map_err(Refusal::Bitset)
            }
            PipelineReport::InpRrList(_) => Ok(()),
            PipelineReport::InpPs(cell) => within("InpPS cell", *cell, first),
            PipelineReport::InpHt(r) => within("InpHT coefficient", r.coefficient.into(), first),
            PipelineReport::MargRr(r) => {
                within("MargRR marginal", r.marginal.into(), first)?;
                r.ones
                    .iter()
                    .try_for_each(|&c| within("MargRR cell", c.into(), second))
            }
            PipelineReport::MargPs(r) => {
                within("MargPS marginal", r.marginal.into(), first)?;
                within("MargPS cell", r.cell.into(), second)
            }
            PipelineReport::MargHt(r) => {
                within("MargHT marginal", r.marginal.into(), first)?;
                within("MargHT coefficient", r.coefficient.into(), second)
            }
            PipelineReport::InpEm(row) => within("InpEM row", *row, first),
            PipelineReport::Hcms(r) => {
                within("HCMS row", r.row.into(), first)?;
                within("HCMS coefficient", r.coefficient.into(), second)
            }
            PipelineReport::Cms(r) => {
                within("CMS row", r.row.into(), first)?;
                r.ones
                    .iter()
                    .try_for_each(|&b| within("CMS bucket", b.into(), second))
            }
            PipelineReport::Olh(r) => within("OLH bucket", r.bucket.into(), first),
        }
    }

    #[cold]
    fn message(&self, refusal: Refusal) -> String {
        match refusal {
            Refusal::Protocol(t) => format!(
                "stream mixes protocols: a {} pipeline got a {} report",
                protocol_name(self.protocol),
                protocol_name(t)
            ),
            Refusal::Bitset(e) => format!("bad report: {e}"),
            Refusal::Field(what, value, limit) => format!(
                "bad report: {what} {value} does not address the header's tables (need < {limit})"
            ),
        }
    }
}

/// Why a report breaks a [`ReportRule`].
enum Refusal {
    /// It belongs to the protocol with this accumulator type tag.
    Protocol(u8),
    /// It is an InpRR bitset that does not fit the `2^d` cells.
    Bitset(WireError),
    /// Its index field (name, value) is not below the bound.
    Field(&'static str, u64, u64),
}

/// Accept an index field `what` of value `value` if it addresses one of
/// `limit` table cells.
#[inline]
fn within(what: &'static str, value: u64, limit: u64) -> Result<(), Refusal> {
    if value < limit {
        Ok(())
    } else {
        Err(Refusal::Field(what, value, limit))
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

/// The server half: one accumulator for any of the ten protocols, each
/// variant holding the concrete aggregator.
#[derive(Clone, Debug)]
pub enum PipelineAccumulator {
    /// See [`InpRrAggregator`]. Absorbs both InpRR report forms.
    InpRr(InpRrAggregator),
    /// See [`InpPsAggregator`].
    InpPs(InpPsAggregator),
    /// See [`InpHtAggregator`].
    InpHt(InpHtAggregator),
    /// See [`MargRrAggregator`].
    MargRr(MargRrAggregator),
    /// See [`MargPsAggregator`].
    MargPs(MargPsAggregator),
    /// See [`MargHtAggregator`].
    MargHt(MargHtAggregator),
    /// See [`InpEmAggregator`].
    InpEm(InpEmAggregator),
    /// See [`HadamardCmsAggregator`].
    Hcms(HadamardCmsAggregator),
    /// See [`CmsAggregator`].
    Cms(CmsAggregator),
    /// See [`OlhAggregator`].
    Olh(OlhAggregator),
}

/// Evaluate `$body` with `$a` bound to the concrete aggregator inside
/// `$acc`, whichever protocol it serves.
macro_rules! with_aggregator {
    ($acc:expr, $a:ident => $body:expr) => {
        match $acc {
            PipelineAccumulator::InpRr($a) => $body,
            PipelineAccumulator::InpPs($a) => $body,
            PipelineAccumulator::InpHt($a) => $body,
            PipelineAccumulator::MargRr($a) => $body,
            PipelineAccumulator::MargPs($a) => $body,
            PipelineAccumulator::MargHt($a) => $body,
            PipelineAccumulator::InpEm($a) => $body,
            PipelineAccumulator::Hcms($a) => $body,
            PipelineAccumulator::Cms($a) => $body,
            PipelineAccumulator::Olh($a) => $body,
        }
    };
}

impl PipelineAccumulator {
    /// A fresh, empty accumulator matching a header.
    pub fn empty(header: &StreamHeader) -> Result<Self, String> {
        Ok(match Client::from_header(header)? {
            Client::Mechanism(Mechanism::InpRr(m)) => PipelineAccumulator::InpRr(m.aggregator()),
            Client::Mechanism(Mechanism::InpPs(m)) => PipelineAccumulator::InpPs(m.aggregator()),
            Client::Mechanism(Mechanism::InpHt(m)) => PipelineAccumulator::InpHt(m.aggregator()),
            Client::Mechanism(Mechanism::MargRr(m)) => PipelineAccumulator::MargRr(m.aggregator()),
            Client::Mechanism(Mechanism::MargPs(m)) => PipelineAccumulator::MargPs(m.aggregator()),
            Client::Mechanism(Mechanism::MargHt(m)) => PipelineAccumulator::MargHt(m.aggregator()),
            Client::Mechanism(Mechanism::InpEm(m)) => PipelineAccumulator::InpEm(m.aggregator()),
            Client::Oracle(Oracle::Hcms(o)) => PipelineAccumulator::Hcms(o.aggregator()),
            Client::Oracle(Oracle::Cms(o)) => PipelineAccumulator::Cms(o.aggregator()),
            Client::Oracle(Oracle::Olh(o)) => PipelineAccumulator::Olh(o.aggregator()),
        })
    }

    /// Rehydrate serialized accumulator state, verifying it matches the
    /// snapshot's header: the state must name the header's protocol and
    /// record exactly the parameters the header implies (`d`, `k`, the
    /// probabilities `ε` fixes, the sketch shape and hash family), so a
    /// foreign state can never merge into a misaligned table.
    pub fn from_state(header: &StreamHeader, state: &[u8]) -> Result<Self, String> {
        if state.first() != Some(&header.protocol) {
            return Err(format!(
                "snapshot state tag {:?} does not match header protocol {:#04x}",
                state.first(),
                header.protocol
            ));
        }
        let expected = Self::empty(header)?;
        let prefix = expected.state_prefix();
        // Byte 1 is the version, which may be any this build decodes.
        if state.get(2..prefix.len()) != prefix.as_bytes().get(2..) {
            return Err(format!(
                "snapshot state records other {} parameters than its header \
                 (d = {}, k = {}, eps = {}, sketch {}×{} seed {})",
                expected.protocol_name(),
                header.d,
                header.k,
                header.eps,
                header.hashes,
                header.width,
                header.family_seed
            ));
        }
        let acc = match expected {
            PipelineAccumulator::InpRr(_) => Accumulator::from_bytes(state).map(Self::InpRr),
            PipelineAccumulator::InpPs(_) => Accumulator::from_bytes(state).map(Self::InpPs),
            PipelineAccumulator::InpHt(_) => Accumulator::from_bytes(state).map(Self::InpHt),
            PipelineAccumulator::MargRr(_) => Accumulator::from_bytes(state).map(Self::MargRr),
            PipelineAccumulator::MargPs(_) => Accumulator::from_bytes(state).map(Self::MargPs),
            PipelineAccumulator::MargHt(_) => Accumulator::from_bytes(state).map(Self::MargHt),
            PipelineAccumulator::InpEm(_) => Accumulator::from_bytes(state).map(Self::InpEm),
            PipelineAccumulator::Hcms(_) => Accumulator::from_bytes(state).map(Self::Hcms),
            PipelineAccumulator::Cms(_) => Accumulator::from_bytes(state).map(Self::Cms),
            PipelineAccumulator::Olh(_) => Accumulator::from_bytes(state).map(Self::Olh),
        };
        acc.map_err(|e| format!("bad snapshot state: {e}"))
    }

    /// The leading state bytes that name the protocol and its
    /// parameters (see e.g. [`InpHtAggregator::state_prefix`]).
    fn state_prefix(&self) -> Writer {
        with_aggregator!(self, a => a.state_prefix())
    }

    /// Absorb one decoded report: [`PipelineAccumulator::absorb_batch`]
    /// over a batch of one.
    pub fn absorb(&mut self, report: &PipelineReport) -> Result<(), String> {
        self.absorb_batch(std::slice::from_ref(report))
    }

    /// Absorb one report frame payload.
    pub fn absorb_report(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.absorb(&PipelineReport::from_bytes(bytes)?)
    }

    /// The rule every report into this accumulator must pass (see
    /// [`ReportRule`]), read off its table sizes in O(1).
    #[must_use]
    pub fn report_rule(&self) -> ReportRule {
        let (d, first, second) = match self {
            PipelineAccumulator::InpRr(a) => (a.d(), 0, 0),
            PipelineAccumulator::InpPs(a) => (a.d(), 1u64 << a.d(), 0),
            PipelineAccumulator::InpHt(a) => (0, a.coefficient_count() as u64, 0),
            PipelineAccumulator::MargRr(a) => (0, a.marginal_count() as u64, 1u64 << a.k()),
            PipelineAccumulator::MargPs(a) => (0, a.marginal_count() as u64, 1u64 << a.k()),
            PipelineAccumulator::MargHt(a) => (0, a.marginal_count() as u64, 1u64 << a.k()),
            PipelineAccumulator::InpEm(a) => (a.d(), 1u64 << a.d(), 0),
            PipelineAccumulator::Hcms(a) => (0, a.rows() as u64, a.width() as u64),
            PipelineAccumulator::Cms(a) => (0, a.rows() as u64, a.width() as u64),
            PipelineAccumulator::Olh(a) => (0, a.buckets(), 0),
        };
        ReportRule {
            protocol: self.protocol_tag(),
            d,
            first,
            second,
        }
    }

    /// Absorb a buffer of decoded reports: one validation pass with
    /// this accumulator's [`ReportRule`], then one match on the
    /// protocol and a tight loop of the concrete aggregator's `absorb`
    /// (`InpRR` through its bit-sliced kernel, `InpEM` through its
    /// group-by-value kernel). Rejects the whole batch — absorbing
    /// nothing — if any report breaks the rule.
    pub fn absorb_batch(&mut self, reports: &[PipelineReport]) -> Result<(), String> {
        self.report_rule().check_all(reports)?;
        macro_rules! each {
            ($variant:ident, $r:ident => $absorb:expr) => {
                for report in reports {
                    if let PipelineReport::$variant($r) = report {
                        $absorb;
                    }
                }
            };
        }
        match self {
            PipelineAccumulator::InpRr(a) => a.absorb_batch_by(reports, PipelineReport::inp_rr_ref),
            PipelineAccumulator::InpPs(a) => each!(InpPs, r => a.absorb(*r)),
            PipelineAccumulator::InpHt(a) => each!(InpHt, r => a.absorb(*r)),
            PipelineAccumulator::MargRr(a) => each!(MargRr, r => a.absorb(r)),
            PipelineAccumulator::MargPs(a) => each!(MargPs, r => a.absorb(*r)),
            PipelineAccumulator::MargHt(a) => each!(MargHt, r => a.absorb(*r)),
            PipelineAccumulator::InpEm(a) => {
                a.absorb_batch_iter(reports.iter().filter_map(|r| match r {
                    PipelineReport::InpEm(row) => Some(*row),
                    _ => None,
                }));
            }
            PipelineAccumulator::Hcms(a) => each!(Hcms, r => a.absorb(*r)),
            PipelineAccumulator::Cms(a) => each!(Cms, r => a.absorb(r)),
            PipelineAccumulator::Olh(a) => each!(Olh, r => a.absorb(*r)),
        }
        Ok(())
    }

    /// Fold another partial aggregate into this one. Refuses, by name
    /// and changing nothing, one of another protocol or with other
    /// recorded parameters.
    pub fn merge(&mut self, other: PipelineAccumulator) -> Result<(), String> {
        if self.state_prefix().as_bytes() != other.state_prefix().as_bytes() {
            return Err(format!(
                "cannot merge a {} snapshot into a {} snapshot with other parameters",
                other.protocol_name(),
                self.protocol_name()
            ));
        }
        match (self, other) {
            (PipelineAccumulator::InpRr(a), PipelineAccumulator::InpRr(b)) => a.merge(b),
            (PipelineAccumulator::InpPs(a), PipelineAccumulator::InpPs(b)) => a.merge(b),
            (PipelineAccumulator::InpHt(a), PipelineAccumulator::InpHt(b)) => a.merge(b),
            (PipelineAccumulator::MargRr(a), PipelineAccumulator::MargRr(b)) => a.merge(b),
            (PipelineAccumulator::MargPs(a), PipelineAccumulator::MargPs(b)) => a.merge(b),
            (PipelineAccumulator::MargHt(a), PipelineAccumulator::MargHt(b)) => a.merge(b),
            (PipelineAccumulator::InpEm(a), PipelineAccumulator::InpEm(b)) => a.merge(b),
            (PipelineAccumulator::Hcms(a), PipelineAccumulator::Hcms(b)) => a.merge(b),
            (PipelineAccumulator::Cms(a), PipelineAccumulator::Cms(b)) => a.merge(b),
            (PipelineAccumulator::Olh(a), PipelineAccumulator::Olh(b)) => a.merge(b),
            // Equal state prefixes start with the same protocol tag.
            _ => {}
        }
        Ok(())
    }

    /// The accumulator type tag (`StreamHeader::protocol`) of the
    /// protocol this accumulator serves.
    #[must_use]
    pub fn protocol_tag(&self) -> u8 {
        match self {
            PipelineAccumulator::InpRr(_) => tag::INP_RR,
            PipelineAccumulator::InpPs(_) => tag::INP_PS,
            PipelineAccumulator::InpHt(_) => tag::INP_HT,
            PipelineAccumulator::MargRr(_) => tag::MARG_RR,
            PipelineAccumulator::MargPs(_) => tag::MARG_PS,
            PipelineAccumulator::MargHt(_) => tag::MARG_HT,
            PipelineAccumulator::InpEm(_) => tag::INP_EM,
            PipelineAccumulator::Hcms(_) => tag::HCMS,
            PipelineAccumulator::Cms(_) => tag::CMS,
            PipelineAccumulator::Olh(_) => tag::OLH,
        }
    }

    /// Display name of the protocol this accumulator serves.
    #[must_use]
    pub fn protocol_name(&self) -> &'static str {
        protocol_name(self.protocol_tag())
    }

    /// Reports absorbed so far (summed across merges).
    pub fn report_count(&self) -> u64 {
        with_aggregator!(self, a => Accumulator::report_count(a))
    }

    /// Serialized state for the snapshot's state frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        with_aggregator!(self, a => Accumulator::to_bytes(a))
    }

    /// Finalize into the queryable estimate.
    pub fn finalize(self) -> PipelineEstimate {
        use PipelineEstimate::{Mechanism as M, Oracle as O};
        match self {
            PipelineAccumulator::InpRr(a) => M(Estimate::Full(a.finalize())),
            PipelineAccumulator::InpPs(a) => M(Estimate::Full(a.finalize())),
            PipelineAccumulator::InpHt(a) => M(Estimate::Hadamard(a.finalize())),
            PipelineAccumulator::MargRr(a) => M(Estimate::MarginalSet(a.finalize())),
            PipelineAccumulator::MargPs(a) => M(Estimate::MarginalSet(a.finalize())),
            PipelineAccumulator::MargHt(a) => M(Estimate::MarginalSet(a.finalize())),
            PipelineAccumulator::InpEm(a) => M(Estimate::Em(a.finalize())),
            PipelineAccumulator::Hcms(a) => O(OracleEstimate::Hcms(a.finalize())),
            PipelineAccumulator::Cms(a) => O(OracleEstimate::Cms(a.finalize())),
            PipelineAccumulator::Olh(a) => O(OracleEstimate::Olh(a.finalize())),
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

    /// One header per protocol: the seven mechanisms, then the three
    /// oracles.
    fn all_headers(d: u32, eps: f64) -> Vec<StreamHeader> {
        MechanismKind::ALL
            .iter()
            .map(|&kind| StreamHeader::mechanism(kind, d, 2, eps))
            .chain(
                OracleKind::ALL
                    .iter()
                    .map(|&kind| crate::streaming::oracle_header(kind, d, eps, 3, 16, 9)),
            )
            .collect()
    }

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

    #[test]
    fn reports_and_states_round_trip_for_every_protocol() {
        for header in all_headers(5, 1.3) {
            let client = Client::from_header(&header).unwrap();
            // The header alone rebuilds the client that encoded the
            // stream: same reports under the same randomness.
            let built = match Protocol::from_header(&header).unwrap() {
                Protocol::Mechanism(kind) => Client::Mechanism(kind.build(5, 2, 1.3)),
                Protocol::Oracle(kind) => Client::Oracle(kind.build(5, 1.3, 3, 16, 9)),
            };
            let mut rng = StdRng::seed_from_u64(77);
            let mut twin = StdRng::seed_from_u64(77);
            let mut direct = PipelineAccumulator::empty(&header).unwrap();
            let mut rehydrated = PipelineAccumulator::empty(&header).unwrap();
            for u in 0..200u64 {
                let report = client.encode(u % 32, &mut rng);
                assert_eq!(built.encode(u % 32, &mut twin), report);
                assert_eq!(report.protocol_tag(), header.protocol);
                let back = PipelineReport::from_bytes(&report.to_bytes()).unwrap();
                assert_eq!(back, report, "{} report round trip", report.protocol_name());
                direct.absorb(&report).unwrap();
                rehydrated.absorb(&back).unwrap();
            }
            let name = direct.protocol_name();
            assert_eq!(direct.report_count(), 200, "{name}");
            let state = direct.to_bytes();
            assert_eq!(
                rehydrated.to_bytes(),
                state,
                "{name} after a report round trip"
            );
            let back = PipelineAccumulator::from_state(&header, &state).unwrap();
            assert_eq!(back.protocol_tag(), header.protocol);
            assert_eq!(back.to_bytes(), state, "{name} state round trip");
            if let (PipelineEstimate::Mechanism(a), PipelineEstimate::Mechanism(b)) =
                (direct.finalize(), back.finalize())
            {
                assert_eq!(a, b, "{name} estimates");
            }
        }
    }

    #[test]
    fn every_protocol_refuses_every_other_protocols_reports() {
        let headers = all_headers(4, 1.1);
        let mut rng = StdRng::seed_from_u64(1);
        let reports: Vec<PipelineReport> = headers
            .iter()
            .map(|h| Client::from_header(h).unwrap().encode(3, &mut rng))
            .collect();
        for header in &headers {
            for report in &reports {
                let mut acc = PipelineAccumulator::empty(header).unwrap();
                let absorbed = acc.absorb(report);
                if report.protocol_tag() == header.protocol {
                    assert_eq!(absorbed, Ok(()));
                } else {
                    let err = absorbed.unwrap_err();
                    assert!(err.contains("mixes protocols"), "{err}");
                    assert_eq!(acc.report_count(), 0);
                }
            }
        }
    }

    /// For every protocol, a report whose index field is just past the
    /// header's tables, or at its type's maximum, is refused by name —
    /// with every report batched alongside it — and never panics; the
    /// same field just inside the tables absorbs.
    #[test]
    fn out_of_range_fields_are_refused_by_name_for_every_protocol() {
        use MechanismKind::{InpEm, InpHt, InpPs, MargHt, MargPs, MargRr};
        use OracleKind::{Cms, Hcms, Olh};
        use PipelineReport as R;
        fn marg_rr(marginal: u64, cell: u64) -> PipelineReport {
            let ones = vec![0, cell as u16];
            R::MargRr(MargRrReport {
                marginal: marginal as u32,
                ones,
            })
        }
        fn marg_ps(marginal: u64, cell: u64) -> PipelineReport {
            R::MargPs(MargPsReport {
                marginal: marginal as u32,
                cell: cell as u16,
            })
        }
        fn marg_ht(marginal: u64, coefficient: u64) -> PipelineReport {
            let (marginal, coefficient) = (marginal as u32, coefficient as u16);
            R::MargHt(MargHtReport {
                marginal,
                coefficient,
                sign_positive: true,
            })
        }
        fn hcms(row: u64, coefficient: u64) -> PipelineReport {
            let (row, coefficient) = (row as u8, coefficient as u16);
            R::Hcms(HcmsReport {
                row,
                coefficient,
                sign_positive: false,
            })
        }
        fn cms(row: u64, bucket: u64) -> PipelineReport {
            R::Cms(CmsReport {
                row: row as u8,
                ones: vec![1, bucket as u16],
            })
        }
        let mech = |kind| StreamHeader::mechanism(kind, 6, 2, 1.1);
        let oracle = |kind| crate::streaming::oracle_header(kind, 6, 1.1, 3, 16, 9);
        let (u8_max, u16_max, u32_max) = (u8::MAX.into(), u16::MAX.into(), u32::MAX.into());
        // d = 6, k = 2: 64 cells, 6 + 15 = 21 InpHT coefficients,
        // C(6,2) = 15 marginals of 4 cells; sketches 3 × 16; OLH
        // g = ⌈e^1.1⌉ + 1 = 5. Each case: the field's last in-table
        // value, its type's maximum, and the report with it set.
        type Forge<'a> = &'a dyn Fn(u64) -> PipelineReport;
        #[rustfmt::skip]
        let cases: [(StreamHeader, &str, u64, u64, Forge<'_>); 14] = [
            (mech(InpPs), "InpPS cell", 63, u64::MAX, &R::InpPs),
            (mech(InpHt), "InpHT coefficient", 20, u32_max, &|v| {
                R::InpHt(InpHtReport { coefficient: v as u32, sign_positive: true })
            }),
            (mech(MargRr), "MargRR marginal", 14, u32_max, &|v| marg_rr(v, 3)),
            (mech(MargRr), "MargRR cell", 3, u16_max, &|v| marg_rr(14, v)),
            (mech(MargPs), "MargPS marginal", 14, u32_max, &|v| marg_ps(v, 3)),
            (mech(MargPs), "MargPS cell", 3, u16_max, &|v| marg_ps(14, v)),
            (mech(MargHt), "MargHT marginal", 14, u32_max, &|v| marg_ht(v, 3)),
            (mech(MargHt), "MargHT coefficient", 3, u16_max, &|v| marg_ht(14, v)),
            (mech(InpEm), "InpEM row", 63, u64::MAX, &R::InpEm),
            (oracle(Hcms), "HCMS row", 2, u8_max, &|v| hcms(v, 15)),
            (oracle(Hcms), "HCMS coefficient", 15, u16_max, &|v| hcms(2, v)),
            (oracle(Cms), "CMS row", 2, u8_max, &|v| cms(v, 15)),
            (oracle(Cms), "CMS bucket", 15, u16_max, &|v| cms(2, v)),
            (oracle(Olh), "OLH bucket", 4, u8_max, &|v| {
                R::Olh(OlhReport { seed: 7, bucket: v as u8 })
            }),
        ];
        for (header, name, last, max, forge) in cases {
            let good = forge(last);
            for bad in [last + 1, max] {
                let mut acc = PipelineAccumulator::empty(&header).unwrap();
                let err = acc.absorb_batch(&[good.clone(), forge(bad)]).unwrap_err();
                assert!(
                    err.contains(&format!("{name} {bad} ")),
                    "{name} {bad}: {err}"
                );
                assert_eq!(acc.report_count(), 0, "{name} {bad}");
                assert_eq!(
                    acc.to_bytes(),
                    PipelineAccumulator::empty(&header).unwrap().to_bytes()
                );
            }
            let mut acc = PipelineAccumulator::empty(&header).unwrap();
            acc.absorb(&good).unwrap();
            assert_eq!(acc.report_count(), 1, "{name}");
        }
    }

    /// An InpRR report is Table 2's `2^d` bits rounded up to whole
    /// words, behind the 6-byte prelude, and the encode kernel writes
    /// exactly the bytes of the typed report.
    #[test]
    fn inp_rr_report_bytes_are_the_table_2_bits_rounded_to_words() {
        for d in 1..=12u32 {
            let header = StreamHeader::mechanism(MechanismKind::InpRr, d, 1, 1.1);
            let client = Client::from_header(&header).unwrap();
            let words = (1usize << d).div_ceil(64);
            let row = u64::from(d) % (1 << d);
            let typed = client.encode(row, &mut StdRng::seed_from_u64(u64::from(d)));
            let typed = typed.to_bytes();
            assert_eq!(typed.len(), 6 + 8 * words, "d={d}");
            let mut w = Writer::default();
            client.encode_report_into(row, &mut StdRng::seed_from_u64(u64::from(d)), &mut w);
            assert_eq!(w.as_bytes(), &typed[..], "d={d}");
        }
    }

    #[test]
    fn report_decode_rejects_bad_tag_truncation_and_bad_sign() {
        assert!(PipelineReport::from_bytes(&[0x7E, ldp_core::wire::VERSION])
            .unwrap_err()
            .contains("unknown report tag"));
        for full in [
            PipelineReport::InpHt(InpHtReport {
                coefficient: 9,
                sign_positive: true,
            }),
            PipelineReport::MargHt(MargHtReport {
                marginal: 2,
                coefficient: 1,
                sign_positive: false,
            }),
            PipelineReport::Hcms(HcmsReport {
                row: 1,
                coefficient: 3,
                sign_positive: true,
            }),
        ]
        .map(|r| r.to_bytes())
        {
            let err = PipelineReport::from_bytes(&full[..full.len() - 1]).unwrap_err();
            assert!(err.contains("truncated"), "{err}");
            let mut bad_sign = full.clone();
            *bad_sign.last_mut().unwrap() = 2;
            let err = PipelineReport::from_bytes(&bad_sign).unwrap_err();
            assert!(err.contains("sign flag"), "{err}");
        }

        // Trailing bytes after a complete report are rejected.
        let mut long = PipelineReport::InpPs(3).to_bytes();
        long.push(0);
        assert!(PipelineReport::from_bytes(&long).is_err());

        // A list that claims more elements than the blob holds fails
        // before allocating.
        for t in [
            tag::REPORT_MARG_RR,
            tag::REPORT_INP_RR,
            tag::REPORT_INP_RR_BITS,
        ] {
            let mut w = Writer::with_tag(t);
            if t == tag::REPORT_MARG_RR {
                w.put_u32(0);
            }
            w.put_u32(u32::MAX); // length prefix with no payload
            let err = PipelineReport::from_bytes(w.as_bytes()).unwrap_err();
            assert!(err.contains("truncated"), "{t:#04x}: {err}");
        }
    }

    /// Headers that differ from `header` in one parameter its state
    /// records.
    fn foreign_headers(header: &StreamHeader) -> Vec<StreamHeader> {
        let mut out = vec![
            StreamHeader {
                d: header.d + 1,
                ..*header
            },
            StreamHeader {
                eps: header.eps * 2.0,
                ..*header
            },
        ];
        if matches!(
            header.mechanism_kind(),
            Some(MechanismKind::InpHt | MechanismKind::MargRr)
                | Some(MechanismKind::MargPs | MechanismKind::MargHt)
        ) {
            out.push(StreamHeader {
                k: header.k + 1,
                ..*header
            });
        }
        if matches!(
            OracleKind::from_wire_tag(header.protocol),
            Some(OracleKind::Cms | OracleKind::Hcms)
        ) {
            out.push(StreamHeader {
                hashes: header.hashes + 1,
                ..*header
            });
            out.push(StreamHeader {
                width: header.width * 2,
                ..*header
            });
            out.push(StreamHeader {
                family_seed: header.family_seed + 1,
                ..*header
            });
        }
        out
    }

    fn filled(header: &StreamHeader, n: u64) -> PipelineAccumulator {
        let client = Client::from_header(header).unwrap();
        let mut acc = PipelineAccumulator::empty(header).unwrap();
        let mut rng = StdRng::seed_from_u64(header.d.into());
        for u in 0..n {
            acc.absorb(&client.encode(u % (1 << header.d.min(6)), &mut rng))
                .unwrap();
        }
        acc
    }

    #[test]
    fn states_recorded_under_other_parameters_are_refused_by_name() {
        for header in all_headers(6, 1.1) {
            let own = filled(&header, 200);
            let state = own.to_bytes();
            assert!(PipelineAccumulator::from_state(&header, &state).is_ok());
            for foreign in foreign_headers(&header) {
                let alien = filled(&foreign, 200);
                let err = PipelineAccumulator::from_state(&header, &alien.to_bytes()).unwrap_err();
                assert!(err.contains("other"), "{}: {err}", own.protocol_name());
                assert!(err.contains(own.protocol_name()), "{err}");

                // Merging never panics on a foreign shape: it refuses by
                // name and leaves the target untouched.
                let mut target = own.clone();
                let err = target.merge(alien).unwrap_err();
                assert!(err.contains("other parameters"), "{err}");
                assert_eq!(target.to_bytes(), state);
            }
        }
    }

    #[test]
    fn malformed_states_are_refused() {
        let header = StreamHeader::mechanism(MechanismKind::InpHt, 6, 2, 1.1);
        let state = filled(&header, 50).to_bytes();
        assert!(PipelineAccumulator::from_state(&header, &[]).is_err());
        assert!(PipelineAccumulator::from_state(&header, &[0xFF, 1, 2, 3]).is_err());
        for cut in [1, 2, 10, state.len() - 1] {
            assert!(PipelineAccumulator::from_state(&header, &state[..cut]).is_err());
        }
        let mut long = state.clone();
        long.push(0);
        assert!(PipelineAccumulator::from_state(&header, &long).is_err());
    }
}
