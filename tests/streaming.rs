//! The streaming-accumulator partition-invariance law, property-tested
//! at the workspace level: for **every** protocol (the seven
//! mechanisms and the three frequency oracles), any random
//! partition of the users into parts, any within-part interleaving the
//! partition induces, and any merge order of the parts produces an
//! accumulator whose state — and serialized `to_bytes` form — is
//! *identical* to serial ingest. This extends the seed-schedule
//! invariant behind `Mechanism::run_sharded` (shards = contiguous
//! chunks, merged in order) to arbitrary partitions and merge orders,
//! which is what lets independent collector processes aggregate a
//! population and combine their states in any topology.
//!
//! The same file pins the report wire path: batch framing is a pure
//! re-chunking, and every report decoder survives arbitrary bytes
//! without panicking or allocating beyond its input.

use marginal_ldp::core::frame::StreamHeader;
use marginal_ldp::core::user_rng;
use marginal_ldp::core::wire::{tag, MIN_VERSION, VERSION};
use marginal_ldp::oracles::pipeline::{
    decode_report_batch_into, encode_report_batch, Client, PipelineAccumulator, PipelineEstimate,
    PipelineReport,
};
use marginal_ldp::oracles::{oracle_header, FrequencyOracle, OracleKind};
use marginal_ldp::prelude::*;
use proptest::prelude::*;
use std::sync::OnceLock;

const ALL_KINDS: [MechanismKind; 7] = [
    MechanismKind::InpRr,
    MechanismKind::InpPs,
    MechanismKind::InpHt,
    MechanismKind::MargRr,
    MechanismKind::MargPs,
    MechanismKind::MargHt,
    MechanismKind::InpEm,
];

/// One header per protocol: the seven mechanisms at d = 4, the three
/// oracles at d = 6.
fn all_headers() -> Vec<StreamHeader> {
    ALL_KINDS
        .iter()
        .map(|&kind| StreamHeader::mechanism(kind, 4, 2, 1.1))
        .chain(
            OracleKind::ALL
                .iter()
                .map(|&kind| oracle_header(kind, 6, 1.1, 3, 16, 9)),
        )
        .collect()
}

/// Fisher–Yates permutation of `0..n` from a seed.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=(i as u64)) as usize;
        perm.swap(i, j);
    }
    perm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random partition + random merge order ≡ serial ingest, down to
    /// the serialized bytes, for every mechanism and frequency oracle.
    #[test]
    fn any_partition_and_merge_order_matches_serial_ingest(
        assignment in proptest::collection::vec(0usize..5, 120..300),
        seed in 0u64..1_000,
        merge_seed in 0u64..1_000,
    ) {
        let parts = 5usize;
        let n = assignment.len();

        for header in all_headers() {
            let client = Client::from_header(&header).unwrap();
            let empty = || PipelineAccumulator::empty(&header).unwrap();
            let domain = 1u64 << header.d;

            // The per-user seed schedule fixes each user's report no
            // matter which collector ingests it.
            let reports: Vec<PipelineReport> = (0..n as u64)
                .map(|u| client.encode((u * 37 + seed) % domain, &mut user_rng(seed, u)))
                .collect();

            // Reference: one accumulator, users in index order.
            let mut serial = empty();
            for r in &reports {
                serial.absorb(r).unwrap();
            }
            let serial_bytes = serial.to_bytes();

            // Partitioned: users scattered over `parts` collectors (the
            // partition induces arbitrary within-part interleavings of
            // user indices), parts merged in a random order.
            let mut collectors: Vec<Option<PipelineAccumulator>> =
                (0..parts).map(|_| Some(empty())).collect();
            for (user, &part) in assignment.iter().enumerate() {
                collectors[part].as_mut().unwrap().absorb(&reports[user]).unwrap();
            }
            let order = permutation(parts, merge_seed);
            let mut acc = collectors[order[0]].take().unwrap();
            for &i in &order[1..] {
                acc.merge(collectors[i].take().unwrap()).unwrap();
            }

            prop_assert_eq!(
                &acc.to_bytes(),
                &serial_bytes,
                "{} state diverged under partition + merge order",
                acc.protocol_name()
            );

            // The bytes also survive a process boundary: rehydrate and
            // compare both re-serialization and the final estimate.
            let rehydrated = PipelineAccumulator::from_state(&header, &serial_bytes).unwrap();
            prop_assert_eq!(&rehydrated.to_bytes(), &serial_bytes, "{}", acc.protocol_name());
            let name = acc.protocol_name();
            match (acc.finalize(), rehydrated.finalize()) {
                (PipelineEstimate::Mechanism(a), PipelineEstimate::Mechanism(b)) => {
                    prop_assert_eq!(a, b, "{} estimates diverged after rehydration", name);
                }
                (PipelineEstimate::Oracle(a), PipelineEstimate::Oracle(b)) => {
                    for value in 0..domain {
                        prop_assert_eq!(
                            a.estimate(value).to_bits(),
                            b.estimate(value).to_bits(),
                            "{} estimates diverged after rehydration",
                            name
                        );
                    }
                }
                _ => prop_assert!(false, "{} changed family after rehydration", name),
            }
        }
    }

    /// `absorb_batch` over any chunking — empty chunks and singleton
    /// chunks included — is byte-identical to the serial `absorb` loop,
    /// for every mechanism and every frequency oracle (the type-erased
    /// batch path, including InpRR's bit-sliced and InpEM's
    /// group-by-value kernels).
    #[test]
    fn batched_ingest_matches_serial_for_every_protocol(
        n in 0usize..250,
        seed in 0u64..1_000,
        chunks in proptest::collection::vec(0usize..40, 0..12),
    ) {
        for header in all_headers() {
            let client = Client::from_header(&header).unwrap();
            let domain = 1u64 << header.d;
            let reports: Vec<PipelineReport> = (0..n as u64)
                .map(|u| client.encode((u * 37 + seed) % domain, &mut user_rng(seed, u)))
                .collect();
            let mut serial = PipelineAccumulator::empty(&header).unwrap();
            for r in &reports {
                serial.absorb(r).unwrap();
            }
            let mut batched = PipelineAccumulator::empty(&header).unwrap();
            let mut start = 0usize;
            for &len in &chunks {
                let end = (start + len).min(reports.len());
                batched.absorb_batch(&reports[start..end]).unwrap();
                start = end;
            }
            batched.absorb_batch(&reports[start..]).unwrap();
            prop_assert_eq!(batched.report_count(), n as u64);
            prop_assert_eq!(
                &batched.to_bytes(),
                &serial.to_bytes(),
                "{} batched ingest diverged",
                serial.protocol_name()
            );
        }
    }

    /// `REPORT_BATCH` framing (wire v2) is a pure re-chunking of the
    /// report stream: for **every** protocol tag (the seven mechanisms
    /// and the three oracles) and any random batch-size sequence —
    /// empty and singleton batches included — decoding the batch
    /// frames yields reports byte-identical to the single-report
    /// framing of the same sequence, and absorbing them batch-by-batch
    /// produces accumulator state byte-identical to serial ingest.
    #[test]
    fn batch_frames_decode_identical_to_singles(
        n in 0usize..120,
        seed in 0u64..1_000,
        sizes in proptest::collection::vec(0usize..33, 1..8),
    ) {
        for header in all_headers() {
            let client = Client::from_header(&header).unwrap();
            let domain = 1u64 << header.d;
            let reports: Vec<PipelineReport> = (0..n as u64)
                .map(|u| client.encode((u * 37 + seed) % domain, &mut user_rng(seed, u)))
                .collect();
            let singles: Vec<Vec<u8>> = reports.iter().map(PipelineReport::to_bytes).collect();

            // Re-chunk the stream: each random size becomes one
            // REPORT_BATCH frame (size 0 → an empty batch frame), and
            // whatever is left over lands in one final batch.
            let mut frames: Vec<Vec<u8>> = Vec::new();
            let mut start = 0usize;
            for &size in &sizes {
                let take = size.min(singles.len() - start);
                frames.push(encode_report_batch(&singles[start..start + take]));
                start += take;
            }
            frames.push(encode_report_batch(&singles[start..]));

            let mut serial = PipelineAccumulator::empty(&header).unwrap();
            for report in &reports {
                serial.absorb(report).unwrap();
            }

            let mut batched = PipelineAccumulator::empty(&header).unwrap();
            let mut scratch: Vec<PipelineReport> = Vec::new();
            let mut decoded: Vec<PipelineReport> = Vec::new();
            for frame in &frames {
                let m = decode_report_batch_into(frame, &mut scratch).unwrap();
                batched.absorb_batch(&scratch[..m]).unwrap();
                decoded.extend_from_slice(&scratch[..m]);
            }

            prop_assert_eq!(&decoded, &reports, "protocol {:#04x}", header.protocol);
            let rebuilt: Vec<Vec<u8>> = decoded.iter().map(PipelineReport::to_bytes).collect();
            prop_assert_eq!(&rebuilt, &singles, "protocol {:#04x}", header.protocol);
            prop_assert_eq!(
                &batched.to_bytes(),
                &serial.to_bytes(),
                "protocol {:#04x}: batch-framed state diverged from serial ingest",
                header.protocol
            );
        }
    }
}

/// One valid report of each of the eleven report kinds, in wire-tag
/// order: the two InpRR forms, the six other mechanisms, the three
/// oracles.
fn valid_reports() -> &'static [PipelineReport] {
    static REPORTS: OnceLock<Vec<PipelineReport>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        let mut reports: Vec<PipelineReport> = all_headers()
            .iter()
            .map(|header| {
                let client = Client::from_header(header).unwrap();
                client.encode(5, &mut user_rng(77, 3))
            })
            .collect();
        let PipelineReport::InpRr(words) = &reports[0] else {
            panic!("the first header is InpRR");
        };
        let positions = (0..64u32).filter(|&i| words[0] >> i & 1 == 1).collect();
        reports.insert(1, PipelineReport::InpRrList(positions));
        reports
    })
}

/// The header a report of entry `kind` of [`valid_reports`] streams
/// under (both InpRR forms share the InpRR header).
fn kind_header(kind: usize) -> StreamHeader {
    all_headers()[kind.saturating_sub(1)]
}

/// `C(n, r)`.
fn binomial(n: u32, r: u32) -> u64 {
    (0..u64::from(r)).fold(1, |c, i| c * (u64::from(n) - i) / (i + 1))
}

/// Whether an accumulator built from `header` must accept `report`:
/// the acceptance rule, restated from the protocols' table sizes
/// (Table 2 and Appendix B) rather than read off an accumulator.
fn fits(header: &StreamHeader, report: &PipelineReport) -> bool {
    let (d, k) = (header.d, header.k);
    let cells = 1u64 << d;
    let marginals = binomial(d, k);
    let coefficients: u64 = (0..=k).map(|j| binomial(d, j)).sum();
    let (rows, width) = (u64::from(header.hashes), u64::from(header.width));
    // OLH's g = ⌈e^ε⌉ + 1 buckets.
    let buckets = header.eps.exp().ceil() as u64 + 1;
    let in_marginal = |cell: u16| u64::from(cell) < 1 << k;
    report.protocol_tag() == header.protocol
        && match report {
            PipelineReport::InpRr(words) => {
                words.len() as u64 == cells.div_ceil(64) && (cells >= 64 || words[0] >> cells == 0)
            }
            PipelineReport::InpRrList(_) => true,
            PipelineReport::InpPs(cell) => *cell < cells,
            PipelineReport::InpHt(r) => u64::from(r.coefficient) < coefficients,
            PipelineReport::MargRr(r) => {
                u64::from(r.marginal) < marginals && r.ones.iter().all(|&c| in_marginal(c))
            }
            PipelineReport::MargPs(r) => u64::from(r.marginal) < marginals && in_marginal(r.cell),
            PipelineReport::MargHt(r) => {
                u64::from(r.marginal) < marginals && in_marginal(r.coefficient)
            }
            PipelineReport::InpEm(row) => *row < cells,
            PipelineReport::Hcms(r) => u64::from(r.row) < rows && u64::from(r.coefficient) < width,
            PipelineReport::Cms(r) => {
                u64::from(r.row) < rows && r.ones.iter().all(|&b| u64::from(b) < width)
            }
            PipelineReport::Olh(r) => u64::from(r.bucket) < buckets,
        }
}

/// The report frame tag of each entry of [`valid_reports`].
const REPORT_TAGS: [u8; 11] = [
    tag::REPORT_INP_RR_BITS,
    tag::REPORT_INP_RR,
    tag::REPORT_INP_PS,
    tag::REPORT_INP_HT,
    tag::REPORT_MARG_RR,
    tag::REPORT_MARG_PS,
    tag::REPORT_MARG_HT,
    tag::REPORT_INP_EM,
    tag::REPORT_OLH,
    tag::REPORT_CMS,
    tag::REPORT_HCMS,
];

/// Heap bytes a decoded report holds.
fn heap_bytes(report: &PipelineReport) -> usize {
    match report {
        PipelineReport::InpRr(words) => words.capacity() * 8,
        PipelineReport::InpRrList(positions) => positions.capacity() * 4,
        PipelineReport::MargRr(r) => r.ones.capacity() * 2,
        PipelineReport::Cms(r) => r.ones.capacity() * 2,
        _ => 0,
    }
}

/// A well-formed report of the same kind whose variable-length list
/// (bitset words or 1-positions) has `len` entries; fixed-size kinds
/// are returned as they are.
fn resized(report: &PipelineReport, len: usize) -> PipelineReport {
    let mut report = report.clone();
    match &mut report {
        PipelineReport::InpRr(words) => words.resize(len, u64::MAX),
        PipelineReport::InpRrList(positions) => positions.resize(len, 1),
        PipelineReport::MargRr(r) => r.ones.resize(len, 1),
        PipelineReport::Cms(r) => r.ones.resize(len, 1),
        _ => {}
    }
    report
}

/// What one case feeds the decoders, by `mode`: 0 — arbitrary bytes;
/// 1 — arbitrary bytes behind the kind's tag and a supported version
/// byte; 2 — a valid report with random byte flips (each flip's low
/// bits pick the byte, its top byte the nonzero XOR mask); 3 — a valid
/// report cut anywhere; 4 — a well-formed report with a list of any
/// length.
fn report_blob(mode: u8, kind: usize, version: u8, junk: &[u8], flips: &[u64]) -> Vec<u8> {
    let valid = &valid_reports()[kind];
    match mode {
        0 => junk.to_vec(),
        1 => [&[REPORT_TAGS[kind], version][..], junk].concat(),
        2 => {
            let mut blob = valid.to_bytes();
            for &flip in flips {
                let at = flip as usize % blob.len();
                blob[at] ^= ((flip >> 56) as u8).max(1);
            }
            blob
        }
        3 => {
            let blob = valid.to_bytes();
            blob[..junk.len() % (blob.len() + 1)].to_vec()
        }
        _ => resized(valid, junk.len() % 6).to_bytes(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Every report decoder — `PipelineReport::from_bytes`,
    /// `decode_into` over a slot already holding a report of any of the
    /// eleven kinds, and `decode_report_batch_into` — survives
    /// arbitrary input: no panic, and no decoded `Vec` grows past what
    /// its input holds. Decoders accept exactly the same blobs, and
    /// every decoded batch, of any kind, either absorbs whole or is
    /// refused whole by name: a report of another protocol or with a
    /// field outside the header's tables never panics the absorb.
    #[test]
    fn arbitrary_report_payloads_never_panic_or_overallocate(
        mode in 0u8..5,
        kind in 0usize..11,
        slot_kind in 0usize..11,
        version in MIN_VERSION..VERSION + 1,
        junk in proptest::collection::vec(any::<u8>(), 0..64),
        flips in proptest::collection::vec(any::<u64>(), 1..4),
        forge in 0u32..16,
    ) {
        // Half the cases forge the batch count prefix to 0..8.
        let forge = (forge < 8).then_some(forge);
        let blob = report_blob(mode, kind, version, &junk, &flips);
        let decoded = PipelineReport::from_bytes(&blob);
        if let Ok(report) = &decoded {
            prop_assert!(heap_bytes(report) <= blob.len());
            prop_assert_eq!(&PipelineReport::from_bytes(&report.to_bytes()), &decoded);
        }
        if mode == 4 {
            prop_assert!(decoded.is_ok(), "well-formed blob refused: {:?}", decoded);
        }

        // The same blob into a reused slot of any kind.
        let mut slot = valid_reports()[slot_kind].clone();
        let held = heap_bytes(&slot);
        let into = slot.decode_into(&blob);
        prop_assert_eq!(into.is_ok(), decoded.is_ok(), "decoders disagree on {:?}", blob);
        if into.is_ok() {
            prop_assert_eq!(Ok(&slot), decoded.as_ref());
        }
        prop_assert!(heap_bytes(&slot) <= held.max(blob.len()));

        // The same blob between two valid reports inside a REPORT_BATCH
        // frame, with the count prefix honest or forged, decoded into a
        // scratch already holding reports of another kind — and the raw
        // blob as a batch frame of its own.
        let good = valid_reports()[kind].to_bytes();
        let mut frame = encode_report_batch(&[good.clone(), blob.clone(), good]);
        if let Some(count) = forge {
            frame[2..6].copy_from_slice(&count.to_le_bytes());
        }
        let mut scratch = vec![valid_reports()[slot_kind].clone(); 3];
        let held: usize = scratch.iter().map(heap_bytes).sum();
        let batch = decode_report_batch_into(&frame, &mut scratch);
        if decoded.is_ok() && forge.is_none() {
            prop_assert_eq!(&batch, &Ok(3));
            prop_assert_eq!(Ok(&scratch[1]), decoded.as_ref());
        }
        let grown: usize = scratch.iter().map(heap_bytes).sum();
        prop_assert!(grown <= held + frame.len());
        prop_assert!(scratch.len() <= 3.max(frame.len() / 6));
        let _ = decode_report_batch_into(&blob, &mut scratch);

        // Whatever decoded absorbs, or is refused as a whole, under the
        // header of the blob's own kind.
        if let Ok(n) = batch {
            let header = kind_header(kind);
            let all_fit = scratch[..n].iter().all(|r| fits(&header, r));
            let mut acc = PipelineAccumulator::empty(&header).unwrap();
            match acc.absorb_batch(&scratch[..n]) {
                Ok(()) => {
                    prop_assert!(all_fit, "absorbed a report that does not fit");
                    prop_assert_eq!(acc.report_count(), n as u64);
                }
                Err(e) => {
                    prop_assert!(!all_fit, "refused a fitting batch: {}", e);
                    prop_assert!(
                        e.contains("mixes protocols") || e.starts_with("bad report: "),
                        "unnamed error: {}",
                        e
                    );
                    prop_assert_eq!(acc.report_count(), 0);
                }
            }
        }
    }
}
