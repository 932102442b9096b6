//! InpRR's two report forms — the v4 bitset (`REPORT_INP_RR_BITS`,
//! 0x28) and the legacy v1–v3 index list (`REPORT_INP_RR`, 0x21) — and
//! the decoder that takes them off the wire.
//!
//! * Equivalence: reports drawn under the same seeds absorb to
//!   byte-identical accumulator state in either form, serially, in
//!   batches, and in mixed legacy/bitset batches, across partial words
//!   (2^d < 64) and the bit-sliced kernel's 255-report flush boundary.
//! * Compatibility: the state for a fixed seed matches the pre-v4
//!   encoder's, so the switch changed bytes on the wire only.
//! * Refusal: a bitset that does not fit the accumulator is rejected by
//!   name, absorbing nothing. (Arbitrary-bytes robustness of the 0x28
//!   decoder, with every other report decoder, is in
//!   `tests/streaming.rs`.)

use marginal_ldp::core::frame::StreamHeader;
use marginal_ldp::core::wire::tag;
use marginal_ldp::core::{user_rng, Accumulator, InpRr, InpRrReportRef, MechanismKind};
use marginal_ldp::oracles::pipeline::{
    decode_report_batch_into, encode_report_batch, PipelineAccumulator, PipelineReport,
};

/// The 1-positions of a bitset report, ascending — exactly the index
/// list the v3 encoder emitted for the same draws.
fn positions(words: &[u64]) -> Vec<u32> {
    let mut out = Vec::new();
    for (i, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            out.push(i as u32 * 64 + w.trailing_zeros());
            w &= w - 1;
        }
    }
    out
}

/// A legacy report blob as a v3 writer stamped it.
fn v3_list_blob(words: &[u64]) -> Vec<u8> {
    let mut blob = PipelineReport::InpRrList(positions(words)).to_bytes();
    assert_eq!(blob[0], tag::REPORT_INP_RR);
    blob[1] = 3;
    blob
}

/// Words per report: `⌈2^d / 64⌉`.
fn word_count(d: u32) -> usize {
    (1usize << d).div_ceil(64)
}

fn mechanism(d: u32) -> InpRr {
    InpRr::new(d, 1.1)
}

/// `n` users' bitset reports under `user_rng(seed, u)`.
fn bitset_reports(mech: &InpRr, n: u64, seed: u64) -> Vec<Vec<u64>> {
    let cells = 1u64 << mech.d();
    (0..n)
        .map(|u| mech.encode((u * 37) % cells, &mut user_rng(seed, u)))
        .collect()
}

fn header(d: u32) -> StreamHeader {
    StreamHeader::mechanism(MechanismKind::InpRr, d, 2, 1.1)
}

/// Decode one `REPORT_BATCH` frame of `blobs` and absorb it through the
/// pipeline layer, as the collector does.
fn absorb_frame(acc: &mut PipelineAccumulator, blobs: &[Vec<u8>], version: u8) {
    let mut frame = encode_report_batch(blobs);
    frame[1] = version;
    let mut scratch = Vec::new();
    let n = decode_report_batch_into(&frame, &mut scratch).unwrap();
    assert_eq!(n, blobs.len());
    acc.absorb_batch(&scratch[..n]).unwrap();
}

#[test]
fn bitset_and_legacy_reports_absorb_to_identical_state() {
    for d in [1u32, 3, 5, 6, 8, 10] {
        let mech = mechanism(d);
        for n in [1u64, 254, 255, 256, 4096] {
            let bits = bitset_reports(&mech, n, 1000 + u64::from(d));
            let v4: Vec<Vec<u8>> = bits
                .iter()
                .map(|w| PipelineReport::InpRr(w.clone()).to_bytes())
                .collect();
            let v3: Vec<Vec<u8>> = bits.iter().map(|w| v3_list_blob(w)).collect();
            let label = format!("d={d} n={n}");

            // Reference: the legacy lists absorbed one at a time, the
            // pre-v4 collector's exact arithmetic.
            let mut reference = PipelineAccumulator::empty(&header(d)).unwrap();
            for blob in &v3 {
                reference.absorb_report(blob).unwrap();
            }
            let want = reference.to_bytes();

            let mut serial = PipelineAccumulator::empty(&header(d)).unwrap();
            for blob in &v4 {
                serial.absorb_report(blob).unwrap();
            }
            assert_eq!(serial.to_bytes(), want, "{label}: serial bitsets");

            let mut typed = PipelineAccumulator::empty(&header(d)).unwrap();
            let decoded: Vec<PipelineReport> = v4
                .iter()
                .chain(&v3)
                .map(|b| PipelineReport::from_bytes(b).unwrap())
                .collect();
            typed.absorb_batch(&decoded[..v4.len()]).unwrap();
            assert_eq!(typed.to_bytes(), want, "{label}: typed batch");
            let mut typed_legacy = PipelineAccumulator::empty(&header(d)).unwrap();
            typed_legacy.absorb_batch(&decoded[v4.len()..]).unwrap();
            assert_eq!(typed_legacy.to_bytes(), want, "{label}: typed legacy batch");

            // The typed aggregator's own bitset kernel, without the
            // type-erased layer.
            let mut direct = mech.aggregator();
            direct.absorb_batch_by(&bits, |r| Some(InpRrReportRef::Bits(r)));
            assert_eq!(
                Accumulator::to_bytes(&direct),
                want,
                "{label}: typed kernel"
            );

            for (blobs, version, what) in [(&v4, 4u8, "v4 batch"), (&v3, 3, "v3 batch")] {
                let mut acc = PipelineAccumulator::empty(&header(d)).unwrap();
                absorb_frame(&mut acc, blobs, version);
                assert_eq!(acc.to_bytes(), want, "{label}: {what}");
            }

            // Mixed: every third user legacy, in one frame and in
            // frames that split the batch unevenly.
            let mixed: Vec<Vec<u8>> = (0..v4.len())
                .map(|u| {
                    if u % 3 == 0 {
                        v3[u].clone()
                    } else {
                        v4[u].clone()
                    }
                })
                .collect();
            let mut one = PipelineAccumulator::empty(&header(d)).unwrap();
            absorb_frame(&mut one, &mixed, 4);
            assert_eq!(one.to_bytes(), want, "{label}: mixed batch");
            let mut split = PipelineAccumulator::empty(&header(d)).unwrap();
            for chunk in mixed.chunks(100) {
                absorb_frame(&mut split, chunk, 4);
            }
            assert_eq!(split.to_bytes(), want, "{label}: mixed chunks");
        }
    }
}

/// 64-bit FNV-1a over a state blob with its version byte masked, so the
/// pin holds across the version bump it is meant to outlive.
fn state_fingerprint(state: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, &b) in state.iter().enumerate() {
        h ^= u64::from(if i == 1 { 0 } else { b });
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn state_for_a_fixed_seed_matches_the_index_list_encoder() {
    // Fingerprints of the state the v3 encoder (u32 index lists)
    // produced for these populations: the bitset encoder draws the same
    // coins, so only the wire bytes changed.
    for (d, want) in [
        (3u32, 0xbd78_e55f_03f4_74f7u64),
        (8, 0x06f9_8287_b36b_8019),
        (10, 0x4315_d870_06cd_65cd),
    ] {
        let mech = mechanism(d);
        let mut acc = mech.aggregator();
        for u in 0..2000u64 {
            let mut rng = user_rng(2018, u);
            acc.absorb(&mech.encode((u * 37) % (1 << d), &mut rng));
        }
        let state = Accumulator::to_bytes(&acc);
        assert_eq!(state[1], marginal_ldp::core::wire::VERSION);
        assert_eq!(state_fingerprint(&state), want, "d={d}");
    }
}

#[test]
fn mis_sized_bitsets_are_rejected_by_name_and_absorb_nothing() {
    let bad_reports = [
        // d = 8 takes 4 words: 3 and 5 are both refused.
        (8u32, vec![0u64; 3], "word count"),
        (8, vec![0u64; 5], "word count"),
        (3, vec![], "word count"),
        // d = 3 has 8 cells: bit 8 is past the last one.
        (3, vec![1 << 8], "past the accumulator"),
    ];
    for (d, words, named) in bad_reports {
        let fresh = PipelineAccumulator::empty(&header(d)).unwrap().to_bytes();
        let bad = PipelineReport::InpRr(words.clone());
        let good = PipelineReport::InpRr(vec![1; word_count(d)]);

        let mut acc = PipelineAccumulator::empty(&header(d)).unwrap();
        let err = acc.absorb(&bad).unwrap_err();
        assert!(err.contains(named), "d={d} {words:?}: {err}");
        // The whole batch is refused, the valid report before it too.
        let err = acc.absorb_batch(&[good.clone(), bad]).unwrap_err();
        assert!(err.contains(named), "d={d} {words:?}: {err}");
        assert_eq!(acc.report_count(), 0);
        assert_eq!(acc.to_bytes(), fresh);
        acc.absorb(&good).unwrap();
        assert_eq!(acc.report_count(), 1);
    }
}
