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
//! * Robustness: arbitrary bytes after a 0x28 prelude, alone or inside
//!   `REPORT_BATCH` frames, never panic the decoder, never allocate
//!   beyond the input, and a bitset that does not fit the accumulator
//!   is rejected by name, absorbing nothing.

use marginal_ldp::core::frame::StreamHeader;
use marginal_ldp::core::wire::{tag, Writer};
use marginal_ldp::core::{user_rng, Accumulator, Mechanism, MechanismKind, MechanismReport};
use marginal_ldp::oracles::pipeline::{
    decode_report_batch_into, encode_report_batch, PipelineAccumulator, PipelineReport,
};
use proptest::prelude::*;

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
    let mut blob = MechanismReport::InpRrList(positions(words)).to_bytes();
    assert_eq!(blob[0], tag::REPORT_INP_RR);
    blob[1] = 3;
    blob
}

/// Words per report: `⌈2^d / 64⌉`.
fn word_count(d: u32) -> usize {
    (1usize << d).div_ceil(64)
}

fn mechanism(d: u32) -> Mechanism {
    MechanismKind::InpRr.build(d, 2, 1.1)
}

/// `n` users' bitset reports under `user_rng(seed, u)`.
fn bitset_reports(mech: &Mechanism, n: u64, seed: u64) -> Vec<Vec<u64>> {
    let cells = mech.communication_bits(); // InpRR: one bit per cell
    (0..n)
        .map(|u| {
            let mut rng = user_rng(seed, u);
            match mech.encode((u * 37) % cells, &mut rng) {
                MechanismReport::InpRr(words) => words,
                other => panic!("InpRR encoded a {:?} report", other.kind()),
            }
        })
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
                .map(|w| MechanismReport::InpRr(w.clone()).to_bytes())
                .collect();
            let v3: Vec<Vec<u8>> = bits.iter().map(|w| v3_list_blob(w)).collect();
            let label = format!("d={d} n={n}");

            // Reference: the legacy lists absorbed one at a time, the
            // pre-v4 collector's exact arithmetic.
            let mut reference = mech.accumulator();
            for blob in &v3 {
                reference.absorb(&MechanismReport::from_bytes(blob).unwrap());
            }
            let want = reference.to_bytes();

            let mut serial = mech.accumulator();
            for blob in &v4 {
                serial.absorb(&MechanismReport::from_bytes(blob).unwrap());
            }
            assert_eq!(serial.to_bytes(), want, "{label}: serial bitsets");

            let mut typed = mech.accumulator();
            let decoded: Vec<MechanismReport> = v4
                .iter()
                .chain(&v3)
                .map(|b| MechanismReport::from_bytes(b).unwrap())
                .collect();
            typed.absorb_batch(&decoded[..v4.len()]);
            assert_eq!(typed.to_bytes(), want, "{label}: typed batch");
            let mut typed_legacy = mech.accumulator();
            typed_legacy.absorb_batch(&decoded[v4.len()..]);
            assert_eq!(typed_legacy.to_bytes(), want, "{label}: typed legacy batch");

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
        let mut acc = mech.accumulator();
        for u in 0..2000u64 {
            let mut rng = user_rng(2018, u);
            acc.absorb(&mech.encode((u * 37) % (1 << d), &mut rng));
        }
        let state = acc.to_bytes();
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
        let bad = PipelineReport::Mechanism(MechanismReport::InpRr(words.clone()));
        let good = PipelineReport::Mechanism(MechanismReport::InpRr(vec![1; word_count(d)]));

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

/// Whether a decoded bitset fits a d-dimensional accumulator.
fn fits(d: u32, words: &[u64]) -> bool {
    words.len() == word_count(d) && (d >= 6 || words[0] >> (1u32 << d) == 0)
}

/// What one proptest case feeds the decoder after a 0x28 prelude, by
/// `mode`: 0 — arbitrary bytes; 1 — a well-formed report that fits a
/// d-dimensional accumulator; 2 — a well-formed report of any size;
/// 3 — an arbitrary word count, words and junk, cut anywhere.
fn bitset_blob(
    mode: u8,
    d: u32,
    count: u32,
    mut words: Vec<u64>,
    junk: &[u8],
    cut: usize,
) -> Vec<u8> {
    let mut w = Writer::with_tag(tag::REPORT_INP_RR_BITS);
    match mode {
        0 => w.put_raw(junk),
        1 | 2 => {
            if mode == 1 {
                words.resize(word_count(d), 0);
                if d < 6 {
                    words[0] &= (1 << (1u32 << d)) - 1;
                }
            }
            w.put_u32(words.len() as u32);
            words.iter().for_each(|&word| w.put_u64(word));
        }
        _ => {
            w.put_u32(count);
            words.iter().for_each(|&word| w.put_u64(word));
            w.put_raw(junk);
        }
    }
    let mut blob = w.into_bytes();
    if mode == 3 {
        blob.truncate(cut.max(2));
    }
    blob
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn arbitrary_bitset_payloads_never_panic_or_overallocate(
        mode in 0u8..4,
        d in 1u32..9,
        count in 0u32..8,
        words in proptest::collection::vec(any::<u64>(), 0..6),
        junk in proptest::collection::vec(any::<u8>(), 0..40),
        cut in 0usize..80,
        forge in any::<bool>(),
    ) {
        let blob = bitset_blob(mode, d, count, words, &junk, cut);
        match MechanismReport::from_bytes(&blob) {
            Ok(MechanismReport::InpRr(decoded)) => {
                prop_assert_eq!(blob.len(), 6 + 8 * decoded.len());
                prop_assert!(decoded.capacity() * 8 <= blob.len());
                if mode == 1 {
                    prop_assert!(fits(d, &decoded));
                }
            }
            Ok(other) => prop_assert!(false, "0x28 decoded as {:?}", other.kind()),
            Err(e) => prop_assert!(mode == 0 || mode == 3, "well-formed blob refused: {}", e),
        }

        // The same blob between two valid reports inside a REPORT_BATCH
        // frame, with the count prefix honest or forged.
        let mech = mechanism(d);
        let good = MechanismReport::InpRr(bitset_reports(&mech, 1, 7).remove(0)).to_bytes();
        let mut frame = encode_report_batch(&[good.clone(), blob, good]);
        if forge {
            frame[2..6].copy_from_slice(&count.to_le_bytes());
        }
        let mut scratch = Vec::new();
        let decoded = decode_report_batch_into(&frame, &mut scratch);
        if mode != 0 && mode != 3 && !forge {
            prop_assert_eq!(decoded.clone(), Ok(3));
        }
        if let Ok(n) = decoded {
            let held: usize = scratch[..n]
                .iter()
                .map(|r| match r {
                    PipelineReport::Mechanism(MechanismReport::InpRr(w)) => w.capacity() * 8,
                    _ => 0,
                })
                .sum();
            prop_assert!(held <= frame.len());
            let all_fit = scratch[..n].iter().all(|r| match r {
                PipelineReport::Mechanism(MechanismReport::InpRr(w)) => fits(d, w),
                _ => false,
            });
            let mut acc = PipelineAccumulator::empty(&header(d)).unwrap();
            match acc.absorb_batch(&scratch[..n]) {
                Ok(()) => {
                    prop_assert!(all_fit);
                    prop_assert_eq!(acc.report_count(), n as u64);
                }
                Err(e) => {
                    prop_assert!(!all_fit, "refused a fitting batch: {}", e);
                    prop_assert!(e.contains("InpRR bitset"), "unnamed error: {}", e);
                    prop_assert_eq!(acc.report_count(), 0);
                }
            }
        }
    }
}
