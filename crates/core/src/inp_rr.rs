//! `InpRR` — parallel randomized response on the full input vector (§4.2).
//!
//! Each user one-hot-encodes their record into `2^d` bits and perturbs
//! **every** bit with `ε/2`-randomized response (Fact 3.2 composes the two
//! affected positions to ε-LDP). The aggregator unbiases per-cell report
//! frequencies to reconstruct the full distribution; marginals are then
//! obtained by aggregation (Theorem 4.3: total variation error
//! `Õ(2^{(d+k)/2} / (ε√N))`).
//!
//! Communication is `2^d` bits per user, so the faithful client path is
//! `O(2^d)` per user. [`InpRr::run_fast`] instead samples the aggregate
//! per-cell 1-report counts directly from
//! `Binomial(n_cell, p₁) + Binomial(N − n_cell, p₀)` — identical in
//! distribution to summing the per-user reports (independence across users
//! and cells), validated by a statistical equivalence test below.

use crate::wire::{tag, Reader, WireError, Writer};
use crate::{Accumulator, FullDistributionEstimate};
use ldp_mechanisms::{UnaryEncoding, UnaryFlavor};
use ldp_sampling::{bernoulli_fixed, bernoulli_word, binomial, hash::splitmix64};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Configuration of the `InpRR` mechanism.
#[derive(Clone, Debug)]
pub struct InpRr {
    d: u32,
    ue: UnaryEncoding,
}

impl InpRr {
    /// ε-LDP instance over `d` attributes, using the Wang et al. optimized
    /// probabilities the paper's experiments adopt (§5.1).
    #[must_use]
    pub fn new(d: u32, eps: f64) -> Self {
        Self::with_flavor(d, eps, UnaryFlavor::Optimized)
    }

    /// Choose the unary-encoding probability flavor explicitly (the
    /// `ablation_oue` bench compares the two).
    #[must_use]
    pub fn with_flavor(d: u32, eps: f64, flavor: UnaryFlavor) -> Self {
        assert!(
            (1..=24).contains(&d),
            "InpRR materializes 2^d cells; need d ≤ 24"
        );
        InpRr {
            d,
            ue: UnaryEncoding::for_epsilon(eps, flavor),
        }
    }

    /// Domain dimensionality.
    #[must_use]
    pub fn d(&self) -> u32 {
        self.d
    }

    /// The underlying per-bit primitive.
    #[must_use]
    pub fn encoding(&self) -> UnaryEncoding {
        self.ue
    }

    /// Number of `u64` words in one report: `⌈2^d / 64⌉`.
    #[must_use]
    pub fn words(&self) -> usize {
        (1usize << self.d).div_ceil(64)
    }

    /// Faithful client: perturb the full one-hot vector and report it
    /// as a bitset of [`words`](Self::words) `u64` words (cell `c` is
    /// bit `c mod 64` of word `c / 64`; bits past `2^d` are zero) — the
    /// paper's `2^d` bits of communication. `O(2^d)` cells, but the
    /// coins are drawn 64 lanes per RNG word (see
    /// [`perturbed_words`](Self::perturbed_words)).
    pub fn encode<R: Rng + ?Sized>(&self, row: u64, rng: &mut R) -> Vec<u64> {
        let mut words = Vec::with_capacity(self.words());
        self.perturbed_words(row, rng, |word| words.push(word));
        words
    }

    /// Draw the perturbed one-hot vector word by word, invoking `emit`
    /// for each of the [`words`](Self::words) words in cell order. This
    /// is the shared core of the serial [`encode`](Self::encode) and the
    /// batched kernel: the `2^d − 1` background cells are i.i.d.
    /// `Bernoulli(p₀)` coins drawn 64 lanes per RNG word via
    /// [`bernoulli_word`] (quantized at 2⁻⁶⁴, finer than `gen_bool`'s
    /// 53-bit comparison), with the one true cell's bit overridden by a
    /// separate `Bernoulli(p₁)` draw. The schedule is deterministic in
    /// the RNG state, so per-user reproducibility (`user_rng(seed, i)`)
    /// is preserved.
    #[inline]
    pub fn perturbed_words<R: Rng + ?Sized, F: FnMut(u64)>(
        &self,
        row: u64,
        rng: &mut R,
        mut emit: F,
    ) {
        let cells = 1u64 << self.d;
        debug_assert!(row < cells);
        let truth = rng.gen_bool(self.ue.p1());
        let p0 = bernoulli_fixed(self.ue.p0());
        let mut base = 0u64;
        while base < cells {
            let lanes = (cells - base).min(64) as u32;
            let mut word = bernoulli_word(rng, p0, lanes);
            if row >= base && row - base < u64::from(lanes) {
                let bit = 1u64 << (row - base);
                if truth {
                    word |= bit;
                } else {
                    word &= !bit;
                }
            }
            emit(word);
            base += u64::from(lanes);
        }
    }

    /// Fresh aggregator.
    #[must_use]
    pub fn aggregator(&self) -> InpRrAggregator {
        InpRrAggregator {
            ue: self.ue,
            ones: vec![0u64; 1usize << self.d],
            n: 0,
            d: self.d,
        }
    }

    /// Exact-in-distribution aggregate simulation (see module docs): draws
    /// the final per-cell 1-report counts directly. `O(N + 2^d)`.
    #[must_use]
    pub fn run_fast(&self, rows: &[u64], seed: u64) -> FullDistributionEstimate {
        assert!(!rows.is_empty());
        let cells = 1usize << self.d;
        let mut true_counts = vec![0u64; cells];
        for &r in rows {
            true_counts[r as usize] += 1;
        }
        let n = rows.len() as u64;
        let mut rng = SmallRng::seed_from_u64(splitmix64(seed ^ 0x1A9C));
        let mut agg = self.aggregator();
        agg.n = rows.len();
        for (cell, ones) in agg.ones.iter_mut().enumerate() {
            let n1 = true_counts[cell];
            *ones = binomial(&mut rng, n1, self.ue.p1()) + binomial(&mut rng, n - n1, self.ue.p0());
        }
        agg.finish()
    }
}

/// Aggregator for [`InpRr`]: per-cell 1-report counts.
#[derive(Clone, Debug)]
pub struct InpRrAggregator {
    ue: UnaryEncoding,
    ones: Vec<u64>,
    n: usize,
    d: u32,
}

/// One [`InpRrAggregator`] report in either of its wire forms, as
/// borrowed by [`InpRrAggregator::absorb_batch_by`].
#[derive(Clone, Copy, Debug)]
pub enum InpRrReportRef<'a> {
    /// The perturbed vector as a bitset (wire v4, the form
    /// [`InpRr::encode`] produces).
    Bits(&'a [u64]),
    /// The legacy (wire v1–v3) list of 1-positions.
    Positions(&'a [u32]),
}

impl InpRrAggregator {
    /// Number of `u64` words a report for this accumulator carries.
    #[must_use]
    pub fn words(&self) -> usize {
        self.ones.len().div_ceil(64)
    }

    /// Check that a bitset report fits an accumulator over `d`
    /// attributes: exactly `⌈2^d/64⌉` words, and no bit set past cell
    /// `2^d − 1` (possible only when `2^d < 64`). The absorb kernel
    /// never panics on a report that fails this — it drops extra words
    /// and bits and counts missing words as zero — so this is the check
    /// a collector applies to untrusted reports first, to reject rather
    /// than miscount them.
    pub fn check_bits(d: u32, words: &[u64]) -> Result<(), WireError> {
        let cells = 1u64.checked_shl(d).unwrap_or(0);
        if u64::try_from(words.len()).ok() != Some(cells.div_ceil(64)) || cells == 0 {
            return Err(WireError::Invalid(
                "InpRR bitset word count does not match the accumulator's 2^d cells",
            ));
        }
        if cells < 64 && words.first().is_some_and(|w| w >> cells != 0) {
            return Err(WireError::Invalid(
                "InpRR bitset sets a bit past the accumulator's 2^d cells",
            ));
        }
        Ok(())
    }

    /// Absorb one user's bitset report — the batch kernel over a batch
    /// of one.
    #[inline]
    pub fn absorb(&mut self, report: &[u64]) {
        self.absorb_batch_by(std::slice::from_ref(&report), |r| {
            Some(InpRrReportRef::Bits(r))
        });
    }

    /// Absorb one legacy (wire v1–v3) report: the positions reporting 1.
    /// Positions are folded into the 2^d-cell table (`pos mod 2^d`), so
    /// a corrupt wire report degrades to a miscount instead of
    /// panicking a collector thread.
    pub fn absorb_positions(&mut self, positions: &[u32]) {
        self.absorb_batch_by(std::slice::from_ref(&positions), |p| {
            Some(InpRrReportRef::Positions(p))
        });
    }

    /// The one absorb kernel: every item `view` maps to a report is
    /// absorbed (items mapped to `None` are skipped). Bitset reports are
    /// counted by the bit-sliced kernel (`crate::bitslice`), flushing
    /// into the cell counts every 255 reports; legacy position lists
    /// are added directly. Counts are sums, so the state is
    /// byte-identical to absorbing each report serially, in any mix of
    /// the two forms.
    pub fn absorb_batch_by<T, V>(&mut self, reports: &[T], view: V)
    where
        V: Fn(&T) -> Option<InpRrReportRef<'_>>,
    {
        let mask = self.ones.len() - 1; // cell count is 2^d
        for report in reports {
            match view(report) {
                Some(InpRrReportRef::Bits(_)) => self.n += 1,
                Some(InpRrReportRef::Positions(positions)) => {
                    for &pos in positions {
                        self.ones[pos as usize & mask] += 1;
                    }
                    self.n += 1;
                }
                None => {}
            }
        }
        crate::bitslice::count_bits(&mut self.ones, reports, |r| match view(r) {
            Some(InpRrReportRef::Bits(words)) => Some(words),
            _ => None,
        });
    }

    /// Fold another shard's aggregator into this one.
    pub fn merge(&mut self, other: InpRrAggregator) {
        assert_eq!(self.ones.len(), other.ones.len());
        for (a, b) in self.ones.iter_mut().zip(other.ones) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Number of reports absorbed.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of attributes `d` (the table has `2^d` cells).
    #[must_use]
    pub fn d(&self) -> u32 {
        self.d
    }

    /// The leading bytes of this aggregator's serialized state: tag,
    /// version and `d` and the two unary-encoding probabilities. Two states
    /// merge only when these agree, so a collector compares them before
    /// trusting a state it did not build.
    #[must_use]
    pub fn state_prefix(&self) -> Writer {
        let mut w = Writer::with_tag(tag::INP_RR);
        w.put_u32(self.d);
        w.put_f64(self.ue.p1());
        w.put_f64(self.ue.p0());
        w
    }

    /// Unbias every cell and produce the reconstructed full distribution.
    #[must_use]
    pub fn finish(self) -> FullDistributionEstimate {
        assert!(self.n > 0, "no reports absorbed");
        let n = self.n as f64;
        let dist = self
            .ones
            .iter()
            .map(|&c| self.ue.unbias_frequency(c as f64 / n))
            .collect();
        FullDistributionEstimate::new(self.d, dist)
    }
}

impl Accumulator for InpRrAggregator {
    type Report = Vec<u64>;
    type Output = FullDistributionEstimate;

    fn absorb(&mut self, report: &Vec<u64>) {
        InpRrAggregator::absorb(self, report);
    }

    fn merge(&mut self, other: Self) {
        InpRrAggregator::merge(self, other);
    }

    fn report_count(&self) -> u64 {
        self.n as u64
    }

    fn finalize(self) -> FullDistributionEstimate {
        self.finish()
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut w = self.state_prefix();
        w.put_u64(self.n as u64);
        w.put_u64_slice(&self.ones);
        w.into_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::with_tag(bytes, tag::INP_RR)?;
        let d = r.get_u32()?;
        let p1 = r.get_f64()?;
        let p0 = r.get_f64()?;
        let n = r.get_u64()? as usize;
        let ones = r.get_u64_vec()?;
        r.finish()?;
        if !(1..=24).contains(&d) {
            return Err(WireError::Invalid("InpRR dimension"));
        }
        if !(0.0..=1.0).contains(&p1) || !(0.0..=1.0).contains(&p0) || p1 <= p0 {
            return Err(WireError::Invalid("InpRR probabilities"));
        }
        if ones.len() != 1usize << d {
            return Err(WireError::Invalid("InpRR cell-count length"));
        }
        Ok(InpRrAggregator {
            ue: UnaryEncoding::with_probabilities(p1, p0),
            ones,
            n,
            d,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MarginalEstimator;
    use ldp_bits::Mask;
    use ldp_data::BinaryDataset;
    use ldp_transform::total_variation_distance;
    use rand::rngs::StdRng;

    fn skewed_rows(d: u32, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                // Mild skew toward low indices.
                let a = rng.gen_range(0..(1u64 << d));
                let b = rng.gen_range(0..(1u64 << d));
                a.min(b)
            })
            .collect()
    }

    #[test]
    fn faithful_path_reconstructs_distribution() {
        let mech = InpRr::new(3, 2.0);
        let rows = skewed_rows(3, 40_000, 1);
        let ds = BinaryDataset::new(3, rows.clone());
        let mut rng = StdRng::seed_from_u64(2);
        let mut agg = mech.aggregator();
        for &row in &rows {
            let report = mech.encode(row, &mut rng);
            agg.absorb(&report);
        }
        let est = agg.finish();
        let tvd = total_variation_distance(&ds.full_distribution(), est.distribution());
        assert!(tvd < 0.05, "tvd {tvd}");
    }

    #[test]
    fn fast_path_reconstructs_distribution() {
        let mech = InpRr::new(4, 1.5);
        let rows = skewed_rows(4, 100_000, 3);
        let ds = BinaryDataset::new(4, rows.clone());
        let est = mech.run_fast(&rows, 4);
        let tvd = total_variation_distance(&ds.full_distribution(), est.distribution());
        assert!(tvd < 0.05, "tvd {tvd}");
    }

    /// Statistical equivalence of the faithful and fast paths: the mean
    /// and spread of the estimate of one (arbitrary) cell should agree
    /// across repetitions.
    #[test]
    fn fast_path_matches_faithful_distributionally() {
        let mech = InpRr::new(3, 1.1);
        let rows = skewed_rows(3, 2_000, 5);
        let reps = 120;
        let cell = 2usize;

        let mut faithful = Vec::with_capacity(reps);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..reps {
            let mut agg = mech.aggregator();
            for &row in &rows {
                let rep = mech.encode(row, &mut rng);
                agg.absorb(&rep);
            }
            faithful.push(agg.finish().distribution()[cell]);
        }
        let fast: Vec<f64> = (0..reps)
            .map(|r| mech.run_fast(&rows, 1000 + r as u64).distribution()[cell])
            .collect();

        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let sd = |v: &[f64]| {
            let m = mean(v);
            (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
        };
        let (mf, ms) = (mean(&faithful), mean(&fast));
        let (sf, ss) = (sd(&faithful), sd(&fast));
        // Means within 3 combined standard errors; spreads within 40%.
        let se = (sf * sf / reps as f64 + ss * ss / reps as f64).sqrt();
        assert!((mf - ms).abs() < 3.5 * se, "means {mf} vs {ms} (se {se})");
        assert!((sf / ss).max(ss / sf) < 1.4, "sds {sf} vs {ss}");
    }

    #[test]
    fn estimator_is_unbiased_per_cell() {
        // Mean estimate over repetitions converges to the truth.
        let mech = InpRr::new(2, 0.8);
        let rows = vec![0u64; 300]; // point mass at cell 0
        let reps = 300;
        let mut sums = [0.0f64; 4];
        for r in 0..reps {
            let est = mech.run_fast(&rows, r as u64);
            for (s, v) in sums.iter_mut().zip(est.distribution()) {
                *s += v;
            }
        }
        for (cell, s) in sums.iter().enumerate() {
            let mean = s / f64::from(reps);
            let truth = if cell == 0 { 1.0 } else { 0.0 };
            assert!((mean - truth).abs() < 0.05, "cell {cell}: {mean}");
        }
    }

    #[test]
    fn marginals_consistent_with_distribution() {
        let mech = InpRr::new(4, 1.1);
        let rows = skewed_rows(4, 50_000, 7);
        let est = mech.run_fast(&rows, 8);
        let beta = Mask::new(0b0101);
        let m = est.marginal(beta);
        // Marginal entries sum to the same total as the distribution
        // (≈ 1, up to unbiasing noise).
        let total: f64 = est.distribution().iter().sum();
        assert!((m.iter().sum::<f64>() - total).abs() < 1e-9);
    }

    #[test]
    fn report_words_are_the_table_2_bits_rounded_to_words() {
        use ldp_mechanisms::theory::MethodBound;
        for d in 1..=12u32 {
            let mech = InpRr::new(d, 1.1);
            let words = (1usize << d).div_ceil(64);
            let bits = MethodBound::InpRr.communication_bits(d, 2);
            assert_eq!(bits, 1u64 << d);
            // Table 2's 2^d bits, rounded up to whole u64 words.
            assert_eq!(words as u64 * 64, bits.max(64), "d={d}");

            let mut rng = StdRng::seed_from_u64(u64::from(d));
            let report = mech.encode(u64::from(d) % (1 << d), &mut rng);
            assert_eq!(report.len(), words, "d={d}");
            assert_eq!(mech.words(), words, "d={d}");
        }
    }

    #[test]
    #[should_panic(expected = "d ≤ 24")]
    fn rejects_huge_domains() {
        let _ = InpRr::new(30, 1.0);
    }
}
