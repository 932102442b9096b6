//! The non-Hadamard Count-Mean Sketch: each user releases their *whole*
//! perturbed sketch row (`w` bits via unary encoding) instead of a single
//! Hadamard coefficient. Included to quantify the communication/accuracy
//! trade the Hadamard variant makes (Appendix B.2 discussion).

use crate::FrequencyOracle;
use ldp_core::wire::{tag, Reader, WireError, Writer};
use ldp_core::Accumulator;
use ldp_mechanisms::{check_epsilon, UnaryEncoding, UnaryFlavor};
use ldp_sampling::hash::{splitmix64, PolyHash};
use ldp_sampling::{bernoulli_fixed, bernoulli_word};
use rand::Rng;

/// One user's report: the sampled row and the positions reporting 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CmsReport {
    /// Which sketch row (hash function) the user sampled.
    pub row: u8,
    /// Bucket positions reporting 1 after unary encoding.
    pub ones: Vec<u16>,
}

/// Configuration of the count-mean sketch.
#[derive(Clone, Debug)]
pub struct Cms {
    d: u32,
    g: usize,
    w: usize,
    ue: UnaryEncoding,
    hashes: Vec<PolyHash>,
}

impl Cms {
    /// ε-LDP instance with `g` hash rows of width `w`.
    #[must_use]
    pub fn new(d: u32, eps: f64, g: usize, w: usize, family_seed: u64) -> Self {
        check_epsilon(eps);
        assert!((1..=255).contains(&g) && w >= 2);
        let hashes = (0..g)
            .map(|l| PolyHash::from_seed(splitmix64(family_seed ^ (l as u64) << 23), 3, w as u64))
            .collect();
        Cms {
            d,
            g,
            w,
            ue: UnaryEncoding::for_epsilon(eps, UnaryFlavor::Optimized),
            hashes,
        }
    }

    /// Domain dimensionality.
    #[must_use]
    pub fn d(&self) -> u32 {
        self.d
    }

    /// Communication cost in bits per user (one row of the sketch).
    #[must_use]
    pub fn communication_bits(&self) -> usize {
        self.w + 8
    }

    /// Client: hash into the sampled row, unary-encode the bucket.
    pub fn encode<R: Rng + ?Sized>(&self, value: u64, rng: &mut R) -> CmsReport {
        let (row, bucket) = self.sample_row(value, rng);
        let mut ones = Vec::new();
        self.perturb_row(bucket, rng, |b| ones.push(b));
        CmsReport { row, ones }
    }

    /// First half of the encode: draw the sketch row uniformly and hash
    /// the value into it. Returns `(row, bucket)`. Split out so the
    /// batched kernel can write the row field before the variable-length
    /// ones list.
    #[inline]
    pub fn sample_row<R: Rng + ?Sized>(&self, value: u64, rng: &mut R) -> (u8, u64) {
        let l = rng.gen_range(0..self.g);
        (l as u8, self.hashes[l].hash(value))
    }

    /// Second half of the encode, shared by the serial
    /// [`encode`](Self::encode) and the batched kernel: walk the
    /// perturbed `w`-bucket unary encoding's 1-positions in ascending
    /// order (background coins drawn 64 lanes per RNG word via
    /// [`bernoulli_word`], the true bucket overridden by a separate
    /// `Bernoulli(p₁)` draw).
    #[inline]
    pub fn perturb_row<R: Rng + ?Sized, F: FnMut(u16)>(
        &self,
        bucket: u64,
        rng: &mut R,
        mut emit: F,
    ) {
        let cells = self.w as u64;
        debug_assert!(bucket < cells);
        let truth = rng.gen_bool(self.ue.p1());
        let p0 = bernoulli_fixed(self.ue.p0());
        let mut base = 0u64;
        while base < cells {
            let lanes = (cells - base).min(64) as u32;
            let mut word = bernoulli_word(rng, p0, lanes);
            if bucket >= base && bucket - base < u64::from(lanes) {
                let bit = 1u64 << (bucket - base);
                if truth {
                    word |= bit;
                } else {
                    word &= !bit;
                }
            }
            while word != 0 {
                let tz = word.trailing_zeros();
                emit(base as u16 + tz as u16);
                word &= word - 1;
            }
            base += u64::from(lanes);
        }
    }

    /// Fresh aggregator.
    #[must_use]
    pub fn aggregator(&self) -> CmsAggregator {
        CmsAggregator {
            config: self.clone(),
            ones: vec![vec![0u64; self.w]; self.g],
            users: vec![0u64; self.g],
        }
    }
}

/// Aggregator for [`Cms`].
#[derive(Clone, Debug)]
pub struct CmsAggregator {
    config: Cms,
    ones: Vec<Vec<u64>>,
    users: Vec<u64>,
}

impl CmsAggregator {
    /// Absorb one report: the sampled row is borrowed once, then its
    /// reported positions are scattered into that contiguous row. The
    /// row must be one of the [`rows`](Self::rows) and every position
    /// one of the [`width`](Self::width) buckets; a collector checks
    /// untrusted reports for this first.
    pub fn absorb(&mut self, report: &CmsReport) {
        let l = report.row as usize;
        self.users[l] += 1;
        let row = &mut self.ones[l][..];
        for &b in &report.ones {
            row[b as usize] += 1;
        }
    }

    /// Number of sketch rows `g`.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.config.g
    }

    /// Sketch width `w`.
    #[must_use]
    pub fn width(&self) -> usize {
        self.config.w
    }

    /// Fold another shard's aggregator into this one.
    pub fn merge(&mut self, other: CmsAggregator) {
        for (a, b) in self.users.iter_mut().zip(other.users) {
            *a += b;
        }
        for (ra, rb) in self.ones.iter_mut().zip(other.ones) {
            for (a, b) in ra.iter_mut().zip(rb) {
                *a += b;
            }
        }
    }

    /// Number of reports absorbed.
    #[must_use]
    pub fn n(&self) -> usize {
        self.users.iter().map(|&u| u as usize).sum()
    }

    /// The leading bytes of this aggregator's serialized state: tag,
    /// version and `d`, the sketch shape, the unary-encoding probabilities
    /// and the hash family. Two states merge only when these agree, so a
    /// collector compares them before trusting a state it did not build.
    #[must_use]
    pub fn state_prefix(&self) -> Writer {
        let mut w = Writer::with_tag(tag::CMS);
        w.put_u32(self.config.d);
        w.put_u64(self.config.g as u64);
        w.put_u64(self.config.w as u64);
        w.put_f64(self.config.ue.p1());
        w.put_f64(self.config.ue.p0());
        for hash in &self.config.hashes {
            w.put_u64_slice(hash.coefficients());
        }
        w
    }

    /// Unbias rows into bucket distributions.
    #[must_use]
    pub fn finish(self) -> CmsOracle {
        let rows = self
            .ones
            .iter()
            .zip(&self.users)
            .map(|(cells, &u)| {
                if u == 0 {
                    vec![1.0 / self.config.w as f64; self.config.w]
                } else {
                    cells
                        .iter()
                        .map(|&c| self.config.ue.unbias_frequency(c as f64 / u as f64))
                        .collect()
                }
            })
            .collect();
        CmsOracle {
            config: self.config,
            rows,
        }
    }
}

impl Accumulator for CmsAggregator {
    type Report = CmsReport;
    type Output = CmsOracle;

    fn absorb(&mut self, report: &CmsReport) {
        CmsAggregator::absorb(self, report);
    }

    fn merge(&mut self, other: Self) {
        CmsAggregator::merge(self, other);
    }

    fn report_count(&self) -> u64 {
        self.users.iter().sum()
    }

    fn finalize(self) -> CmsOracle {
        self.finish()
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut w = self.state_prefix();
        w.put_u64_slice(&self.users);
        for row in &self.ones {
            w.put_u64_slice(row);
        }
        w.into_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::with_tag(bytes, tag::CMS)?;
        let d = r.get_u32()?;
        let g = r.get_u64()? as usize;
        let w = r.get_u64()? as usize;
        let p1 = r.get_f64()?;
        let p0 = r.get_f64()?;
        if !(1..=255).contains(&g) || w < 2 {
            return Err(WireError::Invalid("CMS sketch shape"));
        }
        if !(0.0..=1.0).contains(&p1) || !(0.0..=1.0).contains(&p0) || p1 <= p0 {
            return Err(WireError::Invalid("CMS probabilities"));
        }
        let hashes = (0..g)
            .map(|_| {
                let coeffs = r.get_u64_vec()?;
                if coeffs.is_empty() || coeffs.iter().any(|&c| c >= ldp_sampling::hash::MERSENNE_P)
                {
                    return Err(WireError::Invalid("CMS hash coefficients"));
                }
                Ok(PolyHash::from_coefficients(coeffs, w as u64))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let users = r.get_u64_vec()?;
        let ones = (0..g)
            .map(|_| r.get_u64_vec())
            .collect::<Result<Vec<_>, _>>()?;
        r.finish()?;
        if users.len() != g || ones.iter().any(|row| row.len() != w) {
            return Err(WireError::Invalid("CMS table shape"));
        }
        Ok(CmsAggregator {
            config: Cms {
                d,
                g,
                w,
                ue: UnaryEncoding::with_probabilities(p1, p0),
                hashes,
            },
            ones,
            users,
        })
    }
}

/// Decoded count-mean sketch.
#[derive(Clone, Debug)]
pub struct CmsOracle {
    config: Cms,
    rows: Vec<Vec<f64>>,
}

impl FrequencyOracle for CmsOracle {
    fn d(&self) -> u32 {
        self.config.d
    }

    fn estimate(&self, value: u64) -> f64 {
        let w = self.config.w as f64;
        let debias = w / (w - 1.0);
        self.rows
            .iter()
            .zip(&self.config.hashes)
            .map(|(row, h)| debias * (row[h.hash(value) as usize] - 1.0 / w))
            .sum::<f64>()
            / self.rows.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn recovers_heavy_hitter() {
        let config = Cms::new(10, 1.1, 5, 128, 3);
        let mut rng = StdRng::seed_from_u64(0);
        let rows: Vec<u64> = (0..60_000)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    77
                } else {
                    rng.gen_range(0..1024)
                }
            })
            .collect();
        let mut agg = config.aggregator();
        for &r in &rows {
            agg.absorb(&config.encode(r, &mut rng));
        }
        let oracle = agg.finish();
        let est = oracle.estimate(77);
        assert!((est - 0.5).abs() < 0.12, "estimate {est}");
    }

    #[test]
    fn accumulator_round_trips_through_bytes() {
        let config = Cms::new(8, 1.1, 4, 32, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut agg = config.aggregator();
        for v in 0..800u64 {
            agg.absorb(&config.encode(v % 50, &mut rng));
        }
        let bytes = Accumulator::to_bytes(&agg);
        let back = <CmsAggregator as Accumulator>::from_bytes(&bytes).unwrap();
        assert_eq!(Accumulator::to_bytes(&back), bytes);
        assert_eq!(back.report_count(), 800);
        assert_eq!(
            back.finalize().estimate(17).to_bits(),
            agg.finish().estimate(17).to_bits()
        );
    }

    #[test]
    fn communication_is_w_bits() {
        let config = Cms::new(10, 1.1, 5, 256, 4);
        assert_eq!(config.communication_bits(), 264);
        // versus 8 + 16 + 1 bits for the Hadamard variant — the gap the
        // transform buys.
    }
}
