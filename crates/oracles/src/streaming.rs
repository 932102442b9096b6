//! The three frequency oracles as one protocol family: [`OracleKind`]
//! names them, [`Oracle`] holds a built one, [`build_oracle`] and
//! [`oracle_header`] map between an oracle and its [`StreamHeader`],
//! and [`OracleEstimate`] answers queries for any of them. Reports and
//! accumulators are type-erased once, together with the marginal
//! mechanisms, in [`crate::pipeline`].

use crate::{Cms, CmsOracle, FrequencyOracle, HadamardCms, HadamardCmsOracle, Olh, OlhOracle};
use ldp_core::frame::StreamHeader;
use ldp_core::wire::tag;

/// Identifier for one of the three frequency-oracle baselines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OracleKind {
    /// Optimized Local Hashing (Wang et al.) — see [`Olh`].
    Olh,
    /// Count-mean sketch with unary-encoded rows — see [`Cms`].
    Cms,
    /// Hadamard count-mean sketch (`InpHTCMS`) — see [`HadamardCms`].
    Hcms,
}

impl OracleKind {
    /// All three oracles, in the Appendix B.2 presentation order.
    pub const ALL: [OracleKind; 3] = [OracleKind::Olh, OracleKind::Cms, OracleKind::Hcms];

    /// Display name matching the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Olh => "OLH",
            OracleKind::Cms => "CMS",
            OracleKind::Hcms => "HCMS",
        }
    }

    /// The accumulator type tag (see [`tag`]) naming this oracle in
    /// stream headers and serialized state.
    #[must_use]
    pub fn wire_tag(self) -> u8 {
        match self {
            OracleKind::Olh => tag::OLH,
            OracleKind::Cms => tag::CMS,
            OracleKind::Hcms => tag::HCMS,
        }
    }

    /// Inverse of [`OracleKind::wire_tag`].
    #[must_use]
    pub fn from_wire_tag(t: u8) -> Option<Self> {
        match t {
            tag::OLH => Some(OracleKind::Olh),
            tag::CMS => Some(OracleKind::Cms),
            tag::HCMS => Some(OracleKind::Hcms),
            _ => None,
        }
    }

    /// Build the oracle for a `d`-attribute domain under `ε`-LDP. The
    /// sketch shape (`hashes` rows of width `width`, hash family drawn
    /// from `family_seed`) applies to the two CMS variants; OLH ignores
    /// it.
    #[must_use]
    pub fn build(self, d: u32, eps: f64, hashes: usize, width: usize, family_seed: u64) -> Oracle {
        match self {
            OracleKind::Olh => Oracle::Olh(Olh::new(d, eps)),
            OracleKind::Cms => Oracle::Cms(Cms::new(d, eps, hashes, width, family_seed)),
            OracleKind::Hcms => Oracle::Hcms(HadamardCms::new(d, eps, hashes, width, family_seed)),
        }
    }
}

/// A built frequency oracle, ready to encode reports — the oracle
/// counterpart of `ldp_core::Mechanism`.
#[derive(Clone, Debug)]
pub enum Oracle {
    /// See [`Olh`].
    Olh(Olh),
    /// See [`Cms`].
    Cms(Cms),
    /// See [`HadamardCms`].
    Hcms(HadamardCms),
}

impl Oracle {
    /// Which kind this is.
    #[must_use]
    pub fn kind(&self) -> OracleKind {
        match self {
            Oracle::Olh(_) => OracleKind::Olh,
            Oracle::Cms(_) => OracleKind::Cms,
            Oracle::Hcms(_) => OracleKind::Hcms,
        }
    }
}

/// Rebuild the oracle a [`StreamHeader`] describes (`None` when the
/// header names a marginal mechanism instead — see
/// `StreamHeader::build_mechanism` for those).
#[must_use]
pub fn build_oracle(header: &StreamHeader) -> Option<Oracle> {
    OracleKind::from_wire_tag(header.protocol).map(|kind| {
        kind.build(
            header.d,
            header.eps,
            header.hashes as usize,
            header.width as usize,
            header.family_seed,
        )
    })
}

/// Stream-header describing an oracle pipeline (the counterpart of
/// `StreamHeader::mechanism`).
#[must_use]
pub fn oracle_header(
    kind: OracleKind,
    d: u32,
    eps: f64,
    hashes: usize,
    width: usize,
    family_seed: u64,
) -> StreamHeader {
    StreamHeader::oracle(
        kind.wire_tag(),
        d,
        eps,
        hashes as u32,
        width as u32,
        family_seed,
    )
}

/// Finalized oracle, for any [`OracleKind`] — answers frequency queries
/// through the common [`FrequencyOracle`] trait.
#[derive(Clone, Debug)]
pub enum OracleEstimate {
    /// See [`OlhOracle`]. Queries cost `O(N)` each.
    Olh(OlhOracle),
    /// See [`CmsOracle`].
    Cms(CmsOracle),
    /// See [`HadamardCmsOracle`].
    Hcms(HadamardCmsOracle),
}

impl FrequencyOracle for OracleEstimate {
    fn d(&self) -> u32 {
        match self {
            OracleEstimate::Olh(o) => o.d(),
            OracleEstimate::Cms(o) => o.d(),
            OracleEstimate::Hcms(o) => o.d(),
        }
    }

    fn estimate(&self, value: u64) -> f64 {
        match self {
            OracleEstimate::Olh(o) => o.estimate(value),
            OracleEstimate::Cms(o) => o.estimate(value),
            OracleEstimate::Hcms(o) => o.estimate(value),
        }
    }
}
