#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # marginal-ldp
//!
//! A full Rust reproduction of **"Marginal Release Under Local
//! Differential Privacy"** (Graham Cormode, Tejas Kulkarni, Divesh
//! Srivastava; SIGMOD 2018) — six mechanisms for reconstructing k-way
//! marginal tables from locally-privatized user reports, plus the
//! baselines, datasets, statistics and experiment harness of the paper's
//! evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use marginal_ldp::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A population of 100k users with 8 private binary attributes.
//! let mut rng = StdRng::seed_from_u64(1);
//! let data = TaxiGenerator::default().generate(100_000, &mut rng);
//!
//! // Collect under 1.1-LDP, supporting all marginals of order ≤ 2,
//! // with the paper's best mechanism (InpHT).
//! let mechanism = MechanismKind::InpHt.build(data.d(), 2, 1.1);
//! let estimate = mechanism.run(data.rows(), 42);
//!
//! // Reconstruct any 2-way marginal on demand.
//! let beta = Mask::from_attrs(&[5, 6]); // (M_pick, M_drop)
//! let private = estimate.marginal(beta);
//! let exact = data.true_marginal(beta);
//! let tvd = total_variation_distance(&private, &exact);
//! assert!(tvd < 0.05);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`ldp_core`] | the six mechanisms (`InpRR/InpPS/InpHT/MargRR/MargPS/MargHT`) + `InpEM`, the `Accumulator` streaming layer |
//! | [`ldp_mechanisms`] | RR / preferential-sampling / unary-encoding primitives, LDP verification, Table 2 bounds |
//! | [`ldp_transform`] | FWHT, marginal operator, Lemma 3.7 reconstruction, Efron–Stein |
//! | [`ldp_bits`] | mask algebra, subset enumeration, combinatorial ranking |
//! | [`ldp_sampling`] | binomial sampler, alias tables, hash families |
//! | [`ldp_data`] | datasets + taxi/movielens/skewed generators, categorical encoding |
//! | [`ldp_oracles`] | OLH and count-mean-sketch frequency-oracle baselines |
//! | [`ldp_analysis`] | χ² testing, mutual information, Chow–Liu trees |
//!
//! The experiment harness regenerating every table and figure lives in
//! the (unexported) `ldp_bench` crate — see the top-level `README.md`
//! for the experiment index and how to run each binary.

pub use ldp_analysis as analysis;
pub use ldp_bits as bits;
pub use ldp_core as core;
pub use ldp_data as data;
pub use ldp_mechanisms as mechanisms;
pub use ldp_oracles as oracles;
pub use ldp_sampling as sampling;
pub use ldp_transform as transform;

/// The most common imports in one place.
pub mod prelude {
    pub use ldp_analysis::chi2::chi2_independence_2x2;
    pub use ldp_analysis::chowliu::{maximum_spanning_tree, total_weight};
    pub use ldp_analysis::mi::mutual_information_2x2;
    pub use ldp_bits::Mask;
    pub use ldp_core::{
        clamp_normalize, mean_kway_tvd, Accumulator, Estimate, MarginalEstimator, Mechanism,
        MechanismKind,
    };
    pub use ldp_data::categorical::CategoricalSchema;
    pub use ldp_data::movielens::MovieLensGenerator;
    pub use ldp_data::taxi::TaxiGenerator;
    pub use ldp_data::BinaryDataset;
    pub use ldp_transform::total_variation_distance;
}
