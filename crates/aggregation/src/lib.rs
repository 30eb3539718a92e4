//! # fg-agg
//!
//! Aggregation operators for federated learning: the paper's baselines —
//! FedAvg (McMahan et al.), the geometric median (GeoMed, Chen et al.) and
//! Krum (Blanchard et al.) — plus coordinate-wise median, trimmed mean and
//! norm clipping used by the robust-aggregation ablations.
//!
//! Every operator exists in two forms:
//! * a pure function over `&[&[f32]]` parameter vectors ([`ops`]), unit- and
//!   property-tested in isolation, and
//! * an [`fg_fl::AggregationStrategy`] adapter ([`strategies`]) pluggable
//!   into the federation round loop.

pub mod ops;
pub mod strategies;
pub mod streaming;

pub use ops::{
    coordinate_median, fedavg, geometric_median, krum, krum_scores, multi_krum,
    trimmed_mean_vectors,
};
pub use strategies::{
    FedAvgStrategy, GeoMedStrategy, KrumStrategy, MedianStrategy, MultiKrumStrategy,
    TrimmedMeanStrategy,
};
pub use streaming::StreamingFedAvg;
