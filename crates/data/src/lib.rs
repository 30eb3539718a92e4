//! # fg-data
//!
//! The data pipeline of the FedGuard reproduction.
//!
//! The paper evaluates on MNIST; this offline environment has no MNIST files,
//! so [`synth`] provides a deterministic procedural substitute: 28×28
//! grayscale digits rasterized from per-class stroke templates with
//! per-sample affine jitter, stroke-width variation and pixel noise. The
//! substitution preserves what FedGuard's mechanism needs — a 10-class image
//! task a small network learns to high accuracy, class-conditional structure
//! a CVAE can capture, and visually confusable class pairs for the targeted
//! label-flip attack (see DESIGN.md §3).
//!
//! [`partition`] implements the Dirichlet(α) client partitioning of Hsu et
//! al. used by the paper (α = 10, N = 100), and [`poison`] the label-flip
//! data-poisoning transform (digits 5 ↔ 7 and 4 ↔ 2).

pub mod dataset;
pub mod image_io;
pub mod partition;
pub mod poison;
pub mod synth;

pub use dataset::Dataset;
pub use partition::{
    dirichlet_partition, dirichlet_partition_labels, iid_partition, shard_partition,
};
pub use poison::LabelFlip;
