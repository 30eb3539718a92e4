//! Data-poisoning transforms.
//!
//! The paper's label-flipping attack (§IV-B) is a *data* poisoning: malicious
//! clients swap the labels of visually adjacent digit pairs — 5 ↔ 7 and
//! 4 ↔ 2 — before local training, so both their classifier updates *and*
//! their CVAE decoders embody the flipped mapping.

use crate::dataset::Dataset;
use serde::{Deserialize, Serialize};

/// A label-flipping transform defined by unordered class pairs; each listed
/// pair is swapped in both directions.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelFlip {
    pairs: Vec<(u8, u8)>,
}

impl LabelFlip {
    /// Flip the given class pairs.
    pub fn new(pairs: &[(u8, u8)]) -> Self {
        LabelFlip { pairs: pairs.to_vec() }
    }

    /// The paper's configuration: 5 ↔ 7 and 4 ↔ 2.
    pub fn paper() -> Self {
        LabelFlip::new(&[(5, 7), (4, 2)])
    }

    /// The flipped value of a single label.
    pub fn map(&self, label: u8) -> u8 {
        for &(a, b) in &self.pairs {
            if label == a {
                return b;
            }
            if label == b {
                return a;
            }
        }
        label
    }

    /// Apply the flip to a dataset in place.
    pub fn apply(&self, dataset: &mut Dataset) {
        for l in dataset.labels_mut() {
            *l = self.map(*l);
        }
    }

    /// A flipped copy of the dataset.
    pub fn applied(&self, dataset: &Dataset) -> Dataset {
        let mut out = dataset.clone();
        self.apply(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_pairs_swap_both_ways() {
        let f = LabelFlip::paper();
        assert_eq!(f.map(5), 7);
        assert_eq!(f.map(7), 5);
        assert_eq!(f.map(4), 2);
        assert_eq!(f.map(2), 4);
        assert_eq!(f.map(0), 0);
        assert_eq!(f.map(9), 9);
    }

    #[test]
    fn apply_is_an_involution() {
        let f = LabelFlip::paper();
        let ds = Dataset::new(vec![0.0; 40], (0u8..10).collect());
        let once = f.applied(&ds);
        assert_ne!(once.labels(), ds.labels());
        let twice = f.applied(&once);
        assert_eq!(twice.labels(), ds.labels());
    }

    #[test]
    fn images_are_untouched() {
        let f = LabelFlip::paper();
        let ds = Dataset::new((0..40).map(|x| x as f32).collect(), (0u8..10).collect());
        let flipped = f.applied(&ds);
        assert_eq!(flipped.images(), ds.images());
    }
}
