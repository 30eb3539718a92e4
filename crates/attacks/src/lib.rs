//! # fg-attacks
//!
//! The four poisoning attacks of the paper's §IV-B, under the threat model
//! TM-1…TM-6 (benign server, visible model, colluding malicious clients):
//!
//! * **Same-value** (model poisoning): every weight of the malicious update
//!   is set to a constant `c` (the paper uses `c = 1`); 50% malicious.
//! * **Sign-flipping** (model poisoning): `w ← −w`, preserving magnitudes —
//!   the case norm-thresholding defenses miss; 50% malicious.
//! * **Additive noise** (model poisoning): `w ← w + ε` where all colluding
//!   clients add the *same* Gaussian noise vector each round; 50% malicious.
//! * **Label-flipping** (data poisoning): digits 5 ↔ 7 and 4 ↔ 2 swapped in
//!   the malicious clients' training data — corrupting both their classifier
//!   updates and their CVAE decoders; 30% / 40% malicious.
//!
//! Model attacks plug into the federation via
//! [`fg_fl::client::UpdateInterceptor`]; label flipping is data poisoning,
//! applied with `fg_data::LabelFlip` to a malicious client's shard as the
//! experiment set-up renders it, before the federation starts.

pub mod model_attacks;
pub mod roster;

pub use model_attacks::{ModelAttack, PoisoningInterceptor};
pub use roster::choose_malicious;
