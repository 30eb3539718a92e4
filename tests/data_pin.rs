//! The rendered data, written down.
//!
//! FNV-1a digests of the image bits, labels and `dim` of what the data
//! set-up hands a federation: two `generate_dataset` calls, every client
//! shard and the test set of a Fast-preset `prepare_setup` under a model
//! attack and under label flipping, and a low-α partition with an empty
//! shard. Rendering is plain scalar f32 arithmetic (no GEMM), so unlike
//! the golden digests these hold at every SIMD level. The last test checks
//! that `build_client` hands a worker the same shard `prepare_setup` gives
//! the in-process oracle, by training both for one round.

use fedguard::data::synth::generate_dataset;
use fedguard::data::Dataset;
use fedguard::experiment::{
    build_client, prepare_setup, AttackScenario, ExperimentConfig, Preset, StrategyKind,
};
use fedguard::fl::Client;
use fedguard::nn::models::Classifier;
use fedguard::tensor::rng::{derive_seed, SeededRng};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn dataset(&mut self, ds: &Dataset) {
        self.eat(&(ds.dim() as u64).to_le_bytes());
        self.eat(&(ds.len() as u64).to_le_bytes());
        self.eat(ds.labels());
        for v in ds.images() {
            self.eat(&v.to_bits().to_le_bytes());
        }
    }
}

fn digest<'a>(sets: impl IntoIterator<Item = &'a Dataset>) -> String {
    let mut h = Fnv::new();
    for ds in sets {
        h.dataset(ds);
    }
    format!("{:016x}", h.0)
}

fn fast(attack: AttackScenario) -> ExperimentConfig {
    ExperimentConfig::preset(Preset::Fast, StrategyKind::FedAvg, attack, 42)
}

#[test]
fn generated_datasets_match_their_pinned_digests() {
    let small = generate_dataset(5, 99);
    let train = generate_dataset(1200, derive_seed(42, 1));
    assert_eq!((small.len(), small.dim()), (50, 784));
    assert_eq!((train.len(), train.dim()), (12_000, 784));
    assert_eq!(digest([&small]), "e326ba5996d0dc2a", "generate_dataset(5, 99) moved");
    assert_eq!(digest([&train]), "72cd58899356fd94", "generate_dataset(1200, ..) moved");
}

#[test]
fn fast_preset_shards_and_test_set_match_their_pinned_digests() {
    for (attack, shards_pin) in [
        (AttackScenario::SignFlip { fraction: 0.5 }, "211579cf1dda570d"),
        (AttackScenario::LabelFlip { fraction: 0.5 }, "4cfccaff13cb6de9"),
    ] {
        let setup = prepare_setup(&fast(attack));
        assert_eq!(setup.datasets.len(), 100);
        assert!(setup.datasets.iter().all(|d| d.dim() == 784));
        assert_eq!(digest(&setup.datasets), shards_pin, "{} shards moved", attack.name());
        assert_eq!(digest([&setup.test]), "95a8371bab443a35", "{} test set moved", attack.name());
    }
}

#[test]
fn an_empty_low_alpha_shard_keeps_its_dim() {
    let mut cfg = ExperimentConfig::preset(
        Preset::Smoke,
        StrategyKind::FedAvg,
        AttackScenario::LabelFlip { fraction: 0.3 },
        42,
    );
    cfg.fed.n_clients = 40;
    cfg.dirichlet_alpha = 0.1;
    let setup = prepare_setup(&cfg);
    let empty: Vec<usize> = (0..40).filter(|&i| setup.datasets[i].is_empty()).collect();
    assert_eq!(empty, [15, 19], "empty shards moved");
    let shard = &setup.datasets[empty[0]];
    assert!(shard.images().is_empty() && shard.labels().is_empty());
    assert_eq!(shard.dim(), 784);
    assert_eq!(digest([shard]), "1251cdb3032d73c4", "empty shard digest moved");
    assert_eq!(digest(&setup.datasets), "6fa2d474b521ee3b", "low-alpha shards moved");
}

/// One round of local training from a fixed global model: its bits are a
/// function of every image, label and their order in the client's shard.
fn one_round(mut client: Client, global: &[f32]) -> (usize, Vec<u32>) {
    let update = client.train_round(global, 0);
    (update.num_samples, update.params.iter().map(|v| v.to_bits()).collect())
}

#[test]
fn build_client_trains_on_the_oracle_shard() {
    let cfg = fast(AttackScenario::LabelFlip { fraction: 0.5 });
    let setup = prepare_setup(&cfg);
    let last = cfg.fed.n_clients - 1;
    let flipped = *setup.malicious.iter().find(|&&m| m != 0 && m != last).expect("a roster");
    let global = Classifier::new(&cfg.fed.classifier, &mut SeededRng::new(7)).get_params();
    for id in [0, flipped, last] {
        let (client, interceptor) = build_client(&cfg, id);
        assert_eq!(interceptor.malicious_clients(), setup.malicious);
        let oracle = Client::for_federation(&cfg.fed, id, setup.datasets[id].clone(), None);
        assert_eq!(one_round(client, &global), one_round(oracle, &global), "client {id}");
    }
}
