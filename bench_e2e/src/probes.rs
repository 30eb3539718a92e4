//! Layer probes: every layer's public functions timed *from outside* on the
//! workloads' shapes. No span or counter is added inside any other crate —
//! each probe is wrapped in a bench-owned span (so the Chrome trace shows
//! where the traced pass spent its probe time) and the layer itself runs
//! with tracing off, as it does in the timed runs.
//!
//! Shapes are fixed by the workloads (`spec.rs`): Fast-preset MLP-64 and
//! CVAE `reduced(100, 8)`, the Table II CNN (d = 1,662,752), m = 20 / 8.

use crate::run::fedguard_strategy;
use crate::spec::Workload;
use crate::stats::median;
use fedguard::synthesis::{synthesize_validation_set, DecoderSubmission};
use fg_agg::StreamingFedAvg;
use fg_data::partition::{dirichlet_partition, partition_datasets};
use fg_data::synth::generate_dataset;
use fg_data::Dataset;
use fg_fl::compress::{compress_update, decompress_update, DEFAULT_INT8_BLOCK};
use fg_fl::wire::{decode, encode_upload, WireConfig};
use fg_fl::{
    sanitize_round, AggregationContext, AggregationStrategy, Client, ClientChannel, Compression,
    Directive, ModelUpdate, NetConfig, RoundOffer, StreamingAggregator, TcpClientChannel,
    TcpTransport, Transport,
};
use fg_nn::linear::Linear;
use fg_nn::models::{BatchedClassifier, Classifier, ClassifierSpec, Cvae};
use fg_nn::{Adam, Module, Optimizer, Sgd};
use fg_tensor::conv::{conv2d_backward, conv2d_forward, conv2d_forward_grouped, Conv2dSpec};
use fg_tensor::kernels::{matmul, matmul_at_acc, matmul_bt, matmul_bt_bias};
use fg_tensor::pool::{maxpool2d_backward, maxpool2d_forward, MaxPool2dSpec};
use fg_tensor::rng::SeededRng;
use fg_tensor::{codec, vecops, Tensor};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Measuring time per repeated probe; enough calls for a stable median at
/// microsecond scale while the whole suite stays a few seconds.
const BUDGET: Duration = Duration::from_millis(40);

/// Run `f` as a probe: a bench-owned span around it, tracing off inside it.
fn probe<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = fg_obs::span::span(name);
    fg_obs::set_enabled(false);
    let out = f();
    fg_obs::set_enabled(true);
    out
}

/// Median seconds per call of `f`: one warm-up call, then at least two
/// timed calls and as many more as fit in [`BUDGET`]. Each call consumes a
/// fresh input from `prepare`, which is not timed.
fn per_call_on<I>(mut prepare: impl FnMut() -> I, mut f: impl FnMut(I)) -> f64 {
    f(prepare());
    let started = Instant::now();
    let mut calls = Vec::new();
    while calls.len() < 2 || started.elapsed() < BUDGET {
        let input = prepare();
        let t = Instant::now();
        f(input);
        calls.push(t.elapsed().as_secs_f64());
    }
    median(&calls)
}

/// [`per_call_on`] for a call that needs no input.
fn per_call(mut f: impl FnMut()) -> f64 {
    per_call_on(|| (), |()| f())
}

/// Keep `v` from being optimized away, and drop it.
fn sink<T>(v: T) {
    black_box(v);
}

/// Seconds of a single cold call — for probes whose first call *is* the
/// cost (a CVAE fit, dataset generation).
fn once<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// The three GEMMs one linear layer costs per training step, at batch `b`:
/// forward `x·Wᵀ+bias`, input gradient `dy·W`, weight gradient `dW += dyᵀ·x`.
/// Returns `(flops, seconds)` per step.
fn linear_gemms(b: usize, fan_in: usize, fan_out: usize, rng: &mut SeededRng) -> (f64, f64) {
    let x = Tensor::randn(&[b, fan_in], rng);
    let w = Tensor::randn(&[fan_out, fan_in], rng);
    let bias = Tensor::randn(&[fan_out], rng);
    let dy = Tensor::randn(&[b, fan_out], rng);
    let mut dw = Tensor::zeros(&[fan_out, fan_in]);
    let secs = per_call(|| {
        black_box(matmul_bt_bias(&x, &w, &bias));
        black_box(matmul(&dy, &w));
        matmul_at_acc(&dy, &x, &mut dw);
    });
    (3.0 * 2.0 * (b * fan_in * fan_out) as f64, secs)
}

/// One image's im2col product `W · colsᵀ` of a conv layer.
fn im2col_gemm(out_ch: usize, patch: usize, plane: usize, rng: &mut SeededRng) -> (f64, f64) {
    let w = Tensor::randn(&[out_ch, patch], rng);
    let cols = Tensor::randn(&[plane, patch], rng);
    let secs = per_call(|| {
        black_box(matmul_bt(&w, &cols));
    });
    (2.0 * (out_ch * patch * plane) as f64, secs)
}

fn gflops(parts: &[(f64, f64)]) -> f64 {
    let (flops, secs) = parts.iter().fold((0.0, 0.0), |(f, s), p| (f + p.0, s + p.1));
    flops / secs / 1e9
}

fn gbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e9
}

/// The first `n` samples of `data`, cycling when it is shorter.
fn sample(data: &Dataset, n: usize) -> Dataset {
    let idx: Vec<usize> = (0..n).map(|i| i % data.len()).collect();
    data.subset(&idx)
}

/// [`sample`] as an input tensor and its labels.
fn batch(data: &Dataset, n: usize) -> (Tensor, Vec<usize>) {
    let sub = sample(data, n);
    (sub.to_tensor(), sub.labels_usize())
}

const CNN: ClassifierSpec = ClassifierSpec::TableIICnn;
const MLP: ClassifierSpec = ClassifierSpec::Mlp { hidden: 64 };

/// `m` distinct flat parameter vectors of `spec`.
fn models(spec: &ClassifierSpec, m: usize, rng: &mut SeededRng) -> Vec<Vec<f32>> {
    (0..m).map(|_| Classifier::new(spec, rng).get_params()).collect()
}

/// One loopback round trip with a stub client that returns the global
/// untouched — sockets and frames only, no training and no codec.
fn echo_roundtrip_secs(dim: usize) -> f64 {
    let mut server =
        TcpTransport::bind("127.0.0.1:0", 1, dim as u64, String::new(), NetConfig::default())
            .expect("bind loopback endpoint");
    let addr = server.local_addr().expect("bound address");
    let stub = std::thread::spawn(move || {
        let mut channel =
            TcpClientChannel::connect(addr, 0, NetConfig::default()).expect("stub joins");
        loop {
            match channel.request_round().expect("stub reads a directive") {
                Directive::Round { round, global, .. } => {
                    let echo = ModelUpdate {
                        client_id: 0,
                        params: global,
                        num_samples: 1,
                        decoder: None,
                        class_coverage: None,
                    };
                    channel.upload_update(round, &echo).expect("stub uploads");
                }
                Directive::Shutdown => {
                    channel.leave().expect("stub leaves");
                    return;
                }
            }
        }
    });
    server.wait_for_clients().expect("stub joined");
    let global = vec![0.5f32; dim];
    let mut round = 0;
    let secs = per_call(|| {
        let offer = RoundOffer { round, global: &global, sampled: &[0], active: &[0] };
        assert_eq!(server.exchange_round(&offer).updates.len(), 1, "echo came back");
        round += 1;
    });
    server.finish();
    stub.join().expect("stub thread");
    secs
}

/// Every probe metric, `(name, value)`, in the units `spec::PER_LAYER` gives.
pub fn run_all(seed: u64) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let mut rng = SeededRng::new(seed);
    let fast = Workload::WarmMlp.config(seed, false);
    let d = CNN.num_params();

    // fg-tensor · kernels
    out.push((
        "tensor.gemm.cvae_gflops",
        probe("probe.tensor.gemm.cvae", || {
            gflops(
                &[(794, 100), (100, 16), (18, 100), (100, 794)]
                    .map(|(i, o)| linear_gemms(32, i, o, &mut rng)),
            )
        }),
    ));
    out.push((
        "tensor.gemm.mlp_gflops",
        probe("probe.tensor.gemm.mlp", || {
            gflops(&[(784, 64), (64, 10)].map(|(i, o)| linear_gemms(20, i, o, &mut rng)))
        }),
    ));
    out.push((
        "tensor.gemm.cnn_gflops",
        probe("probe.tensor.gemm.cnn", || {
            gflops(&[
                im2col_gemm(32, 25, 784, &mut rng),
                im2col_gemm(64, 800, 196, &mut rng),
                linear_gemms(32, 3136, 512, &mut rng),
                linear_gemms(32, 512, 10, &mut rng),
            ])
        }),
    ));

    // fg-tensor · conv / pool — Table II's second conv block at batch 32,
    // where the conv time is (32→64 channels, 5×5, 14×14 planes).
    let conv = Conv2dSpec { in_ch: 32, out_ch: 64, kh: 5, kw: 5, pad: 2 };
    let x = Tensor::randn(&[32, 32, 14, 14], &mut rng);
    let w = Tensor::randn(&[64, conv.patch_len()], &mut rng);
    let bias = Tensor::randn(&[64], &mut rng);
    let y = conv2d_forward(&x, &w, &bias, &conv);
    out.push((
        "tensor.conv.fwd_us",
        probe("probe.tensor.conv.fwd", || per_call(|| sink(conv2d_forward(&x, &w, &bias, &conv))))
            * 1e6,
    ));
    out.push((
        "tensor.conv.bwd_us",
        probe("probe.tensor.conv.bwd", || {
            per_call(|| sink(conv2d_backward(&x, &w, &y, &conv).d_input))
        }) * 1e6,
    ));
    out.push((
        "tensor.conv.grouped_fwd_us",
        probe("probe.tensor.conv.grouped_fwd", || {
            // The batched audit's deeper conv: m = 8 models, each on its own
            // activations of the 100-sample validation set.
            let (m, b) = (8, 100);
            let input: Vec<f32> = Tensor::randn(&[m * b, 32, 14, 14], &mut rng).into_vec();
            let weights: Vec<Vec<f32>> =
                (0..m).map(|_| Tensor::randn(&[64, 800], &mut rng).into_vec()).collect();
            let biases: Vec<Vec<f32>> = (0..m).map(|_| vec![0.1; 64]).collect();
            let w_refs: Vec<&[f32]> = weights.iter().map(Vec::as_slice).collect();
            let b_refs: Vec<&[f32]> = biases.iter().map(Vec::as_slice).collect();
            let mut grouped = vec![0.0f32; m * b * 64 * 14 * 14];
            per_call(|| {
                conv2d_forward_grouped(&input, b, 14, 14, &conv, &w_refs, &b_refs, &mut grouped)
            })
        }) * 1e6,
    ));
    let pool = MaxPool2dSpec { k: 2 };
    let pooled = maxpool2d_forward(&y, &pool);
    out.push((
        "tensor.pool.fwd_us",
        probe("probe.tensor.pool.fwd", || per_call(|| sink(maxpool2d_forward(&y, &pool).output)))
            * 1e6,
    ));
    out.push((
        "tensor.pool.bwd_us",
        probe("probe.tensor.pool.bwd", || {
            per_call(|| sink(maxpool2d_backward(&pooled.output, &pooled.argmax, y.dims())))
        }) * 1e6,
    ));

    // fg-tensor · codec, vecops — at d = CNN params.
    let cohort = models(&CNN, 8, &mut rng);
    let psi = &cohort[0];
    let (mut scales, mut q, mut packed) = (Vec::new(), Vec::new(), Vec::new());
    out.push((
        "tensor.codec.int8_enc_gbps",
        gbps(
            4 * d,
            probe("probe.tensor.codec.int8_enc", || {
                per_call(|| codec::int8_quantize_into(psi, DEFAULT_INT8_BLOCK, &mut scales, &mut q))
            }),
        ),
    ));
    let mut dense = vec![0.0f32; d];
    out.push((
        "tensor.codec.int8_dec_gbps",
        gbps(
            4 * d,
            probe("probe.tensor.codec.int8_dec", || {
                per_call(|| {
                    codec::int8_dequantize_into(&q, &scales, DEFAULT_INT8_BLOCK, &mut dense)
                })
            }),
        ),
    ));
    out.push((
        "tensor.codec.bf16_enc_gbps",
        gbps(
            4 * d,
            probe("probe.tensor.codec.bf16_enc", || {
                per_call(|| codec::bf16_pack_into(psi, &mut packed))
            }),
        ),
    ));
    out.push((
        "tensor.codec.topk_enc_gbps",
        gbps(
            4 * d,
            probe("probe.tensor.codec.topk_enc", || {
                let (mut idx, mut keys) = (Vec::new(), Vec::new());
                per_call(|| codec::topk_select(psi, codec::topk_count(d, 0.1), &mut idx, &mut keys))
            }),
        ),
    ));
    let refs: Vec<&[f32]> = cohort.iter().map(Vec::as_slice).collect();
    let counts = vec![40usize; 8];
    out.push((
        "tensor.vecops.weighted_sum_gbps",
        gbps(
            4 * d * 8,
            probe("probe.tensor.vecops.weighted_sum", || {
                per_call(|| vecops::weighted_sum_into(&refs, &[0.125; 8], &mut dense))
            }),
        ),
    ));

    // fg-agg · ops, streaming — m = 8, d = CNN.
    out.push((
        "agg.fedavg.batch_ms",
        probe("probe.agg.fedavg.batch", || per_call(|| sink(fg_agg::fedavg(&refs, &counts)))) * 1e3,
    ));
    let updates: Vec<ModelUpdate> = cohort
        .iter()
        .enumerate()
        .map(|(id, params)| ModelUpdate {
            client_id: id,
            params: params.clone(),
            num_samples: 40,
            decoder: None,
            class_coverage: None,
        })
        .collect();
    let roster: Vec<usize> = (0..8).collect();
    out.push((
        "agg.fedavg.streaming_ms",
        probe("probe.agg.fedavg.streaming", || {
            per_call(|| {
                let mut agg = Box::new(StreamingFedAvg::new(d, &roster));
                updates.iter().for_each(|u| agg.push(u));
                black_box(agg.finalize());
            })
        }) * 1e3,
    ));

    // fg-nn · models::cvae, optim
    let data = generate_dataset(24, seed);
    let (x32, y32) = batch(&data, 32);
    out.push((
        "nn.cvae.train_batch_us",
        probe("probe.nn.cvae.train_batch", || {
            let mut cvae = Cvae::new(&fast.cvae.spec, &mut rng);
            let mut adam = Adam::new(fast.cvae.lr);
            let mut step_rng = SeededRng::new(seed);
            per_call(|| sink(cvae.train_batch(&x32, &y32, &mut adam, &mut step_rng)))
        }) * 1e6,
    ));
    let optimizer_ns_per_param = |optim: &mut dyn Optimizer, fan_in: usize, fan_out: usize| {
        let mut layer = Linear::new(fan_in, fan_out, &mut SeededRng::new(seed));
        layer.visit_params_mut(&mut |p| p.grad.fill(0.01));
        per_call(|| optim.step(&mut layer)) * 1e9 / layer.num_params() as f64
    };
    out.push((
        "nn.optim.adam_ns_per_param",
        probe("probe.nn.optim.adam", || optimizer_ns_per_param(&mut Adam::new(2e-3), 794, 100)),
    ));
    out.push((
        "nn.optim.sgd_ns_per_param",
        probe("probe.nn.optim.sgd", || {
            optimizer_ns_per_param(&mut Sgd::with_momentum(0.1, 0.9), 784, 64)
        }),
    ));

    // fg-nn · models::classifier
    let (x20, y20) = batch(&data, 20);
    out.push((
        "nn.classifier.mlp_train_batch_us",
        probe("probe.nn.classifier.mlp_train_batch", || {
            let mut clf = Classifier::new(&MLP, &mut rng);
            let mut sgd = Sgd::with_momentum(0.1, 0.9);
            per_call(|| sink(clf.train_batch(&x20, &y20, &mut sgd)))
        }) * 1e6,
    ));
    out.push((
        "nn.classifier.cnn_train_batch_us",
        probe("probe.nn.classifier.cnn_train_batch", || {
            let mut clf = Classifier::new(&CNN, &mut rng);
            let mut sgd = Sgd::with_momentum(0.05, 0.9);
            per_call(|| sink(clf.train_batch(&x32, &y32, &mut sgd)))
        }) * 1e6,
    ));
    let test = generate_dataset(fast.per_class_test, seed ^ 1);
    let (test_x, test_y) = (test.to_tensor(), test.labels_usize());
    out.push((
        "nn.classifier.cnn_eval_ms",
        probe("probe.nn.classifier.cnn_eval", || {
            let mut clf = Classifier::from_params(&CNN, psi);
            per_call(|| sink(clf.evaluate(&test_x, &test_y, fast.fed.eval_batch)))
        }) * 1e3,
    ));

    // fg-nn · models::batched
    let mlp_cohort = models(&MLP, 20, &mut rng);
    let mlp_refs: Vec<&[f32]> = mlp_cohort.iter().map(Vec::as_slice).collect();
    let (x300, y300) = batch(&data, 300);
    out.push((
        "nn.batched.mlp_audit_ms",
        probe("probe.nn.batched.mlp_audit", || {
            let scorer = BatchedClassifier::new(&MLP, &mlp_refs);
            per_call(|| sink(scorer.evaluate(&x300, &y300, fast.fed.eval_batch)))
        }) * 1e3,
    ));
    let (x100, y100) = batch(&data, 100);
    out.push((
        "nn.batched.cnn_audit_ms",
        probe("probe.nn.batched.cnn_audit", || {
            let scorer = BatchedClassifier::new(&CNN, &refs);
            per_call(|| sink(scorer.evaluate(&x100, &y100, fast.fed.eval_batch)))
        }) * 1e3,
    ));

    // fg-data · synth, partition — the Fast preset's 1200/class over 100 clients.
    let mut train = None;
    out.push((
        "data.generate_dataset_s",
        probe("probe.data.generate_dataset", || {
            once(|| train = Some(generate_dataset(1200, seed)))
        }),
    ));
    let train = train.expect("generated above");
    out.push((
        "data.partition_ms",
        probe("probe.data.partition", || {
            per_call(|| {
                let parts = dirichlet_partition(&train, 100, 10.0, 10, &mut SeededRng::new(seed));
                black_box(partition_datasets(&train, &parts));
            })
        }) * 1e3,
    ));

    // fg-fl · client — one pool thread, so `× clients ÷ threads` predicts
    // the in-process exchange stage.
    let cold = Workload::ColdFit.config(seed, false);
    let parts = dirichlet_partition(&train, 100, 10.0, 10, &mut SeededRng::new(seed));
    let part = partition_datasets(&train, &parts).swap_remove(0);
    let mut mlp_client = Client::for_federation(&cold.fed, 0, part, Some(cold.cvae));
    out.push((
        "fl.client.cvae_fit_s",
        probe("probe.fl.client.cvae_fit", || {
            rayon::with_threads(1, || once(|| mlp_client.decoder_params(0)))
        }),
    ));
    let mlp_global = &mlp_cohort[0];
    out.push((
        "fl.client.mlp_train_round_ms",
        probe("probe.fl.client.mlp_train_round", || {
            rayon::with_threads(1, || per_call(|| sink(mlp_client.train_round(mlp_global, 1))))
        }) * 1e3,
    ));
    let audit = Workload::CnnAudit.config(seed, false);
    let mut cnn_client = Client::for_federation(&audit.fed, 0, sample(&data, 40), Some(audit.cvae));
    let theta = cnn_client.decoder_params(0);
    out.push((
        "fl.client.cnn_train_round_ms",
        probe("probe.fl.client.cnn_train_round", || {
            rayon::with_threads(1, || per_call(|| sink(cnn_client.train_round(psi, 1))))
        }) * 1e3,
    ));

    // fg-fl · compress, wire — one CNN submission ψ + decoder θ.
    let int8 = Compression::Int8 { block: DEFAULT_INT8_BLOCK };
    let submission = ModelUpdate {
        client_id: 0,
        params: cohort[1].clone(),
        num_samples: 40,
        decoder: Some(theta.clone()),
        class_coverage: Some(vec![4; 10]),
    };
    let compressed = compress_update(int8, &submission, psi);
    out.push((
        "fl.compress.int8_update_enc_ms",
        probe("probe.fl.compress.int8_enc", || {
            per_call(|| sink(compress_update(int8, &submission, psi)))
        }) * 1e3,
    ));
    out.push((
        "fl.compress.int8_update_dec_ms",
        probe("probe.fl.compress.int8_dec", || {
            per_call(|| sink(decompress_update(&compressed, psi)))
        }) * 1e3,
    ));
    out.push((
        "fl.compress.int8_wire_ratio",
        compressed.model_bytes() as f64 / compressed.encoded_model_bytes() as f64,
    ));
    let frame = encode_upload(0, &submission);
    out.push((
        "fl.wire.upload_enc_ms",
        probe("probe.fl.wire.upload_enc", || per_call(|| sink(encode_upload(0, &submission))))
            * 1e3,
    ));
    out.push((
        "fl.wire.upload_dec_ms",
        probe("probe.fl.wire.upload_dec", || {
            per_call(|| sink(decode(&frame, &WireConfig::default()).expect("frame decodes")))
        }) * 1e3,
    ));
    out.push((
        "fl.net.echo_roundtrip_ms",
        probe("probe.fl.net.echo_roundtrip", || echo_roundtrip_secs(d)) * 1e3,
    ));

    // fg-fl · fault — the sanitizer over m = 8 CNN updates.
    out.push((
        "fl.sanitize.round_ms",
        probe("probe.fl.sanitize.round", || {
            per_call_on(
                || updates.clone(),
                |arrived| sink(sanitize_round(arrived, d, &mut Vec::new())),
            )
        }) * 1e3,
    ));

    // fedguard · synthesis, strategy — the warm_mlp round's server side:
    // m = 20 decoders, 300 synthetic samples, MLP-64 updates.
    let thetas: Vec<Vec<f32>> =
        (0..20).map(|_| Cvae::new(&fast.cvae.spec, &mut rng).decoder_params()).collect();
    let decoders: Vec<DecoderSubmission<'_>> =
        thetas.iter().enumerate().map(|(id, t)| DecoderSubmission::plain(id, t)).collect();
    out.push((
        "core.synthesis_ms",
        probe("probe.core.synthesis", || {
            per_call(|| {
                let mut rng = SeededRng::new(seed);
                black_box(synthesize_validation_set(
                    &decoders,
                    &fast.cvae.spec,
                    &fast.budget,
                    None,
                    false,
                    &mut rng,
                ));
            })
        }) * 1e3,
    ));
    let mlp_updates: Vec<ModelUpdate> = mlp_cohort
        .iter()
        .zip(&thetas)
        .enumerate()
        .map(|(id, (params, theta))| ModelUpdate {
            client_id: id,
            params: params.clone(),
            num_samples: 120,
            decoder: Some(theta.clone()),
            class_coverage: Some(vec![12; 10]),
        })
        .collect();
    out.push((
        "core.strategy.aggregate_ms",
        probe("probe.core.strategy.aggregate", || {
            let mut strategy = fedguard_strategy(&fast);
            per_call(|| {
                let mut ctx =
                    AggregationContext { round: 0, global: mlp_global, rng: SeededRng::new(seed) };
                black_box(strategy.aggregate(&mlp_updates, &mut ctx));
            })
        }) * 1e3,
    ));
    out
}

/// The exchange-stage seconds the probes predict for `workload`: client
/// work (measured on one pool thread) spread over the pool in-process; one
/// client plus its codec and wire cost per session over TCP, where the two
/// sessions run side by side.
pub fn predicted_exchange_s(workload: Workload, seed: u64, probes: &[(&'static str, f64)]) -> f64 {
    let get = |name: &str| probes.iter().find(|p| p.0 == name).map_or(0.0, |p| p.1);
    let cfg = workload.config(seed, false);
    let threads = rayon::current_num_threads() as f64;
    let m = cfg.fed.clients_per_round as f64;
    match workload {
        Workload::ColdFit => {
            m * (get("fl.client.cvae_fit_s") + get("fl.client.mlp_train_round_ms") / 1e3) / threads
        }
        Workload::WarmMlp => m * get("fl.client.mlp_train_round_ms") / 1e3 / threads,
        Workload::CnnAudit => m * get("fl.client.cnn_train_round_ms") / 1e3 / threads,
        Workload::CnnTcpDense | Workload::CnnTcpInt8 => {
            // ~20 samples per client here against the probe's 40.
            let train = get("fl.client.cnn_train_round_ms") / 2.0;
            let codec = if workload == Workload::CnnTcpInt8 {
                get("fl.compress.int8_update_enc_ms") + get("fl.compress.int8_update_dec_ms")
            } else {
                0.0
            };
            let wire = get("fl.wire.upload_enc_ms") + get("fl.wire.upload_dec_ms");
            (train + codec + wire + get("fl.net.echo_roundtrip_ms")) / 1e3
        }
    }
}
