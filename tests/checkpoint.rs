//! Checkpoint property tests across the whole model zoo: bit-exact
//! round trips (fresh and fused, before and after training), cross-model
//! fingerprint rejection, truncated-file and hostile-rank rejection, a
//! fixed-seed mutation fuzz of the loader, and the byte-stable golden
//! header.

use hs_nn::models::{build_vision_model, ecg_net, ModelKind, VisionConfig};
use hs_nn::{CheckpointError, CrossEntropyLoss, Network, Sgd, State, Target, CHECKPOINT_MAGIC};
use hs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const ZOO: [ModelKind; 4] = [
    ModelKind::SimpleCnn,
    ModelKind::MobileNetV3Small,
    ModelKind::ShuffleNetV2,
    ModelKind::SqueezeNet,
];

fn zoo_cfg() -> VisionConfig {
    VisionConfig::new(3, 5, 16)
}

fn zoo_model(kind: ModelKind, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    build_vision_model(kind, zoo_cfg(), &mut rng)
}

fn weight_bits(net: &mut Network) -> Vec<u32> {
    net.weights().iter().map(|v| v.to_bits()).collect()
}

/// One SGD step so parameters *and* batch-norm running buffers move away
/// from their initial values.
fn train_one_step(net: &mut Network, rng: &mut StdRng) {
    let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, rng);
    net.forward_backward(&x, &Target::Classes(vec![0, 1]), &CrossEntropyLoss);
    Sgd::new(0.05).step(net);
    net.zero_grad();
}

#[test]
fn round_trip_is_bit_exact_across_the_zoo_fresh_and_trained() {
    for kind in ZOO {
        let mut original = zoo_model(kind, 1);
        // fresh
        let bytes = original.to_checkpoint_bytes();
        let mut replica = zoo_model(kind, 2);
        replica.load_checkpoint_bytes(&bytes).unwrap();
        assert_eq!(
            weight_bits(&mut original),
            weight_bits(&mut replica),
            "{kind:?} fresh round trip must be exact to the bit"
        );
        // post-training (parameters and BN running stats both moved)
        let mut rng = StdRng::seed_from_u64(3);
        train_one_step(&mut original, &mut rng);
        let trained = original.to_checkpoint_bytes();
        assert_ne!(trained, bytes, "{kind:?}: training must change the bytes");
        let mut replica = zoo_model(kind, 4);
        replica.load_checkpoint_bytes(&trained).unwrap();
        assert_eq!(
            weight_bits(&mut original),
            weight_bits(&mut replica),
            "{kind:?} post-training round trip must be exact to the bit"
        );
    }
}

#[test]
fn fused_and_unfused_replicas_share_checkpoints() {
    // the serving path: FL publishes from a plain global model, the server
    // loads into a fused replica — and the reverse must hold too
    for kind in ZOO {
        let mut rng = StdRng::seed_from_u64(5);
        let mut plain = zoo_model(kind, 1);
        train_one_step(&mut plain, &mut rng);
        let bytes = plain.to_checkpoint_bytes();

        let mut fused = zoo_model(kind, 2);
        fused.fuse_inference();
        assert_eq!(
            plain.fingerprint(),
            fused.fingerprint(),
            "{kind:?}: fusion must not change the topology fingerprint"
        );
        fused.load_checkpoint_bytes(&bytes).unwrap();
        assert_eq!(
            weight_bits(&mut plain),
            weight_bits(&mut fused),
            "{kind:?} plain→fused load must be exact to the bit"
        );
        // a checkpoint re-saved from the fused replica loads back into a
        // plain one bit-exact (bytes differ only in the diagnostic buffer
        // names, which carry the fused layer names)
        let refused = fused.to_checkpoint_bytes();
        let mut plain2 = zoo_model(kind, 3);
        plain2.load_checkpoint_bytes(&refused).unwrap();
        assert_eq!(
            weight_bits(&mut plain),
            weight_bits(&mut plain2),
            "{kind:?} fused→plain load must be exact to the bit"
        );
        // and the loaded weights actually drive inference: outputs match
        let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
        let expect = plain.infer(&x).clone();
        let got = fused.infer(&x);
        for (a, b) in expect.as_slice().iter().zip(got.as_slice()) {
            assert!(
                (a - b).abs() <= 1e-4 * a.abs().max(1.0),
                "{kind:?}: fused replica diverges after load: {a} vs {b}"
            );
        }
    }
}

#[test]
fn ecg_model_round_trips_too() {
    let mut rng = StdRng::seed_from_u64(6);
    let mut original = ecg_net(32, &mut rng);
    let bytes = original.to_checkpoint_bytes();
    let mut replica = ecg_net(32, &mut rng);
    replica.load_checkpoint_bytes(&bytes).unwrap();
    assert_eq!(weight_bits(&mut original), weight_bits(&mut replica));
}

#[test]
fn cross_model_loads_are_rejected_by_fingerprint() {
    let mut donors: Vec<(ModelKind, Vec<u8>)> = ZOO
        .iter()
        .map(|&kind| (kind, zoo_model(kind, 1).to_checkpoint_bytes()))
        .collect();
    // every (donor, recipient) pair of *different* architectures must fail
    // with the fingerprint error, and leave the recipient untouched
    for (donor_kind, bytes) in donors.drain(..) {
        for recipient_kind in ZOO {
            if recipient_kind == donor_kind {
                continue;
            }
            let mut recipient = zoo_model(recipient_kind, 2);
            let before = recipient.weights();
            let err = recipient.load_checkpoint_bytes(&bytes).unwrap_err();
            assert!(
                matches!(err, CheckpointError::FingerprintMismatch { .. }),
                "{donor_kind:?} → {recipient_kind:?}: expected fingerprint mismatch, got {err}"
            );
            assert_eq!(recipient.weights(), before);
        }
    }
}

#[test]
fn truncated_files_are_rejected_with_actionable_errors() {
    let dir = std::env::temp_dir().join(format!("hs_ckpt_zoo_{}", std::process::id()));
    let path = dir.join("model.ckpt");
    let mut original = zoo_model(ModelKind::SimpleCnn, 1);
    original.save_checkpoint(&path).unwrap();
    let full = std::fs::read(&path).unwrap();

    let mut replica = zoo_model(ModelKind::SimpleCnn, 2);
    let before = replica.weights();
    for frac in [0.1, 0.5, 0.99] {
        let cut = (full.len() as f64 * frac) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();
        let err = replica.load_checkpoint(&path).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("truncated"),
            "cut at {frac}: error should say truncated, said: {msg}"
        );
        assert_eq!(replica.weights(), before, "failed load must not mutate");
    }
    // a missing file surfaces the I/O error
    let err = replica
        .load_checkpoint(&dir.join("does_not_exist.ckpt"))
        .unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_huge_buffer_rank_is_a_typed_error_not_an_abort() {
    // the rank field sized an allocation before anything checked it: a
    // 4-byte edit to u32::MAX asked for 32 GiB and aborted the process
    let mut original = zoo_model(ModelKind::SimpleCnn, 1);
    let mut bytes = original.to_checkpoint_bytes();
    // the last buffer ends with rank (u32), dims (u32 each), f32 payload
    // and CRC-32 (u32)
    let (mut rank, mut len) = (0, 0);
    original.for_each_state(&mut |s| {
        if let State::Buffer(b) = s {
            (rank, len) = (b.rank(), b.len());
        }
    });
    assert!(len > 0, "SimpleCnn has batch-norm buffers");
    let at = bytes.len() - 4 - 4 * len - 4 * rank - 4;
    assert_eq!(&bytes[at..at + 4], &(rank as u32).to_le_bytes());
    bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());

    let mut replica = zoo_model(ModelKind::SimpleCnn, 2);
    let before = replica.weights();
    let err = replica.load_checkpoint_bytes(&bytes).unwrap_err();
    assert!(
        matches!(err, CheckpointError::BufferShapeMismatch { .. }),
        "expected a shape mismatch, got {err}"
    );
    assert_eq!(replica.weights(), before, "failed load must not mutate");
}

/// The bits of every stored weight and every buffer.
fn state_bits(net: &mut Network) -> Vec<u32> {
    let (mut bits, mut buffer_bits) = (Vec::new(), Vec::new());
    net.for_each_state(&mut |s| match s {
        State::Param(p) => bits.extend(p.value.as_slice().iter().map(|v| v.to_bits())),
        State::Buffer(b) => buffer_bits.extend(b.as_slice().iter().map(|v| v.to_bits())),
    });
    bits.extend(buffer_bits);
    bits
}

/// `(offset, width)` of every integer field of a valid v2 checkpoint, in the
/// layout of `hs_nn::checkpoint`'s module docs: version, fingerprint and
/// tensor count; per parameter its dtype tag, element count and CRC; the
/// buffer count; per buffer its name length, rank, dims and CRC.
fn integer_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let mut fields = vec![(8, 4), (12, 8), (20, 8)];
    let mut at = 28;
    for _ in 0..u64_at(20) {
        fields.extend([(at, 1), (at + 1, 8)]);
        at += 9 + 4 * u64_at(at + 1);
        fields.push((at, 4));
        at += 4;
    }
    fields.push((at, 8));
    let buffers = u64_at(at);
    at += 8;
    for _ in 0..buffers {
        fields.push((at, 4));
        at += 4 + u32_at(at);
        let rank = u32_at(at);
        let elems: usize = (0..rank).map(|d| u32_at(at + 4 + 4 * d)).product();
        fields.extend((0..=rank).map(|d| (at + 4 * d, 4)));
        at += 4 + 4 * rank + 4 * elems;
        fields.push((at, 4));
        at += 4;
    }
    assert_eq!(at, bytes.len(), "the field walk must cover the checkpoint");
    fields
}

/// A bounded, seeded set of hostile edits of `valid`, each with a label that
/// reproduces it: random bit flips, 0x00/0xFF bytes and truncations, 0 / 1 /
/// MAX written over every integer field, and appended bytes.
fn mutants(valid: &[u8], seed: u64) -> Vec<(String, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let edit = |at: usize, new: &[u8]| {
        let mut m = valid.to_vec();
        m[at..at + new.len()].copy_from_slice(new);
        m
    };
    let mut out = Vec::new();
    for _ in 0..48 {
        let (at, bit) = (rng.gen_range(0..valid.len()), rng.gen_range(0..8u32));
        out.push((
            format!("flip bit {bit} of byte {at}"),
            edit(at, &[valid[at] ^ (1 << bit)]),
        ));
        for byte in [0x00u8, 0xFF] {
            let at = rng.gen_range(0..valid.len());
            out.push((format!("byte {at} = {byte:#04x}"), edit(at, &[byte])));
        }
        let cut = rng.gen_range(0..valid.len());
        out.push((format!("truncate to {cut} bytes"), valid[..cut].to_vec()));
    }
    for (at, width) in integer_fields(valid) {
        for value in [0u64, 1, u64::MAX] {
            out.push((
                format!("{width}-byte field at {at} = {value:#x}"),
                edit(at, &value.to_le_bytes()[..width]),
            ));
        }
    }
    for tail in [&[0u8][..], &[0xFF; 8], &CHECKPOINT_MAGIC] {
        let mut m = valid.to_vec();
        m.extend_from_slice(tail);
        out.push((format!("append {} bytes", tail.len()), m));
    }
    out
}

#[test]
fn mutated_checkpoints_load_or_fail_typed_and_leave_the_model_alone() {
    // the loader's contract for untrusted bytes (a hot-swap blob): `Ok`, or
    // a `CheckpointError` with every weight and buffer untouched — never a
    // panic or an abort. 8 px keeps SimpleCnn's classifier, and so the bytes
    // every mutant re-reads, small; the two cases run on their own threads.
    let fuzz = |kind| {
        let model = |seed| {
            build_vision_model(
                kind,
                VisionConfig::new(3, 5, 8),
                &mut StdRng::seed_from_u64(seed),
            )
        };
        let (mut donor, mut recipient) = (model(1), model(2));
        let valid = donor.to_checkpoint_bytes();
        let own = recipient.to_checkpoint_bytes();
        let untouched = state_bits(&mut recipient);
        for (what, bytes) in mutants(&valid, 26) {
            let loaded = catch_unwind(AssertUnwindSafe(|| recipient.load_checkpoint_bytes(&bytes)))
                .unwrap_or_else(|_| panic!("{kind:?}: {what}: the loader panicked"));
            match loaded {
                Ok(()) => recipient
                    .load_checkpoint_bytes(&own)
                    .expect("the recipient's own checkpoint reloads"),
                Err(err) => assert!(
                    state_bits(&mut recipient) == untouched,
                    "{kind:?}: {what}: rejected ({err}) but the model changed"
                ),
            }
        }
    };
    std::thread::scope(|s| {
        for kind in [ModelKind::SimpleCnn, ModelKind::MobileNetV3Small] {
            s.spawn(move || fuzz(kind));
        }
    });
}

/// Every network the paper trains, at the checkpoint tests' scale, with its
/// pinned topology fingerprint and parameter-tensor count.
fn golden_zoo() -> Vec<(&'static str, Network, u64, usize)> {
    let mut rng = StdRng::seed_from_u64(1);
    let mut vision = |kind| build_vision_model(kind, zoo_cfg(), &mut rng);
    vec![
        (
            "SimpleCnn",
            vision(ModelKind::SimpleCnn),
            0x08d9_4900_839b_10a8,
            12,
        ),
        (
            "MobileNetV3Small",
            vision(ModelKind::MobileNetV3Small),
            0xf11e_9952_9803_8ab1,
            54,
        ),
        (
            "ShuffleNetV2",
            vision(ModelKind::ShuffleNetV2),
            0xbc45_e968_a61c_c09b,
            74,
        ),
        (
            "SqueezeNet",
            vision(ModelKind::SqueezeNet),
            0x74e9_f485_58ac_63e5,
            22,
        ),
        ("EcgNet", ecg_net(32, &mut rng), 0x8781_66a7_30b0_5620, 6),
    ]
}

#[test]
fn checkpoint_header_is_byte_stable() {
    // golden pin of the 28-byte header (magic + version + fingerprint +
    // parameter-tensor count) for every zoo network at VisionConfig(3, 5,
    // 16) and the ECG net over 32 samples. This must only ever change with a
    // deliberate format-version bump or an intentional architecture change —
    // update the constants in the same commit and say why. Bumped to
    // version 2 (and the count field from flat scalars to per-tensor
    // entries) when dtype tags and CRC-32 checksums were added; the
    // fingerprint algorithm was untouched, so SimpleCnn's fingerprint
    // survives from v1.
    for (name, mut net, fingerprint, tensors) in golden_zoo() {
        let bytes = net.to_checkpoint_bytes();
        let mut expected_header = Vec::new();
        expected_header.extend_from_slice(b"HSNNCKPT");
        expected_header.extend_from_slice(&2u32.to_le_bytes()); // format version
        expected_header.extend_from_slice(&fingerprint.to_le_bytes());
        expected_header.extend_from_slice(&(tensors as u64).to_le_bytes());
        assert_eq!(
            &bytes[..28],
            &expected_header[..],
            "{name}: header moved — format or architecture change?"
        );
        assert_eq!(net.fingerprint(), fingerprint, "{name}");
    }
}

/// The flat layout, pinned across commits by what it computes: every
/// weight and buffer of each zoo network is set, in `set_weights` order,
/// from a seeded integer draw (buffers positive, so every running variance
/// is), and the logits of a seeded batch of two are pinned as literals.
/// The fingerprint pins shapes only; a walk that swapped two same-shaped
/// tensors would keep it and move these. Tolerance 1e-4 of the largest
/// logit, so every ISA tier's rounding (≤ 1e-5 apart) passes.
#[test]
fn golden_logits_pin_the_flat_layout() {
    let golden: [&[f32]; 5] = [
        &[
            -0.938629,
            -0.46492735,
            0.41416818,
            0.26636153,
            0.4366085,
            -0.93868166,
            -0.46421567,
            0.44057178,
            0.28241372,
            0.47630107,
        ],
        &[
            -0.023113608,
            -0.41129172,
            -0.087975495,
            0.060313776,
            -0.01963967,
            -0.023113579,
            -0.41129172,
            -0.08797549,
            0.06031376,
            -0.019639716,
        ],
        &[
            -0.05655718,
            -0.1107101,
            0.07486303,
            0.049195807,
            0.3042103,
            -0.056557253,
            -0.1107102,
            0.074862964,
            0.04919577,
            0.30421036,
        ],
        &[
            0.011370577,
            0.0,
            0.32601225,
            0.07933095,
            0.0,
            0.010967363,
            0.0,
            0.32603282,
            0.07972978,
            0.0,
        ],
        &[0.55464786, 0.60803056],
    ];
    for (i, ((name, mut net, _, _), want)) in golden_zoo().into_iter().zip(golden).enumerate() {
        let mut rng = StdRng::seed_from_u64(100 + i as u64);
        let (mut params, mut buffers) = (0, 0);
        net.for_each_state(&mut |s| match s {
            State::Param(p) => params += p.len(),
            State::Buffer(b) => buffers += b.len(),
        });
        let mut flat: Vec<f32> = (0..params)
            .map(|_| rng.gen_range(-8i32..=8) as f32 / 32.0)
            .collect();
        flat.extend((0..buffers).map(|_| rng.gen_range(1i32..=16) as f32 / 16.0));
        net.set_weights(&flat);
        let dims: &[usize] = if name == "EcgNet" {
            &[2, 32]
        } else {
            &[2, 3, 16, 16]
        };
        let x = Tensor::rand_uniform(dims, 0.0, 1.0, &mut rng);
        let scale = want.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for fused in [false, true] {
            if fused {
                net.fuse_inference();
            }
            let got = net.infer(&x).as_slice();
            assert_eq!(got.len(), want.len(), "{name}");
            for (j, (g, w)) in got.iter().zip(want).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-4 * scale,
                    "{name} fused={fused}: logit {j} is {g}, pinned {w}"
                );
            }
        }
    }
}
