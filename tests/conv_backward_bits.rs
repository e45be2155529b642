//! Pins the bits of `Conv2d::backward` for dense and grouped layers.
//!
//! The backward picks its GEMM shapes from the layer geometry: which way
//! round the weight gradient is computed (`dW = dOut · colᵀ` or its
//! transpose, whichever fills fewer register tiles), whether the input
//! gradient is written in place (1×1 stride-1 unpadded) and whether it runs
//! per (sample, group) or as one batched GEMM per sample band (`ohw` below
//! two register strips). None of these choices may move a gradient bit:
//! every output element is the same chain of fused multiply-adds over the
//! same `k` panels whichever operand is packed as `A`, and every tile is
//! stored by one rule. So each case's FNV-1a hashes of `grad_in`, `grad_w`
//! and `grad_b` are literals, taken over two accumulating steps at batch 10
//! (two sample bands of five).
//!
//! The cases are every dense convolution the four vision models train at the
//! FL client's batch (10 samples, 32 px), plus `groups = 2` layers on both
//! input-gradient routes, in both weight-gradient orientations and at a tile
//! tie, a 1×1 stride-2 layer (`k = 1` but not the identity column) and a
//! batch of 9 (uneven bands). Depthwise layers have their own suite
//! (`tests/depthwise_training.rs`).
//!
//! The literals are the AVX tiers' (AVX-512 and AVX2 round alike) and hold
//! at any thread target, whether the sample bands run inline or on pool
//! workers; CI runs this file at a 1- and a 2-thread target. A change that
//! moves them on purpose gets every moved row printed, ready to paste, and
//! says why.

mod support;

use heteroswitch_repro::nn::{Conv2d, Layer};
use heteroswitch_repro::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a (64-bit) over the little-endian bytes of `values`' bits.
fn fnv1a(values: &[f32]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// `(what, [cin, cout, kernel, stride, pad, groups, px, batch], [grad_in,
/// grad_w, grad_b] hashes)`. In `what`, `dW` / `dWt` names the
/// weight-gradient orientation (`dW` also at a tie), `batched` / `per-item`
/// the input-gradient route.
type Case = (&'static str, [usize; 8], [u64; 3]);

const CASES: [Case; 39] = [
    (
        "simple_cnn conv1 3-16 k3s1 @32: dW, per-item",
        [3, 16, 3, 1, 1, 1, 32, 10],
        [
            0xe2b4_b56c_54aa_b6dd,
            0x7ab8_9d9b_7eec_64ab,
            0x6a29_54f5_cae5_63f0,
        ],
    ),
    (
        "simple_cnn conv2 16-32 k3s1 @16: dW, per-item",
        [16, 32, 3, 1, 1, 1, 16, 10],
        [
            0x8f48_17a6_03de_de04,
            0xddb1_508a_2937_b5ad,
            0x0063_a724_3fea_aa32,
        ],
    ),
    (
        "mobilenet stem 3-16 k3s2 @32: dW, per-item",
        [3, 16, 3, 2, 1, 1, 32, 10],
        [
            0x1fb9_c0f9_5dce_78d1,
            0xd3a3_5799_a081_8af8,
            0x24fc_101e_d01e_8192,
        ],
    ),
    (
        "mobilenet expand 16-32 k1s1 @16: dWt, per-item, in place",
        [16, 32, 1, 1, 0, 1, 16, 10],
        [
            0xe361_d637_c594_e98c,
            0xc713_2ba9_ad21_58a7,
            0x7f9a_1576_f7aa_faa5,
        ],
    ),
    (
        "mobilenet project 32-16 k1s1 @16: dW, per-item, in place",
        [32, 16, 1, 1, 0, 1, 16, 10],
        [
            0x5b8f_50d5_8da4_1457,
            0xd769_bebd_5f7d_9627,
            0xf0e8_11bc_7fa0_e20a,
        ],
    ),
    (
        "mobilenet expand 16-48 k1s1 @16: dWt, per-item, in place",
        [16, 48, 1, 1, 0, 1, 16, 10],
        [
            0xafff_e67a_3a92_3a1a,
            0xdec8_dead_f53b_b4d4,
            0x85c8_5e29_f46a_d4cb,
        ],
    ),
    (
        "mobilenet project 48-24 k1s1 @8: dW, batched, in place",
        [48, 24, 1, 1, 0, 1, 8, 10],
        [
            0x8e6f_c995_a242_7de2,
            0x656f_972d_1d6c_9f0f,
            0x57d1_b99e_3f67_e95d,
        ],
    ),
    (
        "mobilenet expand 24-64 k1s1 @8: dWt, batched, in place",
        [24, 64, 1, 1, 0, 1, 8, 10],
        [
            0xe1c3_d415_7148_5ae2,
            0x2cea_778a_3e93_c909,
            0xb0bb_1277_fa75_2765,
        ],
    ),
    (
        "mobilenet project 64-32 k1s1 @4: dW, tie, batched, in place",
        [64, 32, 1, 1, 0, 1, 4, 10],
        [
            0xf615_0ce9_d6b1_998a,
            0xc845_6cc1_7add_25ab,
            0x1dd6_db72_3a7a_6214,
        ],
    ),
    (
        "mobilenet head 32-64 k1s1 @4: dW, tie, batched, in place",
        [32, 64, 1, 1, 0, 1, 4, 10],
        [
            0x7efc_779c_1316_84f1,
            0xf76b_38c9_c71d_27dc,
            0x5eaa_f25d_f73e_c9b5,
        ],
    ),
    (
        "shufflenet branch 16-16 k1s1 @16: dW, tie, per-item, in place",
        [16, 16, 1, 1, 0, 1, 16, 10],
        [
            0x4005_7355_d20b_cb46,
            0xc1a3_adc4_8157_ba9a,
            0x3882_69ac_87ca_6b7a,
        ],
    ),
    (
        "shufflenet branch 16-16 k1s1 @8: dW, tie, batched, in place",
        [16, 16, 1, 1, 0, 1, 8, 10],
        [
            0x8026_02b3_2be8_5693,
            0x9306_38e6_75c3_cd5c,
            0xe9bb_ea2d_8359_cd95,
        ],
    ),
    (
        "shufflenet branch 32-32 k1s1 @8: dW, tie, batched, in place",
        [32, 32, 1, 1, 0, 1, 8, 10],
        [
            0x5e4c_910c_a8b0_b75b,
            0xeeb0_6760_0519_a9b1,
            0x6f15_d51c_151e_9da2,
        ],
    ),
    (
        "shufflenet branch 32-32 k1s1 @4: dW, tie, batched, in place",
        [32, 32, 1, 1, 0, 1, 4, 10],
        [
            0x24a6_c35b_d0ef_2b4e,
            0x5234_c42e_253b_c2c8,
            0x6395_4983_da38_8f45,
        ],
    ),
    (
        "shufflenet head 64-96 k1s1 @4: dWt, batched, in place",
        [64, 96, 1, 1, 0, 1, 4, 10],
        [
            0x71f1_c24b_789f_1e84,
            0xea1b_3b24_0449_a3d7,
            0xc0f2_81d2_0cdb_2169,
        ],
    ),
    (
        "squeezenet stem 3-32 k3s2 @32: dW, tie, per-item",
        [3, 32, 3, 2, 1, 1, 32, 10],
        [
            0xb0d7_7495_f5c3_249b,
            0xfe3a_8f46_4ce0_9657,
            0x2ad0_140e_14d3_1ef5,
        ],
    ),
    (
        "squeezenet expand1x1 8-16 k1s1 @8: dWt, batched, in place",
        [8, 16, 1, 1, 0, 1, 8, 10],
        [
            0x2a2e_3341_66d6_9540,
            0xf1b7_41e5_511b_5c09,
            0xb05c_ce06_8ea5_38f6,
        ],
    ),
    (
        "squeezenet expand3x3 8-16 k3s1 @8: dW, batched",
        [8, 16, 3, 1, 1, 1, 8, 10],
        [
            0x6c6c_e9cc_00d4_279f,
            0xbc04_eded_2fa1_85da,
            0xb0cf_6bef_ef1a_0cb6,
        ],
    ),
    (
        "squeezenet squeeze 32-8 k1s1 @8: dW, batched, in place",
        [32, 8, 1, 1, 0, 1, 8, 10],
        [
            0x9d0b_c1f0_e6b0_43aa,
            0x54c4_bddf_0892_852a,
            0xdf1c_54a0_04e4_1afb,
        ],
    ),
    (
        "squeezenet expand1x1 8-24 k1s1 @8: dWt, batched, in place",
        [8, 24, 1, 1, 0, 1, 8, 10],
        [
            0x50c9_52f9_7764_fccf,
            0xd3c2_c739_f056_5713,
            0x8ee9_44cd_4246_0255,
        ],
    ),
    (
        "squeezenet expand3x3 8-24 k3s1 @8: dW, batched",
        [8, 24, 3, 1, 1, 1, 8, 10],
        [
            0x8926_0d7f_d7c1_0920,
            0x0932_3dd4_4eb5_46f2,
            0x80fc_be10_30bc_0ca0,
        ],
    ),
    (
        "squeezenet squeeze 48-12 k1s1 @4: dW, batched, in place",
        [48, 12, 1, 1, 0, 1, 4, 10],
        [
            0x08c0_5c64_ffc7_ea8b,
            0xb9e6_ac6f_697e_e265,
            0x99eb_c957_b3cd_8613,
        ],
    ),
    (
        "squeezenet expand1x1 12-32 k1s1 @4: dWt, batched, in place",
        [12, 32, 1, 1, 0, 1, 4, 10],
        [
            0x0df8_bc28_754e_6f4b,
            0xee7b_c3ed_7faa_1201,
            0xffe9_ec09_8556_7a35,
        ],
    ),
    (
        "squeezenet expand3x3 12-32 k3s1 @4: dW, batched",
        [12, 32, 3, 1, 1, 1, 4, 10],
        [
            0x9962_2eae_1cbf_013b,
            0x4619_62af_b2a2_8a30,
            0x2742_6d55_432d_7d9d,
        ],
    ),
    (
        "squeezenet classifier 64-6 k1s1 @4: dW, batched, in place",
        [64, 6, 1, 1, 0, 1, 4, 10],
        [
            0x625b_af18_9e69_fcee,
            0xf1ce_d00b_b495_345a,
            0x7b06_e7ac_462a_5ed9,
        ],
    ),
    (
        "grouped 16-64 k1s1 g2 @8: dWt, batched, in place",
        [16, 64, 1, 1, 0, 2, 8, 10],
        [
            0x734e_5388_352b_e020,
            0x4d70_28ff_a03e_9d25,
            0x2540_fb29_21fc_1772,
        ],
    ),
    (
        "grouped 16-64 k1s1 g2 @16: dWt, per-item, in place",
        [16, 64, 1, 1, 0, 2, 16, 10],
        [
            0x7ac2_d1ab_b68a_482b,
            0x7451_489d_fd17_462d,
            0xc006_9763_7b54_02fb,
        ],
    ),
    (
        "grouped 4-64 k3s1 g2 @8: dWt, batched",
        [4, 64, 3, 1, 1, 2, 8, 10],
        [
            0x1351_8796_50cf_2959,
            0xc817_c061_7ab3_85bb,
            0xe57e_4bbf_c4e7_ffa3,
        ],
    ),
    (
        "grouped 4-64 k3s1 g2 @16: dWt, per-item",
        [4, 64, 3, 1, 1, 2, 16, 10],
        [
            0x79c2_0ace_b583_9c87,
            0xc494_8d01_0561_c5c7,
            0xe199_ba5a_4b26_1183,
        ],
    ),
    (
        "grouped 64-16 k1s1 g2 @8: dW, batched, in place",
        [64, 16, 1, 1, 0, 2, 8, 10],
        [
            0x09a0_b1bf_ad8d_46bc,
            0xfd6a_f9aa_1cbd_2252,
            0x0244_77cc_92b2_c274,
        ],
    ),
    (
        "grouped 64-16 k1s1 g2 @16: dW, per-item, in place",
        [64, 16, 1, 1, 0, 2, 16, 10],
        [
            0xa997_6210_ba09_78d6,
            0xe3db_1174_9eea_5368,
            0xf7cc_2cee_e87f_ee08,
        ],
    ),
    (
        "grouped 8-16 k3s2 g2 @16: dW, batched",
        [8, 16, 3, 2, 1, 2, 16, 10],
        [
            0xf8f5_5ef7_51be_fd79,
            0x4345_14fe_f703_19f4,
            0xe556_8daf_7995_0670,
        ],
    ),
    (
        "grouped 8-16 k3s1 g2 @16: dW, per-item",
        [8, 16, 3, 1, 1, 2, 16, 10],
        [
            0xe3e3_c180_8ab5_b100,
            0x7760_899a_95c7_ebc2,
            0xa243_8129_1f31_37a4,
        ],
    ),
    (
        "grouped 32-32 k1s1 g2 @4: dW, tie, batched, in place",
        [32, 32, 1, 1, 0, 2, 4, 10],
        [
            0xf65b_9348_2937_3d82,
            0x3f34_8b81_203d_7055,
            0x1c64_20ea_90f9_d98b,
        ],
    ),
    (
        "grouped 32-32 k1s1 g2 @16: dW, tie, per-item, in place",
        [32, 32, 1, 1, 0, 2, 16, 10],
        [
            0x5b83_6c15_2652_1155,
            0xcd4c_8511_3b10_99ef,
            0x4fbc_5414_a784_e107,
        ],
    ),
    (
        "grouped, uneven bands 16-64 k1s1 g2 @8: dWt, batched, in place",
        [16, 64, 1, 1, 0, 2, 8, 9],
        [
            0x8782_c25c_aba0_603f,
            0x2646_411d_f5b8_49ef,
            0x49a0_bc21_1cac_a6cd,
        ],
    ),
    (
        "1x1 stride 2 16-32 k1s2 @8: dWt, batched",
        [16, 32, 1, 2, 0, 1, 8, 10],
        [
            0xb002_075b_cb0f_c899,
            0xcd4e_5a7f_1af5_2c81,
            0xc344_1fcc_ddf9_50c6,
        ],
    ),
    (
        "ohw 4 16-48 k1s1 @2: dWt, batched, in place",
        [16, 48, 1, 1, 0, 1, 2, 10],
        [
            0x0e66_1afc_91ac_fe8a,
            0xa087_91db_9d36_f6cf,
            0x3908_96d6_5d1e_5add,
        ],
    ),
    (
        "ohw 100 16-48 k1s1 @10: dWt, per-item, in place",
        [16, 48, 1, 1, 0, 1, 10, 10],
        [
            0x7771_177c_0120_ac2f,
            0xc611_1cd0_b9e2_ce19,
            0x7d28_60c4_6743_d405,
        ],
    ),
];

/// Two accumulating training steps of one layer: the input gradients of
/// both steps, then the weight and bias gradients they summed to.
fn run(geometry: [usize; 8], seed: u64) -> [u64; 3] {
    let [cin, cout, k, stride, pad, groups, px, batch] = geometry;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut conv = Conv2d::new(cin, cout, k, stride, pad, groups, &mut rng);
    let mut grad_in = Vec::new();
    for _ in 0..2 {
        let x = Tensor::rand_uniform(&[batch, cin, px, px], -1.0, 1.0, &mut rng);
        let y = conv.forward(&x, true);
        let grad_out = Tensor::rand_uniform(y.dims(), -1.0, 1.0, &mut rng);
        grad_in.extend_from_slice(conv.backward(&grad_out).as_slice());
    }
    let params = support::params(&mut conv);
    [
        fnv1a(&grad_in),
        fnv1a(params[0].grad.as_slice()),
        fnv1a(params[1].grad.as_slice()),
    ]
}

#[test]
fn conv_backward_bits_are_pinned() {
    let mut moved = Vec::new();
    for (seed, (what, geometry, pins)) in CASES.iter().enumerate() {
        let got = run(*geometry, seed as u64);
        if got != *pins {
            moved.push(format!(
                "    (\"{what}\", {geometry:?}, [{:#018x}, {:#018x}, {:#018x}]),",
                got[0], got[1], got[2]
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "{} of {} cases moved; their bits now:\n{}",
        moved.len(),
        CASES.len(),
        moved.join("\n")
    );
}
