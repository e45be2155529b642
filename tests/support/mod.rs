//! Helpers shared by the integration tests that include this module with
//! `mod support;`.

use heteroswitch_repro::nn::{states, Conv2d, Param, ParamStore};

/// `conv`'s weight and bias, through the state walk.
pub fn params(conv: &mut Conv2d) -> Vec<&mut Param> {
    let (stores, _) = states(conv);
    stores
        .into_iter()
        .map(|s| match s {
            ParamStore::F32(p) => p,
            ParamStore::Quant(_) => unreachable!("an f32 convolution"),
        })
        .collect()
}
