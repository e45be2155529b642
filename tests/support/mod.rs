//! Helpers shared by the integration tests that include this module with
//! `mod support;`.

use heteroswitch_repro::nn::{states, Conv2d, Param};

/// `conv`'s weight and bias, through the state walk.
pub fn params(conv: &mut Conv2d) -> Vec<&mut Param> {
    states(conv).0
}
