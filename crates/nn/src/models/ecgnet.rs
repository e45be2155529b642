//! Small regression DNN for the ECG heart-rate study (Sec. 6.6).

use crate::{Linear, Network, Relu, Sequential};
use rand::rngs::StdRng;

/// Builds the ECG heart-rate regressor: a three-layer MLP mapping a window of
/// ECG samples to a single heart-rate estimate.
pub fn ecg_net(input_len: usize, rng: &mut StdRng) -> Network {
    Network::new(Sequential::new(vec![
        Box::new(Linear::new(input_len, 64, rng)),
        Box::new(Relu::new()),
        Box::new(Linear::new(64, 32, rng)),
        Box::new(Relu::new()),
        Box::new(Linear::new(32, 1, rng)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Loss, MseLoss, Sgd, Target};
    use hs_tensor::Tensor;
    use rand::SeedableRng;

    #[test]
    fn regresses_a_simple_function() {
        // learn y = mean(x) * 2, an easy stand-in for heart-rate estimation
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = ecg_net(8, &mut rng);
        let mut opt = Sgd::new(0.05);
        let x = Tensor::rand_uniform(&[32, 8], 0.0, 1.0, &mut rng);
        let targets: Vec<f32> = x
            .as_slice()
            .chunks(8)
            .map(|row| row.iter().sum::<f32>() / 8.0 * 2.0)
            .collect();
        let target = Target::Values(Tensor::from_vec(targets, &[32, 1]));

        let mut first = None;
        let mut last = 0.0;
        for _ in 0..200 {
            let preds = net.forward(&x, true);
            let (loss, grad) = MseLoss.forward(&preds, &target);
            net.backward(&grad);
            opt.step(&mut net);
            if first.is_none() {
                first = Some(loss);
            }
            last = loss;
        }
        assert!(last < first.unwrap() * 0.2, "{first:?} -> {last}");
    }
}
