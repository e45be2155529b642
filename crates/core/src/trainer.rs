//! The HeteroSwitch client-update strategy (paper Algorithm 1).

use crate::{transform_dataset, AveragingMode, HeteroSwitchConfig, Policy, WeightAverager};
use hs_data::Dataset;
use hs_fl::{initial_loss, ClientContext, ClientTrainer, ClientUpdate, LossKind};
use hs_nn::{Network, Sgd};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::borrow::Cow;

/// The HeteroSwitch local trainer.
///
/// Per round and per selected client it measures the bias of the client's
/// data (by comparing the initial loss against the server's loss EMA),
/// switches the random ISP transformation on for biased clients, and switches
/// densely averaged (SWAD) weights on when the training loss also stays below
/// the EMA — exactly Algorithm 1 of the paper. The [`Policy`] knob turns the
/// switches into the always-on ablations of Table 4.
pub struct HeteroSwitchTrainer {
    config: HeteroSwitchConfig,
    loss: LossKind,
    policy: Policy,
}

impl HeteroSwitchTrainer {
    /// Creates the trainer.
    pub fn new(config: HeteroSwitchConfig, loss: LossKind, policy: Policy) -> Self {
        HeteroSwitchTrainer {
            config,
            loss,
            policy,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }
}

impl ClientTrainer for HeteroSwitchTrainer {
    fn client_update(
        &self,
        net: &mut Network,
        data: &Dataset,
        ctx: &ClientContext<'_>,
        rng: &mut StdRng,
    ) -> ClientUpdate {
        let loss = self.loss.build();

        // Algorithm 1, lines 1–5: measure L_init and set Switch 1.
        // Comparisons against a NaN EMA (no history yet) are false, so the
        // first round behaves like plain FedAvg under the Selective policy.
        let init_loss = initial_loss(net, data, loss.as_ref());
        let switch1 = match self.policy {
            Policy::Selective => init_loss < ctx.loss_ema,
            Policy::AlwaysTransform | Policy::AlwaysTransformAndSwad => true,
        };

        // Algorithm 1, lines 6–8: diversify the biased client's data (the
        // unbiased majority trains on the client's own set, borrowed).
        let train_data = if switch1 {
            Cow::Owned(transform_dataset(data, self.config.transform, rng))
        } else {
            Cow::Borrowed(data)
        };

        // Algorithm 1, lines 9–21: local SGD with dense weight averaging.
        let mut averager = if switch1 {
            Some(WeightAverager::new(AveragingMode::PerBatch, &net.weights()))
        } else {
            None
        };
        let mut opt = Sgd::new(ctx.lr);
        let mut train_loss = 0.0f32;
        let mut batch_idx = 0usize;
        for _epoch in 0..ctx.local_epochs {
            let mut order: Vec<usize> = (0..train_data.len()).collect();
            order.shuffle(rng);
            for batch in order.chunks(ctx.batch_size.max(1)) {
                let (x, target) = train_data.batch(batch);
                let l = net.forward_backward(&x, &target, loss.as_ref());
                opt.step(net);
                train_loss = (train_loss * batch_idx as f32 + l) / (batch_idx + 1) as f32;
                batch_idx += 1;
                if let Some(avg) = averager.as_mut() {
                    avg.on_batch_end(&net.weights());
                }
            }
        }

        // Algorithm 1, lines 22–29: decide whether to return the averaged
        // weights (Switch 2).
        let switch2 = match self.policy {
            Policy::Selective => switch1 && train_loss < ctx.loss_ema,
            Policy::AlwaysTransform => false,
            Policy::AlwaysTransformAndSwad => true,
        };
        let weights = match (switch2, averager) {
            (true, Some(avg)) => avg.into_average(),
            _ => net.weights(),
        };

        ClientUpdate {
            client_id: ctx.client_id,
            weights,
            train_loss,
            init_loss,
            num_samples: data.len(),
        }
    }

    fn name(&self) -> &'static str {
        self.policy.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_data::Labels;
    use hs_nn::{Linear, Relu, Sequential};
    use hs_tensor::Tensor;
    use rand::SeedableRng;

    fn toy_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(Sequential::new(vec![
            Box::new(hs_nn::Flatten::new()),
            Box::new(Linear::new(12, 16, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(16, 3, &mut rng)),
        ]))
    }

    /// Tiny "image" dataset: 3-channel 2x2 tensors with class-correlated
    /// colours, flattened by the Linear layer consumer.
    fn toy_image_data(seed: u64, n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Tensor> = (0..n)
            .map(|i| {
                let mut t = Tensor::rand_uniform(&[3, 2, 2], 0.2, 0.4, &mut rng);
                let class = i % 3;
                for p in 0..4 {
                    let idx = class * 4 + p;
                    t.as_mut_slice()[idx] += 0.5;
                }
                t
            })
            .collect();
        Dataset::new(x, Labels::Classes((0..n).map(|i| i % 3).collect()))
    }

    fn ctx<'a>(global: &'a [f32], loss_ema: f32) -> ClientContext<'a> {
        ClientContext {
            round: 1,
            loss_ema,
            lr: 0.2,
            batch_size: 4,
            local_epochs: 1,
            global_weights: global,
            client_id: 0,
        }
    }

    #[test]
    fn selective_policy_with_nan_ema_behaves_like_fedavg() {
        // with no EMA history both switches must stay off, so the returned
        // weights equal the plain SGD iterate
        let data = toy_image_data(0, 12);
        let trainer = HeteroSwitchTrainer::new(
            HeteroSwitchConfig::default(),
            LossKind::CrossEntropy,
            Policy::Selective,
        );
        let fedavg = hs_fl::FedAvgTrainer::new(LossKind::CrossEntropy);

        let mut net_a = toy_net(3);
        let global = net_a.weights();
        let a = trainer.client_update(
            &mut net_a,
            &data,
            &ctx(&global, f32::NAN),
            &mut StdRng::seed_from_u64(1),
        );
        let mut net_b = toy_net(3);
        let b = fedavg.client_update(
            &mut net_b,
            &data,
            &ctx(&global, f32::NAN),
            &mut StdRng::seed_from_u64(1),
        );
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn high_ema_triggers_both_switches_and_changes_the_update() {
        // a huge EMA means every client looks biased: transformation + SWAD
        let data = toy_image_data(0, 12);
        let trainer = HeteroSwitchTrainer::new(
            HeteroSwitchConfig::default(),
            LossKind::CrossEntropy,
            Policy::Selective,
        );
        let mut net_a = toy_net(3);
        let global = net_a.weights();
        let switched = trainer.client_update(
            &mut net_a,
            &data,
            &ctx(&global, 1e6),
            &mut StdRng::seed_from_u64(1),
        );
        let mut net_b = toy_net(3);
        let plain = trainer.client_update(
            &mut net_b,
            &data,
            &ctx(&global, f32::NAN),
            &mut StdRng::seed_from_u64(1),
        );
        assert_ne!(switched.weights, plain.weights);
        assert!(switched.train_loss.is_finite());
    }

    #[test]
    fn always_transform_policy_never_returns_averaged_weights() {
        // AlwaysTransform trains on transformed data but returns the last
        // iterate; AlwaysTransformAndSwad returns the dense average, so the
        // two must differ under identical RNG streams
        let data = toy_image_data(5, 12);
        let global = toy_net(3).weights();
        let run = |policy: Policy| {
            let trainer = HeteroSwitchTrainer::new(
                HeteroSwitchConfig::default(),
                LossKind::CrossEntropy,
                policy,
            );
            let mut net = toy_net(3);
            trainer.client_update(
                &mut net,
                &data,
                &ctx(&global, f32::NAN),
                &mut StdRng::seed_from_u64(2),
            )
        };
        let transform_only = run(Policy::AlwaysTransform);
        let with_swad = run(Policy::AlwaysTransformAndSwad);
        assert_ne!(transform_only.weights, with_swad.weights);
    }

    #[test]
    fn swad_weights_are_an_average_over_the_trajectory() {
        // the averaged weights should lie strictly between the initial and
        // final weights in L2 distance from the start
        let data = toy_image_data(7, 16);
        let global = toy_net(3).weights();
        let trainer = HeteroSwitchTrainer::new(
            HeteroSwitchConfig::default(),
            LossKind::CrossEntropy,
            Policy::AlwaysTransformAndSwad,
        );
        let mut net = toy_net(3);
        let averaged = trainer.client_update(
            &mut net,
            &data,
            &ctx(&global, f32::NAN),
            &mut StdRng::seed_from_u64(3),
        );
        let final_weights = net.weights();
        let dist = |a: &[f32], b: &[f32]| {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| (x - y).powi(2))
                .sum::<f32>()
                .sqrt()
        };
        let d_avg = dist(&averaged.weights, &global);
        let d_final = dist(&final_weights, &global);
        assert!(d_avg > 0.0, "the average must move away from the start");
        assert!(d_avg < d_final, "the average must lag the final iterate");
    }

    #[test]
    fn trainer_names_follow_the_policy() {
        let make =
            |p| HeteroSwitchTrainer::new(HeteroSwitchConfig::default(), LossKind::CrossEntropy, p);
        assert_eq!(
            ClientTrainer::name(&make(Policy::Selective)),
            "HeteroSwitch"
        );
        assert_eq!(
            ClientTrainer::name(&make(Policy::AlwaysTransform)),
            "ISP Transformation"
        );
    }
}
