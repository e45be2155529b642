//! Local-update strategies: FedAvg, FedProx and Scaffold.
//!
//! Every strategy implements [`ClientTrainer`]; the HeteroSwitch strategy in
//! the `heteroswitch` crate implements the same trait, so the simulator can
//! compare all of them under identical conditions (paper Sec. 6.1–6.2).

use crate::{ClientContext, ClientUpdate};
use hs_data::Dataset;
use hs_nn::{BceWithLogitsLoss, CrossEntropyLoss, Loss, MseLoss, Network, Sgd};
use hs_parallel::sync;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// Which loss the local objective uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LossKind {
    /// Softmax cross-entropy (single-label classification).
    CrossEntropy,
    /// Binary cross-entropy with logits (multi-label classification).
    Bce,
    /// Mean squared error (regression).
    Mse,
}

impl LossKind {
    /// Returns the loss implementation for this kind.
    pub fn build(&self) -> Box<dyn Loss> {
        match self {
            LossKind::CrossEntropy => Box::new(CrossEntropyLoss),
            LossKind::Bce => Box::new(BceWithLogitsLoss),
            LossKind::Mse => Box::new(MseLoss),
        }
    }
}

/// A local-update strategy run on each selected client every round.
pub trait ClientTrainer: Send + Sync {
    /// Performs the local update. `net` arrives loaded with the current
    /// global weights; the returned [`ClientUpdate`] carries the weights the
    /// client sends back to the server.
    fn client_update(
        &self,
        net: &mut Network,
        data: &Dataset,
        ctx: &ClientContext<'_>,
        rng: &mut StdRng,
    ) -> ClientUpdate;

    /// Short name used in result tables.
    fn name(&self) -> &'static str;
}

/// Shuffled minibatch index order for one epoch.
fn epoch_batches(n: usize, batch_size: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    order
        .chunks(batch_size.max(1))
        .map(|c| c.to_vec())
        .collect()
}

/// Runs plain local SGD over the client's data, optionally applying a
/// per-step gradient adjustment (used by FedProx and Scaffold). Returns the
/// running mean training loss, following the paper's Algorithm 1 convention
/// of averaging per-batch losses.
pub fn sgd_local_update(
    net: &mut Network,
    data: &Dataset,
    loss: &dyn Loss,
    ctx: &ClientContext<'_>,
    rng: &mut StdRng,
    mut adjust: impl FnMut(&mut Network, f32),
) -> f32 {
    let mut opt = Sgd::new(ctx.lr);
    let mut mean_loss = 0.0f32;
    let mut batch_idx = 0usize;
    for _ in 0..ctx.local_epochs {
        for batch in epoch_batches(data.len(), ctx.batch_size, rng) {
            let (x, target) = data.batch(&batch);
            let l = net.forward_backward(&x, &target, loss);
            adjust(net, ctx.lr);
            opt.step(net);
            // running mean of batch losses
            mean_loss = (mean_loss * batch_idx as f32 + l) / (batch_idx + 1) as f32;
            batch_idx += 1;
        }
    }
    mean_loss
}

/// Evaluates the mean loss of the current weights on the full client dataset
/// without updating anything (the paper's `L_init`).
///
/// The forward is [`Network::eval_loss`], i.e. `net`'s inference plan.
/// [`crate::FlSimulation`] hands trainers a fused replica, so in the FL loop
/// this is the loss of the plan `hs_serve` answers with; training the same
/// replica afterwards is unaffected (fusion trains bit for bit as the
/// unfused network does).
pub fn initial_loss(net: &mut Network, data: &Dataset, loss: &dyn Loss) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let (x, target) = data.full_batch();
    net.eval_loss(&x, &target, loss)
}

/// Standard FedAvg local training (McMahan et al., 2017): plain SGD on the
/// local objective.
pub struct FedAvgTrainer {
    loss: LossKind,
}

impl FedAvgTrainer {
    /// Creates a FedAvg trainer using the given loss.
    pub fn new(loss: LossKind) -> Self {
        FedAvgTrainer { loss }
    }
}

impl ClientTrainer for FedAvgTrainer {
    fn client_update(
        &self,
        net: &mut Network,
        data: &Dataset,
        ctx: &ClientContext<'_>,
        rng: &mut StdRng,
    ) -> ClientUpdate {
        let loss = self.loss.build();
        let init_loss = initial_loss(net, data, loss.as_ref());
        let train_loss = sgd_local_update(net, data, loss.as_ref(), ctx, rng, |_, _| {});
        ClientUpdate {
            client_id: ctx.client_id,
            weights: net.weights(),
            train_loss,
            init_loss,
            num_samples: data.len(),
        }
    }

    fn name(&self) -> &'static str {
        "FedAvg"
    }
}

/// FedProx (Li et al., 2020): FedAvg plus a proximal term
/// `μ/2 · ‖w − w_global‖²` added to the local objective, implemented as the
/// extra gradient `μ (w − w_global)` at every step.
pub struct FedProxTrainer {
    loss: LossKind,
    /// Proximal coefficient μ.
    pub mu: f32,
}

impl FedProxTrainer {
    /// Creates a FedProx trainer with proximal coefficient `mu`.
    pub fn new(loss: LossKind, mu: f32) -> Self {
        FedProxTrainer { loss, mu }
    }
}

impl ClientTrainer for FedProxTrainer {
    fn client_update(
        &self,
        net: &mut Network,
        data: &Dataset,
        ctx: &ClientContext<'_>,
        rng: &mut StdRng,
    ) -> ClientUpdate {
        let loss = self.loss.build();
        let init_loss = initial_loss(net, data, loss.as_ref());
        let global = ctx.global_weights;
        let mu = self.mu;
        let train_loss = sgd_local_update(net, data, loss.as_ref(), ctx, rng, |net, _lr| {
            // add μ (w − w_global) to every parameter gradient; the offset
            // walks the same parameter order as Network::weights()
            let mut offset = 0usize;
            net.for_each_param(|p| {
                let n = p.value.len();
                let w = p.value.as_slice();
                let g = p.grad.as_mut_slice();
                for i in 0..n {
                    g[i] += mu * (w[i] - global[offset + i]);
                }
                offset += n;
            });
        });
        ClientUpdate {
            client_id: ctx.client_id,
            weights: net.weights(),
            train_loss,
            init_loss,
            num_samples: data.len(),
        }
    }

    fn name(&self) -> &'static str {
        "FedProx"
    }
}

/// Scaffold (Karimireddy et al., 2020): stochastic controlled averaging with
/// client and server control variates correcting client drift.
///
/// Control variates live inside the trainer (per-client map plus the server
/// variate) guarded by mutexes, so the same trainer instance must be used for
/// the whole simulation.
///
/// A run replays at any thread count: every client of a round reads the
/// same committed server variate, and what the round's clients contribute
/// to it is buffered and applied — in ascending client id, whichever client
/// finished first — by the first client update of the next round.
pub struct ScaffoldTrainer {
    loss: LossKind,
    client_controls: Mutex<HashMap<usize, Vec<f32>>>,
    server_control: Mutex<ServerControl>,
    /// Total client population (for the server-control update weight).
    pub num_clients: usize,
}

/// The server control variate and the contributions waiting to enter it.
#[derive(Default)]
struct ServerControl {
    /// The committed variate `c` every client of `round` reads.
    c: Vec<f32>,
    /// The round `c` was committed for.
    round: usize,
    /// `(c_i⁺ − c_i) / N` of each client that trained in `round`, by client
    /// id: applied to `c` when the next round starts.
    pending: BTreeMap<usize, Vec<f32>>,
}

impl ScaffoldTrainer {
    /// Creates a Scaffold trainer for a population of `num_clients` clients.
    pub fn new(loss: LossKind, num_clients: usize) -> Self {
        ScaffoldTrainer {
            loss,
            client_controls: Mutex::new(HashMap::new()),
            server_control: Mutex::default(),
            num_clients: num_clients.max(1),
        }
    }
}

impl ClientTrainer for ScaffoldTrainer {
    fn client_update(
        &self,
        net: &mut Network,
        data: &Dataset,
        ctx: &ClientContext<'_>,
        rng: &mut StdRng,
    ) -> ClientUpdate {
        let loss = self.loss.build();
        let init_loss = initial_loss(net, data, loss.as_ref());
        let weight_len = ctx.global_weights.len();
        let server_c = {
            let mut sc = sync::lock(&self.server_control);
            if sc.c.len() != weight_len {
                sc.c = vec![0.0; weight_len];
                sc.pending.clear();
            }
            if sc.round != ctx.round {
                // the first client of a new round commits the last one's
                // contributions, in client-id order
                for delta in std::mem::take(&mut sc.pending).into_values() {
                    for (c, d) in sc.c.iter_mut().zip(delta) {
                        *c += d;
                    }
                }
                sc.round = ctx.round;
            }
            sc.c.clone()
        };
        let client_c = {
            let mut cc = sync::lock(&self.client_controls);
            cc.entry(ctx.client_id)
                .or_insert_with(|| vec![0.0; weight_len])
                .clone()
        };

        // count the local steps so the control-variate update is correct
        let mut steps = 0usize;
        let train_loss = sgd_local_update(net, data, loss.as_ref(), ctx, rng, |net, _lr| {
            steps += 1;
            // gradient correction: g ← g − c_i + c
            let mut offset = 0usize;
            net.for_each_param(|p| {
                let n = p.value.len();
                let g = p.grad.as_mut_slice();
                for i in 0..n {
                    g[i] += server_c[offset + i] - client_c[offset + i];
                }
                offset += n;
            });
        });

        // option-II control update:
        // c_i⁺ = c_i − c + (w_global − w_local) / (steps · η)
        let local = net.weights();
        let denom = (steps.max(1) as f32) * ctx.lr;
        let mut new_client_c = vec![0.0f32; weight_len];
        for i in 0..weight_len {
            new_client_c[i] =
                client_c[i] - server_c[i] + (ctx.global_weights[i] - local[i]) / denom;
        }
        // server control absorbs (c_i⁺ − c_i) / N, next round
        let delta = (0..weight_len)
            .map(|i| (new_client_c[i] - client_c[i]) / self.num_clients as f32)
            .collect();
        sync::lock(&self.server_control)
            .pending
            .insert(ctx.client_id, delta);
        sync::lock(&self.client_controls).insert(ctx.client_id, new_client_c);

        ClientUpdate {
            client_id: ctx.client_id,
            weights: local,
            train_loss,
            init_loss,
            num_samples: data.len(),
        }
    }

    fn name(&self) -> &'static str {
        "Scaffold"
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
            Box::new(Linear::new(4, 12, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(12, 3, &mut rng)),
        ]))
    }

    fn toy_data(seed: u64, n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Tensor> = (0..n)
            .map(|i| {
                let mut t = Tensor::rand_uniform(&[4], -0.2, 0.2, &mut rng);
                // class-dependent shift so the problem is learnable
                t.as_mut_slice()[i % 3] += 1.0;
                t
            })
            .collect();
        Dataset::new(x, Labels::Classes((0..n).map(|i| i % 3).collect()))
    }

    fn ctx<'a>(global: &'a [f32], client_id: usize) -> ClientContext<'a> {
        ClientContext {
            round: 0,
            loss_ema: f32::INFINITY,
            lr: 0.2,
            batch_size: 6,
            local_epochs: 2,
            global_weights: global,
            client_id,
        }
    }

    #[test]
    fn fedavg_reduces_local_loss() {
        let mut net = toy_net(0);
        let global = net.weights();
        let data = toy_data(1, 18);
        let trainer = FedAvgTrainer::new(LossKind::CrossEntropy);
        let update = trainer.client_update(
            &mut net,
            &data,
            &ctx(&global, 0),
            &mut StdRng::seed_from_u64(2),
        );
        assert_eq!(update.weights.len(), global.len());
        assert!(update.train_loss < update.init_loss);
        assert_eq!(update.num_samples, 18);
    }

    #[test]
    fn fedprox_keeps_weights_closer_to_global_than_fedavg() {
        let data = toy_data(3, 18);
        let run = |trainer: &dyn ClientTrainer| {
            let mut net = toy_net(0);
            let global = net.weights();
            let update = trainer.client_update(
                &mut net,
                &data,
                &ctx(&global, 0),
                &mut StdRng::seed_from_u64(4),
            );
            let drift: f32 = update
                .weights
                .iter()
                .zip(global.iter())
                .map(|(a, b)| (a - b).powi(2))
                .sum();
            drift.sqrt()
        };
        let drift_avg = run(&FedAvgTrainer::new(LossKind::CrossEntropy));
        let drift_prox = run(&FedProxTrainer::new(LossKind::CrossEntropy, 1.0));
        assert!(
            drift_prox < drift_avg,
            "prox drift {drift_prox} should be below fedavg drift {drift_avg}"
        );
    }

    #[test]
    fn scaffold_maintains_control_variates_per_client() {
        let data = toy_data(5, 12);
        // two clients train in round 0, in either order; one in round 1
        let run = |order: [usize; 2]| {
            let trainer = ScaffoldTrainer::new(LossKind::CrossEntropy, 4);
            let update = |client, round| {
                let mut net = toy_net(0);
                let global = net.weights();
                let ctx = ClientContext {
                    round,
                    ..ctx(&global, client)
                };
                let _ = trainer.client_update(&mut net, &data, &ctx, &mut StdRng::seed_from_u64(6));
            };
            for client in order {
                update(client, 0);
            }
            assert_eq!(sync::lock(&trainer.client_controls).len(), 2);
            {
                let sc = sync::lock(&trainer.server_control);
                assert!(
                    sc.c.iter().all(|&v| v == 0.0),
                    "round 0's clients all read the initial server control"
                );
                assert_eq!(sc.pending.len(), 2);
            }
            update(0, 1);
            let sc = sync::lock(&trainer.server_control);
            assert!(
                sc.c.iter().any(|&v| v != 0.0),
                "server control should move at the next round"
            );
            sc.c.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(
            run([0, 1]),
            run([1, 0]),
            "the committed variate must not depend on which client finished first"
        );
    }

    #[test]
    fn trainer_names_are_distinct() {
        let names = [
            FedAvgTrainer::new(LossKind::CrossEntropy).name(),
            FedProxTrainer::new(LossKind::CrossEntropy, 0.1).name(),
            ScaffoldTrainer::new(LossKind::CrossEntropy, 10).name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn loss_kinds_build_working_losses() {
        // smoke-test that each loss kind pairs with its target type
        let ce = LossKind::CrossEntropy.build();
        let logits = Tensor::zeros(&[2, 3]);
        let (l, _) = ce.forward(&logits, &hs_nn::Target::Classes(vec![0, 1]));
        assert!(l.is_finite());
        let mse = LossKind::Mse.build();
        let (l, _) = mse.forward(
            &Tensor::zeros(&[2, 1]),
            &hs_nn::Target::Values(Tensor::ones(&[2, 1])),
        );
        assert!((l - 1.0).abs() < 1e-6);
    }
}
