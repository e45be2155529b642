//! Evaluation helpers for trained (global) models.
//!
//! Whole evaluation batches are sharded across the shared [`hs_parallel`]
//! pool against one `&Network` ([`Network::infer_with`], one
//! [`Workspace`] per claiming loop), so per-device evaluation in the FL
//! simulator scales with cores without cloning model weights: every (test
//! set, batch) pair of a sweep is one item of a single work-conserving
//! fan-out ([`hs_parallel::for_each_claimed`]).

use hs_data::{Dataset, Labels};
use hs_metrics::{accuracy, average_precision, GroupAccuracy};
use hs_nn::{Network, Workspace};
use hs_parallel::sync;
use std::sync::Mutex;

/// Maximum evaluation batch size: the granule one claiming loop takes at a
/// time. Peak memory is bounded below it: `Network::infer_with` runs a
/// convolutional batch in sample tiles of 8 192 input pixels.
const EVAL_BATCH: usize = 32;

/// Runs `consume(set, start, logits)` for every `EVAL_BATCH`-sized batch of
/// every dataset in `sets`, all (set, batch) pairs fanned out together over
/// at most `num_threads()` claiming loops — so a sweep over many small test
/// sets is as parallel as one over a single large set, and
/// `hs_parallel::set_num_threads` stays an effective knob for the
/// eval-scaling bench. `consume` writes into disjoint per-batch regions via
/// interior indexing, so it must be callable concurrently.
fn for_each_batch_logits<F>(net: &Network, sets: &[&Dataset], consume: F)
where
    F: Fn(usize, usize, &hs_tensor::Tensor) + Sync,
{
    let batches: Vec<(usize, usize)> = sets
        .iter()
        .enumerate()
        .flat_map(|(set, data)| {
            (0..data.len())
                .step_by(EVAL_BATCH)
                .map(move |start| (set, start))
        })
        .collect();
    hs_parallel::for_each_claimed(
        batches.len(),
        hs_parallel::num_threads(),
        Workspace::new,
        |ws, claimed| {
            let (set, start) = batches[claimed];
            let data = sets[set];
            let end = (start + EVAL_BATCH).min(data.len());
            let indices: Vec<usize> = (start..end).collect();
            let (x, _) = data.batch(&indices);
            let logits = net.infer_with(&x, ws);
            consume(set, start, &logits);
            ws.give(logits);
        },
    );
}

/// The class labels of `data`.
///
/// # Panics
///
/// Panics if the dataset does not carry class labels.
fn class_labels(data: &Dataset) -> &[usize] {
    match &data.labels {
        Labels::Classes(l) => l,
        _ => panic!("evaluate_accuracy requires class labels"),
    }
}

/// Predicted classes for every sample of every dataset in `sets`, one sweep
/// over all of them.
fn predict_classes(net: &Network, sets: &[&Dataset]) -> Vec<Vec<usize>> {
    let predictions: Vec<Mutex<Vec<usize>>> = sets
        .iter()
        .map(|data| Mutex::new(vec![0usize; data.len()]))
        .collect();
    for_each_batch_logits(net, sets, |set, start, logits| {
        let preds = logits.argmax_rows();
        sync::lock(&predictions[set])[start..start + preds.len()].copy_from_slice(&preds);
    });
    predictions.into_iter().map(sync::into_inner).collect()
}

/// Classification accuracy of `net` on a dataset with class labels.
///
/// # Panics
///
/// Panics if the dataset does not carry class labels.
pub fn evaluate_accuracy(net: &Network, data: &Dataset) -> f32 {
    let labels = class_labels(data);
    accuracy(&predict_classes(net, &[data])[0], labels)
}

/// Mean averaged precision of `net` on a multi-label dataset (the paper's
/// FLAIR metric).
///
/// # Panics
///
/// Panics if the dataset does not carry multi-hot labels.
pub fn evaluate_average_precision(net: &Network, data: &Dataset) -> f32 {
    let Labels::MultiHot(hot) = &data.labels else {
        panic!("evaluate_average_precision requires multi-hot labels");
    };
    if data.is_empty() {
        return 0.0;
    }
    let aps = Mutex::new(vec![0.0f32; data.len()]);
    for_each_batch_logits(net, &[data], |_, start, logits| {
        let (n, l) = (logits.dims()[0], logits.dims()[1]);
        let local: Vec<f32> = (0..n)
            .map(|i| {
                let scores: Vec<f32> = (0..l).map(|j| logits.at(&[i, j])).collect();
                let relevant: Vec<bool> = hot[start + i].iter().map(|&v| v > 0.5).collect();
                average_precision(&scores, &relevant)
            })
            .collect();
        sync::lock(&aps)[start..start + n].copy_from_slice(&local);
    });
    let aps = sync::into_inner(aps);
    aps.iter().sum::<f32>() / aps.len() as f32
}

/// Heart-rate predictions and ground truth (both in bpm) of `net` on a
/// regression dataset whose labels were normalised by `1 / denormalize`.
///
/// # Panics
///
/// Panics if the dataset does not carry value labels.
pub fn evaluate_heart_rate(
    net: &Network,
    data: &Dataset,
    denormalize: f32,
) -> (Vec<f32>, Vec<f32>) {
    let Labels::Values(values) = &data.labels else {
        panic!("evaluate_heart_rate requires value labels");
    };
    let actual: Vec<f32> = values.iter().map(|v| v * denormalize).collect();
    let preds = Mutex::new(vec![0.0f32; data.len()]);
    for_each_batch_logits(net, &[data], |_, start, out| {
        let n = out.dims()[0];
        let mut guard = sync::lock(&preds);
        for i in 0..n {
            guard[start + i] = out.at(&[i, 0]) * denormalize;
        }
    });
    (sync::into_inner(preds), actual)
}

/// Per-device-type accuracy of a single model over a list of named test
/// sets — the quantity behind the paper's fairness/DG tables. The batches of
/// all sets are evaluated in one sweep across the pool, so many small test
/// sets parallelise as well as one large one.
///
/// # Panics
///
/// Panics if a test set does not carry class labels.
pub fn per_device_accuracy(
    net: &Network,
    device_tests: &[(String, Dataset)],
) -> Vec<GroupAccuracy> {
    let sets: Vec<&Dataset> = device_tests.iter().map(|(_, test)| test).collect();
    let predictions = predict_classes(net, &sets);
    device_tests
        .iter()
        .zip(&predictions)
        .map(|((device, test), preds)| {
            GroupAccuracy::new(device.clone(), accuracy(preds, class_labels(test)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_nn::{Linear, Sequential};
    use hs_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn identity_like_net(features: usize, classes: usize) -> Network {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Network::new(Sequential::new(vec![Box::new(Linear::new(
            features, classes, &mut rng,
        ))]));
        // make logits equal to the input features so predictions are readable
        let weights_len = net.num_weights();
        let mut w = vec![0.0f32; weights_len];
        for c in 0..classes {
            w[c * features + c] = 1.0;
        }
        net.set_weights(&w);
        net
    }

    #[test]
    fn accuracy_of_a_perfect_model_is_one() {
        let net = identity_like_net(3, 3);
        let x: Vec<Tensor> = (0..3)
            .map(|i| {
                let mut t = Tensor::zeros(&[3]);
                t.as_mut_slice()[i] = 1.0;
                t
            })
            .collect();
        let data = Dataset::new(x, Labels::Classes(vec![0, 1, 2]));
        assert_eq!(evaluate_accuracy(&net, &data), 1.0);
    }

    #[test]
    fn sharded_accuracy_matches_serial_on_many_batches() {
        // enough samples for several EVAL_BATCH shards
        let mut net = identity_like_net(4, 4);
        let n = 3 * EVAL_BATCH + 7;
        let mut x = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let mut t = Tensor::zeros(&[4]);
            t.as_mut_slice()[i % 4] = 1.0;
            x.push(t);
            // make roughly a third of the labels wrong so accuracy is not 1.0
            labels.push(if i % 3 == 0 { (i + 1) % 4 } else { i % 4 });
        }
        let data = Dataset::new(x, Labels::Classes(labels.clone()));
        let sharded = evaluate_accuracy(&net, &data);

        // serial reference through the network's own workspace
        let mut serial_preds = Vec::new();
        let mut start = 0;
        while start < data.len() {
            let end = (start + EVAL_BATCH).min(data.len());
            let indices: Vec<usize> = (start..end).collect();
            let (bx, _) = data.batch(&indices);
            serial_preds.extend(net.predict_classes(&bx));
            start = end;
        }
        assert_eq!(sharded, accuracy(&serial_preds, &labels));
    }

    #[test]
    fn average_precision_of_a_perfect_scorer_is_one() {
        let net = identity_like_net(4, 4);
        let x = vec![
            Tensor::from_vec(vec![5.0, 0.0, 5.0, 0.0], &[4]),
            Tensor::from_vec(vec![0.0, 5.0, 0.0, 0.0], &[4]),
        ];
        let labels = Labels::MultiHot(vec![vec![1.0, 0.0, 1.0, 0.0], vec![0.0, 1.0, 0.0, 0.0]]);
        let data = Dataset::new(x, labels);
        let ap = evaluate_average_precision(&net, &data);
        assert!((ap - 1.0).abs() < 1e-6);
    }

    #[test]
    fn heart_rate_evaluation_denormalises() {
        let net = identity_like_net(1, 1);
        let data = Dataset::new(
            vec![
                Tensor::from_vec(vec![0.4], &[1]),
                Tensor::from_vec(vec![0.3], &[1]),
            ],
            Labels::Values(vec![0.4, 0.3]),
        );
        let (preds, actual) = evaluate_heart_rate(&net, &data, 200.0);
        assert!((actual[0] - 80.0).abs() < 1e-3 && (actual[1] - 60.0).abs() < 1e-3);
        assert!((preds[0] - 80.0).abs() < 1e-3);
    }

    #[test]
    fn per_device_accuracy_labels_groups() {
        let net = identity_like_net(2, 2);
        let make = |label: usize| {
            let mut t = Tensor::zeros(&[2]);
            t.as_mut_slice()[label] = 1.0;
            Dataset::new(vec![t], Labels::Classes(vec![label]))
        };
        let tests = vec![("A".to_string(), make(0)), ("B".to_string(), make(1))];
        let groups = per_device_accuracy(&net, &tests);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].group, "A");
        assert_eq!(groups[0].accuracy, 1.0);
    }

    #[test]
    fn one_sweep_over_many_sets_equals_set_by_set_evaluation() {
        // ragged sets (several batches, a partial batch, one sample, none):
        // the pooled (set, batch) fan-out must score each exactly as a
        // set-by-set evaluation does
        let set = |n: usize, salt: usize| {
            let x: Vec<Tensor> = (0..n)
                .map(|i| {
                    let mut t = Tensor::zeros(&[4]);
                    t.as_mut_slice()[(i + salt) % 4] = 1.0;
                    t
                })
                .collect();
            let labels = (0..n)
                .map(|i| if i % 3 == 0 { i % 4 } else { (i + salt) % 4 })
                .collect();
            Dataset::new(x, Labels::Classes(labels))
        };
        let tests: Vec<(String, Dataset)> = [2 * EVAL_BATCH + 5, 4, 0, EVAL_BATCH, 1]
            .iter()
            .enumerate()
            .map(|(i, &n)| (format!("dev-{i}"), set(n, i)))
            .collect();
        let net = identity_like_net(4, 4);
        let groups = per_device_accuracy(&net, &tests);
        assert_eq!(groups.len(), tests.len());
        for (group, (device, data)) in groups.iter().zip(&tests) {
            assert_eq!(&group.group, device);
            assert_eq!(
                group.accuracy.to_bits(),
                evaluate_accuracy(&net, data).to_bits(),
                "{device}"
            );
        }
        assert_eq!(groups[2].accuracy, 0.0, "an empty set scores zero");
    }
}
