//! Fairness and domain-generalization statistics over per-group accuracies.

use serde::{Deserialize, Serialize};

/// Accuracy of the global model on one group (device type), as used by the
/// paper's fairness (variance) and DG (worst-case) metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, serde::ToJson)]
pub struct GroupAccuracy {
    /// Group name (device type).
    pub group: String,
    /// Accuracy (or averaged precision) in `[0, 1]` or percent, as long as
    /// callers are consistent.
    pub accuracy: f32,
}

impl GroupAccuracy {
    /// Convenience constructor.
    pub fn new(group: impl Into<String>, accuracy: f32) -> Self {
        GroupAccuracy {
            group: group.into(),
            accuracy,
        }
    }
}

/// Mean of a slice of values (0.0 for empty input).
pub fn mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f32>() / values.len() as f32
}

/// Population variance of a slice of values (0.0 for empty input).
///
/// The paper reports the variance of accuracy across device types as its
/// fairness metric (Table 4, Table 6); this is that quantity.
pub fn population_variance(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m).powi(2)).sum::<f32>() / values.len() as f32
}

/// Worst-case (minimum) value — the paper's domain-generalization metric
/// (Table 4). Returns 0.0 for empty input.
pub fn worst_case(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().copied().fold(f32::INFINITY, f32::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-6);
        assert!((population_variance(&v) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn variance_of_identical_values_is_zero() {
        assert_eq!(population_variance(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn worst_case_is_minimum() {
        assert_eq!(worst_case(&[0.6, 0.4, 0.8]), 0.4);
        assert_eq!(worst_case(&[]), 0.0);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(population_variance(&[]), 0.0);
    }

    #[test]
    fn group_accuracy_constructor() {
        let g = GroupAccuracy::new("Pixel5", 0.7);
        assert_eq!(g.group, "Pixel5");
        assert_eq!(g.accuracy, 0.7);
    }
}
