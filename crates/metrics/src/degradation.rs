//! The cross-device model-quality degradation matrix (paper Table 2).

use crate::fairness::mean;
use serde::{Deserialize, Serialize};

/// A train-device × test-device accuracy matrix and the derived degradation
/// statistics the paper reports.
///
/// Row `i` holds the accuracy of a model trained on device `i` evaluated on
/// each test device `j`. *Degradation* of cell `(i, j)` is defined relative
/// to the same row's diagonal (accuracy on the training device), matching the
/// paper's "model quality degradation ... compared to the training device
/// type".
///
/// Serialisation: prefer the inherent [`DegradationMatrix::to_json`], which
/// appends the derived `overall_mean_degradation` entry the experiment
/// outputs carry; the derived `ToJson` trait impl (what generic callers like
/// `serde::json::write_file(&matrix)` would reach) holds the plain fields
/// only.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, serde::ToJson)]
pub struct DegradationMatrix {
    devices: Vec<String>,
    accuracy: Vec<Vec<f32>>,
}

impl DegradationMatrix {
    /// Creates a matrix from device names and a square accuracy matrix whose
    /// rows are training devices and columns test devices.
    ///
    /// # Panics
    ///
    /// Panics if `accuracy` is not `devices.len() × devices.len()`.
    pub fn new(devices: Vec<String>, accuracy: Vec<Vec<f32>>) -> Self {
        assert_eq!(
            accuracy.len(),
            devices.len(),
            "row count must match devices"
        );
        for row in &accuracy {
            assert_eq!(row.len(), devices.len(), "column count must match devices");
        }
        DegradationMatrix { devices, accuracy }
    }

    /// Device names in matrix order.
    pub fn devices(&self) -> &[String] {
        &self.devices
    }

    /// Relative degradation (fraction, ≥ 0 when cross-device accuracy is
    /// lower) of cell `(train, test)` versus the row's own-device accuracy.
    pub fn degradation(&self, train: usize, test: usize) -> f32 {
        let own = self.accuracy[train][train].max(1e-6);
        (own - self.accuracy[train][test]) / own
    }

    /// Serialises the matrix (device names, raw accuracies, and the derived
    /// overall mean degradation) for the experiment binaries' `--json-out`.
    ///
    /// The field serialisation comes from `#[derive(serde::ToJson)]`; only
    /// the computed `overall_mean_degradation` entry — which no derive can
    /// produce — is appended here. The combined shape is pinned against the
    /// previously hand-written impl by `json_shape_is_stable`.
    pub fn to_json(&self) -> serde::json::JsonValue {
        use serde::json::{JsonValue, ToJson};
        let mut value = <Self as ToJson>::to_json(self);
        if let JsonValue::Obj(pairs) = &mut value {
            pairs.push((
                "overall_mean_degradation".to_string(),
                self.overall_mean_degradation().to_json(),
            ));
        }
        value
    }

    /// The paper's per-row "Mean Others": average degradation over every test
    /// device except the training device itself.
    pub fn mean_others_for_train(&self, train: usize) -> f32 {
        let vals: Vec<f32> = (0..self.devices.len())
            .filter(|&j| j != train)
            .map(|j| self.degradation(train, j))
            .collect();
        mean(&vals)
    }

    /// The paper's per-column "Mean Others": average degradation suffered on
    /// test device `test` by models trained on every other device.
    pub fn mean_others_for_test(&self, test: usize) -> f32 {
        let vals: Vec<f32> = (0..self.devices.len())
            .filter(|&i| i != test)
            .map(|i| self.degradation(i, test))
            .collect();
        mean(&vals)
    }

    /// Grand mean of all off-diagonal degradations (the paper's overall
    /// 19.4% figure for its Table 2).
    pub fn overall_mean_degradation(&self) -> f32 {
        let mut vals = Vec::new();
        for i in 0..self.devices.len() {
            for j in 0..self.devices.len() {
                if i != j {
                    vals.push(self.degradation(i, j));
                }
            }
        }
        mean(&vals)
    }

    /// Renders the matrix as a text table shaped like the paper's Table 2
    /// (degradation percentages with a trailing Mean Others column).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str("Train\\Test");
        for d in &self.devices {
            out.push_str(&format!("\t{d}"));
        }
        out.push_str("\tMeanOthers\n");
        for (i, d) in self.devices.iter().enumerate() {
            out.push_str(d);
            for j in 0..self.devices.len() {
                if i == j {
                    out.push_str("\t-");
                } else {
                    out.push_str(&format!("\t{:.1}%", self.degradation(i, j) * 100.0));
                }
            }
            out.push_str(&format!(
                "\t{:.1}%\n",
                self.mean_others_for_train(i) * 100.0
            ));
        }
        out.push_str("MeanOthers");
        for j in 0..self.devices.len() {
            out.push_str(&format!("\t{:.1}%", self.mean_others_for_test(j) * 100.0));
        }
        out.push_str(&format!(
            "\t{:.1}%\n",
            self.overall_mean_degradation() * 100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DegradationMatrix {
        DegradationMatrix::new(
            vec!["A".into(), "B".into(), "C".into()],
            vec![
                vec![0.8, 0.6, 0.4],
                vec![0.5, 1.0, 0.75],
                vec![0.45, 0.45, 0.9],
            ],
        )
    }

    #[test]
    fn diagonal_has_zero_degradation() {
        let m = sample();
        for i in 0..3 {
            assert_eq!(m.degradation(i, i), 0.0);
        }
    }

    #[test]
    fn degradation_is_relative_to_own_accuracy() {
        let m = sample();
        assert!((m.degradation(0, 1) - 0.25).abs() < 1e-6);
        assert!((m.degradation(0, 2) - 0.5).abs() < 1e-6);
        assert!((m.degradation(1, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn mean_others_rows_and_columns() {
        let m = sample();
        assert!((m.mean_others_for_train(0) - 0.375).abs() < 1e-6);
        // column B: degradation of A-model on B (0.25) and C-model on B (0.5)
        assert!((m.mean_others_for_test(1) - 0.375).abs() < 1e-6);
    }

    #[test]
    fn overall_mean_is_mean_of_off_diagonals() {
        let m = sample();
        let expected = (0.25 + 0.5 + 0.5 + 0.25 + 0.5 + 0.5) / 6.0;
        assert!((m.overall_mean_degradation() - expected).abs() < 1e-6);
    }

    #[test]
    fn table_mentions_every_device() {
        let table = sample().to_table();
        for d in ["A", "B", "C", "MeanOthers"] {
            assert!(table.contains(d));
        }
    }

    #[test]
    #[should_panic(expected = "row count")]
    fn rejects_non_square_input() {
        DegradationMatrix::new(vec!["A".into()], vec![vec![0.5], vec![0.5]]);
    }

    #[test]
    fn json_shape_is_stable() {
        // pins that derive(ToJson) + the appended derived statistic matches
        // the previously hand-written impl byte for byte
        // values chosen exactly representable in f32 so the f32→f64
        // widening in the number rendering stays byte-stable
        let m = DegradationMatrix::new(
            vec!["A".into(), "B".into()],
            vec![vec![0.5, 0.25], vec![0.25, 1.0]],
        );
        let expect = format!(
            r#"{{"devices":["A","B"],"accuracy":[[0.5,0.25],[0.25,1]],"overall_mean_degradation":{}}}"#,
            serde::json::to_string(&m.overall_mean_degradation())
        );
        assert_eq!(m.to_json().render(), expect);
        // the derived impl alone carries exactly the plain fields
        assert_eq!(
            serde::json::to_string(&m),
            r#"{"devices":["A","B"],"accuracy":[[0.5,0.25],[0.25,1]]}"#
        );
    }
}
