//! The execution-time model: a sparse linear map from mined features to
//! cycles (§3.4).

use predvfs_rtl::FeatureSchema;

/// A fitted sparse linear execution-time model.
///
/// Prediction is a dot product over *raw* feature values — exactly the
/// multiply-accumulate chain the paper's hardware evaluates after the
/// slice finishes. Only the `selected` coefficients are non-zero; the
/// slice is generated from that support set.
#[derive(Debug, Clone)]
pub struct ExecTimeModel {
    schema: FeatureSchema,
    coeffs: Vec<f64>,
    selected: Vec<usize>,
    converged: bool,
}

impl ExecTimeModel {
    /// Assembles a model from full-width raw-space coefficients. The model
    /// counts as converged until [`crate::train::fit`] says otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` width mismatches the schema.
    pub fn new(schema: FeatureSchema, coeffs: Vec<f64>) -> ExecTimeModel {
        assert_eq!(coeffs.len(), schema.len(), "coefficient width mismatch");
        let selected = coeffs
            .iter()
            .enumerate()
            .filter(|(_, c)| c.abs() > 1e-12)
            .map(|(i, _)| i)
            .collect();
        ExecTimeModel {
            schema,
            coeffs,
            selected,
            converged: true,
        }
    }

    /// Records whether the solves that produced this model converged.
    pub(crate) fn with_converged(mut self, converged: bool) -> ExecTimeModel {
        self.converged = converged;
        self
    }

    /// Whether every solve behind this model met its tolerance before the
    /// iteration cap. An unconverged model still predicts, from the
    /// solver's last iterate.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Predicted execution cycles for a feature vector.
    ///
    /// # Panics
    ///
    /// Panics if the feature vector width mismatches the schema.
    pub fn predict_cycles(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.coeffs.len(), "feature width mismatch");
        let mut acc = 0.0;
        for &i in &self.selected {
            acc += self.coeffs[i] * features[i];
        }
        acc.max(0.0)
    }

    /// The feature schema this model was trained on.
    pub fn schema(&self) -> &FeatureSchema {
        &self.schema
    }

    /// Indices of features with non-zero coefficients.
    pub fn selected(&self) -> &[usize] {
        &self.selected
    }

    /// Selected feature indices excluding the bias (the slicing criteria).
    pub fn selected_nonbias(&self) -> Vec<usize> {
        let bias = self.schema.bias_index();
        self.selected
            .iter()
            .copied()
            .filter(|i| Some(*i) != bias)
            .collect()
    }

    /// The full coefficient vector (zeros included).
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Human-readable `(name, coefficient)` pairs for the support.
    pub fn support_summary(&self) -> Vec<(String, f64)> {
        self.selected
            .iter()
            .map(|&i| (self.schema.descs()[i].name.clone(), self.coeffs[i]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predvfs_rtl::builder::{ModuleBuilder, E};
    use predvfs_rtl::Analysis;

    fn schema() -> FeatureSchema {
        let mut b = ModuleBuilder::new("t");
        let d = b.input("d", 8);
        let fsm = b.fsm("f", &["A", "W", "B"]);
        b.timed(&fsm, "A", "W", "B", d, E::one(), "c");
        b.done_when(fsm.in_state("B"));
        let m = b.build().unwrap();
        FeatureSchema::from_analysis(&m, &Analysis::run(&m))
    }

    #[test]
    fn predicts_dot_product_over_support() {
        let s = schema();
        let n = s.len();
        let mut coeffs = vec![0.0; n];
        coeffs[0] = 100.0; // bias
        coeffs[n - 2] = 2.0; // aiv
        let m = ExecTimeModel::new(s, coeffs);
        assert_eq!(m.selected().len(), 2);
        let mut x = vec![0.0; n];
        x[0] = 1.0;
        x[n - 2] = 30.0;
        assert_eq!(m.predict_cycles(&x), 160.0);
    }

    #[test]
    fn negative_predictions_clamp_to_zero() {
        let s = schema();
        let n = s.len();
        let mut coeffs = vec![0.0; n];
        coeffs[0] = -5.0;
        let m = ExecTimeModel::new(s, coeffs);
        let mut x = vec![0.0; n];
        x[0] = 1.0;
        assert_eq!(m.predict_cycles(&x), 0.0);
    }

    #[test]
    fn nonbias_support_excludes_intercept() {
        let s = schema();
        let n = s.len();
        let mut coeffs = vec![0.0; n];
        coeffs[0] = 1.0;
        coeffs[2] = 3.0;
        let m = ExecTimeModel::new(s, coeffs);
        assert_eq!(m.selected_nonbias(), vec![2]);
        assert_eq!(m.support_summary().len(), 2);
    }
}
