//! Calibration of analog compute units.
//!
//! The paper's §4 names "new algorithms to mitigate photonic noise during
//! computation and achieve high accuracy" as a required system component.
//! The first such algorithm is plain gain/offset calibration: analog
//! results come off the photodetector scaled by every insertion loss in
//! the chain and offset by dark current; measuring those two constants
//! with known test vectors removes the systematic error, leaving only the
//! stochastic noise floor. Experiment E10 ablates calibration to show the
//! accuracy collapse.

/// Gain/offset calibration of a P1 dot-product chain: the measured
/// photocurrent for a unit product, and the dark (zero-input) current.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DotCalibration {
    /// Photocurrent per unit product per symbol, A.
    pub unit_current_a: f64,
    /// Dark photocurrent per symbol, A.
    pub dark_current_a: f64,
}

impl DotCalibration {
    /// Map a summed photocurrent over `n` symbols back to `Σ aᵢbᵢ`.
    pub fn apply(&self, summed_current_a: f64, n: usize) -> f64 {
        (summed_current_a - n as f64 * self.dark_current_a) / self.unit_current_a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_inverts_gain_and_offset() {
        let cal = DotCalibration {
            unit_current_a: 2e-3,
            dark_current_a: 1e-6,
        };
        // 10 symbols, true sum 3.5: current = 3.5*2e-3 + 10*1e-6.
        let current = 3.5 * 2e-3 + 10.0 * 1e-6;
        let got = cal.apply(current, 10);
        assert!((got - 3.5).abs() < 1e-12);
    }
}
