//! Weight quantisation through the AWC → microring chain.
//!
//! A signed weight `w ∈ [−1, 1]` reaches a ring as follows (paper Fig. 2,
//! step ①):
//!
//! 1. its magnitude is quantised to an n-bit code (`n ≤ 4`),
//! 2. the AWC ladder converts the code to a tuning current — with the
//!    ladder's mismatch and compression errors,
//! 3. the ring is calibrated so *ideal* currents land on evenly spaced
//!    transmissions; the *actual* current therefore produces a slightly
//!    wrong transmission, and
//! 4. the sign selects the positive or negative waveguide of the arm.
//!
//! [`WeightMapper::quantize`] collapses the chain into the *effective
//! weight* the optical MAC will apply — the quantity both the OPC
//! simulation and the neural-network quantiser (for Table II) must share,
//! so they live here once.

use oisa_device::awc::{AwcLadder, AwcParams};
use serde::{Deserialize, Serialize};

use crate::{OpticsError, Result};

/// A quantised, sign-split weight ready for mapping onto an arm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MappedWeight {
    /// Digital code the kernel bank stores.
    pub code: u16,
    /// Effective magnitude the ring will transmit (ideally
    /// `code / (2^bits − 1)`, distorted by the AWC).
    pub magnitude: f64,
    /// `true` → negative waveguide.
    pub negative: bool,
}

impl MappedWeight {
    /// The signed effective weight.
    #[must_use]
    pub fn value(&self) -> f64 {
        if self.negative {
            -self.magnitude
        } else {
            self.magnitude
        }
    }
}

/// Quantises weights through a concrete AWC instance.
///
/// # Examples
///
/// ```
/// use oisa_optics::weights::WeightMapper;
///
/// # fn main() -> Result<(), oisa_optics::OpticsError> {
/// let mapper = WeightMapper::ideal(2)?; // 2-bit: levels 0, ⅓, ⅔, 1
/// let w = mapper.quantize(0.30)?;
/// assert_eq!(w.code, 1);
/// assert!((w.value() - 1.0 / 3.0).abs() < 1e-9);
/// let neg = mapper.quantize(-0.9)?;
/// assert!(neg.negative);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightMapper {
    ladder: AwcLadder,
    bits: u8,
    /// Precomputed effective magnitudes per code.
    effective: Vec<f64>,
}

impl WeightMapper {
    /// A mapper backed by an ideal (DAC-like) ladder at `bits` resolution.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::InvalidParameter`] for unsupported bit
    /// widths.
    pub fn ideal(bits: u8) -> Result<Self> {
        let ladder = AwcLadder::ideal(AwcParams::ideal(bits))?;
        Self::from_ladder(ladder)
    }

    /// A mapper backed by the paper's mismatch model at `bits` resolution
    /// (nominal legs, systematic compression active).
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::InvalidParameter`] for unsupported bit
    /// widths.
    pub fn paper(bits: u8) -> Result<Self> {
        let params = AwcParams {
            bits,
            ..AwcParams::paper_default()
        };
        let ladder = AwcLadder::ideal(params)?;
        Self::from_ladder(ladder)
    }

    /// Wraps a fabricated ladder instance.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::Device`] when a ladder level cannot be
    /// evaluated.
    pub fn from_ladder(ladder: AwcLadder) -> Result<Self> {
        let bits = ladder.params().bits;
        let full_scale =
            ladder.params().lsb_current.get() * f64::from(ladder.params().level_count() - 1);
        let effective = ladder
            .levels()
            .iter()
            .map(|i| i.get() / full_scale)
            .collect();
        Ok(Self {
            ladder,
            bits,
            effective,
        })
    }

    /// Bit resolution.
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The backing ladder.
    #[must_use]
    pub fn ladder(&self) -> &AwcLadder {
        &self.ladder
    }

    /// Effective magnitude of each code, in code order.
    #[must_use]
    pub fn levels(&self) -> &[f64] {
        &self.effective
    }

    /// Quantises a signed weight.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::InvalidParameter`] when `|w| > 1` or `w` is
    /// not finite.
    pub fn quantize(&self, w: f64) -> Result<MappedWeight> {
        if !w.is_finite() || w.abs() > 1.0 + 1e-12 {
            return Err(OpticsError::InvalidParameter(format!(
                "weight {w} outside [-1, 1]"
            )));
        }
        let levels = f64::from((1u16 << self.bits) - 1);
        let code = round_half_up(w.abs().min(1.0) * levels);
        Ok(MappedWeight {
            code,
            magnitude: self.effective[code as usize],
            negative: w < 0.0,
        })
    }

    /// Quantises a whole kernel, preserving order.
    ///
    /// # Errors
    ///
    /// Propagates the first per-element failure.
    pub fn quantize_all(&self, weights: &[f64]) -> Result<Vec<MappedWeight>> {
        weights.iter().map(|&w| self.quantize(w)).collect()
    }

    /// Worst-case absolute quantisation error over a dense sweep of
    /// `[−1, 1]` — a diagnostic the design-space example uses.
    #[must_use]
    pub fn worst_case_error(&self) -> f64 {
        let mut worst = 0.0f64;
        let steps = 2001;
        for k in 0..steps {
            let w = -1.0 + 2.0 * k as f64 / (steps - 1) as f64;
            if let Ok(m) = self.quantize(w) {
                worst = worst.max((m.value() - w).abs());
            }
        }
        worst
    }
}

/// Rounds `x ∈ [0, 2^bits − 1]` to the nearest code, halves up —
/// exactly what `x.round() as u16` gives on that range, without the
/// libm call: `x − trunc(x)` is exact for any finite `x`, so comparing
/// the fraction with `0.5` decides the tie the way `round` does.
#[inline]
fn round_half_up(x: f64) -> u16 {
    let t = x as u16;
    t + u16::from(x - f64::from(t) >= 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oisa_device::awc::AwcModel;
    use proptest::prelude::*;

    #[test]
    fn ideal_levels_evenly_spaced() {
        let m = WeightMapper::ideal(4).unwrap();
        let levels = m.levels();
        assert_eq!(levels.len(), 16);
        for (c, l) in levels.iter().enumerate() {
            assert!((l - c as f64 / 15.0).abs() < 1e-12);
        }
    }

    #[test]
    fn quantize_rounds_to_nearest() {
        let m = WeightMapper::ideal(2).unwrap();
        // Levels 0, 1/3, 2/3, 1.
        assert_eq!(m.quantize(0.16).unwrap().code, 0);
        assert_eq!(m.quantize(0.17).unwrap().code, 1);
        assert_eq!(m.quantize(0.5).unwrap().code, 2); // 0.5·3 = 1.5 → 2
        assert_eq!(m.quantize(1.0).unwrap().code, 3);
    }

    #[test]
    fn sign_split() {
        let m = WeightMapper::ideal(3).unwrap();
        let pos = m.quantize(0.7).unwrap();
        let neg = m.quantize(-0.7).unwrap();
        assert!(!pos.negative);
        assert!(neg.negative);
        assert_eq!(pos.code, neg.code);
        assert!((pos.value() + neg.value()).abs() < 1e-12);
    }

    #[test]
    fn rejects_out_of_range() {
        let m = WeightMapper::ideal(4).unwrap();
        assert!(m.quantize(1.5).is_err());
        assert!(m.quantize(f64::NAN).is_err());
        assert!(m.quantize(f64::INFINITY).is_err());
    }

    #[test]
    fn paper_mapper_compresses_high_codes() {
        let ideal = WeightMapper::ideal(4).unwrap();
        let paper = WeightMapper::paper(4).unwrap();
        let wi = ideal.quantize(1.0).unwrap().magnitude;
        let wp = paper.quantize(1.0).unwrap().magnitude;
        assert!(wp < wi, "compressed full-scale {wp} < ideal {wi}");
        // Low codes nearly untouched.
        let li = ideal.quantize(0.1).unwrap().magnitude;
        let lp = paper.quantize(0.1).unwrap().magnitude;
        assert!((li - lp).abs() < 0.01);
    }

    #[test]
    fn fourth_bit_buys_little_under_mismatch() {
        // The mechanism behind Table II's [4:2] ≤ [3:2]: with an ideal
        // converter the 4th bit roughly halves the worst-case error, but
        // under AWC compression it buys almost nothing — the extra levels
        // sit where the ladder cannot separate them.
        let e3 = WeightMapper::paper(3).unwrap().worst_case_error();
        let e4 = WeightMapper::paper(4).unwrap().worst_case_error();
        let i3 = WeightMapper::ideal(3).unwrap().worst_case_error();
        let i4 = WeightMapper::ideal(4).unwrap().worst_case_error();
        let ideal_gain = (i3 - i4) / i3; // ≈ 53%
        let paper_gain = (e3 - e4) / e3; // ≈ 11%
        assert!(i4 < i3, "ideal 4-bit must improve on ideal 3-bit");
        assert!(
            paper_gain < 0.5 * ideal_gain,
            "mismatch should erase most of the 4th bit's benefit: \
             paper gain {paper_gain:.3} vs ideal gain {ideal_gain:.3}"
        );
    }

    #[test]
    fn quantize_all_preserves_order() {
        let m = WeightMapper::ideal(4).unwrap();
        let ws = [0.1, -0.5, 0.9];
        let mapped = m.quantize_all(&ws).unwrap();
        assert_eq!(mapped.len(), 3);
        for (w, q) in ws.iter().zip(&mapped) {
            assert!((q.value() - w).abs() < 0.05);
        }
    }

    #[test]
    fn one_bit_mapper_is_binary() {
        let m = WeightMapper::ideal(1).unwrap();
        assert_eq!(m.levels(), &[0.0, 1.0]);
        assert_eq!(m.quantize(0.4).unwrap().code, 0);
        assert_eq!(m.quantize(0.6).unwrap().code, 1);
    }

    #[test]
    fn fabricated_mapper_close_to_nominal() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let ladder = AwcLadder::fabricate(
            AwcParams {
                bits: 4,
                model: AwcModel::paper_mismatch(),
                ..AwcParams::paper_default()
            },
            &mut rng,
        )
        .unwrap();
        let fab = WeightMapper::from_ladder(ladder).unwrap();
        let nom = WeightMapper::paper(4).unwrap();
        for code in 0..16usize {
            assert!((fab.levels()[code] - nom.levels()[code]).abs() < 0.1);
        }
    }

    /// The libm formula `quantize` used before the exact
    /// truncate-and-compare: the reference its codes must reproduce.
    fn libm_code(w: f64, bits: u8) -> u16 {
        (w.abs().min(1.0) * f64::from((1u16 << bits) - 1)).round() as u16
    }

    #[test]
    fn half_steps_round_like_libm_round() {
        for bits in 1u8..=4 {
            let m = WeightMapper::ideal(bits).unwrap();
            let levels = f64::from((1u16 << bits) - 1);
            for k in 0..(1u16 << bits) {
                let half = (f64::from(k) + 0.5) / levels;
                let mut probes = vec![f64::from(k) / levels];
                for x in [half, half.next_up(), half.next_down()] {
                    probes.extend([x, -x]);
                }
                for w in probes.into_iter().filter(|w| w.abs() <= 1.0) {
                    assert_eq!(
                        m.quantize(w).unwrap().code,
                        libm_code(w, bits),
                        "bits {bits}, w {w:e}"
                    );
                }
            }
        }
        // Weights a hair past full scale (inside the 1e-12 tolerance)
        // clamp to the top code.
        let m = WeightMapper::ideal(4).unwrap();
        assert_eq!(m.quantize(1.0 + 1e-13).unwrap().code, 15);
        assert_eq!(m.quantize(-0.0).unwrap().code, 0);
        assert!(!m.quantize(-0.0).unwrap().negative);
    }

    proptest! {
        #[test]
        fn rounding_matches_libm_round(w in -1.0..=1.0f64, bits in 1u8..=4) {
            let m = WeightMapper::ideal(bits).unwrap();
            prop_assert_eq!(m.quantize(w).unwrap().code, libm_code(w, bits));
        }

        #[test]
        fn quantisation_error_bounded_for_ideal(w in -1.0..=1.0f64, bits in 1u8..=4) {
            let m = WeightMapper::ideal(bits).unwrap();
            let q = m.quantize(w).unwrap();
            let lsb = 1.0 / f64::from((1u16 << bits) - 1);
            prop_assert!((q.value() - w).abs() <= 0.5 * lsb + 1e-12);
        }

        #[test]
        fn magnitudes_in_unit_interval(w in -1.0..=1.0f64, bits in 1u8..=4) {
            let m = WeightMapper::paper(bits).unwrap();
            let q = m.quantize(w).unwrap();
            prop_assert!((0.0..=1.0).contains(&q.magnitude));
        }
    }
}
