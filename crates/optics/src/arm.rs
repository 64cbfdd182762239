//! One OPC arm: ten microrings, two waveguides, one balanced
//! photodetector.
//!
//! The arm is the unit of computation (paper Fig. 5(c)): the nine weights
//! of a 3×3 kernel occupy nine rings (the tenth is a spare / bias slot),
//! each ring weighting one WDM channel. Positive-sign rings sit on one
//! waveguide, negative-sign rings on the other; the BPD at the arm's end
//! subtracts the two accumulated powers, so the photocurrent *is* the
//! signed dot product.
//!
//! # Performance notes: the lane-accumulator determinism contract
//!
//! Every MAC path in this module — [`Arm::mac_indexed`] (the fused
//! fast path), [`Arm::mac`] (general [`NoiseModel`] evaluation) and
//! [`Arm::mac_reference`] (the pre-optimisation port) — accumulates
//! each detector rail into **`LANES` = 4 fixed lanes** (element `i`
//! lands in lane `i mod LANES`) and reduces them through one canonical
//! tree: `(l0 + l2) + (l1 + l3)`. Floating-point addition is not
//! associative, so the fold order is part of the wire-level
//! bit-identity guarantee: the parallel, sequential, batched, sharded,
//! TCP and serving engines all replay this exact tree and therefore
//! the exact same bits. Do not "simplify" the fold back to a single
//! accumulator, and never let a host vector width dictate a different
//! lane count — `LANES` is a contract constant, not a tuning knob.
//!
//! # The one MAC kernel
//!
//! Every engine, convolution and dense alike, evaluates through one
//! counter-addressed kernel (`mac_indexed_core`): scalar SplitMix64
//! mixing per draw ([`NoiseStream::gaussian_at`]), `activation == 0`
//! skipped by an early `continue`. A zero's counters are positional
//! (element `i` always owns `base + 2i`/`base + 2i + 1`), so skipping
//! draws is bit-identical to drawing and multiplying by zero. The
//! convolution engines reach it through [`ArmSnapshot::mac_indexed`],
//! one output position at a time; the dense path through
//! [`ArmStager::mac_indexed`], one staged chunk at a time, with the
//! kernel's full [`MacResult`] (raw detector current included). The
//! cursor-driven `mac_core` behind [`Arm::mac`] and [`ArmSnapshot::mac`]
//! serves general [`NoiseModel`]s and the serial oracles; both kernels
//! produce the same bits for the same stream.
//!
//! Measured on the bench host (Skylake-SP-class, paper noise config,
//! `cargo bench -p oisa_bench`): a 9-tap MAC runs ≈ 80–110 ns and the
//! chained fold sits at ≈ 11 ns/ring (`mac_core_{72,256,1024}_rings`,
//! `perf_json`'s `mac_ns_per_ring` block). Vector 64-bit mixing was
//! tried and measured slower than this scalar path on that host, so
//! the kernel stays scalar. Regenerate `bench/baseline.json` with
//! `perf_json` after touching anything in this file.

use oisa_device::mr::{Microring, MrDesign};
use oisa_device::noise::{NoiseModel, NoiseStream};
use oisa_device::photodiode::{BalancedPhotodetector, PhotodiodeParams};
use oisa_device::waveguide::{ChannelPlan, LossBudget, OpticalPath};
use oisa_units::{Joule, Meter, Second, Watt};
use serde::{Deserialize, Serialize};

use crate::weights::{MappedWeight, WeightMapper};
use crate::{OpticsError, Result};

/// Number of microrings per arm (paper §III-B).
pub const RINGS_PER_ARM: usize = 10;

/// Accumulator lanes per detector rail: the rail-fold contract of
/// `mac_core`, `mac_indexed_core` and [`reduce_lanes`] (module docs).
const LANES: usize = 4;

/// Arm configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArmConfig {
    /// Ring design used for every MR in the arm.
    pub ring: MrDesign,
    /// Detector at the arm output.
    pub detector: PhotodiodeParams,
    /// Loss budget for the waveguide run.
    pub losses: LossBudget,
    /// Physical arm length (sets propagation loss and time of flight).
    pub length: Meter,
    /// Per-channel optical input power at full activation.
    pub channel_power: Watt,
    /// Model inter-channel crosstalk: each ring's Lorentzian tail also
    /// attenuates its spectral neighbours. Costs one extra transmission
    /// evaluation per adjacent-channel pair.
    pub crosstalk: bool,
}

impl ArmConfig {
    /// Paper defaults: paper ring + detector + losses over a 500 µm arm
    /// with 200 µW per channel; crosstalk modelling on.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            ring: MrDesign::paper_default(),
            detector: PhotodiodeParams::paper_default(),
            losses: LossBudget::paper_default(),
            length: Meter::from_micro(500.0),
            channel_power: Watt::from_micro(200.0),
            crosstalk: true,
        }
    }

    /// Paper defaults with crosstalk disabled (ideal-isolation ablation).
    #[must_use]
    pub fn no_crosstalk() -> Self {
        Self {
            crosstalk: false,
            ..Self::paper_default()
        }
    }
}

/// Result of one arm-level MAC.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MacResult {
    /// The signed dot product, in weight·activation units (loss-
    /// normalised).
    pub value: f64,
    /// BPD difference current before normalisation, amperes.
    pub raw_current: f64,
    /// Optical + detection latency of the evaluation.
    pub latency: Second,
    /// Optical energy consumed by this arm for one symbol.
    pub optical_energy: Joule,
}

/// Immutable snapshot of everything an arm-level MAC consumes: the
/// mapped weights, the precomputed per-ring gains, the detector and the
/// full-scale / dwell constants.
///
/// A snapshot is what lets evaluation outlive fabric mutation: the
/// batched convolution engine snapshots every pass's arms before the
/// next pass re-tunes the same physical rings. (The dense path, which
/// evaluates staged weight codes, uses the code-indexed [`ArmStager`]
/// instead.) Both MAC entry points are bit-identical to
/// their [`Arm`] counterparts — they share the same inner evaluation,
/// not a re-implementation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArmSnapshot {
    weights: Vec<MappedWeight>,
    ring_gain: Vec<f64>,
    detector: BalancedPhotodetector,
    per_channel_full: f64,
    channel_power: f64,
    dwell: Second,
}

impl ArmSnapshot {
    /// The weights captured by this snapshot.
    #[must_use]
    pub fn weights(&self) -> &[MappedWeight] {
        &self.weights
    }

    /// Fused fast-path MAC over counter-addressed noise — bit-identical
    /// to [`Arm::mac_indexed`] on the arm this snapshot was taken from.
    ///
    /// Activations must already be validated to `[0, 1]` by the caller.
    #[must_use]
    pub fn mac_indexed(&self, activations: &[f64], stream: &NoiseStream, base: u64) -> (f64, f64) {
        debug_assert!(activations.len() <= self.weights.len());
        let r = mac_indexed_core(
            &self.weights,
            &self.ring_gain,
            &self.detector,
            self.per_channel_full,
            self.channel_power,
            self.dwell,
            activations,
            stream,
            base,
        );
        (r.value, r.optical_energy.get())
    }

    /// General MAC through any [`NoiseModel`] — bit-identical to
    /// [`Arm::mac`] on the arm this snapshot was taken from.
    ///
    /// # Errors
    ///
    /// Same contract as [`Arm::mac`].
    pub fn mac<N: NoiseModel>(&self, activations: &[f64], noise: &mut N) -> Result<MacResult> {
        validate_activation_window(self.weights.len(), activations)?;
        Ok(mac_core(
            &self.weights,
            &self.ring_gain,
            &self.detector,
            self.per_channel_full,
            self.channel_power,
            self.dwell,
            activations,
            noise,
        ))
    }
}

/// Distinct weight codes an [`ArmStager`] tables: the AWC resolves at
/// most 4 bits (`AwcParams` rejects wider ladders), so 16 codes.
const MAX_CODES: usize = 16;

/// One weight staged for an arm in one byte: its AWC code in the low
/// four bits and its sign (which waveguide it sits on) in the top bit.
///
/// Only [`ArmStager::stage`] builds codes other than the default
/// (code 0, positive), and only for codes its stager can tune: evaluate
/// a staged code with the stager that staged it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StagedCode(u8);

impl StagedCode {
    const NEGATIVE: u8 = 0x80;
    const CODE: u8 = 0x0F;

    /// The AWC code.
    #[must_use]
    pub fn code(self) -> u16 {
        u16::from(self.0 & Self::CODE)
    }

    /// `true` → negative waveguide.
    #[must_use]
    pub fn negative(self) -> bool {
        self.0 & Self::NEGATIVE != 0
    }

    /// Index into the stager's per-code tables (always `< MAX_CODES`).
    fn index(self) -> usize {
        usize::from(self.0 & Self::CODE)
    }
}

/// Code-indexed staging for one arm design: quantises weight chunks to
/// [`StagedCode`]s once, and evaluates staged chunks exactly as
/// [`Arm::load_weights`] followed by [`ArmSnapshot::mac_indexed`] would,
/// with table lookups in place of ring tuning.
///
/// The lookup is exact because a ring's state after a load depends
/// only on its code: the AWC maps the code to one magnitude
/// ([`WeightMapper::levels`]), the magnitude to one detuning, and the
/// detuning to the crosstalk the ring imposes on each neighbour. So the
/// stager tunes one ring per code once, keeps its left-neighbour
/// (`+spacing`) and right-neighbour (`−spacing`) crosstalk factors, and
/// rebuilds each ring's gain with `load_weights`' own multiply order.
/// What a lookup cannot give is the tuning energy and latency of a
/// load, which depend on the ring's previous operating point; the MAC
/// result carries neither, so nothing it reports changes.
///
/// Evaluation is allocation-free and touches no [`Arm`]: any number of
/// threads can share one stager.
#[derive(Debug, Clone)]
pub struct ArmStager {
    mapper: WeightMapper,
    /// Per code: the effective magnitude the ring transmits.
    magnitude: [f64; MAX_CODES],
    /// Per code: the crosstalk factors `[left, right]` a ring holding
    /// that code applies to the channel after and before its own (both
    /// `1.0` with crosstalk off).
    crosstalk: [[f64; 2]; MAX_CODES],
    /// Per code: the error tuning a ring to it raises, if any.
    untunable: Vec<Option<OpticsError>>,
    path_transmission: f64,
    detector: BalancedPhotodetector,
    per_channel_full: f64,
    channel_power: f64,
    dwell: Second,
}

impl ArmStager {
    /// The mapper this stager quantises through.
    #[must_use]
    pub fn mapper(&self) -> &WeightMapper {
        &self.mapper
    }

    /// Quantises one chunk of `weights` into `out` (same length), with
    /// the errors [`Arm::load_weights`] would raise for it, in its
    /// order.
    ///
    /// # Errors
    ///
    /// [`OpticsError::CapacityExceeded`] for more than
    /// [`RINGS_PER_ARM`] weights; [`OpticsError::InvalidParameter`]
    /// when `out` is not `weights.len()` long; then the first
    /// out-of-range or non-finite weight; then the first ring whose
    /// code cannot be tuned.
    pub fn stage(&self, weights: &[f64], out: &mut [StagedCode]) -> Result<()> {
        check_capacity(weights.len())?;
        if out.len() != weights.len() {
            return Err(OpticsError::InvalidParameter(format!(
                "{} staged codes for {} weights",
                out.len(),
                weights.len()
            )));
        }
        for (slot, &w) in out.iter_mut().zip(weights) {
            let m = self.mapper.quantize(w)?;
            let sign = if m.negative { StagedCode::NEGATIVE } else { 0 };
            // `quantize` returns codes below 2^bits ≤ MAX_CODES.
            *slot = StagedCode(sign | (m.code as u8 & StagedCode::CODE));
        }
        for code in out.iter() {
            if let Some(Some(err)) = self.untunable.get(code.index()) {
                return Err(err.clone());
            }
        }
        Ok(())
    }

    /// Evaluates a staged chunk against `activations` through the
    /// counter-addressed kernel [`ArmSnapshot::mac_indexed`] runs —
    /// bit-identical, [`MacResult`] field for field, to
    /// [`Arm::load_weights`] of the chunk's weights then
    /// [`ArmSnapshot::mac`] over a [`oisa_device::noise::StreamCursor`]
    /// on `stream` (for `base` 0).
    ///
    /// Activations must already be validated to `[0, 1]` by the caller,
    /// as for [`ArmSnapshot::mac_indexed`]; at most [`RINGS_PER_ARM`]
    /// codes are read.
    #[must_use]
    pub fn mac_indexed(
        &self,
        codes: &[StagedCode],
        activations: &[f64],
        stream: &NoiseStream,
        base: u64,
    ) -> MacResult {
        let n = codes.len().min(RINGS_PER_ARM);
        let code = |i: usize| codes.get(i).copied().unwrap_or_default();
        let mapped: [MappedWeight; RINGS_PER_ARM] = std::array::from_fn(|i| {
            let c = code(i);
            MappedWeight {
                code: c.code(),
                magnitude: self.magnitude[c.index()],
                negative: c.negative(),
            }
        });
        // `load_weights`' multiply order: left neighbour, right
        // neighbour, then the waveguide.
        let ring_gain: [f64; RINGS_PER_ARM] = std::array::from_fn(|i| {
            let mut xt = 1.0;
            if i > 0 {
                xt *= self.crosstalk[code(i - 1).index()][0];
            }
            if i + 1 < n {
                xt *= self.crosstalk[code(i + 1).index()][1];
            }
            xt * self.path_transmission
        });
        mac_indexed_core(
            &mapped[..n],
            &ring_gain[..n],
            &self.detector,
            self.per_channel_full,
            self.channel_power,
            self.dwell,
            activations,
            stream,
            base,
        )
    }
}

/// A single arm with its loaded weights.
///
/// See the crate-level example for typical use.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Arm {
    config: ArmConfig,
    rings: Vec<Microring>,
    weights: Vec<MappedWeight>,
    plan: ChannelPlan,
    detector: BalancedPhotodetector,
    /// Cached waveguide transmission from input to detector.
    path_transmission: f64,
    /// Total tuning energy spent loading the current weights.
    tuning_energy: Joule,
    /// Worst-case tuning latency of the last load.
    tuning_latency: Second,
    /// Per-ring crosstalk × waveguide gain, precomputed at
    /// [`Arm::load_weights`] time (it depends only on the loaded weights
    /// and the channel plan, never on activations).
    ring_gain: Vec<f64>,
    /// Full-scale photocurrent of one channel at weight and activation 1
    /// (`P_in · T_path · R`), precomputed at construction.
    per_channel_full: f64,
    /// Optical dwell per symbol: time of flight plus detector settling.
    dwell: Second,
}

impl Arm {
    /// Builds an idle arm with all rings parked (weight 0).
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::Device`] when a sub-device rejects its
    /// parameters.
    pub fn new(config: ArmConfig) -> Result<Self> {
        // Spread the ten channels across the ring's free spectral range:
        // the spacing must exceed the worst-case weight detuning
        // (≈ 0.67 nm) plus guard band, or a fully-detuned ring parks on
        // its neighbour's channel.
        let plan = ChannelPlan::new(
            config.ring.resonance_wavelength,
            Meter::new(config.ring.free_spectral_range().get() / RINGS_PER_ARM as f64),
            RINGS_PER_ARM as u16,
        )?;
        let rings = (0..RINGS_PER_ARM)
            .map(|_| Microring::new(config.ring))
            .collect::<oisa_device::Result<Vec<_>>>()?;
        let detector = BalancedPhotodetector::new(config.detector)?;
        let path = OpticalPath::new(config.losses)?
            .with_length(config.length)
            .with_ring_passes((RINGS_PER_ARM - 1) as u32)
            .with_splitters(1);
        let path_transmission = path.transmission();
        let per_channel_full =
            config.channel_power.get() * path_transmission * config.detector.responsivity_a_per_w;
        let velocity = oisa_units::SPEED_OF_LIGHT_M_PER_S / config.ring.group_index;
        let dwell = Second::new(config.length.get() / velocity) + detector.settling_time();
        Ok(Self {
            config,
            rings,
            weights: Vec::new(),
            plan,
            detector,
            path_transmission,
            tuning_energy: Joule::ZERO,
            tuning_latency: Second::ZERO,
            ring_gain: Vec::new(),
            per_channel_full,
            dwell,
        })
    }

    /// Arm configuration.
    #[must_use]
    pub fn config(&self) -> &ArmConfig {
        &self.config
    }

    /// Currently loaded weights.
    #[must_use]
    pub fn weights(&self) -> &[MappedWeight] {
        &self.weights
    }

    /// Tuning energy spent by the last [`Arm::load_weights`].
    #[must_use]
    pub fn tuning_energy(&self) -> Joule {
        self.tuning_energy
    }

    /// Worst-case settling latency of the last load (rings tune in
    /// parallel).
    #[must_use]
    pub fn tuning_latency(&self) -> Second {
        self.tuning_latency
    }

    /// Static heater power holding the current weights.
    #[must_use]
    pub fn holding_power(&self) -> Watt {
        self.rings.iter().map(Microring::holding_power).sum()
    }

    /// Quantises `weights` through `mapper` and maps them onto the rings.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::CapacityExceeded`] when more than
    /// [`RINGS_PER_ARM`] weights are supplied, or a quantisation error.
    pub fn load_weights(&mut self, weights: &[f64], mapper: &WeightMapper) -> Result<()> {
        check_capacity(weights.len())?;
        let mapped = mapper.quantize_all(weights)?;
        let mut energy = Joule::ZERO;
        let mut latency = Second::ZERO;
        for (i, ring) in self.rings.iter_mut().enumerate() {
            // Parked rings (weight 0) sit on resonance and block their
            // channel.
            let magnitude = mapped.get(i).map_or(0.0, |m| m.magnitude);
            let detuning = ring.detuning_for_transmission(tuning_target(ring, magnitude))?;
            let outcome = ring.apply_detuning(detuning);
            energy += outcome.energy;
            latency = latency.max(outcome.latency);
        }
        self.weights = mapped;
        self.tuning_energy = energy;
        self.tuning_latency = latency;
        // Crosstalk and waveguide attenuation depend only on the loaded
        // weights (ring detunings) and the channel spacing, so fold them
        // into one per-ring gain here instead of re-evaluating two
        // Lorentzian tails per channel on every MAC.
        let spacing = self.plan.spacing();
        self.ring_gain = (0..self.weights.len())
            .map(|i| {
                let mut xt = 1.0;
                if self.config.crosstalk {
                    if i > 0 {
                        xt *= self.rings[i - 1].crosstalk_transmission(spacing);
                    }
                    if i + 1 < self.weights.len() {
                        xt *= self.rings[i + 1].crosstalk_transmission(-spacing);
                    }
                }
                xt * self.path_transmission
            })
            .collect();
        Ok(())
    }

    /// Evaluates the signed dot product of the loaded weights with
    /// `activations` (normalised optical amplitudes in `[0, 1]`, one per
    /// loaded weight).
    ///
    /// The chain models: VCSEL RIN on each channel → ring transmission
    /// (with drift) → waveguide losses → accumulation on the +/−
    /// waveguides → BPD subtraction with detector noise → loss-normalised
    /// signed result. Crosstalk and waveguide attenuation come from the
    /// per-ring gains precomputed at [`Arm::load_weights`] time.
    ///
    /// # Errors
    ///
    /// Returns [`OpticsError::InvalidParameter`] when activation count
    /// exceeds the loaded weight count or values leave `[0, 1]`; all
    /// activations are validated up front, so the error names the first
    /// offending index and no partial evaluation happens.
    pub fn mac<N: NoiseModel>(&self, activations: &[f64], noise: &mut N) -> Result<MacResult> {
        self.validate_activations(activations)?;
        Ok(mac_core(
            &self.weights,
            &self.ring_gain,
            &self.detector,
            self.per_channel_full,
            self.config.channel_power.get(),
            self.dwell,
            activations,
            noise,
        ))
    }

    /// Captures the compute-relevant state of this arm as an immutable
    /// [`ArmSnapshot`]: the mapped weights, the precomputed per-ring
    /// gains and the detector / full-scale / dwell constants. Evaluating
    /// the snapshot is bit-identical to evaluating the arm, and stays
    /// valid after the arm is re-tuned with new weights.
    #[must_use]
    pub fn snapshot(&self) -> ArmSnapshot {
        ArmSnapshot {
            weights: self.weights.clone(),
            ring_gain: self.ring_gain.clone(),
            detector: self.detector,
            per_channel_full: self.per_channel_full,
            channel_power: self.config.channel_power.get(),
            dwell: self.dwell,
        }
    }

    /// Builds an [`ArmStager`] for this arm's design and `mapper`'s
    /// codes: one ring tuning per code, once, instead of ten per
    /// evaluated chunk. The arm's own rings and weights are untouched.
    #[must_use]
    pub fn stager(&self, mapper: &WeightMapper) -> ArmStager {
        let spacing = self.plan.spacing();
        let mut ring = self.rings[0].clone();
        let mut magnitude = [0.0f64; MAX_CODES];
        let mut crosstalk = [[1.0f64; 2]; MAX_CODES];
        let mut untunable = Vec::with_capacity(MAX_CODES);
        for ((&level, m), xt) in mapper
            .levels()
            .iter()
            .zip(&mut magnitude)
            .zip(&mut crosstalk)
        {
            *m = level;
            match ring.detuning_for_transmission(tuning_target(&ring, level)) {
                Ok(detuning) => {
                    if self.config.crosstalk {
                        ring.apply_detuning(detuning);
                        *xt = [
                            ring.crosstalk_transmission(spacing),
                            ring.crosstalk_transmission(-spacing),
                        ];
                    }
                    untunable.push(None);
                }
                Err(err) => untunable.push(Some(err.into())),
            }
        }
        ArmStager {
            mapper: mapper.clone(),
            magnitude,
            crosstalk,
            untunable,
            path_transmission: self.path_transmission,
            detector: self.detector,
            per_channel_full: self.per_channel_full,
            channel_power: self.config.channel_power.get(),
            dwell: self.dwell,
        }
    }

    /// Fused fast-path MAC for the accelerator's inner loop: draws are
    /// addressed on `stream` by explicit counters starting at `base`
    /// (channel `i` uses `base + 2i` / `base + 2i + 1`, the detector
    /// `base + 2m` where `m = activations.len()`), each nonzero
    /// element draws its two Gaussians with scalar
    /// [`NoiseStream::gaussian_at`] and folds into rail lane
    /// `i mod LANES` (a zero activation is skipped: it would contribute
    /// an exact `+0.0`, and its counters stay addressed to it, so
    /// skipping it changes no output bit).
    ///
    /// Returns only `(value, optical_energy_joules)` of the kernel's
    /// result. Activations must
    /// already be validated to `[0, 1]` by the caller — the accelerator
    /// validates each encoded frame once instead of once per window.
    ///
    /// Bit-identical to [`Arm::mac`] driven by a
    /// [`oisa_device::noise::StreamCursor`] over the same stream and
    /// base counter 0.
    #[must_use]
    pub fn mac_indexed(&self, activations: &[f64], stream: &NoiseStream, base: u64) -> (f64, f64) {
        debug_assert!(activations.len() <= self.weights.len());
        let r = mac_indexed_core(
            &self.weights,
            &self.ring_gain,
            &self.detector,
            self.per_channel_full,
            self.config.channel_power.get(),
            self.dwell,
            activations,
            stream,
            base,
        );
        (r.value, r.optical_energy.get())
    }

    /// Counter stride one MAC of `m` activations consumes on a stream:
    /// two draws per channel plus the detector draw.
    #[must_use]
    pub fn counter_stride(m: usize) -> u64 {
        2 * m as u64 + 1
    }

    /// Faithful port of the pre-optimisation MAC: validates inside the
    /// loop, re-derives both crosstalk Lorentzians per channel from ring
    /// state, recomputes the full-scale and time-of-flight terms per
    /// call. Kept as the wall-clock baseline for the performance
    /// benchmarks and as a physics cross-check (it produces the same
    /// values as [`Arm::mac`] given the same noise draws).
    ///
    /// # Errors
    ///
    /// Same contract as [`Arm::mac`], but the range error reports no
    /// index (the historical message).
    pub fn mac_reference<N: NoiseModel>(
        &self,
        activations: &[f64],
        noise: &mut N,
    ) -> Result<MacResult> {
        if activations.len() > self.weights.len() {
            return Err(OpticsError::InvalidParameter(format!(
                "{} activations for {} loaded weights",
                activations.len(),
                self.weights.len()
            )));
        }
        // The rail fold follows the canonical lane order (module docs):
        // the reference port must stay bit-equal to the optimised paths.
        let mut pos = [0.0f64; LANES];
        let mut neg = [0.0f64; LANES];
        let p_in = self.config.channel_power.get();
        let spacing = self.plan.spacing();
        for (i, (a, w)) in activations.iter().zip(&self.weights).enumerate() {
            if !(0.0..=1.0).contains(a) {
                return Err(OpticsError::InvalidParameter(format!(
                    "activation {a} outside [0, 1]"
                )));
            }
            let launched = noise.vcsel(p_in * a);
            let t = noise.mr_transmission(w.magnitude);
            let mut xt = 1.0;
            if self.config.crosstalk {
                if i > 0 {
                    xt *= self.rings[i - 1].crosstalk_transmission(spacing);
                }
                if i + 1 < self.weights.len() {
                    xt *= self.rings[i + 1].crosstalk_transmission(-spacing);
                }
            }
            let arrived = launched * t * (xt * self.path_transmission);
            if w.negative {
                neg[i % LANES] += arrived;
            } else {
                pos[i % LANES] += arrived;
            }
        }
        let p_pos = reduce_lanes(pos);
        let p_neg = reduce_lanes(neg);
        let diff = self
            .detector
            .difference_current(Watt::new(p_pos), Watt::new(p_neg));
        let full_scale = self.config.channel_power.get()
            * self.path_transmission
            * self.config.detector.responsivity_a_per_w
            * activations.len().max(1) as f64;
        let noisy = noise.detector(diff.get(), full_scale);
        let per_channel_full = self.config.channel_power.get()
            * self.path_transmission
            * self.config.detector.responsivity_a_per_w;
        let value = noisy / per_channel_full;
        let latency = self.time_of_flight() + self.detector.settling_time();
        let optical_energy =
            Watt::new(p_pos + p_neg) * (self.time_of_flight() + self.detector.settling_time());
        Ok(MacResult {
            value,
            raw_current: noisy,
            latency,
            optical_energy,
        })
    }

    /// Checks activation count and range, reporting the first offending
    /// index.
    fn validate_activations(&self, activations: &[f64]) -> Result<()> {
        validate_activation_window(self.weights.len(), activations)
    }

    /// Optical time of flight along the arm (group velocity c/n_g).
    #[must_use]
    pub fn time_of_flight(&self) -> Second {
        let v = oisa_units::SPEED_OF_LIGHT_M_PER_S / self.config.ring.group_index;
        Second::new(self.config.length.get() / v)
    }

    /// The WDM channel plan used by this arm.
    #[must_use]
    pub fn channel_plan(&self) -> &ChannelPlan {
        &self.plan
    }
}

/// Checks activation count against `loaded` weights and the `[0, 1]`
/// range, reporting the first offending index — shared by [`Arm`] and
/// [`ArmSnapshot`] so both reject identically.
fn validate_activation_window(loaded: usize, activations: &[f64]) -> Result<()> {
    if activations.len() > loaded {
        return Err(OpticsError::InvalidParameter(format!(
            "{} activations for {loaded} loaded weights",
            activations.len(),
        )));
    }
    if let Some(i) = activations.iter().position(|a| !(0.0..=1.0).contains(a)) {
        return Err(OpticsError::InvalidParameter(format!(
            "activation {} at index {i} outside [0, 1]",
            activations[i]
        )));
    }
    Ok(())
}

/// Rejects loading more than [`RINGS_PER_ARM`] weights onto one arm.
fn check_capacity(requested: usize) -> Result<()> {
    if requested > RINGS_PER_ARM {
        return Err(OpticsError::CapacityExceeded {
            capacity: RINGS_PER_ARM,
            requested,
        });
    }
    Ok(())
}

/// Through-port transmission a ring is tuned to so it encodes weight
/// magnitude `magnitude`: evenly spaced between the extinction floor
/// and the 95% point of the Lorentzian tail. Shared by
/// [`Arm::load_weights`] and [`Arm::stager`] so both tune identically.
fn tuning_target(ring: &Microring, magnitude: f64) -> f64 {
    let floor = ring.design().intrinsic_loss;
    floor + (0.95 - floor) * magnitude
}

/// The general MAC evaluation shared bit-for-bit by [`Arm::mac`] and
/// [`ArmSnapshot::mac`]: VCSEL RIN → ring
/// transmission (with drift) → precomputed per-ring gain → rail
/// accumulation → BPD subtraction with detector noise → loss-normalised
/// signed result.
#[allow(clippy::too_many_arguments)]
fn mac_core<N: NoiseModel>(
    weights: &[MappedWeight],
    ring_gain: &[f64],
    detector: &BalancedPhotodetector,
    per_channel_full: f64,
    channel_power_w: f64,
    dwell: Second,
    activations: &[f64],
    noise: &mut N,
) -> MacResult {
    // Draw order stays strictly element-sequential (VCSEL then drift,
    // element by element) for `StreamCursor` counter compatibility;
    // only the rail accumulation uses the canonical lane fold.
    let mut pos = [0.0f64; LANES];
    let mut neg = [0.0f64; LANES];
    for (i, (a, w)) in activations.iter().zip(weights).enumerate() {
        let launched = noise.vcsel(channel_power_w * a);
        let t = noise.mr_transmission(w.magnitude);
        let arrived = launched * t * ring_gain[i];
        if w.negative {
            neg[i % LANES] += arrived;
        } else {
            pos[i % LANES] += arrived;
        }
    }
    let p_pos = reduce_lanes(pos);
    let p_neg = reduce_lanes(neg);
    let diff = detector.difference_current(Watt::new(p_pos), Watt::new(p_neg));
    // Full scale: all channels at activation 1 with weight magnitude 1
    // on one waveguide.
    let full_scale = per_channel_full * activations.len().max(1) as f64;
    let noisy = noise.detector(diff.get(), full_scale);
    // Loss-normalised value in weight·activation units.
    let value = noisy / per_channel_full;
    MacResult {
        value,
        raw_current: noisy,
        latency: dwell,
        optical_energy: Watt::new(p_pos + p_neg) * dwell,
    }
}

/// Reduces the lane accumulators through the one canonical tree:
/// fold the high half onto the low half (`l0+l2`, `l1+l3`), then add
/// the halves — the order a 256-bit register split produces. Every MAC
/// path commits to this exact tree; see the module-level performance
/// notes for why the order is load-bearing.
#[inline]
fn reduce_lanes(acc: [f64; LANES]) -> f64 {
    (acc[0] + acc[2]) + (acc[1] + acc[3])
}

/// The fused counter-addressed MAC shared bit-for-bit by
/// [`Arm::mac_indexed`], [`ArmSnapshot::mac_indexed`] (convolution) and
/// [`ArmStager::mac_indexed`] (dense): channel `i` draws counters
/// `base + 2i` / `base + 2i + 1`, the detector draws `base + 2m` where
/// `m = activations.len()` — including when the activation window is
/// shorter than the loaded weights. It returns the whole [`MacResult`];
/// the convolution entry points keep only value and energy.
///
/// Element `i` accumulates into rail lane `i mod LANES` and the lanes
/// reduce through [`reduce_lanes`] — the canonical fold every MAC path
/// replays. The four rails are a speed feature as much as a
/// determinism contract: they give the core four independent
/// floating-point add chains where the historical single accumulator
/// serialised every element on one. Zero activations skip both their
/// draws; counters are positional (`base + 2i` belongs to element `i`
/// whether or not it draws), so the skip is bit-identical to drawing
/// and discarding (a zero's contribution is an exact `±0.0` into a
/// non-negative accumulator, which can never change its bits).
///
/// Always inlined, so each entry point compiles its own copy: the
/// convolution entry points keep only value and energy, and the fields
/// they drop (raw current, latency) cost them nothing.
///
/// The per-element draws stay deliberately scalar: paper-shaped
/// windows (9 taps on a 10-ring arm) are too short for batched mixing
/// to pay, because the batched multiply chain's latency lands on the
/// critical path, where the scalar interleaving hides it.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn mac_indexed_core(
    weights: &[MappedWeight],
    ring_gain: &[f64],
    detector: &BalancedPhotodetector,
    per_channel_full: f64,
    channel_power_w: f64,
    dwell: Second,
    activations: &[f64],
    stream: &NoiseStream,
    base: u64,
) -> MacResult {
    let m = activations.len();
    // Historical zip semantics: evaluate only elements that have a
    // loaded weight, but keep full-scale and the detector counter on
    // the activation count (see the short-window contract test).
    let n = m.min(weights.len());
    let cfg = stream.config();
    let sv = cfg.vcsel_rin;
    let sm = cfg.mr_drift;
    let mut pos = [0.0f64; LANES];
    let mut neg = [0.0f64; LANES];
    for i in 0..n {
        let a = activations[i];
        if a == 0.0 {
            continue;
        }
        let w = &weights[i];
        let c = base + 2 * i as u64;
        let launched = (channel_power_w * a * (1.0 + sv * stream.gaussian_at(c))).max(0.0);
        let t = (w.magnitude * (1.0 + sm * stream.gaussian_at(c + 1))).clamp(0.0, 1.0);
        let arrived = launched * t * ring_gain[i];
        if w.negative {
            neg[i % LANES] += arrived;
        } else {
            pos[i % LANES] += arrived;
        }
    }
    let p_pos = reduce_lanes(pos);
    let p_neg = reduce_lanes(neg);
    let diff = detector.difference_current(Watt::new(p_pos), Watt::new(p_neg));
    let full_scale = per_channel_full * m.max(1) as f64;
    let noisy = stream.detector_at(base + 2 * m as u64, diff.get(), full_scale);
    MacResult {
        value: noisy / per_channel_full,
        raw_current: noisy,
        latency: dwell,
        optical_energy: Watt::new(p_pos + p_neg) * dwell,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oisa_device::noise::{NoiseConfig, NoiseSource};
    use proptest::prelude::*;

    fn quiet() -> NoiseSource {
        NoiseSource::seeded(0, NoiseConfig::noiseless())
    }

    fn loaded_arm_with(config: ArmConfig, weights: &[f64], bits: u8) -> Arm {
        let mapper = WeightMapper::ideal(bits).unwrap();
        let mut arm = Arm::new(config).unwrap();
        arm.load_weights(weights, &mapper).unwrap();
        arm
    }

    fn loaded_arm(weights: &[f64], bits: u8) -> Arm {
        loaded_arm_with(ArmConfig::paper_default(), weights, bits)
    }

    #[test]
    fn mac_matches_exact_dot_product_noiselessly() {
        let w = [0.5, -0.25, 1.0, 0.0, 0.75, -1.0, 0.25, 0.5, -0.5];
        let a = [1.0, 1.0, 0.5, 0.0, 1.0, 0.5, 0.0, 0.0, 1.0];
        let arm = loaded_arm_with(ArmConfig::no_crosstalk(), &w, 4);
        let out = arm.mac(&a, &mut quiet()).unwrap();
        let exact: f64 = w.iter().zip(&a).map(|(w, a)| w * a).sum();
        // 4-bit quantisation bounds the per-element error to 1/30.
        assert!(
            (out.value - exact).abs() < 9.0 / 30.0 + 1e-6,
            "got {} exact {exact}",
            out.value
        );
    }

    #[test]
    fn positive_and_negative_weights_cancel() {
        let arm = loaded_arm_with(ArmConfig::no_crosstalk(), &[1.0, -1.0], 4);
        let out = arm.mac(&[1.0, 1.0], &mut quiet()).unwrap();
        assert!(out.value.abs() < 1e-9, "got {}", out.value);
    }

    #[test]
    fn crosstalk_shaves_a_few_percent() {
        let w = [0.8; 9];
        let a = [1.0; 9];
        let clean = loaded_arm_with(ArmConfig::no_crosstalk(), &w, 4)
            .mac(&a, &mut quiet())
            .unwrap()
            .value;
        let with_xt = loaded_arm(&w, 4).mac(&a, &mut quiet()).unwrap().value;
        let loss = (clean - with_xt) / clean;
        assert!(loss > 0.0, "crosstalk must attenuate, got gain {loss}");
        assert!(
            loss < 0.15,
            "crosstalk loss {loss} too large for the paper channel plan"
        );
    }

    #[test]
    fn detuned_neighbours_leak_toward_next_channel() {
        // Weight detuning shifts a ring's resonance *toward* the next
        // channel, so fully-detuned neighbours attenuate the centre
        // channel more than parked ones — the physical reason the
        // channel plan spreads over the whole FSR.
        let a = [0.0, 1.0, 0.0];
        let parked = loaded_arm(&[0.0, 0.8, 0.0], 4)
            .mac(&a, &mut quiet())
            .unwrap()
            .value;
        let detuned = loaded_arm(&[1.0, 0.8, 1.0], 4)
            .mac(&a, &mut quiet())
            .unwrap()
            .value;
        assert!(
            detuned < parked,
            "detuned neighbours should attenuate the centre channel more: {detuned} vs {parked}"
        );
        // But with the FSR-wide plan the effect stays small.
        assert!((parked - detuned) / parked < 0.05);
    }

    #[test]
    fn all_zero_weights_give_zero() {
        let arm = loaded_arm(&[0.0; 9], 4);
        let out = arm.mac(&[1.0; 9], &mut quiet()).unwrap();
        assert!(out.value.abs() < 1e-12);
    }

    #[test]
    fn capacity_enforced() {
        let mapper = WeightMapper::ideal(4).unwrap();
        let mut arm = Arm::new(ArmConfig::paper_default()).unwrap();
        let too_many = vec![0.1; RINGS_PER_ARM + 1];
        assert!(matches!(
            arm.load_weights(&too_many, &mapper),
            Err(OpticsError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn activation_validation() {
        let arm = loaded_arm(&[0.5; 9], 4);
        assert!(arm.mac(&[1.5; 9], &mut quiet()).is_err());
        assert!(arm.mac(&[1.0; 10], &mut quiet()).is_err());
    }

    #[test]
    fn tuning_costs_accounted() {
        let arm = loaded_arm(&[0.9; 9], 4);
        assert!(arm.tuning_energy().get() > 0.0);
        assert!(arm.tuning_latency().get() > 0.0);
        assert!(arm.holding_power().get() > 0.0);
    }

    #[test]
    fn holding_power_within_architecture_budget() {
        // Full-magnitude weights are the worst case; the paper's power
        // budget requires an arm to hold well under 10 × 0.3 mW.
        let arm = loaded_arm(&[1.0; 9], 4);
        let p = arm.holding_power();
        assert!(p.as_milli() < 3.0, "arm holding power {p}");
    }

    #[test]
    fn latency_dominated_by_flight_plus_detector() {
        let arm = loaded_arm(&[0.5; 9], 4);
        let out = arm.mac(&[1.0; 9], &mut quiet()).unwrap();
        // 500 µm at c/4.2 ≈ 7 ps, BPD ≈ 8.3 ps → ~15 ps.
        assert!(
            out.latency.as_pico() > 5.0 && out.latency.as_pico() < 60.0,
            "latency {}",
            out.latency
        );
    }

    #[test]
    fn noise_perturbs_but_preserves_scale() {
        let w = [0.5, -0.25, 1.0, 0.0, 0.75, -1.0, 0.25, 0.5, -0.5];
        let a = [1.0, 1.0, 0.5, 0.0, 1.0, 0.5, 0.0, 0.0, 1.0];
        let arm = loaded_arm(&w, 4);
        let mut noisy = NoiseSource::seeded(42, NoiseConfig::paper_default());
        let exact: f64 = w.iter().zip(&a).map(|(w, a)| w * a).sum();
        let runs: Vec<f64> = (0..64)
            .map(|_| arm.mac(&a, &mut noisy).unwrap().value)
            .collect();
        let mean = runs.iter().sum::<f64>() / runs.len() as f64;
        assert!((mean - exact).abs() < 0.4, "mean {mean} vs exact {exact}");
        let spread = runs.iter().map(|r| (r - mean).abs()).fold(0.0f64, f64::max);
        assert!(spread > 0.0, "noise must perturb results");
        assert!(spread < 0.5, "noise out of calibration: {spread}");
    }

    #[test]
    fn indexed_reference_and_general_macs_are_bit_identical() {
        // Same stream, three evaluation strategies: the fused fast path
        // (explicit counters, zero-skip), the general path behind a
        // sequential cursor, and the pre-optimisation reference port.
        let w = [0.5, -0.25, 1.0, 0.0, 0.75, -1.0, 0.25, 0.5, -0.5];
        let a = [1.0, 0.0, 0.5, 0.0, 1.0, 0.5, 0.0, 0.022, 1.0]; // ternary-ish, with zeros
        let arm = loaded_arm(&w, 4);
        let source = NoiseSource::seeded(99, NoiseConfig::paper_default());
        let stream = source.stream(0, 3, 17);

        let (fast_value, fast_energy) = arm.mac_indexed(&a, &stream, 0);
        let general = arm.mac(&a, &mut stream.cursor()).unwrap();
        let reference = arm.mac_reference(&a, &mut stream.cursor()).unwrap();

        assert_eq!(fast_value, general.value);
        assert_eq!(fast_value, reference.value);
        assert_eq!(fast_energy, general.optical_energy.get());
        assert_eq!(fast_energy, reference.optical_energy.get());
        assert_eq!(general.raw_current, reference.raw_current);
    }

    #[test]
    fn short_window_detector_counter_follows_activation_count() {
        // The contract: the detector draw sits at `base + 2·m` where
        // `m = activations.len()`, even when the activation window is
        // shorter than the loaded weights. All three MAC paths agree on
        // it, and the counter depends on the window length, never on
        // the loaded weight count.
        let w10 = [0.5, -0.25, 1.0, 0.0, 0.75, -1.0, 0.25, 0.5, -0.5, 0.3];
        let arm10 = loaded_arm(&w10, 4);
        let arm9 = loaded_arm(&w10[..9], 4);
        let source = NoiseSource::seeded(13, NoiseConfig::paper_default());
        let stream = source.stream(0, 1, 9);
        for m in [0usize, 1, 2, 3, 5, 8, 9] {
            let a: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin().abs()).collect();
            let (fast, fast_energy) = arm10.mac_indexed(&a, &stream, 0);
            let general = arm10.mac(&a, &mut stream.cursor()).unwrap();
            let reference = arm10.mac_reference(&a, &mut stream.cursor()).unwrap();
            assert_eq!(fast, general.value, "m={m}");
            assert_eq!(fast, reference.value, "m={m}");
            assert_eq!(fast_energy, general.optical_energy.get(), "m={m}");
            // The same short window on an arm holding fewer weights
            // replays the same draws: if the detector counter tracked
            // `weights.len()`, these would diverge. (m ≤ 8 keeps the
            // last evaluated ring's crosstalk neighbourhood identical
            // between the 9- and 10-weight arms.)
            if m <= 8 {
                assert_eq!(fast, arm9.mac_indexed(&a, &stream, 0).0, "m={m}");
            }
        }
    }

    #[test]
    fn snapshot_macs_bit_identical_to_arm() {
        let w = [0.5, -0.25, 1.0, 0.0, 0.75, -1.0, 0.25, 0.5, -0.5];
        let a = [1.0, 0.0, 0.5, 0.0, 1.0, 0.5, 0.0, 0.022, 1.0];
        let arm = loaded_arm(&w, 4);
        let snap = arm.snapshot();
        let source = NoiseSource::seeded(7, NoiseConfig::paper_default());
        let stream = source.stream(1, 2, 33);

        assert_eq!(
            arm.mac_indexed(&a, &stream, 5),
            snap.mac_indexed(&a, &stream, 5)
        );
        assert_eq!(
            arm.mac(&a, &mut stream.cursor()).unwrap(),
            snap.mac(&a, &mut stream.cursor()).unwrap()
        );
        assert_eq!(snap.weights(), arm.weights());
    }

    #[test]
    fn snapshot_outlives_arm_retuning() {
        let mapper = WeightMapper::ideal(4).unwrap();
        let mut arm = Arm::new(ArmConfig::paper_default()).unwrap();
        arm.load_weights(&[0.8; 9], &mapper).unwrap();
        let snap = arm.snapshot();
        let a = [1.0; 9];
        let before = snap.mac(&a, &mut quiet()).unwrap();
        // Re-tune the physical arm; the snapshot must keep replaying the
        // old weights.
        arm.load_weights(&[-0.8; 9], &mapper).unwrap();
        let after_snap = snap.mac(&a, &mut quiet()).unwrap();
        let after_arm = arm.mac(&a, &mut quiet()).unwrap();
        assert_eq!(before, after_snap);
        assert!(after_arm.value < 0.0 && after_snap.value > 0.0);
    }

    #[test]
    fn stager_bit_identical_to_load_then_snapshot() {
        // Every window length an arm holds, on both configs and both
        // mapper families; every window from two weights up holds code
        // 0 and full scale.
        let source = NoiseSource::seeded(21, NoiseConfig::paper_default());
        for config in [ArmConfig::paper_default(), ArmConfig::no_crosstalk()] {
            for mapper in [
                WeightMapper::ideal(4).unwrap(),
                WeightMapper::paper(3).unwrap(),
            ] {
                let mut arm = Arm::new(config).unwrap();
                let stager = arm.stager(&mapper);
                for n in 1..=RINGS_PER_ARM {
                    let w: Vec<f64> = (0..n)
                        .map(|i| match i % 4 {
                            0 => 0.0,
                            1 => -1.0,
                            2 => 1.0,
                            _ => (i as f64 * 0.61).sin(),
                        })
                        .collect();
                    let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.43).cos().abs()).collect();
                    let stream = source.stream(0, n as u64, 3);
                    arm.load_weights(&w, &mapper).unwrap();
                    let loaded = arm.snapshot().mac(&a, &mut stream.cursor()).unwrap();
                    let mut codes = vec![StagedCode::default(); n];
                    stager.stage(&w, &mut codes).unwrap();
                    for (code, m) in codes.iter().zip(arm.weights()) {
                        assert_eq!((code.code(), code.negative()), (m.code, m.negative));
                    }
                    let staged = stager.mac_indexed(&codes, &a, &stream, 0);
                    assert_eq!(loaded.value.to_bits(), staged.value.to_bits(), "n={n}");
                    assert_eq!(
                        loaded.raw_current.to_bits(),
                        staged.raw_current.to_bits(),
                        "n={n}"
                    );
                    assert_eq!(
                        loaded.optical_energy.get().to_bits(),
                        staged.optical_energy.get().to_bits(),
                        "n={n}"
                    );
                    assert_eq!(loaded, staged, "n={n}");
                }
            }
        }
    }

    #[test]
    fn stager_errors_like_load_then_snapshot() {
        let mapper = WeightMapper::ideal(4).unwrap();
        let mut arm = Arm::new(ArmConfig::paper_default()).unwrap();
        let stager = arm.stager(&mapper);
        let cases: [&[f64]; 3] = [
            &[0.1; RINGS_PER_ARM + 1],
            &[0.1, 1.5, f64::NAN],
            &[0.1, f64::NAN],
        ];
        for w in cases {
            let expected = arm.load_weights(w, &mapper).unwrap_err();
            let mut codes = vec![StagedCode::default(); w.len()];
            assert_eq!(stager.stage(w, &mut codes).unwrap_err(), expected);
        }
        // A code buffer of the wrong length is refused, not truncated.
        let mut short = [StagedCode::default(); 1];
        assert!(stager.stage(&[0.1, 0.2], &mut short).is_err());
    }

    #[test]
    fn stager_untunable_code_fails_only_chunks_that_use_it() {
        // A badly mismatched ladder whose top code overshoots full
        // scale asks the ring for a transmission past 1: loading that
        // code fails, every other code still loads.
        use oisa_device::awc::{AwcLadder, AwcModel, AwcParams};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let params = AwcParams {
            bits: 2,
            model: AwcModel::Mismatch {
                leg_sigma: 0.4,
                compression: 0.0,
            },
            ..AwcParams::paper_default()
        };
        let mapper = (0..64)
            .map(|seed| {
                let ladder = AwcLadder::fabricate(params, &mut StdRng::seed_from_u64(seed));
                WeightMapper::from_ladder(ladder.unwrap()).unwrap()
            })
            .find(|m| {
                m.levels()[3] > 1.1 && m.levels()[1..3].iter().all(|l| (0.0..1.0).contains(l))
            })
            .expect("some seed overshoots the top code only");
        let mut arm = Arm::new(ArmConfig::paper_default()).unwrap();
        let stager = arm.stager(&mapper);
        let a = [1.0; 3];
        let mut codes = [StagedCode::default(); 3];
        // Errors in `load_weights`' order: every weight is quantised
        // before any ring is tuned, so a later NaN wins over an earlier
        // untunable code.
        for bad in [[0.3, 1.0, 0.7], [1.0, 0.3, f64::NAN]] {
            let expected = arm.load_weights(&bad, &mapper).unwrap_err();
            assert_eq!(stager.stage(&bad, &mut codes).unwrap_err(), expected);
        }
        let good = [0.3, 0.7, -0.3];
        arm.load_weights(&good, &mapper).unwrap();
        stager.stage(&good, &mut codes).unwrap();
        let stream = NoiseSource::seeded(5, NoiseConfig::paper_default()).stream(0, 0, 0);
        assert_eq!(
            stager.mac_indexed(&codes, &a, &stream, 0),
            arm.snapshot().mac(&a, &mut stream.cursor()).unwrap()
        );
    }

    #[test]
    fn snapshot_validates_like_arm() {
        let arm = loaded_arm(&[0.5; 9], 4);
        let snap = arm.snapshot();
        assert!(snap.mac(&[1.5; 9], &mut quiet()).is_err());
        assert!(snap.mac(&[1.0; 10], &mut quiet()).is_err());
    }

    #[test]
    fn validation_reports_offending_index() {
        let arm = loaded_arm(&[0.5; 9], 4);
        let mut acts = [0.5; 9];
        acts[6] = 1.5;
        let err = arm.mac(&acts, &mut quiet()).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("index 6"),
            "message must name the index: {msg}"
        );
        assert!(msg.contains("1.5"), "message must name the value: {msg}");
    }

    proptest! {
        #[test]
        fn mac_bounded_by_operand_count(
            seed in 0u64..100,
            n in 1usize..=9,
        ) {
            let mut src = NoiseSource::seeded(seed, NoiseConfig::noiseless());
            let weights: Vec<f64> = (0..n)
                .map(|i| ((seed as f64 + i as f64) * 0.37).sin())
                .collect();
            let activations: Vec<f64> = (0..n)
                .map(|i| (((seed + 3) as f64 + i as f64) * 0.21).sin().abs())
                .collect();
            let arm = loaded_arm(&weights, 4);
            let out = arm.mac(&activations, &mut src).unwrap();
            prop_assert!(out.value.abs() <= n as f64 + 1e-9);
        }
    }
}
