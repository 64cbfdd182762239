//! MLP (fully connected) first-layer execution via the VOM.
//!
//! Paper §III-A: "In the case of the MLP, the number of dot products is
//! enormous. To reduce the complexity of the calculations, the VOM unit
//! … enables OISA to break the intensive MAC operations into smaller
//! parts." A dense row of `n` weights becomes `⌈n / 9⌉` arm-sized
//! chunks; each chunk computes optically and the VOM accumulates and
//! re-modulates the partial sums.
//!
//! Like the convolution pipeline, the dense path draws its noise from
//! counter-based streams — keyed by `(epoch, row, chunk)` — so
//! evaluation order never changes the physics. Weights are normalised
//! by one per-tensor scale found in one up-front scan. Two engines
//! share that contract:
//!
//! * [`matvec`] — the serial oracle: chunks round-robin over the shared
//!   fabric via `load_arm`, exactly as the hardware would serialise
//!   them.
//! * The staged engine, in two steps. A dense layer's weights belong
//!   to the layer, not to the input (paper §III-A maps them onto AWC
//!   ring codes once), so **staging** happens once per matrix:
//!   [`StagedMatrix::new`] quantises every weight, rows in parallel,
//!   into one signed AWC code byte ([`StagedCode`]). **Evaluation**
//!   happens once per input: [`StagedMatrix::matvec`] fans rows out
//!   over the work-stealing scheduler, rebuilds each chunk's magnitudes
//!   and crosstalk gains from the per-code tables of one shared
//!   [`ArmStager`], and runs it through the counter-addressed MAC
//!   kernel the convolution engines use ([`ArmStager::mac_indexed`]).
//!   No row waits on another's fabric mutation and no chunk re-tunes a
//!   ring. [`matvec_parallel`] is the one-call case (stage, then
//!   evaluate once); [`OisaAccelerator::run_program_frames`] stages
//!   each dense stage once per program run and evaluates it per frame.
//!   Output, energy, latency, chunk count, errors and fabric exit state
//!   are bit-identical to [`matvec`] under the same seed and epoch.
//!
//! The lookup is exact because a ring's state after a load depends only
//! on its weight code (code → AWC level → detuning → the crosstalk it
//! imposes on its neighbours), and a [`MatVecReport`] carries no tuning
//! energy — the one quantity that depends on a ring's previous
//! operating point. The fabric's recorded tuning state is reproduced
//! separately, by replaying each used arm's last loads.
//!
//! [`OisaAccelerator::run_program_frames`]: crate::accelerator::OisaAccelerator::run_program_frames

use oisa_device::noise::NoiseSource;
use oisa_optics::arm::{ArmConfig, ArmStager, MacResult, StagedCode};
use oisa_optics::opc::Opc;
use oisa_optics::vom::Vom;
use oisa_optics::weights::WeightMapper;
use oisa_units::{Joule, Second};
use serde::{Deserialize, Serialize};

use crate::{scheduler, CoreError, Result};

/// Elements of a dense row executed per arm (the paper's 3×3-sized
/// chunks: nine weights plus the spare slot).
pub const CHUNK: usize = 9;

/// Result of one dense matrix–vector product.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatVecReport {
    /// The output vector, one value per matrix row.
    pub output: Vec<f32>,
    /// Chunks evaluated in total.
    pub chunks: usize,
    /// Total energy (optical + VOM accumulation/re-modulation).
    pub energy: Joule,
    /// Serialized latency over all chunk evaluations.
    pub latency: Second,
}

/// Executes `matrix · input` (row-major `rows × cols` matrix) on the
/// optical fabric, chunking every row across arms and aggregating
/// through the VOM.
///
/// Weights are normalised per call by the joint maximum magnitude;
/// `input` must already be in the VAM's normalised optical domain
/// (`[0, 1]`).
///
/// # Errors
///
/// * [`CoreError::InvalidParameter`] for shape mismatches or
///   out-of-range inputs.
/// * Substrate errors from the optical fabric.
#[allow(clippy::too_many_arguments)]
pub fn matvec(
    opc: &mut Opc,
    vom: &Vom,
    mapper: &WeightMapper,
    matrix: &[f32],
    rows: usize,
    cols: usize,
    input: &[f64],
    noise: &mut NoiseSource,
) -> Result<MatVecReport> {
    validate_matvec(matrix, rows, cols, input)?;
    let (scale, normalised) = normalise_matrix(matrix);
    let arms_per_bank = oisa_optics::bank::ARMS_PER_BANK;
    let epoch = noise.begin_epoch()?;
    let mut output = Vec::with_capacity(rows);
    let mut total_chunks = 0usize;
    let mut energy = Joule::ZERO;
    let mut latency = Second::ZERO;
    let mut partials = Vec::with_capacity(cols.div_ceil(CHUNK));
    for r in 0..rows {
        let row = &normalised[r * cols..(r + 1) * cols];
        let row_stream = noise.slot_stream(epoch, r as u64);
        partials.clear();
        for (ci, (w_chunk, a_chunk)) in row.chunks(CHUNK).zip(input.chunks(CHUNK)).enumerate() {
            // Round-robin chunks over the fabric; each chunk occupies one
            // arm for its evaluation.
            let slot = (total_chunks + ci) % (opc.bank_count() * arms_per_bank);
            let bank = slot / arms_per_bank;
            let arm = slot % arms_per_bank;
            opc.bank_mut(bank)?.load_arm(arm, w_chunk, mapper)?;
            // Counter-based stream per (row, chunk): draws are addressed,
            // not consumed, so chunk evaluation order is immaterial.
            let stream = row_stream.at(ci as u64);
            let result = opc.compute_arm(bank, arm, a_chunk, &mut stream.cursor())?;
            energy += result.optical_energy;
            partials.push(result);
        }
        total_chunks += partials.len();
        let agg = vom.accumulate_and_transmit(&partials)?;
        energy += agg.energy;
        latency += agg.latency;
        output.push((agg.value * f64::from(scale)) as f32);
    }
    Ok(MatVecReport {
        output,
        chunks: total_chunks,
        energy,
        latency,
    })
}

/// Parallel twin of [`matvec`]: stages `matrix` once
/// ([`StagedMatrix::new`]) and evaluates it once
/// (as [`StagedMatrix::matvec`] does) — the one-call case of the
/// staged dense path.
///
/// Output, energy, latency, chunk count, consumed noise epoch, errors
/// and the fabric exit state are bit-identical to [`matvec`] under the
/// same seed and epoch, so the two engines are drop-in interchangeable,
/// including for whatever runs on the fabric afterwards.
///
/// # Errors
///
/// Same contract as [`matvec`].
#[allow(clippy::too_many_arguments)]
pub fn matvec_parallel(
    opc: &mut Opc,
    vom: &Vom,
    mapper: &WeightMapper,
    matrix: &[f32],
    rows: usize,
    cols: usize,
    input: &[f64],
    noise: &mut NoiseSource,
) -> Result<MatVecReport> {
    validate_matvec(matrix, rows, cols, input)?;
    // The serial engine consumes its epoch before touching a weight,
    // so a staging error leaves the noise source where it leaves it.
    let epoch = noise.begin_epoch()?;
    StagedMatrix::new(opc, mapper, matrix, rows, cols)?.evaluate(opc, vom, input, noise, epoch)
}

/// A dense matrix staged for one fabric design: the per-tensor scale
/// and one [`StagedCode`] (signed AWC code, one byte) per weight.
///
/// A dense layer's weights belong to the layer, not to the input, so
/// staging happens once per matrix and evaluation once per input
/// vector: [`StagedMatrix::matvec`] rebuilds each chunk's magnitudes
/// and crosstalk gains from the [`ArmStager`]'s per-code tables and
/// runs it through the counter-addressed kernel
/// ([`ArmStager::mac_indexed`]) — no quantisation, ring tuning or
/// allocation per chunk. Results are bit-identical to [`matvec`],
/// because ring state after a load depends only on the loaded codes.
///
/// The staged form borrows the matrix (the fabric exit-state replay
/// needs its weights) and evaluates only on a fabric of the arm design
/// it was staged for.
#[derive(Debug, Clone)]
pub struct StagedMatrix<'m> {
    matrix: &'m [f32],
    design: ArmConfig,
    rows: usize,
    cols: usize,
    scale: f32,
    stager: ArmStager,
    codes: Vec<StagedCode>,
}

impl<'m> StagedMatrix<'m> {
    /// Stages the row-major `rows × cols` `matrix` for `opc`'s arm
    /// design and `mapper`'s codes, rows in parallel. Consumes no noise
    /// and leaves the fabric untouched.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for a matrix that is not
    /// `rows × cols`; otherwise the first weight error in the order
    /// [`matvec`] meets it (row by row, chunk by chunk, and within a
    /// chunk in `load_weights`' order: a non-finite or out-of-range
    /// weight, then an untunable code).
    pub fn new(
        opc: &Opc,
        mapper: &WeightMapper,
        matrix: &'m [f32],
        rows: usize,
        cols: usize,
    ) -> Result<Self> {
        validate_shape(matrix, rows, cols)?;
        let scale = matrix_scale(matrix);
        let stager = opc.scratch_arm()?.stager(mapper);
        let mut codes = vec![StagedCode::default(); matrix.len()];
        let staged = scheduler::execute(
            codes.chunks_mut(cols).zip(matrix.chunks(cols)).collect(),
            |_, (out, row): (&mut [StagedCode], &[f32])| -> Result<()> {
                let mut normalised = [0.0f64; CHUNK];
                for (out, w_chunk) in out.chunks_mut(CHUNK).zip(row.chunks(CHUNK)) {
                    stager.stage(normalise_chunk(w_chunk, scale, &mut normalised), out)?;
                }
                Ok(())
            },
        );
        staged.into_iter().collect::<Result<()>>()?;
        Ok(Self {
            matrix,
            design: opc.config().arm,
            rows,
            cols,
            scale,
            stager,
            codes,
        })
    }

    /// Evaluates `matrix · input` on the fabric — bit-identical to
    /// [`matvec`] over the staged matrix, consumed noise epoch and
    /// fabric exit state included. Rows fan out over the work-stealing
    /// scheduler; each chunk draws from the `(epoch, row, chunk)`
    /// stream the serial engine would use, and the final reduction
    /// walks rows in order with the serial engine's exact
    /// floating-point grouping.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when `opc`'s arm design is not
    /// the one the matrix was staged for, or `input` is not `cols` long
    /// or leaves `[0, 1]`; substrate errors from the optical fabric.
    pub fn matvec(
        &self,
        opc: &mut Opc,
        vom: &Vom,
        input: &[f64],
        noise: &mut NoiseSource,
    ) -> Result<MatVecReport> {
        if opc.config().arm != self.design {
            return Err(CoreError::InvalidParameter(
                "matrix was staged for a different arm design".into(),
            ));
        }
        validate_input(input, self.cols)?;
        let epoch = noise.begin_epoch()?;
        self.evaluate(opc, vom, input, noise, epoch)
    }

    /// [`StagedMatrix::matvec`] once the input is validated and the
    /// epoch consumed.
    fn evaluate(
        &self,
        opc: &mut Opc,
        vom: &Vom,
        input: &[f64],
        noise: &NoiseSource,
        epoch: u64,
    ) -> Result<MatVecReport> {
        let row_partials: Vec<Vec<MacResult>> = scheduler::execute(
            self.codes.chunks(self.cols).collect(),
            |r, row: &[StagedCode]| {
                let row_stream = noise.slot_stream(epoch, r as u64);
                row.chunks(CHUNK)
                    .zip(input.chunks(CHUNK))
                    .enumerate()
                    .map(|(ci, (codes, a_chunk))| {
                        self.stager
                            .mac_indexed(codes, a_chunk, &row_stream.at(ci as u64), 0)
                    })
                    .collect()
            },
        );
        // Ordered reduction with the serial engine's exact grouping: per
        // row, chunk energies first, then the VOM aggregate.
        let mut output = Vec::with_capacity(self.rows);
        let mut total_chunks = 0usize;
        let mut energy = Joule::ZERO;
        let mut latency = Second::ZERO;
        for partials in row_partials {
            for p in &partials {
                energy += p.optical_energy;
            }
            total_chunks += partials.len();
            let agg = vom.accumulate_and_transmit(&partials)?;
            energy += agg.energy;
            latency += agg.latency;
            output.push((agg.value * f64::from(self.scale)) as f32);
        }

        // Leave the shared fabric exactly as the serial engine would, so
        // the two paths stay interchangeable for whatever runs next.
        replay_exit_state(
            opc,
            self.stager.mapper(),
            self.matrix,
            self.scale,
            self.rows,
            self.cols,
        )?;

        Ok(MatVecReport {
            output,
            chunks: total_chunks,
            energy,
            latency,
        })
    }
}

/// Reproduces the fabric exit state a serial [`matvec`] over the
/// `rows × cols` matrix `matrix` (normalised by `scale`, as
/// [`matrix_scale`] finds it) would leave, without computing anything
/// or consuming noise epochs. The shape must already be validated.
///
/// Ring state after a load depends only on that load's chunk, and an
/// arm's recorded tuning energy/latency only on its previous operating
/// point — so replaying each used arm's final two round-robin loads (in
/// any arm order) reproduces the serial exit state bit-for-bit at a
/// cost bounded by the fabric size, not the chunk count.
///
/// [`matvec_parallel`] runs this after its ordered reduction; the
/// layer-program prewarm
/// ([`OisaAccelerator::prewarm_program`](crate::accelerator::OisaAccelerator::prewarm_program))
/// runs it per dense stage so a shard's first frame sees exactly the
/// steady-state fabric a sequential per-frame loop reaches.
pub(crate) fn replay_exit_state(
    opc: &mut Opc,
    mapper: &WeightMapper,
    matrix: &[f32],
    scale: f32,
    rows: usize,
    cols: usize,
) -> Result<()> {
    let arms_per_bank = oisa_optics::bank::ARMS_PER_BANK;
    let nslots = opc.bank_count() * arms_per_bank;
    let chunks_per_row = cols.div_ceil(CHUNK);
    let total_chunks = rows * chunks_per_row;
    let chunk_of = |g: usize| {
        let start = (g / chunks_per_row) * cols + (g % chunks_per_row) * CHUNK;
        let end = (g / chunks_per_row) * cols + cols.min((g % chunks_per_row) * CHUNK + CHUNK);
        &matrix[start..end]
    };
    let mut staged = [0.0f64; CHUNK];
    for slot in 0..nslots.min(total_chunks) {
        // Serial chunk `g` (row-major) lands on arm `g % nslots`; the
        // last such `g` fixes this arm's final weights, the one before
        // it the operating point that final tuning was paid from.
        let last = slot + ((total_chunks - 1 - slot) / nslots) * nslots;
        let bank = slot / arms_per_bank;
        let arm = slot % arms_per_bank;
        if last >= nslots {
            let chunk = normalise_chunk(chunk_of(last - nslots), scale, &mut staged);
            opc.bank_mut(bank)?.load_arm(arm, chunk, mapper)?;
        }
        let chunk = normalise_chunk(chunk_of(last), scale, &mut staged);
        opc.bank_mut(bank)?.load_arm(arm, chunk, mapper)?;
    }
    Ok(())
}

/// Shape/range validation shared by both matvec engines; range errors
/// report the offending index before any fabric state changes.
fn validate_matvec(matrix: &[f32], rows: usize, cols: usize, input: &[f64]) -> Result<()> {
    validate_shape(matrix, rows, cols)?;
    validate_input(input, cols)
}

/// Checks that `input` holds `cols` activations in `[0, 1]`, naming the
/// first offending index.
fn validate_input(input: &[f64], cols: usize) -> Result<()> {
    if input.len() != cols {
        return Err(CoreError::InvalidParameter(format!(
            "input length {} != cols {cols}",
            input.len()
        )));
    }
    if let Some(i) = input.iter().position(|a| !(0.0..=1.0).contains(a)) {
        return Err(CoreError::InvalidParameter(format!(
            "input activation {} at index {i} outside [0, 1]",
            input[i]
        )));
    }
    Ok(())
}

/// Checks that `matrix` holds exactly `rows × cols` weights, with a
/// checked product: `rows` can arrive from the wire, and a wrapped
/// product would let a huge layer pass as a small one.
pub(crate) fn validate_shape(matrix: &[f32], rows: usize, cols: usize) -> Result<()> {
    if rows.checked_mul(cols) != Some(matrix.len()) || rows == 0 || cols == 0 {
        return Err(CoreError::InvalidParameter(format!(
            "matrix {rows}x{cols} does not match {} elements",
            matrix.len()
        )));
    }
    Ok(())
}

/// The per-tensor scale both engines normalise weights by: the largest
/// weight magnitude (floored so an all-zero matrix stays finite).
pub(crate) fn matrix_scale(matrix: &[f32]) -> f32 {
    matrix
        .iter()
        .fold(0.0f32, |m, w| m.max(w.abs()))
        .max(f32::MIN_POSITIVE)
}

/// The serial oracle's staging: the scale and the whole matrix
/// normalised into `[-1, 1]` f64, one division per element.
fn normalise_matrix(matrix: &[f32]) -> (f32, Vec<f64>) {
    let scale = matrix_scale(matrix);
    let normalised = matrix.iter().map(|&w| f64::from(w / scale)).collect();
    (scale, normalised)
}

/// Normalises one chunk into `buf` with [`normalise_matrix`]'s exact
/// per-element arithmetic, returning the filled prefix.
fn normalise_chunk<'b>(chunk: &[f32], scale: f32, buf: &'b mut [f64; CHUNK]) -> &'b [f64] {
    let out = &mut buf[..chunk.len()];
    for (o, &w) in out.iter_mut().zip(chunk) {
        *o = f64::from(w / scale);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use oisa_device::noise::{NoiseConfig, NoiseSource};
    use oisa_optics::opc::OpcConfig;
    use oisa_optics::vom::VomConfig;

    fn fabric() -> (Opc, Vom, WeightMapper) {
        let cfg = OpcConfig {
            banks: 2,
            columns: 1,
            awc_units: 10,
            arm: ArmConfig::no_crosstalk(),
        };
        (
            Opc::new(cfg).unwrap(),
            Vom::new(VomConfig::paper_default()).unwrap(),
            WeightMapper::ideal(4).unwrap(),
        )
    }

    fn quiet() -> NoiseSource {
        NoiseSource::seeded(0, NoiseConfig::noiseless())
    }

    #[test]
    fn matvec_matches_reference() {
        let (mut opc, vom, mapper) = fabric();
        // 3×12 matrix → each row spans 2 chunks.
        let rows = 3;
        let cols = 12;
        let matrix: Vec<f32> = (0..rows * cols).map(|i| (i as f32 * 0.37).sin()).collect();
        let input: Vec<f64> = (0..cols).map(|i| (i as f64) / cols as f64).collect();
        let report = matvec(
            &mut opc,
            &vom,
            &mapper,
            &matrix,
            rows,
            cols,
            &input,
            &mut quiet(),
        )
        .unwrap();
        assert_eq!(report.output.len(), rows);
        assert_eq!(report.chunks, rows * 2);
        for r in 0..rows {
            let exact: f64 = (0..cols)
                .map(|c| f64::from(matrix[r * cols + c]) * input[c])
                .sum();
            let got = f64::from(report.output[r]);
            assert!(
                (got - exact).abs() < 0.25,
                "row {r}: got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn large_row_chunk_count() {
        let (mut opc, vom, mapper) = fabric();
        // One 784-wide row (an MNIST-sized MLP input) → 88 chunks.
        let cols = 784;
        let matrix = vec![0.01f32; cols];
        let input = vec![0.5f64; cols];
        let report = matvec(
            &mut opc,
            &vom,
            &mapper,
            &matrix,
            1,
            cols,
            &input,
            &mut quiet(),
        )
        .unwrap();
        assert_eq!(report.chunks, 88);
        let exact = 0.01 * 0.5 * cols as f64;
        assert!(
            (f64::from(report.output[0]) - exact).abs() < 0.4,
            "got {} exact {exact}",
            report.output[0]
        );
    }

    #[test]
    fn energy_and_latency_scale_with_rows() {
        let (mut opc, vom, mapper) = fabric();
        let cols = 18;
        let run = |opc: &mut Opc, rows: usize| {
            let matrix = vec![0.1f32; rows * cols];
            let input = vec![0.5f64; cols];
            matvec(
                opc,
                &vom,
                &mapper,
                &matrix,
                rows,
                cols,
                &input,
                &mut quiet(),
            )
            .unwrap()
        };
        let one = run(&mut opc, 1);
        let four = run(&mut opc, 4);
        assert!(four.energy.get() > 3.0 * one.energy.get());
        assert!(four.latency.get() > 3.0 * one.latency.get());
    }

    #[test]
    fn parallel_matvec_bit_identical_to_serial() {
        // Force real worker threads so the claim is exercised even on
        // single-CPU hosts.
        let _guard = crate::test_sync::thread_count_lock();
        rayon::set_num_threads(4);
        let (mut opc, vom, mapper) = fabric();
        // 7×23: ragged final chunk, rows spanning 3 chunks.
        let rows = 7;
        let cols = 23;
        let matrix: Vec<f32> = (0..rows * cols).map(|i| (i as f32 * 0.13).sin()).collect();
        let input: Vec<f64> = (0..cols)
            .map(|i| (i as f64 * 0.37).sin().abs().min(1.0))
            .collect();
        let mut serial_noise = NoiseSource::seeded(42, NoiseConfig::paper_default());
        let mut parallel_noise = NoiseSource::seeded(42, NoiseConfig::paper_default());
        let serial = matvec(
            &mut opc,
            &vom,
            &mapper,
            &matrix,
            rows,
            cols,
            &input,
            &mut serial_noise,
        )
        .unwrap();
        let mut par_opc = {
            let (opc, _, _) = fabric();
            opc
        };
        let parallel = matvec_parallel(
            &mut par_opc,
            &vom,
            &mapper,
            &matrix,
            rows,
            cols,
            &input,
            &mut parallel_noise,
        )
        .unwrap();
        assert_eq!(serial, parallel, "reports must be bit-identical");
        // And the fabric exits in the serial engine's exact state, so
        // the engines stay interchangeable for whatever runs next.
        assert_eq!(
            opc, par_opc,
            "fabric exit state must match the serial engine"
        );
    }

    /// Runs serial `matvec` and `matvec_parallel` on fresh fabrics and
    /// equal noise sources, asserting bit-identical reports (or
    /// errors), noise cursors and fabric exit states; returns the
    /// parallel engine's fabric and noise for follow-up calls.
    fn assert_engines_agree(
        cfg: OpcConfig,
        mapper: &WeightMapper,
        matrix: &[f32],
        rows: usize,
        cols: usize,
        input: &[f64],
    ) -> (Result<MatVecReport>, Opc, NoiseSource) {
        let vom = Vom::new(VomConfig::paper_default()).unwrap();
        let (mut serial_opc, mut parallel_opc) = (Opc::new(cfg).unwrap(), Opc::new(cfg).unwrap());
        let mut serial_noise = NoiseSource::seeded(42, NoiseConfig::paper_default());
        let mut parallel_noise = serial_noise.clone();
        let serial = matvec(
            &mut serial_opc,
            &vom,
            mapper,
            matrix,
            rows,
            cols,
            input,
            &mut serial_noise,
        );
        let parallel = matvec_parallel(
            &mut parallel_opc,
            &vom,
            mapper,
            matrix,
            rows,
            cols,
            input,
            &mut parallel_noise,
        );
        assert_eq!(
            serial, parallel,
            "reports (or errors) must be bit-identical"
        );
        assert_eq!(serial_noise.next_epoch(), parallel_noise.next_epoch());
        if serial.is_ok() {
            assert_eq!(serial_opc, parallel_opc, "fabric exit state must match");
        }
        (parallel, parallel_opc, parallel_noise)
    }

    #[test]
    fn staged_matvec_bit_identical_on_edge_weights() {
        let _guard = crate::test_sync::thread_count_lock();
        rayon::set_num_threads(3);
        let cfg = OpcConfig {
            banks: 2,
            columns: 1,
            awc_units: 10,
            arm: ArmConfig::paper_default(),
        };
        // 6×23: every row ends in a ragged 5-weight chunk, and 18
        // chunks wrap round the 10-arm fabric.
        let (rows, cols) = (6, 23);
        let input: Vec<f64> = (0..cols).map(|i| [0.022, 0.511, 1.0, 0.0][i % 4]).collect();
        for mapper in [
            WeightMapper::ideal(1).unwrap(),
            WeightMapper::ideal(2).unwrap(),
            WeightMapper::ideal(4).unwrap(),
            WeightMapper::paper(3).unwrap(),
        ] {
            // Max-magnitude weights pin the scale at 1, so each weight
            // below normalises to itself: signed zeros, full scale and
            // the f32s on and around every quantisation half-step.
            let levels = f64::from((1u16 << mapper.bits()) - 1);
            let mut edge = vec![-0.0f32, 0.0, 1.0, -1.0];
            for k in 0..(1u16 << mapper.bits()) - 1 {
                let half = ((f64::from(k) + 0.5) / levels) as f32;
                for w in [half, half.next_up(), half.next_down()] {
                    edge.extend([w, -w]);
                }
            }
            let matrix: Vec<f32> = (0..rows * cols)
                .map(|i| edge.get(i).copied().unwrap_or((i as f32 * 0.13).sin()))
                .collect();
            let (first, mut opc, mut noise) =
                assert_engines_agree(cfg, &mapper, &matrix, rows, cols, &input);
            assert!(first.is_ok(), "{first:?}");

            // Staged once, evaluated twice: each call equals a serial
            // call on the fabric and epoch it starts from.
            let vom = Vom::new(VomConfig::paper_default()).unwrap();
            let staged = StagedMatrix::new(&opc, &mapper, &matrix, rows, cols).unwrap();
            for _ in 0..2 {
                let (mut serial_opc, mut serial_noise) = (opc.clone(), noise.clone());
                let serial = matvec(
                    &mut serial_opc,
                    &vom,
                    &mapper,
                    &matrix,
                    rows,
                    cols,
                    &input,
                    &mut serial_noise,
                )
                .unwrap();
                let report = staged.matvec(&mut opc, &vom, &input, &mut noise).unwrap();
                assert_eq!(serial, report);
                assert_eq!(serial_opc, opc);
                assert_eq!(serial_noise.next_epoch(), noise.next_epoch());
            }
            // A fabric of another arm design is refused, not evaluated.
            let mut other = Opc::new(OpcConfig {
                arm: ArmConfig::no_crosstalk(),
                ..cfg
            })
            .unwrap();
            assert!(matches!(
                staged.matvec(&mut other, &vom, &input, &mut noise),
                Err(CoreError::InvalidParameter(_))
            ));
        }
    }

    #[test]
    fn staging_errors_match_serial_and_leave_the_engine_usable() {
        use oisa_device::awc::{AwcLadder, AwcModel, AwcParams};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let cfg = OpcConfig {
            banks: 2,
            columns: 1,
            awc_units: 10,
            arm: ArmConfig::paper_default(),
        };
        let (rows, cols) = (4, 20);
        let input = vec![0.511f64; cols];
        let good: Vec<f32> = (0..rows * cols).map(|i| (i as f32 * 0.29).cos()).collect();

        // A NaN in row 2, chunk 1 — after an untunable-free prefix.
        let mapper = WeightMapper::ideal(4).unwrap();
        let mut nan = good.clone();
        nan[2 * cols + 11] = f32::NAN;
        let (err, mut opc, mut noise) =
            assert_engines_agree(cfg, &mapper, &nan, rows, cols, &input);
        assert!(matches!(err, Err(CoreError::Substrate(_))), "{err:?}");
        // The failed call consumed its epoch, as the serial engine's
        // does; the next call equals a fresh engine's at that epoch.
        let vom = Vom::new(VomConfig::paper_default()).unwrap();
        let mut fresh_opc = Opc::new(cfg).unwrap();
        let mut fresh_noise = NoiseSource::seeded(42, NoiseConfig::paper_default());
        fresh_noise.begin_epoch().unwrap();
        let run = |opc: &mut Opc, noise: &mut NoiseSource| {
            matvec_parallel(opc, &vom, &mapper, &good, rows, cols, &input, noise).unwrap()
        };
        assert_eq!(
            run(&mut opc, &mut noise),
            run(&mut fresh_opc, &mut fresh_noise)
        );
        assert_eq!(opc, fresh_opc);

        // An untunable code: a mismatched ladder whose top code
        // overshoots full scale. Full-scale weights (code 3) sit in
        // row 1 only; a NaN later in the same chunk wins, as in
        // `load_weights`.
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
        let mut untunable = vec![0.3f32; rows * cols];
        untunable[cols + 12] = 1.0;
        let (err, _, _) = assert_engines_agree(cfg, &mapper, &untunable, rows, cols, &input);
        assert!(matches!(err, Err(CoreError::Substrate(_))), "{err:?}");
        untunable[cols + 15] = f32::NAN;
        let (err, _, _) = assert_engines_agree(cfg, &mapper, &untunable, rows, cols, &input);
        assert!(err.unwrap_err().to_string().contains("NaN"));
    }

    #[test]
    fn parallel_matvec_validates_like_serial() {
        let (mut opc, vom, mapper) = fabric();
        let mut noise = quiet();
        assert!(
            matvec_parallel(&mut opc, &vom, &mapper, &[0.1; 6], 2, 4, &[0.5; 4], &mut noise)
                .is_err()
        );
        // A row count whose product with `cols` wraps to the matrix
        // length is still a shape mismatch.
        let wrapped_rows = usize::MAX / 4 + 2;
        assert_eq!(wrapped_rows.wrapping_mul(4), 4);
        assert!(matches!(
            matvec_parallel(
                &mut opc,
                &vom,
                &mapper,
                &[0.1; 4],
                wrapped_rows,
                4,
                &[0.5; 4],
                &mut noise
            ),
            Err(CoreError::InvalidParameter(_))
        ));
        let mut input = vec![0.5f64; 12];
        input[4] = -0.3;
        let err = matvec_parallel(
            &mut opc, &vom, &mapper, &[0.1; 12], 1, 12, &input, &mut noise,
        )
        .unwrap_err();
        assert!(err.to_string().contains("index 4"));
    }

    #[test]
    fn out_of_range_input_reports_index() {
        let (mut opc, vom, mapper) = fabric();
        let mut input = vec![0.5f64; 12];
        input[7] = 1.7;
        let err = matvec(
            &mut opc,
            &vom,
            &mapper,
            &[0.1; 12],
            1,
            12,
            &input,
            &mut quiet(),
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("index 7"), "must name the index: {msg}");
    }

    #[test]
    fn shape_validation() {
        let (mut opc, vom, mapper) = fabric();
        let err = matvec(
            &mut opc,
            &vom,
            &mapper,
            &[0.1; 6],
            2,
            4,
            &[0.5; 4],
            &mut quiet(),
        );
        assert!(err.is_err());
        let err = matvec(
            &mut opc,
            &vom,
            &mapper,
            &[0.1; 8],
            2,
            4,
            &[0.5; 3],
            &mut quiet(),
        );
        assert!(err.is_err());
        let err = matvec(&mut opc, &vom, &mapper, &[], 0, 0, &[], &mut quiet());
        assert!(err.is_err());
    }
}
