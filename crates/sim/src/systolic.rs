//! A bit-true, cycle-counted functional model of the BPVeC systolic array
//! (paper §III-C).
//!
//! The overall architecture is a 2-D array of CVUs: every CVU reads a vector
//! of weights from its private scratchpad, input vectors are shared across
//! the CVUs of a row, and scalar outputs aggregate down the columns into
//! 64-bit accumulators. This module executes that dataflow exactly, two
//! ways:
//!
//! * [`SystolicArray::gemm`] — the element-at-a-time validation path: every
//!   dot-product goes through [`bpvec_core::Cvu`], slicing scalars one by
//!   one. Exact, slow, kept as the ground truth the fast path is pinned to.
//! * [`SystolicArray::gemm_packed`] — the execution path: operands arrive
//!   pre-decomposed as [`PackedSliceMatrix`] bit planes (weights once at
//!   load, activations once per layer, by the caller), and each block of
//!   output rows streams whole planes through the word-level popcount
//!   kernels — the lane micro-kernel for GEMMs, the per-dot kernel for
//!   GEMVs. Identical outputs, identical cycle accounting, orders of
//!   magnitude faster — fast enough to run full Table I networks bit-true.

use bpvec_core::{kernels, BitWidth, CoreError, Cvu, CvuConfig, PackedSliceMatrix, Signedness};
use bpvec_dnn::Tensor;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Rows of `A` per rayon macro-tile in [`SystolicArray::gemm_packed`] — the
/// outermost (thread-level) tier of the schedule. Small enough that
/// row-heavy GEMMs still fan out across threads, large enough that each
/// task amortizes its per-task set-up.
pub const MACRO_ROW_BLOCK: usize = 32;

/// Which schedule [`SystolicArray::gemm_packed`] runs for an operand pair
/// (see [`bpvec_core::kernels::uses_lanes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GemmPath {
    /// The lane micro-kernel: `B` prepared once per GEMM, each macro-tile's
    /// `A` rows extracted into lane panels of one SIMD vector of rows.
    Lanes,
    /// The per-dot kernel, one output at a time: GEMVs (fewer than
    /// [`bpvec_core::kernels::LANE_MIN_COLS`] columns) on a SIMD tier, and
    /// every shape on the scalar tier.
    PerDot,
}

/// The schedule [`SystolicArray::gemm_packed`] runs for one operand pair —
/// reported so execution traces can show how a layer was blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedTileGeometry {
    /// The kernel path the GEMM takes.
    pub path: GemmPath,
    /// Rows of `A` per rayon macro-tile ([`MACRO_ROW_BLOCK`], clamped).
    pub row_block: usize,
    /// Macro-tiles the GEMM fans out over threads.
    pub macro_row_tiles: u64,
    /// Lane panels the macro-tiles walk (each one SIMD vector of `A`
    /// rows against every column); 0 on the per-dot path.
    pub lane_panels: u64,
}

/// Computes the schedule [`SystolicArray::gemm_packed`] runs for `a · b`
/// on the active kernel tier: the path, the macro-row fan-out and, on the
/// lane path, the lane panels.
#[must_use]
pub fn packed_tile_geometry(a: &PackedSliceMatrix, b: &PackedSliceMatrix) -> PackedTileGeometry {
    let tier = kernels::active_tier();
    let m = a.num_vecs();
    let row_block = MACRO_ROW_BLOCK.min(m.max(1));
    let macro_row_tiles = m.div_ceil(row_block) as u64;
    let (path, lane_panels) = if kernels::uses_lanes(tier, b.num_vecs()) {
        let lanes = tier.lane_words();
        let full = (m / row_block) * row_block.div_ceil(lanes);
        (
            GemmPath::Lanes,
            (full + (m % row_block).div_ceil(lanes)) as u64,
        )
    } else {
        (GemmPath::PerDot, 0)
    };
    PackedTileGeometry {
        path,
        row_block,
        macro_row_tiles,
        lane_panels,
    }
}

/// Geometry of the systolic array: `rows × cols` CVUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrayConfig {
    /// CVU rows (parallel output neurons / output channels).
    pub rows: usize,
    /// CVU columns (parallel positions sharing the same weights).
    pub cols: usize,
    /// Per-CVU geometry.
    pub cvu: CvuConfig,
}

impl ArrayConfig {
    /// An 8×8 array of paper-default CVUs — 64 CVUs × 16 lanes = 1024
    /// MAC-equivalents, the Table II BPVeC configuration.
    #[must_use]
    pub fn paper_default() -> Self {
        ArrayConfig {
            rows: 8,
            cols: 8,
            cvu: CvuConfig::paper_default(),
        }
    }
}

/// Result of executing a GEMM on the systolic array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GemmRun {
    /// The output matrix `[m, n]`.
    pub output: Tensor,
    /// Cycles consumed, including pipeline fill/drain.
    pub cycles: u64,
    /// Operand-level MACs performed.
    pub macs: u64,
}

impl GemmRun {
    /// Sustained MACs per cycle over the run.
    #[must_use]
    pub fn macs_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.macs as f64 / self.cycles as f64
        }
    }
}

/// A systolic array of CVUs.
#[derive(Debug, Clone)]
pub struct SystolicArray {
    config: ArrayConfig,
    cvu: Cvu,
}

impl SystolicArray {
    /// Builds the array.
    #[must_use]
    pub fn new(config: ArrayConfig) -> Self {
        SystolicArray {
            cvu: Cvu::new(config.cvu),
            config,
        }
    }

    /// The array configuration.
    #[must_use]
    pub fn config(&self) -> &ArrayConfig {
        &self.config
    }

    /// Executes `C[m,n] = A[m,k] · B[k,n]` bit-true on the array.
    ///
    /// Mapping (weight-stationary): rows of `A` (e.g. output channels'
    /// weight vectors) map to CVU rows, columns of `B` (e.g. output pixels)
    /// map to CVU columns; each CVU computes a full `k`-length dot-product
    /// in `ceil(k / (clusters·L))` beats. The array needs
    /// `ceil(m/rows) · ceil(n/cols)` tile passes, plus `rows + cols` fill
    /// and drain cycles per pass (systolic skew).
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] when operands exceed the declared bitwidths
    /// or the composition cannot fit the CVU.
    pub fn gemm(
        &self,
        a: &Tensor,
        b: &Tensor,
        bits_a: BitWidth,
        bits_b: BitWidth,
        signedness: Signedness,
    ) -> Result<GemmRun, CoreError> {
        let (ash, bsh) = (a.shape(), b.shape());
        assert_eq!(ash.len(), 2, "A must be [m, k]");
        assert_eq!(bsh.len(), 2, "B must be [k, n]");
        assert_eq!(ash[1], bsh[0], "inner dimensions must agree");
        let (m, k, n) = (ash[0], ash[1], bsh[1]);
        let mut output = Tensor::zeros(&[m, n]);
        let mut cycles = 0u64;
        let mut macs = 0u64;
        let row_tiles = m.div_ceil(self.config.rows.max(1));
        let col_tiles = n.div_ceil(self.config.cols.max(1));

        for rt in 0..row_tiles {
            for ct in 0..col_tiles {
                let mut pass_beats = 0u64;
                for r in 0..self.config.rows {
                    let i = rt * self.config.rows + r;
                    if i >= m {
                        continue;
                    }
                    let a_row: Vec<i32> = (0..k).map(|p| a[&[i, p]]).collect();
                    for c in 0..self.config.cols {
                        let j = ct * self.config.cols + c;
                        if j >= n {
                            continue;
                        }
                        let b_col: Vec<i32> = (0..k).map(|p| b[&[p, j]]).collect();
                        let out = self
                            .cvu
                            .dot_product(&a_row, &b_col, bits_a, bits_b, signedness)?;
                        output[&[i, j]] =
                            i32::try_from(out.value).expect("quantized GEMM results fit i32");
                        pass_beats = pass_beats.max(out.cycles);
                        macs += k as u64;
                    }
                }
                // All CVUs of the pass run in lockstep: the pass takes the
                // longest dot-product plus the systolic fill/drain skew.
                cycles += pass_beats + (self.config.rows + self.config.cols) as u64;
            }
        }
        Ok(GemmRun {
            output,
            cycles,
            macs,
        })
    }

    /// Executes `C[m,n] = A[m,k] · B[k,n]` bit-true from packed bit planes.
    ///
    /// `a` holds the `m` rows of `A` (e.g. output channels' weight vectors)
    /// and `b` the `n` columns of `B` (e.g. im2col patches), both
    /// decomposed once by the caller — via
    /// [`PackedSliceMatrix::pack_rows`]/[`pack_cols`](PackedSliceMatrix::pack_cols)
    /// or `bpvec-dnn`'s `pack_gemm_rows`/`pack_gemm_cols` — and reused
    /// across every output tile here (and across calls: weights are packed
    /// once, at load, and serve every job and every recurrent timestep).
    ///
    /// The array mapping and cycle accounting are identical to
    /// [`SystolicArray::gemm`]: rows of `A` to CVU rows, columns of `B` to
    /// CVU columns, `ceil(k / (clusters·L))` beats per tile pass plus
    /// `rows + cols` systolic skew. The *compute* is driven by a
    /// schedule decoupled from the modeled array tile walk (the cycle model
    /// above is analytical, so the host-side schedule is free to chase
    /// cache locality):
    ///
    /// * **register tier** — the dispatched kernel
    ///   ([`bpvec_core::kernels::active_tier`]: AVX-512 `vpopcntq`, AVX2
    ///   vpshufb-popcount, or scalar SWAR). On a SIMD tier with at least
    ///   [`bpvec_core::kernels::LANE_MIN_COLS`] columns it is the lane
    ///   micro-kernel: one SIMD vector of `A` rows across the lanes, each
    ///   `B` column's dense sub-plane words broadcast against them, one
    ///   accumulator per significance held in registers and shifted once
    ///   per output ([`PackedSliceMatrix::dot_block_lanes_into`]). GEMVs and
    ///   the scalar tier run one dot at a time
    ///   ([`PackedSliceMatrix::dot_block_into`]);
    /// * **operand tier** — on the lane path, `B` is prepared once per call
    ///   ([`PackedSliceMatrix::prepare_cols`]) and shared by every
    ///   macro-tile, and each macro-tile extracts its own `A` rows into lane
    ///   panels;
    /// * **thread tier** — row macro-tiles of [`MACRO_ROW_BLOCK`] rows fan
    ///   out rayon-parallel.
    ///
    /// [`packed_tile_geometry`] reports which path a call takes.
    ///
    /// Every output scalar is Equation 4 through the word-level slice
    /// kernels, bit-identical to the per-element path on every dispatch
    /// tier (pinned by tests).
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] when the packed bitwidths cannot compose on
    /// this CVU geometry.
    ///
    /// # Panics
    ///
    /// Panics if the operands disagree in inner length, or were packed at a
    /// slice width other than this array's CVU slicing (operands must be
    /// packed for the hardware that consumes them).
    pub fn gemm_packed(
        &self,
        a: &PackedSliceMatrix,
        b: &PackedSliceMatrix,
    ) -> Result<GemmRun, CoreError> {
        assert_eq!(a.len(), b.len(), "inner dimensions must agree");
        assert_eq!(
            a.slice_width(),
            self.config.cvu.slice_width,
            "operands must be packed at the array's slice width"
        );
        assert_eq!(
            b.slice_width(),
            self.config.cvu.slice_width,
            "operands must be packed at the array's slice width"
        );
        let composition = self.cvu.compose(a.width(), b.width())?;
        let (m, k, n) = (a.num_vecs(), a.len(), b.num_vecs());
        // Spans stay unclamped so a degenerate 0-row/0-column geometry
        // behaves exactly like the per-element path (no CVUs, no work, only
        // skew); the clamp applies to the tile count alone, as in `gemm`.
        let (rows, cols) = (self.config.rows, self.config.cols);
        let row_tiles = m.div_ceil(rows.max(1));
        let col_tiles = n.div_ceil(cols.max(1));
        // All CVUs of a pass run in lockstep: ceil(k / (clusters·L)) beats,
        // plus fill/drain skew — exactly the per-element path's accounting
        // (a pass with no active CVUs, from empty operands or a degenerate
        // geometry, runs zero beats).
        let chunk_per_cycle = composition.clusters() * self.config.cvu.lanes;
        let beats = if k == 0 || rows == 0 || cols == 0 {
            0
        } else {
            k.div_ceil(chunk_per_cycle) as u64
        };
        let cycles = (row_tiles * col_tiles) as u64 * (beats + (rows + cols) as u64);

        let mut output = Tensor::zeros(&[m, n]);
        // A degenerate 0-row/0-column geometry computes nothing on either
        // path — all-zero output, zero MACs, skew-only cycles.
        if rows == 0 || cols == 0 || m == 0 || n == 0 {
            return Ok(GemmRun {
                output,
                cycles,
                macs: 0,
            });
        }
        // Macro-tiles of A rows fan out rayon-parallel, each computing into
        // a scratch block and narrowing it into its own output rows; on the
        // lane path they share B, prepared once (see the tiers in the doc
        // above).
        let tier = kernels::active_tier();
        let geo = packed_tile_geometry(a, b);
        let cols = (geo.path == GemmPath::Lanes).then(|| b.prepare_cols());
        output
            .as_mut_slice()
            .par_chunks_mut(geo.row_block * n)
            .enumerate()
            .for_each(|(t, out)| {
                let lo = t * geo.row_block;
                let rows = lo..lo + out.len() / n;
                let mut block = vec![0i64; out.len()];
                match &cols {
                    Some(cols) => a.dot_block_lanes_into(tier, rows, cols, &mut block),
                    None => a.dot_block_into(tier, rows, b, &mut block),
                }
                for (o, v) in out.iter_mut().zip(block) {
                    *o = i32::try_from(v).expect("quantized GEMM results fit i32");
                }
            });
        // MACs are charged per *computed* output (matching `gemm`, which
        // only counts outputs a CVU actually produced).
        let macs = (m * n) as u64 * k as u64;
        Ok(GemmRun {
            output,
            cycles,
            macs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpvec_dnn::reference;
    use rand::{Rng, SeedableRng};

    fn small_array() -> SystolicArray {
        SystolicArray::new(ArrayConfig {
            rows: 4,
            cols: 4,
            cvu: CvuConfig::paper_default(),
        })
    }

    fn random_matrix(rng: &mut impl Rng, m: usize, n: usize, lo: i32, hi: i32) -> Tensor {
        Tensor::from_fn(&[m, n], |_| rng.gen_range(lo..=hi))
    }

    #[test]
    fn gemm_matches_reference_8bit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let a = random_matrix(&mut rng, 9, 33, -128, 127);
        let b = random_matrix(&mut rng, 33, 10, -128, 127);
        let run = small_array()
            .gemm(&a, &b, BitWidth::INT8, BitWidth::INT8, Signedness::Signed)
            .unwrap();
        assert_eq!(run.output, reference::gemm(&a, &b));
        assert_eq!(run.macs, 9 * 33 * 10);
    }

    #[test]
    fn gemm_matches_reference_mixed_bitwidths() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let a = random_matrix(&mut rng, 5, 40, -128, 127);
        let b = random_matrix(&mut rng, 40, 6, -2, 1);
        let run = small_array()
            .gemm(&a, &b, BitWidth::INT8, BitWidth::INT2, Signedness::Signed)
            .unwrap();
        assert_eq!(run.output, reference::gemm(&a, &b));
    }

    #[test]
    fn narrow_bitwidths_cut_cycles() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let a8 = random_matrix(&mut rng, 4, 256, -8, 7);
        let b8 = random_matrix(&mut rng, 256, 4, -8, 7);
        let arr = small_array();
        let run8 = arr
            .gemm(&a8, &b8, BitWidth::INT8, BitWidth::INT8, Signedness::Signed)
            .unwrap();
        let run4 = arr
            .gemm(&a8, &b8, BitWidth::INT4, BitWidth::INT4, Signedness::Signed)
            .unwrap();
        assert_eq!(run4.output, run8.output);
        assert!(
            run4.cycles < run8.cycles,
            "4-bit {} !< 8-bit {}",
            run4.cycles,
            run8.cycles
        );
    }

    #[test]
    fn cycle_model_matches_analytical_formula() {
        // One full tile, k = 64, 8-bit: beats = ceil(64/16) = 4 per pass
        // plus rows+cols skew.
        let arr = small_array();
        let a = Tensor::zeros(&[4, 64]);
        let b = Tensor::zeros(&[64, 4]);
        let run = arr
            .gemm(&a, &b, BitWidth::INT8, BitWidth::INT8, Signedness::Signed)
            .unwrap();
        assert_eq!(run.cycles, 4 + 8);
    }

    #[test]
    fn multiple_tiles_accumulate_cycles() {
        let arr = small_array();
        let a = Tensor::zeros(&[8, 16]);
        let b = Tensor::zeros(&[16, 8]);
        let run = arr
            .gemm(&a, &b, BitWidth::INT8, BitWidth::INT8, Signedness::Signed)
            .unwrap();
        // 2x2 tile passes, each 1 beat + 8 skew.
        assert_eq!(run.cycles, 4 * 9);
    }

    #[test]
    fn paper_array_sustains_near_peak_on_large_gemm() {
        let arr = SystolicArray::new(ArrayConfig::paper_default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let a = random_matrix(&mut rng, 32, 512, -16, 15);
        let b = random_matrix(&mut rng, 512, 32, -16, 15);
        let run = arr
            .gemm(&a, &b, BitWidth::INT8, BitWidth::INT8, Signedness::Signed)
            .unwrap();
        // Peak = 64 CVUs x 16 lanes = 1024 MACs/cycle; skew costs some.
        let sustained = run.macs_per_cycle();
        assert!(
            sustained > 0.6 * 1024.0,
            "sustained {sustained} too far from peak"
        );
        assert_eq!(run.output, reference::gemm(&a, &b));
    }

    #[test]
    fn packed_qkt_matches_dot_exact_for_every_width_and_signedness() {
        use bpvec_core::dotprod::dot_exact;
        // The attention score kernel QK^T, exhaustively: every operand
        // BitWidth (1..=8) × Signedness combination on both sides, each
        // output scalar checked against the exact dot product of the raw
        // operand vectors — on a GEMV-narrow shape (per-dot path) and on a
        // shape past the lane cut-over whose rows end in a partial lane
        // panel and whose head_dim ends mid dense word.
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let arr = small_array();
        let sw = arr.config().cvu.slice_width;
        for (q_len, head_dim, kv_len) in [(5, 24, 6), (13, 70, 9)] {
            for wq in 1..=8u32 {
                for wk in 1..=8u32 {
                    for sq in [Signedness::Signed, Signedness::Unsigned] {
                        for sk in [Signedness::Signed, Signedness::Unsigned] {
                            let bq = BitWidth::new(wq).unwrap();
                            let bk = BitWidth::new(wk).unwrap();
                            let (qlo, qhi) = bq.range(sq);
                            let (klo, khi) = bk.range(sk);
                            let q = random_matrix(&mut rng, q_len, head_dim, qlo, qhi);
                            let kt = random_matrix(&mut rng, head_dim, kv_len, klo, khi);
                            let pq = q.pack_rows(bq, sw, sq).unwrap();
                            let pk = kt.pack_cols(bk, sw, sk).unwrap();
                            let run = arr.gemm_packed(&pq, &pk).unwrap();
                            for i in 0..q_len {
                                for j in 0..kv_len {
                                    let qrow: Vec<i32> =
                                        (0..head_dim).map(|t| q[&[i, t]]).collect();
                                    let kcol: Vec<i32> =
                                        (0..head_dim).map(|t| kt[&[t, j]]).collect();
                                    let want = dot_exact(&qrow, &kcol).unwrap();
                                    assert_eq!(
                                        i64::from(run.output[&[i, j]]),
                                        want,
                                        "[{q_len},{head_dim}]x[{head_dim},{kv_len}] \
                                         Q {wq}b {sq:?} × K {wk}b {sk:?} at ({i},{j})"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Packs `a`'s rows and `b`'s columns at the array's slicing.
    fn pack_operands(
        arr: &SystolicArray,
        a: &Tensor,
        b: &Tensor,
        bits_a: BitWidth,
        bits_b: BitWidth,
    ) -> (PackedSliceMatrix, PackedSliceMatrix) {
        let sw = arr.config().cvu.slice_width;
        let pa = a.pack_rows(bits_a, sw, Signedness::Signed).unwrap();
        let pb = b.pack_cols(bits_b, sw, Signedness::Signed).unwrap();
        (pa, pb)
    }

    #[test]
    fn packed_gemm_is_bit_and_cycle_identical_to_per_element_path() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let arr = small_array();
        // Shapes straddling tile boundaries, mixed operand widths.
        for (m, k, n, ba, bb) in [
            (9, 33, 10, BitWidth::INT8, BitWidth::INT8),
            (5, 40, 6, BitWidth::INT8, BitWidth::INT2),
            (4, 64, 4, BitWidth::INT4, BitWidth::INT4),
            (1, 7, 13, BitWidth::INT2, BitWidth::INT8),
            (
                8,
                16,
                8,
                BitWidth::new(3).unwrap(),
                BitWidth::new(5).unwrap(),
            ),
        ] {
            let (alo, ahi) = ba.range(Signedness::Signed);
            let (blo, bhi) = bb.range(Signedness::Signed);
            let a = random_matrix(&mut rng, m, k, alo, ahi);
            let b = random_matrix(&mut rng, k, n, blo, bhi);
            let slow = arr.gemm(&a, &b, ba, bb, Signedness::Signed).unwrap();
            let (pa, pb) = pack_operands(&arr, &a, &b, ba, bb);
            let fast = arr.gemm_packed(&pa, &pb).unwrap();
            assert_eq!(fast.output, slow.output, "[{m},{k}]x[{k},{n}] {ba}x{bb}");
            assert_eq!(fast.cycles, slow.cycles, "[{m},{k}]x[{k},{n}] {ba}x{bb}");
            assert_eq!(fast.macs, slow.macs, "[{m},{k}]x[{k},{n}] {ba}x{bb}");
        }
    }

    #[test]
    fn packed_gemm_degenerate_shapes_match() {
        let arr = small_array();
        for (m, k, n) in [(3, 0, 2), (1, 1, 1)] {
            let a = Tensor::zeros(&[m, k]);
            let b = Tensor::zeros(&[k, n]);
            let slow = arr
                .gemm(&a, &b, BitWidth::INT8, BitWidth::INT8, Signedness::Signed)
                .unwrap();
            let (pa, pb) = pack_operands(&arr, &a, &b, BitWidth::INT8, BitWidth::INT8);
            let fast = arr.gemm_packed(&pa, &pb).unwrap();
            assert_eq!(fast, slow, "[{m},{k}]x[{k},{n}]");
        }
    }

    #[test]
    fn packed_gemm_degenerate_geometry_matches() {
        // A 0-row (or 0-column) array computes nothing on either path —
        // same all-zero output, same skew-only cycles, same zero MACs.
        for (rows, cols) in [(0usize, 4usize), (4, 0)] {
            let arr = SystolicArray::new(ArrayConfig {
                rows,
                cols,
                cvu: CvuConfig::paper_default(),
            });
            let a = Tensor::from_fn(&[3, 8], |i| (i[0] + i[1]) as i32);
            let b = Tensor::from_fn(&[8, 2], |i| (i[0] * 2 + i[1]) as i32);
            let slow = arr
                .gemm(&a, &b, BitWidth::INT8, BitWidth::INT8, Signedness::Signed)
                .unwrap();
            let (pa, pb) = pack_operands(&arr, &a, &b, BitWidth::INT8, BitWidth::INT8);
            let fast = arr.gemm_packed(&pa, &pb).unwrap();
            assert_eq!(fast, slow, "{rows}x{cols} array");
        }
    }

    #[test]
    #[should_panic(expected = "packed at the array's slice width")]
    fn packed_gemm_rejects_foreign_slicing() {
        let arr = small_array(); // 2-bit slicing
        let a = Tensor::zeros(&[2, 8]);
        let pa = a
            .pack_rows(
                BitWidth::INT8,
                bpvec_core::SliceWidth::BIT4,
                Signedness::Signed,
            )
            .unwrap();
        let _ = arr.gemm_packed(&pa, &pa);
    }

    #[test]
    fn conv_as_gemm_matches_reference_conv() {
        // im2col lowering: conv output == GEMM of [oc, ic*k*k] x [ic*k*k, oh*ow].
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (ic, oc, k, h) = (3usize, 4usize, 3usize, 6usize);
        let input = Tensor::from_fn(&[ic, h, h], |_| rng.gen_range(-8..=7));
        let weights = Tensor::from_fn(&[oc, ic, k, k], |_| rng.gen_range(-8..=7));
        let conv_out = reference::conv2d(&input, &weights, (1, 1), (0, 0));
        let oh = h - k + 1;
        // Build the im2col matrix.
        let cols = Tensor::from_fn(&[ic * k * k, oh * oh], |idx| {
            let (row, col) = (idx[0], idx[1]);
            let c = row / (k * k);
            let ky = (row / k) % k;
            let kx = row % k;
            let oy = col / oh;
            let ox = col % oh;
            input[&[c, oy + ky, ox + kx]]
        });
        let mut wmat = weights.clone();
        wmat.reshape(&[oc, ic * k * k]);
        let run = small_array()
            .gemm(
                &wmat,
                &cols,
                BitWidth::INT4,
                BitWidth::INT4,
                Signedness::Signed,
            )
            .unwrap();
        let mut expect = conv_out;
        expect.reshape(&[oc, oh * oh]);
        assert_eq!(run.output, expect);
    }
}
