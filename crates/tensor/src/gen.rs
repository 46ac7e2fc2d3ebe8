//! Seeded random tensor generators.
//!
//! The paper evaluates pruned checkpoints (Table IV); we substitute
//! synthetic tensors with the same densities (Table IV's weight and
//! activation sparsity columns, per benchmark). Two generation flavours
//! match the two sparsity sources the paper names:
//!
//! * **weight pruning** — unstructured magnitude pruning leaves an
//!   (approximately) i.i.d. Bernoulli nonzero pattern over the weight
//!   tensor ([`TensorGen::pruned_weights`]),
//! * **ReLU** — activations are zero wherever the pre-activation was
//!   negative, which for a roughly sign-symmetric distribution is again an
//!   element-wise i.i.d. pattern ([`TensorGen::relu_activations`]).
//!
//! All generators are deterministic given the seed so that experiments are
//! exactly reproducible.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::mask::SparsityMask;
use crate::matrix::Matrix;

/// A deterministic tensor generator.
///
/// ```
/// use griffin_tensor::gen::TensorGen;
/// let mut g1 = TensorGen::seeded(42);
/// let mut g2 = TensorGen::seeded(42);
/// let a = g1.pruned_weights(32, 32, 0.25);
/// let b = g2.pruned_weights(32, 32, 0.25);
/// assert_eq!(a, b); // same seed, same tensor
/// ```
#[derive(Debug, Clone)]
pub struct TensorGen {
    rng: SmallRng,
}

impl TensorGen {
    /// Creates a generator from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        TensorGen {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Clamped density: probabilities are silently clipped into `[0, 1]`
    /// so sweep code can pass computed values without ceremony.
    fn clamp_density(density: f64) -> f64 {
        density.clamp(0.0, 1.0)
    }

    /// A nonzero INT8 value, uniform over `[-127, 127] \ {0}`.
    fn nonzero_value(&mut self) -> i8 {
        loop {
            let v = self.rng.gen_range(-127i16..=127) as i8;
            if v != 0 {
                return v;
            }
        }
    }

    /// An i.i.d. Bernoulli mask with the given nonzero probability.
    pub fn bernoulli_mask(&mut self, rows: usize, cols: usize, density: f64) -> SparsityMask {
        let p = Self::clamp_density(density);
        // `gen_bool` consumes no randomness at p = 1.0 (it
        // short-circuits), so the dense case can skip the element loop
        // without perturbing the RNG stream — workload builders draw
        // many fully-dense operand masks.
        if p >= 1.0 {
            return SparsityMask::ones(rows, cols);
        }
        let mut m = SparsityMask::zeros(rows, cols);
        // Row-major element order is plain linear bit order; accumulate
        // whole words locally instead of read-modify-writing per bit.
        // Draw order is identical to the per-element loop.
        let total = rows * cols;
        let words = m.bits_mut();
        for (wi, word) in words.iter_mut().enumerate() {
            let bits_here = 64.min(total - wi * 64);
            let mut w = 0u64;
            for b in 0..bits_here {
                if self.rng.gen_bool(p) {
                    w |= 1u64 << b;
                }
            }
            *word = w;
        }
        m
    }

    /// Synthetic magnitude-pruned weight matrix (`K × N` for a layer) with
    /// the given density of nonzeros.
    pub fn pruned_weights(&mut self, rows: usize, cols: usize, density: f64) -> Matrix<i8> {
        self.masked_values(rows, cols, density)
    }

    /// Synthetic post-ReLU activation matrix (`M × K`) with the given
    /// density of nonzeros. Nonzero values are positive, as ReLU outputs.
    pub fn relu_activations(&mut self, rows: usize, cols: usize, density: f64) -> Matrix<i8> {
        let p = Self::clamp_density(density);
        let mut m = Matrix::<i8>::zeros(rows, cols).expect("validated dims");
        for r in 0..rows {
            for c in 0..cols {
                if self.rng.gen_bool(p) {
                    m[(r, c)] = self.rng.gen_range(1i16..=127) as i8;
                }
            }
        }
        m
    }

    /// A fully dense random INT8 matrix (every element nonzero) — the
    /// `DNN.dense` case (swish / GeLU activations, unpruned weights).
    pub fn dense(&mut self, rows: usize, cols: usize) -> Matrix<i8> {
        let mut m = Matrix::<i8>::zeros(rows, cols).expect("validated dims");
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = self.nonzero_value();
            }
        }
        m
    }

    /// Matrix whose nonzero pattern is Bernoulli(`density`) and whose
    /// nonzero values are uniform nonzero INT8.
    fn masked_values(&mut self, rows: usize, cols: usize, density: f64) -> Matrix<i8> {
        let p = Self::clamp_density(density);
        let mut m = Matrix::<i8>::zeros(rows, cols).expect("validated dims");
        for r in 0..rows {
            for c in 0..cols {
                if self.rng.gen_bool(p) {
                    m[(r, c)] = self.nonzero_value();
                }
            }
        }
        m
    }

    /// A standard-normal draw (Box–Muller, avoids a rand_distr
    /// dependency).
    fn standard_normal(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A mask whose density varies per row and per column around the
    /// target mean: `p(r, c) = clamp(density · f_r · g_c)` with
    /// log-normal row/column factors of the given spreads.
    ///
    /// This models what real pruned weight and post-ReLU activation
    /// tensors look like: some input channels (`k` indices) are far
    /// denser than others, which is precisely the load imbalance the
    /// paper's shuffler and `d2`/`d3` routing exist to fix (§III "Load
    /// Balancing"). I.i.d. masks have statistically identical lanes and
    /// would make those mechanisms look useless.
    pub fn channel_varied_mask(
        &mut self,
        rows: usize,
        cols: usize,
        density: f64,
        row_spread: f64,
        col_spread: f64,
    ) -> SparsityMask {
        let p = Self::clamp_density(density);
        let row_f: Vec<f64> = (0..rows)
            .map(|_| (self.standard_normal() * row_spread - row_spread * row_spread / 2.0).exp())
            .collect();
        let col_f: Vec<f64> = (0..cols)
            .map(|_| (self.standard_normal() * col_spread - col_spread * col_spread / 2.0).exp())
            .collect();
        let mut m = SparsityMask::zeros(rows, cols);
        for (r, rf) in row_f.iter().enumerate() {
            for (c, cf) in col_f.iter().enumerate() {
                let pp = (p * rf * cf).clamp(0.0, 1.0);
                if self.rng.gen_bool(pp) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    /// A mask with *block-correlated* density variation along the
    /// reduction (`k`) axis: `k` positions are grouped into contiguous
    /// blocks of `k_block` (one block per filter patch, `R·S` entries for
    /// an `R×S` convolution, or per channel group), and every block draws
    /// one log-normal density factor with standard deviation `k_spread`;
    /// the other axis draws milder per-index factors (`other_spread`).
    ///
    /// This is the structure real magnitude-pruned conv weights and
    /// im2col'd post-ReLU activations exhibit — whole channels are pruned
    /// or dead while others stay dense. Because `R·S` (9) is coprime to
    /// the lane count `K0` (16), dense blocks precess across lanes and
    /// create the *quasi-persistent lane imbalance* that the paper's
    /// shuffler and `d2` routing mitigate (§III "Load Balancing").
    ///
    /// `k_axis_is_rows` is `true` for weight matrices (`K × N`) and
    /// `false` for activation matrices (`M × K`).
    pub fn block_varied_mask(
        &mut self,
        rows: usize,
        cols: usize,
        density: f64,
        k_block: usize,
        k_spread: f64,
        k_axis_is_rows: bool,
    ) -> SparsityMask {
        let p = Self::clamp_density(density);
        let k_len = if k_axis_is_rows { rows } else { cols };
        let other_len = if k_axis_is_rows { cols } else { rows };
        let block = k_block.max(1);
        let other_spread = k_spread * 0.3;

        let lognormal = |g: &mut Self, s: f64| (g.standard_normal() * s - s * s / 2.0).exp();
        let block_f: Vec<f64> = (0..k_len.div_ceil(block))
            .map(|_| lognormal(self, k_spread))
            .collect();
        let other_f: Vec<f64> = (0..other_len)
            .map(|_| lognormal(self, other_spread))
            .collect();

        let mut m = SparsityMask::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let (k_idx, o_idx) = if k_axis_is_rows { (r, c) } else { (c, r) };
                let pp = (p * block_f[k_idx / block] * other_f[o_idx]).clamp(0.0, 1.0);
                if self.rng.gen_bool(pp) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    /// A mask with *channel-minor* per-channel density variation: the
    /// reduction axis enumerates `k = spatial · Cin + cin` (NHWC /
    /// channels-last im2col, the layout of mobile NPUs including the
    /// paper's), and every input channel `cin` draws one log-normal
    /// density factor with standard deviation `spread`.
    ///
    /// When `Cin` is a multiple of the lane count `K0`, the lane of an
    /// element is `cin mod K0`, so per-channel variation becomes
    /// *persistent per-lane load imbalance* — the precise effect the
    /// paper's rotation shuffler and `d2` routing mitigate (§III "Load
    /// Balancing", observations 3-4 of §VI-A).
    ///
    /// `k_axis_is_rows` is `true` for weight matrices (`K × N`) and
    /// `false` for activation matrices (`M × K`).
    pub fn channel_minor_mask(
        &mut self,
        rows: usize,
        cols: usize,
        density: f64,
        cin: usize,
        spread: f64,
        k_axis_is_rows: bool,
    ) -> SparsityMask {
        let p = Self::clamp_density(density);
        let cin = cin.max(1);
        let lognormal = |g: &mut Self, s: f64| (g.standard_normal() * s - s * s / 2.0).exp();
        let chan_f: Vec<f64> = (0..cin).map(|_| lognormal(self, spread)).collect();
        let other_len = if k_axis_is_rows { cols } else { rows };
        let other_f: Vec<f64> = (0..other_len)
            .map(|_| lognormal(self, spread * 0.3))
            .collect();

        // Clamping per-element probabilities into [0, 1] biases the mean
        // density downward (heavy log-normal tails saturate); calibrate a
        // global gain so the realized mean matches the target. The mean
        // is evaluated on the deterministic factor grid (subsampled along
        // the non-channel axis for speed).
        let stride = (other_len / 512).max(1);
        let mut gain = 1.0f64;
        if p > 0.0 && p < 1.0 {
            for _ in 0..4 {
                let mut sum = 0.0;
                let mut count = 0usize;
                for f in &chan_f {
                    for g in other_f.iter().step_by(stride) {
                        sum += (p * gain * f * g).clamp(0.0, 1.0);
                        count += 1;
                    }
                }
                let mean = sum / count as f64;
                if mean <= 0.0 {
                    break;
                }
                // Saturated (clamped) channels cannot rise further, so
                // the required gain may exceed 1/p; cap only to keep the
                // loop numerically tame.
                gain = (gain * p / mean).min(100.0);
            }
        }

        let mut m = SparsityMask::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let (k_idx, o_idx) = if k_axis_is_rows { (r, c) } else { (c, r) };
                let pp = (p * gain * chan_f[k_idx % cin] * other_f[o_idx]).clamp(0.0, 1.0);
                if self.rng.gen_bool(pp) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    /// A mask with *clustered* (bursty) sparsity: runs of nonzeros along
    /// rows. Used by robustness tests to show the load-balancing value of
    /// shuffling under a non-i.i.d. distribution, which the paper calls
    /// "unstructured" imbalance.
    pub fn clustered_mask(
        &mut self,
        rows: usize,
        cols: usize,
        density: f64,
        mean_run: usize,
    ) -> SparsityMask {
        let p = Self::clamp_density(density);
        let run = mean_run.max(1);
        let mut m = SparsityMask::zeros(rows, cols);
        for r in 0..rows {
            let mut c = 0;
            while c < cols {
                if self.rng.gen_bool(p) {
                    let len = self.rng.gen_range(1..=2 * run).min(cols - c);
                    for cc in c..c + len {
                        m.set(r, cc, true);
                    }
                    c += len + 1;
                } else {
                    c += run;
                }
            }
        }
        m
    }

    /// A fresh sub-generator whose stream is independent of subsequent
    /// draws on `self`. Handy for per-layer seeding.
    pub fn fork(&mut self) -> TensorGen {
        TensorGen::seeded(self.rng.gen())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_given_seed() {
        let a = TensorGen::seeded(1).bernoulli_mask(16, 16, 0.5);
        let b = TensorGen::seeded(1).bernoulli_mask(16, 16, 0.5);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = TensorGen::seeded(1).bernoulli_mask(32, 32, 0.5);
        let b = TensorGen::seeded(2).bernoulli_mask(32, 32, 0.5);
        assert_ne!(a, b);
    }

    #[test]
    fn density_is_respected_in_expectation() {
        let m = TensorGen::seeded(3).bernoulli_mask(128, 128, 0.2);
        let d = m.density();
        assert!((d - 0.2).abs() < 0.02, "density {d} too far from 0.2");
    }

    #[test]
    fn pruned_weights_have_target_density() {
        let w = TensorGen::seeded(4).pruned_weights(100, 100, 0.11);
        assert!((w.density() - 0.11).abs() < 0.03);
    }

    #[test]
    fn relu_activations_are_nonnegative() {
        let a = TensorGen::seeded(5).relu_activations(64, 64, 0.5);
        assert!(a.as_slice().iter().all(|&v| v >= 0));
        assert!((a.density() - 0.5).abs() < 0.05);
    }

    #[test]
    fn dense_matrix_has_no_zeros() {
        let d = TensorGen::seeded(6).dense(32, 32);
        assert_eq!(d.nnz(), 32 * 32);
    }

    #[test]
    fn density_extremes() {
        let empty = TensorGen::seeded(7).bernoulli_mask(16, 16, 0.0);
        assert_eq!(empty.nnz(), 0);
        let full = TensorGen::seeded(7).bernoulli_mask(16, 16, 1.0);
        assert_eq!(full.nnz(), 256);
        // Out-of-range densities are clamped, not rejected.
        let clamped = TensorGen::seeded(7).bernoulli_mask(8, 8, 1.7);
        assert_eq!(clamped.nnz(), 64);
    }

    #[test]
    fn channel_varied_mask_keeps_mean_density() {
        let m = TensorGen::seeded(21).channel_varied_mask(512, 512, 0.2, 0.5, 0.2);
        let d = m.density();
        assert!((d - 0.2).abs() < 0.04, "density {d} too far from 0.2");
    }

    #[test]
    fn channel_varied_mask_rows_really_vary() {
        let m = TensorGen::seeded(22).channel_varied_mask(256, 256, 0.2, 0.6, 0.0);
        let row_nnz = m.row_nnz();
        let min = *row_nnz.iter().min().unwrap() as f64;
        let max = *row_nnz.iter().max().unwrap() as f64;
        assert!(
            max > 2.0 * (min + 1.0),
            "rows too uniform: min {min} max {max}"
        );
    }

    #[test]
    fn zero_spread_reduces_to_bernoulli_statistics() {
        let m = TensorGen::seeded(23).channel_varied_mask(256, 256, 0.3, 0.0, 0.0);
        assert!((m.density() - 0.3).abs() < 0.02);
    }

    #[test]
    fn clustered_mask_hits_rough_density() {
        let m = TensorGen::seeded(8).clustered_mask(256, 256, 0.4, 4);
        let d = m.density();
        assert!(
            d > 0.1 && d < 0.9,
            "clustered density {d} out of plausible band"
        );
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut g = TensorGen::seeded(9);
        let mut f1 = g.fork();
        let mut f2 = g.fork();
        assert_ne!(
            f1.bernoulli_mask(16, 16, 0.5),
            f2.bernoulli_mask(16, 16, 0.5)
        );
    }
}
