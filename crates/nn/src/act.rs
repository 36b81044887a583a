//! Fast, deterministic gate activations.
//!
//! The recurrent gate loops evaluate a sigmoid or tanh for every hidden
//! unit of every timestep — roughly `6·H·T` transcendentals per scored
//! second of audio. `f32::tanh`/`f32::exp` lower to scalar libm calls,
//! which profiling showed cost as much as the recurrent matrix products
//! themselves. The versions here are branch-free polynomial kernels, so
//! the element-wise gate loops that call them auto-vectorize.
//!
//! [`tanh`] is the classic single-precision minimax rational
//! approximation (an odd 13th-degree numerator over a 6th-degree
//! denominator in `x²`, the same form used by Eigen and XLA), clamped
//! to the range where `tanh` is exactly `±1` at `f32` precision.
//! [`sigmoid`] is derived from it through the identity
//! `σ(x) = (1 + tanh(x/2)) / 2`.
//!
//! Both functions are pure and branch-free, so results are identical
//! on every target, and every engine path — training forward,
//! inference, and the BPTT derivative formulas (which differentiate
//! through cached activation *values*) — shares these definitions.

/// Largest `|x|` the rational approximation is evaluated at; beyond it
/// `tanh(x)` is within one `f32` ulp of `±1` and the clamped value is
/// returned instead.
const CLAMP: f32 = 7.905_311_5;

/// Odd-power numerator coefficients, highest degree first.
const NUM: [f32; 7] = [
    -2.760_768_5e-16,
    2.000_188e-13,
    -8.604_672e-11,
    5.122_297_1e-8,
    1.485_722_4e-5,
    6.372_619_3e-4,
    4.893_525_6e-3,
];

/// Even-power denominator coefficients, highest degree first.
const DEN: [f32; 4] = [1.198_258_4e-6, 1.185_347_1e-4, 2.268_434_6e-3, 4.893_525e-3];

/// Hyperbolic tangent via a minimax rational approximation, accurate to
/// a few `f32` ulps over the whole real line.
///
/// # Example
///
/// ```
/// let y = thrubarrier_nn::act::tanh(0.5);
/// assert!((y - 0.5f32.tanh()).abs() < 1e-6);
/// ```
#[inline]
pub fn tanh(x: f32) -> f32 {
    let x = x.clamp(-CLAMP, CLAMP);
    let x2 = x * x;
    let mut p = NUM[0];
    for &a in &NUM[1..] {
        p = p * x2 + a;
    }
    let mut q = DEN[0];
    for &b in &DEN[1..] {
        q = q * x2 + b;
    }
    (x * p) / q
}

/// Logistic sigmoid `1 / (1 + e^(-x))`, computed as
/// `(1 + tanh(x/2)) / 2` so it shares [`tanh`]'s kernel.
///
/// # Example
///
/// ```
/// let y = thrubarrier_nn::act::sigmoid(0.0);
/// assert!((y - 0.5).abs() < 1e-6);
/// ```
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    0.5 * tanh(0.5 * x) + 0.5
}

/// In-place [`tanh`] over a slice — bitwise identical to mapping the
/// scalar function, but eight elements wide on AVX2 machines. The gate
/// loops are bound by the rational kernel's division throughput, so
/// doubling the division width is a direct win.
#[inline]
pub fn tanh_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check above.
        unsafe { tanh_slice_avx2(xs) };
        return;
    }
    for x in xs {
        *x = tanh(*x);
    }
}

/// In-place [`sigmoid`] over a slice; see [`tanh_slice`].
#[inline]
pub fn sigmoid_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check above.
        unsafe { sigmoid_slice_avx2(xs) };
        return;
    }
    for x in xs {
        *x = sigmoid(*x);
    }
}

/// Fused activation sweep over a packed `[i, f, g, o]` LSTM gate row:
/// sigmoid on `[..2H]` (input and forget gates), [`tanh`] on
/// `[2H..3H]` (cell candidate), sigmoid on `[3H..]` (output gate) — in
/// a single pass over the `4H` buffer.
///
/// Every element receives exactly the operation sequence of the scalar
/// [`tanh`]/[`sigmoid`] functions, so the result is bitwise identical
/// to three separate [`sigmoid_slice`]/[`tanh_slice`] calls. What the
/// fusion buys is one runtime feature dispatch instead of three, one
/// inlined loop body over the whole row, and no per-slice sub-lane
/// remainder tails when `H` is lane-aligned — which matters because
/// this runs once per timestep per sequence in both the training cell
/// and the batched inference row loop.
///
/// # Panics
///
/// Panics if `zs.len() != 4 * hl`.
///
/// # Example
///
/// ```
/// let hl = 3;
/// let mut fused: Vec<f32> = (0..4 * hl).map(|i| i as f32 * 0.3 - 1.7).collect();
/// let mut sliced = fused.clone();
/// thrubarrier_nn::act::gates_fused(&mut fused, hl);
/// thrubarrier_nn::act::sigmoid_slice(&mut sliced[..2 * hl]);
/// thrubarrier_nn::act::tanh_slice(&mut sliced[2 * hl..3 * hl]);
/// thrubarrier_nn::act::sigmoid_slice(&mut sliced[3 * hl..]);
/// assert_eq!(fused, sliced);
/// ```
#[inline]
pub fn gates_fused(zs: &mut [f32], hl: usize) {
    assert_eq!(zs.len(), 4 * hl, "gate buffer must be 4·H wide");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check above.
        unsafe { gates_fused_avx2(zs, hl) };
        return;
    }
    let (sig_lo, rest) = zs.split_at_mut(2 * hl);
    let (tanh_mid, sig_hi) = rest.split_at_mut(hl);
    for x in sig_lo {
        *x = sigmoid(*x);
    }
    for x in tanh_mid {
        *x = tanh(*x);
    }
    for x in sig_hi {
        *x = sigmoid(*x);
    }
}

/// AVX2 body of [`gates_fused`]: one walk over the `4H` row, switching
/// the lane op at the two region boundaries. Full eight-lane chunks use
/// [`tanh_lanes`] (directly for the candidate region, through the
/// `0.5 · tanh(0.5x) + 0.5` identity for the sigmoid regions); the up
/// to seven elements before each boundary fall back to the scalar
/// kernels, which are lane-for-lane bitwise identical.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gates_fused_avx2(zs: &mut [f32], hl: usize) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    let half = _mm256_set1_ps(0.5);
    let (b1, b2, n) = (2 * hl, 3 * hl, 4 * hl);
    let mut i = 0;
    while i < n {
        let (end, is_tanh) = if i < b1 {
            (b1, false)
        } else if i < b2 {
            (b2, true)
        } else {
            (n, false)
        };
        while i + 8 <= end {
            // SAFETY: `i + 8 <= end <= n == zs.len()`.
            let x = unsafe { _mm256_loadu_ps(zs.as_ptr().add(i)) };
            let y = if is_tanh {
                tanh_lanes(x)
            } else {
                let t = tanh_lanes(_mm256_mul_ps(half, x));
                _mm256_add_ps(_mm256_mul_ps(half, t), half)
            };
            // SAFETY: as above.
            unsafe { _mm256_storeu_ps(zs.as_mut_ptr().add(i), y) };
            i += 8;
        }
        while i < end {
            zs[i] = if is_tanh { tanh(zs[i]) } else { sigmoid(zs[i]) };
            i += 1;
        }
    }
}

/// Eight-wide [`tanh`]: the same clamp, polynomial-evaluation and
/// division sequence as the scalar kernel, so every lane's result is
/// bitwise identical to `tanh(x)` (IEEE min/max/mul/add/div round the
/// same way at any vector width; no FMA contraction is used).
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn tanh_slice_avx2(xs: &mut [f32]) {
    use std::arch::x86_64::{_mm256_loadu_ps, _mm256_storeu_ps};
    let mut chunks = xs.chunks_exact_mut(8);
    for chunk in &mut chunks {
        // SAFETY: `chunk` is exactly eight elements.
        let x = unsafe { _mm256_loadu_ps(chunk.as_ptr()) };
        let y = tanh_lanes(x);
        unsafe { _mm256_storeu_ps(chunk.as_mut_ptr(), y) };
    }
    for x in chunks.into_remainder() {
        *x = tanh(*x);
    }
}

/// Eight-wide [`sigmoid`], mirroring the scalar identity exactly.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sigmoid_slice_avx2(xs: &mut [f32]) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    let half = _mm256_set1_ps(0.5);
    let mut chunks = xs.chunks_exact_mut(8);
    for chunk in &mut chunks {
        // SAFETY: `chunk` is exactly eight elements.
        let x = unsafe { _mm256_loadu_ps(chunk.as_ptr()) };
        let t = tanh_lanes(_mm256_mul_ps(half, x));
        let y = _mm256_add_ps(_mm256_mul_ps(half, t), half);
        unsafe { _mm256_storeu_ps(chunk.as_mut_ptr(), y) };
    }
    for x in chunks.into_remainder() {
        *x = sigmoid(*x);
    }
}

/// Lane-parallel body of [`tanh`]; op-for-op the scalar sequence.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn tanh_lanes(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_div_ps, _mm256_max_ps, _mm256_min_ps, _mm256_mul_ps, _mm256_set1_ps,
    };
    let x = _mm256_min_ps(
        _mm256_max_ps(x, _mm256_set1_ps(-CLAMP)),
        _mm256_set1_ps(CLAMP),
    );
    let x2 = _mm256_mul_ps(x, x);
    let mut p = _mm256_set1_ps(NUM[0]);
    for &a in &NUM[1..] {
        p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(a));
    }
    let mut q = _mm256_set1_ps(DEN[0]);
    for &b in &DEN[1..] {
        q = _mm256_add_ps(_mm256_mul_ps(q, x2), _mm256_set1_ps(b));
    }
    _mm256_div_ps(_mm256_mul_ps(x, p), q)
}

/// Fused LSTM gate-gradient sweep — the backward mirror of
/// [`gates_fused`]. One pass over the packed `[i, f, g, o]` row turns
/// the incoming hidden/cell gradients into the four pre-activation gate
/// gradients and the cell gradient carried to the previous step:
///
/// * `gates` — the cached post-activation gate row (`4H`).
/// * `tanh_c` — cached `tanh(c_t)` (`H`).
/// * `c_prev` — previous cell state (`H`).
/// * `dh` — loss gradient w.r.t. `h_t`, already summed over the
///   sequence output and the next step's recurrent contribution (`H`).
/// * `dc` — in: gradient w.r.t. `c_t` arriving from the next step; out:
///   gradient w.r.t. `c_{t-1}` (`H`).
/// * `dz` — out: pre-activation gate gradients in gate-row order
///   (`4H`).
///
/// Every arithmetic step is an element-wise IEEE multiply, add or
/// subtract in exactly the order of the per-gate scalar formulas in the
/// unfused backward — no fused multiply-add, no cross-lane reduction —
/// so the scalar and AVX2 bodies are bitwise identical to the
/// reference loop. The fusion buys the same things as the forward
/// sweep: one dispatch, one pass over the row, and vector-width
/// evaluation of what the unfused path computes one scalar gate at a
/// time.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `hl`.
pub fn lstm_gates_backward_fused(
    gates: &[f32],
    tanh_c: &[f32],
    c_prev: &[f32],
    dh: &[f32],
    dc: &mut [f32],
    dz: &mut [f32],
    hl: usize,
) {
    assert_eq!(gates.len(), 4 * hl, "gate row must be 4·H wide");
    assert_eq!(dz.len(), 4 * hl, "gate gradient row must be 4·H wide");
    assert_eq!(tanh_c.len(), hl, "tanh(c) length mismatch");
    assert_eq!(c_prev.len(), hl, "c_prev length mismatch");
    assert_eq!(dh.len(), hl, "dh length mismatch");
    assert_eq!(dc.len(), hl, "dc length mismatch");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check above.
        unsafe { lstm_gates_backward_avx2(gates, tanh_c, c_prev, dh, dc, dz, hl) };
        return;
    }
    lstm_gates_backward_scalar(gates, tanh_c, c_prev, dh, dc, dz, hl, 0, hl);
}

/// Portable body of [`lstm_gates_backward_fused`] over lanes
/// `k0..k1` — the literal per-gate scalar formulas.
#[allow(clippy::too_many_arguments)]
fn lstm_gates_backward_scalar(
    gates: &[f32],
    tanh_c: &[f32],
    c_prev: &[f32],
    dh: &[f32],
    dc: &mut [f32],
    dz: &mut [f32],
    hl: usize,
    k0: usize,
    k1: usize,
) {
    for k in k0..k1 {
        let (gi, gf, gg, go) = (
            gates[k],
            gates[hl + k],
            gates[2 * hl + k],
            gates[3 * hl + k],
        );
        let dhv = dh[k];
        let dcv = dc[k] + dhv * go * (1.0 - tanh_c[k] * tanh_c[k]);
        let d_o = dhv * tanh_c[k];
        let d_i = dcv * gg;
        let d_f = dcv * c_prev[k];
        let d_g = dcv * gi;
        dz[k] = d_i * gi * (1.0 - gi);
        dz[hl + k] = d_f * gf * (1.0 - gf);
        dz[2 * hl + k] = d_g * (1.0 - gg * gg);
        dz[3 * hl + k] = d_o * go * (1.0 - go);
        dc[k] = dcv * gf;
    }
}

/// AVX2 body of [`lstm_gates_backward_fused`]: eight lanes per
/// iteration, each lane running the scalar formula op for op (multiply,
/// add and subtract only — element-wise IEEE ops round identically at
/// any vector width), with the sub-8 remainder on the scalar body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn lstm_gates_backward_avx2(
    gates: &[f32],
    tanh_c: &[f32],
    c_prev: &[f32],
    dh: &[f32],
    dc: &mut [f32],
    dz: &mut [f32],
    hl: usize,
) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
        _mm256_sub_ps,
    };
    let one = _mm256_set1_ps(1.0);
    let mut k = 0;
    while k + 8 <= hl {
        // SAFETY: `k + 8 <= hl` bounds every strided offset below
        // (`k`, `hl + k`, `2·hl + k`, `3·hl + k`) inside its slice.
        unsafe {
            let gi = _mm256_loadu_ps(gates.as_ptr().add(k));
            let gf = _mm256_loadu_ps(gates.as_ptr().add(hl + k));
            let gg = _mm256_loadu_ps(gates.as_ptr().add(2 * hl + k));
            let go = _mm256_loadu_ps(gates.as_ptr().add(3 * hl + k));
            let tc = _mm256_loadu_ps(tanh_c.as_ptr().add(k));
            let cp = _mm256_loadu_ps(c_prev.as_ptr().add(k));
            let dhv = _mm256_loadu_ps(dh.as_ptr().add(k));
            let dcn = _mm256_loadu_ps(dc.as_ptr().add(k));
            let dcv = _mm256_add_ps(
                dcn,
                _mm256_mul_ps(
                    _mm256_mul_ps(dhv, go),
                    _mm256_sub_ps(one, _mm256_mul_ps(tc, tc)),
                ),
            );
            let d_o = _mm256_mul_ps(dhv, tc);
            let d_i = _mm256_mul_ps(dcv, gg);
            let d_f = _mm256_mul_ps(dcv, cp);
            let d_g = _mm256_mul_ps(dcv, gi);
            _mm256_storeu_ps(
                dz.as_mut_ptr().add(k),
                _mm256_mul_ps(_mm256_mul_ps(d_i, gi), _mm256_sub_ps(one, gi)),
            );
            _mm256_storeu_ps(
                dz.as_mut_ptr().add(hl + k),
                _mm256_mul_ps(_mm256_mul_ps(d_f, gf), _mm256_sub_ps(one, gf)),
            );
            _mm256_storeu_ps(
                dz.as_mut_ptr().add(2 * hl + k),
                _mm256_mul_ps(d_g, _mm256_sub_ps(one, _mm256_mul_ps(gg, gg))),
            );
            _mm256_storeu_ps(
                dz.as_mut_ptr().add(3 * hl + k),
                _mm256_mul_ps(_mm256_mul_ps(d_o, go), _mm256_sub_ps(one, go)),
            );
            _mm256_storeu_ps(dc.as_mut_ptr().add(k), _mm256_mul_ps(dcv, gf));
        }
        k += 8;
    }
    lstm_gates_backward_scalar(gates, tanh_c, c_prev, dh, dc, dz, hl, k, hl);
}

/// Fused GRU gate-gradient sweep over a packed `[z, r, n]` gate row —
/// the GRU counterpart of [`lstm_gates_backward_fused`]:
///
/// * `gates` — cached post-activation gate row (`3H`).
/// * `un_h` — cached recurrent candidate projection `U_n·h_{t-1} + b`
///   rows (`H`).
/// * `h_prev` — previous hidden state (`H`).
/// * `dh` — in: loss gradient w.r.t. `h_t`, already summed over the
///   sequence output and the next step's recurrent contribution; out:
///   the *direct* part `dh·z` of the gradient w.r.t. `h_{t-1}` (the
///   `Uᵀ`-projected part is accumulated on top by the caller's GEMM)
///   (`H`).
/// * `dz` — out: pre-activation gate gradients for the `W` path (`3H`).
/// * `dz_u` — out: gate gradients for the `U` path, identical except
///   the candidate column is scaled by the reset gate (`3H`).
///
/// Element-wise multiply/add/subtract only, in the unfused loop's exact
/// order — bitwise identical across the scalar and AVX2 bodies.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `hl`.
pub fn gru_gates_backward_fused(
    gates: &[f32],
    un_h: &[f32],
    h_prev: &[f32],
    dh: &mut [f32],
    dz: &mut [f32],
    dz_u: &mut [f32],
    hl: usize,
) {
    assert_eq!(gates.len(), 3 * hl, "gate row must be 3·H wide");
    assert_eq!(dz.len(), 3 * hl, "gate gradient row must be 3·H wide");
    assert_eq!(dz_u.len(), 3 * hl, "U-side gradient row must be 3·H wide");
    assert_eq!(un_h.len(), hl, "U·h length mismatch");
    assert_eq!(h_prev.len(), hl, "h_prev length mismatch");
    assert_eq!(dh.len(), hl, "dh length mismatch");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check above.
        unsafe { gru_gates_backward_avx2(gates, un_h, h_prev, dh, dz, dz_u, hl) };
        return;
    }
    gru_gates_backward_scalar(gates, un_h, h_prev, dh, dz, dz_u, hl, 0, hl);
}

/// Portable body of [`gru_gates_backward_fused`] over lanes `k0..k1`.
#[allow(clippy::too_many_arguments)]
fn gru_gates_backward_scalar(
    gates: &[f32],
    un_h: &[f32],
    h_prev: &[f32],
    dh: &mut [f32],
    dz: &mut [f32],
    dz_u: &mut [f32],
    hl: usize,
    k0: usize,
    k1: usize,
) {
    for k in k0..k1 {
        let (gz, grt, gn) = (gates[k], gates[hl + k], gates[2 * hl + k]);
        let dhv = dh[k];
        let d_z = dhv * (h_prev[k] - gn);
        let d_n = dhv * (1.0 - gz);
        let dz_pre = d_z * gz * (1.0 - gz);
        let dn_pre = d_n * (1.0 - gn * gn);
        let d_r = dn_pre * un_h[k];
        let dr_pre = d_r * grt * (1.0 - grt);
        dz[k] = dz_pre;
        dz[hl + k] = dr_pre;
        dz[2 * hl + k] = dn_pre;
        dz_u[k] = dz_pre;
        dz_u[hl + k] = dr_pre;
        dz_u[2 * hl + k] = dn_pre * grt;
        dh[k] = dhv * gz;
    }
}

/// AVX2 body of [`gru_gates_backward_fused`]: eight lanes per
/// iteration, op-for-op the scalar formulas, sub-8 remainder on the
/// scalar body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn gru_gates_backward_avx2(
    gates: &[f32],
    un_h: &[f32],
    h_prev: &[f32],
    dh: &mut [f32],
    dz: &mut [f32],
    dz_u: &mut [f32],
    hl: usize,
) {
    use std::arch::x86_64::{
        _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps, _mm256_sub_ps,
    };
    let one = _mm256_set1_ps(1.0);
    let mut k = 0;
    while k + 8 <= hl {
        // SAFETY: `k + 8 <= hl` bounds every strided offset below
        // (`k`, `hl + k`, `2·hl + k`) inside its slice.
        unsafe {
            let gz = _mm256_loadu_ps(gates.as_ptr().add(k));
            let grt = _mm256_loadu_ps(gates.as_ptr().add(hl + k));
            let gn = _mm256_loadu_ps(gates.as_ptr().add(2 * hl + k));
            let un = _mm256_loadu_ps(un_h.as_ptr().add(k));
            let hp = _mm256_loadu_ps(h_prev.as_ptr().add(k));
            let dhv = _mm256_loadu_ps(dh.as_ptr().add(k));
            let d_z = _mm256_mul_ps(dhv, _mm256_sub_ps(hp, gn));
            let d_n = _mm256_mul_ps(dhv, _mm256_sub_ps(one, gz));
            let dz_pre = _mm256_mul_ps(_mm256_mul_ps(d_z, gz), _mm256_sub_ps(one, gz));
            let dn_pre = _mm256_mul_ps(d_n, _mm256_sub_ps(one, _mm256_mul_ps(gn, gn)));
            let d_r = _mm256_mul_ps(dn_pre, un);
            let dr_pre = _mm256_mul_ps(_mm256_mul_ps(d_r, grt), _mm256_sub_ps(one, grt));
            _mm256_storeu_ps(dz.as_mut_ptr().add(k), dz_pre);
            _mm256_storeu_ps(dz.as_mut_ptr().add(hl + k), dr_pre);
            _mm256_storeu_ps(dz.as_mut_ptr().add(2 * hl + k), dn_pre);
            _mm256_storeu_ps(dz_u.as_mut_ptr().add(k), dz_pre);
            _mm256_storeu_ps(dz_u.as_mut_ptr().add(hl + k), dr_pre);
            _mm256_storeu_ps(
                dz_u.as_mut_ptr().add(2 * hl + k),
                _mm256_mul_ps(dn_pre, grt),
            );
            _mm256_storeu_ps(dh.as_mut_ptr().add(k), _mm256_mul_ps(dhv, gz));
        }
        k += 8;
    }
    gru_gates_backward_scalar(gates, un_h, h_prev, dh, dz, dz_u, hl, k, hl);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tanh_tracks_libm_within_a_few_ulps() {
        let mut worst = 0.0f32;
        let mut x = -12.0f32;
        while x <= 12.0 {
            let err = (tanh(x) - (x as f64).tanh() as f32).abs();
            worst = worst.max(err);
            x += 0.003;
        }
        assert!(worst < 5e-7, "worst tanh error {worst}");
    }

    #[test]
    fn sigmoid_tracks_libm_within_a_few_ulps() {
        let mut worst = 0.0f32;
        let mut x = -12.0f32;
        while x <= 12.0 {
            let exact = (1.0 / (1.0 + (-x as f64).exp())) as f32;
            let err = (sigmoid(x) - exact).abs();
            worst = worst.max(err);
            x += 0.003;
        }
        assert!(worst < 5e-7, "worst sigmoid error {worst}");
    }

    #[test]
    fn outputs_stay_in_range_and_saturate() {
        for &x in &[-1e9f32, -30.0, 30.0, 1e9] {
            assert!(tanh(x).abs() <= 1.0);
            assert_eq!(tanh(x), tanh(x.signum() * CLAMP));
            assert!((0.0..=1.0).contains(&sigmoid(x)));
        }
        assert_eq!(tanh(0.0), 0.0);
        assert_eq!(tanh(-3.0), -tanh(3.0));
    }

    #[test]
    fn slice_kernels_are_bitwise_identical_to_scalar() {
        // On AVX2 machines this pits the eight-wide kernels against the
        // scalar ones; odd lengths exercise the sub-8 remainder.
        for len in [0, 1, 7, 8, 9, 64, 97] {
            let xs: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin() * 9.0).collect();
            let mut t = xs.clone();
            tanh_slice(&mut t);
            let mut s = xs.clone();
            sigmoid_slice(&mut s);
            for (k, &x) in xs.iter().enumerate() {
                assert_eq!(t[k].to_bits(), tanh(x).to_bits(), "tanh lane {k} len {len}");
                assert_eq!(
                    s[k].to_bits(),
                    sigmoid(x).to_bits(),
                    "sigmoid lane {k} len {len}"
                );
            }
        }
    }

    #[test]
    fn fused_gate_sweep_is_bitwise_identical_to_sliced_calls() {
        // Hidden sizes that are multiples of the SIMD width, odd, prime,
        // and sub-lane — the latter force the scalar boundary handling
        // inside every vector body.
        for hl in [1, 2, 3, 5, 7, 8, 11, 16, 33, 64] {
            let zs: Vec<f32> = (0..4 * hl)
                .map(|i| (i as f32 * 0.61).sin() * 8.0 - 1.0)
                .collect();
            let mut fused = zs.clone();
            gates_fused(&mut fused, hl);
            let mut sliced = zs.clone();
            sigmoid_slice(&mut sliced[..2 * hl]);
            tanh_slice(&mut sliced[2 * hl..3 * hl]);
            sigmoid_slice(&mut sliced[3 * hl..]);
            for k in 0..4 * hl {
                assert_eq!(
                    fused[k].to_bits(),
                    sliced[k].to_bits(),
                    "fused gate lane {k} hl {hl}"
                );
                // And against the scalar reference directly, so the
                // sliced path can't mask a shared error.
                let want = if (2 * hl..3 * hl).contains(&k) {
                    tanh(zs[k])
                } else {
                    sigmoid(zs[k])
                };
                assert_eq!(
                    fused[k].to_bits(),
                    want.to_bits(),
                    "scalar lane {k} hl {hl}"
                );
            }
        }
    }

    #[test]
    fn lstm_backward_sweep_is_bitwise_identical_to_scalar_reference() {
        // Same hidden-size sweep as the forward test: lane-aligned,
        // odd, prime and sub-lane sizes force every vector body's
        // remainder handling. The reference is the literal per-gate
        // scalar formula sequence from the unfused backward.
        for hl in [1, 2, 3, 5, 7, 8, 11, 16, 33, 64] {
            let gates: Vec<f32> = (0..4 * hl)
                .map(|i| sigmoid((i as f32 * 0.7).sin()))
                .collect();
            let tanh_c: Vec<f32> = (0..hl).map(|i| tanh((i as f32 * 0.3).cos())).collect();
            let c_prev: Vec<f32> = (0..hl).map(|i| (i as f32 * 0.51).sin() * 2.0).collect();
            let dh: Vec<f32> = (0..hl).map(|i| (i as f32 * 0.13).cos() * 0.5).collect();
            let dc0: Vec<f32> = (0..hl).map(|i| (i as f32 * 0.77).sin() * 0.3).collect();

            let mut dc = dc0.clone();
            let mut dz = vec![0.0f32; 4 * hl];
            lstm_gates_backward_fused(&gates, &tanh_c, &c_prev, &dh, &mut dc, &mut dz, hl);

            let mut dc_ref = dc0.clone();
            let mut dz_ref = vec![0.0f32; 4 * hl];
            for k in 0..hl {
                let (gi, gf, gg, go) = (
                    gates[k],
                    gates[hl + k],
                    gates[2 * hl + k],
                    gates[3 * hl + k],
                );
                let dcv = dc_ref[k] + dh[k] * go * (1.0 - tanh_c[k] * tanh_c[k]);
                let d_o = dh[k] * tanh_c[k];
                dz_ref[k] = dcv * gg * gi * (1.0 - gi);
                dz_ref[hl + k] = dcv * c_prev[k] * gf * (1.0 - gf);
                dz_ref[2 * hl + k] = dcv * gi * (1.0 - gg * gg);
                dz_ref[3 * hl + k] = d_o * go * (1.0 - go);
                dc_ref[k] = dcv * gf;
            }
            for k in 0..4 * hl {
                assert_eq!(dz[k].to_bits(), dz_ref[k].to_bits(), "dz lane {k} hl {hl}");
            }
            for k in 0..hl {
                assert_eq!(dc[k].to_bits(), dc_ref[k].to_bits(), "dc lane {k} hl {hl}");
            }
        }
    }

    #[test]
    fn gru_backward_sweep_is_bitwise_identical_to_scalar_reference() {
        for hl in [1, 2, 3, 5, 7, 8, 11, 16, 33, 64] {
            let gates: Vec<f32> = (0..3 * hl)
                .map(|i| sigmoid((i as f32 * 0.9).sin()))
                .collect();
            let un_h: Vec<f32> = (0..hl).map(|i| (i as f32 * 0.37).cos() * 1.5).collect();
            let h_prev: Vec<f32> = (0..hl).map(|i| (i as f32 * 0.23).sin()).collect();
            let dh0: Vec<f32> = (0..hl).map(|i| (i as f32 * 0.61).cos() * 0.4).collect();

            let mut dh = dh0.clone();
            let mut dz = vec![0.0f32; 3 * hl];
            let mut dz_u = vec![0.0f32; 3 * hl];
            gru_gates_backward_fused(&gates, &un_h, &h_prev, &mut dh, &mut dz, &mut dz_u, hl);

            for k in 0..hl {
                let (gz, grt, gn) = (gates[k], gates[hl + k], gates[2 * hl + k]);
                let d_z = dh0[k] * (h_prev[k] - gn);
                let d_n = dh0[k] * (1.0 - gz);
                let dz_pre = d_z * gz * (1.0 - gz);
                let dn_pre = d_n * (1.0 - gn * gn);
                let dr_pre = dn_pre * un_h[k] * grt * (1.0 - grt);
                assert_eq!(dz[k].to_bits(), dz_pre.to_bits(), "dz z lane {k} hl {hl}");
                assert_eq!(
                    dz[hl + k].to_bits(),
                    dr_pre.to_bits(),
                    "dz r lane {k} hl {hl}"
                );
                assert_eq!(
                    dz[2 * hl + k].to_bits(),
                    dn_pre.to_bits(),
                    "dz n lane {k} hl {hl}"
                );
                assert_eq!(
                    dz_u[k].to_bits(),
                    dz_pre.to_bits(),
                    "dz_u z lane {k} hl {hl}"
                );
                assert_eq!(
                    dz_u[hl + k].to_bits(),
                    dr_pre.to_bits(),
                    "dz_u r lane {k} hl {hl}"
                );
                assert_eq!(
                    dz_u[2 * hl + k].to_bits(),
                    (dn_pre * grt).to_bits(),
                    "dz_u n lane {k} hl {hl}"
                );
                assert_eq!(
                    dh[k].to_bits(),
                    (dh0[k] * gz).to_bits(),
                    "direct dh lane {k} hl {hl}"
                );
            }
        }
    }

    #[test]
    fn monotone_on_a_grid_up_to_rounding() {
        // A minimax approximation is only monotone up to its own error
        // (a few ulps near saturation) — but nothing coarser.
        let mut prev = f32::NEG_INFINITY;
        let mut x = -9.0f32;
        while x <= 9.0 {
            let y = tanh(x);
            assert!(y >= prev - 5e-7, "tanh decreased at {x}");
            prev = y;
            x += 0.01;
        }
    }
}
