//! Dense row-major matrix with the operations the recurrent layers need.
//!
//! The hot paths of the BRNN phoneme detector are expressed as three
//! kernels here:
//!
//! * [`Matrix::matmul_nt`] — a time-batched `C = X · selfᵀ` product that
//!   computes the input projections `W·x_t` of *all* timesteps of an
//!   utterance in one cache-blocked GEMM before the sequential
//!   recurrence begins,
//! * [`Matrix::matvec_add_into`] — the per-step recurrent half `z += U·h`
//!   accumulated into a caller-provided buffer (no allocation),
//! * [`Matrix::add_tn_product`] — the batched weight-gradient update
//!   `dW += dZᵀ · X` that replaces one rank-1 `add_outer` per timestep in
//!   backpropagation through time.
//!
//! All kernels share one unrolled dot product so the training and
//! inference paths are bitwise identical. [`GemmScratch`] owns the
//! buffers the recurrent engines stream through, so a caller that scores
//! or trains many sequences reuses one set of allocations.

use rand::Rng;

/// Thirty-two-lane dot product — the shared inner kernel of every
/// matrix product in this module. Lane `k` sums elements `32i + k`, the
/// lanes are folded with a fixed reduction tree, and the tail shorter
/// than 32 is handled by an eight-lane pass plus a sequential
/// remainder. The *lane assignment* (not the vector width of the
/// machine it runs on) defines the summation order, so the scalar and
/// SIMD implementations below are bitwise identical and every caller —
/// forward, backward, inference — stays bitwise consistent with the
/// others. Thirty-two lanes means four independent 8-wide accumulator
/// chains, enough instruction-level parallelism to hide the
/// floating-point add latency that a single chain would serialize on.
#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check above.
        return unsafe { dot_avx2(a, b) };
    }
    dot_scalar(a, b)
}

/// Portable implementation of [`dot`]'s lane semantics.
#[inline]
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 32];
    let mut ca = a.chunks_exact(32);
    let mut cb = b.chunks_exact(32);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for k in 0..32 {
            acc[k] += xa[k] * xb[k];
        }
    }
    let mut m = [0.0f32; 8];
    for k in 0..8 {
        m[k] = (acc[k] + acc[8 + k]) + (acc[16 + k] + acc[24 + k]);
    }
    let s = ((m[0] + m[1]) + (m[2] + m[3])) + ((m[4] + m[5]) + (m[6] + m[7]));
    s + dot_tail(ca.remainder(), cb.remainder())
}

/// Eight-lane pass over the sub-32 tail, shared by both [`dot`]
/// implementations so their results agree bitwise.
#[inline]
fn dot_tail(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for k in 0..8 {
            acc[k] += xa[k] * xb[k];
        }
    }
    let mut s = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (xa, xb) in ca.remainder().iter().zip(cb.remainder()) {
        s += xa * xb;
    }
    s
}

/// AVX2 implementation of [`dot`]'s lane semantics: lane `32i + 8j + k`
/// lives in lane `k` of accumulator register `j`, the registers are
/// folded pairwise (matching `dot_scalar`'s tree), and multiplies and
/// adds stay separate instructions (no FMA contraction), so the result
/// is bitwise identical to the portable path. Marked `#[inline]` so the
/// row-loop kernels below (which share the `avx2` feature context)
/// inline it — a per-row function call would pay call overhead plus an
/// AVX-to-SSE `vzeroupper` transition on every row.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    let mut acc = [_mm256_setzero_ps(); 4];
    let mut ca = a.chunks_exact(32);
    let mut cb = b.chunks_exact(32);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for (j, slot) in acc.iter_mut().enumerate() {
            // SAFETY: `xa`/`xb` are exactly 32 elements, so offsets
            // `8j..8j + 8` for `j < 4` are in bounds.
            let va = unsafe { _mm256_loadu_ps(xa.as_ptr().add(8 * j)) };
            let vb = unsafe { _mm256_loadu_ps(xb.as_ptr().add(8 * j)) };
            *slot = _mm256_add_ps(*slot, _mm256_mul_ps(va, vb));
        }
    }
    let m = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
    let mut lanes = [0.0f32; 8];
    // SAFETY: `lanes` is a 32-byte buffer; unaligned store is allowed.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), m) };
    let s = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    s + dot_tail(ca.remainder(), cb.remainder())
}

/// Row loop of a matrix–vector product (`add` selects `out[r] += …`
/// versus `out[r] = …`), dispatched once per call so the SIMD dot
/// kernel inlines into the loop instead of being re-entered per row.
#[inline]
fn matvec_rows(data: &[f32], cols: usize, x: &[f32], out: &mut [f32], add: bool) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check above.
        unsafe { matvec_rows_avx2(data, cols, x, out, add) };
        return;
    }
    for (slot, row) in out.iter_mut().zip(data.chunks_exact(cols)) {
        let d = dot_scalar(row, x);
        *slot = if add { *slot + d } else { d };
    }
}

/// AVX2 instantiation of [`matvec_rows`]'s loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matvec_rows_avx2(data: &[f32], cols: usize, x: &[f32], out: &mut [f32], add: bool) {
    for (slot, row) in out.iter_mut().zip(data.chunks_exact(cols)) {
        // SAFETY: the caller established AVX2 support.
        let d = unsafe { dot_avx2(row, x) };
        *slot = if add { *slot + d } else { d };
    }
}

/// Column counts below this use the column-streaming layout in
/// [`matmul_nt_narrow`]: the shared dot kernel's 32-lane body never
/// engages on such short rows, leaving its reduction tree and tail
/// handling as pure overhead per output element.
const NARROW_COLS: usize = 32;

/// Blocked loop of the time-batched `C = X · Wᵀ` product (`add`
/// selects accumulation onto the existing contents of `out`): each
/// ~L1-sized panel of weight rows is reused across every timestep
/// before moving to the next panel. Dispatched once per call, like
/// [`matvec_rows`].
#[inline]
fn matmul_nt_rows(data: &[f32], rows: usize, cols: usize, x: &[f32], out: &mut [f32], add: bool) {
    if cols < NARROW_COLS {
        matmul_nt_narrow(data, rows, cols, x, out, add);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
    {
        // SAFETY: guarded by the runtime AVX-512 checks above.
        unsafe { matmul_nt_rows_avx512(data, rows, cols, x, out, add) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check above.
        unsafe { matmul_nt_rows_avx2(data, rows, cols, x, out, add) };
        return;
    }
    const ROW_BLOCK: usize = 64;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + ROW_BLOCK).min(rows);
        let panel = &data[r0 * cols..r1 * cols];
        for (xi, oi) in x.chunks_exact(cols).zip(out.chunks_exact_mut(rows)) {
            for (slot, row) in oi[r0..r1].iter_mut().zip(panel.chunks_exact(cols)) {
                let d = dot_scalar(row, xi);
                *slot = if add { *slot + d } else { d };
            }
        }
        r0 = r1;
    }
}

/// Narrow-input variant of [`matmul_nt_rows`]: the weight panel is
/// transposed once so each input column is contiguous, then every
/// timestep accumulates `out_t += x[t][c] · w_col_c` column by column —
/// SIMD lanes span *output rows* and the (short) sum over the input
/// dimension runs sequentially. The summation order therefore differs
/// from the dot kernel's lane order, which is why [`Matrix::matmul_nt`]
/// is documented as matching [`Matrix::matvec`] only up to rounding;
/// training and inference both project inputs through this same path,
/// so they still agree bitwise with each other.
fn matmul_nt_narrow(data: &[f32], rows: usize, cols: usize, x: &[f32], out: &mut [f32], add: bool) {
    let mut wt = vec![0.0f32; cols * rows];
    for (r, row) in data.chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            wt[c * rows + r] = v;
        }
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check above.
        unsafe { matmul_nt_narrow_avx2(&wt, rows, cols, x, out, add) };
        return;
    }
    for (xi, oi) in x.chunks_exact(cols).zip(out.chunks_exact_mut(rows)) {
        if !add {
            oi.iter_mut().for_each(|v| *v = 0.0);
        }
        for (c, &xc) in xi.iter().enumerate() {
            let col = &wt[c * rows..(c + 1) * rows];
            for (o, &w) in oi.iter_mut().zip(col) {
                *o += w * xc;
            }
        }
    }
}

/// AVX2 instantiation of [`matmul_nt_narrow`]'s accumulation, taking
/// the already-transposed panel. Per output element the operation
/// sequence (sequential multiply-adds over columns, starting from zero
/// or from the existing value when `add`) matches the portable loop
/// exactly, so results are bitwise identical.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_nt_narrow_avx2(
    wt: &[f32],
    rows: usize,
    cols: usize,
    x: &[f32],
    out: &mut [f32],
    add: bool,
) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    let blocked = rows / 8 * 8;
    for (xi, oi) in x.chunks_exact(cols).zip(out.chunks_exact_mut(rows)) {
        let mut r = 0;
        while r < blocked {
            let mut acc = if add {
                // SAFETY: `r + 8 <= blocked <= rows == oi.len()`.
                unsafe { _mm256_loadu_ps(oi.as_ptr().add(r)) }
            } else {
                _mm256_setzero_ps()
            };
            for (c, &xc) in xi.iter().enumerate() {
                // SAFETY: `c * rows + r + 8 <= cols * rows` because
                // `r + 8 <= blocked <= rows` and `c < cols`.
                let w = unsafe { _mm256_loadu_ps(wt.as_ptr().add(c * rows + r)) };
                acc = _mm256_add_ps(acc, _mm256_mul_ps(w, _mm256_set1_ps(xc)));
            }
            // SAFETY: `r + 8 <= blocked <= rows == oi.len()`.
            unsafe { _mm256_storeu_ps(oi.as_mut_ptr().add(r), acc) };
            r += 8;
        }
        for (r, slot) in oi.iter_mut().enumerate().skip(blocked) {
            let mut s = if add { *slot } else { 0.0f32 };
            for (c, &xc) in xi.iter().enumerate() {
                s += wt[c * rows + r] * xc;
            }
            *slot = s;
        }
    }
}

/// AVX2 instantiation of [`matmul_nt_rows`]'s loop. Full groups of
/// eight weight rows go through [`dot8_avx2`], which shares the input
/// chunk loads across the group and replaces eight store-and-scalar-add
/// horizontal reductions with one register transpose; leftover rows
/// fall back to per-row [`dot_avx2`]. Both produce bitwise-identical
/// elements, so the split is invisible to callers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_nt_rows_avx2(
    data: &[f32],
    rows: usize,
    cols: usize,
    x: &[f32],
    out: &mut [f32],
    add: bool,
) {
    const ROW_BLOCK: usize = 64;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + ROW_BLOCK).min(rows);
        let panel = &data[r0 * cols..r1 * cols];
        let grouped = (r1 - r0) / 8 * 8;
        for (xi, oi) in x.chunks_exact(cols).zip(out.chunks_exact_mut(rows)) {
            let oi = &mut oi[r0..r1];
            let mut g = 0;
            while g < grouped {
                // SAFETY: the caller established AVX2 support;
                // `panel[g * cols..]` holds at least eight rows because
                // `g + 8 <= grouped <= r1 - r0`.
                unsafe { dot8_avx2(&panel[g * cols..], cols, xi, &mut oi[g..g + 8], add) };
                g += 8;
            }
            for (slot, row) in oi[grouped..]
                .iter_mut()
                .zip(panel[grouped * cols..].chunks_exact(cols))
            {
                // SAFETY: the caller established AVX2 support.
                let d = unsafe { dot_avx2(row, xi) };
                *slot = if add { *slot + d } else { d };
            }
        }
        r0 = r1;
    }
}

/// Eight consecutive weight rows against one input vector, with
/// [`dot`]'s lane semantics per row. Rows are processed in pairs so the
/// input chunk registers are loaded once per pair, each row's four
/// accumulators are folded into one register `m_j` exactly as in
/// [`dot_avx2`], and the eight `m` registers are transposed so lane `k`
/// of every row lands in register `t_k`. The lane-wise vector folds
/// `((t0+t1)+(t2+t3))+((t4+t5)+(t6+t7))` then perform, per lane, the
/// same scalar addition tree `dot_avx2` performs after its store — so
/// every output element is bitwise identical to a per-row `dot_avx2`
/// call, while the horizontal reduction costs ~4 shuffle/add ops per
/// row instead of a 32-byte store feeding eight dependent scalar adds.
/// This is where the batched engine's GEMM advantage over per-sequence
/// mat-vecs comes from: the reduction overhead amortizes over the row
/// group only when enough independent dot products are in flight.
///
/// `rows8` must hold at least `8 * cols` values and `out` exactly 8.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot8_avx2(rows8: &[f32], cols: usize, x: &[f32], out: &mut [f32], add: bool) {
    use std::arch::x86_64::{_mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_setzero_ps};
    let body = cols / 32 * 32;
    let xp = x.as_ptr();
    let mut m = [_mm256_setzero_ps(); 8];
    for j in (0..8).step_by(2) {
        let ra = rows8[j * cols..].as_ptr();
        let rb = rows8[(j + 1) * cols..].as_ptr();
        let mut acc_a = [_mm256_setzero_ps(); 4];
        let mut acc_b = [_mm256_setzero_ps(); 4];
        let mut c = 0;
        while c < body {
            for k in 0..4 {
                // SAFETY: `c + 8k + 8 <= body <= cols`, so the loads
                // stay inside row `j`, row `j + 1` and `x`.
                let vx = unsafe { _mm256_loadu_ps(xp.add(c + 8 * k)) };
                let va = unsafe { _mm256_loadu_ps(ra.add(c + 8 * k)) };
                let vb = unsafe { _mm256_loadu_ps(rb.add(c + 8 * k)) };
                acc_a[k] = _mm256_add_ps(acc_a[k], _mm256_mul_ps(va, vx));
                acc_b[k] = _mm256_add_ps(acc_b[k], _mm256_mul_ps(vb, vx));
            }
            c += 32;
        }
        m[j] = _mm256_add_ps(
            _mm256_add_ps(acc_a[0], acc_a[1]),
            _mm256_add_ps(acc_a[2], acc_a[3]),
        );
        m[j + 1] = _mm256_add_ps(
            _mm256_add_ps(acc_b[0], acc_b[1]),
            _mm256_add_ps(acc_b[2], acc_b[3]),
        );
    }
    // SAFETY: same AVX2 context and the same row-group invariants.
    unsafe { fold8_store_avx2(m, rows8, cols, body, x, out, add) };
}

/// Shared epilogue of the eight-row kernels: transposes the eight
/// folded accumulator registers, performs the per-lane reduction tree,
/// adds each row's sub-32 tail and writes the results. `m[j]` must hold
/// row `j`'s four accumulators folded as in [`dot_avx2`].
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn fold8_store_avx2(
    m: [std::arch::x86_64::__m256; 8],
    rows8: &[f32],
    cols: usize,
    body: usize,
    x: &[f32],
    out: &mut [f32],
    add: bool,
) {
    use std::arch::x86_64::_mm256_storeu_ps;
    // SAFETY: same AVX2 context.
    let s = unsafe { transpose8_sum_avx2(m) };
    let mut sums = [0.0f32; 8];
    // SAFETY: `sums` is a 32-byte buffer; unaligned store is allowed.
    unsafe { _mm256_storeu_ps(sums.as_mut_ptr(), s) };
    let xt = &x[body..cols];
    for (j, (slot, &sj)) in out.iter_mut().zip(&sums).enumerate() {
        let d = sj + dot_tail(&rows8[j * cols + body..(j + 1) * cols], xt);
        *slot = if add { *slot + d } else { d };
    }
}

/// Transposes eight folded accumulator registers (`t_k[j] = m_j[k]`
/// after the transpose) and performs the per-lane reduction tree
/// `((t0+t1)+(t2+t3))+((t4+t5)+(t6+t7))`, so lane `j` of the result is
/// exactly the scalar fold `((m_j[0]+m_j[1])+(m_j[2]+m_j[3]))+
/// ((m_j[4]+m_j[5])+(m_j[6]+m_j[7]))` — vector adds are lane-wise, so
/// the addition order per lane matches the scalar tree bitwise.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn transpose8_sum_avx2(m: [std::arch::x86_64::__m256; 8]) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_permute2f128_ps, _mm256_shuffle_ps, _mm256_unpackhi_ps,
        _mm256_unpacklo_ps,
    };
    let lo01 = _mm256_unpacklo_ps(m[0], m[1]);
    let hi01 = _mm256_unpackhi_ps(m[0], m[1]);
    let lo23 = _mm256_unpacklo_ps(m[2], m[3]);
    let hi23 = _mm256_unpackhi_ps(m[2], m[3]);
    let lo45 = _mm256_unpacklo_ps(m[4], m[5]);
    let hi45 = _mm256_unpackhi_ps(m[4], m[5]);
    let lo67 = _mm256_unpacklo_ps(m[6], m[7]);
    let hi67 = _mm256_unpackhi_ps(m[6], m[7]);
    let a0 = _mm256_shuffle_ps(lo01, lo23, 0x44);
    let a1 = _mm256_shuffle_ps(lo01, lo23, 0xEE);
    let a2 = _mm256_shuffle_ps(hi01, hi23, 0x44);
    let a3 = _mm256_shuffle_ps(hi01, hi23, 0xEE);
    let b0 = _mm256_shuffle_ps(lo45, lo67, 0x44);
    let b1 = _mm256_shuffle_ps(lo45, lo67, 0xEE);
    let b2 = _mm256_shuffle_ps(hi45, hi67, 0x44);
    let b3 = _mm256_shuffle_ps(hi45, hi67, 0xEE);
    let t0 = _mm256_permute2f128_ps(a0, b0, 0x20);
    let t1 = _mm256_permute2f128_ps(a1, b1, 0x20);
    let t2 = _mm256_permute2f128_ps(a2, b2, 0x20);
    let t3 = _mm256_permute2f128_ps(a3, b3, 0x20);
    let t4 = _mm256_permute2f128_ps(a0, b0, 0x31);
    let t5 = _mm256_permute2f128_ps(a1, b1, 0x31);
    let t6 = _mm256_permute2f128_ps(a2, b2, 0x31);
    let t7 = _mm256_permute2f128_ps(a3, b3, 0x31);
    _mm256_add_ps(
        _mm256_add_ps(_mm256_add_ps(t0, t1), _mm256_add_ps(t2, t3)),
        _mm256_add_ps(_mm256_add_ps(t4, t5), _mm256_add_ps(t6, t7)),
    )
}

/// AVX-512 variant of [`dot8_avx2`]: one 512-bit register carries two of
/// a row's four 8-lane accumulators side by side (`acc[2r]` holds scalar
/// accumulator lanes `0..16`, i.e. `acc0 | acc1`, and `acc[2r + 1]`
/// holds `acc2 | acc3`), because a 32-element chunk is exactly two
/// 512-bit loads whose lanes line up with consecutive accumulator
/// groups. Sixteen accumulator registers cover the whole eight-row
/// group, so the two input chunk loads are shared by every row, and
/// each 32-element chunk costs two multiplies and two adds per row
/// instead of four of each. Splitting each accumulator register into
/// halves and adding them lane-wise reproduces `dot_avx2`'s folds
/// `acc0 + acc1` and `acc2 + acc3` exactly, so the result is bitwise
/// identical to the AVX2 and scalar paths.
///
/// `rows8` must hold at least `8 * cols` values and `out` exactly 8.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn dot8_avx512(rows8: &[f32], cols: usize, x: &[f32], out: &mut [f32], add: bool) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_setzero_ps, _mm512_add_ps, _mm512_castps512_ps256,
        _mm512_extractf32x8_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_setzero_ps,
    };
    let body = cols / 32 * 32;
    let xp = x.as_ptr();
    let rp = rows8.as_ptr();
    let mut acc = [_mm512_setzero_ps(); 16];
    let mut c = 0;
    while c < body {
        // SAFETY: `c + 32 <= body <= cols`, so both 16-lane loads stay
        // inside `x`, and `r * cols + c + 32 <= 8 * cols` keeps the row
        // loads inside `rows8` for every `r < 8`.
        let xa = unsafe { _mm512_loadu_ps(xp.add(c)) };
        let xb = unsafe { _mm512_loadu_ps(xp.add(c + 16)) };
        for r in 0..8 {
            let row = unsafe { rp.add(r * cols + c) };
            let wa = unsafe { _mm512_loadu_ps(row) };
            let wb = unsafe { _mm512_loadu_ps(row.add(16)) };
            acc[2 * r] = _mm512_add_ps(acc[2 * r], _mm512_mul_ps(wa, xa));
            acc[2 * r + 1] = _mm512_add_ps(acc[2 * r + 1], _mm512_mul_ps(wb, xb));
        }
        c += 32;
    }
    let mut m = [_mm256_setzero_ps(); 8];
    for (r, mr) in m.iter_mut().enumerate() {
        let z0 = acc[2 * r];
        let z1 = acc[2 * r + 1];
        let a01 = _mm256_add_ps(_mm512_castps512_ps256(z0), _mm512_extractf32x8_ps::<1>(z0));
        let a23 = _mm256_add_ps(_mm512_castps512_ps256(z1), _mm512_extractf32x8_ps::<1>(z1));
        *mr = _mm256_add_ps(a01, a23);
    }
    // SAFETY: avx512f implies avx2; same row-group invariants.
    unsafe { fold8_store_avx2(m, rows8, cols, body, x, out, add) };
}

/// AVX-512 instantiation of [`matmul_nt_rows`]'s loop: full groups of
/// eight weight rows go through [`dot8_avx512`], leftovers through
/// per-row [`dot_avx2`] (bitwise identical either way).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn matmul_nt_rows_avx512(
    data: &[f32],
    rows: usize,
    cols: usize,
    x: &[f32],
    out: &mut [f32],
    add: bool,
) {
    const ROW_BLOCK: usize = 64;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + ROW_BLOCK).min(rows);
        let panel = &data[r0 * cols..r1 * cols];
        let grouped = (r1 - r0) / 8 * 8;
        for (xi, oi) in x.chunks_exact(cols).zip(out.chunks_exact_mut(rows)) {
            let oi = &mut oi[r0..r1];
            let mut g = 0;
            while g < grouped {
                // SAFETY: the caller established AVX-512 support;
                // `panel[g * cols..]` holds at least eight rows because
                // `g + 8 <= grouped <= r1 - r0`.
                unsafe { dot8_avx512(&panel[g * cols..], cols, xi, &mut oi[g..g + 8], add) };
                g += 8;
            }
            for (slot, row) in oi[grouped..]
                .iter_mut()
                .zip(panel[grouped * cols..].chunks_exact(cols))
            {
                // SAFETY: avx512f implies avx2.
                let d = unsafe { dot_avx2(row, xi) };
                *slot = if add { *slot + d } else { d };
            }
        }
        r0 = r1;
    }
}

/// Sixteen-lane *fused* dot product — the inner kernel of
/// [`Matrix::matmul_nt_fused_to`], the batched engines' recurrent GEMM.
/// Lane `k` accumulates elements `16i + k` with a fused multiply-add
/// (one rounding per step instead of two), the sixteen lanes fold as
/// `m[k] = acc[k] + acc[8 + k]` followed by the same pairwise tree the
/// unfused kernel uses, and the sub-16 tail is folded in sequentially
/// with scalar fused multiply-adds. Fusing halves the floating-point
/// instruction count, which is exactly the resource a batched GEMM is
/// bound by once its loads amortize over the batch; the price is that
/// results differ from the unfused [`dot`] semantics by normal rounding
/// (~1e-7 relative), so the batched engine matches the per-sequence
/// engine within tolerance instead of bitwise.
///
/// As with [`dot`], the *lane assignment* defines the summation order:
/// this portable implementation (`f32::mul_add` is a correctly rounded
/// IEEE fma, identical to the hardware instruction) and the AVX2-FMA /
/// AVX-512 kernels below are bitwise identical to each other, and the
/// result is independent of batch size and row position.
#[inline]
fn dot_fused_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 16];
    let mut ca = a.chunks_exact(16);
    let mut cb = b.chunks_exact(16);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for k in 0..16 {
            acc[k] = xa[k].mul_add(xb[k], acc[k]);
        }
    }
    let mut m = [0.0f32; 8];
    for k in 0..8 {
        m[k] = acc[k] + acc[8 + k];
    }
    let mut s = ((m[0] + m[1]) + (m[2] + m[3])) + ((m[4] + m[5]) + (m[6] + m[7]));
    for (&xa, &xb) in ca.remainder().iter().zip(cb.remainder()) {
        s = xa.mul_add(xb, s);
    }
    s
}

/// Folds the eight per-lane sums of a [`dot_fused_scalar`]-semantics
/// accumulator (`m[k] = acc[k] + acc[8+k]` already applied) with the
/// shared pairwise tree, then adds the sequential fused tail.
#[cfg(target_arch = "x86_64")]
#[inline]
fn fused_tail(mut s: f32, row_tail: &[f32], x_tail: &[f32]) -> f32 {
    for (&xa, &xb) in row_tail.iter().zip(x_tail) {
        s = xa.mul_add(xb, s);
    }
    s
}

/// AVX-512 single-row instantiation of [`dot_fused_scalar`]: one zmm
/// register is the whole sixteen-lane accumulator, so a 64-column dot
/// is four fused multiply-adds plus one half-split add for the fold.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn dot1_fused_avx512(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_storeu_ps, _mm512_castps512_ps256, _mm512_extractf32x8_ps,
        _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_setzero_ps,
    };
    let cols = a.len().min(b.len());
    let body = cols / 16 * 16;
    let mut acc = _mm512_setzero_ps();
    let mut c = 0;
    while c < body {
        // SAFETY: `c + 16 <= body <= a.len(), b.len()`.
        let va = unsafe { _mm512_loadu_ps(a.as_ptr().add(c)) };
        let vb = unsafe { _mm512_loadu_ps(b.as_ptr().add(c)) };
        acc = _mm512_fmadd_ps(va, vb, acc);
        c += 16;
    }
    let m = _mm256_add_ps(
        _mm512_castps512_ps256(acc),
        _mm512_extractf32x8_ps::<1>(acc),
    );
    let mut lanes = [0.0f32; 8];
    // SAFETY: `lanes` is a 32-byte buffer; unaligned store is allowed.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), m) };
    let s = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    fused_tail(s, &a[body..cols], &b[body..cols])
}

/// AVX-512 eight-row instantiation of [`dot_fused_scalar`]: one zmm
/// accumulator per row covers the whole group in eight registers, so
/// every input chunk is loaded once and shared by all eight rows, each
/// 16-element chunk costs one fused multiply-add per row, and the
/// per-row half-split folds feed the shared transpose reduction.
/// Bitwise identical to eight [`dot1_fused_avx512`] calls.
///
/// `rows8` must hold at least `8 * cols` values and `out` exactly 8.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn dot8_fused_avx512(rows8: &[f32], cols: usize, x: &[f32], out: &mut [f32], add: bool) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_setzero_ps, _mm256_storeu_ps, _mm512_castps512_ps256,
        _mm512_extractf32x8_ps, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_setzero_ps,
    };
    let body = cols / 16 * 16;
    let xp = x.as_ptr();
    let rp = rows8.as_ptr();
    let mut acc = [_mm512_setzero_ps(); 8];
    let mut c = 0;
    while c < body {
        // SAFETY: `c + 16 <= body <= cols` keeps the `x` load in
        // bounds, and `r * cols + c + 16 <= 8 * cols` keeps every row
        // load inside `rows8`.
        let vx = unsafe { _mm512_loadu_ps(xp.add(c)) };
        for (r, slot) in acc.iter_mut().enumerate() {
            let vw = unsafe { _mm512_loadu_ps(rp.add(r * cols + c)) };
            *slot = _mm512_fmadd_ps(vw, vx, *slot);
        }
        c += 16;
    }
    let mut m = [_mm256_setzero_ps(); 8];
    for (mr, &z) in m.iter_mut().zip(&acc) {
        *mr = _mm256_add_ps(_mm512_castps512_ps256(z), _mm512_extractf32x8_ps::<1>(z));
    }
    // SAFETY: avx512f implies avx2.
    let s = unsafe { transpose8_sum_avx2(m) };
    let mut sums = [0.0f32; 8];
    // SAFETY: `sums` is a 32-byte buffer; unaligned store is allowed.
    unsafe { _mm256_storeu_ps(sums.as_mut_ptr(), s) };
    let xt = &x[body..cols];
    for (j, (slot, &sj)) in out.iter_mut().zip(&sums).enumerate() {
        let d = fused_tail(sj, &rows8[j * cols + body..(j + 1) * cols], xt);
        *slot = if add { *slot + d } else { d };
    }
}

/// AVX-512 4-row × 4-vector tile of [`dot_fused_scalar`] — the
/// register-blocked heart of the batched GEMM. Each of the sixteen
/// accumulators is one zmm register holding one `(row, x_i)` cell, so
/// every 16-element chunk costs four weight loads plus four input
/// loads for sixteen fused multiply-adds: a 2:1 FMA-to-load ratio that
/// keeps the tile arithmetic-bound where the one-vector kernels above
/// are load-bound (their 8 weight loads feed only 8 FMAs). On cores
/// that double-pump 512-bit ops this is the difference between ~8 and
/// ~16 multiply-adds per cycle.
///
/// Each cell's reduction order is exactly [`dot_fused_scalar`]'s: the
/// zmm accumulator *is* the sixteen lanes, the 256-bit half-split add
/// is `m[k] = acc[k] + acc[8 + k]`, and the horizontal-add fold below
/// computes `((m0 + m1) + (m2 + m3)) + ((m4 + m5) + (m6 + m7))`
/// per cell — `hadd(hadd(a, b), hadd(c, d))` pairs lanes in precisely
/// that tree — before the sequential fused tail. Cell values therefore
/// stay bitwise independent of tile position and batch size.
///
/// `rows4` must hold at least `4 * cols` values, `x4` exactly
/// `4 * cols` (four batch vectors, row-major); cell `(r, i)` lands in
/// `out[i * stride + r]`, so `out` must reach `3 * stride + 4`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn dot4x4_fused_avx512(
    rows4: &[f32],
    cols: usize,
    x4: &[f32],
    out: &mut [f32],
    stride: usize,
    add: bool,
) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_castps256_ps128, _mm256_extractf128_ps, _mm256_hadd_ps,
        _mm256_setzero_ps, _mm512_castps512_ps256, _mm512_extractf32x8_ps, _mm512_fmadd_ps,
        _mm512_loadu_ps, _mm512_setzero_ps, _mm_add_ps, _mm_loadu_ps, _mm_storeu_ps,
    };
    let body = cols / 16 * 16;
    debug_assert!(out.len() > 3 * stride + 3);
    let rp = rows4.as_ptr();
    let xp = x4.as_ptr();
    let mut acc = [[_mm512_setzero_ps(); 4]; 4];
    let mut c = 0;
    while c < body {
        // SAFETY: `c + 16 <= body <= cols` keeps every load inside its
        // row of `rows4` / `x4`.
        let vx = [
            unsafe { _mm512_loadu_ps(xp.add(c)) },
            unsafe { _mm512_loadu_ps(xp.add(cols + c)) },
            unsafe { _mm512_loadu_ps(xp.add(2 * cols + c)) },
            unsafe { _mm512_loadu_ps(xp.add(3 * cols + c)) },
        ];
        for (r, row_acc) in acc.iter_mut().enumerate() {
            let vw = unsafe { _mm512_loadu_ps(rp.add(r * cols + c)) };
            for (cell, &x) in row_acc.iter_mut().zip(&vx) {
                *cell = _mm512_fmadd_ps(vw, x, *cell);
            }
        }
        c += 16;
    }
    for i in 0..4 {
        let mut m = [_mm256_setzero_ps(); 4];
        for (mr, row_acc) in m.iter_mut().zip(&acc) {
            let z = row_acc[i];
            *mr = _mm256_add_ps(_mm512_castps512_ps256(z), _mm512_extractf32x8_ps::<1>(z));
        }
        // hadd(hadd(m0, m1), hadd(m2, m3)) leaves row r's pairwise
        // lane sums ((l0 + l1) + (l2 + l3)) in low-half lane r and
        // ((l4 + l5) + (l6 + l7)) in high-half lane r; the final
        // 128-bit add completes the shared reduction tree per row.
        let t01 = _mm256_hadd_ps(m[0], m[1]);
        let t23 = _mm256_hadd_ps(m[2], m[3]);
        let t = _mm256_hadd_ps(t01, t23);
        let mut s4 = _mm_add_ps(_mm256_castps256_ps128(t), _mm256_extractf128_ps::<1>(t));
        if body == cols {
            // Tail-free columns (the common 16-multiple case): the four
            // row sums for vector `i` are exactly the four contiguous
            // output cells `out[i * stride ..][..4]`, so finish with one
            // 128-bit read-modify-write instead of four scalar slots.
            // SAFETY: the documented contract guarantees
            // `out.len() > 3 * stride + 3`.
            let o = unsafe { out.as_mut_ptr().add(i * stride) };
            if add {
                s4 = _mm_add_ps(unsafe { _mm_loadu_ps(o) }, s4);
            }
            unsafe { _mm_storeu_ps(o, s4) };
        } else {
            let mut sums = [0.0f32; 4];
            // SAFETY: `sums` is a 16-byte buffer; unaligned store is
            // allowed.
            unsafe { _mm_storeu_ps(sums.as_mut_ptr(), s4) };
            let xt = &x4[i * cols + body..(i + 1) * cols];
            for (r, &sr) in sums.iter().enumerate() {
                let d = fused_tail(sr, &rows4[r * cols + body..(r + 1) * cols], xt);
                let slot = &mut out[i * stride + r];
                *slot = if add { *slot + d } else { d };
            }
        }
    }
}

/// AVX2+FMA single-row instantiation of [`dot_fused_scalar`]: two ymm
/// registers carry accumulator lanes `0..8` and `8..16`, and the fold
/// `lo + hi` reproduces `m[k] = acc[k] + acc[8 + k]` exactly.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot1_fused_fma(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    let cols = a.len().min(b.len());
    let body = cols / 16 * 16;
    let mut lo = _mm256_setzero_ps();
    let mut hi = _mm256_setzero_ps();
    let mut c = 0;
    while c < body {
        // SAFETY: `c + 16 <= body <= a.len(), b.len()`.
        let va0 = unsafe { _mm256_loadu_ps(a.as_ptr().add(c)) };
        let vb0 = unsafe { _mm256_loadu_ps(b.as_ptr().add(c)) };
        let va1 = unsafe { _mm256_loadu_ps(a.as_ptr().add(c + 8)) };
        let vb1 = unsafe { _mm256_loadu_ps(b.as_ptr().add(c + 8)) };
        lo = _mm256_fmadd_ps(va0, vb0, lo);
        hi = _mm256_fmadd_ps(va1, vb1, hi);
        c += 16;
    }
    let m = _mm256_add_ps(lo, hi);
    let mut lanes = [0.0f32; 8];
    // SAFETY: `lanes` is a 32-byte buffer; unaligned store is allowed.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), m) };
    let s = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    fused_tail(s, &a[body..cols], &b[body..cols])
}

/// AVX2+FMA eight-row instantiation of [`dot_fused_scalar`]: rows in
/// pairs share the input chunk loads (sixteen ymm accumulators for the
/// group would not fit alongside them), folds feed the shared transpose
/// reduction. Bitwise identical to eight [`dot1_fused_fma`] calls.
///
/// `rows8` must hold at least `8 * cols` values and `out` exactly 8.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot8_fused_fma(rows8: &[f32], cols: usize, x: &[f32], out: &mut [f32], add: bool) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    let body = cols / 16 * 16;
    let xp = x.as_ptr();
    let mut m = [_mm256_setzero_ps(); 8];
    for j in (0..8).step_by(2) {
        let ra = rows8[j * cols..].as_ptr();
        let rb = rows8[(j + 1) * cols..].as_ptr();
        let (mut a_lo, mut a_hi) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        let (mut b_lo, mut b_hi) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        let mut c = 0;
        while c < body {
            // SAFETY: `c + 16 <= body <= cols`, so the loads stay
            // inside row `j`, row `j + 1` and `x`.
            let vx0 = unsafe { _mm256_loadu_ps(xp.add(c)) };
            let vx1 = unsafe { _mm256_loadu_ps(xp.add(c + 8)) };
            let va0 = unsafe { _mm256_loadu_ps(ra.add(c)) };
            let va1 = unsafe { _mm256_loadu_ps(ra.add(c + 8)) };
            let vb0 = unsafe { _mm256_loadu_ps(rb.add(c)) };
            let vb1 = unsafe { _mm256_loadu_ps(rb.add(c + 8)) };
            a_lo = _mm256_fmadd_ps(va0, vx0, a_lo);
            a_hi = _mm256_fmadd_ps(va1, vx1, a_hi);
            b_lo = _mm256_fmadd_ps(vb0, vx0, b_lo);
            b_hi = _mm256_fmadd_ps(vb1, vx1, b_hi);
            c += 16;
        }
        m[j] = _mm256_add_ps(a_lo, a_hi);
        m[j + 1] = _mm256_add_ps(b_lo, b_hi);
    }
    // SAFETY: same AVX2 context.
    let s = unsafe { transpose8_sum_avx2(m) };
    let mut sums = [0.0f32; 8];
    // SAFETY: `sums` is a 32-byte buffer; unaligned store is allowed.
    unsafe { _mm256_storeu_ps(sums.as_mut_ptr(), s) };
    let xt = &x[body..cols];
    for (j, (slot, &sj)) in out.iter_mut().zip(&sums).enumerate() {
        let d = fused_tail(sj, &rows8[j * cols + body..(j + 1) * cols], xt);
        *slot = if add { *slot + d } else { d };
    }
}

/// Blocked loop of [`Matrix::matmul_nt_fused_to`], mirroring
/// [`matmul_nt_rows`]'s panel structure with the fused kernels. Narrow
/// inputs keep the column-streaming layout (its per-element overhead is
/// already minimal and the fused kernels' 16-lane body never engages);
/// on x86_64 full eight-row groups take the grouped kernels and
/// leftovers the single-row ones, all bitwise identical per element.
/// Other architectures use the portable [`dot_fused_scalar`].
#[inline]
fn matmul_nt_fused_rows(
    data: &[f32],
    rows: usize,
    cols: usize,
    x: &[f32],
    out: &mut [f32],
    add: bool,
) {
    if cols < NARROW_COLS {
        matmul_nt_narrow(data, rows, cols, x, out, add);
        return;
    }
    const ROW_BLOCK: usize = 64;
    #[cfg(target_arch = "x86_64")]
    {
        let avx512 = std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq");
        let fma = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma");
        if avx512 || fma {
            let n = x.len() / cols;
            let mut r0 = 0;
            while r0 < rows {
                let r1 = (r0 + ROW_BLOCK).min(rows);
                let panel = &data[r0 * cols..r1 * cols];
                let pr = r1 - r0;
                let mut i0 = 0;
                if avx512 {
                    // Register-blocked core: 4 batch vectors × 4 panel
                    // rows per tile, leftovers below.
                    while i0 + 4 <= n {
                        let x4 = &x[i0 * cols..(i0 + 4) * cols];
                        let tiled = pr / 4 * 4;
                        let mut g = 0;
                        while g < tiled {
                            let out4 = &mut out[i0 * rows + r0 + g..];
                            // SAFETY: feature support established
                            // above; `panel[g * cols..]` holds at least
                            // four rows and `out4` reaches the last
                            // tile cell `3 * rows + 3`.
                            unsafe {
                                dot4x4_fused_avx512(&panel[g * cols..], cols, x4, out4, rows, add);
                            }
                            g += 4;
                        }
                        for r in tiled..pr {
                            let row = &panel[r * cols..(r + 1) * cols];
                            for i in 0..4 {
                                // SAFETY: feature support established above.
                                let d = unsafe {
                                    dot1_fused_avx512(row, &x4[i * cols..(i + 1) * cols])
                                };
                                let slot = &mut out[(i0 + i) * rows + r0 + r];
                                *slot = if add { *slot + d } else { d };
                            }
                        }
                        i0 += 4;
                    }
                }
                // Leftover batch vectors (all of them without AVX-512)
                // go through the one-vector eight-row kernels.
                let grouped = pr / 8 * 8;
                for i in i0..n {
                    let xi = &x[i * cols..(i + 1) * cols];
                    let oi = &mut out[i * rows + r0..i * rows + r1];
                    let mut g = 0;
                    while g < grouped {
                        // SAFETY: feature support established above;
                        // `panel[g * cols..]` holds at least eight rows.
                        unsafe {
                            if avx512 {
                                dot8_fused_avx512(
                                    &panel[g * cols..],
                                    cols,
                                    xi,
                                    &mut oi[g..g + 8],
                                    add,
                                );
                            } else {
                                dot8_fused_fma(
                                    &panel[g * cols..],
                                    cols,
                                    xi,
                                    &mut oi[g..g + 8],
                                    add,
                                );
                            }
                        }
                        g += 8;
                    }
                    for (slot, row) in oi[grouped..]
                        .iter_mut()
                        .zip(panel[grouped * cols..].chunks_exact(cols))
                    {
                        // SAFETY: feature support established above.
                        let d = unsafe {
                            if avx512 {
                                dot1_fused_avx512(row, xi)
                            } else {
                                dot1_fused_fma(row, xi)
                            }
                        };
                        *slot = if add { *slot + d } else { d };
                    }
                }
                r0 = r1;
            }
            return;
        }
    }
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + ROW_BLOCK).min(rows);
        let panel = &data[r0 * cols..r1 * cols];
        for (xi, oi) in x.chunks_exact(cols).zip(out.chunks_exact_mut(rows)) {
            for (slot, row) in oi[r0..r1].iter_mut().zip(panel.chunks_exact(cols)) {
                let d = dot_fused_scalar(row, xi);
                *slot = if add { *slot + d } else { d };
            }
        }
        r0 = r1;
    }
}

/// Register-tiled fused-FMA gradient accumulation `W += Aᵀ · B` — the
/// backward counterpart of the fused inference GEMMs. Every output
/// element `(r, c)` is a plain *sequential* fold over the `n` packed
/// rows, `acc = fma(a[t·R + r], b[t·C + c], acc)`, finished by a single
/// `+=` onto the existing value. No element ever crosses a reduction
/// tree, so the summation order is the per-element time order on every
/// instruction set: the scalar, AVX2+FMA and AVX-512 tiles below
/// assign whole output elements to vector lanes and therefore agree
/// bitwise. The tiles keep a 4-row block of the accumulator in
/// registers across the entire time loop, so the gradient matrix is
/// read and written once instead of once per timestep — the naive
/// [`Matrix::add_tn_product`] streams the whole gradient matrix through
/// cache `n` times, which is the dominant cost of batched BPTT's weight
/// update.
fn add_tn_rows(w: &mut [f32], rows: usize, cols: usize, a: &[f32], b: &[f32], n: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            // SAFETY: guarded by the runtime AVX-512 checks above.
            unsafe { add_tn_rows_avx512(w, rows, cols, a, b, n) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: guarded by the runtime AVX2+FMA checks above.
            unsafe { add_tn_rows_fma(w, rows, cols, a, b, n) };
            return;
        }
    }
    add_tn_rows_scalar(w, rows, cols, a, b, n, 0, rows);
}

/// Portable implementation of [`add_tn_rows`]'s per-element semantics
/// over the row range `r0..r1`: a sequential `f32::mul_add` fold over
/// time per element (`mul_add` is a correctly rounded IEEE fma, so this
/// matches the hardware-FMA tiles bitwise), with four independent row
/// chains interleaved to hide the fma latency even without SIMD.
#[allow(clippy::too_many_arguments)]
fn add_tn_rows_scalar(
    w: &mut [f32],
    rows: usize,
    cols: usize,
    a: &[f32],
    b: &[f32],
    n: usize,
    r0: usize,
    r1: usize,
) {
    let mut r = r0;
    while r + 4 <= r1 {
        for c in 0..cols {
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for t in 0..n {
                let bv = b[t * cols + c];
                let ar = &a[t * rows + r..t * rows + r + 4];
                s0 = ar[0].mul_add(bv, s0);
                s1 = ar[1].mul_add(bv, s1);
                s2 = ar[2].mul_add(bv, s2);
                s3 = ar[3].mul_add(bv, s3);
            }
            w[r * cols + c] += s0;
            w[(r + 1) * cols + c] += s1;
            w[(r + 2) * cols + c] += s2;
            w[(r + 3) * cols + c] += s3;
        }
        r += 4;
    }
    for r in r..r1 {
        for c in 0..cols {
            let mut s = 0.0f32;
            for t in 0..n {
                s = a[t * rows + r].mul_add(b[t * cols + c], s);
            }
            w[r * cols + c] += s;
        }
    }
}

/// Builds the `rem`-lane column-tail mask (`rem < 8`) for the AVX2
/// masked loads/stores below.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn tail_mask_avx2(rem: usize) -> std::arch::x86_64::__m256i {
    debug_assert!(rem < 8);
    let mut lanes = [0i32; 8];
    for slot in lanes.iter_mut().take(rem) {
        *slot = -1;
    }
    // SAFETY: `lanes` is a 32-byte buffer; unaligned load is allowed.
    unsafe { std::arch::x86_64::_mm256_loadu_si256(lanes.as_ptr().cast()) }
}

/// AVX2+FMA tile of [`add_tn_rows`]: 4 rows × 16 columns of the
/// accumulator live in eight `ymm` registers across the whole time
/// loop; each timestep costs four broadcast loads of `a`, two vector
/// loads of `b` and eight fused multiply-adds. Column remainders narrow
/// to one 8-wide vector and then one masked vector, row remainders to
/// single-row variants — every lane still computes the same sequential
/// per-element fold, so the tiling is bitwise-invisible.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn add_tn_rows_fma(w: &mut [f32], rows: usize, cols: usize, a: &[f32], b: &[f32], n: usize) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_maskload_ps, _mm256_maskstore_ps,
        _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    let mut r = 0;
    while r + 4 <= rows {
        let mut c = 0;
        while c + 16 <= cols {
            let mut acc = [_mm256_setzero_ps(); 8];
            for t in 0..n {
                // SAFETY: `t < n`, `c + 16 <= cols` and `r + 4 <= rows`
                // keep every offset below inside `a`/`b`.
                unsafe {
                    let bp = b.as_ptr().add(t * cols + c);
                    let b0 = _mm256_loadu_ps(bp);
                    let b1 = _mm256_loadu_ps(bp.add(8));
                    let ap = a.as_ptr().add(t * rows + r);
                    for j in 0..4 {
                        let av = _mm256_set1_ps(*ap.add(j));
                        acc[2 * j] = _mm256_fmadd_ps(av, b0, acc[2 * j]);
                        acc[2 * j + 1] = _mm256_fmadd_ps(av, b1, acc[2 * j + 1]);
                    }
                }
            }
            for j in 0..4 {
                // SAFETY: `(r + j) * cols + c + 16 <= rows * cols`.
                unsafe {
                    let wp = w.as_mut_ptr().add((r + j) * cols + c);
                    _mm256_storeu_ps(wp, _mm256_add_ps(_mm256_loadu_ps(wp), acc[2 * j]));
                    let wp8 = wp.add(8);
                    _mm256_storeu_ps(wp8, _mm256_add_ps(_mm256_loadu_ps(wp8), acc[2 * j + 1]));
                }
            }
            c += 16;
        }
        while c + 8 <= cols {
            let mut acc = [_mm256_setzero_ps(); 4];
            for t in 0..n {
                // SAFETY: `c + 8 <= cols`, `r + 4 <= rows`.
                unsafe {
                    let b0 = _mm256_loadu_ps(b.as_ptr().add(t * cols + c));
                    let ap = a.as_ptr().add(t * rows + r);
                    for (j, slot) in acc.iter_mut().enumerate() {
                        *slot = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(j)), b0, *slot);
                    }
                }
            }
            for (j, &acc_j) in acc.iter().enumerate() {
                // SAFETY: `(r + j) * cols + c + 8 <= rows * cols`.
                unsafe {
                    let wp = w.as_mut_ptr().add((r + j) * cols + c);
                    _mm256_storeu_ps(wp, _mm256_add_ps(_mm256_loadu_ps(wp), acc_j));
                }
            }
            c += 8;
        }
        if c < cols {
            // SAFETY: rem < 8 by the loop above.
            let mask = unsafe { tail_mask_avx2(cols - c) };
            let mut acc = [_mm256_setzero_ps(); 4];
            for t in 0..n {
                // SAFETY: the masked load touches only the `cols - c`
                // in-bounds lanes; `r + 4 <= rows`.
                unsafe {
                    let b0 = _mm256_maskload_ps(b.as_ptr().add(t * cols + c), mask);
                    let ap = a.as_ptr().add(t * rows + r);
                    for (j, slot) in acc.iter_mut().enumerate() {
                        *slot = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(j)), b0, *slot);
                    }
                }
            }
            for (j, &acc_j) in acc.iter().enumerate() {
                // SAFETY: masked load/store touch only in-bounds lanes.
                unsafe {
                    let wp = w.as_mut_ptr().add((r + j) * cols + c);
                    let cur = _mm256_maskload_ps(wp, mask);
                    _mm256_maskstore_ps(wp, mask, _mm256_add_ps(cur, acc_j));
                }
            }
        }
        r += 4;
    }
    while r < rows {
        let mut c = 0;
        while c + 8 <= cols {
            let mut acc = _mm256_setzero_ps();
            for t in 0..n {
                // SAFETY: `c + 8 <= cols`, `r < rows`.
                unsafe {
                    let b0 = _mm256_loadu_ps(b.as_ptr().add(t * cols + c));
                    acc = _mm256_fmadd_ps(_mm256_set1_ps(*a.get_unchecked(t * rows + r)), b0, acc);
                }
            }
            // SAFETY: `r * cols + c + 8 <= rows * cols`.
            unsafe {
                let wp = w.as_mut_ptr().add(r * cols + c);
                _mm256_storeu_ps(wp, _mm256_add_ps(_mm256_loadu_ps(wp), acc));
            }
            c += 8;
        }
        if c < cols {
            // SAFETY: rem < 8 by the loop above.
            let mask = unsafe { tail_mask_avx2(cols - c) };
            let mut acc = _mm256_setzero_ps();
            for t in 0..n {
                // SAFETY: masked load touches only in-bounds lanes.
                unsafe {
                    let b0 = _mm256_maskload_ps(b.as_ptr().add(t * cols + c), mask);
                    acc = _mm256_fmadd_ps(_mm256_set1_ps(*a.get_unchecked(t * rows + r)), b0, acc);
                }
            }
            // SAFETY: masked load/store touch only in-bounds lanes.
            unsafe {
                let wp = w.as_mut_ptr().add(r * cols + c);
                let cur = _mm256_maskload_ps(wp, mask);
                _mm256_maskstore_ps(wp, mask, _mm256_add_ps(cur, acc));
            }
        }
        r += 1;
    }
}

/// AVX-512 tile of [`add_tn_rows`]: 4 rows × 32 columns in eight `zmm`
/// accumulators (four broadcasts, two loads and eight FMAs per
/// timestep), narrowing to one 16-wide vector and a native `k`-masked
/// tail. Same per-element sequential fold as every other path.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn add_tn_rows_avx512(
    w: &mut [f32],
    rows: usize,
    cols: usize,
    a: &[f32],
    b: &[f32],
    n: usize,
) {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_mask_storeu_ps,
        _mm512_maskz_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
    };
    let mut r = 0;
    while r + 4 <= rows {
        let mut c = 0;
        while c + 32 <= cols {
            let mut acc = [_mm512_setzero_ps(); 8];
            for t in 0..n {
                // SAFETY: `t < n`, `c + 32 <= cols` and `r + 4 <= rows`
                // keep every offset below inside `a`/`b`.
                unsafe {
                    let bp = b.as_ptr().add(t * cols + c);
                    let b0 = _mm512_loadu_ps(bp);
                    let b1 = _mm512_loadu_ps(bp.add(16));
                    let ap = a.as_ptr().add(t * rows + r);
                    for j in 0..4 {
                        let av = _mm512_set1_ps(*ap.add(j));
                        acc[2 * j] = _mm512_fmadd_ps(av, b0, acc[2 * j]);
                        acc[2 * j + 1] = _mm512_fmadd_ps(av, b1, acc[2 * j + 1]);
                    }
                }
            }
            for j in 0..4 {
                // SAFETY: `(r + j) * cols + c + 32 <= rows * cols`.
                unsafe {
                    let wp = w.as_mut_ptr().add((r + j) * cols + c);
                    _mm512_storeu_ps(wp, _mm512_add_ps(_mm512_loadu_ps(wp), acc[2 * j]));
                    let wp16 = wp.add(16);
                    _mm512_storeu_ps(wp16, _mm512_add_ps(_mm512_loadu_ps(wp16), acc[2 * j + 1]));
                }
            }
            c += 32;
        }
        while c + 16 <= cols {
            let mut acc = [_mm512_setzero_ps(); 4];
            for t in 0..n {
                // SAFETY: `c + 16 <= cols`, `r + 4 <= rows`.
                unsafe {
                    let b0 = _mm512_loadu_ps(b.as_ptr().add(t * cols + c));
                    let ap = a.as_ptr().add(t * rows + r);
                    for (j, slot) in acc.iter_mut().enumerate() {
                        *slot = _mm512_fmadd_ps(_mm512_set1_ps(*ap.add(j)), b0, *slot);
                    }
                }
            }
            for (j, &acc_j) in acc.iter().enumerate() {
                // SAFETY: `(r + j) * cols + c + 16 <= rows * cols`.
                unsafe {
                    let wp = w.as_mut_ptr().add((r + j) * cols + c);
                    _mm512_storeu_ps(wp, _mm512_add_ps(_mm512_loadu_ps(wp), acc_j));
                }
            }
            c += 16;
        }
        if c < cols {
            let k = (1u16 << (cols - c)) - 1;
            let mut acc = [_mm512_setzero_ps(); 4];
            for t in 0..n {
                // SAFETY: the `k`-masked load touches only the
                // `cols - c` in-bounds lanes; `r + 4 <= rows`.
                unsafe {
                    let b0 = _mm512_maskz_loadu_ps(k, b.as_ptr().add(t * cols + c));
                    let ap = a.as_ptr().add(t * rows + r);
                    for (j, slot) in acc.iter_mut().enumerate() {
                        *slot = _mm512_fmadd_ps(_mm512_set1_ps(*ap.add(j)), b0, *slot);
                    }
                }
            }
            for (j, &acc_j) in acc.iter().enumerate() {
                // SAFETY: masked load/store touch only in-bounds lanes.
                unsafe {
                    let wp = w.as_mut_ptr().add((r + j) * cols + c);
                    let cur = _mm512_maskz_loadu_ps(k, wp);
                    _mm512_mask_storeu_ps(wp, k, _mm512_add_ps(cur, acc_j));
                }
            }
        }
        r += 4;
    }
    while r < rows {
        let mut c = 0;
        while c + 16 <= cols {
            let mut acc = _mm512_setzero_ps();
            for t in 0..n {
                // SAFETY: `c + 16 <= cols`, `r < rows`.
                unsafe {
                    let b0 = _mm512_loadu_ps(b.as_ptr().add(t * cols + c));
                    acc = _mm512_fmadd_ps(_mm512_set1_ps(*a.get_unchecked(t * rows + r)), b0, acc);
                }
            }
            // SAFETY: `r * cols + c + 16 <= rows * cols`.
            unsafe {
                let wp = w.as_mut_ptr().add(r * cols + c);
                _mm512_storeu_ps(wp, _mm512_add_ps(_mm512_loadu_ps(wp), acc));
            }
            c += 16;
        }
        if c < cols {
            let k = (1u16 << (cols - c)) - 1;
            let mut acc = _mm512_setzero_ps();
            for t in 0..n {
                // SAFETY: masked load touches only in-bounds lanes.
                unsafe {
                    let b0 = _mm512_maskz_loadu_ps(k, b.as_ptr().add(t * cols + c));
                    acc = _mm512_fmadd_ps(_mm512_set1_ps(*a.get_unchecked(t * rows + r)), b0, acc);
                }
            }
            // SAFETY: masked load/store touch only in-bounds lanes.
            unsafe {
                let wp = w.as_mut_ptr().add(r * cols + c);
                let cur = _mm512_maskz_loadu_ps(k, wp);
                _mm512_mask_storeu_ps(wp, k, _mm512_add_ps(cur, acc));
            }
        }
        r += 1;
    }
}

/// A dense row-major `f32` matrix.
///
/// # Example
///
/// ```
/// use thrubarrier_nn::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let v = m.matvec(&[1.0, 1.0]);
/// assert_eq!(v, vec![3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "inconsistent row lengths");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Xavier/Glorot-uniform initialization: entries uniform in
    /// `[-s, s]` with `s = sqrt(6 / (rows + cols))`.
    pub fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let s = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols).map(|_| rng.gen_range(-s..=s)).collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable access to the raw data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the raw data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.rows];
        self.matvec_into(x, &mut out);
        out
    }

    /// Matrix–vector product written into a caller-provided buffer —
    /// the allocation-free form recurrent loops stream through.
    ///
    /// # Panics
    ///
    /// Panics unless `x.len() == self.cols()` and
    /// `out.len() == self.rows()`.
    pub fn matvec_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(out.len(), self.rows, "matvec output length mismatch");
        if self.cols == 0 {
            out.iter_mut().for_each(|v| *v = 0.0);
            return;
        }
        matvec_rows(&self.data, self.cols, x, out, false);
    }

    /// Accumulating matrix–vector product `out += self * x` — the
    /// recurrent half `z += U·h` of a fused gate pre-activation, added
    /// onto the time-batched input projection without a temporary.
    ///
    /// # Panics
    ///
    /// Panics unless `x.len() == self.cols()` and
    /// `out.len() == self.rows()`.
    pub fn matvec_add_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(out.len(), self.rows, "matvec output length mismatch");
        if self.cols == 0 {
            return;
        }
        matvec_rows(&self.data, self.cols, x, out, true);
    }

    /// Time-batched product `C = X · selfᵀ`: `x` holds `n` row-major
    /// rows of `self.cols()` values (one input vector per timestep) and
    /// row `i` of the result is `self · x_i`. Computing every timestep's
    /// input projection in one pass keeps the weight matrix hot in cache
    /// across the whole utterance instead of re-streaming it per step.
    ///
    /// Row `i` equals [`Matrix::matvec`] of `x_i` up to rounding: for
    /// fewer than 32 columns a column-streaming layout with a different
    /// (but still fixed and deterministic) summation order is used.
    /// Wider matrices go through the shared dot kernel and match
    /// `matvec` bitwise.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n * self.cols()`.
    pub fn matmul_nt(&self, x: &[f32], n: usize) -> Vec<f32> {
        let mut out = Vec::new();
        self.matmul_nt_into(x, n, &mut out);
        out
    }

    /// [`Matrix::matmul_nt`] into a reusable buffer (`out` is resized to
    /// `n * self.rows()`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n * self.cols()`.
    pub fn matmul_nt_into(&self, x: &[f32], n: usize, out: &mut Vec<f32>) {
        out.clear();
        out.resize(n * self.rows, 0.0);
        self.matmul_nt_to(x, n, out, false);
    }

    /// [`Matrix::matmul_nt`] into an exact-size slice, with `add`
    /// selecting accumulation (`out += X · selfᵀ`) versus overwrite.
    ///
    /// The accumulating form is the batched generalization of
    /// [`Matrix::matvec_add_into`]: with 32 or more columns every output
    /// element goes through the shared dot kernel followed by a single
    /// `+` onto the existing value, so a batch of rows matches the
    /// per-row accumulating products bitwise. This is the per-timestep
    /// recurrent step `Z += H · Uᵀ` of the packed-batch engine.
    ///
    /// # Panics
    ///
    /// Panics unless `x.len() == n * self.cols()` and
    /// `out.len() == n * self.rows()`.
    pub fn matmul_nt_to(&self, x: &[f32], n: usize, out: &mut [f32], add: bool) {
        assert_eq!(x.len(), n * self.cols, "matmul_nt dimension mismatch");
        assert_eq!(out.len(), n * self.rows, "matmul_nt output length mismatch");
        if self.cols == 0 || self.rows == 0 {
            if !add {
                out.iter_mut().for_each(|v| *v = 0.0);
            }
            return;
        }
        matmul_nt_rows(&self.data, self.rows, self.cols, x, out, add);
    }

    /// [`Matrix::matmul_nt_to`] with *fused* multiply-add semantics —
    /// the throughput kernel behind the packed-batch engines' forward
    /// GEMMs (recurrent `Z += H · Uᵀ`, cached input projections and the
    /// flattened dense head).
    ///
    /// Each dot product follows [`dot_fused_scalar`]: sixteen
    /// accumulator lanes updated with single-rounding fused
    /// multiply-adds, halving the floating-point instruction count of
    /// the unfused [`dot`] semantics. On hardware without FMA execution
    /// units that halving is irrelevant, but wherever FMA exists it is
    /// the difference between a batched GEMM that merely matches the
    /// per-sequence engine's arithmetic throughput and one that beats
    /// it. The cost is a deterministic but *different* rounding: the
    /// portable scalar path (`f32::mul_add` — a correctly rounded IEEE
    /// fma), AVX2+FMA and AVX-512 kernels all agree bitwise with each
    /// other, and the result stays independent of batch size and row
    /// position, but outputs differ from [`Matrix::matmul_nt_to`] by
    /// ~1e-7 relative error. Gradient paths and the per-sequence
    /// engines therefore stay on the unfused kernels, and batched
    /// outputs match sequential ones within tolerance rather than
    /// bitwise.
    ///
    /// # Panics
    ///
    /// Panics unless `x.len() == n * self.cols()` and
    /// `out.len() == n * self.rows()`.
    pub fn matmul_nt_fused_to(&self, x: &[f32], n: usize, out: &mut [f32], add: bool) {
        assert_eq!(x.len(), n * self.cols, "matmul_nt dimension mismatch");
        assert_eq!(out.len(), n * self.rows, "matmul_nt output length mismatch");
        if self.cols == 0 || self.rows == 0 {
            if !add {
                out.iter_mut().for_each(|v| *v = 0.0);
            }
            return;
        }
        matmul_nt_fused_rows(&self.data, self.rows, self.cols, x, out, add);
    }

    /// Batched transposed product `C = X · self`: `x` holds `n`
    /// row-major rows of `self.rows()` values and row `i` of `out` is
    /// `selfᵀ · x_i` — the batched form of
    /// [`Matrix::matvec_transposed_into`] (each output row computed with
    /// the same accumulation order, so rows match it bitwise). Batched
    /// BPTT uses this to chain a whole timestep block's gate gradients
    /// back through the recurrent weights in one call.
    ///
    /// # Panics
    ///
    /// Panics unless `x.len() == n * self.rows()` and
    /// `out.len() == n * self.cols()`.
    #[cfg(test)]
    pub(crate) fn matmul_t_to(&self, x: &[f32], n: usize, out: &mut [f32]) {
        assert_eq!(x.len(), n * self.rows, "matmul_t dimension mismatch");
        assert_eq!(out.len(), n * self.cols, "matmul_t output length mismatch");
        if self.rows == 0 {
            out.iter_mut().for_each(|v| *v = 0.0);
            return;
        }
        for (xi, oi) in x
            .chunks_exact(self.rows)
            .zip(out.chunks_exact_mut(self.cols.max(1)))
        {
            self.matvec_transposed_into(xi, oi);
        }
    }

    /// Transposed matrix–vector product `selfᵀ * x` — used in
    /// backpropagation without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_transposed(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        self.matvec_transposed_into(x, &mut out);
        out
    }

    /// [`Matrix::matvec_transposed`] written into a caller-provided
    /// buffer (overwritten, not accumulated).
    ///
    /// # Panics
    ///
    /// Panics unless `x.len() == self.rows()` and
    /// `out.len() == self.cols()`.
    pub fn matvec_transposed_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "matvec_transposed dimension mismatch");
        assert_eq!(
            out.len(),
            self.cols,
            "matvec_transposed output length mismatch"
        );
        out.iter_mut().for_each(|v| *v = 0.0);
        for (&xr, row) in x.iter().zip(self.data.chunks_exact(self.cols.max(1))) {
            for (o, &w) in out.iter_mut().zip(row) {
                *o += w * xr;
            }
        }
    }

    /// Batched gradient accumulation `self += Aᵀ · B`, where `a` holds
    /// `n` row-major rows of `self.rows()` values and `b` holds `n`
    /// row-major rows of `self.cols()` values. Equivalent to one
    /// [`Matrix::add_outer`] per row pair, but expressed as a single
    /// GEMM over the whole sequence — this is how BPTT turns its
    /// per-timestep rank-1 weight updates into one batched product.
    ///
    /// # Panics
    ///
    /// Panics unless `a.len() == n * self.rows()` and
    /// `b.len() == n * self.cols()`.
    pub fn add_tn_product(&mut self, a: &[f32], b: &[f32], n: usize) {
        assert_eq!(a.len(), n * self.rows, "add_tn_product row mismatch");
        assert_eq!(b.len(), n * self.cols, "add_tn_product col mismatch");
        if self.cols == 0 || self.rows == 0 {
            return;
        }
        for (ai, bi) in a.chunks_exact(self.rows).zip(b.chunks_exact(self.cols)) {
            for (&ar, drow) in ai.iter().zip(self.data.chunks_exact_mut(self.cols)) {
                for (slot, &bc) in drow.iter_mut().zip(bi) {
                    *slot += ar * bc;
                }
            }
        }
    }

    /// Fused register-tiled variant of [`Matrix::add_tn_product`]: the
    /// same batched gradient accumulation `self += Aᵀ · B`, computed by
    /// [`add_tn_rows`]. Each output element is one sequential
    /// fused-multiply-add fold over the `n` packed rows followed by a
    /// single `+=`, so the result differs from the unfused path only by
    /// fma rounding plus one final add per element, and is
    /// bitwise-identical across the scalar/AVX2/AVX-512 tiles
    /// (every lane owns a whole element — no cross-lane reduction
    /// exists to reassociate).
    ///
    /// # Panics
    ///
    /// Panics unless `a.len() == n * self.rows()` and
    /// `b.len() == n * self.cols()`.
    pub fn add_tn_product_fused(&mut self, a: &[f32], b: &[f32], n: usize) {
        assert_eq!(a.len(), n * self.rows, "add_tn_product row mismatch");
        assert_eq!(b.len(), n * self.cols, "add_tn_product col mismatch");
        if self.cols == 0 || self.rows == 0 || n == 0 {
            return;
        }
        add_tn_rows(&mut self.data, self.rows, self.cols, a, b, n);
    }

    /// Writes this matrix's transpose into `out`, resizing it as
    /// needed. Used by [`TransposedCache`] to materialise `Wᵀ` once per
    /// weight version so the batched input-gradient GEMM `dX = Wᵀ · dG`
    /// can ride the row-major fused kernels.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.rows = self.cols;
        out.cols = self.rows;
        out.data.clear();
        out.data.resize(self.rows * self.cols, 0.0);
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// Stacks matrices vertically (all must share a column count). Used
    /// to assemble the fused `4H x I` gate layout from per-gate blocks.
    ///
    /// # Panics
    ///
    /// Panics if the blocks disagree on column count.
    pub fn vstack(blocks: &[&Matrix]) -> Matrix {
        let cols = blocks.first().map_or(0, |m| m.cols);
        let rows = blocks.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in blocks {
            assert_eq!(m.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&m.data);
        }
        Matrix { rows, cols, data }
    }

    /// Accumulates the outer product `x ⊗ y` into the matrix — used for
    /// weight gradients (`dW += dgate ⊗ input`).
    ///
    /// # Panics
    ///
    /// Panics unless `x.len() == rows` and `y.len() == cols`.
    pub fn add_outer(&mut self, x: &[f32], y: &[f32]) {
        assert_eq!(x.len(), self.rows, "outer product row mismatch");
        assert_eq!(y.len(), self.cols, "outer product col mismatch");
        for (r, &xr) in x.iter().enumerate() {
            let base = r * self.cols;
            for (c, &yc) in y.iter().enumerate() {
                self.data[base + c] += xr * yc;
            }
        }
    }

    /// Sets all elements to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sum of squares of all elements (for gradient-norm diagnostics),
    /// computed with the shared [`dot`] kernel's lane semantics.
    pub fn frobenius_sq(&self) -> f32 {
        dot(&self.data, &self.data)
    }
}

/// Reusable buffers for the fused-gate recurrent engines.
///
/// One scratch serves any mix of LSTM/GRU directions and sequence
/// lengths: every user resizes the buffers it needs, so capacity grows
/// to the high-water mark and is then reused allocation-free. Callers
/// that score or train many sequences should create one scratch and
/// thread it through `*_with_scratch` entry points; the convenience
/// wrappers create a fresh scratch per call.
#[derive(Debug, Clone, Default)]
pub struct GemmScratch {
    /// Packed input sequence, `T x input_size` row-major.
    pub(crate) x_flat: Vec<f32>,
    /// Time-batched input projections `W·x_t`, `T x gate_rows`.
    pub(crate) proj: Vec<f32>,
    /// Current step's gate pre-activations, `gate_rows`.
    pub(crate) z: Vec<f32>,
    /// Recurrent state pair (`h` then `c`), `2 * hidden`.
    pub(crate) state: Vec<f32>,
    /// Backward-pass gate gradients, `T x gate_rows`.
    pub(crate) dz: Vec<f32>,
    /// Secondary backward-pass rows (GRU `U`-side gradients), `T x gate_rows`.
    pub(crate) dz_u: Vec<f32>,
    /// Backward-pass state gradients, `4 * hidden`.
    pub(crate) dstate: Vec<f32>,
    /// Batched hidden rows / hidden gradients, `B x hidden`.
    pub(crate) bh: Vec<f32>,
    /// Batched cell rows / cell gradients, `B x hidden`.
    pub(crate) bc: Vec<f32>,
    /// Batched gate pre-activations, `B x gate_rows`.
    pub(crate) bz: Vec<f32>,
    /// Batched temporaries (state pairs, GRU `U·h` rows), sized ad hoc.
    pub(crate) bt: Vec<f32>,
}

impl GemmScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        GemmScratch::default()
    }
}

/// A version-keyed transposed-weight view for the fused backward
/// engine's input-gradient GEMMs (`dX = Wᵀ · dG`).
///
/// The fused row-major kernels need `Wᵀ` laid out as a matrix of its
/// own; rebuilding it every backward step would erase the win, so the
/// cache keys the materialised transpose on the owning [`Param`]'s
/// version ticket — the same invalidation rule as the batched
/// projection cache. Version tickets are allocated from one global
/// counter and bumped on every optimiser step, so a ticket match
/// guarantees value identity (clones share a ticket only while their
/// values are bitwise equal), and a stale transpose can never survive
/// an `adam_step`.
///
/// [`Param`]: crate::param::Param
#[derive(Debug, Clone)]
pub struct TransposedCache {
    mat: Matrix,
    key: Option<u64>,
}

impl Default for TransposedCache {
    fn default() -> Self {
        TransposedCache {
            mat: Matrix::zeros(0, 0),
            key: None,
        }
    }
}

impl TransposedCache {
    /// Creates an empty cache; the transpose is built on first use.
    pub fn new() -> Self {
        TransposedCache::default()
    }

    /// Returns the transpose of `src`, rebuilding it only when
    /// `version` differs from the cached key.
    pub(crate) fn get(&mut self, src: &Matrix, version: u64) -> &Matrix {
        if self.key == Some(version) {
            thrubarrier_obs::counter!("nn.wt_cache.hit").incr();
        } else {
            thrubarrier_obs::counter!("nn.wt_cache.miss").incr();
            src.transpose_into(&mut self.mat);
            self.key = Some(version);
        }
        &self.mat
    }
}

/// Packs a sequence of equal-length vectors into a flat row-major
/// buffer, optionally in reverse time order (the backward direction of
/// a bidirectional layer consumes the sequence reversed without the
/// caller cloning it).
///
/// # Panics
///
/// Panics if any vector's length differs from `width`.
pub(crate) fn pack_rows(xs: &[Vec<f32>], width: usize, reversed: bool, out: &mut Vec<f32>) {
    out.clear();
    out.reserve(xs.len() * width);
    let push = |out: &mut Vec<f32>, x: &Vec<f32>| {
        assert_eq!(x.len(), width, "input dimension mismatch");
        out.extend_from_slice(x);
    };
    if reversed {
        for x in xs.iter().rev() {
            push(out, x);
        }
    } else {
        for x in xs {
            push(out, x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dispatched_dot_is_bitwise_identical_to_scalar_lanes() {
        // On a machine with AVX2 this pits the SIMD path against the
        // portable one; lengths straddle the 32-lane body, the 8-lane
        // tail pass and the sequential remainder.
        for len in [0, 1, 7, 8, 14, 31, 32, 33, 64, 97, 256] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32 * 0.73).sin() * 3.0).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * 1.19).cos() * 2.0).collect();
            let lanes = dot_scalar(&a, &b);
            let dispatched = dot(&a, &b);
            assert_eq!(dispatched.to_bits(), lanes.to_bits(), "len {len}");
        }
    }

    #[test]
    fn fused_matmul_nt_is_bitwise_identical_to_scalar_fused_lanes() {
        // Wide shapes take the AVX2-FMA / AVX-512 kernels where
        // available; every element must still reproduce the portable
        // sixteen-lane `mul_add` reference exactly. Column counts
        // straddle the 16-lane body boundary and the fused tail, row
        // counts straddle the eight-row group and the 64-row panel.
        let mut rng = StdRng::seed_from_u64(11);
        for (rows, cols, n) in [(8, 32, 1), (13, 33, 3), (70, 45, 4), (256, 64, 8)] {
            let m = Matrix::xavier(rows, cols, &mut rng);
            let x: Vec<f32> = (0..n * cols).map(|i| (i as f32 * 0.61).sin()).collect();
            for add in [false, true] {
                let mut out: Vec<f32> = (0..n * rows).map(|i| i as f32 * 0.01).collect();
                let base = out.clone();
                m.matmul_nt_fused_to(&x, n, &mut out, add);
                for t in 0..n {
                    for r in 0..rows {
                        let d = dot_fused_scalar(m.row(r), &x[t * cols..(t + 1) * cols]);
                        let want = if add { base[t * rows + r] + d } else { d };
                        assert_eq!(
                            out[t * rows + r].to_bits(),
                            want.to_bits(),
                            "rows {rows} cols {cols} n {n} add {add} t {t} r {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_matmul_nt_is_batch_size_invariant() {
        // Row `t` of a batched product must be bitwise the same as the
        // one-row product of `x_t` alone — the property that makes
        // batched inference scores independent of batch composition.
        let mut rng = StdRng::seed_from_u64(12);
        let (rows, cols, n) = (33, 64, 6);
        let m = Matrix::xavier(rows, cols, &mut rng);
        let x: Vec<f32> = (0..n * cols).map(|i| (i as f32 * 0.23).cos()).collect();
        let mut batched = vec![0.0f32; n * rows];
        m.matmul_nt_fused_to(&x, n, &mut batched, false);
        for t in 0..n {
            let mut single = vec![0.0f32; rows];
            m.matmul_nt_fused_to(&x[t * cols..(t + 1) * cols], 1, &mut single, false);
            for r in 0..rows {
                assert_eq!(
                    batched[t * rows + r].to_bits(),
                    single[r].to_bits(),
                    "t {t} r {r}"
                );
            }
        }
    }

    #[test]
    fn fused_matmul_nt_matches_unfused_up_to_rounding() {
        let mut rng = StdRng::seed_from_u64(13);
        let (rows, cols, n) = (70, 45, 5);
        let m = Matrix::xavier(rows, cols, &mut rng);
        let x: Vec<f32> = (0..n * cols).map(|i| (i as f32 * 0.47).sin()).collect();
        let mut fused = vec![0.0f32; n * rows];
        let mut plain = vec![0.0f32; n * rows];
        m.matmul_nt_fused_to(&x, n, &mut fused, false);
        m.matmul_nt_to(&x, n, &mut plain, false);
        for (i, (a, b)) in fused.iter().zip(&plain).enumerate() {
            assert!((a - b).abs() < 1e-4 * b.abs().max(1.0), "{i}: {a} vs {b}");
        }
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, -1.0, 1.0]]);
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![6.0, 0.0]);
    }

    #[test]
    fn matvec_transposed_matches_explicit_transpose() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let x = [1.0, 0.5, -1.0];
        let got = m.matvec_transposed(&x);
        // Explicit: columns of m dotted with x.
        assert_eq!(got, vec![1.0 + 1.5 - 5.0, 2.0 + 2.0 - 6.0]);
    }

    #[test]
    fn add_outer_accumulates() {
        let mut m = Matrix::zeros(2, 3);
        m.add_outer(&[1.0, 2.0], &[1.0, 0.0, -1.0]);
        m.add_outer(&[1.0, 0.0], &[1.0, 1.0, 1.0]);
        assert_eq!(m.row(0), &[2.0, 1.0, 0.0]);
        assert_eq!(m.row(1), &[2.0, 0.0, -2.0]);
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = Matrix::xavier(10, 20, &mut rng);
        let s = (6.0f32 / 30.0).sqrt();
        assert!(m.data().iter().all(|&v| v.abs() <= s + 1e-6));
        // Not all zero.
        assert!(m.frobenius_sq() > 0.0);
    }

    #[test]
    #[should_panic(expected = "matvec dimension mismatch")]
    fn matvec_rejects_wrong_length() {
        Matrix::zeros(2, 3).matvec(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "inconsistent row lengths")]
    fn from_rows_rejects_ragged_input() {
        Matrix::from_rows(&[&[1.0, 2.0], &[1.0]]);
    }

    #[test]
    fn fill_zero_resets() {
        let mut m = Matrix::from_rows(&[&[1.0], &[2.0]]);
        m.fill_zero();
        assert_eq!(m.data(), &[0.0, 0.0]);
    }

    #[test]
    fn wide_matmul_nt_matches_per_step_matvec_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        // Odd sizes exercise the dot-product remainder and row-block
        // boundaries (rows > ROW_BLOCK); 45 columns engage the 32-lane
        // body plus the tail passes.
        let m = Matrix::xavier(70, 45, &mut rng);
        let n = 9;
        let x: Vec<f32> = (0..n * 45).map(|i| (i as f32 * 0.37).sin()).collect();
        let batched = m.matmul_nt(&x, n);
        assert_eq!(batched.len(), n * 70);
        for t in 0..n {
            let single = m.matvec(&x[t * 45..(t + 1) * 45]);
            assert_eq!(&batched[t * 70..(t + 1) * 70], single.as_slice());
        }
    }

    #[test]
    fn narrow_matmul_nt_matches_matvec_up_to_rounding() {
        let mut rng = StdRng::seed_from_u64(8);
        // 13 columns take the column-streaming path, whose summation
        // order differs from the dot kernel's.
        let m = Matrix::xavier(70, 13, &mut rng);
        let n = 9;
        let x: Vec<f32> = (0..n * 13).map(|i| (i as f32 * 0.37).sin()).collect();
        let batched = m.matmul_nt(&x, n);
        for t in 0..n {
            let single = m.matvec(&x[t * 13..(t + 1) * 13]);
            for (a, b) in batched[t * 70..(t + 1) * 70].iter().zip(&single) {
                assert!((a - b).abs() <= 1e-6 * b.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn narrow_matmul_nt_accumulates_in_column_order() {
        // Pin the narrow path's documented semantics: out[t][r] is the
        // plain left-to-right fold over columns, whichever instruction
        // set computes it.
        let mut rng = StdRng::seed_from_u64(9);
        let m = Matrix::xavier(19, 5, &mut rng);
        let n = 3;
        let x: Vec<f32> = (0..n * 5).map(|i| (i as f32 * 0.53).cos()).collect();
        let batched = m.matmul_nt(&x, n);
        for t in 0..n {
            for r in 0..19 {
                let mut s = 0.0f32;
                for c in 0..5 {
                    s += m.get(r, c) * x[t * 5 + c];
                }
                assert_eq!(batched[t * 19 + r].to_bits(), s.to_bits(), "t {t} r {r}");
            }
        }
    }

    #[test]
    fn matvec_add_into_accumulates() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut out = vec![10.0, 20.0];
        m.matvec_add_into(&[1.0, 1.0], &mut out);
        assert_eq!(out, vec![13.0, 27.0]);
    }

    #[test]
    fn matvec_transposed_into_overwrites() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut out = vec![99.0, 99.0];
        m.matvec_transposed_into(&[1.0, 0.5, -1.0], &mut out);
        assert_eq!(out, m.matvec_transposed(&[1.0, 0.5, -1.0]).as_slice());
    }

    #[test]
    fn add_tn_product_matches_per_row_outer() {
        let mut batched = Matrix::zeros(5, 3);
        let mut looped = Matrix::zeros(5, 3);
        let n = 4;
        let a: Vec<f32> = (0..n * 5).map(|i| (i as f32 * 0.21).cos()).collect();
        let b: Vec<f32> = (0..n * 3).map(|i| (i as f32 * 0.43).sin()).collect();
        batched.add_tn_product(&a, &b, n);
        for t in 0..n {
            looped.add_outer(&a[t * 5..(t + 1) * 5], &b[t * 3..(t + 1) * 3]);
        }
        for (x, y) in batched.data().iter().zip(looped.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let s = Matrix::vstack(&[&a, &b]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.cols(), 2);
        assert_eq!(s.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "vstack column mismatch")]
    fn vstack_rejects_mismatched_columns() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(1, 3);
        Matrix::vstack(&[&a, &b]);
    }

    #[test]
    fn pack_rows_supports_reversal() {
        let xs = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let mut flat = Vec::new();
        pack_rows(&xs, 2, false, &mut flat);
        assert_eq!(flat, vec![1.0, 2.0, 3.0, 4.0]);
        pack_rows(&xs, 2, true, &mut flat);
        assert_eq!(flat, vec![3.0, 4.0, 1.0, 2.0]);
    }

    #[test]
    fn matmul_nt_to_accumulate_matches_matvec_add_into_bitwise() {
        // The batched recurrent step must be a drop-in for the
        // per-sequence accumulating mat-vec: with >= 32 columns both
        // sides go dot-kernel + single add, so rows agree bitwise.
        let mut rng = StdRng::seed_from_u64(11);
        let m = Matrix::xavier(70, 45, &mut rng);
        let n = 5;
        let x: Vec<f32> = (0..n * 45).map(|i| (i as f32 * 0.29).sin()).collect();
        let mut batched: Vec<f32> = (0..n * 70).map(|i| (i as f32 * 0.11).cos()).collect();
        let mut looped = batched.clone();
        m.matmul_nt_to(&x, n, &mut batched, true);
        for t in 0..n {
            m.matvec_add_into(&x[t * 45..(t + 1) * 45], &mut looped[t * 70..(t + 1) * 70]);
        }
        for (a, b) in batched.iter().zip(&looped) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn matmul_nt_to_overwrite_matches_matmul_nt() {
        let mut rng = StdRng::seed_from_u64(12);
        let m = Matrix::xavier(17, 33, &mut rng);
        let n = 4;
        let x: Vec<f32> = (0..n * 33).map(|i| (i as f32 * 0.41).sin()).collect();
        let mut out = vec![f32::NAN; n * 17];
        m.matmul_nt_to(&x, n, &mut out, false);
        assert_eq!(out, m.matmul_nt(&x, n));
    }

    #[test]
    fn matmul_t_to_matches_per_row_transposed_matvec_bitwise() {
        let mut rng = StdRng::seed_from_u64(13);
        let m = Matrix::xavier(40, 9, &mut rng);
        let n = 6;
        let x: Vec<f32> = (0..n * 40).map(|i| (i as f32 * 0.33).cos()).collect();
        let mut out = vec![f32::NAN; n * 9];
        m.matmul_t_to(&x, n, &mut out);
        for t in 0..n {
            let single = m.matvec_transposed(&x[t * 40..(t + 1) * 40]);
            for (a, b) in out[t * 9..(t + 1) * 9].iter().zip(&single) {
                assert_eq!(a.to_bits(), b.to_bits(), "t {t}");
            }
        }
    }

    #[test]
    fn fused_add_tn_product_matches_sequential_fma_fold() {
        // Every element of the fused accumulate must reproduce the
        // per-element sequential `mul_add` fold exactly on whatever
        // tile the dispatcher picks. Shapes straddle the 4-row block
        // and every column-tile boundary (16/8/masked on AVX2,
        // 32/16/masked on AVX-512), include the
        // training shapes (256x14, 256x64, 2x128) and the empty batch,
        // and accumulate onto non-zero initial values.
        let mut rng = StdRng::seed_from_u64(21);
        for (rows, cols, n) in [
            (1, 1, 1),
            (2, 5, 3),
            (3, 7, 0),
            (4, 14, 9),
            (5, 16, 4),
            (7, 31, 2),
            (8, 33, 5),
            (12, 17, 3),
            (13, 45, 6),
            (2, 128, 6),
            (256, 14, 8),
            (256, 64, 4),
        ] {
            let mut m = Matrix::xavier(rows, cols, &mut rng);
            let base = m.clone();
            let a: Vec<f32> = (0..n * rows).map(|i| (i as f32 * 0.29).sin()).collect();
            let b: Vec<f32> = (0..n * cols).map(|i| (i as f32 * 0.53).cos()).collect();
            m.add_tn_product_fused(&a, &b, n);
            for r in 0..rows {
                for c in 0..cols {
                    let mut s = 0.0f32;
                    for t in 0..n {
                        s = a[t * rows + r].mul_add(b[t * cols + c], s);
                    }
                    let want = base.get(r, c) + s;
                    assert_eq!(
                        m.get(r, c).to_bits(),
                        want.to_bits(),
                        "rows {rows} cols {cols} n {n} r {r} c {c}"
                    );
                }
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_add_tn_tile_matches_scalar_fold_bitwise() {
        // The dispatcher prefers AVX-512 where available, which would
        // leave the AVX2+FMA tile untested on such hosts — drive it
        // directly against the portable fold.
        if !(std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma"))
        {
            return;
        }
        let mut rng = StdRng::seed_from_u64(23);
        for (rows, cols, n) in [
            (4, 14, 9),
            (5, 16, 4),
            (7, 31, 2),
            (2, 128, 6),
            (256, 64, 3),
        ] {
            let seed = Matrix::xavier(rows, cols, &mut rng);
            let a: Vec<f32> = (0..n * rows).map(|i| (i as f32 * 0.19).sin()).collect();
            let b: Vec<f32> = (0..n * cols).map(|i| (i as f32 * 0.41).cos()).collect();
            let mut tiled = seed.clone();
            // SAFETY: guarded by the runtime AVX2+FMA checks above.
            unsafe { add_tn_rows_fma(&mut tiled.data, rows, cols, &a, &b, n) };
            let mut plain = seed.clone();
            add_tn_rows_scalar(&mut plain.data, rows, cols, &a, &b, n, 0, rows);
            for (i, (x, y)) in tiled.data().iter().zip(plain.data()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "rows {rows} cols {cols} n {n} {i}"
                );
            }
        }
    }

    #[test]
    fn fused_add_tn_product_matches_unfused_up_to_rounding() {
        let mut rng = StdRng::seed_from_u64(22);
        let (rows, cols, n) = (70, 45, 7);
        let mut fused = Matrix::xavier(rows, cols, &mut rng);
        let mut plain = fused.clone();
        let a: Vec<f32> = (0..n * rows).map(|i| (i as f32 * 0.17).sin()).collect();
        let b: Vec<f32> = (0..n * cols).map(|i| (i as f32 * 0.37).cos()).collect();
        fused.add_tn_product_fused(&a, &b, n);
        plain.add_tn_product(&a, &b, n);
        for (i, (x, y)) in fused.data().iter().zip(plain.data()).enumerate() {
            assert!((x - y).abs() < 1e-5 * y.abs().max(1.0), "{i}: {x} vs {y}");
        }
    }

    #[test]
    fn transpose_into_swaps_indices() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let mut t = Matrix::zeros(0, 0);
        m.transpose_into(&mut t);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        // Reusing the same output buffer for a different shape works.
        let m2 = Matrix::from_rows(&[&[7.0], &[8.0]]);
        m2.transpose_into(&mut t);
        assert_eq!(t.rows(), 1);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.data(), &[7.0, 8.0]);
    }

    #[test]
    fn transposed_cache_rebuilds_only_on_version_change() {
        let mut cache = TransposedCache::new();
        let m1 = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let t1 = cache.get(&m1, 1).clone();
        assert_eq!(t1.data(), &[1.0, 3.0, 2.0, 4.0]);
        // Same key, different matrix: the stale view is served. This is
        // sound for `Param` weights because version tickets are
        // globally unique and bumped on every optimiser step.
        let m2 = Matrix::from_rows(&[&[9.0, 9.0], &[9.0, 9.0]]);
        assert_eq!(cache.get(&m2, 1).data(), t1.data());
        // A new key rebuilds from the current matrix.
        assert_eq!(cache.get(&m2, 2).data(), &[9.0, 9.0, 9.0, 9.0]);
    }
}
