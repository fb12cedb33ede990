//! Steady-state calls perform **zero** packing allocations: once every
//! participating thread's arena is warm, replaying the same shapes hits the
//! free lists only.
//!
//! `arena::allocation_count()` is process-wide, so anything else allocating
//! from the arena while a check reads it is a false failure. This binary is
//! therefore one `#[test]` — its own process, no sibling tests — running
//! the serial, the parallel-GEMM, the all-routines and the
//! triangular-at-two-shapes checks in sequence.

// Outside the Miri subset: exercises the OS thread pool and spin barriers.
#![cfg(not(miri))]

use adsala_blas3::kernel::gemm_serial;
use adsala_blas3::pack::PackSrc;
use adsala_blas3::Transpose::No;
use adsala_blas3::{arena, gemm, symm, syr2k, syrk, trmm, trsm};
use adsala_blas3::{Diag, Matrix, Side, Transpose, Uplo};

/// Deterministic value stream in roughly [-2, 2].
fn det_mat(r: usize, c: usize, seed: u64) -> Matrix<f64> {
    Matrix::from_fn(r, c, |i, j| {
        let h = (i as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((j as u64).wrapping_mul(0xBF58476D1CE4E5B9))
            .wrapping_add(seed.wrapping_mul(0x94D049BB133111EB));
        ((h >> 40) % 2001) as f64 / 500.0 - 2.0
    })
}

/// Diagonally-dominant triangular operand so TRSM stays well-conditioned.
fn tri_mat(n: usize, seed: u64) -> Matrix<f64> {
    let off = det_mat(n, n, seed);
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            4.0 + (i % 5) as f64
        } else {
            off.get(i, j) / 4.0
        }
    })
}

fn serial_steady_state_allocates_nothing() {
    let (m, n, k) = (100, 90, 80);
    let a = Matrix::<f64>::filled(m, k, 1.0);
    let b = Matrix::<f64>::filled(k, n, 2.0);
    let mut c = Matrix::<f64>::zeros(m, n);
    let run = |c: &mut Matrix<f64>| unsafe {
        gemm_serial(
            m,
            n,
            k,
            1.0,
            &PackSrc::strided(a.as_slice(), 0, 1, m, m, k),
            &PackSrc::strided(b.as_slice(), 0, 1, k, k, n),
            c.as_mut_slice().as_mut_ptr(),
            m,
        );
    };
    run(&mut c); // warm the arena
    let before = arena::allocation_count();
    for _ in 0..5 {
        run(&mut c);
    }
    assert_eq!(
        arena::allocation_count(),
        before,
        "steady-state serial GEMM must not allocate packing buffers"
    );
}

fn parallel_gemm_steady_state_packing_allocations_are_zero() {
    let (m, n, k) = (150, 120, 96);
    let a = det_mat(m, k, 1);
    let b = det_mat(k, n, 2);
    let mut c = Matrix::<f64>::zeros(m, n);
    // Warm every participating thread's arena.
    for _ in 0..2 {
        gemm::gemm(4, No, No, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
    }
    let before = arena::allocation_count();
    for _ in 0..10 {
        gemm::gemm(4, No, No, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
    }
    assert_eq!(
        arena::allocation_count(),
        before,
        "steady-state parallel GEMM must perform zero packing allocations"
    );
}

/// Steady-state serving traffic across all six routines.
fn all_routines_steady_state_packing_allocations_are_zero() {
    let (m, n, k) = (180, 170, 96);
    let nt = 4;
    let a = det_mat(m, k, 1);
    let b = det_mat(k, n, 2);
    let bs = det_mat(m, n, 4); // m x n operand for symm/trmm/trsm
    let tri = tri_mat(m, 3);
    let mut c = Matrix::<f64>::zeros(m, n);
    let mut run_all = || {
        gemm::gemm(
            nt,
            Transpose::No,
            Transpose::No,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
        symm::symm(
            nt,
            Side::Left,
            Uplo::Upper,
            1.0,
            tri.as_ref(),
            bs.as_ref(),
            0.0,
            c.as_mut(),
        );
        let mut sq = Matrix::<f64>::zeros(m, m);
        syrk::syrk(
            nt,
            Uplo::Lower,
            Transpose::No,
            1.0,
            a.as_ref(),
            0.0,
            sq.as_mut(),
        );
        syr2k::syr2k(
            nt,
            Uplo::Lower,
            Transpose::No,
            1.0,
            a.as_ref(),
            a.as_ref(),
            0.0,
            sq.as_mut(),
        );
        let mut bx = bs.clone();
        trmm::trmm(
            nt,
            Side::Left,
            Uplo::Lower,
            Transpose::No,
            Diag::NonUnit,
            1.0,
            tri.as_ref(),
            bx.as_mut(),
        );
        trsm::trsm(
            nt,
            Side::Left,
            Uplo::Lower,
            Transpose::No,
            Diag::NonUnit,
            1.0,
            tri.as_ref(),
            bx.as_mut(),
        );
    };
    // Warm-up: twice, so every worker thread the pool may rotate through
    // has touched its arena classes.
    run_all();
    run_all();
    arena::reset_stats();
    for _ in 0..5 {
        run_all();
    }
    assert_eq!(
        arena::allocation_count(),
        0,
        "steady-state calls must serve every packing buffer from the arena \
         (hits: {})",
        arena::hit_count()
    );
}

/// The triangular routines take a third arena buffer (the packed diagonal
/// block) and size all three by shape: a service alternating between two
/// shapes — one a single diagonal block, one several, on either side —
/// must still find every buffer on the free lists.
fn triangular_routines_replayed_at_two_shapes_allocate_nothing() {
    let nt = 3;
    let shapes = [(40usize, 33usize, Side::Left), (70, 300, Side::Right)];
    let operands: Vec<_> = shapes
        .iter()
        .map(|&(m, n, side)| {
            let order = if side == Side::Left { m } else { n };
            (side, tri_mat(order, 5), det_mat(m, n, 6), det_mat(n, 24, 7))
        })
        .collect();
    let replay = || {
        for (side, tri, b, a) in &operands {
            let side = *side;
            let mut bx = b.clone();
            let (uplo, trans, diag) = (Uplo::Upper, Transpose::Yes, Diag::NonUnit);
            trmm::trmm(nt, side, uplo, trans, diag, 1.0, tri.as_ref(), bx.as_mut());
            trsm::trsm(nt, side, uplo, trans, diag, 1.0, tri.as_ref(), bx.as_mut());
            let mut sq = Matrix::<f64>::zeros(a.rows(), a.rows());
            syrk::syrk(nt, Uplo::Upper, No, 1.0, a.as_ref(), 0.0, sq.as_mut());
            syr2k::syr2k(
                nt,
                Uplo::Upper,
                No,
                1.0,
                a.as_ref(),
                a.as_ref(),
                0.0,
                sq.as_mut(),
            );
        }
    };
    replay();
    replay();
    arena::reset_stats();
    for _ in 0..5 {
        replay();
    }
    assert_eq!(
        arena::allocation_count(),
        0,
        "alternating shapes must keep serving the triangular routines' \
         buffers from the arena (hits: {})",
        arena::hit_count()
    );
}

#[test]
fn steady_state_packing_allocations_are_zero() {
    serial_steady_state_allocates_nothing();
    parallel_gemm_steady_state_packing_allocations_are_zero();
    all_routines_steady_state_packing_allocations_are_zero();
    triangular_routines_replayed_at_two_shapes_allocate_nothing();
}
