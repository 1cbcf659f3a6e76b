"""Linearly constrained L^p minimization over a finite basis.

Solves  min ||f||_p  over  f = sum_j u_j sigma_j  subject to  row . u = 1,
where the norm is a weighted node sum and the functions sigma_j are given
by their coefficients in a space's centred monomial basis (the columns of
``basis``) and are orthonormal in the weighted product: the kernels pass
the point-adapted orthonormal basis of :mod:`xibergman.pspace`.  The one
complex constraint is eliminated through its minimal-norm solution
u0 = conj(row) / |row|^2 plus the orthonormal null space Z of the row, so
the free directions M = basis Z are orthonormal too, and iteratively
reweighted least squares runs on their coordinates t:

    weights   w_q (|f(x_q)|^2 + eps^2)^((p-2)/2),
              eps = EPS_FACTOR max_q |f(x_q)| (1e-7)
    update    t <- (1 - lam) t + lam t_new,  lam = min(1, 2/p), with step
              halving above p = 2.  Full reweighted steps are majorize-
              minimize updates for p <= 2; above it the reweighted
              curvature ratio lies in [1, p - 1], and lam = 2/p contracts
              both ends of that range by (p - 2)/p
    stop      relative objective change < OBJ_TOL (1e-11) and stationarity
              residual below GRAD_TOL (1e-10); capped at MAX_ITER (300)
              iterations; a p > 2 step that no halving turns into descent
              stops early, flagged line-search-stall.

Each iteration works in coefficient space: the normal matrix is
M^H G_c(omega) M, with G_c(omega) the ring operator's weighted Gram, the
right-hand side is M^H G_c(omega) x0 for x0 = basis u0, and the
stationarity pairing is M^H Phi^H(w rho f) through the operator's
adjoint.  Node values f(x_q) of an iterate are the operator's per-ring
inverse FFTs of its coefficients; no Q x N matrix is formed.

For p = 2 the default start u0 is already the minimizer and the iteration
stays on it.  At p = 1 the smoothing scale is looser
(EPS_FACTOR_P1, 1e-6).  For p <= 1 the residual is only meaningful down to
the smoothing scale, so stationarity is accepted there once the objective
has settled; results carry a documented 1e-3 relative accuracy contract.
For p < 1 the problem is nonconvex; we restart from RESTARTS (8) random
feasible points drawn from ``seed`` and keep the best, flagging the result
as such.

These constants are the numerical policy behind the README accuracy
contract; only the restart seed is an input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = ["LpSolution", "SolverError", "solve_affine_lp"]

MAX_ITER = 300
OBJ_TOL = 1e-11
GRAD_TOL = 1e-10
EPS_FACTOR = 1e-7
EPS_FACTOR_P1 = 1e-6
RESTARTS = 8


class SolverError(RuntimeError):
    """The supplied start is infeasible or the IRLS loop failed outright."""


@dataclass
class LpSolution:
    coeffs: np.ndarray
    objective: float           # sum_q w_q |f(x_q)|^p
    m: float                   # objective ** (1/p)
    p: float
    iterations: int
    converged: bool
    grad_residual: float
    final_rel_step: float
    method: str
    flags: tuple[str, ...] = ()


def solve_affine_lp(
    op,
    basis: np.ndarray,
    row: np.ndarray,
    p: float,
    start: np.ndarray | None = None,
    seed: int = 42,
) -> LpSolution:
    """Minimize the weighted node L^p norm of ``basis @ u`` subject to ``row @ u = 1``.

    Parameters
    ----------
    op : the space's :class:`~xibergman.pspace.RingOperator` (node weights,
        node values, weighted Gram and adjoint).
    basis : (Nc, m) centred coefficients of m weighted-orthonormal functions.
    row : (m,) constraint row, not zero.
    p : exponent, p > 0.
    start : optional feasible u used as the initial point; by default the
        minimal-norm one, conj(row) / |row|^2, which is the p = 2 minimizer.
    seed : seed of the random restarts, drawn only for p < 1.

    The returned coefficients are u, in the given basis.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    row = np.asarray(row, dtype=complex)
    if basis.shape[1] != row.shape[0]:
        raise ValueError("constraint row and basis sizes differ")
    if start is not None:
        u0 = np.asarray(start, dtype=complex)
        if abs(row @ u0 - 1.0) > 1e-8:
            raise SolverError("supplied start violates the constraint")
    else:
        u0 = np.conj(row) / np.vdot(row, row).real

    x0 = basis @ u0
    # the basis is weighted-orthonormal, so the free directions M along the
    # orthonormal null space of the row are too: the normal equations stay
    # well conditioned, and the stationarity residual scales like the
    # orthogonality pairings it is meant to control
    Z = scipy.linalg.null_space(row[None, :])
    if Z.shape[1] == 0:
        obj = float(np.sum(op.weights * np.abs(op.values(x0)) ** p))
        return LpSolution(
            coeffs=u0, objective=obj, m=obj ** (1.0 / p), p=p,
            iterations=0, converged=True, grad_residual=0.0,
            final_rel_step=0.0, method="determined",
        )
    M = basis @ Z

    eps_factor = EPS_FACTOR_P1 if p == 1 else EPS_FACTOR

    if p < 1:
        rng = np.random.default_rng(seed)
        best = None
        scale = max(1.0, float(np.linalg.norm(u0)))
        for trial in range(RESTARTS + 1):
            t0 = np.zeros(Z.shape[1], dtype=complex)
            if trial > 0:
                t0 = scale * (rng.standard_normal(Z.shape[1]) + 1j * rng.standard_normal(Z.shape[1]))
            sol = _irls(op, M, x0, p, eps_factor, t0)
            if best is None or sol[1] < best[1]:
                best = sol
        t, obj, iters, stop, grad_res, last_step = best
        flags = ("nonconvex-best-found",) + ((stop,) if stop else ())
        return LpSolution(
            coeffs=u0 + Z @ t, objective=obj, m=obj ** (1.0 / p), p=p,
            iterations=iters, converged=stop is None, grad_residual=grad_res,
            final_rel_step=last_step, method="multistart", flags=flags,
        )

    t0 = np.zeros(Z.shape[1], dtype=complex)
    t, obj, iters, stop, grad_res, last_step = _irls(op, M, x0, p, eps_factor, t0)
    return LpSolution(
        coeffs=u0 + Z @ t, objective=obj, m=obj ** (1.0 / p), p=p,
        iterations=iters, converged=stop is None, grad_residual=grad_res,
        final_rel_step=last_step, method="irls", flags=(stop,) if stop else (),
    )


def _irls(op, M, x0, p, eps_factor, t0):
    """IRLS from t0; returns (t, obj, accepted steps, stop flag or None, ...).

    The iterate is f = Phi (x0 + M t) for the centred basis Phi.
    """
    w = op.weights
    t = t0.astype(complex)
    g = op.values(x0 + M @ t)
    obj = float(np.sum(w * np.abs(g) ** p))
    rel_step = np.inf
    grad_res = np.inf
    tiny = 1e-300
    settled = 0

    for it in range(1, MAX_ITER + 1):
        absg = np.abs(g)
        eps = eps_factor * max(float(absg.max()), tiny)
        rho = (absg**2 + eps**2) ** (0.5 * p - 1.0)
        omega = w * rho

        GM = op.gram(omega) @ M
        G = M.conj().T @ GM
        r = GM.conj().T @ x0
        try:
            cho = scipy.linalg.cho_factor(G, check_finite=False)
            t_new = scipy.linalg.cho_solve(cho, -r, check_finite=False)
        except scipy.linalg.LinAlgError:
            t_new, *_ = np.linalg.lstsq(G, -r, rcond=None)

        # for p <= 2 the full reweighted step is a majorize-minimize update
        # (guaranteed descent), so damping would only slow the contraction;
        # above it 2/p contracts every curvature ratio in [1, p - 1]
        lam = min(1.0, 2.0 / p)
        accepted = False
        for _ in range(20):
            t_trial = t + lam * (t_new - t)
            g_trial = op.values(x0 + M @ t_trial)
            obj_trial = float(np.sum(w * np.abs(g_trial) ** p))
            if obj_trial <= obj * (1.0 + 1e-15) or p <= 2:
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            # p > 2 overshoot that no step length cures: keep the iterate
            return t, obj, it - 1, "line-search-stall", grad_res, rel_step

        rel_step = abs(obj - obj_trial) / max(obj_trial, tiny)
        t, g, obj = t_trial, g_trial, obj_trial

        absg = np.abs(g)
        eps = eps_factor * max(float(absg.max()), tiny)
        rho = (absg**2 + eps**2) ** (0.5 * p - 1.0)
        pairing = M.conj().T @ op.adjoint(w * rho * g)
        grad_res = float(np.abs(pairing).max()) / max(obj ** ((p - 1.0) / p), tiny)

        if rel_step < OBJ_TOL and grad_res < GRAD_TOL:
            return t, obj, it, None, grad_res, rel_step
        # at p <= 1 the objective is smoothed at scale eps, below which the
        # residual carries no information about the unsmoothed problem; when
        # the minimizer vanishes inside the domain the contraction toward
        # exact stationarity is slowly linear, so once the objective has
        # settled and the residual sits at the smoothing scale we are done
        if p <= 1.0 and rel_step < OBJ_TOL and grad_res < eps_factor:
            settled += 1
            if settled >= 5:
                return t, obj, it, None, grad_res, rel_step
        else:
            settled = 0

    return t, obj, MAX_ITER, "non-convergence", grad_res, rel_step
