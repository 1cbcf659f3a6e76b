"""Linearly constrained L^p minimization over a finite basis.

Solves  min ||f||_p  over  f = sum_j c_j psi_j  subject to  B c = d,
where the norm is a weighted node sum and the basis functions psi_j are
given by their coefficients in a space's centred monomial basis (the
columns of ``basis``: a Taylor shift, or the identity).  The complex affine
constraints are eliminated through a particular solution plus a null-space
parametrization, orthonormalized in the weighted product by an N x N QR
of ``C @ basis @ null space`` with C the space's Cholesky factor, after
which iteratively reweighted least squares runs on the free coordinates:

    weights   w_q (|f(x_q)|^2 + eps^2)^((p-2)/2),
              eps = EPS_FACTOR max_q |f(x_q)| (1e-7)
    update    t <- (1 - lam) t + lam t_new,        lam = 1 for p <= 2
              (full reweighted steps are majorize-minimize updates there),
              lam = DAMPING (0.7) with step halving above p = 2
    stop      relative objective change < OBJ_TOL (1e-11) and stationarity
              residual below GRAD_TOL (1e-10); capped at MAX_ITER (300)
              iterations; a p > 2 step that no halving turns into descent
              stops early, flagged line-search-stall.

Each iteration works in coefficient space: the normal matrix is
M^H G_c(omega) M, with M the orthonormalized directions in centred
coefficients and G_c(omega) the ring operator's weighted Gram, the
right-hand side is M^H G_c(omega) x0 for the particular solution x0, and
the stationarity pairing is M^H Phi^H(w rho f) through the operator's
adjoint.  Node values f(x_q) of an iterate are one product with the
centred node matrix; no Q x N matrix is formed.

For p = 2 the first least-squares solve is already exact and the iteration
lands on it immediately.  At p = 1 the smoothing scale is looser
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
DAMPING = 0.7
OBJ_TOL = 1e-11
GRAD_TOL = 1e-10
EPS_FACTOR = 1e-7
EPS_FACTOR_P1 = 1e-6
RESTARTS = 8


class SolverError(RuntimeError):
    """Constraint elimination or the IRLS loop failed outright."""


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
    constraints: np.ndarray,
    rhs: np.ndarray,
    p: float,
    start: np.ndarray | None = None,
    seed: int = 42,
) -> LpSolution:
    """Minimize the weighted node L^p norm subject to complex affine constraints.

    Parameters
    ----------
    op : the space's :class:`~xibergman.pspace.RingOperator` (node weights,
        centred node matrix, weighted Gram, adjoint and Cholesky factor).
    basis : (Nc, N) centred coefficients of the N solve-basis functions.
    constraints, rhs : B (m, N) and d (m,) with B c = d.
    p : exponent, p > 0.
    start : optional feasible coefficient vector used as the initial point.
    seed : seed of the random restarts, drawn only for p < 1.

    The returned coefficients are in the solve basis.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    B = np.atleast_2d(np.asarray(constraints, dtype=complex))
    d = np.asarray(rhs, dtype=complex).ravel()
    N = basis.shape[1]
    if B.shape[1] != N or B.shape[0] != d.shape[0]:
        raise ValueError("constraint shapes are inconsistent")

    if start is not None:
        c_part = np.asarray(start, dtype=complex)
        if np.linalg.norm(B @ c_part - d) > 1e-8 * max(1.0, np.linalg.norm(d)):
            raise SolverError("supplied start violates the constraints")
    else:
        c_part, *_ = np.linalg.lstsq(B, d, rcond=None)
        if np.linalg.norm(B @ c_part - d) > 1e-8 * max(1.0, np.linalg.norm(d)):
            raise SolverError("constraints are infeasible on this basis")

    Z = scipy.linalg.null_space(B)
    x0 = basis @ c_part

    if Z.shape[1] == 0:
        obj = float(np.sum(op.weights * np.abs(op.node_matrix @ x0) ** p))
        return LpSolution(
            coeffs=c_part, objective=obj, m=obj ** (1.0 / p), p=p,
            iterations=0, converged=True, grad_residual=0.0,
            final_rel_step=0.0, method="determined",
        )

    # orthonormalize the free directions in the base weighted product; this
    # keeps the per-iteration normal equations well conditioned and makes
    # the stationarity residual scale like the orthogonality pairings it is
    # meant to control.  C @ basis @ Z has the Gram of the directions' node
    # values, so its N x N QR stands in for the Q x N one.
    W_raw = op.factor @ (basis @ Z)
    colnorm = np.linalg.norm(W_raw, axis=0)
    if np.any(colnorm == 0):
        raise SolverError("basis direction vanishes on every node")
    # equilibrate before the QR so monomial scale spread on small domains
    # does not poison the triangular factor
    R = np.linalg.qr(W_raw / colnorm, mode="r")
    Z = (Z / colnorm) @ np.linalg.inv(R)
    M = basis @ Z

    eps_factor = EPS_FACTOR_P1 if p == 1 else EPS_FACTOR

    if p < 1:
        rng = np.random.default_rng(seed)
        best = None
        scale = max(1.0, float(np.linalg.norm(c_part)))
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
            coeffs=c_part + Z @ t, objective=obj, m=obj ** (1.0 / p), p=p,
            iterations=iters, converged=stop is None, grad_residual=grad_res,
            final_rel_step=last_step, method="multistart", flags=flags,
        )

    t0 = np.zeros(Z.shape[1], dtype=complex)
    t, obj, iters, stop, grad_res, last_step = _irls(op, M, x0, p, eps_factor, t0)
    return LpSolution(
        coeffs=c_part + Z @ t, objective=obj, m=obj ** (1.0 / p), p=p,
        iterations=iters, converged=stop is None, grad_residual=grad_res,
        final_rel_step=last_step, method="irls", flags=(stop,) if stop else (),
    )


def _irls(op, M, x0, p, eps_factor, t0):
    """IRLS from t0; returns (t, obj, accepted steps, stop flag or None, ...).

    The iterate is f = Phi (x0 + M t) for the centred node matrix Phi.
    """
    w = op.weights
    t = t0.astype(complex)
    g = op.node_matrix @ (x0 + M @ t)
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
        # (guaranteed descent), so damping would only slow the contraction
        lam = 1.0 if p <= 2 else DAMPING
        accepted = False
        for _ in range(20):
            t_trial = t + lam * (t_new - t)
            g_trial = op.node_matrix @ (x0 + M @ t_trial)
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
