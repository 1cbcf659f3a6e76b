"""Linearly constrained L^p minimization over a finite basis.

Solves  min ||f||_p  over  f = sum_j c_j phi_j  subject to  B c = d,
where the norm is a weighted node sum.  The complex affine constraints are
eliminated through a particular solution plus an orthonormal null-space
parametrization, after which iteratively reweighted least squares runs on
the free coordinates:

    weights   w_q (|f(x_q)|^2 + eps^2)^((p-2)/2),  eps = 1e-7 max_q |f(x_q)|
    update    t <- (1 - lam) t + lam t_new,        lam = 1 for p <= 2
              (full reweighted steps are majorize-minimize updates there),
              lam = 0.7 with step halving above p = 2
    stop      relative objective change < 1e-11 and stationarity residual
              below grad_tol; capped at 300 iterations; a p > 2 step that
              no halving turns into descent stops early, flagged
              line-search-stall.

For p = 2 the first least-squares solve is already exact and the iteration
lands on it immediately.  For p <= 1 the smoothing scale is looser (1e-6)
and the residual is only meaningful down to that scale, so stationarity is
accepted at eps_factor_p1 once the objective has settled; results carry a
documented 1e-3 relative accuracy contract.  For p < 1 the problem is
nonconvex; we restart from 8 random feasible points and keep the best,
flagging the result as such.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = ["LpOptions", "LpSolution", "SolverError", "solve_affine_lp"]


class SolverError(RuntimeError):
    """Constraint elimination or the IRLS loop failed outright."""


@dataclass(frozen=True)
class LpOptions:
    max_iter: int = 300
    damping: float = 0.7
    obj_tol: float = 1e-11
    grad_tol: float = 1e-10
    eps_factor: float = 1e-7
    eps_factor_p1: float = 1e-6
    restarts: int = 8
    seed: int = 42


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
    phi: np.ndarray,
    weights: np.ndarray,
    constraints: np.ndarray,
    rhs: np.ndarray,
    p: float,
    start: np.ndarray | None = None,
    options: LpOptions | None = None,
) -> LpSolution:
    """Minimize the weighted node L^p norm subject to complex affine constraints.

    Parameters
    ----------
    phi : (Q, N) complex node-value matrix of the basis.
    weights : (Q,) positive quadrature weights.
    constraints, rhs : B (m, N) and d (m,) with B c = d.
    p : exponent, p > 0.
    start : optional feasible coefficient vector used as the initial point.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    opts = options or LpOptions()
    B = np.atleast_2d(np.asarray(constraints, dtype=complex))
    d = np.asarray(rhs, dtype=complex).ravel()
    Q, N = phi.shape
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
    b = phi @ c_part

    if Z.shape[1] == 0:
        obj = float(np.sum(weights * np.abs(b) ** p))
        return LpSolution(
            coeffs=c_part, objective=obj, m=obj ** (1.0 / p), p=p,
            iterations=0, converged=True, grad_residual=0.0,
            final_rel_step=0.0, method="determined",
        )

    # orthonormalize the free directions in the base weighted product; this
    # keeps the per-iteration normal equations well conditioned and makes
    # the stationarity residual scale like the orthogonality pairings it is
    # meant to control
    A_raw = phi @ Z
    W_raw = np.sqrt(weights)[:, None] * A_raw
    colnorm = np.linalg.norm(W_raw, axis=0)
    if np.any(colnorm == 0):
        raise SolverError("basis direction vanishes on every node")
    # equilibrate before the QR so monomial scale spread on small domains
    # does not poison the triangular factor
    R = np.linalg.qr(W_raw / colnorm, mode="r")
    Z = (Z / colnorm) @ np.linalg.inv(R)
    A = phi @ Z

    eps_factor = opts.eps_factor_p1 if p == 1 else opts.eps_factor

    if p < 1:
        rng = np.random.default_rng(opts.seed)
        best = None
        scale = max(1.0, float(np.linalg.norm(c_part)))
        for trial in range(opts.restarts + 1):
            t0 = np.zeros(Z.shape[1], dtype=complex)
            if trial > 0:
                t0 = scale * (rng.standard_normal(Z.shape[1]) + 1j * rng.standard_normal(Z.shape[1]))
            sol = _irls(A, b, weights, p, eps_factor, t0, opts)
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
    t, obj, iters, stop, grad_res, last_step = _irls(A, b, weights, p, eps_factor, t0, opts)
    return LpSolution(
        coeffs=c_part + Z @ t, objective=obj, m=obj ** (1.0 / p), p=p,
        iterations=iters, converged=stop is None, grad_residual=grad_res,
        final_rel_step=last_step, method="irls", flags=(stop,) if stop else (),
    )


def _irls(A, b, w, p, eps_factor, t0, opts: LpOptions):
    """IRLS from t0; returns (t, obj, accepted steps, stop flag or None, ...)."""
    t = t0.astype(complex)
    g = b + A @ t
    obj = float(np.sum(w * np.abs(g) ** p))
    rel_step = np.inf
    grad_res = np.inf
    tiny = 1e-300
    settled = 0

    for it in range(1, opts.max_iter + 1):
        absg = np.abs(g)
        eps = eps_factor * max(float(absg.max()), tiny)
        rho = (absg**2 + eps**2) ** (0.5 * p - 1.0)
        omega = w * rho

        G = A.conj().T @ (omega[:, None] * A)
        r = A.conj().T @ (omega * b)
        try:
            cho = scipy.linalg.cho_factor(G, check_finite=False)
            t_new = scipy.linalg.cho_solve(cho, -r, check_finite=False)
        except scipy.linalg.LinAlgError:
            t_new, *_ = np.linalg.lstsq(G, -r, rcond=None)

        # for p <= 2 the full reweighted step is a majorize-minimize update
        # (guaranteed descent), so damping would only slow the contraction
        lam = 1.0 if p <= 2 else opts.damping
        accepted = False
        for _ in range(20):
            t_trial = t + lam * (t_new - t)
            g_trial = b + A @ t_trial
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
        pairing = A.conj().T @ (w * rho * g)
        grad_res = float(np.abs(pairing).max()) / max(obj ** ((p - 1.0) / p), tiny)

        if rel_step < opts.obj_tol and grad_res < opts.grad_tol:
            return t, obj, it, None, grad_res, rel_step
        # at p <= 1 the objective is smoothed at scale eps, below which the
        # residual carries no information about the unsmoothed problem; when
        # the minimizer vanishes inside the domain the contraction toward
        # exact stationarity is slowly linear, so once the objective has
        # settled and the residual sits at the smoothing scale we are done
        if p <= 1.0 and rel_step < opts.obj_tol and grad_res < eps_factor:
            settled += 1
            if settled >= 5:
                return t, obj, it, None, grad_res, rel_step
        else:
            settled = 0

    return t, obj, opts.max_iter, "non-convergence", grad_res, rel_step
