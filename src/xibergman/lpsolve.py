"""Linearly constrained L^p minimization over a finite basis.

Solves  min ||f||_p  over  f = sum_j u_j sigma_j  subject to  row . u = 1,
where the norm is a weighted node sum and the functions sigma_j are given
by their coefficients in a space's centred monomial basis (the columns of
``basis``) and are orthonormal in the weighted product: the kernels pass
the point-adapted orthonormal basis of :mod:`xibergman.pspace`.  The one
complex constraint is eliminated through its minimal-norm solution
u0 = conj(row) / |row|^2 plus the orthonormal null space Z of the row (the
trailing columns of one Householder reflection), so the free directions
M = basis Z are orthonormal too, and one descent loop runs on their
coordinates t.  With f = Phi (x0 + M t), x0 = basis u0, it minimizes the
smoothed objective

    F(t)      sum_q w_q s_q^(p/2),  s_q = |f(x_q)|^2 + eps^2,
              eps = EPS_FACTOR max_q |f(x_q)| (1e-7),

whose gradient in conj(t) is b = (p/2) M^H Phi^H(w rho f) for the
weights rho = s^((p-2)/2).  Only the curvature of a step depends on p:

    p >= 1    Newton.  The Hessian in (t, conj t) is [A, conj(C); C,
              conj(A)] with
                  A = (p/2) M^H G(w rho (1 + (p/2 - 1) |f|^2 / s)) M,
                  C = (p/2)(p/2 - 1) M^T P(w rho conj(f)^2 / s) M,
              G(omega) the weighted Gram sum_q omega_q conj(phi_a) phi_b
              and P(nu) its unconjugated twin sum_q nu_q phi_a phi_b.  The
              step d solves A d + conj(C d) = -b, as a real 2(m - 1)
              system with no definiteness test, and is backtracked by
              Armijo on the smoothed objective F it models, at the
              current iterate's eps.  The Hessian is positive definite
              by construction: at each node the
              curvature of s^(p/2) is p rho across f and
              p rho ((p - 1) |f|^2 + eps^2) / s along it, so the Hessian
              dominates (p/2) M^H G(w rho min(1, ((p - 1) |f|^2 + eps^2)
              / s)) M, which at p = 1 is (1/2) M^H G(w rho eps^2 / s) M,
              positive definite because eps > 0.  At p = 2, where C
              vanishes and A is (p/2) M^H G(w rho) M, and at an already
              stationary iterate, where the step is rounding, the step
              solves with that reweighted Gram alone, positive definite
              for the positive weights w rho.
    p < 1     Newton where it is taken whole, else majorize-minimize.
              The Newton matrix is definite only near a strict local
              minimizer (the curvature along f, p rho ((p - 1) |f|^2 +
              eps^2) / s, is negative where |f| >> eps), so each step
              first tries the full Newton step and takes it when its step
              matrix has a Cholesky factor, which is the definiteness
              test, it is a descent direction and it passes
              Armijo on F at once (Nocedal & Wright, Numerical
              Optimization, 2nd ed., 3.4) and shrinks no node's
              s = |f|^2 + eps^2 by more than SHRINK_LIMIT (1e-2).  The
              Newton model of s^(p/2) at a node holds only while s changes
              by a bounded factor, and a step that collapses a node's |f|
              tends to land in a well of the discrete problem, a local
              minimizer with a zero on that node.  Otherwise the step is
              refused, at the cost of no extra node evaluation, and is the
              majorize-minimize one.  After r refused attempts in a row the
              next min(2^r - 1, NEWTON_WAIT (8)) steps skip the attempt, so
              iterates where the Newton matrix stays indefinite, such as
              the rotation-symmetric ones at a disk's centre, pay for few
              attempts.  The majorize-minimize step is that of
              iteratively reweighted least squares
              (Daubechies, DeVore, Fornasier & Gunturk, CPAM 63, 2010):
              d = -(M^H G(w rho) M)^-1 M^H Phi^H(w rho f), taken whole.
              That step majorizes the smoothed objective at the iterate's
              eps, and eps follows the iterate, so single steps can raise
              the unsmoothed objective a little; each descent returns the
              lowest iterate it visited.

    stall     every step that is taken passes one slope test: a
              singular step matrix, a step with slope
              2 Re(b^H d) >= 0 or, for p >= 1, one that no halving makes a
              descent of F stops the descent, flagged line-search-stall.
              Below p = 1 this applies to the majorize-minimize step; a
              refused Newton step only hands over to it.
    stop      for p > 1, at an iterate whose stationarity residual
              |M^H Phi^H(w rho f)|_max / F^((p-1)/p) is below GRAD_TOL
              (1e-10), the Hoelder bracket of the discrete problem (see
              _hoelder_upper) is formed from the same adjoint plus one
              correction node evaluation, and the descent stops there
              when its gap K_upper / K_lower - 1 is at most GAP_TOL
              (1e-12), the start included, so an exactly stationary start
              takes no step.  The residual stays in the test: the gap
              certifies K to GAP_TOL but the minimizer only to about
              sqrt(GAP_TOL).  At every p the descent also stops on a
              relative objective change < OBJ_TOL (1e-11) with the
              residual below GRAD_TOL; capped at MAX_ITER (300) steps.
              For p > 1 the bracket of the returned iterate is part of
              the result.

G and P come from the ring operator's per-ring discrete Fourier
transforms: G, Hermitian for the real weights, from its half box of
exponent differences, P, which depends on a + b alone, as one table over
the exponent sums, read at a + b.  The pairing comes from its adjoint, and
node values f(x_q) of an iterate from its inverse transforms; no Q x N
matrix is formed.

For p = 2 the default start u0 is already the minimizer and the iteration
stays on it.  At p = 1 the smoothing scale is looser
(EPS_FACTOR_P1, 1e-6).  For p <= 1 the residual is only meaningful down to
the smoothing scale, so stationarity is accepted there once the objective
has settled; results carry a documented 1e-3 relative accuracy contract.
For p < 1 the problem is nonconvex and every result is flagged as such.  A
supplied start whose descent ends with no stop flag and a residual below
GRAD_TOL is the result (method "power-start": the kernels supply only the
power start of delta_0 below p = 1).  Otherwise the descent also runs from
u0 and from RESTARTS (8) random feasible points drawn from ``seed``, the
lowest of all descents is kept, the supplied start's included, and
``start_spread`` reports how far apart they ended.

These constants are the numerical policy behind the README accuracy
contract; only the restart seed is an input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LpSolution", "SolverError", "solve_affine_lp"]

MAX_ITER = 300
OBJ_TOL = 1e-11
GRAD_TOL = 1e-10
EPS_FACTOR = 1e-7
EPS_FACTOR_P1 = 1e-6
RESTARTS = 8
SHRINK_LIMIT = 1e-2
NEWTON_WAIT = 8
GAP_TOL = 1e-12


def _smoothing_factor(p: float) -> float:
    """eps / max_q |f(x_q)| of the smoothed objective at exponent p."""
    return EPS_FACTOR_P1 if p == 1 else EPS_FACTOR


class SolverError(RuntimeError):
    """The supplied start is infeasible."""


@dataclass
class LpSolution:
    coeffs: np.ndarray
    objective: float           # sum_q w_q |f(x_q)|^p
    iterations: int
    grad_residual: float
    final_rel_step: float
    method: str
    flags: tuple[str, ...] = ()
    # (max - min) / min of the descents' final objectives; only where the p < 1
    # restarts ran
    start_spread: float | None = None
    # Hoelder upper bound on 1 / objective at the returned u; p > 1 only
    K_upper: float | None = None


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
    row : (m,) constraint row, finite and not zero.
    p : exponent, 0 < p < inf.
    start : optional feasible u, the initial point in place of the
        minimal-norm one, conj(row) / |row|^2, which is the p = 2 minimizer.
        A start far from the minimizer can cost many more steps and, at
        p >= 1, end flagged ``non-convergence``; whether to pass one is the
        caller's decision.  Below p = 1 the start is descended from first,
        and its descent is the result when it ends stationary; else the
        seeded multistart from the minimal-norm point runs as without a
        start, and the start's descent competes with it.
    seed : seed of the random restarts, drawn only for p < 1 where they run.

    The returned coefficients are u, in the given basis.  Raises
    ValueError on any other p or row.
    """
    if not 0 < p < np.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    row = np.asarray(row, dtype=complex)
    if not (np.all(np.isfinite(row)) and np.any(row)):
        raise ValueError("constraint row must be finite and nonzero")
    if basis.shape[1] != row.shape[0]:
        raise ValueError("constraint row and basis sizes differ")
    u0 = base = _minimal_norm(row)
    if start is not None:
        base = np.asarray(start, dtype=complex)
        if abs(row @ base - 1.0) > 1e-8:
            raise SolverError("supplied start violates the constraint")
    # the basis is weighted-orthonormal, so the free directions M along the
    # orthonormal null space of the row are too: the normal equations stay
    # well conditioned, and the stationarity residual scales like the
    # orthogonality pairings it is meant to control
    Z = _null_space(row)
    if Z.shape[1] == 0:
        x = basis @ base
        return LpSolution(
            coeffs=base, objective=_objective(op, x, p), iterations=0, grad_residual=0.0,
            final_rel_step=0.0, method="determined",
            K_upper=_hoelder_upper(op, basis, row, p, *_dual(op, x, p)) if p > 1 else None,
        )
    M = basis @ Z

    def descend(origin, t0):
        # the descent from origin + Z t0, with its end point's coefficients u
        t, *rest = _descend(op, basis, row, M, basis @ origin, p, t0)
        return (origin + Z @ t, *rest)

    # one descent from the start, u0 unless one is supplied.  Below p = 1,
    # where the problem is nonconvex, a supplied start whose descent ends
    # stationary is the result; otherwise the descent from u0 and the
    # seeded restarts run too, and the lowest descent wins
    zero = np.zeros(Z.shape[1], dtype=complex)
    descents = [descend(base, zero)]
    _, _, _, stop, grad_res, _, _ = descents[0]
    restarts = p < 1 and (start is None or stop is not None or grad_res >= GRAD_TOL)
    if restarts:
        if start is not None:
            descents.append(descend(u0, zero))
        rng = np.random.default_rng(seed)
        scale = max(1.0, float(np.linalg.norm(u0)))
        descents += [descend(u0, scale * (rng.standard_normal(Z.shape[1])
                                         + 1j * rng.standard_normal(Z.shape[1])))
                     for _ in range(RESTARTS)]
    u, obj, iters, stop, grad_res, last_step, upper = min(descents, key=lambda sol: sol[1])
    flags = (("nonconvex-best-found",) if p < 1 else ()) + ((stop,) if stop else ())
    return LpSolution(
        coeffs=u, objective=obj, iterations=iters,
        grad_residual=grad_res, final_rel_step=last_step,
        method="newton" if p >= 1 else "multistart" if restarts else "power-start",
        flags=flags,
        start_spread=(max(sol[1] for sol in descents) - obj) / obj if restarts else None,
        K_upper=upper,
    )


def _minimal_norm(row: np.ndarray) -> np.ndarray:
    """The minimal-norm solution u0 = conj(row) / |row|^2 of row . u = 1.

    In an orthonormal basis u0 is the p = 2 minimizer, and the p = 2
    closed form, every descent start and verify share this one rounding;
    |row|^2 is np.vdot(row, row).real wherever it is read.
    """
    return np.conj(row) / np.vdot(row, row).real


def _null_space(row: np.ndarray) -> np.ndarray:
    """Orthonormal basis Z of {u : row . u = 0}, shape (m, m - 1).

    The Householder reflection P = I - 2 v v^H / (v^H v) that maps the unit
    vector r = conj(row) / |row| to a multiple of e_0 is Hermitian and
    unitary, so its first column is parallel to r and the others span r's
    orthogonal complement, which is the null space of the row.  The sign
    is chosen so that v = r + e^(i arg r_0) e_0 never cancels.
    """
    r = np.conj(row) / np.linalg.norm(row)
    v = r.copy()
    v[0] += np.exp(1j * np.angle(r[0]))
    return np.eye(len(r), dtype=complex)[:, 1:] - np.outer(
        v, v[1:].conj() * (2.0 / np.vdot(v, v).real))


def _objective(op, x, p):
    """sum_q w_q |f(x_q)|^p for f with centred coefficients x."""
    return float(np.sum(op.weights * np.abs(op.values(x)) ** p))


def _smoothed(a2, p):
    """s^(p/2), rho = s^((p-2)/2), 1 / s and eps^2 for s = a2 + eps^2, a2 = |g|^2 at the nodes.

    eps is the smoothing scale of exponent p times max_q |g_q|.
    """
    eps2 = (_smoothing_factor(p) * max(float(np.sqrt(a2.max())), 1e-300)) ** 2
    s = a2 + eps2
    inv_s = 1.0 / s
    sp = s ** (0.5 * p)
    return sp, sp * inv_s, inv_s, eps2


def _hoelder_upper(op, basis, row, p, g, rho, adjoint):
    """Hoelder upper bound K_upper on the kernel of ``row`` over ``basis``, p >= 1.

    The kernel K = max |row . u|^p / sum_q w_q |f_q|^p over f = Phi basis u
    is a dual norm, so any node function h with sum_q w_q h_q f_q = row . u
    for every u gives K <= ||h||_q^p, q = p / (p - 1), or the largest |h_q|
    at p = 1.  h is the smoothed representer rho conj(g) / sum_q w_q rho_q
    |g_q|^2 of a feasible iterate with node values g and smoothed weights
    rho, plus the L^2 representer sum_a r_a conj(sigma_a) of its pairing
    residual r on the weighted-orthonormal columns sigma of ``basis``,
    which makes it exact.  ``g``, ``rho`` and ``adjoint`` are those of
    :func:`_dual`; the conjugate adjoint pairs against the centred basis,
    so the bound costs one correction node evaluation.  1 / sum_q w_q |g_q|^p is the lower end.
    """
    w = op.weights
    norm = float(np.sum(w * rho * (g.real**2 + g.imag**2)))
    # r_a = row_a - sum_q w_q sigma_a(x_q) rep_q for the smoothed representer
    # rep = rho conj(g) / norm, whose pairings are basis^T conj(adjoint) / norm
    r = row - basis.T @ np.conj(adjoint) / norm
    # |h| = |rho g / norm + values(basis conj(r))| since rho and norm are
    # real, formed in place to keep node-sized temporaries off the peak
    # memory of a solve on a large rule
    h = op.values(basis @ np.conj(r))
    h += (rho / norm) * g
    h = np.abs(h)
    top = float(h.max())
    if p == 1:
        return top
    q = p / (p - 1.0)
    h /= top
    return (top * float(w @ h ** q) ** (1.0 / q)) ** p


def _dual(op, x, p):
    """(g, rho, adjoint) of the function with centred coefficients x at exponent p.

    g are its node values, rho the descent's smoothed weights there and
    adjoint = op.adjoint(w rho g).  w rho conj(g) is the dual density of a
    minimizer; it pairs with a function h through the conjugate adjoint,
    sum_q w_q rho_q conj(g_q) h(x_q) = coeffs(h) . conj(adjoint).  Outside
    the descent loop the Hoelder bracket, the extremal pairing and the
    infimum route's minimizing functional all read it from here.
    """
    g = op.values(x)
    _, rho, _, _ = _smoothed(g.real**2 + g.imag**2, p)
    return g, rho, op.adjoint(op.weights * rho * g)


def _descend(op, basis, row, M, x0, p, t0):
    """Descent from t0; returns (t, obj, accepted steps, stop flag or None, ...).

    The iterate is f = Phi (x0 + M t) for the centred basis Phi, feasible
    for the problem ``row``, ``basis`` of :func:`solve_affine_lp`.  The p < 1
    step need not lower the unsmoothed objective, so there the lowest
    iterate visited is returned, with its own residual; the step count is
    that of the whole descent.  For p > 1 the tuple ends with the Hoelder
    bound of the returned iterate, else with None.
    """
    w = op.weights
    tiny = 1e-300

    def evaluate(t):
        # node values g and their squared moduli
        g = op.values(x0 + M @ t)
        return g, g.real**2 + g.imag**2

    def objective(a2):
        return float(np.sum(w * a2 ** (0.5 * p)))

    def stationarity(g, a2, obj):
        # the smoothed objective and weights, the adjoint of w rho g and the
        # stationarity pairing of an iterate, computed once: the stop tests
        # after a step and the next step share them
        sp, rho, inv_s, eps2 = _smoothed(a2, p)
        adjoint = op.adjoint(w * rho * g)
        pairing = M.conj().T @ adjoint
        grad_res = float(np.abs(pairing).max()) / max(obj ** ((p - 1.0) / p), tiny)
        return float(np.sum(w * sp)), rho, inv_s, eps2, adjoint, pairing, grad_res

    def certified():
        # for p > 1 at a stationary iterate, its Hoelder bound and whether
        # the bracket's gap is within GAP_TOL; (None, False) elsewhere
        if p <= 1 or grad_res >= GRAD_TOL:
            return None, False
        upper = _hoelder_upper(op, basis, row, p, g, rho, adjoint)
        return upper, upper * obj - 1.0 <= GAP_TOL

    t = t0.astype(complex)
    g, a2 = evaluate(t)
    obj = objective(a2)
    F, rho, inv_s, eps2, adjoint, pairing, grad_res = stationarity(g, a2, obj)
    rel_step = np.inf
    settled = 0
    best = (t, obj, grad_res)
    upper, done = certified()

    def result(iters, stop):
        if p < 1:
            t_out, obj_out, res_out = best
            return t_out, obj_out, iters, stop, res_out, rel_step, None
        bound = upper
        if p > 1 and bound is None:
            # a stop at a nonstationary iterate: the bound is formed here
            bound = _hoelder_upper(op, basis, row, p, g, rho, adjoint)
        return t, obj, iters, stop, grad_res, rel_step, bound

    if done:
        # certified at the start: no step taken, no objective change
        rel_step = 0.0
        return result(0, None)

    def armijo(delta, slope, halvings):
        # Armijo backtracking on the smoothed objective F the step models, at
        # this iterate's eps, with slack for the rounding of the node sum;
        # None when no step of the first ``halvings`` passes
        lam = 1.0
        for _ in range(halvings):
            t_trial = t + lam * delta
            g_trial, a2_trial = evaluate(t_trial)
            if (float(np.sum(w * (a2_trial + eps2) ** (0.5 * p)))
                    <= F + 1e-4 * lam * slope + 1e-15 * F):
                return t_trial, g_trial, a2_trial
            lam *= 0.5
        return None

    def newton_trial(wr):
        # the full Newton step below p = 1, or None when it is refused: its
        # matrix has no Cholesky factor, it does not descend, it fails
        # Armijo at once or it shrinks some node's s by more than
        # SHRINK_LIMIT; a refused step costs no node evaluation beyond the
        # one trial
        delta = _newton_step(op, M, wr, g, a2, inv_s, pairing, p, with_pair=True)
        if delta is None:
            return None
        slope = p * float(np.vdot(pairing, delta).real)
        trial = armijo(delta, slope, 1) if slope < 0.0 else None
        if trial is None or np.any(trial[2] + eps2 < SHRINK_LIMIT * (a2 + eps2)):
            return None
        return trial

    refused = wait = 0
    for it in range(1, MAX_ITER + 1):
        wr, newton = w * rho, grad_res >= GRAD_TOL
        trial = None
        if p < 1 and newton:
            if wait:
                wait -= 1
            else:
                trial = newton_trial(wr)
                # r refused attempts in a row skip the attempt on the next
                # min(2^r - 1, NEWTON_WAIT) steps
                refused = 0 if trial is not None else refused + 1
                wait = min(2 ** refused - 1, NEWTON_WAIT)
        if trial is None:
            # the Newton step for p >= 1 (the reweighted Gram alone at an
            # already stationary iterate), and below p = 1 the
            # majorize-minimize step, the reweighted Gram alone
            delta = _newton_step(op, M, wr, g, a2, inv_s, pairing, p,
                                 with_pair=p >= 1 and newton)
            slope = np.nan if delta is None else p * float(np.vdot(pairing, delta).real)
            # both step matrices are positive definite (eps > 0), so only a
            # broken operator makes them singular or fails to give a
            # descent direction; an exactly stationary iterate (zero
            # pairing) takes its zero step
            if not (slope < 0.0 or slope == 0.0 and grad_res == 0.0):
                return result(it - 1, "line-search-stall")
            if p < 1:
                # the majorize-minimize step is taken whole (not monotone in
                # the unsmoothed objective, see above)
                t_trial = t + delta
                trial = (t_trial, *evaluate(t_trial))
            else:
                trial = armijo(delta, slope, 20)
                if trial is None:
                    return result(it - 1, "line-search-stall")
        t_trial, g_trial, a2_trial = trial

        obj_trial = objective(a2_trial)
        rel_step = abs(obj - obj_trial) / max(obj_trial, tiny)
        t, g, a2, obj = t_trial, g_trial, a2_trial, obj_trial
        F, rho, inv_s, eps2, adjoint, pairing, grad_res = stationarity(g, a2, obj)
        if obj <= best[1]:
            best = (t, obj, grad_res)

        upper, done = certified()
        if done or rel_step < OBJ_TOL and grad_res < GRAD_TOL:
            return result(it, None)
        # at p <= 1 the objective is smoothed at scale eps, below which the
        # residual carries no information about the unsmoothed problem; when
        # the minimizer vanishes inside the domain the contraction toward
        # exact stationarity can be slow (linear for the p < 1 steps), so
        # once the objective has settled and the residual sits at the
        # smoothing scale we are done
        if p <= 1.0 and rel_step < OBJ_TOL and grad_res < _smoothing_factor(p):
            settled += 1
            if settled >= 5:
                return result(it, None)
        else:
            settled = 0

    return result(MAX_ITER, "non-convergence")


def _newton_step(op, M, wr, g, a2, inv_s, pairing, p, with_pair):
    """Newton step d of the smoothed objective, or None when its step matrix is refused.

    Scaled by 2/p, the Newton system A d + conj(C d) = -pairing has
    A = M^H G(wr + bw |g|^2) M and C = M^T P(bw conj(g)^2) M for
    wr = w rho and the shared factor bw = (p/2 - 1) wr / s; as a real
    system in (Re d, Im d) it is symmetric, and for p >= 1 positive
    definite, dominating M^H G(wr min(1, ((p - 1) |g|^2 + eps^2) / s)) M
    (at p = 1, M^H G(wr eps^2 / s) M).  At p = 2, where C vanishes
    and A is the reweighted Gram M^H G(wr) M, and unless ``with_pair``,
    the step solves with that Gram alone.  Without the pair it is the
    majorize-minimize step of reweighted least squares.  Those matrices
    are positive definite by construction and solve with no test; only a
    singular one is refused.  Below p = 1 the Newton matrix is definite
    only near a strict local minimizer, so there its Cholesky
    factorization tests it first, a refusal is an expected outcome, and the
    descent then falls back to the Gram alone; at every p the descent
    drops the pair at an already stationary iterate, where the step is
    rounding and the pair product would only cost time.
    """
    try:
        if p == 2 or not with_pair:
            return np.linalg.solve(M.conj().T @ (op.gram(wr) @ M), -pairing)
        bw = (0.5 * p - 1.0) * wr * inv_s
        A = M.conj().T @ (op.gram(wr + bw * a2) @ M)
        C = M.T @ (op.pair(bw * np.conj(g) ** 2) @ M)
        solve = _cholesky_solve if p < 1 else np.linalg.solve
        d = solve(_real_system(A, C), -np.concatenate([pairing.real, pairing.imag]))
    except np.linalg.LinAlgError:
        return None
    n = len(pairing)
    return d[:n] + 1j * d[n:]


def _real_system(A, C):
    """The real matrix [[Re(A + C), -Im(A + C)], [Im(A - C), Re(A - C)]] of d -> A d + conj(C d).

    Filled block by block into one array, with each entry rounded as its
    block expression rounds.
    """
    n = A.shape[0]
    H = np.empty((2 * n, 2 * n))
    np.add(A.real, C.real, out=H[:n, :n])
    np.subtract(-A.imag, C.imag, out=H[:n, n:])
    np.subtract(A.imag, C.imag, out=H[n:, :n])
    np.subtract(A.real, C.real, out=H[n:, n:])
    return H


def _cholesky_solve(A, rhs):
    """A^-1 rhs for a Hermitian positive definite A; LinAlgError when it is not one.

    The Cholesky factorization is the definiteness test of the p < 1
    Newton trial; the solve itself is numpy's LU, which on these small
    systems keeps the descent on numpy alone.
    """
    np.linalg.cholesky(A)
    return np.linalg.solve(A, rhs)
