"""The three workloads: seeded op lists, each op checked against a closed form.

An op is one timed call into the package: ``xibergman.cli.main`` for
``compute`` and ``sweep``, or a library function where the CLI has no route.
Names are looked up on their module at call time, so the span wrappers in
``spans.py`` see every call.  Checking reads the op's output after the clock
stops.

Points are drawn from the seed with fixed moduli |z_j| and seeded phases.
Every domain here is circled, so the phase changes the problem only through
the quadrature grid: every seed poses problems of the same difficulty and
the same closed form applies.  The moduli sit where
the default truncation keeps each closed form within the README contract;
README.md in this directory records the measured limits.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import oracles

EXPECTED_P_LT_1 = "nonconvex-best-found"
# The infimum route reports an outer Nelder-Mead budget stop with this flag.
# Its K is then the best family member found, an upper bound on the true K
# up to discretisation error, and it is held to the same contract tolerance
# as any other op.  Every z^2 call off the origin stops on the budget.  At
# p = 2 its error is 1.4e-11 at every phase of z.  At p = 1.5 the error
# depends on where the simplex stopped,
# and so on the phase: at |z| = 0.3 it was below 2e-8 for 16 of 18 seeds
# and 2.4e-5 and 6.3e-5 for the other two.  Such p != 2 results therefore
# stay out of margin_digits, which would otherwise swing by 3 digits from
# seed to seed; the traced run reports them as higher.outer_nonconverged
# and higher.unconverged_err_max.
EXPECTED_INF = "outer-non-convergence"

PRODUCT_RADIUS = 0.35      # |z_j| on the bidisc; |z| on the ball, split evenly
MOEBIUS_RADIUS = 0.5       # |z0|
MOEBIUS_GRID = "-3:0:31"
MOEBIUS_SHORT_GRID = "-3:0:7"
MOEBIUS_DEGREE = 24
HIGHER_RADIUS = 0.3
HIGHER_DEGREE = 16


@dataclass
class Verdict:
    err: float | None = None      # relative error against the closed form
    tol: float | None = None
    problem: str | None = None    # why the op failed; None if it passed
    unconverged: bool = False     # budget stop at p != 2: kept out of margin_digits


@dataclass
class Op:
    name: str
    p: float
    call: Callable[[], Any]             # the timed part
    check: Callable[[Any], Verdict]     # runs after the clock stops


def unexpected_flags(flags, p: float, expected: tuple[str, ...] = ()) -> list[str]:
    allowed = set(expected) | ({EXPECTED_P_LT_1} if p < 1 else set())
    return [f for f in flags if f not in allowed]


def judge_value(value: float, exact: float, p: float, flags=(),
                expected: tuple[str, ...] = ()) -> Verdict:
    """Relative error against the closed form at the contract tolerance for p."""
    tol = oracles.tolerance(p)
    err = oracles.rel_err(value, exact)
    bad = unexpected_flags(flags, p, expected)
    if bad:
        return Verdict(err, tol, f"unexpected flags {bad}")
    if not err <= tol:
        return Verdict(err, tol, f"rel err {err:.3e} > tol {tol:.0e}")
    return Verdict(err, tol, unconverged=EXPECTED_INF in flags and p != 2)


def _load_cli_output(rc, path: str):
    """Parsed --out JSON, or a failing Verdict for exit 1 / odd exit codes."""
    if rc == 1:
        return None, Verdict(problem="exit 1")
    if rc not in (0, 2):
        return None, Verdict(problem=f"exit {rc}")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        return None, Verdict(problem=f"unreadable output: {exc}")
    finally:
        if os.path.exists(path):
            os.remove(path)
    return data, None


def point_arg(z) -> str:
    # repr round-trips each float, so the CLI parses exactly the oracle's point
    return ",".join(repr(complex(c)) for c in z)


def phase(rng: random.Random) -> complex:
    return cmath.exp(1j * rng.uniform(0, 2 * math.pi))


class Context:
    """What the ops of a workload share: the CLI module, the work dir, a reused space."""

    def __init__(self, workdir: str):
        import xibergman.cli
        self.cli = xibergman.cli
        self.workdir = workdir
        self.space = None          # built in set-up by workloads that reuse one
        self._serial = 0

    def out_path(self) -> str:
        self._serial += 1
        return os.path.join(self.workdir, f"op{self._serial}.json")

    def cli_op(self, name: str, p: float, argv: list[str],
               check: Callable[[dict, int], Verdict]) -> Op:
        out = self.out_path()
        argv = argv + ["--out", out]

        def run_check(rc):
            data, failed = _load_cli_output(rc, out)
            return failed if failed is not None else check(data, rc)

        return Op(name, p, lambda: self.cli.main(argv), run_check)


# -- product-solve ---------------------------------------------------------


def _compute_op(ctx: Context, domain: str, shape: str, xi: str, alpha, z, p: float) -> Op:
    at_origin = not any(z)

    def check(data, rc):
        if at_origin:
            exact = oracles.delta_alpha_at_origin(shape, alpha, p)
        elif p == 2:
            # the truncation the CLI chose, as it reports it
            exact = oracles.delta0_truncated_p2(shape, z, data["degree"])
        else:
            exact = oracles.delta0(shape, z)
        ev = data["evaluation"]
        flags = ev["diagnostics"]["flags"]
        if rc == 2 and not flags:
            return Verdict(problem="exit 2 without a flag")
        return judge_value(ev["K"], exact, p, flags)

    label = "0" if at_origin else "z"
    argv = ["compute", "--domain", domain, "--xi", xi, "--p", repr(p),
            "--z", point_arg(z)]
    return ctx.cli_op(f"compute {domain} xi={xi.split(':')[0]} at {label} p={p}",
                      p, argv, check)


def product_ops(ctx: Context, rng: random.Random) -> list[Op]:
    # the ball rule is not unitarily invariant, so a seeded direction would
    # change the IRLS iteration count; fixed |z_j| keep it the same per seed
    zb = tuple(PRODUCT_RADIUS / math.sqrt(2) * phase(rng) for _ in range(2))
    zp = tuple(PRODUCT_RADIUS * phase(rng) for _ in range(2))
    ball = ("ball:2", "ball", "0,0: 1", (0, 0), zb)
    bidisc = ("bidisc", "polydisc", "0,0: 1", (0, 0), zp)
    origin = (0j, 0j)
    # p = 2 ops are spread over the pass, so wall_p2_s samples the machine's
    # load at several moments rather than at one
    return [
        _compute_op(ctx, *ball, 2.0),
        _compute_op(ctx, *bidisc, 1.5),
        _compute_op(ctx, *ball, 1.0),
        _compute_op(ctx, *bidisc, 2.0),
        _compute_op(ctx, *ball, 1.5),
        _compute_op(ctx, *bidisc, 1.0),
        _compute_op(ctx, "ball:2", "ball", "1,0: 1", (1, 0), origin, 2.0),
        _compute_op(ctx, "bidisc", "polydisc", "1,0: 1", (1, 0), origin, 1.5),
    ]


# -- moebius-sweep ---------------------------------------------------------


def _grid(spec: str) -> list[float]:
    lo, hi, count = spec.split(":")
    lo, hi, count = float(lo), float(hi), int(count)
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _sweep_op(ctx: Context, z0: complex, k: int, p: float, grid: str) -> Op:
    heights = _grid(grid)

    def check(data, rc):
        rows = data["rows"]
        if len(rows) != len(heights) or any(
                abs(r["a"] - a) > 1e-9 for r, a in zip(rows, heights)):
            return Verdict(problem="rows do not match the requested grid")
        flags = sorted({f for r in rows for f in r["flags"]})
        if rc == 2 and not flags:
            return Verdict(problem="exit 2 without a flag")
        bad = unexpected_flags(flags, p)
        if bad:
            return Verdict(problem=f"unexpected flags {bad}")
        if k == 0 or p == 2:
            oracle = oracles.moebius_delta0 if k == 0 else oracles.moebius_delta1_p2
            worst = Verdict(err=0.0, tol=oracles.tolerance(p))
            # the grid's own heights, not the 12-digit ones in the JSON
            for r, a in zip(rows, heights):
                v = judge_value(r["K"], oracle(z0, a), p)
                if v.problem:
                    return Verdict(v.err, v.tol, f"a={a:.3g}: {v.problem}")
                worst = max(worst, v, key=lambda x: x.err)
            return worst
        # no closed form for delta_1 at p != 2: the rescaled column
        # e^((2 + p) a) K must not decrease and log K must be convex in a
        scaled = [math.exp((2 + p) * r["a"]) * r["K"] for r in rows]
        logs = [math.log(r["K"]) for r in rows]
        mono = oracles.monotone_margin(scaled)
        convex = oracles.second_difference_margin(logs)
        if mono < -oracles.MONOTONE_SLACK:
            return Verdict(problem=f"scaled column decreases by {-mono:.2e}")
        if convex < -oracles.LOG_CONVEX_SLACK:
            return Verdict(problem=f"log K second difference {convex:.2e}")
        return Verdict()

    argv = ["sweep", "--domain", "disk", "--xi", f"{k}: 1", "--p", repr(p),
            "--pole", point_arg((z0,)), f"--a-grid={grid}",
            "--degree", str(MOEBIUS_DEGREE), "--format", "json"]
    return ctx.cli_op(f"sweep xi={k} p={p} levels={len(heights)}", p, argv, check)


def moebius_ops(ctx: Context, rng: random.Random) -> list[Op]:
    z0 = MOEBIUS_RADIUS * phase(rng)
    ops = [_sweep_op(ctx, z0, k, p, MOEBIUS_GRID)
           for k in (0, 1) for p in (2.0, 1.5, 1.0)]
    ops.append(_sweep_op(ctx, z0, 0, 0.8, MOEBIUS_SHORT_GRID))
    return ops


# -- higher-inf ------------------------------------------------------------


def higher_setup(ctx: Context) -> None:
    from xibergman import Domain, PolySpace
    ctx.space = PolySpace.build(Domain.disk(), degree=HIGHER_DEGREE)


def higher_ops(ctx: Context, rng: random.Random) -> list[Op]:
    import xibergman.higher as higher
    import xibergman.kernels as kernels
    space = ctx.space
    ops = []
    for k in (1, 2):
        H = higher.HomogeneousPolynomial.from_string(f"z^{k}: 1")
        for z in (0j, HIGHER_RADIUS * phase(rng)):
            label = "0" if z == 0 else "z"
            for p in (2.0, 1.5):
                exact = oracles.higher_disk(k, p, z)

                def check_ev(ev, exact=exact, p=p):
                    return judge_value(ev.K, exact, p, ev.flags)

                def check_inf(res, exact=exact, p=p):
                    return judge_value(res.K, exact, p, res.flags, (EXPECTED_INF,))

                ops.append(Op(
                    f"higher_kernel_direct z^{k} at {label} p={p}", p,
                    lambda H=H, z=z, p=p: higher.higher_kernel_direct(space, H, z, p),
                    check_ev))
                ops.append(Op(
                    f"higher_kernel_via_inf z^{k} at {label} p={p}", p,
                    lambda H=H, z=z, p=p: higher.higher_kernel_via_inf(space, H, z, p),
                    check_inf))
                if p == 2:
                    ops.append(Op(
                        f"kernel2_diagonal(minimizing_xi_p2) z^{k} at {label}", p,
                        lambda H=H, z=z: kernels.kernel2_diagonal(
                            space, higher.minimizing_xi_p2(space, H, z), z),
                        check_ev))
    return ops


@dataclass(frozen=True)
class Workload:
    ops: Callable[[Context, random.Random], list[Op]]
    setup: Callable[[Context], None] = lambda ctx: None


WORKLOADS = {
    "product-solve": Workload(product_ops),
    "moebius-sweep": Workload(moebius_ops),
    "higher-inf": Workload(higher_ops, higher_setup),
}
