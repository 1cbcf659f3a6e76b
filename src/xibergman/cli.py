"""Command-line surface: compute kernels, run sweeps, run verification.

Three subcommands share one configuration vocabulary (RunConfig).  A JSON
config file may supply any flag as a default; explicit flags win.  Exit
codes: 0 success, 1 configuration error (message names the field),
2 flagged or failed numerical result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields

from .algebra import AlgebraError, Functional
from .domains import Domain, UnsupportedShapeError, domain_from_spec
from .green import GreenModel, default_a_grid, sweep
from .higher import HomogeneousPolynomial, higher_kernel_direct
from .kernels import (
    KernelError,
    diagonal,
    evaluation_to_dict,
    evaluations_to_csv,
    off_diagonal,
)
from .lpsolve import LpOptions, SolverError
from .pspace import PolySpace
from .verify import SUITES, VerifyContext, format_table, results_to_json_dict, run_suite

__all__ = ["RunConfig", "ConfigError", "main", "cmd_compute", "cmd_sweep", "cmd_verify"]


class ConfigError(Exception):
    """Invalid configuration; carries the offending field name."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


@dataclass
class RunConfig:
    """Validated mirror of the command-line flags."""

    command: str
    domain: str = "disk"
    xi: str | None = None
    H: str | None = None
    p: float | None = None
    z: str | None = None
    pole: str | None = None
    degree: int | None = None
    radial_order: int | None = None
    angular_order: int | None = None
    a_grid: object = None
    out: str | None = None
    format: str = "json"
    seed: int = 42
    threads: int | None = None
    budget: float | None = None
    suite: str = "all"


_CONFIG_KEYS = {f.name for f in fields(RunConfig)} - {"command"}


def _parse_domain(text: str) -> Domain:
    text = str(text).strip()
    if text.startswith("{"):
        try:
            return domain_from_spec(json.loads(text))
        except (ValueError, KeyError, TypeError, UnsupportedShapeError) as exc:
            raise ConfigError("domain", f"bad inline spec: {exc}") from exc
    name, _, rest = text.partition(":")
    name = name.strip().lower()
    parts = [part.strip() for part in rest.split(",") if part.strip()] if rest else []
    try:
        if name == "disk":
            if not parts:
                return Domain.disk()
            if len(parts) == 1:
                return Domain.disk(float(parts[0]))
            return Domain.disk(float(parts[0]), complex(parts[1]))
        if name == "bidisc":
            if not parts:
                return Domain.bidisc()
            return Domain.bidisc(float(parts[0]), float(parts[1]))
        if name == "polydisc":
            return Domain.polydisc([float(part) for part in parts])
        if name == "annulus":
            return Domain.annulus(float(parts[0]), float(parts[1]))
        if name == "ball":
            # ball:<dimension> or ball:<dimension>,<radius>
            if not parts:
                return Domain.ball()
            dim = int(parts[0])
            radius = float(parts[1]) if len(parts) > 1 else 1.0
            return Domain.ball(radius, dim)
    except ConfigError:
        raise
    except (ValueError, IndexError) as exc:
        raise ConfigError("domain", f"bad arguments for {name!r}: {exc}") from exc
    raise ConfigError("domain", f"unknown shape {text!r}; try disk, disk:0.8, "
                                "annulus:0.5,1, bidisc, polydisc:1,0.7, ball:2")


def _parse_point(value, dimension: int, field_name: str):
    if value is None:
        raise ConfigError(field_name, "required")
    parts = str(value).replace("(", "").replace(")", "").split(",")
    if len(parts) != dimension:
        raise ConfigError(field_name,
                          f"expected {dimension} comma-separated coordinate(s), "
                          f"got {value!r}")
    try:
        coords = tuple(complex(part.strip().replace(" ", "")) for part in parts)
    except ValueError as exc:
        raise ConfigError(field_name, f"bad coordinate in {value!r}") from exc
    return coords[0] if dimension == 1 else coords


def _parse_a_grid(value) -> list[float]:
    if value is None:
        return default_a_grid()
    if isinstance(value, (list, tuple)):
        vals = [float(v) for v in value]
    else:
        text = str(value).strip()
        try:
            if ":" in text:
                lo, hi, count = text.split(":")
                return default_a_grid(float(lo), float(hi), int(count))
            vals = [float(part) for part in text.split(",") if part.strip()]
        except ValueError as exc:
            raise ConfigError("a-grid", f"bad grid {value!r}; use lo:hi:count "
                                        "or a comma list") from exc
    if not vals:
        raise ConfigError("a-grid", "empty grid")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConfigError("a-grid", "grid must be strictly increasing")
    if vals[-1] > 0:
        raise ConfigError("a-grid", "grid values must be <= 0")
    return vals


def _resolve_threads(value) -> int:
    if value is not None:
        n = int(value)
        if n < 1:
            raise ConfigError("threads", "must be >= 1")
        return n
    env = os.environ.get("XIBERGMAN_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError("threads",
                              f"bad XIBERGMAN_THREADS value {env!r}") from exc
    return 1


def _require_p(cfg: RunConfig) -> float:
    if cfg.p is None:
        raise ConfigError("p", "required")
    p = float(cfg.p)
    if not (p > 0) or not math.isfinite(p):
        raise ConfigError("p", f"must be a finite positive real, got {cfg.p}")
    return p


def _target(cfg: RunConfig, dimension: int):
    """Exactly one of --xi / --H, parsed for the given dimension."""
    if cfg.xi is not None and cfg.H is not None:
        raise ConfigError("xi", "give either --xi or --H, not both")
    if cfg.xi is not None:
        try:
            return Functional.from_string(cfg.xi, dimension=dimension), None
        except AlgebraError as exc:
            raise ConfigError("xi", str(exc)) from exc
    if cfg.H is not None:
        try:
            return None, HomogeneousPolynomial.from_string(cfg.H, dimension=dimension)
        except ValueError as exc:
            raise ConfigError("H", str(exc)) from exc
    raise ConfigError("xi", "required (or --H)")


def _orders(cfg: RunConfig, dimension: int) -> tuple[int, int]:
    # node counts grow like (radial*angular)^n, so defaults shrink with n
    radial = cfg.radial_order if cfg.radial_order is not None else (32 if dimension == 1 else 12)
    angular = cfg.angular_order if cfg.angular_order is not None else (64 if dimension == 1 else 24)
    if radial < 1 or angular < 1:
        raise ConfigError("radial-order", "orders must be >= 1")
    return int(radial), int(angular)


def _round12(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if math.isfinite(obj) else obj
    if isinstance(obj, complex):
        return [_round12(obj.real), _round12(obj.imag)]
    if isinstance(obj, dict):
        return {key: _round12(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(val) for val in obj]
    return obj


def _dump_json(payload: dict) -> str:
    return json.dumps(_round12(payload), sort_keys=True, indent=2) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_compute(cfg: RunConfig) -> int:
    domain = _parse_domain(cfg.domain)
    n = domain.dimension
    p = _require_p(cfg)
    xi, H = _target(cfg, n)
    radial, angular = _orders(cfg, n)
    z = _parse_point(cfg.z, n, "z")
    options = LpOptions(seed=cfg.seed)
    space = PolySpace.build(domain, degree=cfg.degree,
                            radial_order=radial, angular_order=angular)
    payload: dict = {
        "command": "compute",
        "domain": domain.to_spec(),
        "p": p,
        "seed": cfg.seed,
        "degree": space.degree,
        "radial_order": radial,
        "angular_order": angular,
    }
    if cfg.pole is not None:
        if H is not None:
            raise ConfigError("pole", "off-diagonal sections need --xi, not --H")
        w = _parse_point(cfg.pole, n, "pole")
        section = off_diagonal(space, xi, w, p, options)
        ev = section.base
        wt = (w,) if n == 1 else w
        payload["pole"] = [[c.real, c.imag] for c in wt]
        value = section.values(z)
        payload["section_value_at_z"] = [value.real, value.imag]
        payload["pole_identity_residual"] = section.pole_identity_residual()
    elif H is not None:
        ev = higher_kernel_direct(space, H, z, p, options)
        payload["H"] = str(H)
    else:
        ev = diagonal(space, xi, z, p, options)
    payload["evaluation"] = evaluation_to_dict(ev, include_minimizer=True)
    if cfg.format == "csv":
        _emit(evaluations_to_csv([ev]), cfg.out)
    else:
        _emit(_dump_json(payload), cfg.out)
    return 2 if ev.flags else 0


def cmd_sweep(cfg: RunConfig) -> int:
    domain = _parse_domain(cfg.domain)
    n = domain.dimension
    p = _require_p(cfg)
    xi, H = _target(cfg, n)
    target = xi if xi is not None else H
    radial, angular = _orders(cfg, n)
    grid = _parse_a_grid(cfg.a_grid)
    pole = _parse_point(cfg.pole, n, "pole") if cfg.pole is not None else None
    at_origin = pole is None or (
        pole == 0 if n == 1 else all(c == 0 for c in pole))
    try:
        if not at_origin:
            if domain.to_spec() != Domain.disk().to_spec():
                raise ConfigError("pole",
                                  "off-center poles are only supported on the unit disk")
            model = GreenModel.moebius_disk(pole)
        else:
            model = GreenModel.balanced(domain)
    except ValueError as exc:
        raise ConfigError("pole" if pole else "domain", str(exc)) from exc
    threads = _resolve_threads(cfg.threads)
    table = sweep(model, target, p, grid, degree=cfg.degree,
                  radial_order=radial, angular_order=angular,
                  options=LpOptions(seed=cfg.seed), threads=threads)
    if cfg.format == "json":
        _emit(_dump_json(table.to_json_dict()), cfg.out)
    else:
        _emit(table.to_csv(), cfg.out)
    return 2 if table.flagged else 0


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.suite not in SUITES + ("all",):
        raise ConfigError("suite",
                          f"unknown suite {cfg.suite!r}; pick from "
                          f"{', '.join(SUITES + ('all',))}")
    ctx = VerifyContext(seed=cfg.seed)
    results = run_suite(cfg.suite, ctx, budget=cfg.budget)
    print(format_table(results))
    text = _dump_json(results_to_json_dict(results, cfg.suite, cfg.seed))
    if cfg.out:
        _emit(text, cfg.out)
    else:
        sys.stdout.write(text)
    return 0 if all(r.passed for r in results) else 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub: argparse.ArgumentParser, with_points: bool) -> None:
    sub.add_argument("--config", help="JSON file of flag defaults")
    sub.add_argument("--seed", type=int, default=42,
                     help="seed for any randomized solver component")
    sub.add_argument("--out", help="output file (default: stdout)")
    if with_points:
        sub.add_argument("--domain", default="disk",
                         help="disk | disk:R | disk:R,center | annulus:r1,r2 | "
                              "bidisc | polydisc:r1,r2,... | ball:n | inline JSON")
        sub.add_argument("--xi", help='functional, e.g. "0:1" or "0:1; 1:0.5+2j"')
        sub.add_argument("--H", help='homogeneous top form, e.g. "z^2: 1"')
        sub.add_argument("--p", type=float, default=None, help="exponent p > 0")
        sub.add_argument("--degree", type=int, default=None,
                         help="truncation degree (default per dimension)")
        sub.add_argument("--radial-order", type=int, default=None)
        sub.add_argument("--angular-order", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="xibergman",
                     description="p-Bergman kernels with respect to a "
                                 "finite-order evaluation functional")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    comp = subs.add_parser("compute", help="diagonal or off-diagonal kernel at a point")
    _add_common(comp, with_points=True)
    comp.add_argument("--z", help="evaluation point (comma-separated coordinates)")
    comp.add_argument("--pole",
                      help="off-diagonal pole point; requests the kernel section")
    comp.add_argument("--format", choices=("json", "csv"), default="json")

    swp = subs.add_parser("sweep", help="Green-function sublevel sweep")
    _add_common(swp, with_points=True)
    swp.add_argument("--pole", help="Green pole (nonzero selects the disk model)")
    swp.add_argument("--threads", type=int, default=None,
                     help="worker threads (default: XIBERGMAN_THREADS or 1)")
    swp.add_argument("--a-grid", default=None,
                     help='sublevel heights: "lo:hi:count" or comma list, all <= 0')
    swp.add_argument("--format", choices=("json", "csv"), default="csv")

    ver = subs.add_parser("verify", help="run a verification suite")
    _add_common(ver, with_points=False)
    ver.add_argument("--suite", default="all",
                     help=f"one of {', '.join(SUITES + ('all',))}")
    ver.add_argument("--budget", type=float, default=None,
                     help="soft wall-clock budget in seconds")
    ver.add_argument("--format", choices=("json",), default="json")
    # subcommands parse into a fresh namespace, so config-file defaults have
    # to be installed per subparser, not just on the root parser
    parser.subcommand_parsers = (comp, swp, ver)
    return parser


def _load_config_defaults(argv: list[str]) -> dict:
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return {}
    try:
        with open(known.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("config", f"cannot read {known.config!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config", "expected a JSON object of flag defaults")
    out = {}
    for key, val in raw.items():
        dest = key.replace("-", "_")
        if dest not in _CONFIG_KEYS:
            raise ConfigError("config", f"unknown field {key!r}")
        out[dest] = val
    return out


def _glue_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--flag -3:0:7`` as ``--flag=-3:0:7`` for value flags.

    Grid points are nonpositive and points can have negative coordinates, so
    these values routinely start with a dash that argparse would otherwise
    read as an option prefix.
    """
    glued = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if (arg in ("--a-grid", "--z", "--pole")
                and i + 1 < len(argv) and argv[i + 1].startswith("-")):
            glued.append(arg + "=" + argv[i + 1])
            i += 2
        else:
            glued.append(arg)
            i += 1
    return glued


def main(argv: list[str] | None = None) -> int:
    argv = _glue_negative_values(list(sys.argv[1:] if argv is None else argv))
    try:
        defaults = _load_config_defaults(argv)
        parser = build_parser()
        if defaults:
            for sub in parser.subcommand_parsers:
                sub.set_defaults(**defaults)
        ns = parser.parse_args(argv)
        cfg = RunConfig(command=ns.command,
                        **{name: getattr(ns, name) for name in _CONFIG_KEYS
                           if hasattr(ns, name)})
        if cfg.command == "compute":
            return cmd_compute(cfg)
        if cfg.command == "sweep":
            return cmd_sweep(cfg)
        return cmd_verify(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (AlgebraError, UnsupportedShapeError, KernelError, ValueError,
            MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
