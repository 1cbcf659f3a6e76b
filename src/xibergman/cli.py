"""Command-line surface: compute kernels, run sweeps, run verification.

Three subcommands share one flag vocabulary and read the parsed flags
directly.  A JSON config file may supply any flag of the chosen subcommand
as a default; explicit flags win.  Exit codes: 0 success, 1 configuration error
(message names the field), 2 flagged or failed numerical result.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .algebra import Functional
from .domains import MIN_ORDER, Domain, UnsupportedShapeError, contains, domain_from_spec
from .green import GreenModel, _checked_grid, default_a_grid, sweep
from .higher import HomogeneousPolynomial, higher_kernel_direct
from .kernels import (
    KernelError,
    diagonal,
    evaluation_to_dict,
    evaluations_to_csv,
    off_diagonal,
)
from .lpsolve import SolverError
from .pspace import PolySpace
from .verify import SUITES, VerifyContext, format_table, results_to_json_dict, run_suite

__all__ = ["ConfigError", "main", "cmd_compute", "cmd_sweep", "cmd_verify"]


class ConfigError(Exception):
    """Invalid configuration; carries the offending field name."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


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


def _parse_point(value, domain: Domain, field_name: str):
    """A point strictly inside ``domain``, from comma-separated coordinates."""
    if value is None:
        raise ConfigError(field_name, "required")
    dimension = domain.dimension
    parts = str(value).replace("(", "").replace(")", "").split(",")
    if len(parts) != dimension:
        raise ConfigError(field_name,
                          f"expected {dimension} comma-separated coordinate(s), "
                          f"got {value!r}")
    try:
        coords = tuple(complex(part.strip().replace(" ", "")) for part in parts)
    except ValueError as exc:
        raise ConfigError(field_name, f"bad coordinate in {value!r}") from exc
    if not contains(domain, coords):
        raise ConfigError(field_name, f"point {value} lies outside the domain")
    return coords


def _parse_a_grid(value) -> list[float]:
    """Sublevel heights from a list, "lo:hi:count" or a comma list, checked as a sweep's."""
    if value is None:
        return default_a_grid()
    try:
        if isinstance(value, (list, tuple)):
            vals = value
        elif ":" in str(value):
            lo, hi, count = str(value).split(":")
            vals = default_a_grid(float(lo), float(hi), int(count))
        else:
            vals = [float(part) for part in str(value).split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError("a-grid", f"bad grid {value!r}; use lo:hi:count "
                                    "or a comma list") from exc
    try:
        return _checked_grid(vals)
    except ValueError as exc:
        raise ConfigError("a-grid", str(exc)) from exc


def _require_p(args: argparse.Namespace) -> float:
    if args.p is None:
        raise ConfigError("p", "required")
    p = float(args.p)
    if not (p > 0) or not math.isfinite(p):
        raise ConfigError("p", f"must be a finite positive real, got {args.p}")
    return p


def _target(args: argparse.Namespace, dimension: int):
    """Exactly one of --xi / --H, parsed for the given dimension."""
    if args.xi is not None and args.H is not None:
        raise ConfigError("xi", "give either --xi or --H, not both")
    if args.xi is not None:
        try:
            return Functional.from_string(args.xi, dimension=dimension), None
        except ValueError as exc:
            raise ConfigError("xi", str(exc)) from exc
    if args.H is not None:
        try:
            return None, HomogeneousPolynomial.from_string(args.H, dimension=dimension)
        except ValueError as exc:
            raise ConfigError("H", str(exc)) from exc
    raise ConfigError("xi", "required (or --H)")


def _check_orders(args: argparse.Namespace) -> None:
    """Reject orders below the quadrature's floor; None keeps the per-dimension default."""
    for flag, order in (("radial-order", args.radial_order),
                        ("angular-order", args.angular_order)):
        if order is not None and order < MIN_ORDER:
            raise ConfigError(flag, f"must be >= {MIN_ORDER}, got {order}")


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


def cmd_compute(args: argparse.Namespace) -> int:
    domain = _parse_domain(args.domain)
    n = domain.dimension
    p = _require_p(args)
    xi, H = _target(args, n)
    _check_orders(args)
    z = _parse_point(args.z, domain, "z")
    space = PolySpace.build(domain, degree=args.degree,
                            radial_order=args.radial_order,
                            angular_order=args.angular_order)
    payload: dict = {
        "command": "compute",
        "domain": domain.to_spec(),
        "p": p,
        "seed": args.seed,
        "degree": space.degree,
        "radial_order": space.quadrature.radial_order,
        "angular_order": space.quadrature.angles,
    }
    if args.pole is not None:
        if H is not None:
            raise ConfigError("pole", "off-diagonal sections need --xi, not --H")
        w = _parse_point(args.pole, domain, "pole")
        section = off_diagonal(space, xi, w, p)
        ev = section.base
        payload["pole"] = [[c.real, c.imag] for c in w]
        value = section.values(z)
        payload["section_value_at_z"] = [value.real, value.imag]
        payload["pole_identity_residual"] = section.pole_identity_residual()
    elif H is not None:
        ev = higher_kernel_direct(space, H, z, p)
        payload["H"] = str(H)
    else:
        ev = diagonal(space, xi, z, p, args.seed)
    payload["evaluation"] = evaluation_to_dict(ev)
    if args.format == "csv":
        _emit(evaluations_to_csv([ev]), args.out)
    else:
        _emit(_dump_json(payload), args.out)
    return 2 if ev.flags else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    domain = _parse_domain(args.domain)
    n = domain.dimension
    p = _require_p(args)
    xi, H = _target(args, n)
    target = xi if xi is not None else H
    _check_orders(args)
    grid = _parse_a_grid(args.a_grid)
    pole = _parse_point(args.pole, domain, "pole") if args.pole is not None else None
    at_origin = pole is None or not any(pole)
    try:
        if not at_origin:
            if domain != Domain.disk():
                raise ConfigError("pole",
                                  "off-center poles are only supported on the unit disk")
            model = GreenModel.moebius_disk(pole[0])
        else:
            model = GreenModel.balanced(domain)
    except ValueError as exc:
        raise ConfigError("domain" if at_origin else "pole", str(exc)) from exc
    table = sweep(model, target, p, grid, degree=args.degree,
                  radial_order=args.radial_order,
                  angular_order=args.angular_order,
                  seed=args.seed)
    if args.format == "json":
        _emit(_dump_json(table.to_json_dict()), args.out)
    else:
        _emit(table.to_csv(), args.out)
    return 2 if table.flagged else 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite not in SUITES + ("all",):
        raise ConfigError("suite",
                          f"unknown suite {args.suite!r}; pick from "
                          f"{', '.join(SUITES + ('all',))}")
    ctx = VerifyContext(seed=args.seed)
    results = run_suite(args.suite, ctx, budget=args.budget)
    print(format_table(results))
    _emit(_dump_json(results_to_json_dict(results, args.suite, args.seed)), args.out)
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
    swp.add_argument("--a-grid", default=None,
                     help='sublevel heights: "lo:hi:count" or comma list, all <= 0')
    swp.add_argument("--format", choices=("json", "csv"), default="csv")

    ver = subs.add_parser("verify", help="run a verification suite")
    _add_common(ver, with_points=False)
    ver.add_argument("--suite", default="all",
                     help=f"one of {', '.join(SUITES + ('all',))}")
    ver.add_argument("--budget", type=float, default=None,
                     help="soft wall-clock budget in seconds")
    # subcommands parse into a fresh namespace, so config-file defaults have
    # to be installed on the chosen subparser, not just on the root parser
    parser.subcommand_parsers = {"compute": comp, "sweep": swp, "verify": ver}
    return parser


def _load_config_defaults(path: str, sub: argparse.ArgumentParser) -> dict:
    """Flag defaults from a JSON config file; keys must be flags of ``sub``."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config", "expected a JSON object of flag defaults")
    # JSON values bypass argparse, so typed flags are converted here the way
    # argparse converts the same text on the command line
    types = {action.dest: action.type for action in sub._actions
             if action.dest not in ("help", "config")}
    out = {}
    for key, val in raw.items():
        dest = key.replace("-", "_")
        if dest not in types:
            raise ConfigError("config", f"unknown field {key!r} for {sub.prog}")
        if types[dest] is not None:
            try:
                val = types[dest](str(val))
            except ValueError as exc:
                raise ConfigError(key, f"bad value {val!r}") from exc
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
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.config:
            sub = parser.subcommand_parsers[args.command]
            sub.set_defaults(**_load_config_defaults(args.config, sub))
            args = parser.parse_args(argv)
        if args.command == "compute":
            return cmd_compute(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_verify(args)
    except (ConfigError, KernelError, ValueError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
