"""Command-line driver.

Subcommands: eval-spherical, eval-polya, eval-mixture, orbital, heat-kernel,
laplacian-check, sweep, validate.

Conventions (stable contract):
* --format json prints one JSON object per run on a single line with sorted
  keys; --format csv prints the documented columns, header first.  Without
  --format, validate prints its pass/fail table and every other command
  prints JSON.  --out writes the same bytes to a file instead of stdout.
* --config FILE supplies defaults from a flat JSON object keyed by flag
  names (dashes or underscores); explicit flags win, and config values are
  parsed as the flags' command-line text: each key becomes one
  --flag=value token ahead of the real flags (a list joined by commas,
  null left out), so one set of checks serves both.
* sweep and validate take --seed (default 0) and --samples; identical argv
  (plus config) gives byte-identical output, independent of thread count.
* Exit codes: 0 success, 1 usage or schema problem, 2 numeric/domain
  problem (including failed checks).  Every failure prints a single-line
  JSON object {"error": kind, "message": text} on stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from pathlib import Path

from .errors import (
    ConvergenceError,
    DegeneracyError,
    DomainError,
    RangeError,
    ShapeError,
    SphericaError,
    ValidationError,
)

# The package's public names and sph (its spherical module) load on first
# access (PEP 562), so a command compiles only the modules it calls into.
# Commands read them through _here, the running module (``__main__`` under
# ``python -m``): a name patched onto this module is the one called.
_here = sys.modules[__name__]


def __getattr__(name):
    package = sys.modules[__package__]
    if name != "sph" and name not in package._ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(package, "spherical" if name == "sph" else name)
    globals()[name] = value
    return value


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1 with a machine-parsable reason
    def error(self, message):
        _print_error("usage", message)
        raise SystemExit(1)


def _print_error(kind: str, message) -> None:
    line = json.dumps({"error": kind, "message": str(message)}, sort_keys=True)
    print(line, file=sys.stderr)


def _require(value, flag: str):
    if value is None:
        raise _UsageError(f"missing required value for {flag}")
    return value


def _floats(value, flag: str) -> tuple[float, ...]:
    items = [p for p in _require(value, flag).split(",") if p.strip() != ""]
    try:
        out = tuple(float(v) for v in items)
    except ValueError:
        raise _UsageError(f"{flag} expects a comma-separated list of numbers")
    if not out:
        raise _UsageError(f"{flag} must contain at least one number")
    return out


def _ints(vals: tuple[float, ...] | list[float], flag: str) -> tuple[int, ...]:
    if not all(v.is_integer() for v in vals):  # False for fractions, inf and nan
        raise _UsageError(f"{flag} expects integers")
    return tuple(int(v) for v in vals)


def _float(value, flag: str) -> float:
    try:
        return float(_require(value, flag))
    except ValueError:
        raise _UsageError(f"{flag} expects a number")


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


def _emit(args, payload, rows, table: str | None = None) -> None:
    """Write one result in the requested format: a single sorted-key JSON
    line, CSV ``rows`` (header first), or ``table`` when the command has one
    and no --format was given."""
    if args.format == "csv":
        import csv

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [_cell(v) for v in row] for row in rows
        )
        text = buf.getvalue()
    elif args.format is None and table is not None:
        text = table
    else:
        text = json.dumps(payload, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _add_common(sp, samples_default=None):
    sp.add_argument("--format", choices=["json", "csv"], default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--config", default=None)
    if samples_default:  # only the sampling commands; the others reject both flags
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--samples", type=int, default=samples_default)


def build_parser() -> _Parser:
    p = _Parser(
        prog="spherica",
        description="Spherical-function evaluations, limit sweeps, and "
        "self-validation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval-spherical", help="spherical function at (x, xi)")
    sp.add_argument("--x", default=None)
    sp.add_argument("--xi", default=None)
    sp.add_argument("--path", choices=["auto", "det", "series"], default="auto")
    _add_common(sp)

    sp = sub.add_parser("eval-polya", help="pointwise values and product")
    sp.add_argument("--omega", default=None)
    sp.add_argument("--lam", default=None)
    _add_common(sp)

    sp = sub.add_parser("eval-mixture", help="mixture of products")
    sp.add_argument("--mixture", default=None)
    sp.add_argument("--lam", default=None)
    _add_common(sp)

    sp = sub.add_parser("orbital", help="exponential orbital integral")
    sp.add_argument("--lam", default=None)
    sp.add_argument("--theta", default=None)
    sp.add_argument("--path", choices=["auto", "det", "series"], default="auto")
    _add_common(sp)

    sp = sub.add_parser("heat-kernel", help="radial heat kernel value")
    sp.add_argument("--t", default=None)
    sp.add_argument("--lam", default=None)
    sp.add_argument("--theta", default=None)
    _add_common(sp)

    sp = sub.add_parser(
        "laplacian-check",
        help="finite-difference eigenvalue identity for the radial Laplacian",
    )
    sp.add_argument("--x", default=None)
    sp.add_argument("--xi", default=None)
    sp.add_argument("--fd-step", dest="fd_step", type=float, default=2e-3)
    sp.add_argument("--tol", type=float, default=1e-3)
    _add_common(sp)

    sp = sub.add_parser("sweep", help="finite-size to limit comparison")
    sp.add_argument("--kind", choices=["spherical", "powersum", "weyl"], default=None)
    sp.add_argument("--omega", default=None)
    sp.add_argument("--xi", default=None)
    sp.add_argument("--m", default=None)
    sp.add_argument("--n-list", dest="n_list", default=None)
    sp.add_argument("--method", choices=["series", "mc"], default="series")
    _add_common(sp, samples_default=100_000)

    sp = sub.add_parser("validate", help="built-in consistency suite")
    suites = ["special", "symfunc", "spherical", "polya", "mc", "limits", "all"]
    sp.add_argument("--suite", choices=suites, default="all")
    _add_common(sp, samples_default=1000)

    return p


def _config_tokens(args: argparse.Namespace) -> list[str]:
    """The --config file as --flag=value tokens; the = form keeps a value
    such as -1,2 from reading as a flag."""
    try:
        raw = Path(args.config).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}")
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ValidationError("config file must hold a JSON object")
    tokens = []
    for key, value in cfg.items():
        dest = str(key).replace("-", "_")
        if dest in ("command", "config") or dest not in vars(args):
            raise _UsageError(f"unknown config field {key!r}")
        if value is None:
            continue
        if isinstance(value, list):
            value = ",".join(json.dumps(v) for v in value)
        elif not isinstance(value, str):
            value = json.dumps(value)
        tokens.append(f"--{dest.replace('_', '-')}={value}")
    return tokens


def _emit_eval_result(args, result) -> None:
    fields = ("value", "abs_error", "terms_used", "path")
    values = [getattr(result, f) for f in fields]
    _emit(args, dict(zip(fields, values)), [fields, values])


def _cmd_eval_spherical(args) -> int:
    x = _floats(args.x, "--x")
    xi = _floats(args.xi, "--xi")
    _emit_eval_result(args, _here.sph.spherical_eval(x, xi, path=args.path))
    return 0


def _cmd_eval_polya(args) -> int:
    from .polya import OmegaParam

    omega = OmegaParam.from_file(_require(args.omega, "--omega"))
    lam = _floats(args.lam, "--lam")
    pi_values = [_here.polya_eval(omega, v) for v in lam]
    product = _here.phi_omega(omega, lam)
    rows = [("key", "value")]
    rows += [(f"lambda_{i}", v) for i, v in enumerate(lam)]
    rows += [(f"pi_{i}", v) for i, v in enumerate(pi_values)]
    rows.append(("phi_product", product))
    payload = {"lambda": list(lam), "pi_values": pi_values, "phi_product": product}
    _emit(args, payload, rows)
    return 0


def _cmd_eval_mixture(args) -> int:
    from .polya import MixtureParam

    mix = MixtureParam.from_file(_require(args.mixture, "--mixture"))
    lam = _floats(args.lam, "--lam")
    comps = [
        {"weight": w, "value": _here.phi_omega(om, lam)} for w, om in mix.components
    ]
    value = _here.mixture_eval(mix, lam)
    rows = [("key", "value")]
    rows += [(f"component_{i}_weight", c["weight"]) for i, c in enumerate(comps)]
    rows += [(f"component_{i}_value", c["value"]) for i, c in enumerate(comps)]
    rows.append(("value", value))
    payload = {"lambda": list(lam), "value": value, "components": comps}
    _emit(args, payload, rows)
    return 0


def _cmd_orbital(args) -> int:
    lam = _floats(args.lam, "--lam")
    theta = _floats(args.theta, "--theta")
    _emit_eval_result(args, _here.sph.orbital_integral(lam, theta, path=args.path))
    return 0


def _cmd_heat_kernel(args) -> int:
    t = _float(args.t, "--t")
    lam = _floats(args.lam, "--lam")
    theta = _floats(args.theta, "--theta")
    value = _here.sph.heat_kernel(t, lam, theta)
    _emit(args, {"value": value}, [["value"], [value]])
    return 0


def _cmd_laplacian_check(args) -> int:
    x = _floats(args.x, "--x")
    xi = _floats(args.xi, "--xi")
    tol = args.tol
    if not 0.0 < tol < math.inf:  # False for nan as well
        raise DomainError("tol must be positive and finite")
    lap, eigen = _here.sph._eigen_identity(x, xi, args.fd_step)
    rel = abs(lap - eigen) / max(1.0, abs(eigen))
    passed = rel <= tol
    payload = {
        "laplacian_value": lap,
        "eigen_value": eigen,
        "rel_error": rel,
        "tol": tol,
        "passed": passed,
    }
    _emit(args, payload, [("key", "value"), *sorted(payload.items())])
    if not passed:
        _print_error("check_failed", f"rel_error {rel:.9e} exceeds tol {tol:.9e}")
        return 2
    return 0


def _cmd_sweep(args) -> int:
    from .polya import OmegaParam

    kind = _require(args.kind, "--kind")
    n_list = _ints(_floats(args.n_list, "--n-list"), "--n-list")
    if kind == "spherical":
        omega = OmegaParam.from_file(_require(args.omega, "--omega"))
        u = _float(args.xi, "--xi")
        report = _here.spherical_convergence(
            omega, u, n_list, method=args.method, n_samples=args.samples, seed=args.seed
        )
    elif kind == "powersum":
        omega = OmegaParam.from_file(_require(args.omega, "--omega"))
        (m,) = _ints([_float(args.m, "--m")], "--m")
        report = _here.powersum_convergence(omega, m, n_list)
    else:
        (m,) = _ints([_float(args.m, "--m")], "--m")
        report = _here.weyl_concentration_sweep(m, n_list)
    std_errors = report.std_errors or (None,) * len(report.n_values)
    rows = [["n", "value", "limit", "abs_error", "std_error"]]
    rows += [
        [n, v, report.limit_value, e, se]
        for n, v, e, se in zip(report.n_values, report.values, report.abs_errors, std_errors)
    ]
    _emit(args, report.to_json(), rows)
    return 0


def _cmd_validate(args) -> int:
    from .validate import render_report

    names = None if args.suite == "all" else [args.suite]
    results = _here.validate_all(names, samples=args.samples, seed=args.seed)
    payload = {
        "results": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "passed": sum(r.passed for r in results),
        "total": len(results),
    }
    rows = [["name", "passed", "detail"]]
    rows += [[r.name, str(r.passed).lower(), r.detail] for r in results]
    _emit(args, payload, rows, table=render_report(results))
    failed = [r for r in results if not r.passed]
    if failed:
        _print_error(
            "checks_failed", f"{len(failed)} of {len(results)} checks failed"
        )
        return 2
    return 0


_COMMANDS = {
    "eval-spherical": _cmd_eval_spherical,
    "eval-polya": _cmd_eval_polya,
    "eval-mixture": _cmd_eval_mixture,
    "orbital": _cmd_orbital,
    "heat-kernel": _cmd_heat_kernel,
    "laplacian-check": _cmd_laplacian_check,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
}


# (error kind, exit code) by exception type; the first match wins, so
# subclasses come before their bases
_FAILURES = {
    ValidationError: ("schema", 1),
    _UsageError: ("usage", 1),
    DegeneracyError: ("degeneracy", 2),
    ShapeError: ("shape", 2),
    RangeError: ("range", 2),
    ConvergenceError: ("convergence", 2),
    DomainError: ("domain", 2),
    SphericaError: ("error", 2),
    OSError: ("io", 1),
    ValueError: ("usage", 1),
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # argparse keeps a flag's last value: the real flags win
            args = parser.parse_args(argv[:1] + _config_tokens(args) + argv[1:])
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except tuple(_FAILURES) as exc:
        kind, code = next(v for t, v in _FAILURES.items() if isinstance(exc, t))
        _print_error(kind, exc)
        return code


if __name__ == "__main__":
    sys.exit(main())
