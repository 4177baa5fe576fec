"""Command-line driver.

Subcommands: eval-spherical, eval-polya, eval-mixture, orbital, heat-kernel,
laplacian-check, sweep, validate.

Conventions (stable contract):
* --format json prints one JSON object per run on a single line with sorted
  keys; --format csv prints the documented columns, header first.  Without
  --format, validate prints its pass/fail table and every other command
  prints JSON.  --out writes the same bytes to a file instead of stdout.
* --config FILE supplies defaults from a flat JSON object keyed by flag
  names (dashes or underscores); explicit flags win, and values must be
  among the flag's choices.
* sweep and validate take --seed (default 0) and --samples; identical argv
  (plus config) gives byte-identical output, independent of thread count.
* Exit codes: 0 success, 1 usage or schema problem, 2 numeric/domain
  problem (including failed checks).  Every failure prints a single-line
  JSON object {"error": kind, "message": text} on stderr.
"""

from __future__ import annotations

import argparse
import csv
import importlib
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

# Names that load their submodule on first access (PEP 562), so a command
# compiles only the modules it calls into.  Commands read them through
# _here, the running module (``__main__`` under ``python -m``): a name
# patched onto this module is the one called.
_LAZY = {
    "sph": "spherical",
    "polya_eval": "polya",
    "phi_omega": "polya",
    "mixture_eval": "polya",
    "powersum_convergence": "limits",
    "spherical_convergence": "limits",
    "weyl_concentration_sweep": "limits",
    "validate_all": "validate",
}
_here = sys.modules[__name__]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + _LAZY[name], __package__)
    value = module if name == "sph" else getattr(module, name)
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


def _number(value) -> float:
    # float() takes JSON true/false from a config file as 1.0/0.0
    if isinstance(value, bool):
        raise TypeError("a boolean is not a number")
    return float(value)


def _floats(value, flag: str) -> tuple[float, ...]:
    if value is None:
        raise _UsageError(f"missing required value for {flag}")
    if isinstance(value, (list, tuple)):
        items = list(value)
    else:
        items = [p for p in str(value).split(",") if p.strip() != ""]
    try:
        out = tuple(_number(v) for v in items)
    except (TypeError, ValueError):
        raise _UsageError(f"{flag} expects a comma-separated list of numbers")
    if not out:
        raise _UsageError(f"{flag} must contain at least one number")
    return out


def _ints(value, flag: str) -> tuple[int, ...]:
    vals = _floats(value, flag)
    if not all(v.is_integer() for v in vals):  # False for fractions, inf and nan
        raise _UsageError(f"{flag} expects integers")
    return tuple(int(v) for v in vals)


def _float(value, flag: str) -> float:
    if value is None:
        raise _UsageError(f"missing required value for {flag}")
    try:
        return _number(value)
    except (TypeError, ValueError):
        raise _UsageError(f"{flag} expects a number")


def _require(value, flag: str):
    if value is None:
        raise _UsageError(f"missing required value for {flag}")
    return value


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


def _emit(args, payload, rows, table: str | None = None) -> None:
    """Write one result in the requested format: a single sorted-key JSON
    line, CSV ``rows`` (header first), or ``table`` when the command has one
    and no --format was given."""
    if args.format == "csv":
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


# allowed values by option; the config file is held to them as well
_CHOICES = {
    "format": ["json", "csv"],
    "path": ["auto", "det", "series"],
    "kind": ["spherical", "powersum", "weyl"],
    "method": ["series", "mc"],
    "suite": ["special", "symfunc", "spherical", "polya", "mc", "limits", "all"],
}


def _add_common(sp, samples_default=None):
    sp.add_argument("--format", choices=_CHOICES["format"], default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--config", default=None)
    if samples_default:  # only the sampling commands; the others reject both flags
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--samples", type=int, default=None)
        sp.set_defaults(_samples_default=samples_default)


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
    sp.add_argument("--path", choices=_CHOICES["path"], default=None)
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
    sp.add_argument("--path", choices=_CHOICES["path"], default=None)
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
    sp.add_argument("--fd-step", dest="fd_step", default=None)
    sp.add_argument("--tol", default=None)
    _add_common(sp)

    sp = sub.add_parser("sweep", help="finite-size to limit comparison")
    sp.add_argument("--kind", choices=_CHOICES["kind"], default=None)
    sp.add_argument("--omega", default=None)
    sp.add_argument("--xi", default=None)
    sp.add_argument("--m", default=None)
    sp.add_argument("--n-list", dest="n_list", default=None)
    sp.add_argument("--method", choices=_CHOICES["method"], default=None)
    _add_common(sp, samples_default=100_000)

    sp = sub.add_parser("validate", help="built-in consistency suite")
    sp.add_argument("--suite", choices=_CHOICES["suite"], default=None)
    _add_common(sp, samples_default=1000)

    return p


def _merge_config(args: argparse.Namespace) -> None:
    if not args.config:
        return
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
    known = vars(args)
    for key, value in cfg.items():
        dest = str(key).replace("-", "_")
        if dest in ("command", "config") or dest not in known:
            raise _UsageError(f"unknown config field {key!r}")
        if dest in _CHOICES and value not in _CHOICES[dest]:
            raise _UsageError(f"config field {key!r} must be one of {_CHOICES[dest]}")
        if known[dest] is None:
            setattr(args, dest, value)


def _int(value, flag: str) -> int:
    # argparse ints pass exactly (seeds use 64 bits); config values are checked
    if type(value) is int:
        return value
    return _ints([value], flag)[0]


def _seed(args) -> int:
    return 0 if args.seed is None else _int(args.seed, "--seed")


def _samples(args) -> int:
    value = args._samples_default if args.samples is None else args.samples
    return _int(value, "--samples")


def _emit_eval_result(args, result) -> None:
    fields = ("value", "abs_error", "terms_used", "path")
    values = [getattr(result, f) for f in fields]
    _emit(args, dict(zip(fields, values)), [fields, values])


def _cmd_eval_spherical(args) -> int:
    x = _floats(args.x, "--x")
    xi = _floats(args.xi, "--xi")
    path = args.path or "auto"
    _emit_eval_result(args, _here.sph.spherical_eval(x, xi, path=path))
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
    path = args.path or "auto"
    _emit_eval_result(args, _here.sph.orbital_integral(lam, theta, path=path))
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
    fd_step = 2e-3 if args.fd_step is None else _float(args.fd_step, "--fd-step")
    tol = 1e-3 if args.tol is None else _float(args.tol, "--tol")
    if not 0.0 < tol < math.inf:  # False for nan as well
        raise DomainError("tol must be positive and finite")
    lap, eigen = _here.sph._eigen_identity(x, xi, fd_step)
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
    n_list = _ints(args.n_list, "--n-list")
    if kind == "spherical":
        omega = OmegaParam.from_file(_require(args.omega, "--omega"))
        u = _float(args.xi, "--xi")
        method = args.method or "series"
        report = _here.spherical_convergence(
            omega, u, n_list, method=method, n_samples=_samples(args), seed=_seed(args)
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

    suite = args.suite or "all"
    names = None if suite == "all" else [suite]
    results = _here.validate_all(names, samples=_samples(args), seed=_seed(args))
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _merge_config(args)
        return _COMMANDS[args.command](args)
    except tuple(_FAILURES) as exc:
        kind, code = next(v for t, v in _FAILURES.items() if isinstance(exc, t))
        _print_error(kind, exc)
        return code


if __name__ == "__main__":
    sys.exit(main())
