"""Command-line entry point.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 numerical failure.  Every emitted artifact carries the tool version, the
seed, and a parameter echo sufficient to regenerate it bit-exactly; CSV files
embed a literal rerun command line in their header comments.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shlex
import sys
from typing import TYPE_CHECKING

import numpy as np

import psdbounds  # loads bounds on first access, so hints reach it without an import here

from . import __version__, cones, linalg, widths
from ._rng import check_seed, normal_rows, substream
from .errors import InvalidArgumentError, NumericalFailureError, OracleFailureError, SizeLimitError

if TYPE_CHECKING:
    import psdbounds.bounds

PROG = "psdb"

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

MAX_GRID_STEPS = 100_000  # points of one --grid


def _fmt_float(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return format(x, ".17g")


def _coerce(raw: str):
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def _key_values(items, malformed: str) -> dict:
    """key=value items with numeric coercion; blank items are skipped, and
    one without '=' raises ValueError(malformed.format(item))."""
    params: dict = {}
    for item in items:
        item = item.strip()
        if not item:
            continue
        key, sep, raw = item.partition("=")
        if not sep:
            raise ValueError(malformed.format(item))
        params[key.strip()] = _coerce(raw.strip())
    return params


def parse_params(raw: str | None) -> dict:
    """Parse "k=v[,k=v...]" with numeric coercion."""
    return _key_values(raw.split(",") if raw else [], "malformed parameter {!r}; expected key=value")


def read_config_file(path: str) -> dict:
    """key=value per line; '#' starts a comment."""
    with open(path, "r", encoding="utf-8") as fh:
        return _key_values((line.split("#", 1)[0] for line in fh), "malformed config line {!r}")


def parse_grid(raw: str) -> list[float]:
    """start:stop:steps inclusive linear grid."""
    parts = raw.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:steps, got {raw!r}")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(
            f"--grid needs numbers start:stop and an integer step count, got {raw!r}"
        ) from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"grid ends must be finite, got {raw!r}")
    if steps < 1:
        raise ValueError(f"grid needs at least one step, got {steps}")
    if steps > MAX_GRID_STEPS:  # before the grid is allocated
        raise SizeLimitError(f"grid supports at most {MAX_GRID_STEPS} steps, got {steps}")
    grid = [start] if steps == 1 else list(np.linspace(start, stop, steps))
    if any(b <= a for a, b in zip(grid, grid[1:])):  # before any file is written
        raise ValueError(f"--grid points must be strictly increasing, got {raw!r}")
    return grid


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _command(args: argparse.Namespace) -> str:
    return f"{args.command} {getattr(args, 'action', '')}".strip()


def _check_finite(params: dict) -> None:
    """Reject a NaN or an infinity in the parameter echo, which strict JSON
    cannot carry."""
    for name, value in params.items():
        if isinstance(value, dict):
            _check_finite(value)
        elif isinstance(value, float) and not math.isfinite(value):
            raise InvalidArgumentError(f"parameter {name!r} must be finite, got {value!r}")


def _json_artifact(args: argparse.Namespace, params: dict, payload: dict) -> str:
    _check_finite(params)
    doc = {
        "tool": {"name": PROG, "version": __version__},
        "command": _command(args),
        "params": params,
        "seed": args.seed,
        "rerun": shlex.join([PROG] + args.argv),
    }
    doc.update(payload)
    try:
        return json.dumps(doc, default=_fmt_float, allow_nan=False) + "\n"
    except ValueError as exc:  # the echo is finite, so a computed value is not
        raise NumericalFailureError(f"{_command(args)} computed a non-finite value") from exc


def _csv_header(args: argparse.Namespace) -> str:
    lines = [
        f"# {PROG}={__version__}",
        f"# command={_command(args)}",
        f"# rerun={shlex.join([PROG] + args.argv)}",
    ]
    return "\n".join(lines) + "\n"


def _curve_csv(args: argparse.Namespace, curve: psdbounds.bounds.BoundCurve) -> str:
    rows = [_csv_header(args), "abscissa,value,flag\n"]
    for pt in curve.points:
        rows.append(f"{_fmt_float(pt.abscissa)},{_fmt_float(pt.value)},{pt.flag}\n")
    return "".join(rows)


# -- bounds ---------------------------------------------------------------------


def _run_eval(args: argparse.Namespace, params: dict) -> int:
    from . import bounds
    params["formula"] = args.formula
    _check_finite(params["extra"])
    value = bounds.evaluate(args.formula, params["extra"])
    _emit(_json_artifact(args, params, {"value": value}), args.out)
    return EXIT_OK


def _run_curve(args: argparse.Namespace, params: dict) -> int:
    from . import bounds
    _check_finite(params["extra"])
    curve = bounds.emit_curve(args.formula, parse_grid(args.grid), **params["extra"])
    _emit(_curve_csv(args, curve), args.out)
    return EXIT_OK


# -- widths ----------------------------------------------------------------------


def _make_oracle(kind: str, dim: int | None, extra: dict) -> widths.SupportOracle:
    if kind == "oracle:l2-ball":
        return widths.l2_ball_oracle(dim, extra.get("radius", 1.0))
    if kind == "oracle:l1-ball":
        return widths.l1_ball_oracle(dim, extra.get("radius", 1.0))
    axes_raw = extra.get("axes")  # oracle:ellipsoid
    if axes_raw is None:
        raise ValueError("oracle:ellipsoid needs axes=a:b[:c...] in --params")
    try:
        axes = [float(a) for a in str(axes_raw).split(":")]
    except ValueError:
        raise InvalidArgumentError(
            f"parameter 'axes' must be numbers a:b[:c...], got {axes_raw!r}"
        ) from None
    return widths.ellipsoid_oracle(axes)


# per widths kind: the flags beyond --n and the --params/--config keys it reads
_WIDTH_READS = {
    "base-psd": ((), ()),
    "sparse-dual": (("--k",), ("mode",)),
    "general-dual": (("--k", "--family"), ()),
    "oracle:l2-ball": ((), ("radius",)),
    "oracle:l1-ball": ((), ("radius",)),
    "oracle:ellipsoid": ((), ("axes",)),
}


def _check_keys(reader: str, extra: dict, keys=()) -> None:
    """Reject a --params or --config key that reader, a widths kind, a
    command or a lemma, does not read; every command also takes label,
    which only annotates the echo."""
    for key in extra:
        if key not in keys and key != "label":
            raise InvalidArgumentError(f"{reader} does not read parameter {key!r}")


def _derived_size(kind: str, flag: str, given: int | None, size: int) -> int:
    if given is not None and given != size:
        raise InvalidArgumentError(f"{flag} {given} differs from {size}, the size {kind} derives")
    return size


def _run_widths(args: argparse.Namespace, params: dict) -> int:
    kind, n, k, seed, extra = args.kind, args.n, args.k, args.seed, params["extra"]
    params.update(kind=kind, n=n, k=k, family=args.family, trials=args.trials)
    trials = args.trials
    if trials is None:
        trials = 100_000 if kind.startswith("oracle:") else 2000
    if kind not in _WIDTH_READS:
        raise ValueError(f"unknown kind {kind!r}; expected {', '.join(_WIDTH_READS)}")
    flags, keys = _WIDTH_READS[kind]
    for flag, value in (("--k", k), ("--family", args.family)):
        if value is not None and flag not in flags:
            raise InvalidArgumentError(f"{kind} does not read {flag}")
    _check_keys(kind, extra, keys)
    if n is None and kind in ("base-psd", "sparse-dual", "oracle:l2-ball", "oracle:l1-ball"):
        raise ValueError(f"{kind} needs --n")

    family_size: int | None = None
    if kind == "base-psd":
        estimate = widths.width_base_psd(n, trials, seed, keep_values=False)
    elif kind == "sparse-dual":
        if k is None:
            raise ValueError("sparse-dual needs --k")
        estimate = widths.width_dual_base_sparse(
            n, k, trials, seed, mode=extra.get("mode", "exhaustive"), keep_values=False
        )
    elif kind == "general-dual":
        if not args.family:
            raise ValueError("general-dual needs --family")
        family = cones.read_conefam(args.family)
        family_size = len(family)
        n = _derived_size(kind, "--n", n, family.ambient_dim)
        k = _derived_size(kind, "--k", k, family.rank)
        estimate = widths.width_general_dual(family, trials, seed, keep_values=False)
    else:
        oracle = _make_oracle(kind, n, extra)
        n = _derived_size(kind, "--n", n, oracle.dim)
        estimate = widths.width_via_oracle(oracle, trials, seed, keep_values=False)

    # n, k and N are the sizes the estimate used: ints, or None where the kind has none
    if args.fmt == "csv":
        cells = ["" if v is None else str(v) for v in (kind, n, k, family_size, estimate.trials, seed)]
        row = ",".join(cells + [_fmt_float(estimate.mean), _fmt_float(estimate.std_error)])
        _emit(_csv_header(args) + "kind,n,k,N,trials,seed,mean,std_error\n" + row + "\n", args.out)
    else:
        block = {"kind": kind, "n": n, "k": k, "N": family_size, "mean": estimate.mean,
                 "std_error": estimate.std_error, "trials": estimate.trials}
        _emit(_json_artifact(args, params, {"estimate": block}), args.out)
    return EXIT_OK


# -- cones -----------------------------------------------------------------------


def _run_member(args: argparse.Namespace, params: dict) -> int:
    params.update(
        matrix=args.matrix, sparse_k=args.sparse_k, family=args.family, tol=args.tol,
        refute=args.refute, samples=args.samples
    )
    _check_keys("cones member", params["extra"])
    if (args.sparse_k is None) == (args.family is None):
        raise ValueError("membership needs exactly one of --sparse-k or --family")
    if args.family is not None and args.refute:
        raise InvalidArgumentError("membership in a --family does not read --refute")
    X = linalg.read_symmat(args.matrix)
    if args.family is not None:
        member = cones.general_kpsd_member(X, cones.read_conefam(args.family), args.tol)
        certain = True
    elif args.refute:
        refuted = cones.sparse_kpsd_refute(
            X, args.sparse_k, args.tol, samples=args.samples, seed=args.seed
        )
        member, certain = (not refuted), refuted
    else:
        member = cones.sparse_kpsd_member(X, args.sparse_k, args.tol)
        certain = True
    _emit(_json_artifact(args, params, {"member": member, "certain": certain}), args.out)
    return EXIT_OK


def _run_witness(args: argparse.Namespace, params: dict) -> int:
    params.update(n=args.n, k=args.k, matrix_out=args.matrix_out)
    _check_keys("cones witness", params["extra"])
    trace = cones.witness_trace(args.n, args.k)
    payload = {"value": cones.eps_star_lower_sparse(args.n, args.k), "trace": trace}
    if args.matrix_out:
        linalg.write_symmat(cones.witness_matrix(args.n, args.k), args.matrix_out)
        payload["files"] = [args.matrix_out]
    _emit(_json_artifact(args, params, payload), args.out)
    return EXIT_OK


# -- hypercube verification -------------------------------------------------------


def _verify_harmonic(n, trials, seed, lam):
    from . import hypercube
    return trials, [
        {"trial": t, "seed": seed, "norm2": norm2, "bound": bound}
        for t, norm2, bound in hypercube.harmonic_trials(n, trials, seed, lam)
        if not hypercube.bound_holds(norm2, bound)
    ]


def _verify_hypercontractivity(n, trials, seed, rho, p):
    from . import hypercube
    return trials, [
        {"trial": t, "seed": seed, "rho": rho, "p": p, "lhs": lhs, "rhs": rhs}
        for t, lhs, rhs in hypercube.hypercontractivity_trials(n, trials, seed, rho, p)
        if not hypercube.bound_holds(lhs, rhs)
    ]


def _verify_moments(n):
    from . import hypercube
    failures = []
    mean, second = hypercube.q_poly_moments(n)
    expected = 2 * n * (n - 1)
    if mean != 0 or second != expected:
        failures.append({"n": n, "mean": str(mean), "second": str(second), "expected": expected})
    return 1, failures, {"mean": float(mean), "second_moment": float(second)}


def _verify_variance(n, trials, seed):
    from . import hypercube
    limit = hypercube.MAX_ENUMERATION_BITS
    if n > limit:  # before the 2^n-value tables are drawn
        raise SizeLimitError(f"per-trial enumeration supports n <= {limit}, got {n}")
    failures = []
    draws = normal_rows(seed, 10_000, 10_005, 1 << n)  # five test functions
    for i, values in enumerate(draws):
        f = hypercube.HypercubeFunction(n, values)
        empirical, theoretical = hypercube.variance_identity_check(
            f, trials, (seed + i + 1) % 2**64
        )
        band = 5.0 * math.sqrt(2.0 / trials)  # after the check that trials >= 2
        if theoretical < 1e-15:
            ok = empirical <= 1e-12
        else:
            ok = abs(empirical / theoretical - 1.0) <= band
        if not ok:
            failures.append(
                {
                    "function": i,
                    "seed": seed,
                    "empirical": empirical,
                    "theoretical": theoretical,
                    "band": band,
                }
            )
    return len(draws), failures


def _verify_maximal(trials, seed):
    """Empirical expected maxima against the sub-exponential bound.

    Standard normals have MGF parameters (1, 0); centered chi-square(1)
    variables have (4, 4).  For each N, the Gaussian maxima and then the
    chi-square ones take (trials, N) normals in blocks, in order, from the
    one (seed, N) stream.
    """
    from . import bounds
    failures = []
    checked = 0
    for count in (2, 10, 100):
        rng = substream(seed, count)
        for name, v, c in (("gaussian", 1.0, 0.0), ("chi2", 4.0, 4.0)):

            def kernel(start, stop):
                draws = rng.standard_normal((stop - start, count))
                return (draws if name == "gaussian" else draws**2 - 1.0).max(axis=1)

            checked += 1
            bound = bounds.maximal_bound(v, c, count)
            mean, var = widths._mean_and_var(widths._run_trials(trials, (1 << 16) // count, kernel))
            se = math.sqrt(var) / math.sqrt(trials)
            if mean > bound + 3.0 * se:
                failures.append(
                    {
                        "family": name,
                        "N": count,
                        "seed": seed,
                        "mean": mean,
                        "bound": bound,
                        "std_error": se,
                    }
                )
    return checked, failures


def _run_hypercube(args: argparse.Namespace, params: dict) -> int:
    from . import bounds
    lemma, n, trials, seed, lam = args.lemma, args.n, args.trials, args.seed, args.lam
    extra = params["extra"]
    _check_keys(f"the {lemma} lemma", extra, ("rho", "p") if lemma == "hypercontractivity" else ())
    params.update(lemma=lemma, n=n, trials=trials, lam=lam)
    params.update((key, extra[key]) for key in ("rho", "p") if key in extra)
    extra_payload: dict = {}
    if lemma in ("harmonic", "hypercontractivity", "maximal") and trials < 1:
        raise InvalidArgumentError(f"the {lemma} lemma needs --trials >= 1, got {trials}")

    if lemma == "harmonic":
        checked, failures = _verify_harmonic(n, trials, seed, lam)
    elif lemma == "hypercontractivity":
        rho = float(bounds._number(extra, "rho", 0.5))
        p = float(bounds._number(extra, "p", 2.0))
        checked, failures = _verify_hypercontractivity(n, trials, seed, rho, p)
    elif lemma == "moments":
        checked, failures, extra_payload = _verify_moments(n)
    elif lemma == "variance":
        checked, failures = _verify_variance(n, trials, seed)
    else:
        checked, failures = _verify_maximal(max(trials, 100), seed)

    payload = {"report": {"lemma": lemma, "checked": checked, "failures": failures}}
    payload.update(extra_payload)
    _emit(_json_artifact(args, params, payload), args.out)
    return EXIT_OK if not failures else EXIT_VERIFY


# -- figures -----------------------------------------------------------------------


# name -> (default grid, [(file, formula, fixed params)]); --params reach every
# formula, beneath the fixed params
FIGURES = {
    "sparse-overview": (
        "0.01:0.99:99",
        [("xi.csv", "xi", {}), ("zeta.csv", "zeta", {}), ("psi.csv", "psi", {})],
    ),
    "delta-star": ("0:3:61", [("delta_star.csv", "delta_star", {})]),
    "entropy-bracket": (
        "0:1:101",
        [("entropy.csv", "entropy", {})]
        + [(f"bracket_eps{eps:g}.csv", "bracket", {"eps": eps}) for eps in (0.0, 0.2, 0.5)],
    ),
    "xc-lower": ("1:1991:200", [("thm1.csv", "thm1", {}), ("thm2.csv", "thm2", {})]),
}


def _run_figures(args: argparse.Namespace, params: dict) -> int:
    from . import bounds
    params["name"] = args.name
    _check_finite(params["extra"])  # before any file is written
    default_grid, curves = FIGURES[args.name]
    grid = parse_grid(args.grid or default_grid)
    if args.grid:
        params["grid"] = grid
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for filename, formula, fixed in curves:
        curve = bounds.emit_curve(formula, grid, **{**params["extra"], **fixed})
        path = os.path.join(out_dir, filename)
        _emit(_curve_csv(args, curve), path)
        written.append(path)
    sys.stdout.write(_json_artifact(args, params, {"files": written}))
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, so it reaches the one-line JSON error report."""

    def error(self, message):
        raise InvalidArgumentError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """A fresh `psdb` parser; extending it leaves the one main uses unchanged."""
    parser = _Parser(
        prog=PROG,
        description="PSD-cone approximation toolkit: bounds, widths, membership, hypercube checks",
    )
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def seed(raw: str) -> int:
        value = int(raw)  # argparse reports a ValueError here as an invalid seed value
        try:
            return check_seed(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    def common(p, run, seed_default=None, formats=("json",)):
        p.add_argument("--params", default=None, help="extra parameters k=v[,k=v...]")
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", dest="fmt", choices=formats, default=formats[0])
        p.add_argument("--seed", type=seed, default=seed_default)
        p.set_defaults(run=run)  # a handler's name, looked up when main runs it

    p_bounds = sub.add_parser("bounds", help="closed-form bounds")
    bounds_sub = p_bounds.add_subparsers(dest="action", required=True)
    p_eval = bounds_sub.add_parser("eval", help="evaluate one formula")
    p_eval.add_argument("--formula", required=True)
    common(p_eval, "_run_eval")
    p_curve = bounds_sub.add_parser("curve", help="evaluate a formula on a grid")
    p_curve.add_argument("--formula", required=True)
    p_curve.add_argument("--grid", required=True, help="start:stop:steps")
    common(p_curve, "_run_curve", formats=("csv",))

    p_widths = sub.add_parser("widths", help="Monte Carlo width estimates")
    widths_sub = p_widths.add_subparsers(dest="action", required=True)
    p_est = widths_sub.add_parser("estimate")
    p_est.add_argument("--kind", required=True)
    p_est.add_argument("--n", type=int, default=None)
    p_est.add_argument("--k", type=int, default=None)
    p_est.add_argument("--family", default=None)
    p_est.add_argument(
        "--trials",
        type=int,
        default=None,
        help="default: 2000 for matrix statistics, 100000 for oracle kinds",
    )
    common(p_est, "_run_widths", seed_default=0, formats=("json", "csv"))

    p_cones = sub.add_parser("cones", help="membership and witnesses")
    cones_sub = p_cones.add_subparsers(dest="action", required=True)
    p_member = cones_sub.add_parser("member")
    p_member.add_argument("--matrix", required=True, help="symmat v1 file")
    p_member.add_argument("--sparse-k", dest="sparse_k", type=int, default=None)
    p_member.add_argument("--family", default=None, help="conefam v1 file")
    p_member.add_argument("--tol", type=float, default=None)
    p_member.add_argument("--refute", action="store_true", help="randomized refutation mode")
    p_member.add_argument("--samples", type=int, default=10000)
    common(p_member, "_run_member", seed_default=0)
    p_witness = cones_sub.add_parser("witness")
    p_witness.add_argument("--n", type=int, required=True)
    p_witness.add_argument("--k", type=int, required=True)
    p_witness.add_argument("--matrix-out", dest="matrix_out", default=None)
    common(p_witness, "_run_witness")

    p_hc = sub.add_parser("hypercube", help="lemma verification suites")
    hc_sub = p_hc.add_subparsers(dest="action", required=True)
    p_verify = hc_sub.add_parser("verify")
    p_verify.add_argument(
        "--lemma",
        required=True,
        choices=("harmonic", "hypercontractivity", "moments", "variance", "maximal"),
    )
    p_verify.add_argument("--n", type=int, default=8)
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--lam", type=float, default=math.e)
    common(p_verify, "_run_hypercube", seed_default=0)

    p_fig = sub.add_parser("figures", help="emit figure CSV bundles")
    p_fig.add_argument("--name", required=True, choices=tuple(FIGURES))
    p_fig.add_argument("--grid", default=None, help="start:stop:steps")
    common(p_fig, "_run_figures", formats=("csv",))

    return parser


def _report(kind: str, message: str, code: int) -> int:
    """Write the one JSON error line and return the exit code."""
    sys.stderr.write(json.dumps({"error": {"kind": kind, "message": message}}) + "\n")
    return code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process.  Parsing leaves it as
    built: it holds handler names, not handlers, and no argument appends to
    or shares a mutable default."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser().parse_args(argv)
        args.argv = list(argv)
        extra = read_config_file(args.config) if args.config else {}
        extra.update(parse_params(args.params))
        return globals()[args.run](args, {"extra": extra})
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except NumericalFailureError as exc:
        return _report("numerical", str(exc), EXIT_NUMERICAL)
    except OracleFailureError as exc:
        return _report("oracle", str(exc), EXIT_NUMERICAL)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        return _report("usage", str(exc), EXIT_USAGE)
    except MemoryError as exc:  # a request within the size caps but past the free memory
        return _report("usage", str(exc) or "not enough memory for this request", EXIT_USAGE)


if __name__ == "__main__":
    raise SystemExit(main())
