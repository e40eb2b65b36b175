"""Command-line entry point.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 numerical failure.  Every emitted artifact carries the tool version, the
seed, and a parameter echo sufficient to regenerate it bit-exactly; CSV files
embed a literal rerun command line in their header comments.
"""

from __future__ import annotations

import argparse
import json
import math
import shlex
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, bounds, cones, hypercube, linalg, widths
from ._rng import substream
from .errors import InvalidArgumentError, NumericalFailureError, OracleFailureError

PROG = "psdb"

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


@dataclass
class RunConfig:
    command: str
    action: str
    params: dict
    seed: int | None = None
    out: str | None = None
    fmt: str = "json"
    argv: list[str] = field(default_factory=list)


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


def parse_params(raw: str | None) -> dict:
    """Parse "k=v[,k=v...]" with numeric coercion."""
    params: dict = {}
    if not raw:
        return params
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"malformed parameter {item!r}; expected key=value")
        key, raw = item.split("=", 1)
        params[key.strip()] = _coerce(raw.strip())
    return params


def read_config_file(path: str) -> dict:
    """key=value per line; '#' starts a comment."""
    params: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line {line!r}")
            key, raw = line.split("=", 1)
            params[key.strip()] = _coerce(raw.strip())
    return params


def parse_grid(raw: str) -> list[float]:
    """start:stop:steps inclusive linear grid."""
    parts = raw.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:steps, got {raw!r}")
    start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"grid ends must be finite, got {raw!r}")
    if steps < 1:
        raise ValueError(f"grid needs at least one step, got {steps}")
    if steps == 1:
        return [start]
    return list(np.linspace(start, stop, steps))


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_artifact(config: RunConfig, payload: dict) -> str:
    doc = {
        "tool": {"name": PROG, "version": __version__},
        "command": f"{config.command} {config.action}".strip(),
        "params": config.params,
        "seed": config.seed,
        "rerun": shlex.join([PROG] + config.argv),
    }
    doc.update(payload)
    return json.dumps(doc, default=_fmt_float) + "\n"


def _csv_header(config: RunConfig) -> str:
    lines = [
        f"# {PROG}={__version__}",
        f"# command={config.command} {config.action}".rstrip(),
        f"# rerun={shlex.join([PROG] + config.argv)}",
    ]
    return "\n".join(lines) + "\n"


def _curve_csv(config: RunConfig, curve: bounds.BoundCurve) -> str:
    rows = [_csv_header(config), "abscissa,value,flag\n"]
    for pt in curve.points:
        rows.append(f"{_fmt_float(pt.abscissa)},{_fmt_float(pt.value)},{pt.flag}\n")
    return "".join(rows)


# -- bounds ---------------------------------------------------------------------


def _run_bounds(config: RunConfig) -> int:
    formula, extra = config.params["formula"], config.params["extra"]
    if config.action == "eval":
        _emit(_json_artifact(config, {"value": bounds.evaluate(formula, extra)}), config.out)
    else:
        curve = bounds.emit_curve(formula, config.params["grid"], **extra)
        _emit(_curve_csv(config, curve), config.out)
    return EXIT_OK


# -- widths ----------------------------------------------------------------------


def _make_oracle(name: str, dim: int | None, extra: dict) -> widths.SupportOracle:
    if name == "l2-ball":
        return widths.l2_ball_oracle(dim, bounds._number(extra, "radius", 1.0))
    if name == "l1-ball":
        return widths.l1_ball_oracle(dim, bounds._number(extra, "radius", 1.0))
    if name == "ellipsoid":
        axes_raw = extra.get("axes")
        if axes_raw is None:
            raise ValueError("oracle:ellipsoid needs axes=a:b[:c...] in --params")
        axes = [float(a) for a in str(axes_raw).split(":")]
        return widths.ellipsoid_oracle(axes)
    raise ValueError(f"unknown oracle {name!r}; expected l2-ball, l1-ball, or ellipsoid")


def _run_widths(config: RunConfig) -> int:
    kind = config.params["kind"]
    n = config.params.get("n")
    k = config.params.get("k")
    trials = config.params["trials"]
    if trials is None:
        trials = 100_000 if kind.startswith("oracle:") else 2000
    seed = config.seed if config.seed is not None else 0
    extra = config.params["extra"]
    family_path = config.params.get("family")
    family_size: int | None = None
    if n is None and kind in ("base-psd", "sparse-dual", "oracle:l2-ball", "oracle:l1-ball"):
        raise ValueError(f"{kind} needs --n")

    if kind == "base-psd":
        estimate = widths.width_base_psd(n, trials, seed, keep_values=False)
    elif kind == "sparse-dual":
        if k is None:
            raise ValueError("sparse-dual needs --k")
        estimate = widths.width_dual_base_sparse(
            n, k, trials, seed, mode=extra.get("mode", "exhaustive"), keep_values=False
        )
    elif kind == "general-dual":
        if not family_path:
            raise ValueError("general-dual needs --family")
        family = cones.read_conefam(family_path)
        family_size = len(family)
        n, k = family.ambient_dim, family.rank
        estimate = widths.width_general_dual(family, trials, seed, keep_values=False)
    elif kind.startswith("oracle:"):
        oracle = _make_oracle(kind.split(":", 1)[1], n, extra)
        n = oracle.dim
        estimate = widths.width_via_oracle(oracle, trials, seed, keep_values=False)
    else:
        raise ValueError(f"unknown kind {kind!r}")

    if config.fmt == "csv":
        text = _csv_header(config) + "kind,n,k,N,trials,seed,mean,std_error\n"
        text += ",".join(
            [
                kind,
                str(int(n)) if n is not None else "",
                str(int(k)) if k is not None else "",
                str(family_size) if family_size is not None else "",
                str(estimate.trials),
                str(seed),
                _fmt_float(estimate.mean),
                _fmt_float(estimate.std_error),
            ]
        ) + "\n"
        _emit(text, config.out)
    else:
        payload = {
            "estimate": {
                "kind": kind,
                "n": None if n is None else int(n),
                "k": None if k is None else int(k),
                "N": family_size,
                "mean": estimate.mean,
                "std_error": estimate.std_error,
                "trials": estimate.trials,
            }
        }
        _emit(_json_artifact(config, payload), config.out)
    return EXIT_OK


# -- cones -----------------------------------------------------------------------


def _run_cones(config: RunConfig) -> int:
    extra = dict(config.params.get("extra", {}))
    if config.action == "member":
        X = linalg.read_symmat(config.params["matrix"])
        tol = config.params.get("tol")
        sparse_k = config.params.get("sparse_k")
        family_path = config.params.get("family")
        if (sparse_k is None) == (family_path is None):
            raise ValueError("membership needs exactly one of --sparse-k or --family")
        if family_path is not None:
            member = cones.general_kpsd_member(X, cones.read_conefam(family_path), tol)
            certain = True
        elif config.params.get("refute"):
            refuted = cones.sparse_kpsd_refute(
                X,
                int(sparse_k),
                tol,
                samples=int(config.params.get("samples", 10000)),
                seed=config.seed if config.seed is not None else 0,
            )
            member, certain = (not refuted), refuted
        else:
            member = cones.sparse_kpsd_member(X, int(sparse_k), tol)
            certain = True
        _emit(_json_artifact(config, {"member": member, "certain": certain}), config.out)
        return EXIT_OK

    n, k = int(config.params["n"]), int(config.params["k"])
    W = cones.witness_matrix(n, k)
    payload = {
        "value": cones.eps_star_lower_sparse(n, k),
        "trace": W.trace(),
    }
    if config.params.get("matrix_out"):
        linalg.write_symmat(W, config.params["matrix_out"])
        payload["files"] = [config.params["matrix_out"]]
    _emit(_json_artifact(config, payload), config.out)
    return EXIT_OK


# -- hypercube verification -------------------------------------------------------


def _trial_stacks(n, trials, seed, width):
    """(first trial, rows) for each chunk of trials: row i holds the first
    width standard normals of trial (first + i)'s (seed, trial) substream,
    drawn as that trial alone would draw them."""
    step = hypercube._chunk_trials(n)
    rng = None
    for first in range(0, trials, step):
        rows = np.empty((min(step, trials - first), width))
        for t, row in enumerate(rows, first):
            rng = substream(seed, t, into=rng)
            rng.standard_normal(out=row)
        yield first, rows


def _harmonic_trials(n, trials, seed, lam):
    """(trial, norm2, bound) for every trial, computed a chunk at a time."""
    hypercube._check_n(n)
    hypercube._check_threshold(lam)
    for first, draws in _trial_stacks(n, trials, seed, hypercube._low_degree_count(n)):
        norms, bound = hypercube._harmonic_sides(hypercube._bounded_values(draws, n, lam), lam)
        for t, norm2 in enumerate(norms.tolist(), first):
            yield t, norm2, bound


def _verify_harmonic(n, trials, seed, lam):
    failures = [
        {"trial": t, "seed": seed, "norm2": norm2, "bound": bound}
        for t, norm2, bound in _harmonic_trials(n, trials, seed, lam)
        if not norm2 <= bound + 1e-12
    ]
    return trials, failures


def _hypercontractivity_trials(n, trials, seed, rho, p):
    """(trial, lhs, rhs) for every trial, computed a chunk at a time."""
    hypercube._check_n(n)
    for first, values in _trial_stacks(n, trials, seed, 1 << n):
        lhs, rhs = hypercube._hypercontractivity_sides(values, rho, p)
        yield from zip(range(first, first + len(lhs)), lhs, rhs)


def _verify_hypercontractivity(n, trials, seed, rho, p):
    failures = [
        {"trial": t, "seed": seed, "rho": rho, "p": p, "lhs": lhs, "rhs": rhs}
        for t, lhs, rhs in _hypercontractivity_trials(n, trials, seed, rho, p)
        if not lhs <= rhs + 1e-12
    ]
    return trials, failures


def _verify_moments(n):
    failures = []
    mean, second = hypercube.q_poly_moments(n)
    expected = 2 * n * (n - 1)
    if mean != 0 or second != expected:
        failures.append({"n": n, "mean": str(mean), "second": str(second), "expected": expected})
    return 1, failures, {"mean": float(mean), "second_moment": float(second)}


def _verify_variance(n, trials, seed, functions=5):
    failures = []
    for i in range(functions):
        values = substream(seed, 10_000 + i).standard_normal(1 << n)
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
    return functions, failures


def _verify_maximal(trials, seed):
    """Empirical expected maxima against the sub-exponential bound.

    Standard normals have MGF parameters (1, 0); centered chi-square(1)
    variables have (4, 4).
    """
    failures = []
    checked = 0
    for count in (2, 10, 100):
        rng = substream(seed, count)
        gauss = rng.standard_normal((trials, count)).max(axis=1)
        chi = rng.standard_normal((trials, count)) ** 2 - 1.0
        chi = chi.max(axis=1)
        for name, sample, v, c in (("gaussian", gauss, 1.0, 0.0), ("chi2", chi, 4.0, 4.0)):
            checked += 1
            bound = bounds.maximal_bound(v, c, count)
            mean = float(sample.mean())
            se = float(sample.std(ddof=1) / math.sqrt(trials))
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


def _run_hypercube(config: RunConfig) -> int:
    lemma = config.params["lemma"]
    n = int(config.params.get("n", 8))
    trials = int(config.params.get("trials", 200))
    seed = config.seed if config.seed is not None else 0
    lam = float(config.params.get("lam", math.e))
    extra_payload: dict = {}
    if lemma in ("harmonic", "hypercontractivity", "maximal") and trials < 1:
        raise InvalidArgumentError(f"the {lemma} lemma needs --trials >= 1, got {trials}")

    if lemma == "harmonic":
        checked, failures = _verify_harmonic(n, trials, seed, lam)
    elif lemma == "hypercontractivity":
        rho = float(config.params.get("rho", 0.5))
        p = float(config.params.get("p", 2.0))
        checked, failures = _verify_hypercontractivity(n, trials, seed, rho, p)
    elif lemma == "moments":
        checked, failures, extra_payload = _verify_moments(n)
    elif lemma == "variance":
        checked, failures = _verify_variance(n, trials, seed)
    else:
        checked, failures = _verify_maximal(max(trials, 100), seed)

    payload = {"report": {"lemma": lemma, "checked": checked, "failures": failures}}
    payload.update(extra_payload)
    _emit(_json_artifact(config, payload), config.out)
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


def _run_figures(config: RunConfig) -> int:
    import os

    default_grid, curves = FIGURES[config.params["name"]]
    grid = config.params.get("grid") or parse_grid(default_grid)
    extra = config.params["extra"]
    out_dir = config.out or "."
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for filename, formula, fixed in curves:
        curve = bounds.emit_curve(formula, grid, **{**extra, **fixed})
        path = os.path.join(out_dir, filename)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_curve_csv(config, curve))
        written.append(path)
    sys.stdout.write(_json_artifact(config, {"files": written}))
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, so it reaches the one-line JSON error report."""

    def error(self, message):
        raise InvalidArgumentError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=PROG,
        description="PSD-cone approximation toolkit: bounds, widths, membership, hypercube checks",
    )
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_default=None, formats=("json",)):
        p.add_argument("--params", default=None, help="extra parameters k=v[,k=v...]")
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", dest="fmt", choices=formats, default=formats[0])
        p.add_argument("--seed", type=int, default=seed_default)

    p_bounds = sub.add_parser("bounds", help="closed-form bounds")
    bounds_sub = p_bounds.add_subparsers(dest="action", required=True)
    p_eval = bounds_sub.add_parser("eval", help="evaluate one formula")
    p_eval.add_argument("--formula", required=True)
    common(p_eval)
    p_curve = bounds_sub.add_parser("curve", help="evaluate a formula on a grid")
    p_curve.add_argument("--formula", required=True)
    p_curve.add_argument("--grid", required=True, help="start:stop:steps")
    common(p_curve, formats=("csv",))

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
    common(p_est, seed_default=0, formats=("json", "csv"))

    p_cones = sub.add_parser("cones", help="membership and witnesses")
    cones_sub = p_cones.add_subparsers(dest="action", required=True)
    p_member = cones_sub.add_parser("member")
    p_member.add_argument("--matrix", required=True, help="symmat v1 file")
    p_member.add_argument("--sparse-k", dest="sparse_k", type=int, default=None)
    p_member.add_argument("--family", default=None, help="conefam v1 file")
    p_member.add_argument("--tol", type=float, default=None)
    p_member.add_argument("--refute", action="store_true", help="randomized refutation mode")
    p_member.add_argument("--samples", type=int, default=10000)
    common(p_member, seed_default=0)
    p_witness = cones_sub.add_parser("witness")
    p_witness.add_argument("--n", type=int, required=True)
    p_witness.add_argument("--k", type=int, required=True)
    p_witness.add_argument("--matrix-out", dest="matrix_out", default=None)
    common(p_witness)

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
    common(p_verify, seed_default=0)

    p_fig = sub.add_parser("figures", help="emit figure CSV bundles")
    p_fig.add_argument("--name", required=True, choices=tuple(FIGURES))
    p_fig.add_argument("--grid", default=None, help="start:stop:steps")
    common(p_fig, formats=("csv",))

    return parser


def config_from_args(args: argparse.Namespace, argv: list[str]) -> RunConfig:
    extra = {}
    if args.config:
        extra.update(read_config_file(args.config))
    extra.update(parse_params(args.params))

    params: dict = {"extra": extra}
    command = args.command
    action = getattr(args, "action", "")

    if command == "bounds":
        params["formula"] = args.formula
        if action == "curve":
            params["grid"] = parse_grid(args.grid)
    elif command == "widths":
        params.update(
            kind=args.kind, n=args.n, k=args.k, family=args.family, trials=args.trials
        )
    elif command == "cones":
        if action == "member":
            params.update(
                matrix=args.matrix,
                sparse_k=args.sparse_k,
                family=args.family,
                tol=args.tol,
                refute=args.refute,
                samples=args.samples,
            )
        else:
            params.update(n=args.n, k=args.k, matrix_out=args.matrix_out)
    elif command == "hypercube":
        params.update(lemma=args.lemma, n=args.n, trials=args.trials, lam=args.lam)
        for key in ("rho", "p"):
            if key in extra:
                params[key] = extra[key]
    elif command == "figures":
        params["name"] = args.name
        if args.grid:
            params["grid"] = parse_grid(args.grid)

    return RunConfig(
        command=command,
        action=action,
        params=params,
        seed=args.seed,
        out=args.out,
        fmt=args.fmt,
        argv=argv,
    )


_DISPATCH = {
    "bounds": _run_bounds,
    "widths": _run_widths,
    "cones": _run_cones,
    "hypercube": _run_hypercube,
    "figures": _run_figures,
}


def run(config: RunConfig) -> int:
    return _DISPATCH[config.command](config)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(argv)
        return run(config_from_args(args, list(argv)))
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except NumericalFailureError as exc:
        sys.stderr.write(json.dumps({"error": {"kind": "numerical", "message": str(exc)}}) + "\n")
        return EXIT_NUMERICAL
    except OracleFailureError as exc:
        sys.stderr.write(json.dumps({"error": {"kind": "oracle", "message": str(exc)}}) + "\n")
        return EXIT_NUMERICAL
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        sys.stderr.write(json.dumps({"error": {"kind": "usage", "message": str(exc)}}) + "\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
