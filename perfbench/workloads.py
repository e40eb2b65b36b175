"""The benchmark's three workloads: seeded inputs, jobs and known answers.

Every input is made here from the workload seed with numpy's own generator,
never with psdbounds' samplers, so a change to the program cannot change
what it is fed.  The program sees only the generated inputs and the seeds
derived from the workload seed.

A job is one call into the program.  Its output is reduced to a digest (the
bits of each estimate, the membership booleans, or the CLI's stdout and the
files it wrote), and it may carry a known answer that must hold on every
seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import statistics
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from psdbounds import cli, cones, linalg, widths

WORKLOADS = ("widths-mc", "sparse-search", "lemma-cli")


@dataclass
class Job:
    id: str  # stable name; keys the reference digests
    kind: str  # groups jobs for the workload's own metrics
    call: Callable[[], Any]  # the timed call into the program
    canon: Callable[[Any, Any], str]  # canonical text of the output
    check: Callable[[Any], str | None] = lambda result: None  # known answer
    before: Callable[[], Any] = lambda: None  # untimed, feeds canon
    work: float = 0.0  # trials or checks, for rates


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, int.from_bytes(tag.encode(), "little")])


def _program_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**63))


def _estimate_canon(est, state=None) -> str:
    return f"{float(est.mean).hex()} {float(est.std_error).hex()} {est.trials}"


def _bool_canon(value, state=None) -> str:
    return repr(bool(value))


def _orthonormal(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.sign(np.diag(r))


def _perturbed_witness(rng: np.random.Generator, n: int, k: int, ridge: float = 0.0) -> np.ndarray:
    """c * W(n, k) + c * ridge / n * I + v v^T with |v|^2 = c / (2 n (k-1)).

    W is the spiked witness: every k-subset block is PSD and singular, every
    (k+1)-subset block has eigenvalue -1/(n(k-1)) along the all-ones vector.
    The rank-one term keeps k-blocks PSD and leaves that eigenvalue below
    -c/(2n(k-1)), so the matrix is a sparse-k member and not a sparse-(k+1)
    member; a positive ridge makes every k-block strictly positive definite.
    """
    c = float(rng.uniform(0.5, 2.0))
    a = (k - n) / (n * (k - 1))
    b = k / (n * (k - 1))
    ones = np.full((n, n), 1.0 / n)
    W = a * ones + b * (np.eye(n) - ones)
    v = rng.standard_normal(n)
    v *= np.sqrt(c / (2.0 * n * (k - 1))) / np.linalg.norm(v)
    return c * W + (c * ridge / n) * np.eye(n) + np.outer(v, v)


def _gaussian_with_negative_diagonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Symmetric Gaussian (diagonal N(0,1), off-diagonal N(0,1/2)) redrawn
    until some diagonal entry is below -1e-6, which makes it a non-member of
    every sparse relaxation."""
    while True:
        A = rng.standard_normal((n, n))
        G = (A + A.T) / 2.0
        if np.diag(G).min() < -1e-6:
            return G


def _sym(dense: np.ndarray) -> linalg.SymmetricMatrix:
    return linalg.SymmetricMatrix.from_dense(dense)


# -- widths-mc -------------------------------------------------------------------

WIDTHS_SIZES = {
    "full": {"base8": 2000, "base50": 1000, "general": 300, "oracle": 10**6},
    "tiny": {"base8": 20, "base50": 50, "general": 8, "oracle": 10**5},
}
FAMILY_SIZES = (1, 10, 100)  # criterion 5's family sizes, n=16 and k=4
ELLIPSE_RATIO = 1.0 + 0.54196  # criterion 2: width of the (2,1) ellipse over the disc


def _check_base50(est) -> str | None:
    scaled = est.mean / np.sqrt(2 * 50)
    if not 0.85 <= scaled <= 1.00:
        return f"width_base_psd(50) mean / sqrt(100) = {scaled} outside [0.85, 1.00]"
    return None


def _check_ellipse(pair) -> str | None:
    ratio = pair[1].mean / pair[0].mean
    if abs(ratio - ELLIPSE_RATIO) > 0.01:
        return f"ellipse/disc width ratio {ratio} not within 0.01 of {ELLIPSE_RATIO}"
    return None


def build_widths_mc(seed: int, size: str, workdir: str) -> list[Job]:
    sz = WIDTHS_SIZES[size]
    rng = _rng(seed, "widths-mc")
    s8, s50, s_oracle = (_program_seed(rng) for _ in range(3))
    jobs = [
        Job("base_psd_n8", "base_psd_n8",
            lambda: widths.width_base_psd(8, sz["base8"], s8, keep_values=False),
            _estimate_canon, work=sz["base8"]),
        Job("base_psd_n50", "base_psd_n50",
            lambda: widths.width_base_psd(50, sz["base50"], s50, keep_values=False),
            _estimate_canon, _check_base50, work=sz["base50"]),
    ]
    for count in FAMILY_SIZES:
        family = cones.ConeFamily(
            16, tuple(cones.SubspaceBasis(16, 4, _orthonormal(rng, 16, 4)) for _ in range(count))
        )
        s = _program_seed(rng)
        jobs.append(
            Job(f"general_dual_N{count}", "general_dual",
                lambda family=family, s=s: widths.width_general_dual(
                    family, sz["general"], s, keep_values=False),
                _estimate_canon, work=sz["general"])
        )
    disc, ellipse = widths.l2_ball_oracle(2), widths.ellipsoid_oracle([2.0, 1.0])
    jobs.append(
        Job("oracle_disc_ellipse", "oracle",
            lambda: (widths.width_via_oracle(disc, sz["oracle"], s_oracle, keep_values=False),
                     widths.width_via_oracle(ellipse, sz["oracle"], s_oracle, keep_values=False)),
            lambda pair, state=None: " ".join(_estimate_canon(e) for e in pair),
            _check_ellipse, work=2 * sz["oracle"])
    )
    return jobs


# -- sparse-search ---------------------------------------------------------------

SPARSE_SIZES = {
    "full": {
        "exh": 30, "greedy": 20, "refute": 5000,
        "shapes": ((14, 4), (14, 8), (15, 6), (16, 5), (16, 7), (18, 4), (20, 4), (22, 4)),
    },
    "tiny": {"exh": 2, "greedy": 2, "refute": 50, "shapes": ((14, 4), (14, 8))},
}


def _expect(value: bool):
    def check(result) -> str | None:
        return None if bool(result) == value else f"expected {value}, got {bool(result)}"

    return check


def build_sparse_search(seed: int, size: str, workdir: str) -> list[Job]:
    sz = SPARSE_SIZES[size]
    rng = _rng(seed, "sparse-search")
    s_exh, s_greedy, s_refute = (_program_seed(rng) for _ in range(3))
    jobs = [
        Job("sparse_exhaustive_n14_k5", "sparse_exh",
            lambda: widths.width_dual_base_sparse(14, 5, sz["exh"], s_exh, keep_values=False),
            _estimate_canon, work=sz["exh"]),
        Job("sparse_greedy_n20_k4", "sparse_greedy",
            lambda: widths.width_dual_base_sparse(
                20, 4, sz["greedy"], s_greedy, mode="greedy", keep_values=False),
            _estimate_canon, work=sz["greedy"]),
    ]
    for n, k in sz["shapes"]:
        witness = _sym(_perturbed_witness(rng, n, k))
        ridged = _sym(_perturbed_witness(rng, n, k, ridge=0.01))
        gauss = _sym(_gaussian_with_negative_diagonal(rng, n))
        queries = (
            ("witness", witness, k, None, True),  # screen passes every subset
            ("witness_k1", witness, k + 1, None, False),  # screen rejects every subset
            ("gaussian", gauss, k, None, False),
            ("tol0", ridged, k, 0.0, True),  # screen skipped
        )
        for case, X, kk, tol, expected in queries:
            jobs.append(
                Job(f"member_{case}_n{n}_k{kk}", "member",
                    lambda X=X, kk=kk, tol=tol: cones.sparse_kpsd_member(X, kk, tol),
                    _bool_canon, _expect(expected))
            )
    member40 = _sym(_perturbed_witness(rng, 40, 8))
    gauss40 = _sym(_gaussian_with_negative_diagonal(rng, 40))
    for case, X, expected in (("member", member40, False), ("gaussian", gauss40, True)):
        jobs.append(
            Job(f"refute_{case}_n40_k8", "refute",
                lambda X=X: cones.sparse_kpsd_refute(X, 8, samples=sz["refute"], seed=s_refute),
                _bool_canon, _expect(expected), work=sz["refute"])
        )
    return jobs


# -- lemma-cli -------------------------------------------------------------------

LEMMA_SIZES = {
    # The README's variance command has --trials 10000, one 9 s job.  At 2000
    # trials a 30 s run holds about thirteen passes instead of three, and the
    # calibration between jobs can follow the machine's speed.
    "full": {"variance": 2000, "harmonic": 500, "samples": 10000},
    "tiny": {"variance": 200, "harmonic": 20, "samples": 200},
}
HYPERCONTRACTIVITY_TRIALS = 200  # the CLI default


def _write_symmat(path: str, dense: np.ndarray) -> None:
    n = dense.shape[0]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{n}\n")
        for i in range(n):
            fh.write(" ".join(format(v, ".17g") for v in dense[i, i:]) + "\n")


def _write_conefam(path: str, bases: list[np.ndarray]) -> None:
    n, k = bases[0].shape
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{n} {k} {len(bases)}\n")
        for basis in bases:
            for row in basis:
                fh.write(" ".join(format(v, ".17g") for v in row) + "\n")


def _snapshot(root: str) -> dict[str, tuple[int, int]]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            out[os.path.relpath(path, root)] = (st.st_mtime_ns, st.st_size)
    return out


def _cli_job(index: int, command: str, workdir: str, check, work: float = 0.0) -> Job:
    argv = shlex.split(command)

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def canon(result, before) -> str:
        code, stdout, _ = result
        parts = [f"exit {code}\n{stdout}"]
        after = _snapshot(workdir)
        for rel in sorted(p for p, stamp in after.items() if before.get(p) != stamp):
            with open(os.path.join(workdir, rel), encoding="utf-8") as fh:
                parts.append(f"== {rel}\n{fh.read()}")
        return "\n".join(parts).replace(os.path.abspath(workdir), "<tmp>")

    label = "_".join(a.lstrip("-") for a in argv[:2])
    if "--lemma" in argv:
        label += "_" + argv[argv.index("--lemma") + 1]
    return Job(f"cli_{index:02d}_{label}", "cli", call, canon, check,
               before=lambda: _snapshot(workdir), work=work)


def _exit_zero(result) -> str | None:
    code, _, err = result
    return None if code == 0 else f"exit code {code}: {err.strip()}"


def _member_payload(member: bool, certain: bool):
    def check(result) -> str | None:
        problem = _exit_zero(result)
        if problem:
            return problem
        doc = json.loads(result[1])
        if (doc["member"], doc["certain"]) != (member, certain):
            return f"expected member={member} certain={certain}, got {doc['member']} {doc['certain']}"
        return None

    return check


def build_lemma_cli(seed: int, size: str, workdir: str) -> list[Job]:
    """Every README command except `widths estimate`, plus the
    hypercontractivity suite, run through cli.main inside the inputs
    directory.  Seeded commands get seeds derived from the workload seed."""
    sz = LEMMA_SIZES[size]
    rng = _rng(seed, "lemma-cli")
    _write_conefam(os.path.join(workdir, "family.conefam"),
                   [_orthonormal(rng, 10, 3) for _ in range(20)])
    _write_symmat(os.path.join(workdir, "big.symmat"), _perturbed_witness(rng, 40, 11))
    s_refute, s_harmonic, s_variance, s_hyper = (_program_seed(rng) for _ in range(4))
    commands = [
        ("bounds eval --formula delta_star --params eps=0", _exit_zero, 0),
        ("bounds eval --formula thm1 --params n=1000000,k=1,eps=0", _exit_zero, 0),
        ("bounds curve --formula psi --grid 0.01:0.99:99 --out psi.csv", _exit_zero, 0),
        ("cones witness --n 10 --k 2 --matrix-out w.symmat", _exit_zero, 0),
        ("cones member --matrix w.symmat --sparse-k 2", _member_payload(True, True), 0),
        ("cones member --matrix w.symmat --family family.conefam", _exit_zero, 0),
        (f"cones member --matrix big.symmat --sparse-k 11 --refute --samples {sz['samples']} "
         f"--seed {s_refute}", _member_payload(True, False), 0),
        ("hypercube verify --lemma moments --n 6", _exit_zero, 0),
        (f"hypercube verify --lemma harmonic --n 8 --trials {sz['harmonic']} --seed {s_harmonic} "
         "--lam 10", _exit_zero, sz["harmonic"]),
        (f"hypercube verify --lemma variance --n 8 --trials {sz['variance']} --seed {s_variance}",
         _exit_zero, 0),
        (f"hypercube verify --lemma hypercontractivity --seed {s_hyper}", _exit_zero,
         HYPERCONTRACTIVITY_TRIALS),
        ("figures --name sparse-overview --out figs/", _exit_zero, 0),
        ("figures --name delta-star --out figs/", _exit_zero, 0),
        ("figures --name entropy-bracket --out figs/", _exit_zero, 0),
        ("figures --name xc-lower --out figs/ --params n=1000000,eps=0", _exit_zero, 0),
    ]
    return [_cli_job(i, cmd, workdir, check, work) for i, (cmd, check, work) in enumerate(commands)]


BUILDERS = {
    "widths-mc": build_widths_mc,
    "sparse-search": build_sparse_search,
    "lemma-cli": build_lemma_cli,
}


# -- the workloads' own metrics ------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """Highest percentile with at least ten samples beyond it: (value,
    percentile, sample count), or None below eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def workload_metrics(name: str, jobs: list[Job], passes: list[dict[str, float]]) -> dict:
    """Metrics of one workload from the job latencies of its untraced passes."""
    by_kind: dict[str, list[Job]] = {}
    for job in jobs:
        by_kind.setdefault(job.kind, []).append(job)

    def rate(kind: str, select=lambda job: True) -> float:
        chosen = [j for j in by_kind[kind] if select(j)]
        work = sum(j.work for j in chosen)
        return work / statistics.median(sum(p[j.id] for j in chosen) for p in passes)

    def pooled(kind: str) -> list[float]:
        return [p[j.id] for p in passes for j in by_kind[kind]]

    out: dict[str, tuple[float, str]] = {}
    if name == "widths-mc":
        out["base_psd_n8_trials_per_s"] = (rate("base_psd_n8"), "1/s")
        out["base_psd_n50_trials_per_s"] = (rate("base_psd_n50"), "1/s")
        out["general_dual_trials_per_s"] = (rate("general_dual"), "1/s")
        out["oracle_trials_per_s"] = (rate("oracle"), "1/s")
    elif name == "sparse-search":
        out["sparse_exh_trials_per_s"] = (rate("sparse_exh"), "1/s")
        out["sparse_greedy_trials_per_s"] = (rate("sparse_greedy"), "1/s")
        latencies = pooled("member")
        out["member_p50_ms"] = (1e3 * statistics.median(latencies), "ms")
        found = tail(latencies)
        if found:
            value, pct, count = found
            out["member_tail_ms"] = (1e3 * value, "ms")
            out["member_tail_percentile"] = (pct, "%")
            out["member_samples"] = (float(count), "count")
    else:
        out["cli_p50_ms"] = (1e3 * statistics.median(pooled("cli")), "ms")
        variance = [j for j in jobs if j.id.endswith("_variance")]
        out["verify_variance_s"] = (statistics.median(p[variance[0].id] for p in passes), "s")
        out["verify_fourier_checks_per_s"] = (rate("cli", lambda j: j.work > 0), "1/s")
    return out
