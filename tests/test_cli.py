import contextlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import typing
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psdbounds import bounds, cli, hypercube, widths
from psdbounds.bounds import FORMULAS
from psdbounds.cones import coordinate_family, write_conefam, witness_matrix
from psdbounds.errors import SizeLimitError
from psdbounds.linalg import SymmetricMatrix, write_symmat

from _oracles import (
    nan_identity,
    reference_maximal_moments,
    reference_harmonic_trial,
    reference_hypercontractivity_trial,
)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def schema():
    import importlib.resources as resources

    with resources.files("psdbounds").joinpath("schema/output.schema.json").open() as fh:
        return json.load(fh)


def check_schema(doc, schema):
    import jsonschema

    jsonschema.validate(doc, schema)


class TestBoundsEval:
    def test_delta_star(self, capsys, schema):
        code, out, _ = run_cli(
            ["bounds", "eval", "--formula", "delta_star", "--params", "eps=0"], capsys
        )
        assert code == 0
        doc = last_json(out)
        check_schema(doc, schema)
        assert abs(doc["value"] - 0.137) <= 0.001

    def test_named_scalar_formulas(self, capsys):
        for formula, params, expected in (
            ("zeta", "delta=0.2", 4.0),
            ("binary_entropy", "p=0.5", math.log(2)),
            ("cubic_root", "p=-3,q=2", 2.0),
            ("maximal", "v=1,c=1,N=3", max(math.sqrt(2 * math.log(3)), 2 * math.log(3))),
        ):
            code, out, _ = run_cli(
                ["bounds", "eval", "--formula", formula, "--params", params], capsys
            )
            assert code == 0
            assert abs(last_json(out)["value"] - expected) < 1e-9

    @pytest.mark.parametrize("delta", ["1e-310", "1e-315"])
    def test_sparse_integral_at_a_subnormal_delta(self, delta, capsys):
        # the normal quantile at delta/2 once overflowed and exited 3
        argv = ["bounds", "eval", "--formula", "sparse_integral", "--params", f"delta={delta}"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert 0.0 < last_json(out)["value"] < 1e-300

    def test_domain_error_exit_code_and_reason(self, capsys):
        code, _, err = run_cli(
            ["bounds", "eval", "--formula", "zeta", "--params", "delta=0"], capsys
        )
        assert code == 2
        reason = json.loads(err.strip())
        assert reason["error"]["kind"] == "usage"

    def test_sparse_integral_where_one_minus_half_delta_rounds_to_one(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "eval", "--formula", "sparse_integral", "--params", "delta=1e-20"], capsys
        )
        assert code == 0 and 0.0 < last_json(out)["value"] < 1e-17

    def test_unknown_formula(self, capsys):
        code, _, err = run_cli(["bounds", "eval", "--formula", "nope"], capsys)
        assert code == 2

    def test_config_file_with_params_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta=0.5\n# comment line\n")
        code, out, _ = run_cli(
            ["bounds", "eval", "--formula", "zeta", "--config", str(cfg)], capsys
        )
        assert code == 0 and last_json(out)["value"] == 1.0
        code, out, _ = run_cli(
            [
                "bounds",
                "eval",
                "--formula",
                "zeta",
                "--config",
                str(cfg),
                "--params",
                "delta=0.2",
            ],
            capsys,
        )
        assert code == 0 and last_json(out)["value"] == 4.0


class TestBoundsCurve:
    def test_curve_csv_layout(self, tmp_path, capsys):
        out = tmp_path / "psi.csv"
        code, _, _ = run_cli(
            ["bounds", "curve", "--formula", "psi", "--grid", "0.1:0.9:9", "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert any(ln.startswith("# rerun=") for ln in header)
        assert data[0] == "abscissa,value,flag"
        assert len(data) == 10
        values = [float(row.split(",")[1]) for row in data[1:]]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_inf_flag_in_csv(self, tmp_path, capsys):
        out = tmp_path / "zeta.csv"
        run_cli(
            ["bounds", "curve", "--formula", "zeta", "--grid", "0:1:3", "--out", str(out)],
            capsys,
        )
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert rows[1].endswith(",inf") and rows[1].split(",")[1] == "inf"

    def test_out_of_range_grid_point_is_flagged_not_fatal(self, capsys):
        code, out, _ = run_cli(["bounds", "curve", "--formula", "thm1", "--grid", "0:10:3"], capsys)
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines() if not ln.startswith("#")][1:]
        assert [row[2] for row in rows] == ["domain", "ok", "ok"]
        assert rows[0][1] == "nan"


class TestIntegerParameters:
    """n, k and N are integers: a finite non-integral value once ran at its
    truncation while the echo and the rerun line kept the value given."""

    @pytest.mark.parametrize(
        "formula, params, name",
        [("phi", "n=10,k=3.5", "k"), ("thm1", "n=1000000.5,k=3", "n"),
         ("thm2", "k=2.5", "k"), ("maximal", "v=1,c=0,N=2.9", "N")],
    )
    def test_eval_exits_2_naming_the_parameter(self, formula, params, name, capsys):
        code, out, err = run_cli(["bounds", "eval", "--formula", formula, "--params", params], capsys)
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        error = json.loads(line)["error"]
        assert error["kind"] == "usage" and f"parameter {name!r} must be an integer" in error["message"]

    def test_integral_floats_are_accepted(self, capsys):
        code, out, _ = run_cli(["bounds", "eval", "--formula", "phi", "--params", "n=1e1,k=3.0"], capsys)
        code_int, out_int, _ = run_cli(["bounds", "eval", "--formula", "phi", "--params", "n=10,k=3"], capsys)
        assert code == code_int == 0
        assert last_json(out)["value"] == last_json(out_int)["value"]

    def test_curve_flags_non_integral_points(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "curve", "--formula", "thm1", "--grid", "1.5:3:4", "--params", "n=10"], capsys
        )
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines() if not ln.startswith("#")][1:]
        assert [row[2] for row in rows] == ["domain", "ok", "domain", "ok"]

    def test_curve_with_a_non_integral_fixed_parameter_exits_2(self, tmp_path, capsys):
        dest = tmp_path / "n.csv"
        argv = ["bounds", "curve", "--formula", "thm1", "--grid", "1:3:3", "--params", "n=10.5",
                "--out", str(dest)]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert "parameter 'n' must be an integer" in json.loads(err)["error"]["message"]
        assert not dest.exists()


class TestWidthsEstimate:
    def test_base_psd_scalar_mean_near_zero(self, capsys, schema):
        code, out, _ = run_cli(
            [
                "widths", "estimate", "--kind", "base-psd", "--n", "1",
                "--trials", "1000", "--seed", "7",
            ],
            capsys,
        )
        assert code == 0
        doc = last_json(out)
        check_schema(doc, schema)
        est = doc["estimate"]
        assert abs(est["mean"]) <= 3 * est["std_error"]

    def test_csv_reproduces_bit_exactly(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        argv = [
            "widths", "estimate", "--kind", "base-psd", "--n", "5",
            "--trials", "64", "--seed", "11", "--format", "csv", "--out", str(out),
        ]
        assert cli.main(argv) == 0
        capsys.readouterr()
        first = out.read_bytes()
        rerun_line = next(
            ln for ln in first.decode().splitlines() if ln.startswith("# rerun=")
        )
        import shlex

        rerun_argv = shlex.split(rerun_line.removeprefix("# rerun="))[1:]
        assert cli.main(rerun_argv) == 0
        capsys.readouterr()
        assert out.read_bytes() == first

    def test_sparse_dual_and_family_kinds_agree(self, tmp_path, capsys):
        fam_path = tmp_path / "coord.conefam"
        write_conefam(coordinate_family(6, 2), fam_path)
        code, out, _ = run_cli(
            [
                "widths", "estimate", "--kind", "sparse-dual", "--n", "6", "--k", "2",
                "--trials", "50", "--seed", "3",
            ],
            capsys,
        )
        sparse = last_json(out)["estimate"]
        code, out, _ = run_cli(
            [
                "widths", "estimate", "--kind", "general-dual", "--family", str(fam_path),
                "--trials", "50", "--seed", "3",
            ],
            capsys,
        )
        general = last_json(out)["estimate"]
        assert general["N"] == 15
        assert abs(sparse["mean"] - general["mean"]) < 1e-9

    def test_oracle_kind(self, capsys):
        code, out, _ = run_cli(
            [
                "widths", "estimate", "--kind", "oracle:l2-ball", "--n", "9",
                "--trials", "20000", "--seed", "5",
            ],
            capsys,
        )
        assert code == 0
        assert 2.85 <= last_json(out)["estimate"]["mean"] <= 2.98

    def test_missing_k_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["widths", "estimate", "--kind", "sparse-dual", "--n", "6", "--trials", "10"],
            capsys,
        )
        assert code == 2


class TestThreadCountReproducibility:
    """Seeded artifacts are the same bytes with one worker and with two."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["widths", "estimate", "--kind", "base-psd", "--n", "6", "--trials", "200"],
            ["widths", "estimate", "--kind", "sparse-dual", "--n", "8", "--k", "3", "--trials", "150"],
            ["widths", "estimate", "--kind", "general-dual", "--family", "family.conefam",
             "--trials", "200"],
            # three blocks of 32,768 directions, the last one partly filled
            ["widths", "estimate", "--kind", "oracle:ellipsoid", "--params", "axes=2:1",
             "--trials", "70000"],
            ["widths", "estimate", "--kind", "oracle:l2-ball", "--n", "3000", "--trials", "100"],
        ],
        ids=["base-psd", "sparse-dual", "general-dual", "oracle-ellipse", "oracle-l2-d3000"],
    )
    def test_one_and_two_threads_write_the_same_bytes(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_conefam(coordinate_family(8, 3), "family.conefam")
        runs = []
        for threads in (1, 2):
            monkeypatch.setattr(widths, "thread_count", lambda: threads)
            run = []
            for extra in [[], ["--format", "csv"]]:
                # the same relative path on both sides, so rerun lines agree
                assert cli.main([*argv, "--seed", "7", *extra]) == 0
                assert cli.main([*argv, "--seed", "7", *extra, "--out", "artifact"]) == 0
                with open("artifact", "rb") as fh:
                    run.append((capsys.readouterr().out, fh.read()))
            runs.append(run)
        assert runs[0] == runs[1]
        assert all(stdout and written for stdout, written in runs[0])


GOLDEN = Path(__file__).resolve().parent / "golden"
_GOLDEN_RUNS = {
    "base-psd": ["--kind", "base-psd", "--n", "4", "--trials", "50", "--seed", "3"],
    "sparse-dual": ["--kind", "sparse-dual", "--n", "6", "--k", "3", "--trials", "20",
                    "--seed", "5", "--params", "mode=greedy"],
    "general-dual": ["--kind", "general-dual", "--family", "fam.conefam", "--trials", "30",
                     "--seed", "2"],
    "oracle-ellipsoid": ["--kind", "oracle:ellipsoid", "--trials", "200", "--seed", "4",
                         "--params", "axes=1:2:3"],
}
_GOLDEN_CASES = {
    **{f"{name}.{fmt}": [*flags, "--format", fmt]
       for name, flags in _GOLDEN_RUNS.items() for fmt in ("json", "csv")},
    # the config file sets radius=1 and label=x; --params overrides radius
    "config-merge.json": ["--kind", "oracle:l2-ball", "--n", "3", "--trials", "100", "--seed",
                          "1", "--config", "run.cfg", "--params", "radius=2.5"],
}


class TestWidthsGoldenOutput:
    """`widths estimate` writes the recorded stdout bytes under tests/golden,
    parameter echo and rerun line included; paths are relative, so the bytes
    do not depend on the directory the test runs in."""

    @pytest.mark.parametrize("name", sorted(_GOLDEN_CASES))
    def test_stdout_bytes(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_conefam(coordinate_family(5, 2), "fam.conefam")
        (tmp_path / "run.cfg").write_text("radius=1\nlabel=x\n")
        code, out, err = run_cli(["widths", "estimate", *_GOLDEN_CASES[name]], capsys)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / name).read_text()


class TestConesCommands:
    def test_member_roundtrip_through_files(self, tmp_path, capsys, schema):
        w_path = tmp_path / "w.symmat"
        write_symmat(witness_matrix(6, 3), w_path)
        code, out, _ = run_cli(
            ["cones", "member", "--matrix", str(w_path), "--sparse-k", "3"], capsys
        )
        doc = last_json(out)
        check_schema(doc, schema)
        assert code == 0 and doc["member"] is True and doc["certain"] is True
        code, out, _ = run_cli(
            ["cones", "member", "--matrix", str(w_path), "--sparse-k", "4"], capsys
        )
        assert last_json(out)["member"] is False

    def test_member_with_family_file(self, tmp_path, capsys):
        w_path = tmp_path / "w.symmat"
        write_symmat(witness_matrix(6, 3), w_path)
        fam_path = tmp_path / "fam.conefam"
        write_conefam(coordinate_family(6, 3), fam_path)
        code, out, _ = run_cli(
            ["cones", "member", "--matrix", str(w_path), "--family", str(fam_path)], capsys
        )
        assert code == 0 and last_json(out)["member"] is True

    def test_member_requires_exactly_one_mode(self, tmp_path, capsys):
        w_path = tmp_path / "w.symmat"
        write_symmat(witness_matrix(6, 3), w_path)
        code, _, _ = run_cli(["cones", "member", "--matrix", str(w_path)], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "flags, needle",
        [(["--sparse-k", "2", "--family", "f.conefam"], "exactly one of --sparse-k or --family"),
         (["--family", "f.conefam", "--refute"], "does not read --refute")],
        ids=["both-modes", "family-refute"],
    )
    def test_flag_conflict_is_reported_before_the_matrix_is_read(self, flags, needle, tmp_path, capsys):
        argv = ["cones", "member", "--matrix", str(tmp_path / "missing.symmat"), *flags]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        assert needle in json.loads(line)["error"]["message"]

    def test_cap_exceeded_suggests_refutation(self, tmp_path, capsys):
        w_path = tmp_path / "big.symmat"
        write_symmat(witness_matrix(40, 10), w_path)
        code, _, err = run_cli(
            ["cones", "member", "--matrix", str(w_path), "--sparse-k", "11"], capsys
        )
        assert code == 2
        assert "refut" in json.loads(err.strip())["error"]["message"]
        code, out, _ = run_cli(
            [
                "cones", "member", "--matrix", str(w_path), "--sparse-k", "11",
                "--refute", "--samples", "20", "--seed", "1",
            ],
            capsys,
        )
        doc = last_json(out)
        assert code == 0 and doc["member"] is False and doc["certain"] is True

    def test_witness_emits_matrix_and_separation(self, tmp_path, capsys):
        m_path = tmp_path / "w10.symmat"
        code, out, _ = run_cli(
            ["cones", "witness", "--n", "10", "--k", "2", "--matrix-out", str(m_path)],
            capsys,
        )
        doc = last_json(out)
        assert code == 0 and doc["value"] == 8.0
        from psdbounds.linalg import read_symmat

        W = read_symmat(m_path)
        assert abs(W.trace() - 1.0) < 1e-12
        assert doc["trace"] == W.trace()

    def test_witness_without_matrix_out_builds_no_matrix(self, capsys, monkeypatch):
        from psdbounds import cones

        trace = cones.witness_matrix(2048, 3).trace()
        monkeypatch.setattr(cones, "g_abn", lambda *args: pytest.fail("built the dense witness"))
        code, out, _ = run_cli(["cones", "witness", "--n", "2048", "--k", "3"], capsys)
        doc = last_json(out)
        assert code == 0 and doc["trace"] == trace and doc["value"] == 2045 / 2


class TestHypercubeVerify:
    def test_moments_reports_exact_values(self, capsys, schema):
        code, out, _ = run_cli(["hypercube", "verify", "--lemma", "moments", "--n", "6"], capsys)
        doc = last_json(out)
        check_schema(doc, schema)
        assert code == 0
        assert doc["mean"] == 0.0 and doc["second_moment"] == 60.0

    @pytest.mark.parametrize("lemma", ["harmonic", "hypercontractivity"])
    def test_property_lemmas_pass(self, lemma, capsys):
        code, out, _ = run_cli(
            [
                "hypercube", "verify", "--lemma", lemma, "--n", "6",
                "--trials", "50", "--seed", "3",
            ],
            capsys,
        )
        assert code == 0
        assert last_json(out)["report"]["failures"] == []

    def test_harmonic_at_a_lam_past_the_float_range_writes_no_warning(self):
        # lam 2^4 overflows the generator's plain mean, which once printed a
        # RuntimeWarning and checked all-zero functions
        proc = subprocess.run(
            [sys.executable, "-m", "psdbounds.cli", "hypercube", "verify", "--lemma", "harmonic",
             "--n", "4", "--trials", "3", "--lam", "1e308"],
            capture_output=True, text=True, timeout=60, check=False,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        report = json.loads(proc.stdout)["report"]
        assert report["checked"] == 3 and report["failures"] == []

    def test_seeded_variance_run_repeats_its_bytes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["hypercube", "verify", "--lemma", "variance", "--n", "5", "--trials", "600",
                "--seed", "7"]
        runs = []
        for _ in range(2):
            # the same relative path on both runs, so rerun lines agree
            assert cli.main(argv) == 0
            assert cli.main([*argv, "--out", "artifact"]) == 0
            runs.append((capsys.readouterr().out, Path("artifact").read_bytes()))
        assert runs[0] == runs[1] and all(runs[0])

    def test_variance_lemma_passes(self, capsys):
        code, out, _ = run_cli(
            [
                "hypercube", "verify", "--lemma", "variance", "--n", "6",
                "--trials", "2000", "--seed", "3",
            ],
            capsys,
        )
        assert code == 0

    def test_maximal_lemma_passes(self, capsys):
        code, out, _ = run_cli(
            ["hypercube", "verify", "--lemma", "maximal", "--trials", "4000", "--seed", "5"],
            capsys,
        )
        assert code == 0

    @pytest.mark.parametrize("trials", [100, 655, 656, 5000])
    def test_maximal_moments_equal_whole_array_draws(self, trials, capsys, monkeypatch):
        # a bound below every mean writes each sample's moments; 655 trials
        # fill one block of the N = 100 draws
        monkeypatch.setattr(bounds, "maximal_bound", lambda v, c, count: -1e300)
        argv = ["hypercube", "verify", "--lemma", "maximal", "--trials", str(trials), "--seed", "3"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 1
        want = [
            {"family": name, "N": count, "seed": 3, "mean": mean, "bound": -1e300, "std_error": se}
            for name, count, mean, se in reference_maximal_moments(trials, 3)
        ]
        assert json.dumps(last_json(out)["report"]["failures"]) == json.dumps(want)

    def test_failures_exit_one_with_counterexamples(self, capsys, monkeypatch):
        bundle = {"trial": 3, "seed": 9, "lhs": 2.0, "rhs": 1.0}
        monkeypatch.setattr(cli, "_verify_harmonic", lambda *a: (10, [bundle]))
        code, out, _ = run_cli(["hypercube", "verify", "--lemma", "harmonic"], capsys)
        assert code == 1
        doc = last_json(out)
        assert doc["report"]["failures"] == [bundle]


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestChunkedVerifyTrials:
    """`hypercube verify` harmonic and hypercontractivity trials run in
    stacks, a chunk of trials at a time; every trial's numbers are the bits
    of that trial computed alone, whatever its chunk or the trial count."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 12),
        budget=st.sampled_from([None, 1, 3, 5]),
        count=st.sampled_from(["one", "chunk-1", "chunk", "chunk+1", "3 chunks"]),
        extra=st.integers(0, 40),
        lam=st.sampled_from([0.5, 1.0, 2.0, 2.7, math.e, 3.0, 10.0, 100.0]),
        rho=st.sampled_from([0.1, 0.3, 0.5, 0.9, 1.0]),
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.5]),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(n=8, budget=None, count="3 chunks", extra=5, lam=10.0, rho=0.5, p=2.0, seed=3)
    @example(n=12, budget=None, count="chunk+1", extra=1, lam=2.0, rho=0.3, p=3.0, seed=0)
    @example(n=1, budget=None, count="chunk+1", extra=0, lam=100.0, rho=0.9, p=1.5, seed=7)
    def test_trials_equal_the_per_trial_reference(self, n, budget, count, extra, lam, rho, p, seed):
        # budget: None keeps the module's stack size, k stacks k trials
        with pytest.MonkeyPatch.context() as patch:
            if budget is not None:
                patch.setattr(hypercube, "_STACK_VALUES", budget << n)
            chunk = hypercube._chunk_trials(n)
            trials = {"one": 1, "chunk-1": max(chunk - 1, 1), "chunk": chunk,
                      "chunk+1": chunk + 1, "3 chunks": 3 * chunk}[count]
            longer = trials + extra
            harmonic = list(hypercube.harmonic_trials(n, longer, seed, lam))
            harmonic_prefix = list(hypercube.harmonic_trials(n, trials, seed, lam))
            hyper = list(hypercube.hypercontractivity_trials(n, longer, seed, rho, p))
            hyper_prefix = list(hypercube.hypercontractivity_trials(n, trials, seed, rho, p))

        assert [t for t, _, _ in harmonic] == list(range(longer))
        want = [reference_harmonic_trial(n, lam, seed, t) for t in range(longer)]
        assert _bits([norm2 for _, norm2, _ in harmonic]) == _bits(want)
        assert harmonic_prefix == harmonic[:trials]

        assert [t for t, _, _ in hyper] == list(range(longer))
        want = [reference_hypercontractivity_trial(n, rho, p, seed, t) for t in range(longer)]
        assert _bits([(lhs, rhs) for _, lhs, rhs in hyper]) == _bits(want)
        assert hyper_prefix == hyper[:trials]

    @pytest.mark.parametrize(
        "flags",
        [["--lemma", "harmonic", "--n", "6", "--trials", "100", "--lam", "10"],
         ["--lemma", "harmonic", "--n", "3", "--trials", "40", "--lam", "1.5"],
         ["--lemma", "hypercontractivity", "--n", "7", "--trials", "70",
          "--params", "rho=0.3,p=3"]],
    )
    def test_output_bytes_do_not_depend_on_the_chunk(self, flags, capsys, monkeypatch):
        argv = ["hypercube", "verify", "--seed", "11", *flags]
        n = int(flags[flags.index("--n") + 1])
        outputs = []
        for budget in (None, 1 << n, 3 << n):
            if budget is not None:
                monkeypatch.setattr(hypercube, "_STACK_VALUES", budget)
            outputs.append(run_cli(argv, capsys))
        assert outputs[0][0] == 0 and outputs[1:] == outputs[:1] * 2


class TestFigures:
    def test_sparse_overview_bundle(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["figures", "--name", "sparse-overview", "--out", str(tmp_path)], capsys
        )
        assert code == 0
        files = last_json(out)["files"]
        assert sorted(f.rsplit("/", 1)[-1] for f in files) == ["psi.csv", "xi.csv", "zeta.csv"]
        psi_rows = [
            ln for ln in (tmp_path / "psi.csv").read_text().splitlines()
            if not ln.startswith("#") and not ln.startswith("abscissa")
        ]
        xi_rows = [
            ln for ln in (tmp_path / "xi.csv").read_text().splitlines()
            if not ln.startswith("#") and not ln.startswith("abscissa")
        ]
        for row in psi_rows:
            x, value, flag = row.split(",")
            assert flag == "ok" and float(value) > 0.0
        for row in xi_rows:
            x, value, flag = row.split(",")
            if float(x) >= 0.138:
                assert float(value) == 0.0

    def test_delta_star_figure_decreasing_and_bounded(self, tmp_path, capsys):
        run_cli(["figures", "--name", "delta-star", "--out", str(tmp_path)], capsys)
        rows = [
            ln.split(",") for ln in (tmp_path / "delta_star.csv").read_text().splitlines()
            if not ln.startswith("#") and not ln.startswith("abscissa")
        ]
        values = [float(r[1]) for r in rows]
        epsilons = [float(r[0]) for r in rows]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(v < 1.0 / (1.0 + e) ** 2 for e, v in zip(epsilons, values))

    def test_entropy_bracket_bundle(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["figures", "--name", "entropy-bracket", "--out", str(tmp_path)], capsys
        )
        files = [f.rsplit("/", 1)[-1] for f in last_json(out)["files"]]
        assert files == [
            "entropy.csv",
            "bracket_eps0.csv",
            "bracket_eps0.2.csv",
            "bracket_eps0.5.csv",
        ]

    def test_xc_lower_nonnegative_with_recorded_ordering(self, tmp_path, capsys):
        run_cli(["figures", "--name", "xc-lower", "--out", str(tmp_path)], capsys)

        def rows(name):
            return [
                (float(ln.split(",")[0]), float(ln.split(",")[1]))
                for ln in (tmp_path / name).read_text().splitlines()
                if not ln.startswith("#") and not ln.startswith("abscissa")
            ]

        thm1 = rows("thm1.csv")
        thm2 = rows("thm2.csv")
        assert all(v >= 0.0 for _, v in thm1 + thm2)
        # at n = 1e6 the second bound is still vacuous, so the first dominates
        # throughout the k <= sqrt(n) region
        for (k1, v1), (_, v2) in zip(thm1, thm2):
            if k1 <= 1000.0:
                assert v1 >= v2


class TestParsing:
    def test_parse_params_coercion(self):
        params = cli.parse_params("a=1,b=2.5,c=true,d=text")
        assert params == {"a": 1, "b": 2.5, "c": True, "d": "text"}

    def test_parse_params_malformed(self):
        with pytest.raises(ValueError, match="malformed parameter 'novalue'; expected key=value"):
            cli.parse_params("a=1, novalue")

    def test_malformed_config_line_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("delta=0.5\n\nnovalue  # comment\n")
        code, out, err = run_cli(["bounds", "eval", "--formula", "zeta", "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["message"] == "malformed config line 'novalue'"

    def test_parse_grid(self):
        assert cli.parse_grid("0:1:3") == [0.0, 0.5, 1.0]
        assert cli.parse_grid("2:2:1") == [2.0]
        with pytest.raises(ValueError):
            cli.parse_grid("0:1")

    @pytest.mark.parametrize("raw", ["1:0:3", "0.5:0.5:3", "0:-1:2", "1:1.0000000000000002:3"])
    def test_parse_grid_rejects_points_that_do_not_increase(self, raw):
        with pytest.raises(ValueError, match=f"--grid points must be strictly increasing, got '{raw}'"):
            cli.parse_grid(raw)

    def test_parse_grid_single_step_is_its_start(self):
        assert cli.parse_grid("1:0:1") == [1.0]

    @pytest.mark.parametrize(
        "argv",
        [["figures", "--name", "delta-star", "--grid", "1:0:3", "--out", "{dest}"],
         ["bounds", "curve", "--formula", "psi", "--grid", "0.5:0.5:3", "--out", "{dest}"]],
        ids=["figures", "curve"],
    )
    def test_non_increasing_grid_creates_nothing(self, argv, tmp_path, capsys):
        # figures once made its --out directory before the curve rejected the grid
        dest = tmp_path / "dest"
        code, out, err = run_cli([str(dest) if a == "{dest}" else a for a in argv], capsys)
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        assert "--grid points must be strictly increasing" in json.loads(line)["error"]["message"]
        assert not dest.exists()

    def test_parse_grid_caps_its_steps(self):
        assert len(cli.parse_grid(f"0:1:{cli.MAX_GRID_STEPS}")) == cli.MAX_GRID_STEPS
        with pytest.raises(SizeLimitError, match=f"at most {cli.MAX_GRID_STEPS} steps"):
            cli.parse_grid(f"0:1:{cli.MAX_GRID_STEPS + 1}")

    def test_unknown_command_is_usage_error(self):
        assert cli.main(["frobnicate"]) == 2


# two commands of each group on one subcommand, most with --params of keys
# the other does not give, so a value that one call leaves in a shared parser
# shows in a later call's echo
_REUSE_RUNS = {
    "bounds": ["bounds", "eval", "--formula", "zeta", "--params", "delta=0.2",
               "--out", "bounds.json"],
    "bounds-again": ["bounds", "eval", "--formula", "delta_star", "--params", "eps=0.1"],
    "widths": ["widths", "estimate", "--kind", "oracle:l2-ball", "--n", "3", "--trials", "50",
               "--params", "radius=2", "--out", "widths.json"],
    "widths-again": ["widths", "estimate", "--kind", "oracle:ellipsoid", "--trials", "50",
                     "--params", "axes=1:2"],
    "cones": ["cones", "witness", "--n", "6", "--k", "3", "--matrix-out", "w.symmat"],
    "cones-again": ["cones", "witness", "--n", "4", "--k", "2"],
    "hypercube": ["hypercube", "verify", "--lemma", "hypercontractivity", "--n", "4",
                  "--trials", "5", "--params", "rho=0.7", "--seed", "2"],
    "hypercube-again": ["hypercube", "verify", "--lemma", "hypercontractivity", "--n", "4",
                        "--trials", "5", "--params", "p=3"],
    "figures": ["figures", "--name", "delta-star", "--grid", "0:1:5", "--out", "figs",
                "--params", "tol=1e-6"],
    "figures-again": ["figures", "--name", "xc-lower", "--grid", "1:100:4", "--out", "figs2",
                      "--params", "n=1000"],
}
_HANDLERS = {"_run_eval": "bounds", "_run_widths": "widths", "_run_witness": "cones",
             "_run_hypercube": "hypercube", "_run_figures": "figures"}


def _bytes_of(argv, directory):
    """Exit code, stdout, stderr and the bytes of every file written, for
    argv run in directory, which is made for it (and its parents)."""
    directory.mkdir(parents=True)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    files = {path.relative_to(directory).as_posix(): path.read_bytes()
             for path in sorted(directory.rglob("*")) if path.is_file()}
    return code, out.getvalue(), err.getvalue(), files


class TestParserReuse:
    """main parses every call with one parser per process, and no call can
    tell: each writes what it writes on a parser of its own."""

    @pytest.fixture
    def alone(self, tmp_path, monkeypatch):
        """_bytes_of each _REUSE_RUNS command, run on a fresh build_parser()."""
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", cli.build_parser)
            runs = {name: _bytes_of(argv, tmp_path / f"alone{name}")
                    for name, argv in _REUSE_RUNS.items()}
        assert all(code == 0 and (out or files) for code, out, _, files in runs.values())
        return runs

    def check_runs(self, alone, directory):
        for name, argv in _REUSE_RUNS.items():
            assert _bytes_of(argv, directory / name) == alone[name], name

    def test_calls_in_a_row_write_what_each_writes_alone(self, alone, tmp_path):
        for round in range(2):  # each command after others of its subcommand
            self.check_runs(alone, tmp_path / f"round{round}")

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "eval", "--params", "delta=0.3", "--out", "x.json", "--bogus"],
            ["widths", "estimate", "--kind", "base-psd", "--params", "radius=5", "--n", "x"],
            ["cones", "witness", "--n", "6", "--k", "3", "--matrix-out", "m", "--tol", "1"],
            ["hypercube", "verify", "--params", "rho=0.9", "--seed", "4", "--lemma", "nope"],
            ["figures", "--name", "delta-star", "--params", "eps=1", "--grid"],
            ["frobnicate", "--params", "delta=0.4"],
        ],
        ids=["unknown-flag", "not-an-int", "flag-of-another-command", "bad-choice",
             "missing-value", "unknown-command"],
    )
    def test_a_call_that_fails_to_parse_changes_no_later_call(self, argv, alone, tmp_path):
        code, out, err, files = _bytes_of(argv, tmp_path / "failed")
        assert (code, out, files) == (2, "", {})
        [line] = err.splitlines()
        assert json.loads(line)["error"]["kind"] == "usage"
        self.check_runs(alone, tmp_path / "after")

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["--version"], ["bounds", "eval", "--help"], ["figures", "--help"]],
        ids=["help", "version", "eval-help", "figures-help"],
    )
    def test_help_and_version_change_no_later_call(self, argv, alone, tmp_path):
        code, out, err, files = _bytes_of(argv, tmp_path / "info")
        assert code == 0 and out.startswith(("usage: psdb", f"psdb {cli.__version__}")) and err == ""
        self.check_runs(alone, tmp_path / "after")

    def test_extending_build_parser_changes_nothing_main_accepts(self, alone, tmp_path):
        argv = ["--extra-flag=1", *_REUSE_RUNS["bounds"]]
        self.check_runs(alone, tmp_path / "before")
        parser = cli.build_parser()
        parser.add_argument("--extra-flag")
        assert parser.parse_args(argv).extra_flag == "1"
        assert cli.build_parser() is not parser
        code, out, err, _ = _bytes_of(argv, tmp_path / "extended")
        assert (code, out) == (2, "") and "--extra-flag" in json.loads(err)["error"]["message"]
        self.check_runs(alone, tmp_path / "after")

    @pytest.mark.parametrize("handler", list(_HANDLERS))
    def test_a_patched_handler_runs_on_the_next_call(self, handler, alone, tmp_path, monkeypatch):
        argv = _REUSE_RUNS[_HANDLERS[handler]]
        assert _bytes_of(argv, tmp_path / "before") == alone[_HANDLERS[handler]]
        seen = []
        monkeypatch.setattr(cli, handler, lambda args, params: seen.append(args.argv) or 5)
        assert _bytes_of(argv, tmp_path / "patched") == (5, "", "", {})
        assert seen == [argv]

    def test_ten_calls_construct_the_parser_once(self, tmp_path, monkeypatch):
        # a guard on the gain: a parser per call costs about 2 ms, as much as
        # a small command's own work
        roots = []

        class Counting(cli._Parser):
            def __init__(self, *args, **kwargs):
                if kwargs.get("prog") == cli.PROG:  # the root, not a subcommand
                    roots.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counting)
        cli._parser.cache_clear()
        try:
            for i, argv in enumerate(_REUSE_RUNS.values()):
                assert _bytes_of(argv, tmp_path / f"run{i}")[0] == 0
        finally:
            cli._parser.cache_clear()  # the next main builds from the real class
        assert len(roots) == 1


def _run_widths_estimate(flags, tmp_path, capsys):
    """run_cli on `widths estimate --trials 5` plus flags, with "{family}"
    bound to a coordinate family at n = 6, k = 2 (N = 15)."""
    family = tmp_path / "fam.conefam"
    write_conefam(coordinate_family(6, 2), family)
    flags = [str(family) if flag == "{family}" else flag for flag in flags]
    return run_cli(["widths", "estimate", "--trials", "5", *flags], capsys)


class TestErrorContract:
    """Bad input exits 2 with exactly one JSON line on stderr."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["widths", "estimate", "--kind", "base-psd", "--trials", "10"], "--n"),
            (["bounds", "eval", "--formula", "zeta", "--params", "delta=abc"], "'delta'"),
            (["bounds", "curve", "--formula", "psi", "--grid", "0:1"], "start:stop:steps"),
            (["bounds", "curve", "--formula", "psi", "--grid", "0.1:x:3"], "--grid"),
            (["figures", "--name", "delta-star", "--grid", "0:1:2.5"], "'0:1:2.5'"),
            (["bounds", "eval"], "--formula"),
            (["hypercube", "verify", "--lemma", "variance", "--trials", "0"], "2 trials"),
            (["bounds", "eval", "--formula", "zeta", "--params", "delta=0.2", "--format", "csv"],
             "--format"),
            (["bounds", "curve", "--formula", "zeta", "--grid", "0.1:1:3", "--format", "json"],
             "--format"),
            (["cones", "witness", "--n", "6", "--k", "2", "--format", "csv"], "--format"),
            (["hypercube", "verify", "--lemma", "harmonic", "--n", "3", "--trials", "-1"],
             "--trials >= 1"),
            (["hypercube", "verify", "--lemma", "hypercontractivity", "--trials", "0"],
             "--trials >= 1"),
            (["hypercube", "verify", "--lemma", "maximal", "--trials", "-5"], "--trials >= 1"),
            # rejected before a trial's 2^n draws are allocated
            (["hypercube", "verify", "--lemma", "hypercontractivity", "--n", "30"], "n <= 24"),
            (["widths", "estimate", "--kind", "oracle:l2-ball", "--n", "3", "--trials", "5",
              "--params", "radius=abc"], "parameter 'radius' must be a number"),
            (["widths", "estimate", "--kind", "oracle:l2-ball", "--n", "3", "--trials", "5",
              "--params", "radius=-1"], "radius must be a nonnegative finite number"),
            (["widths", "estimate", "--kind", "oracle:l1-ball", "--n", "3", "--trials", "5",
              "--params", "radius=inf"], "radius must be a nonnegative finite number"),
            (["widths", "estimate", "--kind", "oracle:ellipsoid", "--trials", "5",
              "--params", "axes=nan:1"], "semi-axes"),
            (["widths", "estimate", "--kind", "oracle:l2-ball", "--n", "0", "--trials", "5"],
             "dimension must be >= 1"),
            (["widths", "estimate", "--kind", "oracle:l1-ball", "--n", "-2", "--trials", "5"],
             "dimension must be >= 1"),
            (["widths", "estimate", "--kind", "sparse-dual", "--n", "5", "--k", "1",
              "--trials", "5", "--params", "mode=bogus"], "unknown mode 'bogus'"),
            (["widths", "estimate", "--kind", "sparse-dual", "--n", "5", "--k", "5",
              "--trials", "5", "--params", "mode=bogus"], "unknown mode 'bogus'"),
            # a boolean is not a number, though parse_params coerces true to True
            (["bounds", "eval", "--formula", "phi", "--params", "delta=true"],
             "parameter 'delta' must be a number, got True"),
            (["bounds", "eval", "--formula", "thm1", "--params", "n=true,k=2"],
             "parameter 'n' must be a number, got True"),
            (["widths", "estimate", "--kind", "oracle:l2-ball", "--n", "3", "--trials", "5",
              "--params", "radius=true"], "parameter 'radius' must be a number, got True"),
            (["hypercube", "verify", "--lemma", "hypercontractivity", "--params", "rho=true"],
             "parameter 'rho' must be a number, got True"),
            (["hypercube", "verify", "--lemma", "hypercontractivity", "--params", "p=false"],
             "parameter 'p' must be a number, got False"),
            # rejected before a 745 GiB grid or an 80 GB witness is allocated
            (["bounds", "curve", "--formula", "psi", "--grid", "0:1:100000000000"],
             "grid supports at most 100000 steps, got 100000000000"),
            (["cones", "witness", "--n", "100000", "--k", "2"],
             "the witness matrix supports n <= 2048, got 100000"),
            (["widths", "estimate", "--kind", "oracle:ellipsoid", "--params", "axes=1:x",
              "--trials", "5"], "parameter 'axes' must be numbers a:b[:c...], got '1:x'"),
            # each widths kind reads only its own --params keys, and label
            (["widths", "estimate", "--kind", "base-psd", "--n", "3", "--trials", "5",
              "--params", "mode=greedy,radius=4"], "base-psd does not read parameter 'mode'"),
            (["widths", "estimate", "--kind", "sparse-dual", "--n", "4", "--k", "2", "--trials", "5",
              "--params", "mode=greedy,radius=4"], "sparse-dual does not read parameter 'radius'"),
            (["widths", "estimate", "--kind", "general-dual", "--family", "fam.conefam",
              "--trials", "5", "--params", "mode=greedy"], "general-dual does not read parameter 'mode'"),
            (["widths", "estimate", "--kind", "oracle:l2-ball", "--n", "3", "--trials", "5",
              "--params", "axes=1:2"], "oracle:l2-ball does not read parameter 'axes'"),
            (["widths", "estimate", "--kind", "oracle:l1-ball", "--n", "3", "--trials", "5",
              "--params", "mode=greedy"], "oracle:l1-ball does not read parameter 'mode'"),
            (["widths", "estimate", "--kind", "oracle:ellipsoid", "--trials", "5",
              "--params", "axes=1:2,radius=7"], "oracle:ellipsoid does not read parameter 'radius'"),
            # so does every other command but bounds and figures, whose formulas read by name
            (["cones", "witness", "--n", "6", "--k", "2", "--params", "foo=1"],
             "cones witness does not read parameter 'foo'"),
            (["hypercube", "verify", "--lemma", "harmonic", "--n", "3", "--trials", "3",
              "--params", "rho=0.3,foo=1"], "the harmonic lemma does not read parameter 'rho'"),
            (["hypercube", "verify", "--lemma", "moments", "--n", "3", "--params", "p=2"],
             "the moments lemma does not read parameter 'p'"),
            (["hypercube", "verify", "--lemma", "hypercontractivity", "--n", "3", "--trials", "3",
              "--params", "rho=0.3,foo=1"], "the hypercontractivity lemma does not read parameter 'foo'"),
            (["widths", "estimate", "--kind", "oracle:ellipsoid", "--trials", "5"],
             "oracle:ellipsoid needs axes"),
            (["widths", "estimate", "--kind", "base-psd", "--n", "2", "--trials", "5",
              "--seed", "18446744073709551616"], "seed must be a 64-bit unsigned integer"),
            (["hypercube", "verify", "--lemma", "variance", "--n", "15"],
             "per-trial enumeration supports n <= 14, got 15"),
        ],
        ids=["missing-n", "non-numeric-param", "bad-grid", "grid-not-a-number",
             "grid-steps-not-an-integer", "parser-error", "variance-trials",
             "eval-csv", "curve-json", "witness-csv", "harmonic-trials",
             "hypercontractivity-trials", "maximal-trials", "hypercontractivity-n",
             "radius-not-a-number", "negative-radius",
             "infinite-radius", "nan-axis", "l2-ball-zero-n", "l1-ball-negative-n",
             "sparse-mode-at-k-1", "sparse-mode-at-k-n", "bool-delta", "bool-thm1-n",
             "bool-radius", "bool-rho", "bool-p", "grid-steps-cap", "witness-n-cap",
             "axes-not-a-number", "base-psd-key", "sparse-dual-key", "general-dual-key",
             "l2-ball-key", "l1-ball-key", "ellipsoid-key", "witness-key", "harmonic-key",
             "moments-key", "hypercontractivity-key", "ellipsoid-no-axes", "seed-past-64-bits",
             "variance-n-cap"],
    )
    def test_usage_error_is_one_json_line(self, argv, needle, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        [line] = err.splitlines()
        error = json.loads(line)["error"]
        assert error["kind"] == "usage" and needle in error["message"]

    @pytest.mark.parametrize(
        "error, needle",
        [(MemoryError("Unable to allocate 7.28 TiB"), "Unable to allocate 7.28 TiB"),
         (MemoryError(), "not enough memory for this request")],
        ids=["numpy-message", "bare"],
    )
    def test_running_out_of_memory_is_one_json_line(self, error, needle, capsys, monkeypatch):
        # a request within every size cap can still need more memory than there is
        def allocate(*args, **kwargs):
            raise error

        monkeypatch.setattr(widths, "width_base_psd", allocate)
        argv = ["widths", "estimate", "--kind", "base-psd", "--n", "3", "--trials", str(10**12)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert json.loads(line)["error"] == {"kind": "usage", "message": needle}

    @pytest.mark.parametrize(
        "argv, needle",
        [(["widths", "estimate", "--kind", "base-psd", "--n", "4"], "Unable to allocate 7.28 TiB"),
         (["widths", "estimate", "--kind", "sparse-dual", "--n", "4", "--k", "2"],
          "Unable to allocate 7.28 TiB"),
         (["hypercube", "verify", "--lemma", "harmonic", "--n", "8"], "Unable to allocate 7.28 TiB"),
         (["hypercube", "verify", "--lemma", "hypercontractivity", "--n", "8"],
          "Unable to allocate 14.6 TiB"),
         (["hypercube", "verify", "--lemma", "hypercontractivity", "--n", "8", "--params", "rho=2"],
          "need 0 < rho <= 1, got 2.0"),
         (["hypercube", "verify", "--lemma", "maximal"], "Unable to allocate 7.28 TiB")],
        ids=["base-psd", "sparse-dual", "harmonic", "hypercontractivity", "hypercontractivity-rho",
             "maximal"],
    )
    def test_too_many_matrix_trials_fail_at_once(self, argv, needle):
        # the value array, 8 or 16 bytes a trial, is allocated before the
        # first draw, after the argument checks; the child's address space is
        # capped so that holds however the system overcommits, and the
        # timeout ends a run that draws instead
        import resource

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        argv = [*argv, "--trials", str(10**12)]
        proc = subprocess.run([sys.executable, "-m", "psdbounds.cli", *argv], capture_output=True,
                              text=True, timeout=60, preexec_fn=cap_address_space, check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        [line] = proc.stderr.splitlines()
        error = json.loads(line)["error"]
        assert error["kind"] == "usage" and needle in error["message"]

    @pytest.mark.parametrize(
        "flags, needle",
        [
            (["--kind", "oracle:ellipsoid", "--n", "3", "--params", "axes=1:2"],
             "--n 3 differs from 2, the size oracle:ellipsoid derives"),
            (["--kind", "general-dual", "--family", "{family}", "--n", "5"],
             "--n 5 differs from 6, the size general-dual derives"),
            (["--kind", "general-dual", "--family", "{family}", "--k", "3"],
             "--k 3 differs from 2, the size general-dual derives"),
            (["--kind", "base-psd", "--n", "4", "--k", "2"], "base-psd does not read --k"),
            (["--kind", "base-psd", "--n", "4", "--family", "{family}"],
             "base-psd does not read --family"),
            (["--kind", "sparse-dual", "--n", "4", "--k", "2", "--family", "{family}"],
             "sparse-dual does not read --family"),
            (["--kind", "oracle:l2-ball", "--n", "3", "--k", "2"], "oracle:l2-ball does not read --k"),
        ],
        ids=["oracle-n", "general-dual-n", "general-dual-k", "base-psd-k", "base-psd-family",
             "sparse-dual-family", "oracle-k"],
    )
    def test_widths_flag_that_contradicts_the_kind(self, flags, needle, tmp_path, capsys):
        # the estimate block would otherwise name sizes the estimate did not use
        code, out, err = _run_widths_estimate(flags, tmp_path, capsys)
        assert code == 2 and out == ""
        [line] = err.splitlines()
        error = json.loads(line)["error"]
        assert error["kind"] == "usage" and needle in error["message"]

    @pytest.mark.parametrize(
        "flags",
        [["--kind", "base-psd", "--n", "3", "--params", "label=run1"],
         ["--kind", "sparse-dual", "--n", "4", "--k", "2", "--params", "mode=greedy,label=run1"],
         ["--kind", "general-dual", "--family", "{family}", "--params", "label=run1"],
         ["--kind", "oracle:l2-ball", "--n", "3", "--params", "radius=2,label=run1"],
         ["--kind", "oracle:l1-ball", "--n", "3", "--params", "radius=2,label=run1"],
         ["--kind", "oracle:ellipsoid", "--params", "axes=1:2,label=run1"]],
        ids=["base-psd", "sparse-dual", "general-dual", "l2-ball", "l1-ball", "ellipsoid"],
    )
    def test_widths_keys_the_kind_reads_are_accepted(self, flags, tmp_path, capsys):
        code, out, _ = _run_widths_estimate(flags, tmp_path, capsys)
        assert code == 0 and json.loads(out)["params"]["extra"]["label"] == "run1"

    def test_widths_config_key_the_kind_does_not_read(self, tmp_path, capsys):
        # the config file counts as --params does: its keys meet the same check
        (tmp_path / "run.cfg").write_text("radius=2\nlabel=x\n")
        code, out, err = _run_widths_estimate(
            ["--kind", "base-psd", "--n", "3", "--config", str(tmp_path / "run.cfg")], tmp_path, capsys
        )
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert json.loads(line)["error"] == {"kind": "usage", "message": "base-psd does not read parameter 'radius'"}

    @pytest.fixture
    def files(self, tmp_path):
        """argv with "{matrix}", "{family}" and "{config}" bound to a 6-by-6
        witness, a coordinate family at n = 6, k = 2 and a config file."""
        write_symmat(witness_matrix(6, 3), tmp_path / "w.symmat")
        write_conefam(coordinate_family(6, 2), tmp_path / "fam.conefam")
        (tmp_path / "run.cfg").write_text("radius=2\nlabel=x\n")
        paths = {"{matrix}": "w.symmat", "{family}": "fam.conefam", "{config}": "run.cfg"}
        return lambda argv: [str(tmp_path / paths[a]) if a in paths else a for a in argv]

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["cones", "member", "--matrix", "{matrix}", "--sparse-k", "2", "--params", "tol=1"],
             "cones member does not read parameter 'tol'"),
            (["cones", "member", "--matrix", "{matrix}", "--family", "{family}",
              "--config", "{config}"], "cones member does not read parameter 'radius'"),
            (["cones", "member", "--matrix", "{matrix}", "--family", "{family}", "--refute",
              "--samples", "3"], "membership in a --family does not read --refute"),
        ],
        ids=["member-key", "member-config-key", "family-refute"],
    )
    def test_member_key_or_flag_it_does_not_read(self, argv, needle, files, capsys):
        # the echo would otherwise carry a key or flag the answer did not use
        code, out, err = run_cli(files(argv), capsys)
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert json.loads(line)["error"] == {"kind": "usage", "message": needle}

    @pytest.mark.parametrize(
        "argv",
        [["cones", "member", "--matrix", "{matrix}", "--sparse-k", "2"],
         ["cones", "member", "--matrix", "{matrix}", "--family", "{family}"],
         ["cones", "witness", "--n", "6", "--k", "2"],
         ["hypercube", "verify", "--lemma", "harmonic", "--n", "3", "--trials", "3"],
         ["hypercube", "verify", "--lemma", "hypercontractivity", "--n", "3", "--trials", "3"]],
        ids=["member", "member-family", "witness", "harmonic", "hypercontractivity"],
    )
    def test_every_command_takes_a_label(self, argv, files, capsys):
        code, out, _ = run_cli(files([*argv, "--params", "label=run1"]), capsys)
        assert code == 0 and json.loads(out)["params"]["extra"]["label"] == "run1"

    @pytest.mark.parametrize(
        "flags, sizes",
        [(["--kind", "oracle:ellipsoid", "--n", "2", "--params", "axes=1:2"], (2, None, None)),
         (["--kind", "general-dual", "--family", "{family}", "--n", "6", "--k", "2"], (6, 2, 15))],
        ids=["oracle-n", "general-dual-n-k"],
    )
    def test_widths_flags_that_agree_with_the_kind_are_accepted(self, flags, sizes, tmp_path, capsys):
        code, out, _ = _run_widths_estimate(flags, tmp_path, capsys)
        estimate = json.loads(out)["estimate"]
        assert code == 0 and (estimate["n"], estimate["k"], estimate["N"]) == sizes

    @pytest.mark.parametrize("extra", [[], ["--tol", "0"], ["--refute", "--samples", "5"]])
    def test_non_finite_matrix_is_a_numerical_failure(self, extra, tmp_path, capsys):
        path = tmp_path / "nan.symmat"
        write_symmat(SymmetricMatrix.from_dense(nan_identity()), path)
        code, out, err = run_cli(["cones", "member", "--matrix", str(path), "--sparse-k", "3", *extra], capsys)
        assert code == 3 and out == ""
        [line] = err.splitlines()
        error = json.loads(line)["error"]
        assert error["kind"] == "numerical" and "non-finite" in error["message"]

    def test_non_finite_matrix_with_a_family_is_a_numerical_failure(self, tmp_path, capsys):
        path, family = tmp_path / "nan.symmat", tmp_path / "fam.conefam"
        write_symmat(SymmetricMatrix.from_dense(nan_identity()), path)
        write_conefam(coordinate_family(6, 3), family)
        code, out, err = run_cli(["cones", "member", "--matrix", str(path), "--family", str(family)], capsys)
        assert code == 3 and out == ""
        [line] = err.splitlines()
        error = json.loads(line)["error"]
        assert error["kind"] == "numerical" and "non-finite" in error["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["cones", "member", "--matrix", "{matrix}", "--family", "{family}"],
            ["widths", "estimate", "--kind", "general-dual", "--family", "{family}", "--trials", "5"],
        ],
        ids=["member", "general-dual"],
    )
    def test_non_finite_family_is_a_usage_error(self, argv, tmp_path, capsys):
        matrix, family = tmp_path / "eye.symmat", tmp_path / "nan.conefam"
        write_symmat(SymmetricMatrix.from_dense(np.eye(3)), matrix)
        family.write_text("3 1 1\n1\nnan\n0\n")
        argv = [a.format(matrix=matrix, family=family) for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        [line] = err.splitlines()
        error = json.loads(line)["error"]
        assert error["kind"] == "usage" and "finite" in error["message"]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("mode", [["--sparse-k", "3"], ["--sparse-k", "3", "--refute"],
                                      ["--family", "{family}"]])
    def test_bad_tolerance_is_a_usage_error(self, tol, mode, tmp_path, capsys):
        path, family = tmp_path / "w.symmat", tmp_path / "fam.conefam"
        write_symmat(SymmetricMatrix.from_dense(-np.eye(6)), path)
        write_conefam(coordinate_family(6, 3), family)
        mode = [a.replace("{family}", str(family)) for a in mode]
        code, out, err = run_cli(["cones", "member", "--matrix", str(path), *mode, "--tol", tol], capsys)
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert "finite and nonnegative" in json.loads(line)["error"]["message"]

    def test_each_command_keeps_the_format_it_writes(self, tmp_path, capsys):
        for argv in (
            ["bounds", "eval", "--formula", "zeta", "--params", "delta=0.2", "--format", "json"],
            ["bounds", "curve", "--formula", "zeta", "--grid", "0.1:1:3", "--format", "csv"],
            ["widths", "estimate", "--kind", "base-psd", "--n", "3", "--trials", "5",
             "--format", "csv"],
            ["figures", "--name", "delta-star", "--grid", "0:1:3", "--out", str(tmp_path),
             "--format", "csv"],
        ):
            assert run_cli(argv, capsys)[0] == 0


_BAD = ["abc", "", "-1", "0", "2.5", "nan", "inf", "1e400"]
_PARAMS = [
    "delta=0.3", "p=0.5", "n=100,k=4", "eps=0.2,tol=1e-6", "v=1,c=1,N=3", "p=-3,q=2",
    "delta=abc", "n=inf,k=1", "n=1e200,k=1", "eps=1e308", "eps=-1", "which=1,grid=2",
    "mode=greedy", "mode=nope", "axes=1:2:3", "axes=a", "radius=abc", "rho=0.5,p=2",
    "rho=abc", "novalue", "radius=1e308", "foo=1",
]
_FORMULAS = sorted(FORMULAS) + ["nope"]
_GRIDS = ["0:1:5", "0.1:0.9:3", "1:50:4", "2:2:1", "0:1", "0:1:0", "a:b:c", "0:inf:3", "1:0:3"]
_SMALL = ["1", "2", "3", "8"]
_TRIALS = ["2", "10", "50"]
_WRITE = ["{out}", "{out}/missing/x"]
# prefix -> (flags always given, other flags) with their good values; sizes stay
# small (n, k <= 8, trials <= 50) and every written path lies under {out}
_COMMANDS = {
    ("bounds", "eval"): ({}, {"--formula": _FORMULAS}),
    ("bounds", "curve"): ({}, {"--formula": _FORMULAS, "--grid": _GRIDS}),
    ("widths", "estimate"): (
        {"--trials": _TRIALS},
        {"--kind": ["base-psd", "sparse-dual", "general-dual", "oracle:l2-ball",
                    "oracle:l1-ball", "oracle:ellipsoid", "oracle:nope", "nope"],
         "--n": _SMALL, "--k": _SMALL, "--family": ["{family}", "{missing}"]},
    ),
    ("cones", "member"): (
        {"--samples": ["5", "20"]},
        {"--matrix": ["{matrix}", "{missing}"], "--sparse-k": _SMALL,
         "--family": ["{family}", "{missing}"], "--tol": ["1e-9", "0"], "--refute": [None]},
    ),
    ("cones", "witness"): ({}, {"--n": _SMALL, "--k": _SMALL, "--matrix-out": _WRITE}),
    ("hypercube", "verify"): (
        {"--trials": _TRIALS},
        {"--lemma": ["harmonic", "hypercontractivity", "moments", "variance", "maximal"],
         "--n": _SMALL, "--lam": ["0.5", "2.718", "10"]},
    ),
    ("figures",): (
        {"--out": _WRITE},
        {"--name": ["sparse-overview", "delta-star", "entropy-bracket", "xc-lower"],
         "--grid": _GRIDS},
    ),
    ("frobnicate",): ({}, {}),
}
_COMMON = {
    "--params": _PARAMS,
    "--config": ["{config}", "{missing}"],
    "--format": ["json", "csv"],
    "--seed": ["0", "7", "-1", "18446744073709551616"],
    "--out": _WRITE,
}
_PATHS = {"--out", "--matrix-out", "--config", "--family", "--matrix"}


@st.composite
def _argv(draw):
    """Always-given flags, then the command's other flags with chance 85% and
    the common flags with chance 20%.  One value in five of a non-path flag
    is a bad one."""
    prefix = draw(st.sampled_from(sorted(_COMMANDS)))
    always, optional = _COMMANDS[prefix]
    argv = list(prefix)
    for flags, percent in ((always, 100), (optional, 85), (_COMMON, 20)):
        for flag, values in flags.items():
            if flags is _COMMON and flag in always:
                continue
            if percent < 100 and draw(st.integers(0, 99)) >= percent:
                continue
            bad = flag not in _PATHS and values != [None] and draw(st.integers(0, 4)) == 0
            value = draw(st.sampled_from(_BAD if bad else values))
            argv += [flag] if value is None else [flag, value]
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_symmat(witness_matrix(6, 3), root / "w.symmat")
    write_conefam(coordinate_family(6, 2), root / "fam.conefam")
    (root / "run.cfg").write_text("delta=0.5\nn=4\n")
    return root


def _run_in_process(argv, root):
    """Exit code, stdout and stderr lines (warnings included) of one argv,
    with its path placeholders bound to files under root."""
    with tempfile.TemporaryDirectory(dir=root) as work:
        paths = {"{out}": os.path.join(work, "out"), "{matrix}": str(root / "w.symmat"),
                 "{family}": str(root / "fam.conefam"), "{config}": str(root / "run.cfg"),
                 "{missing}": os.path.join(work, "none")}
        for key, path in paths.items():
            argv = [a.replace(key, path) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
    return code, out.getvalue(), err.getvalue().splitlines() + [str(w.message) for w in caught]


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_argv())
# a command that draws nothing still echoes its seed into the artifact
@example(argv=["cones", "witness", "--n", "3", "--k", "2", "--seed", "-1"])
@example(argv=["hypercube", "verify", "--lemma", "moments", "--seed", "-3"])
def test_argv_fuzz_exit_codes_and_error_lines(argv, fuzz_files, schema):
    code, out, lines = _run_in_process(argv, fuzz_files)
    assert code in (0, 1, 2, 3)
    assert not any("Traceback" in line for line in lines)
    if code in (2, 3):
        [line] = lines
        assert json.loads(line)["error"]["kind"]
    elif out and not out.startswith("#"):  # a JSON artifact, not a CSV one
        doc = _strict_json(out)
        assert doc["tool"]["name"] == "psdb"
        check_schema(doc, schema)


_DELTA_FORMULAS = ["bracket", "entropy_vs_bracket", "psi", "sparse_integral", "xi", "zeta"]
_P_FORMULAS = ["binary_entropy", "chi2_quantile", "entropy", "normal_quantile"]
_FORMATS = ["json", "csv"]
_LEMMAS = ["harmonic", "hypercontractivity", "moments", "variance", "maximal"]
# (prefix, flags always given, other flags): every combination of these
# values exits 0; sizes stay small and every written path lies under {out}
_GOOD_RUNS = [
    (("bounds", "eval"), {"--formula": _DELTA_FORMULAS, "--params": ["delta=0.3", "delta=0.7,label=a"]}, {}),
    (("bounds", "eval"), {"--formula": _P_FORMULAS, "--params": ["p=0.5", "p=0.1"]}, {}),
    (("bounds", "curve"), {"--formula": ["delta_star", "phi"] + _DELTA_FORMULAS + _P_FORMULAS,
                           "--grid": ["0:1:5", "0.1:0.9:3", "2:2:1"]}, {"--format": ["csv"]}),
    (("bounds", "curve"), {"--formula": ["thm1", "thm2"], "--grid": ["1:50:4", "2:2:1"]}, {}),
    (("widths", "estimate"), {"--kind": ["base-psd", "oracle:l2-ball", "oracle:l1-ball"], "--n": _SMALL,
                              "--trials": _TRIALS}, {"--format": _FORMATS}),
    (("widths", "estimate"), {"--kind": ["sparse-dual"], "--n": ["8"], "--k": _SMALL, "--trials": _TRIALS},
     {"--params": ["mode=greedy", "mode=exhaustive"], "--format": _FORMATS}),
    (("widths", "estimate"), {"--kind": ["general-dual"], "--family": ["{family}"], "--trials": _TRIALS},
     {"--n": ["6"], "--k": ["2"], "--format": _FORMATS}),
    (("widths", "estimate"), {"--kind": ["oracle:ellipsoid"], "--params": ["axes=1:2:3", "axes=2:1"],
                              "--trials": _TRIALS}, {"--format": _FORMATS}),
    (("cones", "member"), {"--matrix": ["{matrix}"], "--sparse-k": ["2", "3", "4", "6"]},
     {"--tol": ["1e-9", "0"], "--samples": ["5", "20"], "--refute": [None]}),
    (("cones", "member"), {"--matrix": ["{matrix}"], "--family": ["{family}"]}, {"--tol": ["1e-9", "0"]}),
    (("cones", "witness"), {"--n": ["3", "4", "8"], "--k": ["2", "3"]}, {"--matrix-out": ["{out}"]}),
    (("hypercube", "verify"), {"--lemma": _LEMMAS},
     {"--n": ["3", "4"], "--trials": ["10", "50"], "--lam": ["0.5", "2.718", "10"]}),
    (("figures",), {"--name": ["sparse-overview", "delta-star", "entropy-bracket", "xc-lower"],
                    "--out": ["{out}"]}, {"--grid": ["0:1:5", "1:50:4", "2:2:1"], "--format": ["csv"]}),
]


@st.composite
def _argv_one_bad(draw):
    """A run of _GOOD_RUNS with its other flags at chance 50% and --seed at
    chance 50%; then, at chance 50%, one of its non-path flags takes a bad
    value.  Returns the argv and whether a value was replaced."""
    prefix, always, optional = draw(st.sampled_from(_GOOD_RUNS))
    chosen = {flag: draw(st.sampled_from(values)) for flag, values in always.items()}
    for flag, values in [*optional.items(), ("--seed", ["0", "7", "12345"])]:
        if draw(st.booleans()):
            chosen[flag] = draw(st.sampled_from(values))
    spoilable = sorted(flag for flag, value in chosen.items() if value is not None and flag not in _PATHS)
    bad = bool(spoilable) and draw(st.booleans())
    if bad:
        chosen[draw(st.sampled_from(spoilable))] = draw(st.sampled_from(_BAD))
    argv = list(prefix)
    for flag, value in chosen.items():
        argv += [flag] if value is None else [flag, value]
    return argv, bad


def test_argv_fuzz_with_at_most_one_bad_flag_reaches_success(fuzz_files, schema):
    # the fuzz above draws a bad value for one flag in five, so nearly all
    # of its runs stop at a usage error; here a run has at most one
    codes = []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(drawn=_argv_one_bad())
    def run(drawn):
        argv, bad = drawn
        code, out, lines = _run_in_process(argv, fuzz_files)
        codes.append(code)
        assert code in (0, 1, 2, 3)
        assert not any("Traceback" in line for line in lines)
        assert bad or code == 0, (argv, lines)
        if code in (2, 3):
            [line] = lines
            assert json.loads(line)["error"]["kind"]
        elif code == 0 and out.startswith("#"):  # a CSV artifact
            assert any(line.startswith("# rerun=psdb ") for line in out.splitlines())
        elif code == 0 and out:  # a JSON artifact
            doc = _strict_json(out)
            check_schema(doc, schema)
            assert doc["rerun"].startswith("psdb ")

    run()
    assert len(codes) >= 100 and 3 * codes.count(0) >= len(codes), Counter(codes)


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
@pytest.mark.parametrize(
    "argv",
    [["bounds", "eval", "--formula", "xi", "--params", "delta=0.1"],
     ["bounds", "curve", "--formula", "xi", "--grid", "0.1:0.5:3"],
     ["cones", "witness", "--n", "3", "--k", "2"],
     ["figures", "--name", "delta-star", "--out", "{out}"],
     ["hypercube", "verify", "--lemma", "moments"]],
    ids=["bounds-eval", "bounds-curve", "cones-witness", "figures", "moments"],
)
def test_every_command_checks_the_seed(argv, seed, tmp_path):
    # commands that draw nothing still echo the seed, which must be a u64
    code, out, lines = _run_in_process(argv + ["--seed", seed], tmp_path)
    assert (code, out) == (2, "")
    [line] = lines
    error = json.loads(line)["error"]
    assert error["kind"] == "usage"
    assert error["message"].endswith(f"argument --seed: seed must be a 64-bit unsigned integer, got {seed}")


@pytest.mark.parametrize(
    "lemma, flags, code, needle",
    [
        ("harmonic", ["--lam", "inf"], 2, "lam"),
        ("harmonic", ["--lam", "nan"], 2, "lam"),
        ("harmonic", ["--lam", "0"], 2, "lam"),
        ("hypercontractivity", ["--params", "p=inf"], 2, "p >= 1"),
        ("hypercontractivity", ["--params", "p=nan"], 2, "p >= 1"),
        ("hypercontractivity", ["--params", "rho=nan"], 2, "rho"),
        ("hypercontractivity", ["--params", "p=1e308"], 3, "overflows"),
        ("hypercontractivity", ["--params", "rho=1,p=1e308"], 3, "overflows"),
        ("hypercontractivity", ["--params", "rho=1e-200"], 3, "overflows"),
    ],
)
def test_non_finite_lemma_parameters_give_one_error_line(lemma, flags, code, needle, tmp_path):
    # no numpy warning may precede the error line, and the error names the cause
    argv = ["hypercube", "verify", "--lemma", lemma, "--n", "4", "--trials", "3", *flags]
    got, out, lines = _run_in_process(argv, tmp_path)
    assert (got, out) == (code, "")
    [line] = lines
    assert needle in json.loads(line)["error"]["message"]


@pytest.mark.parametrize(
    "argv, code, needle",
    [
        (["hypercube", "verify", "--lemma", "moments", "--n", "3", "--lam", "nan"], 2, "'lam'"),
        (["hypercube", "verify", "--lemma", "maximal", "--trials", "5", "--lam", "inf"], 2,
         "'lam'"),
        (["hypercube", "verify", "--lemma", "variance", "--n", "3", "--trials", "5",
          "--params", "p=inf"], 2, "'p'"),
        (["bounds", "eval", "--formula", "delta_star", "--params", "eps=0,junk=nan"], 2,
         "'junk'"),
        (["bounds", "eval", "--formula", "bracket", "--params", "delta=0.5,eps=inf"], 2, "'eps'"),
        (["widths", "estimate", "--kind", "oracle:l2-ball", "--n", "2", "--trials", "10",
          "--params", "radius=1,x=inf"], 2, "'x'"),
        (["bounds", "eval", "--formula", "zeta", "--params", "delta=1e-320"], 3, "not finite"),
        (["bounds", "curve", "--formula", "zeta", "--grid", "1e-320:0.5:3"], 3, "not finite"),
        # no overflow warning from the oracle's arithmetic precedes the line
        (["widths", "estimate", "--kind", "oracle:l2-ball", "--n", "2", "--trials", "5",
          "--params", "radius=1e308"], 3, "returned a non-finite value at trial"),
    ],
    ids=["moments-lam-nan", "maximal-lam-inf", "variance-p-inf", "eval-junk-nan",
         "bracket-eps-inf", "oracle-param-inf", "zeta-value-inf", "zeta-curve-inf",
         "oracle-radius-overflow"],
)
def test_non_finite_numbers_never_reach_an_artifact(argv, code, needle, tmp_path):
    # strict JSON has no NaN or Infinity: a non-finite parameter is a usage
    # error, a non-finite computed value a numerical failure
    got, out, lines = _run_in_process(argv, tmp_path)
    assert (got, out) == (code, "")
    [line] = lines
    assert needle in json.loads(line)["error"]["message"]


@pytest.mark.parametrize(
    "argv, key",
    [(["bounds", "eval", "--formula", "phi", "--params", "delta=0.1,eps=nan", "--out", "{dest}"], "eps"),
     (["bounds", "curve", "--formula", "maximal", "--grid", "2:10:3", "--params", "v=1,c=nan",
       "--out", "{dest}"], "c"),
     (["bounds", "curve", "--formula", "delta_star", "--grid", "0:1:3", "--params", "tol=nan",
       "--out", "{dest}"], "tol"),
     (["figures", "--name", "delta-star", "--params", "tol=inf", "--out", "{dest}"], "tol")],
    ids=["eval-phi-eps-nan", "curve-maximal-c-nan", "curve-delta-star-tol-nan", "figures-tol-inf"],
)
def test_non_finite_formula_parameter_writes_nothing(argv, key, tmp_path, capsys):
    # checked before any formula runs: a NaN once reached the formula, which
    # ignored it, and figures wrote a file before it failed
    dest = tmp_path / "dest"
    code, out, err = run_cli([a.replace("{dest}", str(dest)) for a in argv], capsys)
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    error = json.loads(line)["error"]
    assert error["kind"] == "usage" and f"parameter {key!r} must be finite" in error["message"]
    assert not dest.exists()


# per widths kind: the flags beyond --kind, and the library estimator of the
# same set as a function of (trials, seed); "{family}" is a file holding
# coordinate_family(6, 2).  The oracle dimensions put block boundaries of
# the (seed, 0) stream inside the window.
_WINDOW_KINDS = {
    "base-psd": (["--n", "5"], lambda T, s: widths.width_base_psd(5, T, s)),
    "sparse-dual": (["--n", "6", "--k", "3"], lambda T, s: widths.width_dual_base_sparse(6, 3, T, s)),
    "general-dual": (["--family", "{family}"],
                     lambda T, s: widths.width_general_dual(coordinate_family(6, 2), T, s)),
    "oracle:l2-ball": (["--n", "1000", "--params", "radius=2"],
                       lambda T, s: widths.width_via_oracle(widths.l2_ball_oracle(1000, 2.0), T, s)),
    "oracle:l1-ball": (["--n", "3000"],
                       lambda T, s: widths.width_via_oracle(widths.l1_ball_oracle(3000), T, s)),
    "oracle:ellipsoid": (["--params", "axes=1:2:3"],
                         lambda T, s: widths.width_via_oracle(widths.ellipsoid_oracle([1, 2, 3]), T, s)),
}


@pytest.mark.parametrize("kind", sorted(_WINDOW_KINDS))
@pytest.mark.parametrize("trials, seed", [(70, 3), (129, 2**64 - 1)])
def test_widths_estimate_is_a_window_of_a_longer_run(kind, trials, seed, tmp_path, capsys):
    # the written estimate is that of the first T of 2T library trials:
    # neither the trial count nor the chunking moves a trial's value
    family = tmp_path / "fam.conefam"
    write_conefam(coordinate_family(6, 2), family)
    flags, estimator = _WINDOW_KINDS[kind]
    argv = ["widths", "estimate", "--kind", kind, "--trials", str(trials), "--seed", str(seed)]
    code, out, _ = run_cli([*argv, *(str(family) if f == "{family}" else f for f in flags)], capsys)
    assert code == 0
    written = json.loads(out)["estimate"]
    longer = estimator(2 * trials, seed).per_trial_values
    want = widths.WidthEstimate.from_values(longer[:trials], seed)
    assert (written["mean"].hex(), written["std_error"].hex()) == (want.mean.hex(), want.std_error.hex())


@pytest.mark.parametrize(
    "kind, trials", [("base-psd", 2000), ("oracle:l1-ball", 100_000)], ids=["matrix", "oracle"]
)
def test_widths_estimate_without_trials_uses_the_default(kind, trials, capsys):
    code, out, _ = run_cli(["widths", "estimate", "--kind", kind, "--n", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["trials"] is None and doc["estimate"]["trials"] == trials


def test_non_finite_payload_value_is_a_numerical_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_verify_moments", lambda n: (1, [], {"mean": math.nan}))
    got, out, lines = _run_in_process(["hypercube", "verify", "--lemma", "moments"], tmp_path)
    assert (got, out) == (3, "")
    [line] = lines
    assert "non-finite" in json.loads(line)["error"]["message"]


class TestSubprocessEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "psdbounds.cli", "bounds", "eval", "--formula",
             "delta_star", "--params", "eps=0"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0
        assert abs(json.loads(proc.stdout)["value"] - 0.137) <= 0.001

    # bounds and hypercube (with hypercube's fractions) load on first use, so
    # a process that only estimates widths or tests membership never runs them
    LAZY = ("psdbounds.bounds", "psdbounds.hypercube", "fractions")

    @staticmethod
    def fresh(code):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    @pytest.mark.parametrize("module", ["psdbounds", "psdbounds.cli"])
    def test_import_leaves_bounds_and_hypercube_unloaded(self, module):
        out = self.fresh(f"import sys, {module}; print(sorted(set({self.LAZY!r}) & set(sys.modules)))")
        assert out.strip() == "[]"

    def test_every_cli_function_hint_resolves(self):
        # the hints name bounds' types through the package, which loads it then
        functions = [f for f in vars(cli).values() if inspect.isfunction(f) and f.__module__ == cli.__name__]
        assert cli._curve_csv in functions
        for function in functions:
            typing.get_type_hints(function)
        assert typing.get_type_hints(cli._curve_csv)["curve"] is bounds.BoundCurve

    def test_attribute_access_loads_the_imported_module(self):
        out = self.fresh(
            "import sys, psdbounds\n"
            "lazy = psdbounds.hypercube\n"
            "import psdbounds.hypercube\n"
            "assert 'hypercube' in dir(psdbounds)\n"
            "print(lazy is psdbounds.hypercube is sys.modules['psdbounds.hypercube'])"
        )
        assert out.strip() == "True"

    def test_unknown_attribute_is_an_attribute_error(self):
        out = self.fresh(
            "import psdbounds\n"
            "try:\n"
            "    psdbounds.nosuch\n"
            "except AttributeError as exc:\n"
            "    print(exc)"
        )
        assert out.strip() == "module 'psdbounds' has no attribute 'nosuch'"

    @pytest.mark.parametrize(
        "argv,lazy_loaded",
        [
            ("bounds eval --formula delta_star --params eps=0", True),
            ("bounds curve --formula psi --grid 0.1:0.9:3", True),
            ("widths estimate --kind base-psd --n 4 --trials 10", False),
            ("cones witness --n 4 --k 2", False),
            ("hypercube verify --lemma moments --n 4", True),
            ("figures --name delta-star --out {tmp}", True),
        ],
        ids=["bounds-eval", "bounds-curve", "widths", "cones", "hypercube", "figures"],
    )
    def test_each_command_group_runs_as_a_module(self, argv, lazy_loaded, tmp_path):
        # python -v logs every module the run loads, lazily or not
        proc = subprocess.run(
            [sys.executable, "-v", "-m", "psdbounds.cli", *argv.format(tmp=tmp_path / "figs").split()],
            capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        loaded = set(re.findall(r"^import '([\w.]+)'", proc.stderr, re.MULTILINE))
        assert {"psdbounds", "psdbounds.cones", "psdbounds.widths"} <= loaded
        if lazy_loaded:
            assert "psdbounds.bounds" in loaded
        else:
            assert not loaded & set(self.LAZY)
