"""The v1 text formats: symmat and conefam share one writer and one reader,
so each test here runs across both."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdbounds import cli
from psdbounds.cones import ConeFamily, SubspaceBasis, read_conefam, write_conefam
from psdbounds.linalg import SymmetricMatrix, read_symmat, write_symmat

MAX = 1.7976931348623157e308
TINY = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308]  # signed zeros, subnormals


def v1_text(header, rows):
    """The v1 convention spelled out: a header line of integers, then rows
    of floats at 17 significant digits, single spaces, each ending in a
    newline."""
    lines = [" ".join(str(h) for h in header)]
    lines += [" ".join(format(float(v), ".17g") for v in row) for row in rows]
    return "".join(line + "\n" for line in lines)


def any_floats():
    extremes = st.sampled_from(TINY + [MAX, -MAX])
    return st.one_of(extremes, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def symmats(draw):
    n = draw(st.integers(1, 6))
    size = n * (n + 1) // 2
    M = SymmetricMatrix(n, np.array(draw(st.lists(any_floats(), min_size=size, max_size=size))))
    rows, start = [], 0
    for length in range(n, 0, -1):
        rows.append(M.packed[start : start + length])
        start += length
    return M, M.packed, v1_text([n], rows)


@st.composite
def conefams(draw):
    """Signed coordinate bases, some turned by a plane rotation, with signed
    zeros, subnormals and tiny values where the entries are zero: the bases
    stay orthonormal to well within the constructor's drift bound, so it
    keeps their bits.  (No orthonormal column holds a value near 1e308.)"""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    bases = []
    for _ in range(draw(st.integers(1, 3))):
        cols = np.zeros((n, k))
        picked = draw(st.permutations(range(n)))[:k]
        for j, i in enumerate(picked):
            cols[i, j] = draw(st.sampled_from([1.0, -1.0]))
        if n > 1 and draw(st.booleans()):
            a, b = draw(st.permutations(range(n)))[:2]
            theta = draw(st.floats(0.0, 6.283))
            c, s = np.cos(theta), np.sin(theta)
            cols[[a, b]] = np.array([[c, -s], [s, c]]) @ cols[[a, b]]
        tiny = st.one_of(st.sampled_from(TINY), st.floats(-1e-20, 1e-20))
        for i, j in zip(*np.nonzero(cols == 0.0)):
            cols[i, j] = draw(tiny)
        bases.append(SubspaceBasis(n, k, cols))
    family = ConeFamily(n, tuple(bases))
    rows = [row for basis in family.bases for row in basis.columns]
    return family, family.stacked(), v1_text([n, k, len(bases)], rows)


FORMATS = {
    "symmat": (symmats(), write_symmat, read_symmat, lambda M: M.packed),
    "conefam": (conefams(), write_conefam, read_conefam, lambda family: family.stacked()),
}


@pytest.mark.parametrize("name", list(FORMATS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_round_trip_is_bit_exact_and_files_hold_the_v1_text(name, data, tmp_path_factory):
    strategy, write, read, values_of = FORMATS[name]
    obj, values, text = data.draw(strategy)
    path = tmp_path_factory.mktemp(name) / f"x.{name}"
    write(obj, path)
    assert path.read_bytes() == text.encode("ascii")
    got = values_of(read(path))
    assert got.shape == values.shape and got.tobytes() == values.tobytes()


@pytest.mark.parametrize("values", [[-0.0, 5e-324, MAX], [MAX, -MAX, -5e-324]])
def test_extreme_floats_round_trip(values, tmp_path):
    M = SymmetricMatrix(2, values)
    write_symmat(M, tmp_path / "m.symmat")
    assert read_symmat(tmp_path / "m.symmat").packed.tobytes() == M.packed.tobytes()


READERS = {"symmat": read_symmat, "conefam": read_conefam}

MALFORMED = [
    # headers the constructors reject, each with a payload that would fill it
    ("conefam", "-1 -1 1", "1\n"),
    ("conefam", "3 0 1", "1 0 0\n"),
    ("conefam", "2 3 1", "1 0 0\n0 1 0\n"),
    ("conefam", "3 1 0", ""),
    ("conefam", "2 1 -1", "1\n0\n"),
    ("symmat", "0", ""),
    ("symmat", "-3", "1\n"),
    # headers whose float count would not fit in memory: the count, not an
    # allocation, rejects them
    ("symmat", "1000000000000", "1\n"),
    ("conefam", "1000000000000 1 1", "1\n"),
    # headers that are not integers, or are cut short
    ("symmat", "", ""),
    ("symmat", "2.0", "1 0\n1\n"),
    ("conefam", "3 1", ""),
    ("conefam", "", ""),
    ("conefam", "1.5 1 1", "1\n"),
    # truncated payloads
    ("symmat", "2", "1.0 2.0\n"),
    ("conefam", "3 2 2", "1 0\n0 1\n0 0\n"),
    ("symmat", "3", "1 2 3\n4 5\n"),
    ("conefam", "2 1 1", "1\n"),
    # over-long payloads
    ("symmat", "1", "1.0 2.0\n"),
    ("conefam", "2 1 1", "1\n0\n5\n"),
    ("symmat", "2", "1 2\n3\n4\n"),
]


@pytest.mark.parametrize(
    "name, header, payload", MALFORMED, ids=[f"{n}:{h}:{len(p)}" for n, h, p in MALFORMED]
)
def test_malformed_input_is_rejected_naming_the_header(name, header, payload, tmp_path):
    path = tmp_path / f"bad.{name}"
    path.write_text(f"{header}\n{payload}" if header else payload)
    with pytest.raises(ValueError) as info:
        READERS[name](path)
    assert str(info.value).startswith(f"{name} header {header!r}: ")


NOT_A_NUMBER = [
    ("symmat", "2", "1 abc 3\n", 1, "abc"),
    ("symmat", "1", "0x1p3\n", 0, "0x1p3"),
    ("conefam", "2 1 1", "1\n--0\n", 1, "--0"),
    ("symmat", "2", "1 2\n1,5\n", 2, "1,5"),
    ("conefam", "1 1 2", "1\n-1e\n", 1, "-1e"),
]


@pytest.mark.parametrize(
    "name, header, payload, position, token",
    NOT_A_NUMBER,
    ids=[f"{n}:{h}:{t}" for n, h, _, _, t in NOT_A_NUMBER],
)
def test_payload_token_that_is_not_a_number_is_named_with_its_position(
    name, header, payload, position, token, tmp_path
):
    path = tmp_path / f"bad.{name}"
    path.write_text(f"{header}\n{payload}")
    with pytest.raises(ValueError) as info:
        READERS[name](path)
    assert str(info.value) == (
        f"{name} header {header!r}: payload float {position} (0-based) is not a number: {token!r}"
    )


@pytest.mark.parametrize(
    "matrix, family",
    [("3\n1 0 0\n1 0\n", "3 1 1\n1\n0\n0\n"), ("0\n", "3 1 1\n1\n0\n0\n"),
     ("1\n1\n", "-1 -1 1\n1\n"), ("1\n1\n", "1 1 1\n1\n2\n"),
     ("2\n1 abc 3\n", "2 1 1\n1\n0\n"), ("2\n1 0 1\n", "2 1 1\n1\nzero\n")],
    ids=["short-symmat", "bad-symmat-header", "bad-conefam-header", "long-conefam",
         "symmat-token", "conefam-token"],
)
def test_cli_exits_2_with_one_json_line(matrix, family, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("m.symmat").write_text(matrix)
    Path("f.conefam").write_text(family)
    assert cli.main(["cones", "member", "--matrix", "m.symmat", "--family", "f.conefam"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    error = json.loads(line)["error"]
    assert error["kind"] == "usage" and " header '" in error["message"]
