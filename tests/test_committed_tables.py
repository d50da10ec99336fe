"""Committed Betti tables against invariants that need no recomputation.

`data/sd_simplex4_gf2.json` is the table of sd(Delta^4), the barycentric
subdivision of the 4-simplex on 31 vertices, over GF(2), byte for byte as

    srbetti betti sd4.json --field gf2 --gate 31 --workers 2 --format json

prints it; CI regenerates it and compares the bytes.  Likewise
`data/sd2_simplex2_gf2.json` is the table of sd^2(Delta^2), the twice
subdivided triangle on 25 vertices, over GF(2), as

    srbetti betti sd2.json --field gf2 --gate 25 --format json

prints it at any worker count.
"""

import json
from math import comb
from pathlib import Path

import pytest

from srbetti.complexes import simplex
from srbetti.formulas import NONZERO, ZERO, predict_reg, predict_strand_bary
from srbetti.hochster import BettiTable, gorenstein_symmetry_check
from srbetti.homology import GF2
from srbetti.subdivision import barycentric, barycentric_iter

DATA = Path(__file__).parent / "data"


def load_table(name, field):
    blob = json.loads((DATA / name).read_text())
    assert blob["complete"] is True and blob["field"] == str(field)
    return BettiTable(blob["n"], field, {(e["i"], e["j"]): e["value"]
                                         for e in blob["entries"]})


def betti_numerator(table):
    """Coefficients of sum (-1)^i beta_{i,i+j} t^(i+j)."""
    coeffs = [0] * (table.n + 1)
    for (i, j), v in table.entries.items():
        coeffs[i + j] += (-1) ** i * v
    return coeffs


def face_numerator(f, n):
    """Coefficients of sum_k f_{k-1} t^k (1-t)^(n-k): the Hilbert series of
    the Stanley-Reisner ring on n variables times (1-t)^n, from the
    f-vector (f_-1, f_0, ...)."""
    coeffs = [0] * (n + 1)
    for k, fk in enumerate(f):
        for e in range(n - k + 1):
            coeffs[k + e] += (-1) ** e * comb(n - k, e) * fk
    return coeffs


@pytest.fixture(scope="module")
def sd4_gf2():
    return load_table("sd_simplex4_gf2.json", GF2)


def test_sd4_shape(sd4_gf2):
    assert sd4_gf2.n == 31
    assert len(sd4_gf2.entries) == 67 and all(sd4_gf2.entries.values())
    assert sd4_gf2.pdim() == 26 and sd4_gf2.reg() == 4
    assert sd4_gf2.entries[(0, 0)] == 1


def test_sd4_hilbert_series(sd4_gf2):
    c = barycentric(simplex(4))
    assert c.n == sd4_gf2.n
    assert betti_numerator(sd4_gf2) == face_numerator(c.f_vector(), c.n)


def test_sd4_gorenstein_duality(sd4_gf2):
    assert gorenstein_symmetry_check(sd4_gf2, 5)


def test_sd4_strand_predictions(sd4_gf2):
    """Every ZERO and NONZERO claim of the strand windows holds."""
    claims = 0
    for j in range(1, 5):
        prediction = predict_strand_bary(5, j)
        for i in range(prediction.pdim + 1):
            kind = prediction.kind(i)
            if kind == ZERO:
                assert sd4_gf2.entry(i, j) == 0, (i, j)
            elif kind == NONZERO:
                assert sd4_gf2.entry(i, j) != 0, (i, j)
            claims += kind in (ZERO, NONZERO)
    assert claims == 104


@pytest.fixture(scope="module")
def sd2_gf2():
    return load_table("sd2_simplex2_gf2.json", GF2)


def test_sd2_shape(sd2_gf2):
    assert sd2_gf2.n == 25
    assert len(sd2_gf2.entries) == 43 and all(sd2_gf2.entries.values())
    assert sd2_gf2.pdim() == 22 and sd2_gf2.reg() == 2
    assert sd2_gf2.entries[(0, 0)] == 1


def test_sd2_hilbert_series(sd2_gf2):
    c = barycentric_iter(simplex(2), 2)
    assert c.n == sd2_gf2.n
    assert betti_numerator(sd2_gf2) == face_numerator(c.f_vector(), c.n)


def test_sd2_strands_are_gap_free(sd2_gf2):
    """Strand 1 is nonzero exactly on [1, 21] and strand 2 on [2, 22]."""
    for j, (lo, hi) in ((1, (1, 21)), (2, (2, 22))):
        assert [i for i in range(sd2_gf2.n + 1)
                if sd2_gf2.entry(i, j)] == list(range(lo, hi + 1))


def test_sd2_regularity_as_predicted(sd2_gf2):
    assert sd2_gf2.reg() == predict_reg(simplex(2), GF2, "bary", 2).value
