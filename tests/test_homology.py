from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from srbetti import homology
from srbetti.complexes import (
    from_facets,
    path,
    simplex,
    simplex_boundary,
    stacked_attach,
)
from srbetti.homology import (
    GF2,
    QQ,
    FieldSpec,
    boundary_columns,
    boundary_rank,
    gf2_rank,
    gfp_rank,
    int_rank,
    kernel_basis,
    nullspace,
    reduced_betti,
    top_homology_nonzero,
)
from srbetti.subdivision import barycentric


def random_complexes():
    return st.integers(2, 6).flatmap(
        lambda n: st.lists(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=n),
            min_size=1, max_size=6,
        ).map(lambda fs: from_facets([sorted(f) for f in fs], n)))


class TestFieldSpec:
    def test_parse(self):
        assert FieldSpec.parse("q") == QQ
        assert FieldSpec.parse("gf2") == GF2
        assert FieldSpec.parse("GF7").p == 7
        with pytest.raises(ValueError):
            FieldSpec.parse("gf6")
        with pytest.raises(ValueError):
            FieldSpec.parse("real")

    def test_characteristic(self):
        # one integer: the characteristic, 0 for the rationals
        assert QQ.p == 0 and GF2.p == 2
        assert (str(QQ), str(GF2), str(FieldSpec.parse("gf3"))) == ("Q", "GF(2)", "GF(3)")
        for text in ("gf0", "gf1"):
            with pytest.raises(ValueError):
                FieldSpec.parse(text)

    def test_parse_names_a_bad_suffix(self):
        for text in ("gf", "gfx"):
            with pytest.raises(ValueError, match=repr(text)):
                FieldSpec.parse(text)

    def test_prime_below_2_31(self, monkeypatch):
        # 2^31 - 1 takes at most 46,341 trial divisions
        assert FieldSpec.parse("gf2147483647").p == 2147483647
        # the next prime, 2147483659, and 2^61 - 1 are refused before any
        monkeypatch.setattr(homology, "_is_prime", None)
        for p in (2147483659, (1 << 61) - 1):
            with pytest.raises(ValueError, match=r"below 2\^31"):
                FieldSpec.parse(f"gf{p}")


class TestBoundaryMatrix:
    def test_edge(self):
        c = simplex(1)
        # rows are the vertices, columns the edge
        assert c.faces_of_dim(0) == ((0,), (1,))
        # deleting vertex 0 leaves row (1,) with sign +1, vertex 1 leaves
        # row (0,) with sign -1
        assert boundary_columns(c, 1) == ((1, 0),)

    def test_augmentation(self):
        # degree 0 has the empty face as its one row
        c = path(1)
        assert c.faces_of_dim(-1) == ((),)
        assert boundary_columns(c, 0) == ((0,),)

    def test_cycle_rank(self, c6):
        cols = boundary_columns(c6, 1)
        assert (len(c6.faces_of_dim(0)), len(cols)) == (6, 6)
        assert boundary_rank(cols, GF2) == 5
        assert boundary_rank(cols, QQ) == 5

    def test_out_of_range(self, c6):
        for k in (-1, 3):
            with pytest.raises(ValueError):
                boundary_columns(c6, k)

    @given(random_complexes())
    @settings(max_examples=40, deadline=None)
    def test_boundary_squares_to_zero(self, c):
        for k in range(1, c.dim):
            lower = boundary_columns(c, k)
            for col in boundary_columns(c, k + 1):
                acc = {}
                for i, ri in enumerate(col):
                    for j, rj in enumerate(lower[ri]):
                        acc[rj] = acc.get(rj, 0) + (-1) ** (i + j)
                assert all(v == 0 for v in acc.values())


def _rank_by_fractions(rows):
    """Pivot count of a plain Fraction elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    rank = 0
    for c in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(nr):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _rank_mod_p(rows, p):
    """Pivot count of a plain elimination mod p with normalized pivots."""
    m = [[x % p for x in r] for r in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    rank = 0
    for c in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(rank + 1, nr):
            f = m[i][c]
            m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@st.composite
def int_matrices(draw):
    """Integer matrices up to 8 x 8; some rows combine earlier ones."""
    nr, nc = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = st.integers(-4, 4)
    rows = []
    for _ in range(nr):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ka, kb = draw(entry), draw(entry)
            rows.append([ka * x + kb * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=nc, max_size=nc)))
    return rows


class TestRank:
    def test_zero_and_identity(self):
        assert int_rank([[0, 0], [0, 0]]) == 0
        assert int_rank([[1, 0], [0, 1]]) == 2
        assert gfp_rank([[2, 4], [1, 2]], 5) == 1
        assert gf2_rank([0b11, 0b01, 0b10]) == 2

    def test_int_rank_matches_fraction_elimination(self):
        import random

        rng = random.Random(7)
        for _ in range(30):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
            assert int_rank(rows) == _rank_by_fractions(rows)

    @given(int_matrices())
    @settings(max_examples=150, deadline=None)
    def test_ranks_match_plain_elimination(self, rows):
        assert int_rank(rows) == _rank_by_fractions(rows)
        for p in (2, 3, 5, 7):
            assert gfp_rank(rows, p) == _rank_mod_p(rows, p)

    def test_minors_divisible_by_a_31_bit_prime(self):
        m31, m61 = (1 << 31) - 1, (1 << 61) - 1
        # the only nonzero 3 x 3 minor of the second is m31 * m61: the
        # unimodular left factor mixes the rows, the last column is zero
        mixed = [[sum(u * x for u, x in zip(urow, col)) for col in
                  zip([m31, 0, 0, 0], [0, m61, 0, 0], [0, 0, 1, 0])]
                 for urow in ([1, 2, 3], [0, 1, 4], [0, 0, 1])]
        for rows, rank in (([[m31, 0], [0, 1]], 2), (mixed, 3)):
            assert int_rank(rows) == _rank_by_fractions(rows) == rank
            # a single 31-bit prime loses a pivot
            assert gfp_rank(rows, m31) == rank - 1

    def test_mersenne_table(self):
        # Lucas-Lehmer: 2^e - 1 is prime iff s_{e-2} = 0 mod 2^e - 1
        for e in homology._MERSENNE:
            m, s = (1 << e) - 1, 4
            for _ in range(e - 2):
                s = (s * s - 2) % m
            assert s == 0, e
        assert list(homology._MERSENNE) == sorted(set(homology._MERSENNE))
        assert homology._MERSENNE[0] == 31

    def test_refuses_past_the_table(self):
        with pytest.raises(ValueError, match="Hadamard"):
            int_rank([[2 ** 4500]])

    def test_bound_takes_the_largest_columns_only(self):
        # a bound over all 6,000 columns would be 3^6000 > 2^4423; the
        # largest three give 27
        import random

        rng = random.Random(11)
        rows = [[rng.choice((-1, 1)) for _ in range(6000)] for _ in range(2)]
        for extra, rank in (([rng.choice((-1, 1)) for _ in range(6000)], 3),
                            ([-x for x in rows[0]], 2)):
            full = [*rows, extra]
            assert int_rank(full) == _rank_by_fractions(full) == rank

    @given(st.integers(1, 5).flatmap(lambda nc: st.lists(
        st.lists(st.integers(-(1 << 70), 1 << 70), min_size=nc, max_size=nc),
        min_size=1, max_size=5)))
    @settings(max_examples=100, deadline=None)
    def test_large_entries_match_fraction_elimination(self, rows):
        # products of entries pass 2^61 - 1, so larger primes are taken
        rows = rows + [[a - b for a, b in zip(rows[0], rows[-1])]]
        assert int_rank(rows) == _rank_by_fractions(rows)

    @given(int_matrices())
    @settings(max_examples=150, deadline=None)
    def test_nullspace(self, rows):
        nc = len(rows[0])
        for p in (2, 3, 5):
            # column c is free iff it depends on the columns before it
            free = [c for c in range(nc)
                    if _rank_mod_p([r[:c + 1] for r in rows], p)
                    == _rank_mod_p([r[:c] for r in rows], p)]
            basis = nullspace(rows, nc, p)
            assert len(basis) == nc - _rank_mod_p(rows, p) == len(free)
            for k, v in enumerate(basis):
                assert [v[c] for c in free] == [int(i == k) for i in range(len(free))]
                assert all(0 <= x < p for x in v)
                for r in rows:
                    assert sum(a * x for a, x in zip(r, v)) % p == 0
        # kernels are computed over GF(p) only
        with pytest.raises(ValueError, match="GF"):
            nullspace(rows, nc, 0)


def _full_rows(columns, nr):
    """The nr x len(columns) boundary matrix, with a row for every row id
    in 0..nr-1 whether or not a column uses it."""
    m = [[0] * len(columns) for _ in range(nr)]
    for ci, col in enumerate(columns):
        for j, ri in enumerate(col):
            m[ri][ci] = (-1) ** j
    return m


class TestRowsTheColumnsUse:
    @given(random_complexes(), st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_against_full_rows(self, c, ghosts, data):
        # ghost ids, one below every id in a face, and a random subset of
        # each degree's columns leave rows that no column uses
        c = from_facets([[v + 1 for v in f] for f in c.facets], c.n + ghosts)
        for k in range(c.dim + 1):
            cols = boundary_columns(c, k)
            keep = data.draw(st.lists(st.booleans(), min_size=len(cols),
                                      max_size=len(cols)))
            sub = [col for col, kept in zip(cols, keep) if kept]
            full = _full_rows(sub, len(c.faces_of_dim(k - 1)))
            assert boundary_rank(sub, GF2) == _rank_mod_p(full, 2)
            assert boundary_rank(sub, FieldSpec.prime(3)) == _rank_mod_p(full, 3)
            assert boundary_rank(sub, QQ) == _rank_by_fractions(full)
            for p in (2, 3):
                assert kernel_basis(c, k, p) == nullspace(
                    _full_rows(cols, len(c.faces_of_dim(k - 1))), len(cols), p)


class TestReducedBetti:
    def test_circle(self, c6):
        assert reduced_betti(c6, QQ) == {-1: 0, 0: 0, 1: 1}

    def test_projective_plane_field_dependence(self, rp2):
        assert reduced_betti(rp2, GF2) == {-1: 0, 0: 0, 1: 1, 2: 1}
        assert reduced_betti(rp2, QQ) == {-1: 0, 0: 0, 1: 0, 2: 0}
        assert reduced_betti(rp2, FieldSpec.prime(3)) == {-1: 0, 0: 0, 1: 0, 2: 0}

    def test_hexagon_is_sd_boundary(self):
        sd = barycentric(simplex_boundary(2))
        assert reduced_betti(sd, QQ)[1] == 1

    def test_empty_complex(self):
        c = from_facets([], 0)
        assert reduced_betti(c, QQ) == {-1: 1}

    def test_spheres_agree_across_fields(self):
        for d in (1, 2, 3):
            c = simplex_boundary(d)
            for field in (QQ, GF2, FieldSpec.prime(5)):
                b = reduced_betti(c, field)
                assert b[d - 1] == 1
                assert all(v == 0 for k, v in b.items() if k != d - 1)

    @given(random_complexes())
    @settings(max_examples=30, deadline=None)
    def test_euler_characteristic(self, c):
        f = c.f_vector()
        reduced_chi = sum((-1) ** k * f[k + 1] for k in range(len(f) - 1)) - 1
        for field in (QQ, GF2):
            b = reduced_betti(c, field)
            assert sum((-1) ** k * v for k, v in b.items()) == reduced_chi


def _join(a, b):
    facets = []
    for f in a.facets:
        for g in b.facets:
            facets.append(tuple(f) + tuple(v + a.n for v in g))
    return from_facets(facets, a.n + b.n)


def test_join_of_spheres():
    # S^a * S^b is a sphere of dimension a+b+1
    cases = [(0, 0), (0, 1), (1, 1)]
    for da, db in cases:
        j = _join(simplex_boundary(da + 1), simplex_boundary(db + 1))
        b = reduced_betti(j, QQ)
        target = da + db + 1
        assert all((v == 1 if k == target else v == 0) for k, v in b.items())


class TestTopCycles:
    def test_solid_triangle(self):
        assert not top_homology_nonzero(simplex(2), QQ)

    def test_kernel_is_in_kernel(self):
        c = stacked_attach(simplex_boundary(2), 1, (0,))
        columns = boundary_columns(c, 1)
        basis = kernel_basis(c, 1, 3)
        assert len(basis) == 1
        for vec in basis:
            image = {}
            for ci, x in enumerate(vec):
                if not x:
                    continue
                for i, ri in enumerate(columns[ci]):
                    image[ri] = image.get(ri, 0) + x * (-1) ** i
            assert all(v % 3 == 0 for v in image.values())
        with pytest.raises(ValueError):
            kernel_basis(c, 1, QQ.p)
