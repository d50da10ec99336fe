import random
from math import comb

import pytest

from srbetti.complexes import (
    GateError,
    cycle,
    from_facets,
    path,
    simplex,
    simplex_boundary,
    stacked_sphere,
)
from srbetti.asymptotics import asymptotic_window
from srbetti.homology import GF2, QQ, reduced_betti
from srbetti.formulas import (
    NONZERO,
    SEQUENCE_GATE,
    UNKNOWN,
    ZERO,
    admissible_sequences,
    labels_to_vertices,
    perturbation_cases,
    perturbation_inequality,
    predict_reg,
    predict_strand_bary,
    predict_strand_edgewise,
    predict_t1_edgewise,
    reg_after_subdivision,
    sphere_family,
    sphere_family_degree,
    strand_start_bruteforce,
    strand_start_closed,
    verify_predictions,
)
from srbetti.hochster import graded_betti_table
from srbetti.subdivision import barycentric, barycentric_iter, edgewise


class TestStrandStart:
    def test_low_strands_equal_j(self):
        assert strand_start_closed(4, 2) == 2
        for d in range(2, 12):
            for j in range(1, d // 2 + 1):
                assert strand_start_closed(d, j) == j

    def test_examples(self):
        assert strand_start_closed(3, 2) == 4
        assert strand_start_closed(5, 3) == 5
        assert strand_start_closed(4, 3) == 11

    def test_bruteforce_examples(self):
        assert strand_start_bruteforce(3, 2) == 4
        assert strand_start_bruteforce(5, 3) == 5
        for d in range(2, 10):
            assert strand_start_bruteforce(d, 1) == 1

    def test_sequences_gated_above_the_default_dmax(self):
        from srbetti import cli

        argv = ["verify", "mj"]
        assert SEQUENCE_GATE >= cli.build_parser(argv).parse_args(argv).dmax
        assert admissible_sequences(SEQUENCE_GATE, 1) == [(0,)]
        with pytest.raises(GateError):
            admissible_sequences(SEQUENCE_GATE + 1, 1)

    def test_oracle_equivalence(self):
        for d in range(2, 17):
            for j in range(1, d):
                assert strand_start_closed(d, j) == strand_start_bruteforce(d, j)

    def test_last_strand_value(self):
        for d in range(2, 17):
            assert strand_start_closed(d, d - 1) == 2 ** d - d - 1

    def test_range_check(self):
        with pytest.raises(ValueError):
            strand_start_closed(4, 0)
        with pytest.raises(ValueError):
            strand_start_closed(4, 4)


class TestPredictStrandBary:
    def test_d3_j1(self):
        p = predict_strand_bary(3, 1)
        assert p.nonzeros == [1, 2, 3]
        assert p.zeros == [0, 4]
        assert p.unknowns == []

    def test_d4_j2(self):
        p = predict_strand_bary(4, 2)
        assert p.nonzeros == list(range(2, 11))
        assert p.zeros == [0, 1, 11]

    def test_d5_j3(self):
        p = predict_strand_bary(5, 3)
        assert p.zeros == [0, 1, 2, 26]
        assert p.unknowns == [3, 4]
        assert p.nonzeros == list(range(5, 26))

    def test_last_strand(self):
        for d in (2, 3, 4, 5):
            p = predict_strand_bary(d, d - 1)
            assert p.nonzeros == [2 ** d - d - 1]

    def test_total_classification(self):
        for d in (3, 4, 5, 6):
            pdim = 2 ** d - d - 1
            for j in range(1, d):
                p = predict_strand_bary(d, j)
                assert p.pdim == pdim
                assert sorted(p.zeros + p.nonzeros + p.unknowns) == list(range(pdim + 1))

    def test_endpoints_at_d20(self):
        # p + 1 = 2^20 - 20 entries per strand, read off four endpoints
        d = 20
        p = (1 << d) - d - 1
        for j in range(1, d):
            pred = predict_strand_bary(d, j)
            if j == d - 1:
                expected = (p, p, p, p)
            else:
                dual = d - 1 - j
                expected = (j, strand_start_closed(d, j),
                            p - strand_start_closed(d, dual), p - dual)
            assert (pred.j, pred.pdim) == (j, p)
            assert (pred.lo, pred.start, pred.end, pred.hi) == expected, j


class TestPredictStrandEdgewise:
    def test_d3_j1(self):
        p = predict_strand_edgewise(3, 1, 3)
        assert p.nonzeros == list(range(1, 8))
        assert p.zeros == [0]

    def test_d3_j2(self):
        p = predict_strand_edgewise(3, 2, 3)
        assert p.nonzeros == [4, 5, 6, 7]
        assert p.zeros == [0, 1]
        assert p.unknowns == [2, 3]

    def test_d4_j3(self):
        p = predict_strand_edgewise(4, 3, 4)
        assert p.nonzeros == list(range(11, 32))

    def test_requires_r_at_least_d(self):
        with pytest.raises(ValueError):
            predict_strand_edgewise(3, 1, 2)


# -- three-branch window rules, kept as oracles for the duality rule -----------


def _pieces_oracle(pdim, pieces):
    cls = {}
    for lo, hi, kind in pieces:
        for i in range(max(lo, 0), min(hi, pdim) + 1):
            cls[i] = kind
    assert sorted(cls) == list(range(pdim + 1))
    return cls


def _bary_oracle(d, j):
    pdim = (1 << d) - d - 1
    if j == d - 1:
        return _pieces_oracle(pdim, [(0, pdim, ZERO), (pdim, pdim, NONZERO)])
    if 2 * j <= d:
        upper_nz = (1 << d) - d - 1 - strand_start_closed(d, d - j - 1)
        zero_from = (1 << d) - 2 * d + j + 1
        return _pieces_oracle(pdim, [
            (0, j - 1, ZERO),
            (j, upper_nz, NONZERO),
            (upper_nz + 1, zero_from - 1, UNKNOWN),
            (zero_from, pdim, ZERO),
        ])
    m = strand_start_closed(d, j)
    upper_nz = (1 << d) - 2 * d + j
    return _pieces_oracle(pdim, [
        (0, j - 1, ZERO),
        (j, m - 1, UNKNOWN),
        (m, upper_nz, NONZERO),
        (upper_nz + 1, pdim, ZERO),
    ])


def _edgewise_oracle(d, j, n_vertices):
    pdim = n_vertices - d
    if j == d - 1:
        start = (1 << d) - 1 - d
        return _pieces_oracle(pdim, [
            (0, j - 1, ZERO), (j, start - 1, UNKNOWN), (start, pdim, NONZERO)])
    if 2 * j <= d:
        return _pieces_oracle(pdim, [(0, j - 1, ZERO), (j, pdim, NONZERO)])
    m = strand_start_closed(d, j)
    return _pieces_oracle(pdim, [
        (0, j - 1, ZERO), (j, m - 1, UNKNOWN), (m, pdim, NONZERO)])


def _windows_oracle(rep):
    d, pdim, depth, offset = rep["d"], rep["pdim"], rep["depth"], rep["offset"]
    windows = {}
    for j in range(1, d):
        if j == d - 1:
            lo = (1 << d) - d - 1
            tail = (1 << d) - d - 1
        elif 2 * j <= d:
            lo = j
            tail = (1 << d) - d - 1 - strand_start_closed(d, d - j - 1)
        else:
            lo = strand_start_closed(d, j)
            tail = (1 << d) - 2 * d + j
        if rep["mode"] == "bary":
            hi = pdim + depth - offset + tail
        else:
            hi = comb(2 * d - 1, d - 1) - d + pdim + depth - offset
        windows[j] = (lo, hi)
    return windows


class TestWindowsAgainstBranchOracle:
    def test_bary_classifications(self):
        for d in range(2, 13):
            for j in range(1, d):
                pred = predict_strand_bary(d, j)
                got = {i: pred.kind(i) for i in range(pred.pdim + 1)}
                assert got == _bary_oracle(d, j), (d, j)

    def test_edgewise_classifications(self):
        # r = d: the d-th edgewise subdivision has C(2d-1, d-1) vertices
        for d in range(2, 9):
            n = comb(2 * d - 1, d - 1)
            for j in range(1, d):
                pred = predict_strand_edgewise(d, j, d)
                got = {i: pred.kind(i) for i in range(pred.pdim + 1)}
                assert got == _edgewise_oracle(d, j, n)

    @pytest.mark.parametrize("mode", ["bary", "edgewise"], ids=["bary", "edge"])
    def test_simplex_windows(self, mode):
        for d in range(2, 7):
            rep = asymptotic_window(simplex(d - 1), 3 if mode == "bary" else 2 * d,
                                    mode)
            assert rep["windows"] == _windows_oracle(rep), d

    def test_bary_gorenstein_duality(self):
        # beta_{i,i+j} = beta_{p-i,p-i+d-1-j}; strand 0 is beta_{0,0} alone
        for d in range(2, 13):
            p = (1 << d) - d - 1
            kinds = {0: {i: ZERO for i in range(p + 1)} | {0: NONZERO}}
            for j in range(1, d):
                pred = predict_strand_bary(d, j)
                kinds[j] = [pred.kind(i) for i in range(pred.pdim + 1)]
            for j in range(1, d):
                for i in range(p + 1):
                    assert kinds[j][i] == kinds[d - 1 - j][p - i], (d, i, j)


class TestPredictT1:
    def test_sphere_drops(self):
        assert predict_t1_edgewise(simplex_boundary(2), 2) == 2
        sub = edgewise(simplex_boundary(2), 2)
        assert sub.t1() == 2

    def test_cone_keeps(self):
        cone = from_facets([[0, 1, 3], [0, 2, 3], [1, 2, 3]], 4)
        assert predict_t1_edgewise(cone, 2) == 3
        assert edgewise(cone, 2).t1() == 3

    def test_flag(self, c6):
        assert predict_t1_edgewise(c6, 2) == 2

    def test_simplex(self):
        assert predict_t1_edgewise(simplex(2), 2) == 2

    def test_matches_direct_computation(self, c6):
        for c in (c6, simplex_boundary(2),
                  from_facets([[0, 1, 3], [0, 2, 3], [1, 2, 3]], 4),
                  from_facets([[0, 1, 2]], 4)):
            # edgewise drops ghost ids: id 3 of the last input, id 0 of each copy
            ghosted = from_facets([[v + 1 for v in f] for f in c.facets], c.n + 1)
            for g in (c, ghosted):
                for r in (2, 3):
                    assert predict_t1_edgewise(g, r) == edgewise(g, r).t1()


class TestPredictReg:
    def test_sphere_any_r(self):
        p = predict_reg(simplex_boundary(2), QQ, "edgewise", 1)
        assert (p.value, p.exact) == (2, True)

    def test_edge_r3(self):
        p = predict_reg(simplex(1), QQ, "edgewise", 3)
        assert (p.value, p.exact) == (1, True)

    def test_rp2_by_field(self, rp2):
        assert predict_reg(rp2, GF2, "bary", 1).value == 3
        assert predict_reg(rp2, QQ, "bary", 1).value == 2

    def test_below_threshold_lower_bound(self, rp2):
        p = predict_reg(rp2, QQ, "edgewise", 2)
        assert not p.exact
        assert p.value == 2


class TestRegAfterSubdivision:
    def test_top_homology_above_gate_needs_no_witness(self):
        # r = 2 < d = 3: no vertex has d positive coordinates, but the top
        # cycle settles reg = d
        sphere = stacked_sphere(2, 8)
        mode, r = "edgewise", 2
        p = predict_reg(sphere, QQ, mode, r)
        assert (p.value, p.exact) == (3, True)
        assert reg_after_subdivision(sphere, mode, r, QQ) == 3
        assert reg_after_subdivision(sphere, mode, r, QQ, vertex_gate=22) == 3

    @pytest.mark.parametrize("field", [QQ, GF2], ids=str)
    def test_bary_r2_above_the_gate_matches_the_table(self, field):
        # the cycle settles reg = d by its top homology, the paths by the
        # link of an edge's barycentre in sd^2
        for base in (cycle(3), simplex(1), path(4)):
            table = graded_betti_table(barycentric_iter(base, 2), field)
            assert reg_after_subdivision(base, "bary", 2, field,
                                         vertex_gate=2) == table.reg()

    @pytest.mark.parametrize("field", [QQ, GF2], ids=str)
    def test_bary_r2_witness_in_dimension_2(self, field):
        # sd^2 of a triangle has 25 vertices and no top homology: the link
        # of a top face's barycentre in sd^2 pins reg = 2
        assert reg_after_subdivision(simplex(2), "bary", 2, field) == 2

    def test_witness_is_certified_by_betti_witness(self, monkeypatch, rp2):
        # sd(RP^2) has 31 vertices and no rational top homology, so reg = 2
        # rests on one witness subset, which betti_witness must certify
        from srbetti import formulas

        assert reg_after_subdivision(rp2, "bary", 1, QQ) == 2
        monkeypatch.setattr(formulas, "betti_witness", lambda *args: [])
        with pytest.raises(ValueError, match="witness"):
            reg_after_subdivision(rp2, "bary", 1, QQ)

    def test_lower_bound_only_is_gated(self):
        with pytest.raises(GateError, match="lower bound"):
            reg_after_subdivision(barycentric(simplex(2)), "edgewise", 2, QQ,
                                  vertex_gate=14)


class TestSphereFamily:
    def test_sizes(self):
        w, c = sphere_family(5, (0, 1))
        assert [len(x) for x in w] == [2, 6]
        assert len(c) == 6
        w, c = sphere_family(4, (0, 0))
        assert [len(x) for x in w] == [2, 2]

    def test_single_factor_is_sd_boundary(self, sd_simplex2):
        w, c = sphere_family(3, (1,))
        assert len(w) == 1 and len(w[0]) == 6 and not c
        verts = labels_to_vertices(sd_simplex2, w[0])
        sub = sd_simplex2.induced(verts)
        b = reduced_betti(sub, QQ)
        assert b == {-1: 0, 0: 0, 1: 1}

    def test_count_formulas(self):
        for d in (4, 5, 6):
            for j in range(1, d):
                for seq in admissible_sequences(d, j):
                    w, c = sphere_family(d, seq)
                    union = set().union(*w)
                    assert len(union) == sum(2 ** (i + 2) - 2 for i in seq)
                    if len(seq) >= 2:
                        expected = ((2 ** (seq[-1] + 2) - 2)
                                    * 2 ** (sum(seq[1:-1]) + 2 * len(seq) - 4))
                        assert len(c) == expected

    def test_homology_concentrated(self):
        sd = barycentric(simplex(4))
        for seq in [(0, 1), (1, 0), (0, 0)]:
            w, cset = sphere_family(5, seq)
            union = set().union(*w)
            sub = sd.induced(labels_to_vertices(sd, union))
            b = reduced_betti(sub, GF2)
            deg = sphere_family_degree(seq)
            assert all((v == 1 if k == deg else v == 0) for k, v in b.items())

    def test_extension_set_is_inert(self):
        sd = barycentric(simplex(4))
        w, cset = sphere_family(5, (0, 1))
        union = set().union(*w)
        deg = sphere_family_degree((0, 1))
        rng = random.Random(5)
        pool = sorted(cset, key=sorted)
        for _ in range(6):
            d_sub = rng.sample(pool, rng.randint(0, len(pool)))
            sub = sd.induced(labels_to_vertices(sd, union | set(d_sub)))
            b = reduced_betti(sub, GF2)
            assert all((v == 1 if k == deg else v == 0) for k, v in b.items())

    def test_budget_violation(self):
        with pytest.raises(ValueError):
            sphere_family(4, (0, 1))  # needs d >= 5

    @staticmethod
    def family_by_bitmasks(d, seq):
        """The families enumerated over bitmasks, kept as the oracle."""
        r = len(seq)
        bounds = [sum(seq[:l]) + 2 * l for l in range(r + 1)]

        def proper(block):
            full = (1 << len(block)) - 1
            return [frozenset(x for i, x in enumerate(block) if mask >> i & 1)
                    for mask in range(1, full)]

        w_sets = [{s | frozenset(range(bounds[l - 1]))
                   for s in proper(range(bounds[l - 1], bounds[l]))}
                  for l in range(1, r + 1)]
        c_set = set()
        if r >= 2:
            pool = range(seq[0] + 2, bounds[r - 1])
            for a in proper(range(bounds[r - 1], bounds[r])):
                for mask in range(1 << len(pool)):
                    c_set.add(a | {x for i, x in enumerate(pool) if mask >> i & 1})
        return w_sets, c_set

    def test_matches_the_bitmask_enumeration(self):
        count = 0
        for d in range(2, 13):
            for j in range(1, d):
                for seq in admissible_sequences(d, j):
                    assert sphere_family(d, seq) == self.family_by_bitmasks(d, seq)
                    count += 1
        assert count == 259


class TestPerturbationInequalities:
    def test_examples(self):
        # d=6, j=4 admits exactly one sequence per branch
        assert perturbation_inequality(6, 4, (0, 2))
        assert perturbation_inequality(6, 4, (1, 1))
        assert perturbation_inequality(5, 3, (0, 1))

    def test_exhaustive_to_d10(self):
        for d in range(3, 11):
            for j, seq in perturbation_cases(d):
                assert perturbation_inequality(d, j, seq)

    def test_hypothesis_checked(self):
        with pytest.raises(ValueError):
            perturbation_inequality(6, 2, (0, 0))  # j below d/2
        with pytest.raises(ValueError):
            perturbation_inequality(6, 4, (1, 0, 1))  # not monotone


class TestVerifyPredictions:
    def test_bary_d2(self):
        rep = verify_predictions("bary", 2, field=QQ)
        assert rep["ok"] and not rep["observations"]

    def test_bary_d3(self):
        rep = verify_predictions("bary", 3, field=QQ)
        assert rep["ok"] and not rep["observations"]

    def test_bary_is_for_one_subdivision(self):
        assert verify_predictions("bary", 3, r=1, field=QQ)["r"] == 1
        with pytest.raises(ValueError, match="r = 1, got r=3"):
            verify_predictions("bary", 3, r=3)

    def test_edgewise_d3(self):
        rep = verify_predictions("edgewise", 3, r=3, field=QQ)
        assert rep["ok"]
        # the unresolved stretch of the last strand is observed, not asserted
        assert {(o["i"], o["j"]) for o in rep["observations"]} == {(2, 2), (3, 2)}
