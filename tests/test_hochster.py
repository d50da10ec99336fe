import contextlib
import itertools
import math
import multiprocessing
import os
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from oracle_koszul import koszul_betti_gf2
from srbetti import hochster, homology
from srbetti.complexes import (
    cycle,
    from_facets,
    path,
    rp2_six,
    simplex,
    simplex_boundary,
    stacked_attach,
)
from srbetti.homology import GF2, QQ, FieldSpec, reduced_betti
from srbetti.hochster import (
    VertexGateError,
    betti_witness,
    gorenstein_symmetry_check,
    graded_betti_table,
    pdim_after_barycentric,
    ring_invariants,
    strand_profile,
)
from srbetti.subdivision import barycentric, edgewise

GF3 = FieldSpec.prime(3)


def naive_table(c, field):
    """Hochster's formula summed over every vertex subset W, each induced
    subcomplex built and ranked on its own."""
    entries = {}
    for w in range(1 << c.n):
        verts = [v for v in range(c.n) if w >> v & 1]
        for deg, b in reduced_betti(c.induced(verts), field).items():
            if b:
                key = (len(verts) - deg - 1, deg + 1)
                entries[key] = entries.get(key, 0) + b
    return entries


def link_class(c, w, v, field):
    """Brute force: the class `hochster._link_class` gives the link of v in
    Delta_W, read off the reduced Betti numbers of that link built from
    scratch; a ghost of Delta_W copies."""
    verts = [u for u in range(c.n) if w >> u & 1]
    sub = c.induced(verts)
    x = verts.index(v)
    if (x,) not in sub.face_set:
        return hochster._COPY
    betti = reduced_betti(sub.link((x,)), field)
    if any(b for deg, b in betti.items() if deg >= 1):
        return hochster._HIGHER
    comps = betti.get(0, 0) - betti[-1] + 1
    return hochster._COPY if comps == 1 else 3 + comps


def cone(c):
    """The cone over c, its apex the new vertex c.n."""
    return from_facets([(*f, c.n) for f in c.facets], c.n + 1)


def ranked_subsets(monkeypatch):
    """A list that collects each W the loop ranks outright: the
    `_induced_betti` calls on the faces of the table's own payload."""
    build, induced = hochster._payload, hochster._induced_betti
    payloads, ranked = [], []

    def record_payload(c, field):
        payloads.append(build(c, field))
        return payloads[-1]

    def record(w, masks, *rest):
        if masks is payloads[-1].masks:
            ranked.append(w)
        return induced(w, masks, *rest)

    monkeypatch.setattr(hochster, "_payload", record_payload)
    monkeypatch.setattr(hochster, "_induced_betti", record)
    return ranked


def induced_betti(c, w, field):
    """(b_-1, b_0, ...) of the subcomplex induced on the set w, trailing
    zeros dropped, from the complex built from scratch."""
    betti = reduced_betti(c.induced([v for v in range(c.n) if w >> v & 1]), field)
    out = [betti[k] for k in range(-1, max(betti) + 1)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def live_part(c):
    """c on the ids that lie in its faces, relabelled 0..m-1 in order: the
    complex `graded_betti_table` runs its subset loop on, up to labels."""
    live = sorted(set().union(*c.facets))
    label = {v: i for i, v in enumerate(live)}
    return from_facets([[label[v] for v in f] for f in c.facets], len(live))


def random_complexes(max_n=9):
    """Complexes on up to max_n ambient vertices; facets of up to four
    vertices give non-flag complexes, and ids in no facet are ghosts."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=4),
            min_size=1, max_size=7,
        ).map(lambda fs: from_facets([sorted(f) for f in fs], n)))


class TestTable:
    def test_subdivided_edge(self):
        t = graded_betti_table(barycentric(simplex(1)), QQ)
        assert t.entries == {(0, 0): 1, (1, 1): 1}

    def test_hexagon(self, c6):
        t = graded_betti_table(c6, QQ)
        assert t.entry(1, 1) == 9
        assert t.entry(4, 2) == 1
        assert t.pdim() == 4
        assert t.entries == {(0, 0): 1, (1, 1): 9, (2, 1): 16, (3, 1): 9, (4, 2): 1}

    def test_subdivided_triangle_strands(self, sd_simplex2):
        t = graded_betti_table(sd_simplex2, QQ)
        assert sorted(t.strand(1)) == [1, 2, 3]
        assert sorted(t.strand(2)) == [4]

    def test_polynomial_ring(self):
        t = graded_betti_table(simplex(3), QQ)
        assert t.entries == {(0, 0): 1}
        assert t.reg() == 0 and t.pdim() == 0

    def test_gate(self, c6):
        with pytest.raises(VertexGateError):
            graded_betti_table(c6, QQ, vertex_gate=5)

    def test_worker_partition_invariance(self, monkeypatch):
        # 2^10 subsets in 64 blocks of 2^4: on 4 CPUs, workers 2, 3 and 4
        # fork that many processes
        monkeypatch.setattr(hochster, "BLOCK_BITS", 4)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        c = edgewise(simplex(2), 3)
        t1 = graded_betti_table(c, GF2, workers=1)
        for workers in (2, 3, 4):
            assert graded_betti_table(c, GF2, workers=workers).entries == t1.entries

    @pytest.mark.parametrize("cpus, processes", [(3, 3), (None, 1)])
    def test_pool_bounded_by_cpu_count(self, monkeypatch, cpus, processes):
        # 3 or 8 workers on 3 CPUs: min(workers, CPUs, blocks) processes,
        # each given one task; an unknown CPU count, or a table of one
        # block, runs in this process, with no pool
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        asked, tasks = [], []

        def starmap(fn, chunks):
            tasks.append(len(chunks))
            return list(itertools.starmap(fn, chunks))

        def pool(size):
            asked.append(size)
            return contextlib.nullcontext(SimpleNamespace(starmap=starmap))

        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: SimpleNamespace(Pool=pool))
        c = edgewise(simplex(2), 3)  # 2^10 subsets
        serial = graded_betti_table(c, GF2).entries
        assert graded_betti_table(c, GF2, workers=8).entries == serial
        assert asked == tasks == []   # one block
        monkeypatch.setattr(hochster, "BLOCK_BITS", 4)   # 64 blocks
        for workers in (3, 8):
            assert graded_betti_table(c, GF2, workers=workers).entries == serial
        runs = [processes] * 2 if processes > 1 else []
        assert asked == tasks == runs

    def test_cone_at_pool_size(self, monkeypatch):
        # the apex of a cone is adjacent to all other vertices.  Every
        # induced subcomplex is planar or a cone, so there is no torsion
        # and Q gives the GF(2) table.  16 vertices are one block and ask
        # for no pool; a second apex makes two blocks, which fork
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        context, asked = multiprocessing.get_context, []

        def pool(size):
            asked.append(size)
            return context("fork").Pool(size)

        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: SimpleNamespace(Pool=pool))
        c = cone(edgewise(simplex(2), 4))
        assert c.n == hochster.BLOCK_BITS
        expected = graded_betti_table(c, GF2).entries
        for field in (GF2, QQ):
            for workers in (1, 2):
                assert graded_betti_table(c, field, workers=workers).entries == expected
        assert asked == []
        c = cone(c)
        expected = graded_betti_table(c, GF2).entries
        assert graded_betti_table(c, GF2, workers=2).entries == expected
        assert asked == [2]

    def test_ranked_subsets_ignore_the_worker_count(self, monkeypatch):
        """Blocks are the same at every worker count, so the loop ranks the
        same subsets: 2^10 subsets in 64 blocks, run through a pool that
        maps in this process."""
        monkeypatch.setattr(hochster, "BLOCK_BITS", 4)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        pool = SimpleNamespace(
            starmap=lambda fn, chunks: list(itertools.starmap(fn, chunks)))
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(
            Pool=lambda size: contextlib.nullcontext(pool)))
        ranked, c = ranked_subsets(monkeypatch), edgewise(simplex(2), 3)
        runs = []
        for workers in (1, 2, 3):
            ranked.clear()
            graded_betti_table(c, GF2, workers=workers)
            runs.append(sorted(ranked))
        assert len(runs[0]) >= 64 and runs[1] == runs[0] and runs[2] == runs[0]

    def test_fields_agree_on_torsion_free_fixtures(self, c6, sd_simplex3):
        # sd(simplex(3)) and edgewise(simplex(2), 4) embed in R^3, so by
        # Alexander duality every induced subcomplex is torsion-free
        for c in (c6, simplex_boundary(3), path(4), barycentric(simplex(2)),
                  sd_simplex3, edgewise(simplex(2), 4)):
            a = graded_betti_table(c, QQ).entries
            for field in (GF2, GF3, FieldSpec.prime(5)):
                assert graded_betti_table(c, field).entries == a


class TestAgainstNaiveOracle:
    """The subset loop against the per-subset sum, at every worker count."""

    @pytest.fixture(autouse=True, scope="class")
    def shared_pool(self):
        # blocks of 2^4 subsets: a table of 2^5 subsets and more runs
        # workers 2 and 3 in a pool, as on 3 CPUs.  One fork pool of 2
        # serves every table, which still hands out its blocks in 2 or 3
        # shares and merges them
        with multiprocessing.get_context("fork").Pool(2) as pool, \
                pytest.MonkeyPatch.context() as mp:
            mp.setattr(hochster, "BLOCK_BITS", 4)
            mp.setattr(os, "cpu_count", lambda: 3)
            shared = SimpleNamespace(
                Pool=lambda workers: contextlib.nullcontext(pool))
            mp.setattr(multiprocessing, "get_context", lambda method: shared)
            yield

    @given(random_complexes(), st.sampled_from([QQ, GF2, GF3]))
    @example(from_facets([(0, 1), (1, 2), (0, 2), (2, 3, 4), (4, 5, 6, 7)], 9), QQ)
    @settings(max_examples=60, deadline=None)
    def test_random_complexes(self, c, field):
        expected = naive_table(c, field)
        for workers in (1, 2, 3):
            assert graded_betti_table(c, field, workers=workers).entries == expected
        if field == GF2:
            assert koszul_betti_gf2(c) == expected

    @given(random_complexes(), st.sampled_from([QQ, GF2, GF3]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_vertex_permutation_invariance(self, c, field, data):
        perm = data.draw(st.permutations(range(c.n)))
        moved = from_facets([[perm[v] for v in f] for f in c.facets], c.n)
        assert (graded_betti_table(moved, field).entries
                == graded_betti_table(c, field).entries)

    @pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
    def test_rp2(self, rp2, field):
        expected = naive_table(rp2, field)
        for workers in (1, 2, 3):
            assert graded_betti_table(rp2, field, workers=workers).entries == expected

    @given(random_complexes(8), st.sampled_from([QQ, GF2, GF3]))
    @settings(max_examples=40, deadline=None)
    def test_every_subset_against_its_induced_complex(self, c, field):
        """The rank of each W on its own, collapse-free or not, against
        homology of the induced subcomplex built from scratch, on the ids
        that lie in faces, as the loop sees them."""
        c = live_part(c)
        p = hochster._payload(c, field)
        for w in range(1 << c.n):
            assert (hochster._induced_betti(w, p.masks, p.bnds, p.nbr, field)
                    == induced_betti(c, w, field))

    @given(random_complexes(8), st.sampled_from([QQ, GF2, GF3]))
    @example(cone(cycle(6)), GF2)
    @example(from_facets([(*e, x) for e in cycle(6).facets for x in (6, 7)], 8), QQ)
    @settings(max_examples=40, deadline=None)
    def test_link_classes_against_links(self, c, field):
        """A full loop classifies each (v, W & N(v)) at most once, and every
        class it uses is that of the link of v in Delta_W.  The apex of a
        cone is adjacent to every other vertex; the suspension of a hexagon
        has links with higher homology, so its search steps classify
        vertices that their own blocks classified already."""
        c = live_part(c)
        payload = hochster._payload(c, field)
        owner = {id(link): v for v, link in enumerate(payload.links)}
        classify, used = hochster._link_class, {}

        def record(nw, link, field):
            key = owner[id(link)], nw
            assert key not in used, "classified twice"
            used[key] = classify(nw, link, field)
            return used[key]

        with mock.patch.object(hochster, "_link_class", record):
            hochster._blocks(payload, [0], 1 << c.n)
        for (v, nw), d in used.items():
            assert nw & ~payload.nbr[v] == 0
            assert d == link_class(c, nw | 1 << v, v, field)

    @given(random_complexes(7), st.sampled_from([QQ, GF2, GF3]))
    @example(rp2_six(), GF2)
    @example(rp2_six(), GF3)
    @settings(max_examples=20, deadline=None)
    def test_every_aligned_split(self, c, field):
        """Blocks of 2^t subsets for every t, at workers 1 and 3: W copies
        or steps only from its own block, and each block ranks its first
        subset and what it cannot reach."""
        expected = naive_table(c, field)
        for t in range(c.n + 1):
            with mock.patch.object(hochster, "BLOCK_BITS", t):
                for workers in (1, 3):
                    assert (graded_betti_table(c, field, workers=workers).entries
                            == expected)

    def test_ghosts_shift_the_live_table(self, monkeypatch):
        """16 ghosts on cycle(10): the loop visits only the 2^10 subsets of
        the cycle's ids, and each ghost shifts the table one step in i, so
        beta_{i+k, i+k+j} gains C(16, k) beta_{i, i+j} of the cycle."""
        c, ghosts = cycle(10), 16
        ghosted = from_facets(c.facets, c.n + ghosts)
        visited, accumulate = [], hochster._accumulate

        def record(payload, lo, hi, known):
            visited.append(hi - lo)
            return accumulate(payload, lo, hi, known)

        monkeypatch.setattr(hochster, "_accumulate", record)
        expected = Counter()
        for (i, j), b in naive_table(c, GF2).items():
            for k in range(ghosts + 1):
                expected[(i + k, j)] += math.comb(ghosts, k) * b
        assert graded_betti_table(ghosted, GF2, vertex_gate=ghosted.n).entries == expected
        assert sum(visited) == 1 << c.n

    @pytest.mark.parametrize("build, ranked", [
        (lambda: simplex_boundary(3), "empty and full"),
        (rp2_six, "empty and full"),
        (lambda: barycentric(simplex_boundary(3)), "empty and full"),
        (lambda: cycle(6), "empty"),
    ], ids=["boundary3", "rp2", "sd_boundary3", "cycle6"])
    @pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=str)
    def test_closed_manifolds_rank_only_the_ends(self, build, ranked, field,
                                                 monkeypatch):
        """Every proper subset of these complexes copies or takes a
        Mayer-Vietoris step; the loop ranks only W = {} and, where a vertex
        link has higher homology, the whole vertex set.  Cut into four
        blocks, it also ranks each block's first subset.  (Smaller blocks
        of sd_boundary3, of 2^8 subsets or fewer, rank more: a block
        cannot step on its fixed high vertices.)"""
        c, seen = build(), ranked_subsets(monkeypatch)
        full = (1 << c.n) - 1
        ends = [full] if ranked == "empty and full" else []
        for bits in (c.n, c.n - 2):
            monkeypatch.setattr(hochster, "BLOCK_BITS", bits)
            seen.clear()
            graded_betti_table(c, field)
            assert seen == [*range(0, full, 1 << bits), *ends]

    @pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=str)
    def test_one_dimensional_complex_needs_no_rank(self, field, monkeypatch):
        """H~_0 comes from a component count and a graph has no higher
        boundary, so no rank kernel runs."""
        edges = [(i, (i + 1) % 8) for i in range(8)] + [(8, 9), (9, 10)]
        c = from_facets(edges, 11)  # cycle(8) plus a disjoint path
        expected = naive_table(c, field)

        def no_rank(*_):
            raise AssertionError("rank kernel called")

        for name in ("gf2_rank", "gfp_rank", "int_rank"):
            monkeypatch.setattr(homology, name, no_rank)
        assert graded_betti_table(c, field).entries == expected

    def test_collapses_leave_few_subsets_to_rank(self, sd_simplex3, monkeypatch):
        # one block, as at the default 2^16 subsets: the class runs blocks
        # of 2^4, and each ranks its first subset
        monkeypatch.setattr(hochster, "BLOCK_BITS", sd_simplex3.n)
        calls = []
        rank = homology.gf2_rank
        monkeypatch.setattr(homology, "gf2_rank", lambda cols: calls.append(1) or rank(cols))
        graded_betti_table(sd_simplex3, GF2)
        assert 0 < len(calls) < (1 << sd_simplex3.n) // 100


class TestStepMap:
    """The Mayer-Vietoris steps the loop takes by lookup, without a
    component search."""

    @given(random_complexes(8), st.sampled_from([QQ, GF2, GF3]))
    @example(from_facets([(0, 1), (1, 2), (2, 3, 4)], 6), QQ)
    @settings(max_examples=40, deadline=None)
    def test_answers_against_induced_complexes(self, c, field):
        """For every W and every v in W whose link is not acyclic, an
        answer from W - v's homology and v's link class is the homology of
        Delta_W."""
        betti = [induced_betti(c, w, field) for w in range(1 << c.n)]
        for w in range(1, 1 << c.n):
            for v in range(c.n):
                if w >> v & 1:
                    d = link_class(c, w, v, field)
                    if d != hochster._COPY:
                        answer = hochster._mv_betti(betti[w ^ 1 << v], d)
                        assert answer in (None, betti[w])

    @pytest.mark.parametrize("prev, d, answer", [
        ((1,), hochster._ISOLATED, ()),   # W = {v}: a point
        ((0, 1), hochster._ISOLATED, (0, 2)),   # a third component
        ((), 3 + 2, (0, 0, 1)),   # two link points on a path close a cycle
        ((0, 0, 1), 3 + 3, (0, 0, 3)),
        ((0, 1), 3 + 2, None),   # W - v disconnected: needs the search
        ((), hochster._HIGHER, None),
        ((1,), hochster._HIGHER, None),
    ])
    def test_examples(self, prev, d, answer):
        assert hochster._mv_betti(prev, d) == answer

    def test_disconnected_rest_needs_the_search(self):
        # the path 0 - 1 - 2: without 1, W = {0, 1, 2} is two points
        c = path(3)
        w, v = 0b111, 1
        d = link_class(c, w, v, QQ)
        assert d == 3 + 2
        assert hochster._mv_betti(induced_betti(c, w ^ 1 << v, QQ), d) is None

    def test_each_key_is_filled_once(self, monkeypatch):
        """The map answers each (W - v's homology, class) once per range,
        however many subsets share it."""
        c = edgewise(simplex(2), 3)
        payload, calls = hochster._payload(c, GF2), []
        step = hochster._mv_betti

        def fill(prev, d, comps=None):
            if comps is None:   # a step-map fill; search steps pass c(W)
                calls.append((prev, d))
            return step(prev, d, comps)

        monkeypatch.setattr(hochster, "_mv_betti", fill)
        hochster._blocks(payload, [0], 1 << c.n)
        assert calls and len(calls) == len(set(calls))

    @pytest.mark.parametrize("build", [lambda: simplex_boundary(3), rp2_six],
                             ids=["boundary3", "rp2"])
    @pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=str)
    def test_component_search_runs_only_to_rank(self, build, field, monkeypatch):
        """Every induced subcomplex of these is connected, so no step needs
        a component search: components are counted only inside a ranked
        W or a link being classified."""
        c = build()
        payload = hochster._payload(c, field)
        induced, components = hochster._induced_betti, hochster._components
        inside, ranked, stray = [], [], []

        def rank(w, masks, *rest):
            inside.append(masks is payload.masks)
            try:
                return induced(w, masks, *rest)
            finally:
                inside.pop()

        def search(w, nbr):
            if not inside:
                stray.append(w)
            elif inside[-1]:
                ranked.append(w)
            return components(w, nbr)

        monkeypatch.setattr(hochster, "_induced_betti", rank)
        monkeypatch.setattr(hochster, "_components", search)
        hochster._blocks(payload, [0], 1 << c.n)
        assert stray == []
        assert ranked == [(1 << c.n) - 1]


class TestAgainstKoszulOracle:
    """Hochster-side tables must equal Koszul homology dimensions."""

    @pytest.mark.parametrize("build", [
        lambda: path(3),
        lambda: simplex_boundary(2),
        lambda: cycle(4),
        lambda: cycle(5),
        lambda: from_facets([[0, 1, 3], [0, 2, 3], [1, 2, 3]], 4),  # cone
        lambda: stacked_attach(cycle(3), 2, (0,)),
    ])
    def test_small_instances(self, build):
        c = build()
        assert c.n <= 6
        assert koszul_betti_gf2(c) == graded_betti_table(c, GF2).entries


def test_flag_complexes_vanish_below_diagonal(c6, sd_simplex2):
    from srbetti.subdivision import edgewise

    flag_fixtures = [c6, sd_simplex2, barycentric(c6),
                     edgewise(simplex(2), 3)]
    for c in flag_fixtures:
        assert c.is_flag()
        t = graded_betti_table(c, GF2)
        assert all(i >= j for (i, j), v in t.entries.items() if v)


def test_t1_of_barycentric_is_two(c6, pendants):
    for c in (c6, simplex(2), simplex_boundary(2), pendants):
        assert barycentric(c).t1() == 2


def test_reg_stable_under_second_subdivision():
    from srbetti.subdivision import barycentric_iter

    base = simplex_boundary(2)
    for r in (1, 2):
        t = graded_betti_table(barycentric_iter(base, r), QQ)
        assert t.reg() == 2


class TestWitness:
    def test_non_adjacent_pair(self, c6):
        certs = betti_witness(c6, QQ, [0, 3])
        assert certs == [(1, 1, 1)]

    def test_simplex_has_none(self):
        assert betti_witness(simplex(2), QQ, [0, 1]) == []

    def test_sphere_family_member(self, sd_simplex3):
        # vertices below one triangle of the tetrahedron: an induced 1-sphere
        w = [i for i, lab in enumerate(sd_simplex3.labels)
             if lab < frozenset({0, 1, 2})]
        certs = betti_witness(sd_simplex3, QQ, w)
        assert (len(w) - 2, 2, 1) in certs

    def test_sphere_family_witness_on_sd4(self):
        from srbetti.formulas import labels_to_vertices, sphere_family

        sd4 = barycentric(simplex(4))
        w_sets, _ = sphere_family(5, (0, 1))
        w = labels_to_vertices(sd4, set().union(*w_sets))
        assert betti_witness(sd4, QQ, w) == [(5, 3, 1)]


class TestStrandProfile:
    def test_sd_triangle(self, sd_simplex2):
        t = graded_betti_table(sd_simplex2, QQ)
        p1 = strand_profile(t, 1)
        assert (p1.l, p1.u, p1.zero_set) == (1, 3, ())
        p2 = strand_profile(t, 2)
        assert (p2.l, p2.u) == (4, 4)

    def test_hexagon_strand2(self, c6):
        t = graded_betti_table(c6, QQ)
        p = strand_profile(t, 2)
        assert (p.l, p.u) == (4, 4)

    def test_empty_strand(self, c6):
        t = graded_betti_table(c6, QQ)
        assert strand_profile(t, 5).empty


class TestRingInvariants:
    def test_hexagon(self, c6):
        inv = ring_invariants(graded_betti_table(c6, QQ), c6)
        assert inv == {"dim": 2, "reg": 2, "pdim": 4, "depth": 2, "t1": 2}

    def test_sd_triangle(self, sd_simplex2):
        t = graded_betti_table(sd_simplex2, QQ)
        inv = ring_invariants(t, sd_simplex2)
        assert (inv["reg"], inv["pdim"], inv["depth"]) == (2, 4, 3)

    def test_rp2_regularity_depends_on_field(self, rp2):
        assert graded_betti_table(rp2, GF2).reg() == 3
        assert graded_betti_table(rp2, QQ).reg() == 2

    def test_pdim_transfer(self, c6):
        base = graded_betti_table(simplex(2), QQ)
        assert pdim_after_barycentric(base, simplex(2)) == 4
        t6 = graded_betti_table(c6, QQ)
        sd = barycentric(c6)
        assert pdim_after_barycentric(t6, c6) == graded_betti_table(sd, QQ).pdim()
        # vertex 2 lies in no face: it counts in n but not in f_0
        ghost = from_facets([(0, 1)], 3)
        t = graded_betti_table(ghost, QQ)
        assert graded_betti_table(barycentric(ghost), QQ).pdim() == 1
        assert pdim_after_barycentric(t, ghost) == 1


class TestGorenstein:
    def test_sd_triangle(self, sd_simplex2):
        t = graded_betti_table(sd_simplex2, QQ)
        assert gorenstein_symmetry_check(t, 3)

    def test_hexagon(self, c6):
        t = graded_betti_table(c6, QQ)
        assert gorenstein_symmetry_check(t, 3)

    def test_failure_detected(self, pendants):
        # a non-Gorenstein complex with six vertices must fail d=3 symmetry
        c = stacked_attach(cycle(3), 3, (0,))
        t = graded_betti_table(c, QQ)
        assert not gorenstein_symmetry_check(t, 3)
