"""Closed-form strand constants and strand predictions, with verification.

The central quantity is the strand-start constant for the barycentric
subdivision of a simplex: for 1 <= j <= d-1 the minimal number of
vertices carrying an induced (j-1)-sphere is j plus a minimum of
sum(2^(i_l + 2) - 2) over integer sequences subject to

    i_1 + ... + i_r + (r - 1) = j - 1    and    i_1 + ... + i_r + 2r <= d.

The closed form resolves this minimum with a Euclidean division; the
brute-force enumeration below is kept deliberately independent so the two
can be checked against each other.

Every strand window follows from m(j) = `strand_start_closed(d, j)`.  The
barycentric subdivision of the (d-1)-simplex is Gorenstein with
p = pdim = 2^d - d - 1, so beta_{i,i+j} = beta_{p-i,p-i+d-1-j}: strand j
is nonzero from m(j), and reflecting the start of its dual strand d-1-j
gives the end p - m(d-1-j).  The edgewise subdivision (r >= d) is
Cohen-Macaulay, and each strand is nonzero from m(j) to its pdim; the last
strand starts at m(d-1) = 2^d - d - 1.  `predict_strand_bary` and
`predict_strand_edgewise` hold these rules as the endpoints of each strand's
windows (`StrandPrediction`); everything else reads them.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from math import comb
from typing import NamedTuple

from .complexes import GateError, simplex
from .homology import GF2, top_homology_nonzero
from .hochster import (DEFAULT_VERTEX_GATE, VertexGateError, betti_witness,
                       check_vertex_gate, graded_betti_table)
from .subdivision import subdivide

ZERO = "zero"
NONZERO = "nonzero"
UNKNOWN = "unknown"

# the admissible sequences of d, over all strands, grow like the partitions
# of d: 37,337 at d = 40, whose splicing check took 0.27 s (Python 3.11 on a
# shared 2-CPU machine); each further 4 doubles that
SEQUENCE_GATE = 40


def strand_start_closed(d, j):
    """Closed form of the strand-start constant.

    Equals j for j <= d/2; otherwise write 2j - d = a(d-j) + c with
    0 <= c < d-j and return 2^(a+2) (c + d - j) - 2d + j.
    """
    if not 1 <= j <= d - 1:
        raise ValueError(f"need 1 <= j <= d-1, got j={j}, d={d}")
    if 2 * j <= d:
        return j
    a, c = divmod(2 * j - d, d - j)
    return (1 << (a + 2)) * (c + d - j) - 2 * d + j


def _monotone_sequences(total, parts):
    """Weakly increasing nonnegative integer sequences with given sum."""

    def rec(remaining, parts_left, minimum):
        if parts_left == 1:
            if remaining >= minimum:
                yield (remaining,)
            return
        for first in range(minimum, remaining // parts_left + 1):
            for rest in rec(remaining - first, parts_left - 1, first):
                yield (first,) + rest

    return rec(total, parts, 0)


def strand_start_bruteforce(d, j):
    """Exhaustive minimization oracle for the strand-start constant: the
    minimum of the objective over `admissible_sequences`, which lists every
    admissible length r (both constraints force r <= min(j, d-j)) and, the
    objective being symmetric, one weakly increasing sequence per multiset.
    """
    if not 1 <= j <= d - 1:
        raise ValueError(f"need 1 <= j <= d-1, got j={j}, d={d}")
    return min(sum((1 << (i + 2)) - 2 for i in seq)
               for seq in admissible_sequences(d, j)) - j


def admissible_sequences(d, j):
    """All weakly increasing sequences satisfying the two strand
    constraints for the given d and j; GateError above d = SEQUENCE_GATE."""
    if d > SEQUENCE_GATE:
        raise GateError(f"admissible sequences gated at d <= {SEQUENCE_GATE}, got d={d}")
    out = []
    for r in range(1, min(j, d - j) + 1):
        out.extend(_monotone_sequences(j - r, r))
    return out


# -- strand predictions -------------------------------------------------------


class StrandPrediction(NamedTuple):
    """Zero / nonzero / unknown classification of strand j over
    0 <= i <= pdim, by its endpoints: zero outside [lo, hi], nonzero on
    [start, end] and unknown on the rest of [lo, hi]."""

    j: int
    pdim: int
    lo: int
    start: int
    end: int
    hi: int

    def kind(self, i):
        if not self.lo <= i <= self.hi:
            return ZERO
        return NONZERO if self.start <= i <= self.end else UNKNOWN

    def of(self, kind):
        return [i for i in range(self.pdim + 1) if self.kind(i) == kind]

    @property
    def zeros(self):
        return self.of(ZERO)

    @property
    def nonzeros(self):
        return self.of(NONZERO)

    @property
    def unknowns(self):
        return self.of(UNKNOWN)


def predict_strand_bary(d, j):
    """Strand classification for the barycentric subdivision of the
    (d-1)-simplex, over 0 <= i <= p = 2^d - d - 1.

    With m the strand-start constant and j' = d-1-j the dual strand, strand
    j <= d-2 is zero below j, unresolved on [j, m(j)-1], nonzero on
    [m(j), p-m(j')], unresolved up to p-j' and zero beyond.  The upper half
    is the lower half of strand j' reflected by the Gorenstein duality
    beta_{i,i+j} = beta_{p-i,p-i+j'}.  The last strand is dual to strand 0,
    which is beta_{0,0} alone, so it is nonzero exactly at i = p.
    """
    if not 1 <= j <= d - 1:
        raise ValueError(f"need 1 <= j <= d-1, got j={j}, d={d}")
    p = (1 << d) - d - 1
    if j == d - 1:
        return StrandPrediction(j, p, p, p, p, p)
    dual = d - 1 - j
    return StrandPrediction(j, p, j, strand_start_closed(d, j),
                            p - strand_start_closed(d, dual), p - dual)


def predict_strand_edgewise(d, j, r):
    """Strand classification for the r-th edgewise subdivision of the
    (d-1)-simplex, valid for r >= d.

    Its vertices are the C(r+d-1, d-1) compositions of r into d parts.  The
    subdivided simplex triangulates a ball, so the ring is Cohen-Macaulay
    and pdim = C(r+d-1, d-1) - d; strand j is zero below j,
    unresolved on [j, m(j)-1] and nonzero from m(j) to pdim.  For the last
    strand m(d-1) = 2^d - d - 1.
    """
    if not 1 <= j <= d - 1:
        raise ValueError(f"need 1 <= j <= d-1, got j={j}, d={d}")
    if r < d:
        raise ValueError("strand windows for edgewise subdivision need r >= d")
    pdim = comb(r + d - 1, d - 1) - d
    return StrandPrediction(j, pdim, j, strand_start_closed(d, j), pdim, pdim)


# -- t1 and regularity predictions ---------------------------------------------


def predict_t1_edgewise(c, r):
    """Largest generator degree of the face ring after edgewise subdivision.

    Flag complexes and simplices give 2.  Otherwise the value is t1 or
    t1 - 1: it stays t1 exactly when some maximal-size minimal non-face F
    admits a vertex v with boundary(F) * v inside the complex.
    """
    if r < 2:
        raise ValueError("the trichotomy applies for r >= 2")
    c = c.induced([v for (v,) in c.faces_of_dim(0)])   # edgewise drops ghost ids
    t1 = c.t1()
    if t1 <= 2:   # without ghosts no minimal non-face is a vertex: c is flag
        return 2
    faces = c.face_set
    keeps = any(all(tuple(sorted(f[:i] + f[i + 1:] + (v,))) in faces for i in range(t1))
                for f in c.minimal_non_faces(t1)
                for v in range(c.n) if v not in f)
    return t1 if keeps else t1 - 1


class RegPrediction(NamedTuple):
    value: int
    exact: bool


def predict_reg(c, field, mode, r):
    """Predicted regularity of subdivide(c, mode, r).

    The limiting value is d-1 when the top reduced homology of c vanishes
    over the field and d otherwise, and it is exact for every barycentric
    subdivision.  For edgewise subdivision with r < d and vanishing top
    homology only the lower bound max(reg, r-1) is claimed, and the result
    is flagged as inexact.
    """
    d = c.dim + 1
    top = top_homology_nonzero(c, field)
    w = d if top else d - 1
    if mode == "bary":
        return RegPrediction(w, True)
    if mode != "edgewise":
        raise ValueError(f"unknown subdivision mode {mode!r}")
    if top or r >= d:
        return RegPrediction(w, True)
    base_reg = graded_betti_table(c, field).reg()
    return RegPrediction(max(base_reg, r - 1), False)


# -- induced-sphere families ----------------------------------------------------


def sphere_family(d, seq):
    """Vertex-label families that induce a (j-1)-sphere inside the
    barycentric subdivision of the (d-1)-simplex.

    Each W_l is a set of proper nonempty subsets of {0..d-1} (the labels
    of subdivision vertices); the induced complex on their union is the
    join of subdivided simplex boundaries, a sphere.  The companion set C
    consists of labels whose addition, in any combination, does not change
    the homology of the last factor.  C is empty for a single factor.
    """
    seq = tuple(seq)
    r = len(seq)
    if r == 0 or any(i < 0 for i in seq):
        raise ValueError("need a nonempty sequence of nonnegative integers")
    if sum(seq) + 2 * r > d:
        raise ValueError(f"sequence {seq} violates the vertex budget for d={d}")
    bounds = [0, *accumulate(i + 2 for i in seq)]   # factor l's labels: [bounds[l-1], bounds[l])

    def subsets(pool, sizes):
        return [frozenset(s) for k in sizes for s in combinations(pool, k)]

    def proper(lo, hi):   # the nonempty proper subsets of lo .. hi-1
        return subsets(range(lo, hi), range(1, hi - lo))

    w_sets = [{s | frozenset(range(lo)) for s in proper(lo, hi)}
              for lo, hi in zip(bounds, bounds[1:])]
    if r < 2:
        return w_sets, set()
    pool = range(seq[0] + 2, bounds[-2])
    return w_sets, {a | b for a in proper(*bounds[-2:])
                    for b in subsets(pool, range(len(pool) + 1))}


def labels_to_vertices(c, label_sets):
    """Map a family of frozenset labels to vertex ids of a subdivision."""
    index = {lab: i for i, lab in enumerate(c.labels)}
    return sorted(index[lab] for lab in label_sets)


def sphere_family_degree(seq):
    """Homology degree of the induced sphere: j - 1 with j = sum + len."""
    return sum(seq) + len(seq) - 1


# -- splicing inequalities -------------------------------------------------------


def perturbation_inequality(d, j, seq):
    """Window-splicing inequalities for admissible monotone sequences.

    For i_1 = 0 the window extension must reach 2^(j+1) - 2; for i_1 >= 1
    (and r >= 2) it must reach the objective of the perturbed sequence
    (i_1 - 1, i_2 + 1, i_3, ...).  Returns the truth of the inequality;
    hypotheses are validated and violations raise ValueError.
    """
    seq = tuple(seq)
    r = len(seq)
    if d < 3 or not (2 * j > d and j <= d - 1):
        raise ValueError("need d >= 3 and d/2 < j <= d-1")
    if list(seq) != sorted(seq) or any(i < 0 for i in seq):
        raise ValueError("sequence must be weakly increasing and nonnegative")
    if sum(seq) + r != j or sum(seq) + 2 * r > d:
        raise ValueError("sequence does not satisfy the strand constraints")
    if seq[0] >= 1 and r < 2:
        raise ValueError("the perturbation step needs r >= 2")
    ext = ((1 << (seq[-1] + 2)) - 2) * (1 << (sum(seq[1:-1]) + 2 * r - 4))
    lhs = ext + sum((1 << (i + 2)) - 2 for i in seq)
    if seq[0] == 0:
        return lhs >= (1 << (j + 1)) - 2
    perturbed = [seq[0] - 1, seq[1] + 1, *seq[2:]]
    rhs = sum((1 << (i + 2)) - 2 for i in perturbed)
    return lhs >= rhs


def perturbation_cases(d):
    """All (j, seq) pairs meeting the hypotheses of the inequalities."""
    out = []
    for j in range(1, d):
        if 2 * j <= d:
            continue
        for seq in admissible_sequences(d, j):
            if seq[0] >= 1 and len(seq) < 2:
                continue
            out.append((j, seq))
    return out


# -- prediction vs computation ----------------------------------------------------


def check_simplex_gate(kind, d, r, vertex_gate):
    """Refuse a full table of subdivide(simplex(d - 1), kind, r) above
    `vertex_gate` on its vertex count, 2^d - 1 ("bary") or C(r+d-1, d-1).
    A count whose lower bound 2^low - 1 has more bits than both the gate
    and 64 is refused by its formula, unbuilt."""
    low = d if kind == "bary" else min(d - 1, r)
    if low > max(vertex_gate.bit_length(), 64):
        form = f"2^{d} - 1" if kind == "bary" else f"C({r + d - 1}, {d - 1})"
        raise VertexGateError(f"{form} vertices exceed the subset-enumeration "
                              f"gate {vertex_gate}")
    check_vertex_gate((1 << d) - 1 if kind == "bary" else comb(r + d - 1, d - 1),
                      vertex_gate)


def verify_predictions(kind, d, r=1, field=GF2,
                       vertex_gate=DEFAULT_VERTEX_GATE, workers=1):
    """Compare the strand predictions with a fully computed Betti table.

    kind "bary" checks the barycentric subdivision of the (d-1)-simplex,
    whose windows are known for one subdivision only, so r must be 1;
    kind "edgewise" checks its r-th edgewise subdivision, which needs
    r >= d.  Zero and nonzero claims must match the table (any mismatch is
    a violation); entries in unknown stretches are recorded as
    observations.
    """
    if d < 2:
        raise ValueError(f"strand predictions need d >= 2, got d={d}")
    if kind == "bary" and r != 1:
        raise ValueError(f"barycentric strand windows are for r = 1, got r={r}")
    if kind == "edgewise" and r < d:
        raise ValueError("strand windows for edgewise subdivision need r >= d")
    # gate first: each prediction holds numbers as large as the vertex count
    check_simplex_gate(kind, d, r, vertex_gate)
    if kind == "bary":
        predictions = [predict_strand_bary(d, j) for j in range(1, d)]
    else:
        predictions = [predict_strand_edgewise(d, j, r) for j in range(1, d)]
    sub = subdivide(simplex(d - 1), kind, r)
    expected_pdim = predictions[0].pdim
    table = graded_betti_table(sub, field, vertex_gate=vertex_gate, workers=workers)
    report = {
        "kind": kind,
        "d": d,
        "r": r,
        "field": str(field),
        "n": sub.n,
        "pdim": table.pdim(),
        "pdim_expected": expected_pdim,
        "agreements": 0,
        "violations": [],
        "observations": [],
    }
    if table.pdim() != expected_pdim:
        report["violations"].append(
            {"what": "pdim", "expected": expected_pdim, "got": table.pdim()})
    for pred in predictions:
        j = pred.j
        for i in range(pred.pdim + 1):
            kind_i = pred.kind(i)
            value = table.entry(i, j)
            if kind_i == UNKNOWN:
                report["observations"].append({"i": i, "j": j, "value": value})
            elif (value != 0) == (kind_i == NONZERO):
                report["agreements"] += 1
            else:
                report["violations"].append({"what": "entry", "i": i, "j": j,
                                             "expected": kind_i, "got": value})
    report["ok"] = not report["violations"]
    return report


def reg_after_subdivision(base, mode, r, field, vertex_gate=DEFAULT_VERTEX_GATE,
                          workers=1):
    """Exact regularity of subdivide(base, mode, r).

    Uses the full Betti table when the subdivision stays small.  Otherwise
    a (d-1)-complex has regularity d exactly when its top cycle space is
    nonzero (a homologically nontrivial induced subcomplex in degree d-1
    is itself a top cycle of the whole complex); if it is zero, the
    regularity is d-1, pinned from below by an induced sphere one
    dimension down: the link of the first vertex whose label is supported
    on d vertices, a top face's barycentre (barycentric) or a composition
    with d positive parts (edgewise).  Edgewise with r < d has no such
    vertex, and the theory gives only a lower bound.
    """
    sub = subdivide(base, mode, r)
    if sub.n <= vertex_gate:
        return graded_betti_table(sub, field, vertex_gate=vertex_gate,
                                  workers=workers).reg()
    d = sub.dim + 1
    if top_homology_nonzero(sub, field):
        return d
    v = next((i for i, lab in enumerate(sub.labels)
              if (len(lab) if mode == "bary" else len(lab) - lab.count(0)) == d),
             None)
    if v is None:
        raise GateError(f"edgewise r={r} < d={d} without top homology: only a "
                        f"lower bound on reg above the vertex gate {vertex_gate}")
    witness = {u for f in sub.facets if v in f for u in f} - {v}   # lk(v) on sub's ids
    if all(j != d - 1 for _, j, _ in betti_witness(sub, field, witness)):
        raise ValueError("witness subset does not carry degree d-2 homology")
    return d - 1
