"""Finite abstract simplicial complexes with exact combinatorial operations.

A complex lives on a dense ambient vertex range 0..n-1 and is stored by its
facet antichain.  Faces are strictly increasing tuples of vertex ids; the
empty tuple is the empty face, which every nonvoid complex contains.  Full
face enumeration is cached lazily and gated, because the subset-homology
machinery re-enumerates faces of many induced subcomplexes and needs the
ambient complex to stay cheap.

The constructor sorts each facet, deduplicates and checks the list in input
order, and drops every facet contained in another unless all facets have one
size: sets of one size are an antichain already, so a pure complex, such as
a subdivision of one, skips that reduction.  One sort of what is left ends
the pass, and the ascending runs of a subdivision or a file stay runs for it.

Vertices may carry labels (frozenset for subdivision vertices that remember
a face, tuple for lattice compositions, str for plain names).  Labels are
payload only: all combinatorics runs on the integer ids.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations

FACE_GATE = 1 << 24
ISO_GATE = 64


class GateError(RuntimeError):
    """A size gate was exceeded; the caller must pick a cheaper route."""


def _canonical_facets(facet_list, n):
    facets = list(dict.fromkeys(map(tuple, map(sorted, facet_list)))) or [()]
    for t in facets:
        if len(set(t)) != len(t):
            raise ValueError(f"duplicate vertex in facet {t!r}")
        if t and (t[0] < 0 or t[-1] >= n):
            raise ValueError(f"vertex out of range 0..{n - 1} in facet {t!r}")
    sizes = {len(t) for t in facets}
    if len(sizes) > 1:  # sets of one size are an antichain already
        # antichain reduction: drop facets dominated by a larger one; a
        # facet of the largest size never is
        top = max(sizes)
        kept = []
        by_vertex = {}  # vertex -> kept frozensets containing it
        for t in sorted(facets, key=len, reverse=True):
            s = frozenset(t)
            if len(t) < top and (not t or any(s <= k for k in by_vertex.get(t[0], ()))):
                continue
            kept.append(t)
            for v in t:
                by_vertex.setdefault(v, []).append(s)
        facets = kept
    return tuple(sorted(facets))


class SimplicialComplex:
    """Downward-closed face family, represented by its facets."""

    __slots__ = (
        "n", "facets", "labels", "_faces_by_dim", "_face_set", "_t1",
    )

    def __init__(self, n, facets, labels=None):
        if n < 0:
            raise ValueError("ambient vertex count must be nonnegative")
        if n > FACE_GATE:  # per-id lists, such as minimal non-faces, cost O(n)
            raise GateError(f"{n} ambient vertex ids exceed the face gate {FACE_GATE}")
        self.n = n
        self.facets = _canonical_facets(facets, n)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels must cover all ambient vertices")
            present = [lab for lab in labels if lab is not None]
            if len(set(present)) != len(present):
                raise ValueError("vertex labels must be pairwise distinct")
        self.labels = labels
        self._faces_by_dim = None
        self._face_set = None
        self._t1 = None

    # -- basic structure -------------------------------------------------

    @property
    def dim(self):
        return max(len(f) for f in self.facets) - 1

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (self.n, self.facets, self.labels) == (other.n, other.facets, other.labels)

    def __hash__(self):
        return hash((self.n, self.facets))

    def __repr__(self):
        return f"SimplicialComplex(n={self.n}, facets={len(self.facets)}, dim={self.dim})"

    def _enumerate_faces(self):
        if self._faces_by_dim is not None:
            return
        top = self.dim + 1  # facet size
        if (1 << top) - 1 > FACE_GATE:  # the largest facet's faces alone
            raise GateError(f"face enumeration exceeds gate {FACE_GATE}")
        levels = [set() for _ in range(top + 1)]  # index = #vertices
        for f in self.facets:
            levels[len(f)].add(f)
        total = sum(len(lv) for lv in levels)
        for size in range(top, 1, -1):
            nxt = levels[size - 1]
            before = len(nxt)
            room = FACE_GATE - total + before  # faces this level may hold
            for f in levels[size]:
                for i in range(size):
                    nxt.add(f[:i] + f[i + 1:])
                if len(nxt) > room:
                    raise GateError(f"face enumeration exceeds gate {FACE_GATE}")
            total += len(nxt) - before
        levels[0] = {()}
        self._faces_by_dim = tuple(tuple(sorted(lv)) for lv in levels)
        self._face_set = frozenset().union(*levels)

    @property
    def face_set(self):
        self._enumerate_faces()
        return self._face_set

    def faces_of_dim(self, k):
        """All k-dimensional faces in canonical (lexicographic) order."""
        self._enumerate_faces()
        if k + 1 < 0 or k + 1 >= len(self._faces_by_dim):
            return ()
        return self._faces_by_dim[k + 1]

    def has_face(self, face):
        return tuple(sorted(face)) in self.face_set

    def f_vector(self):
        """(f_{-1}, ..., f_{d-1}) with f_{-1} = 1 for the empty face."""
        self._enumerate_faces()
        return tuple(len(lv) for lv in self._faces_by_dim)

    # -- derived complexes ------------------------------------------------

    def induced(self, w):
        """Subcomplex of faces contained in w, relabeled to 0..len(w)-1 in
        ascending order of the old ids."""
        w = sorted(set(w))
        if w and (w[0] < 0 or w[-1] >= self.n):
            raise ValueError("vertex set not contained in ambient range")
        wset = set(w)
        return self._relabeled(w, [tuple(v for v in f if v in wset) for f in self.facets])

    def link(self, face):
        """Faces disjoint from `face` whose union with it is a face,
        relabeled onto its own vertex support in ascending order."""
        face = tuple(sorted(face))
        if not self.has_face(face):
            raise ValueError(f"{face!r} is not a face")
        fset = set(face)
        link_facets = [tuple(v for v in g if v not in fset)
                       for g in self.facets if fset <= set(g)]
        return self._relabeled(sorted({v for g in link_facets for v in g}), link_facets)

    def _relabeled(self, support, facets):
        """The complex of `facets`, given on old ids, with the ascending id
        list `support` relabeled to 0..len(support)-1; labels follow."""
        old_to_new = {v: i for i, v in enumerate(support)}
        labels = None
        if self.labels is not None:
            labels = tuple(self.labels[v] for v in support)
        return SimplicialComplex(
            len(support), [tuple(old_to_new[v] for v in f) for f in facets],
            labels=labels)

    # -- non-faces ---------------------------------------------------------

    def minimal_non_faces(self, k):
        """Inclusion-minimal non-faces with k vertices, lazily, in lex order.

        Size 1 is a ghost id, in no face; size 2 a non-edge between two
        vertices.  One of size k >= 3 is a face f plus a vertex v > max f
        joined to every vertex of f, so v is drawn from the AND of f's
        neighbour bitmasks: f ascends, then v for each f.
        """
        if k == 1:
            live = {v for (v,) in self.faces_of_dim(0)}
            yield from ((v,) for v in range(self.n) if v not in live)
            return
        if not 2 <= k <= self.dim + 2:  # less any one vertex, it is a face
            return
        nbr = _adjacency(self)
        if k == 2:
            present = [v for (v,) in self.faces_of_dim(0)]
            yield from ((u, v) for u in present for v in present
                        if v > u and not nbr[u] >> v & 1)
            return
        faces = self.face_set
        for f in self.faces_of_dim(k - 2):
            common = -1
            for u in f:
                common &= nbr[u]
            common >>= f[-1] + 1
            v = f[-1]
            while common:
                step = (common & -common).bit_length()
                common >>= step
                v += step
                t = f + (v,)
                if t not in faces and all(
                        t[:i] + t[i + 1:] in faces for i in range(k - 1)):
                    yield t

    def t1(self):
        """Largest cardinality of a minimal non-face (0 for a full simplex)."""
        if self._t1 is None:
            self._t1 = next((k for k in range(self.dim + 2, 0, -1)
                             if next(self.minimal_non_faces(k), None) is not None), 0)
        return self._t1

    def is_flag(self):
        """True if every minimal non-face is an edge, or there is none."""
        return self.t1() in (0, 2) and next(self.minimal_non_faces(1), None) is None


def from_facets(facet_list, n, labels=None):
    """Downward closure of the given facets on ambient vertices 0..n-1."""
    return SimplicialComplex(n, facet_list, labels=labels)


# -- isomorphism -----------------------------------------------------------


def _vertex_profiles(c):
    d = c.dim
    prof = [[0] * (d + 1) for _ in range(c.n)]
    for k in range(d + 1):
        for f in c.faces_of_dim(k):
            for v in f:
                prof[v][k] += 1
    return [tuple(p) for p in prof]


def _adjacency(c):
    adj = [0] * c.n
    for (u, v) in c.faces_of_dim(1):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def check_iso_gate(n):
    """Refuse an isomorphism search on n vertices above ISO_GATE; callers
    that know n in closed form check it before building the complexes."""
    if n > ISO_GATE:
        raise GateError(f"isomorphism search gated at {ISO_GATE} vertices")


def _isomorphisms(a, b):
    """Yield each bijection between the vertex supports of a and b that
    carries faces onto faces, as a dict; _isomorphisms(c, c) yields every
    automorphism of c once.

    A vertex's class is its face counts per dimension with the sorted face
    counts of its neighbours; the two class multisets must agree, which
    also makes the f-vectors equal, so a bijection that sends every face
    into b sends the faces onto b's. The search maps a's support breadth
    first from ascending roots, each vertex to an unused vertex of its
    class, in ascending order, with the same adjacency to every mapped
    vertex. Each face of dimension >= 2 is checked as soon as its last
    vertex in that order is mapped.
    """
    adj_a, adj_b = _adjacency(a), _adjacency(b)

    def classes(c, adj):
        prof = _vertex_profiles(c)
        support = [v for v in range(c.n) if (v,) in c.face_set]
        return {v: (prof[v], tuple(sorted(prof[u] for u in support if adj[v] >> u & 1)))
                for v in support}

    class_a = classes(a, adj_a)
    candidates = {}
    for w, key in classes(b, adj_b).items():
        candidates.setdefault(key, []).append(w)
    if Counter(class_a.values()) != {key: len(ws) for key, ws in candidates.items()}:
        return
    pos = {}  # vertex -> position in the breadth-first order
    for root in class_a:
        if root not in pos:
            pos[root] = len(pos)
            queue = [root]
            for v in queue:
                for u in class_a:
                    if adj_a[v] >> u & 1 and u not in pos:
                        pos[u] = len(pos)
                        queue.append(u)
    due = {v: [] for v in pos}  # faces checked once v is mapped
    for k in range(2, a.dim + 1):
        for f in a.faces_of_dim(k):
            due[max(f, key=pos.__getitem__)].append(f)
    order = list(pos)
    faces_b = b.face_set
    mapping = {}

    def extend(i, used):  # used: bitmask of the images so far
        if i == len(order):
            yield dict(mapping)
            return
        v = order[i]
        # w must be adjacent to exactly the images of v's mapped neighbours
        want = sum(1 << x for u, x in mapping.items() if adj_a[v] >> u & 1)
        for w in candidates[class_a[v]]:
            if used >> w & 1 or adj_b[w] & used != want:
                continue
            mapping[v] = w
            if all(tuple(sorted(mapping[u] for u in f)) in faces_b for f in due[v]):
                yield from extend(i + 1, used | 1 << w)
            del mapping[v]

    yield from extend(0, 0)


def is_isomorphic(a, b):
    """Search for a vertex bijection carrying faces onto faces.

    Returns (found, mapping); the mapping covers the vertex supports and
    is the first that _isomorphisms yields. Gated at ISO_GATE vertices.
    """
    check_iso_gate(max(a.n, b.n))
    if a.f_vector() != b.f_vector():
        return False, None
    mapping = next(_isomorphisms(a, b), None)
    return mapping is not None, mapping


# -- named complexes --------------------------------------------------------


def _check_facet_entries(entries):
    """Refuse a named complex whose facets would hold over FACE_GATE vertex ids."""
    if entries > FACE_GATE:
        raise GateError(f"{entries} facet vertex entries exceed the face gate {FACE_GATE}")


def simplex(d):
    """Full d-simplex on d+1 vertices."""
    _check_facet_entries(d + 1)
    return from_facets([tuple(range(d + 1))], d + 1)


def simplex_boundary(d):
    """Boundary of the d-simplex, a (d-1)-sphere."""
    if d == 0:
        return SimplicialComplex(1, [()])
    _check_facet_entries((d + 1) * d)
    return from_facets(list(combinations(range(d + 1), d)), d + 1)


def cycle(m):
    if m < 3:
        raise ValueError("cycle needs at least 3 vertices")
    _check_facet_entries(2 * m)
    return from_facets([(i, (i + 1) % m) for i in range(m)], m)


def path(m):
    if m < 1:
        raise ValueError("path needs at least 1 vertex")
    if m == 1:
        return from_facets([(0,)], 1)
    _check_facet_entries(2 * (m - 1))
    return from_facets([(i, i + 1) for i in range(m - 1)], m)


def stacked_sphere(dim, n_facets):
    """Sphere built from the boundary of a (dim+1)-simplex by stacking.

    Each stacking move replaces the lexicographically largest facet by the
    cone over its boundary from a fresh vertex, adding `dim` facets; so
    n_facets must satisfy n_facets >= dim+2 and n_facets = dim+2 (mod dim).
    Move k takes the window (k+1, ..., k+dim+1): older facets start at or
    below k, and the cone's facets but the next window start with k+1.
    """
    base = dim + 2
    if dim < 2:
        raise ValueError("stacked_sphere needs dim >= 2")
    if n_facets < base or (n_facets - base) % dim != 0:
        raise ValueError(f"no stacked {dim}-sphere with {n_facets} facets")
    _check_facet_entries(n_facets * (dim + 1))
    moves = (n_facets - base) // dim
    facets = [f for f in combinations(range(base), dim + 1) if f[0] == 0]
    for k in range(moves):
        cone = tuple(range(k + 1, k + base + 1))   # window k, then its apex
        facets.extend(cone[:i] + cone[i + 1:] for i in range(1, dim + 1))
    facets.append(tuple(range(moves + 1, moves + base)))
    return from_facets(facets, base + moves)


def rp2_six():
    """The 6-vertex triangulation of the real projective plane."""
    facets = [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
              (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)]
    return from_facets(facets, 6)


def stacked_attach(base, k, ridge=None):
    """Glue k new facets over a ridge of `base`, each with a fresh apex."""
    if base.dim < 1:
        raise ValueError("base must have dimension at least 1")
    if ridge is None:
        ridge = base.faces_of_dim(base.dim - 1)[0]
    ridge = tuple(sorted(ridge))
    if len(ridge) != base.dim or not base.has_face(ridge):
        raise ValueError(f"{ridge!r} is not a ridge of the base complex")
    _check_facet_entries(sum(map(len, base.facets)) + k * (len(ridge) + 1))
    facets = list(base.facets)
    n = base.n
    for _ in range(k):
        facets.append(tuple(sorted(ridge + (n,))))
        n += 1
    return from_facets(facets, n)


_STANDARD = {
    "simplex": simplex,
    "simplex_boundary": simplex_boundary,
    "cycle": cycle,
    "path": path,
    "stacked_sphere": stacked_sphere,
    "rp2_six": rp2_six,
    "stacked_attach": stacked_attach,
}


def standard_complex(spec):
    """Build a named complex from a spec string, e.g. "cycle(6)" or
    "stacked_attach(cycle(3), 2)".  Only the named constructors with
    positional integer, integer-tuple or complex arguments are allowed;
    any other spec raises ValueError naming it."""
    import ast

    def is_arg(a):
        return (type(a) is int or isinstance(a, SimplicialComplex)
                or isinstance(a, tuple) and all(type(x) is int for x in a))

    def build(node):
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _STANDARD:
                raise ValueError(f"unknown constructor in {spec!r}")
            args = [build(a) for a in node.args]
            if node.keywords or not all(map(is_arg, args)):
                raise ValueError(f"only positional integer or complex "
                                 f"arguments are allowed in {spec!r}")
            try:
                return _STANDARD[node.func.id](*args)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{spec!r}: {exc}") from None
        if isinstance(node, ast.Name) and node.id == "rp2_six":
            return rp2_six()
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, (ast.Tuple, ast.List)):
            return tuple(build(e) for e in node.elts)
        raise ValueError(f"unsupported expression in {spec!r}")

    try:
        tree = ast.parse(spec.strip(), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse {spec!r}: {exc.msg}") from None
    except RecursionError:
        raise ValueError(f"cannot parse {spec[:40]!r}...: nested too deeply") from None
    c = build(tree.body)
    if not isinstance(c, SimplicialComplex):
        raise ValueError(f"{spec!r} is not a complex")
    return c


# -- JSON round trip ---------------------------------------------------------


def _encode_label(lab):
    if lab is None:
        return None
    if isinstance(lab, frozenset):
        return {"set": sorted(lab)}
    if isinstance(lab, tuple):
        return {"lattice": list(lab)}
    if isinstance(lab, str):
        return {"plain": lab}
    raise TypeError(f"unsupported label {lab!r}")


def _int_list(obj, what):
    if not isinstance(obj, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in obj):
        raise ValueError(f"{what} must be a list of integers, got {obj!r}")
    return obj


def _decode_label(obj):
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ValueError(f"unsupported label encoding {obj!r}")
    if "set" in obj:
        return frozenset(_int_list(obj["set"], "a set label"))
    if "lattice" in obj:
        return tuple(_int_list(obj["lattice"], "a lattice label"))
    if "plain" in obj:
        return str(obj["plain"])
    raise ValueError(f"unsupported label encoding {obj!r}")


def from_json_dict(d):
    """Complex from its JSON object; ValueError if the object is malformed."""
    if not isinstance(d, dict) or "n" not in d or "facets" not in d:
        raise ValueError('a complex needs the keys "n" and "facets"')
    n = d["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f'"n" must be an integer, got {n!r}')
    if not isinstance(d["facets"], list):
        raise ValueError('"facets" must be a list of facets')
    facets = [_int_list(f, "a facet") for f in d["facets"]]
    labels = d.get("labels")
    if labels is not None:
        if not isinstance(labels, list):
            raise ValueError('"labels" must be a list')
        labels = tuple(_decode_label(obj) for obj in labels)
    return SimplicialComplex(n, facets, labels=labels)


def dumps(c):
    # the encoder writes tuples as arrays, so the stored facets go out as they are
    out = {"n": c.n, "facets": c.facets}
    if c.labels is not None:
        out["labels"] = [_encode_label(lab) for lab in c.labels]
    return json.dumps(out, sort_keys=True, separators=(",", ": ")) + "\n"


def loads(text):
    return from_json_dict(json.loads(text))
