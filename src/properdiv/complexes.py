"""Order complexes and elementary face statistics.

A :class:`SimplicialComplex` stores its vertex labels and the list of
inclusion-maximal faces (facets), which an order complex lists only when
they are first read.  The empty complex (no vertices, no
facets) is a legitimate value: it is the order complex of a bounded
poset with at most two elements, and its reduced Euler
characteristic is -1.
"""

from __future__ import annotations

from itertools import combinations

from .errors import SizeGuardError, face_guard_default
from .posets import Poset, _bits
from .shellability import _dual_lex_betti


class SimplicialComplex:
    """Vertex labels plus facets given as sorted tuples of vertex indices.

    ``SimplicialComplex(vertices, facets)`` checks facets from outside: it
    sorts and de-duplicates them and refuses empty facets, out-of-range
    vertices, facets inside others and vertices in no facet.
    ``order_complex`` keeps its poset instead, lists its maximal chains
    without these checks only when ``facets`` is first read, and keeps the
    poset after that; ``dim`` and ``is_empty`` never list them.  When the
    poset's certificate verifies, it also keeps the reduced Betti numbers
    the certificate gives, one per degree, which ``homology`` answers from.
    ``homology`` answers any other order complex from its poset's atom or
    coatom crosscut where one is accepted, whether or not its facets were
    read.
    Every other complex, and an order complex the crosscut refuses, has all
    of its faces closed and reduced, held to the face guard.
    """

    __slots__ = ("vertices", "_facets", "_poset", "_certified_betti")

    def __init__(self, vertices, facets):
        vertices = tuple(vertices)
        n = len(vertices)
        normalized = tuple(sorted(set(tuple(sorted(set(f))) for f in facets)))
        by_vertex = {}
        for idx, f in enumerate(normalized):
            if not f:
                raise ValueError("facets must be nonempty")
            if f[0] < 0 or f[-1] >= n:
                raise ValueError(f"facet {f} has out-of-range vertices")
            for v in f:
                by_vertex.setdefault(v, []).append(idx)
        # a facet inside another shares its rarest vertex with it
        sets = [set(f) for f in normalized]
        for idx, f in enumerate(normalized):
            v = min(f, key=lambda x: len(by_vertex[x]))
            for other in by_vertex[v]:
                if other != idx and sets[idx] <= sets[other]:
                    raise ValueError(f"facet {f} is contained in {normalized[other]}")
        if len(by_vertex) != n:
            missing = [v for v in range(n) if v not in by_vertex]
            shown = ", ".join(map(str, missing[:5]))
            if len(missing) > 5:
                shown += f", ... ({len(missing)} in all)"
            raise ValueError(f"vertices [{shown}] lie in no facet")
        self._assemble(vertices, normalized)

    def _assemble(self, vertices, facets, certified_betti=None, poset=None):
        # facets: sorted tuples, in range, pairwise incomparable, covering every
        # vertex and listed in lexicographic order; they are stored as given.
        # A certified order complex passes None and its bounded poset instead,
        # and _chain_facets lists them on first read
        self.vertices, self._facets, self._poset = vertices, facets, poset
        self._certified_betti = certified_betti
        return self

    # -- queries ---------------------------------------------------------

    def __repr__(self):
        listed = "unlisted" if self._facets is None else len(self._facets)
        return f"SimplicialComplex({len(self.vertices)} vertices, {listed} facets)"

    @property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        """The facets, sorted; an order complex lists them on first read.

        That listing is held to the face guard, read at that moment, and
        raises :class:`SizeGuardError` beyond it.
        """
        if self._facets is None:
            self._facets = _chain_facets(self._poset)
        return self._facets

    @property
    def is_empty(self) -> bool:
        return not self.vertices  # every vertex lies in a facet

    @property
    def dim(self) -> int:
        """Largest face dimension; -1 for the empty complex."""
        if self._facets is None:  # an order complex: chains of its open part
            return max(self._poset.length() - 2, -1)
        return max((len(f) for f in self._facets), default=0) - 1

    def faces_by_dim(self) -> list[list[tuple[int, ...]]]:
        """All faces grouped by dimension, each list sorted lexicographically.

        Faces are never cached: every call closes them again, and more faces
        in all than the face guard raise :class:`SizeGuardError`.
        """
        return _close_faces(self.facets)

    def f_vector(self) -> tuple[int, ...]:
        """Face counts by dimension; empty tuple for the empty complex."""
        return tuple(len(level) for level in self.faces_by_dim())

    def reduced_euler_char(self) -> int:
        """-1 + alternating sum of the f-vector."""
        total = -1
        for d, count in enumerate(self.f_vector()):
            total += count if d % 2 == 0 else -count
        return total

    def is_pure(self) -> bool:
        """True iff all facets have equal cardinality (vacuously for empty)."""
        sizes = {len(f) for f in self.facets}
        return len(sizes) <= 1

    # -- facet text format -------------------------------------------------

    def to_facet_text(self) -> str:
        lines = [f"vertices: {len(self.vertices)}"]
        for f in self.facets:
            lines.append(" ".join(str(v) for v in f))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_facet_text(cls, text: str) -> "SimplicialComplex":
        lines = [ln.strip() for ln in text.split("\n") if ln.strip()]
        if not lines or not lines[0].startswith("vertices:"):
            raise ValueError("facet text must start with a 'vertices:' line")
        n = int(lines[0].split(":", 1)[1])
        facets = [tuple(int(tok) for tok in ln.split()) for ln in lines[1:]]
        # every vertex lies in a facet: refuse n > tokens before building range(n)
        tokens = sum(len(f) for f in facets)
        if not 0 <= n <= tokens:
            raise ValueError(
                f"vertex count {n} is negative or exceeds the {tokens} vertex tokens that follow"
            )
        return cls(range(n), facets)


def _close_faces(facets) -> list[list[tuple[int, ...]]]:
    """All faces of the complex with these ``facets``, grouped by dimension.

    ``facets`` are sorted tuples, as a :class:`SimplicialComplex` holds them.
    Faces are produced by closing them downward one dimension at a time, with
    deduplication, and each level is sorted lexicographically.  More faces
    than :func:`face_guard_default` raise :class:`SizeGuardError`; this is
    the one place that guard is held to faces.
    """
    if not facets:
        return []
    guard = face_guard_default()
    dmax = max(map(len, facets)) - 1
    # a facet with k vertices alone has 2**k - 1 faces: refuse before
    # closing a level whose faces would not fit in memory
    if (1 << (dmax + 1)) - 1 > guard:
        raise SizeGuardError(f"face-count guard {guard} exceeded")
    levels: list[set] = [set() for _ in range(dmax + 1)]
    for f in facets:
        levels[len(f) - 1].add(f)
    total = sum(len(s) for s in levels)
    if total > guard:  # the facets alone, e.g. many isolated vertices
        raise SizeGuardError(f"face-count guard {guard} exceeded")
    for d in range(dmax, 0, -1):
        lower = levels[d - 1]
        before = len(lower)
        # the faces this level may hold; checked per face it is fed, so the
        # guard trips before the level is built in full
        room = guard - total + before
        for f in levels[d]:
            lower.update(combinations(f, d))  # f without one vertex, sorted
            if len(lower) > room:
                raise SizeGuardError(f"face-count guard {guard} exceeded")
        total += len(lower) - before
    return [sorted(s) for s in levels]


def _chain_facets(p: Poset) -> tuple[tuple[int, ...], ...]:
    """The maximal chains of ``p``'s open part as sorted tuples, in lexicographic order.

    They are ``p``'s chains from bottom to top without their ends, in the
    open part's numbering, which skips the two ends: element i becomes
    i - (i > bottom) - (i > top).  More chains than the face guard raise
    :class:`SizeGuardError`.  Chains of duals and parsed posets may run
    down the index order, so each is sorted.
    """
    if len(p) <= 2:  # the top covers the bottom or is the bottom: no open part
        return ()
    bottom, top = p.bottom, p.top
    chains = p.maximal_chains()
    renumber = [i - (i > bottom) - (i > top) for i in range(len(p))].__getitem__
    return tuple(sorted(tuple(sorted(map(renumber, c[1:-1]))) for c in chains))


def _crosscut_faces(p: Poset) -> list[list[tuple[int, ...]]] | None:
    """The faces of the atom crosscut complex of ``p``, grouped by dimension, or None.

    Its vertices are ``p.atoms()``, numbered 0, 1, ... in that order, and its
    faces the atom sets with a common upper bound other than the top: the
    atom sets of the coatoms, closed downward.  The faces are returned only
    if, for each of them, those upper bounds U have a least element; then
    the complex is homotopy equivalent to the order complex of ``p`` (see
    the ``homology`` module).  The first element of U in ``_topo`` order is
    minimal in U, so it is least iff its up-set is U.  Faces are closed and
    checked one dimension at a time from the edges up, so a refusal stops
    early.  The up-sets are masks over ``_topo`` positions, held to the
    walk's bound of ``len(p)**2 // 64`` words within the face guard, and the
    attempt is given up once the faces outnumber the face guard or ``p``'s
    maximal chains, the facets the reduction would list instead: at once
    where the atoms or the widest facet's faces do, before any up-set is
    built.
    """
    n, guard = len(p), face_guard_default()
    if n <= 2 or n**2 // 64 > guard:
        return None
    topo, down = p._topo, p.downcovers
    atoms = p.atoms()
    limit = min(guard, p._chain_counts()[p.top])
    if len(atoms) > limit:
        return None
    # per element, the mask of the atoms below it, as vertices
    atom_sets = [0] * n
    for v, a in enumerate(atoms):
        atom_sets[a] = 1 << v
    for x in topo:
        m = atom_sets[x]
        for y in down[x]:
            m |= atom_sets[y]
        atom_sets[x] = m
    facets = [_bits(m) for m in {atom_sets[c] for c in down[p.top]}]
    widest = max(map(len, facets))
    if (1 << widest) - 1 > limit:
        return None
    position = [0] * n
    for k, x in enumerate(topo):
        position[x] = k
    # the up-set below the top of the element at each position, pushed down
    # the covers, so that no up-cover is read; the top is last in _topo, so
    # it keeps the mask 0
    above = [0] * n
    for k in range(n - 2, -1, -1):
        m = above[k] = above[k] | 1 << k
        for y in down[topo[k]]:
            above[position[y]] |= m
    # per face of the last level closed, the position of the least element of
    # its U; one atom's is its own
    atom_at = [position[a] for a in atoms]
    least = {(v,): k for v, k in enumerate(atom_at)}
    levels, total = [list(least)], len(atoms)
    for k in range(2, widest + 1):
        closed = {}
        for f in facets:
            if len(f) < k:
                continue
            for face in combinations(f, k):
                if face not in closed:
                    u = above[least[face[:-1]]] & above[atom_at[face[-1]]]
                    first = (u & -u).bit_length() - 1
                    if above[first] != u:
                        return None
                    closed[face] = first
            if total + len(closed) > limit:
                return None
        total += len(closed)
        levels.append(list(closed))
        least = closed
    return [sorted(level) for level in levels]


def order_complex(p: Poset) -> SimplicialComplex:
    """Chains of a bounded poset with bottom and top removed.

    Vertices are the open poset's elements (labels preserved); facets are its
    maximal chains, distinct and pairwise incomparable, stored unchecked but
    sorted.  Returns the empty complex when nothing is left.

    The complex keeps ``p``, and its facets, held to the face guard, are
    listed only when first read: so ``order_complex(P(30, 30))`` returns,
    and reading its facets raises :class:`SizeGuardError`.  ``dim`` is
    ``p.length() - 2``.  Before that, the dual-lex certificate of
    ``p.dual()`` is checked (see the ``shellability`` module for the walk
    and its bound).  If it verifies, the complex also keeps the reduced
    Betti numbers it gives, one per degree up to ``p.length() - 2``.
    """
    if not p.is_bounded:
        raise ValueError("order complexes are taken of bounded posets")
    ends = (p.bottom, p.top)
    vertices = tuple(lab for i, lab in enumerate(p.labels) if i not in ends)
    betti = _dual_lex_betti(p) if vertices else None
    return SimplicialComplex.__new__(SimplicialComplex)._assemble(vertices, None, betti, p)
