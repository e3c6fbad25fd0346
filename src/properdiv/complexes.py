"""Order complexes and elementary face statistics.

A :class:`SimplicialComplex` stores its vertex labels and the list of
inclusion-maximal faces (facets).  The empty complex (no vertices, no
facets) is a legitimate value: it is the order complex of a bounded
poset with at most two elements, and its reduced Euler
characteristic is -1.
"""

from __future__ import annotations

import os
from itertools import combinations

from .errors import SizeGuardError
from .posets import Poset
from .shellability import _dual_lex_betti

DEFAULT_FACE_GUARD = 2_000_000


def face_guard_default() -> int:
    """Face-count guard; the PROPERDIV_GUARD_FACES env var overrides it."""
    raw = os.environ.get("PROPERDIV_GUARD_FACES")
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(
                f"PROPERDIV_GUARD_FACES must be an integer, got {raw!r}"
            ) from None
    return DEFAULT_FACE_GUARD


class SimplicialComplex:
    """Vertex labels plus facets given as sorted tuples of vertex indices.

    ``SimplicialComplex(vertices, facets)`` checks facets from outside: it
    sorts and de-duplicates them and refuses empty facets, out-of-range
    vertices, facets inside others and vertices in no facet.
    ``order_complex`` stores its maximal chains without these checks, and
    with them the reduced Betti numbers its poset's certificate gives, which
    ``homology`` answers from.  Every other complex has None there, and
    ``homology`` closes and reduces all of its faces, held to the face guard.
    """

    __slots__ = ("vertices", "facets", "_certified_betti")

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

    def _assemble(self, vertices, facets, certified_betti=None):
        # facets: sorted tuples, in range, pairwise incomparable, covering every
        # vertex and listed in lexicographic order; they are stored as given
        self.vertices, self.facets = vertices, facets
        self._certified_betti = certified_betti
        return self

    # -- queries ---------------------------------------------------------

    def __repr__(self):
        return f"SimplicialComplex({len(self.vertices)} vertices, {len(self.facets)} facets)"

    @property
    def is_empty(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        """Largest face dimension; -1 for the empty complex."""
        return max((len(f) for f in self.facets), default=0) - 1

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


def order_complex(p: Poset) -> SimplicialComplex:
    """Chains of a bounded poset with bottom and top removed.

    Vertices are the open poset's elements (labels preserved); facets are its
    maximal chains, distinct and pairwise incomparable, stored unchecked but
    sorted, since chains of duals and parsed posets may run down the index
    order.  Returns the empty complex when nothing is left.

    Once the chains are listed, the dual-lex certificate of ``p.dual()`` is
    checked, and if it verifies, the reduced Betti numbers it gives are kept
    with the complex for ``homology`` (see the ``homology`` module).  That
    walk reads each cover of ``p``, and every cover lies on a maximal chain,
    so the face guard, which the chains have passed, bounds its steps.  It
    also holds a bitmask of ``len(p)`` bits per element, and is skipped where
    those, counted in 64-bit words, exceed the face guard too, as on a wide
    poset such as P(2, ..., 2) with 14 coordinates.
    """
    if not p.is_bounded:
        raise ValueError("order complexes are taken of bounded posets")
    open_poset = p.open_part()
    guard = face_guard_default()
    chains = open_poset.maximal_chains(max_chains=guard)
    facets = tuple(sorted(tuple(sorted(c)) for c in chains))
    del chains  # the walk below may reuse their memory
    betti = _dual_lex_betti(p) if facets and len(p) ** 2 <= 64 * guard else None
    return SimplicialComplex.__new__(SimplicialComplex)._assemble(open_poset.labels, facets, betti)
