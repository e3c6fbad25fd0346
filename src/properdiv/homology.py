"""Exact integer simplicial homology via Smith normal form.

Boundary matrices are eliminated in two phases.  Phase one works on a
sparse column representation and repeatedly pivots on entries equal to
+-1, chosen by an approximate Markowitz (minimum fill) rule; such pivots
need no division and contribute invariant factor 1.  Whatever survives is
densified and finished with a classical Smith normal form (smallest
nonzero pivot, remainder swaps), whether or not torsion is asked for.  All
arithmetic is on Python integers, so intermediate entry growth is harmless.

:func:`homology` reduces the maps top-down, from the top dimension to 1,
and clears as it goes (Chen & Kerber's "twist"): every row of a +-1 pivot
of the sparse phase of the (d+1)-st map is a d-face whose column is left
out of the d-th map.  This is exact over the integers, not just over the
rationals.  Only unit pivots clear, and the k-th pivot column is the
boundary of an integer chain with +-1 in its own pivot row and 0 in the
rows of the k-1 pivots before it, so on the cleared rows these boundaries
form a +-1-triangular block.  Every cleared face therefore equals a
boundary plus an integer combination of kept faces, and since the d-th map
kills boundaries, its image lattice, rank and invariant factors are those
of the kept columns alone.  Pivots of the dense phase clear nothing.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd

from .complexes import SimplicialComplex


# -- sparse phase ---------------------------------------------------------


def _eliminate_unit_pivots(cols: dict[int, dict[int, int]]) -> list[int]:
    """Destructively eliminate +-1 pivots; returns the row of each pivot used."""
    rows: dict[int, set[int]] = {}
    for cid, col in cols.items():
        for r in col:
            rows.setdefault(r, set()).add(cid)
    heap = []  # seeded with every +-1 entry on the first pass below
    pivot_rows = []
    while cols:
        pivot = None
        while heap:
            _, r, c = heapq.heappop(heap)
            col = cols.get(c)
            if col is None:
                continue
            v = col.get(r)
            if v == 1 or v == -1:
                pivot = (r, c, v)
                break
        if pivot is None:
            fresh = []
            for cid, col in cols.items():
                width = len(col) - 1
                for r, v in col.items():
                    if v == 1 or v == -1:
                        fresh.append(((len(rows[r]) - 1) * width, r, cid))
            if not fresh:
                break
            heapq.heapify(fresh)
            heap = fresh
            continue
        r, c, v = pivot
        pivcol = cols.pop(c)
        for rr in pivcol:
            support = rows.get(rr)
            if support is not None:
                support.discard(c)
                if not support:
                    del rows[rr]
        pivot_rows.append(r)
        targets = rows.pop(r, None)
        if not targets:
            continue
        for c2 in list(targets):
            col2 = cols[c2]
            f = col2[r] * v
            for rr, vv in pivcol.items():
                if rr == r:
                    del col2[r]
                    continue
                cur = col2.get(rr)
                if cur is None:
                    nv = -f * vv
                    col2[rr] = nv
                    rows.setdefault(rr, set()).add(c2)
                else:
                    nv = cur - f * vv
                    if nv:
                        col2[rr] = nv
                    else:
                        del col2[rr]
                        support = rows.get(rr)
                        if support is not None:
                            support.discard(c2)
                            if not support:
                                del rows[rr]
                        continue
                if nv == 1 or nv == -1:
                    heapq.heappush(
                        heap, ((len(rows[rr]) - 1) * (len(col2) - 1), rr, c2)
                    )
            if not col2:
                del cols[c2]
    return pivot_rows


def _densify(cols: dict[int, dict[int, int]]) -> list[list[int]]:
    row_ids = sorted({r for col in cols.values() for r in col})
    rmap = {r: i for i, r in enumerate(row_ids)}
    mat = [[0] * len(cols) for _ in row_ids]
    for j, cid in enumerate(sorted(cols)):
        for r, v in cols[cid].items():
            mat[rmap[r]][j] = v
    return mat


# -- dense phase ----------------------------------------------------------


def _snf_dense(mat: list[list[int]]) -> list[int]:
    """Invariant factors (positive, divisibility-chained) of a dense matrix."""
    m = [list(row) for row in mat]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    factors = []
    t = 0
    while t < nr and t < nc:
        piv = None
        for i in range(t, nr):
            row = m[i]
            for j in range(t, nc):
                v = row[j]
                if v and (piv is None or abs(v) < piv[0]):
                    piv = (abs(v), i, j)
        if piv is None:
            break
        _, pi, pj = piv
        m[t], m[pi] = m[pi], m[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
        while True:
            changed = False
            for i in range(t + 1, nr):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    if q:
                        mi, mt = m[i], m[t]
                        for j in range(t, nc):
                            mi[j] -= q * mt[j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        changed = True
            for j in range(t + 1, nc):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    if q:
                        for row in m:
                            row[j] -= q * row[t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        changed = True
            if not changed:
                break
        factors.append(abs(m[t][t]))
        t += 1
    # one full pass of (gcd, lcm) replacements yields the divisibility chain
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            if b % a:
                g = gcd(a, b)
                factors[i], factors[j] = g, a * b // g
    return factors


def _snf_of_columns(cols):
    """(rows of the sparse unit pivots, invariant factors of the dense residual)."""
    pivot_rows = _eliminate_unit_pivots(cols)
    return pivot_rows, _snf_dense(_densify(cols))


# -- public matrix operations ----------------------------------------------


def _as_rows(matrix) -> list[list[int]]:
    rows = [[int(v) for v in row] for row in matrix]
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ValueError("matrix rows must have equal length")
    return rows


def _columns_of(rows: list[list[int]]) -> dict[int, dict[int, int]]:
    cols: dict[int, dict[int, int]] = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                cols.setdefault(j, {})[i] = v
    return cols


def smith_normal_form(matrix) -> tuple[list[int], int]:
    """Invariant factors d1 | d2 | ... | dr and the rank r of an integer matrix."""
    pivot_rows, tail = _snf_of_columns(_columns_of(_as_rows(matrix)))
    return [1] * len(pivot_rows) + tail, len(pivot_rows) + len(tail)


# -- boundary maps -----------------------------------------------------------


def _boundary_columns(lower_index, upper_faces, skip=frozenset()):
    """Yield ``(index, {row: +-1})`` for every face of ``upper_faces`` not in ``skip``.

    Rows are looked up in ``lower_index``; the coefficient of the face with
    vertex ``j`` removed is ``(-1) ** j``, and keys follow ``j``.
    """
    for cid, face in enumerate(upper_faces):
        if cid in skip:
            continue
        yield cid, {
            lower_index[face[:j] + face[j + 1 :]]: -1 if j & 1 else 1
            for j in range(len(face))
        }


# -- homology ---------------------------------------------------------------


@dataclass(frozen=True)
class HomologySummary:
    """Betti ranks (and optionally torsion) per degree, reduced or not.

    ``torsion`` is None when the computation was run rank-only.  For the
    empty complex ``empty_complex`` is set; the rank-1 reduced group in
    degree -1 lives in that flag, never as a degree entry.
    """

    reduced: bool
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...] | None
    empty_complex: bool

    def rank(self, i: int) -> int:
        return self.betti[i] if 0 <= i < len(self.betti) else 0

    def to_json_dict(self) -> dict:
        return {
            "reduced": self.reduced,
            "betti": list(self.betti),
            "torsion": None
            if self.torsion is None
            else [list(t) for t in self.torsion],
            "empty": self.empty_complex,
        }


def homology(
    k: SimplicialComplex,
    reduced: bool = False,
    torsion: bool = True,
) -> HomologySummary:
    """Integer homology of a simplicial complex.

    ``betti[i]`` is the nullity of the i-th boundary map minus the rank of
    the (i+1)-st; torsion in degree i lists the invariant factors > 1 of
    the (i+1)-st map.  With ``torsion=False`` the ranks come from the same
    elimination and the summary leaves the torsion out.
    """
    faces = k.faces_by_dim()
    if not faces:
        return HomologySummary(
            reduced=reduced,
            betti=(),
            torsion=() if torsion else None,
            empty_complex=True,
        )
    dim = len(faces) - 1
    ranks = [0] * (dim + 2)
    # invariant factors of each map's dense residual; unit pivots add only 1s
    tails: list[list[int]] = [[] for _ in range(dim + 2)]
    if reduced and faces[0]:
        ranks[0] = 1
    cleared: set[int] = set()
    for d in range(dim, 0, -1):
        lower_index = {f: i for i, f in enumerate(faces[d - 1])}
        cols = dict(_boundary_columns(lower_index, faces[d], skip=cleared))
        del lower_index
        pivot_rows, tails[d] = _snf_of_columns(cols)
        ranks[d] = len(pivot_rows) + len(tails[d])
        # the (d-1)-faces that were unit pivot rows of this map are the
        # columns the next map down can leave out (module docstring)
        cleared = set(pivot_rows)
    betti = tuple(
        len(faces[i]) - ranks[i] - ranks[i + 1] for i in range(dim + 1)
    )
    if torsion:
        torsion_lists = tuple(
            tuple(x for x in tails[i + 1] if x > 1)
            for i in range(dim + 1)
        )
    else:
        torsion_lists = None
    return HomologySummary(
        reduced=reduced, betti=betti, torsion=torsion_lists, empty_complex=False
    )
