"""Exact integer simplicial homology via Smith normal form.

Boundary matrices are eliminated in two phases.  Phase one is the standard
column algorithm of persistent homology on a sparse column representation:
columns are taken in key order and each is reduced by the pivot columns
until its lowest (largest) row is no pivot row.  If its entry there is
+-1, the column becomes the pivot of that row; otherwise it is set aside,
and at the end every set-aside column is reduced by the pivot columns of
all rows it meets, largest row first.  Each step subtracts an integer
multiple of a pivot column, whose entry at its own row is +-1 and which is
0 below it, so the sparse phase needs no division and only adds columns
to columns.  On the pivot rows the pivot columns form a +-1-triangular
block, and the set-aside columns are 0 there, so row operations split off
that block: each pivot contributes invariant factor 1 and the rest are
those of the set-aside columns.  These are densified and finished with a
classical Smith normal form (smallest nonzero pivot, remainder swaps),
whether or not torsion is asked for.  All arithmetic is on Python
integers, so intermediate entry growth is harmless.

:func:`homology` reduces the maps top-down, from the top dimension to 1,
and clears as it goes (Chen & Kerber's "twist"): every pivot row of the
sparse phase of the (d+1)-st map is a d-face whose column is left out of
the d-th map.  This is exact over the integers, not just over the
rationals.  Each pivot column is the boundary of an integer chain, with
+-1 in its own row and 0 in every row below it, so on the cleared rows
these boundaries form a +-1-triangular block ordered by row.  Every
cleared face therefore equals a boundary plus an integer combination of
kept faces, and since the d-th map kills boundaries, its image lattice,
rank and invariant factors are those of the kept columns alone.  Rows of
the set-aside columns clear nothing.

An order complex Δ(P), of the open part P-bar of a bounded poset P,
takes the first of three routes that answers.

*Walk.*  ``order_complex(P)`` checks the dual-lex certificate of the dual
of P-bar, an atom ordering of every interval of P-bar read from covers
(x's down-covers in descending index order), against conditions (i) and
(ii) of a recursive atom ordering, exactly as ``verify_rao`` does.  If it
verifies, the ordering induces a CL-labelling (Björner & Wachs, "On
lexicographically shellable posets", 1983, Thm 3.2), and the order
complex is a wedge of spheres, one S^(k-2) for each falling maximal chain
of P-bar with k steps (Björner & Wachs, "Shellable nonpure complexes and
posets II", 1997, Thm 5.9).  So its reduced homology is free, of rank the
number of falling chains with i + 2 steps in degree i.  A maximal chain
x_0 < x_1 < ... of P-bar is falling iff every step x_i -> x_(i+1) after
the first lands on an atom that condition (i) requires to come first in
the interval above x_i: one lying above an atom of the interval above
x_(i-1) that is ordered before x_i.  The walk that checks and counts
runs before any chain is listed; the ``shellability`` module describes
it and the face-guard bound past which it is skipped.  The counts are
kept with the complex and :func:`homology` answers from them: no chain
is listed and no face closed on this route.

*Crosscut.*  Where the certificate fails or the walk is skipped,
:func:`homology` tries the atom crosscut Γ of P: the complex on P's
atoms whose faces are the atom sets σ with an upper bound in P-bar
(``complexes._crosscut_faces``).  Every element of P-bar lies above an
atom, so the cones Δ(P-bar_(>=a)), one per atom a, cover Δ(P-bar); the
ones of the atoms of σ meet in Δ(U(σ)), where U(σ) is the set of upper
bounds of σ in P-bar, and in nothing where σ is not a face.  If every
U(σ) of a face has a least element, Δ(U(σ)) is a cone, so contractible,
and the nerve theorem (Björner, "Topological methods", Handbook of
Combinatorics, 1995, Thm 10.6; its crosscut form is Thm 10.8) makes
Δ(P-bar) homotopy equivalent to Γ, the nerve of this cover.  Γ's faces
are reduced as below and the summary, exact over the integers, is padded
with 0 or cut to the degrees of Δ(P-bar).  The route is refused where
some U(σ) has no least element, and given up where Γ has more faces than
the face guard or P has maximal chains.  Of the families the tests try,
it accepts the face posets of simplicial complexes (Γ is the complex
itself, so sd^3(RP^2) is answered from the 1,081 faces of sd^2(RP^2),
not from its own 6,481), Boolean lattices and chains.  It refuses, or
gives up on, the proper products B_m xp B_n with 2 <= m, n <= 4 other
than B2 xp B2, and their duals.  It refuses P(4, 4), whose atoms (0, 1)
and (1, 0) have the three minimal upper bounds (2, 2), (2, 3) and
(3, 2), but the walk answers every P(a) before this route is tried.

*Reduction.*  Every other complex, and an order complex both routes
leave, is reduced as given, its chains listed first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .complexes import SimplicialComplex, _close_faces, _crosscut_faces


# -- sparse phase ---------------------------------------------------------


def _subtract(col: dict[int, int], pivcol: dict[int, int], r: int) -> None:
    """Clear row ``r`` of ``col`` with the column whose +-1 sits there."""
    f = col[r] * pivcol[r]
    for rr, vv in pivcol.items():
        nv = col.get(rr, 0) - f * vv
        if nv:
            col[rr] = nv
        else:
            del col[rr]


def _eliminate_unit_pivots(cols: dict[int, dict[int, int]]) -> list[int]:
    """Destructively reduce columns to +-1 pivots; returns the pivot rows.

    Columns are taken in key order and reduced until their lowest (largest)
    row is no pivot row; a +-1 there makes the column the pivot of that row.
    Every other column is set aside and at the end cleared of all pivot
    rows, largest first; it stays in ``cols`` for the dense phase.
    """
    pivots: dict[int, dict[int, int]] = {}  # low row -> its column
    set_aside = []
    for cid in sorted(cols):
        col = cols.pop(cid)
        while col:
            low = max(col)
            if low not in pivots:
                break
            _subtract(col, pivots[low], low)
        if not col:
            continue
        if col[low] == 1 or col[low] == -1:
            pivots[low] = col
        else:
            set_aside.append((cid, col))
    for cid, col in set_aside:
        # a pivot column has no entry below its row, so rows cleared stay clear
        while (hit := max((r for r in col if r in pivots), default=-1)) >= 0:
            _subtract(col, pivots[hit], hit)
        if col:
            cols[cid] = col
    return list(pivots)


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

    ``upper_faces`` is a sequence of faces of one dimension d.  Rows are
    looked up in ``lower_index``; the coefficient of the face with vertex
    ``j`` removed is ``(-1) ** j``, and keys run from ``j = d`` down to 0,
    the order in which ``combinations`` drops vertices.
    """
    if not upper_faces:
        return
    d = len(upper_faces[0]) - 1
    signs = [-1 if j & 1 else 1 for j in range(d, -1, -1)]
    rows = lower_index.__getitem__
    for cid, face in enumerate(upper_faces):
        if cid in skip:
            continue
        yield cid, dict(zip(map(rows, combinations(face, d)), signs))


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
    elimination and the summary leaves the torsion out.  Every face is
    closed, held to the face guard and reduced (module docstring).

    An order complex whose poset's dual-lex certificate verified carries its
    reduced Betti numbers, counted as falling chains, one per degree up to
    its dimension: the summary is read from those, torsion-free, and 1
    higher in degree 0 when not reduced.  Its facets are not read, so no
    chain is listed and no face closed, and the face guard does not apply.
    Any other order complex is first answered, where its poset's atom
    crosscut is accepted, from the faces of the crosscut, and its chains
    are listed only where it is not (module docstring).
    """
    betti = k._certified_betti
    if betti is not None:
        if not reduced:
            betti = (betti[0] + 1,) + betti[1:]
        return HomologySummary(
            reduced=reduced,
            betti=betti,
            torsion=((),) * len(betti) if torsion else None,
            empty_complex=False,
        )
    summary = None if k._poset is None else _crosscut_homology(k._poset, reduced, torsion)
    if summary is None:
        summary = _reduce(_close_faces(k.facets), reduced, torsion)
    return summary


def _crosscut_homology(p, reduced: bool, torsion: bool) -> HomologySummary | None:
    """Homology of Δ(p) from ``p``'s atom crosscut complex, or None where it is not used.

    The crosscut complex is homotopy equivalent to Δ(p) (module docstring),
    so its summary is Δ(p)'s once padded with 0, or cut, to one entry per
    degree of Δ(p), whose dimension is ``p.length() - 2``.
    """
    faces = _crosscut_faces(p)
    if faces is None:
        return None
    s = _reduce(faces, reduced, torsion)
    degrees = p.length() - 1
    return HomologySummary(
        reduced=reduced,
        betti=(s.betti + (0,) * degrees)[:degrees],
        torsion=None if s.torsion is None else (s.torsion + ((),) * degrees)[:degrees],
        empty_complex=False,
    )


def _reduce(faces, reduced: bool, torsion: bool) -> HomologySummary:
    """Homology of the complex whose faces, grouped by dimension, are ``faces``."""
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
        lower_index = dict(zip(faces[d - 1], range(len(faces[d - 1]))))
        cols = dict(_boundary_columns(lower_index, faces[d], skip=cleared))
        del lower_index
        pivot_rows, tails[d] = _snf_of_columns(cols)
        ranks[d] = len(pivot_rows) + len(tails[d])
        # the (d-1)-faces that were unit pivot rows of this map are the
        # columns the next map down can leave out (module docstring)
        cleared = set(pivot_rows)
    betti = tuple(len(faces[i]) - ranks[i] - ranks[i + 1] for i in range(dim + 1))
    if torsion:
        torsion_lists = tuple(
            tuple(x for x in tails[i + 1] if x > 1) for i in range(dim + 1)
        )
    else:
        torsion_lists = None
    return HomologySummary(
        reduced=reduced, betti=betti, torsion=torsion_lists, empty_complex=False
    )
