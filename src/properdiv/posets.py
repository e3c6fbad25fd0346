"""Finite posets with explicit cover relations.

Elements are referred to by integer index; every element carries an opaque
hashable label (an exponent vector, a subset bitmask, a pair of factor
labels, ...).  The cover relation is stored as the transitive reduction of
the order; comparability closures are kept as integer bitmasks so that
order queries are cheap even on posets with a few thousand elements.

Posets are immutable after construction and all queries are pure.  What
a poset fills in on first read (the masks ``above`` and ``below``, the
label index, and the cover direction its constructor did not store) is a
benign race: two threads may both compute it, with equal results, and
either one is kept.  So instances can be shared freely between threads.

Proper products are built straight from the factors' covers.  P(a) is
the proper product of the chains C_{a_k}; ``proper_divisibility_poset``
reads its covers off the same rules by mixed-radix index arithmetic, with
``proper_product`` of the chains as its reference.  Write 0_k for the
bottom of factor k.  A tuple ys covers xs exactly when xs < ys and

(a) some x_k != 0_k is covered by y_k in factor k, or
(b) xs is the bottom tuple and every y_k is 0_k or an atom.

Proof: for xs < ys, a tuple zs lies strictly between them iff z_k = 0_k
wherever y_k = 0_k, z_k < y_k elsewhere with x_k = z_k = 0_k or
x_k < z_k, and zs != xs.  If some x_k != 0_k, then zs != xs holds by
itself and a coordinate with x_k = 0_k can keep z_k = 0_k, so such a zs
exists iff no x_k != 0_k is covered by y_k.  If xs is the bottom tuple,
zs != xs needs some 0_k < z_k < y_k, which exists iff some y_k is
neither 0_k nor an atom.

Rule (a) is a box difference.  Fix ys; let S_k be the strict down-set of
y_k, or {0_k} if y_k = 0_k, and C_k the down-covers of y_k other than 0_k.
Then the down-covers of ys by rule (a) are prod_k S_k minus
prod_k (S_k - C_k).  Proof: xs < ys iff every x_k lies in S_k, and rule (a)
asks for some x_k in C_k, as 0_k lies in no C_k.  ``_box_difference``
walks that difference from the last coordinate back, in mixed-radix index
offsets: a value of x_k in C_k is followed by all of the later
coordinates' box, any other value by their difference.  So each cover
comes out once, already in index order, with no de-duplication or
sorting; P(a) reads the same order off two ranges where at most two
coordinates count.

Rule-built posets are assembled from such covers directly, without the
checks that ``Poset(...)`` applies to covers from outside.  They store
only the direction their rule yields: ``chain``, ``boolean_lattice``,
``proper_divisibility_poset`` and ``proper_product`` store down-covers
and hand over the ends and a linear extension, which only ``Poset(...)``
looks for; it stores both directions.  The other direction is inverted
the first time it is read.  The certificate walk, ``verify_rao`` on the
dual, ``mobius``, ``length`` and the falling-chain counts read only the
down-covers of P(a), so they never pay for the inversion.  A poset and
its dual share one store of covers, masks and label index (see
``Poset``), so what either one fills in, the other finds.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain as _concat
from itertools import compress as _compress
from itertools import islice as _islice
from itertools import product as _cartesian
from math import prod

from .errors import SizeGuardError, face_guard_default

DEFAULT_ELEMENT_GUARD = 10**6
DEFAULT_CHAIN_GUARD = 10**6
DEFAULT_ISO_GUARD = 5000


def as_multidegree(a) -> tuple[int, ...]:
    """Validate and normalize an exponent vector (length >= 1, entries >= 0)."""
    vec = tuple(int(x) for x in a)
    if len(vec) < 1:
        raise ValueError("multidegree must have at least one coordinate")
    if any(x < 0 for x in vec):
        raise ValueError(f"multidegree entries must be non-negative: {vec}")
    return vec


def properly_divides(u, v) -> bool:
    """True iff in every coordinate both entries are 0 or u's entry is smaller."""
    if len(u) != len(v):
        raise ValueError("multidegrees must have equal length")
    return all(a == b == 0 or a < b for a, b in zip(u, v))


def pd_le(u, v) -> bool:
    """The order induced by proper divisibility: u == v or u properly divides v."""
    return tuple(u) == tuple(v) or properly_divides(u, v)


class Poset:
    """A finite poset given by labels and its cover (Hasse) digraph.

    ``upcovers[i]`` lists the indices that cover element ``i`` and
    ``downcovers[i]`` those it covers, both ascending.  ``bottom``
    and ``top`` are the unique minimal and maximal elements, or None
    where there is none.

    ``Poset(labels, upcovers)`` takes labels and covers from outside: it
    refuses repeated labels, sorts and de-duplicates the covers and refuses
    out-of-range targets, cycles and covers implied by longer paths, then
    stores both directions and finds a linear extension ``_topo`` and the
    ends.  The module's constructors skip that step, since their rules
    yield distinct labels, the sorted transitive reduction, ``_topo`` and
    the ends directly; they store the down-covers alone, and ``upcovers``
    inverts them once, on first read.  ``_store`` holds the down-covers,
    up-covers, ``below``, ``above`` and label index of the poset first
    built, each None until filled in, for it (``_side`` 0) and every dual
    (``_side`` 1), which reads position k of the first four as k ^ 1.
    """

    __slots__ = ("labels", "bottom", "top", "_topo", "_store", "_side")

    def __init__(self, labels, upcovers):
        labels = tuple(labels)
        n = len(labels)
        if len(set(labels)) != n:
            repeated = next(lab for lab, k in Counter(labels).items() if k > 1)
            raise ValueError(f"label {repeated!r} is given to more than one element")
        ups = tuple(tuple(sorted(set(c))) for c in upcovers)
        if len(ups) != n:
            raise ValueError("labels and upcovers must have equal length")
        for covers in ups:  # sorted, so only the first or last can be out of range
            if covers and (covers[0] < 0 or covers[-1] >= n):
                j = covers[0] if covers[0] < 0 else covers[-1]
                raise ValueError(f"cover target {j} out of range")
        downs = _invert(ups)
        ends = [[i for i, c in enumerate(covers) if not c] for covers in (downs, ups)]
        bottom, top = (e[0] if len(e) == 1 else None for e in ends)
        self._assemble(labels, downs, self._toposort(downs), bottom, top, ups)
        self._check_reduced()

    def _assemble(self, labels, downcovers, topo, bottom, top, upcovers=None):
        # covers must be sorted, distinct, in range and mutually inverse, and
        # ``upcovers`` None leaves them to be inverted on first read; ``topo``
        # is a linear extension; ``bottom`` and ``top`` are the ends, or None
        self.labels, self._topo, self.bottom, self.top = labels, topo, bottom, top
        self._store, self._side = [downcovers, upcovers, None, None, None], 0
        return self

    # -- basic structure ------------------------------------------------

    def __len__(self):
        return len(self.labels)

    def __repr__(self):
        bt = "bounded" if self.is_bounded else "unbounded"
        return f"Poset({len(self)} elements, {bt})"

    @property
    def is_bounded(self) -> bool:
        return self.bottom is not None and self.top is not None

    def index_of(self, label) -> int:
        return self._index()[label]

    def _index(self) -> dict:
        # label -> index, in the store this poset shares with its duals
        store = self._store
        if store[4] is None:
            store[4] = {lab: i for i, lab in enumerate(self.labels)}
        return store[4]

    @property
    def upcovers(self):
        """Per element, the indices that cover it, ascending."""
        return self._covers(self._side ^ 1)

    @property
    def downcovers(self):
        """Per element, the indices that it covers, ascending."""
        return self._covers(self._side)

    def _covers(self, k):
        # store position k, 0 or 1, inverted from the other on first read
        store = self._store
        if store[k] is None:
            store[k] = _invert(store[k ^ 1])
        return store[k]

    @staticmethod
    def _toposort(down):
        # Kahn's algorithm from the maximal elements down, reversed, over the
        # down-covers ``down``; only ``Poset(...)`` needs it
        n = len(down)
        pending = [0] * n  # per element, its up-covers not yet taken
        for d in down:
            for j in d:
                pending[j] += 1
        stack = [i for i in range(n) if pending[i] == 0]
        order = []
        while stack:
            i = stack.pop()
            order.append(i)
            for j in down[i]:
                pending[j] -= 1
                if pending[j] == 0:
                    stack.append(j)
        if len(order) != n:
            raise ValueError("cover relation contains a cycle")
        return tuple(reversed(order))

    def _check_reduced(self):
        # a cover i -> j is redundant iff it is implied by a path of length >= 2,
        # that is iff j lies strictly above another cover k of i; the pair is
        # looked for only once the union of those strict up-sets meets a cover
        above = self.above
        for i, ups in enumerate(self.upcovers):
            reach = 0
            for k in ups:
                reach |= above[k] ^ (1 << k)
            if reach & sum(map((1).__lshift__, ups)):
                for j in ups:
                    for k in ups:
                        if k != j and (above[k] >> j) & 1:
                            raise ValueError(
                                f"cover {i} -> {j} is implied by {i} -> {k} -> ... -> {j}"
                            )

    # -- order queries ---------------------------------------------------

    @property
    def above(self):
        """Bitmask per element of everything >= it (reflexive)."""
        return self._masks(self._side ^ 1)

    @property
    def below(self):
        """Bitmask per element of everything <= it (reflexive)."""
        return self._masks(self._side)

    def _masks(self, k):
        # store position 2 + k: the closure along the covers at position k,
        # which run down in this poset's order iff k is its side
        store = self._store
        if store[2 + k] is None:
            order = self._topo if k == self._side else reversed(self._topo)
            store[2 + k] = _closure(order, self._covers(k))
        return store[2 + k]

    def le(self, i: int, j: int) -> bool:
        return bool((self.above[i] >> j) & 1)

    def lt(self, i: int, j: int) -> bool:
        return i != j and self.le(i, j)

    def length(self) -> int:
        """Length of the longest chain (number of covers along it)."""
        return max(self._longest_paths(self._topo, self.downcovers), default=0)

    def _longest_paths(self, order, preds) -> list[int]:
        # most covers on a path to each element, pulled from its ``preds``;
        # ``order`` lists every element after its preds.  A comparison per
        # pred runs faster here than max(map(level.__getitem__, ...))
        level = [0] * len(self.labels)
        for i in order:
            most = -1
            for j in preds[i]:
                if level[j] > most:
                    most = level[j]
            level[i] = most + 1
        return level

    def _chain_counts(self) -> list[int]:
        """Per element, the saturated chains from a minimal element up to it.

        A minimal element has one; any other the sum over its down-covers.
        Every count of chains ending at an element, by length or otherwise,
        is at most its entry here.
        """
        down = self.downcovers
        counts = [0] * len(self.labels)
        for i in self._topo:
            total = 0
            for j in down[i]:
                total += counts[j]
            counts[i] = total or 1  # no down-covers: minimal
        return counts

    def atoms(self) -> tuple[int, ...]:
        """Indices covering the bottom element, in index order."""
        if self.bottom is None:
            raise ValueError("poset has no bottom element")
        up, down = self._store[self._side ^ 1], self._store[self._side]
        if up is not None:
            return up[self.bottom]
        # x covers the bottom iff the bottom is x's only down-cover
        only = (self.bottom,)
        return tuple(_compress(range(len(down)), map(only.__eq__, down)))

    # -- derived posets ----------------------------------------------------

    def dual(self) -> "Poset":
        """Same elements with every cover reversed; shares this poset's store."""
        d = Poset.__new__(Poset)
        d.labels, d._store, d._side = self.labels, self._store, self._side ^ 1
        d.bottom, d.top, d._topo = self.top, self.bottom, self._topo[::-1]
        return d

    # -- chains ------------------------------------------------------------

    def maximal_chains(self):
        """All inclusion-maximal chains as index tuples, in lexicographic order.

        Each chain runs from a minimal to a maximal element along covers; its
        length is ``len(chain) - 1``.  The chains are counted per element
        first, so more than the face guard (``face_guard_default()``) raise
        :class:`SizeGuardError` before any is listed.
        """
        guard = face_guard_default()
        upcovers = self.upcovers
        if sum(c for c, ups in zip(self._chain_counts(), upcovers) if not ups) > guard:
            raise SizeGuardError(f"more than {guard} maximal chains")
        chains = []
        # depth-first with a stack of cover iterators, one per element of
        # the path below its end: chains may be longer than the
        # interpreter's recursion limit
        for start in range(len(self)):
            if self.downcovers[start]:
                continue
            path, pending, node = [], [], start
            while node is not None:
                path.append(node)
                ups = upcovers[node]
                if ups:
                    it = iter(ups)
                    node = next(it)
                    pending.append(it)
                    continue
                chains.append(tuple(path))
                path.pop()
                node = None
                while pending:
                    node = next(pending[-1], None)
                    if node is not None:
                        break
                    pending.pop()
                    path.pop()
        return chains

    def mobius(self) -> int:
        """Mobius number mu(bottom, top) of a bounded poset."""
        if not self.is_bounded:
            raise ValueError("poset must be bounded")
        below = self.below
        mu = [0] * len(self.labels)
        mu[self.bottom] = 1
        for z in self._topo:
            if z == self.bottom:
                continue
            acc = 0
            m = below[z] & ~(1 << z)
            while m:
                low = m & -m
                acc += mu[low.bit_length() - 1]
                m ^= low
            mu[z] = -acc
        return mu[self.top]

    # -- isomorphism ---------------------------------------------------------

    def _refined_colors(self):
        # iterated neighborhood refinement, numbered per poset in sorted
        # signature order: a color names the same signature in two posets only
        # when both produce the same signature sets, as isomorphic posets do;
        # seeded with height and depth, a chain settles in one round, not n/2
        n = len(self.labels)
        down = self.downcovers
        height = self._longest_paths(self._topo, down)
        depth = self._longest_paths(reversed(self._topo), self.upcovers)
        colors = list(zip(height, depth, map(len, down), map(len, self.upcovers)))
        while True:
            sigs = [
                (
                    colors[i],
                    tuple(sorted(colors[j] for j in self.upcovers[i])),
                    tuple(sorted(colors[j] for j in down[i])),
                )
                for i in range(n)
            ]
            mapping = {s: k for k, s in enumerate(sorted(set(sigs)))}
            nxt = [mapping[s] for s in sigs]
            if len(mapping) == len(set(colors)):
                return nxt
            colors = nxt

    def isomorphism_to(self, other: "Poset"):
        """An index bijection preserving covers both ways, or None.

        Backtracking over elements ordered by rarest refined color first,
        on an explicit stack of candidate iterators, one per placed element.
        The isomorphism guard bounds the elements of either poset, and the
        chain guard the placements the search makes, undone ones included.
        """
        if len(self) > DEFAULT_ISO_GUARD or len(other) > DEFAULT_ISO_GUARD:
            raise SizeGuardError(f"isomorphism guard is {DEFAULT_ISO_GUARD} elements")
        if len(self) != len(other):
            return None
        ca = self._refined_colors()
        cb = other._refined_colors()
        if Counter(ca) != Counter(cb):
            return None
        n = len(self)
        by_color = {}
        for j in range(n):
            by_color.setdefault(cb[j], []).append(j)
        order = sorted(range(n), key=lambda i: (len(by_color[ca[i]]), i))
        up_a, down_a = self.upcovers, self.downcovers
        up_b, down_b = other.upcovers, other.downcovers
        up_a_sets = [set(c) for c in up_a]
        down_a_sets = [set(c) for c in down_a]
        up_b_sets = [set(c) for c in up_b]
        down_b_sets = [set(c) for c in down_b]
        image = [-1] * n
        inverse = [-1] * n

        def compatible(i, j):
            if len(up_a[i]) != len(up_b[j]) or len(down_a[i]) != len(down_b[j]):
                return False
            for k in up_a[i]:
                m = image[k]
                if m != -1 and m not in up_b_sets[j]:
                    return False
            for k in down_a[i]:
                m = image[k]
                if m != -1 and m not in down_b_sets[j]:
                    return False
            for k in up_b[j]:
                p = inverse[k]
                if p != -1 and p not in up_a_sets[i]:
                    return False
            for k in down_b[j]:
                p = inverse[k]
                if p != -1 and p not in down_a_sets[i]:
                    return False
            return True

        def candidates(i):
            # lazy, so each test sees the placements made before it
            return (
                j for j in by_color[ca[i]] if inverse[j] == -1 and compatible(i, j)
            )

        if not n:
            return []
        placed = 0
        stack = [candidates(order[0])]
        while stack:
            i = order[len(stack) - 1]
            if image[i] != -1:  # every extension of this placement failed
                inverse[image[i]] = -1
                image[i] = -1
            j = next(stack[-1], None)
            if j is None:
                stack.pop()
                continue
            placed += 1
            if placed > DEFAULT_CHAIN_GUARD:
                raise SizeGuardError(
                    f"isomorphism search made more than {DEFAULT_CHAIN_GUARD} placements"
                )
            image[i] = j
            inverse[j] = i
            if len(stack) == n:
                return list(image)
            stack.append(candidates(order[len(stack)]))
        return None

    def is_isomorphic_to(self, other: "Poset"):
        return self.isomorphism_to(other) is not None

    # -- text format ---------------------------------------------------------

    def to_text(self) -> str:
        """Serialize to the line-oriented poset text format."""
        lines = [f"elements: {len(self)}"]
        for i, lab in enumerate(self.labels):
            lines.append(f"{i} {_format_label(lab)}")
        lines.append("covers:")
        for i, ups in enumerate(self.upcovers):
            for j in ups:
                lines.append(f"{i} < {j}")
        if self.bottom is not None:
            lines.append(f"bottom: {self.bottom}")
        if self.top is not None:
            lines.append(f"top: {self.top}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Poset":
        """Parse the poset text format; labels are kept as strings."""
        lines = [ln.rstrip("\n") for ln in text.split("\n")]
        lines = [ln for ln in lines if ln.strip()]
        if not lines or not lines[0].startswith("elements:"):
            raise ValueError("poset text must start with an 'elements:' line")
        n = int(lines[0].split(":", 1)[1])
        # checked before anything of size n is allocated
        if not 0 <= n < len(lines):
            raise ValueError(
                f"element count {n} is negative or exceeds the "
                f"{len(lines) - 1} lines that follow"
            )
        labels: list[str | None] = [None] * n
        pos = 1
        for _ in range(n):
            if pos >= len(lines):
                raise ValueError("fewer element lines than declared")
            idx_str, _, label = lines[pos].partition(" ")
            i = int(idx_str)
            if not 0 <= i < n:
                raise ValueError(f"element index {i} out of range")
            if labels[i] is not None:
                raise ValueError(f"element index {i} given twice")
            labels[i] = label
            pos += 1
        if pos >= len(lines) or lines[pos].strip() != "covers:":
            raise ValueError("expected a 'covers:' line")
        pos += 1
        ups = [[] for _ in range(n)]
        declared_bottom = declared_top = None
        for ln in lines[pos:]:
            ln = ln.strip()
            if ln.startswith("bottom:"):
                declared_bottom = int(ln.split(":", 1)[1])
            elif ln.startswith("top:"):
                declared_top = int(ln.split(":", 1)[1])
            else:
                parts = ln.split("<")
                if len(parts) != 2:
                    raise ValueError(f"bad cover line: {ln!r}")
                i, j = int(parts[0]), int(parts[1])
                if not (0 <= i < n and 0 <= j < n):
                    raise ValueError(f"cover index out of range: {ln!r}")
                ups[i].append(j)
        poset = cls(labels, ups)
        if declared_bottom is not None and poset.bottom != declared_bottom:
            raise ValueError("declared bottom is not the unique minimal element")
        if declared_top is not None and poset.top != declared_top:
            raise ValueError("declared top is not the unique maximal element")
        return poset


def _invert(covers) -> tuple[tuple[int, ...], ...]:
    """The reversed cover lists: entry j lists every i with j in ``covers[i]``.

    i ascends, so each list comes out sorted.
    """
    out = [[] for _ in covers]
    for i, targets in enumerate(covers):
        for j in targets:
            out[j].append(i)
    return tuple(map(tuple, out))


def _closure(order, covers) -> list[int]:
    """Per element, the bitmask of itself and all that ``covers`` reach from it.

    ``order`` lists each element after every element its covers name.
    """
    masks = [0] * len(covers)
    for i in order:
        m = 1 << i
        for j in covers[i]:
            m |= masks[j]
        masks[i] = m
    return masks


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    digits = format(mask, "b")[::-1]
    found = []
    i = digits.find("1")
    while i >= 0:
        found.append(i)
        i = digits.find("1", i + 1)
    return found


def _format_label(lab) -> str:
    if isinstance(lab, tuple):
        return "(" + ",".join(_format_label(x) for x in lab) + ")"
    return str(lab)


# -- constructors -------------------------------------------------------------


def chain(length: int) -> Poset:
    """Bounded total order with ``length + 1`` elements."""
    if length < 0:
        raise ValueError("chain length must be non-negative")
    ids = tuple(range(length + 1))
    downs = ((),) + tuple((i,) for i in range(length))
    return Poset.__new__(Poset)._assemble(ids, downs, ids, 0, length)


def boolean_lattice(n: int) -> Poset:
    """Subsets of an n-set ordered by inclusion; labels are subset bitmasks.

    The element guard bounds the 2**n elements and the n * 2**(n - 1)
    covers, which are counted before anything is built.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    # 2**n passes the guard iff n is below its bit length, so no count is
    # built for a huge n; past n = 1 the covers outnumber the elements
    if n >= DEFAULT_ELEMENT_GUARD.bit_length():
        raise SizeGuardError(f"B{n} would have 2**{n} elements (guard {DEFAULT_ELEMENT_GUARD})")
    covers = n << n >> 1
    if covers > DEFAULT_ELEMENT_GUARD:
        raise SizeGuardError(f"B{n} would have {covers} covers (guard {DEFAULT_ELEMENT_GUARD})")
    ids = tuple(range(1 << n))
    downs = tuple(tuple(s ^ 1 << b for b in reversed(range(n)) if s >> b & 1) for s in ids)
    return Poset.__new__(Poset)._assemble(ids, downs, ids, 0, len(ids) - 1)


def proper_divisibility_poset(a) -> Poset:
    """All multidegrees <= a under proper divisibility; a itself is the top.

    The members other than the top are the vectors with 0 <= x_k < a_k, or
    x_k = 0 where a_k = 0, indexed lexicographically, so x has index
    sum_k x_k * stride_k in mixed radix max(a_k, 1); a is appended last.
    Covers are read off rules (a) and (b) of the module docstring for the
    chains C_{a_k}: y covers x iff either x_k = y_k - 1 >= 1 for some k and
    every other x_j is below y_j (or 0 where y_j = 0), or x = 0 != y and
    every y_k is 0 or 1.  In the box difference of the module docstring,
    S_k = {0, ..., y_k - 1} and C_k = {y_k - 1} where y_k >= 2, and
    S_k = {0}, which adds nothing, elsewhere; proof as there.  With one
    such coordinate the only cover lowers it by one.  With two, j < k, the
    covers are x_j < y_j - 1 with x_k = y_k - 1, then x_j = y_j - 1 with
    any x_k < y_k: two arithmetic ranges of indices.  With more, the
    difference is walked as for products.  ``proper_product``
    of those chains builds the same poset field for field and is the
    tests' reference.  The element guard bounds the elements and the
    candidate covers, which are counted in closed form before any member
    is built.
    """
    a = as_multidegree(a)
    radix = [max(ak, 1) for ak in a]
    count = prod(radix) + (1 if any(a) else 0)
    if count > DEFAULT_ELEMENT_GUARD:
        raise SizeGuardError(
            f"P{a} would have {count} elements (guard {DEFAULT_ELEMENT_GUARD})"
        )
    # rule (a) in coordinate k: the top offers prod_{j != k} max(a_j, 1)
    # candidates, and each of the a_k - 2 values 2 <= y_k < a_k offers
    # prod_{j != k} sum_y max(y, 1) over the other coordinates' values
    spread = [1 + r * (r - 1) // 2 for r in radix]
    candidates = sum(
        prod(radix[:k] + radix[k + 1 :]) + (ak - 2) * prod(spread[:k] + spread[k + 1 :])
        for k, ak in enumerate(a)
        if ak >= 2
    )
    if candidates > DEFAULT_ELEMENT_GUARD:
        raise SizeGuardError(
            f"product would have {candidates} candidate covers (guard {DEFAULT_ELEMENT_GUARD})"
        )

    stride = [prod(radix[k + 1 :]) for k in range(len(a))]
    members = list(_cartesian(*map(range, radix)))
    if any(a):
        members.append(a)
    ids = tuple(range(len(members)))  # slices of it share the index objects
    downs = [()]  # index 0 is the bottom
    for i in range(1, len(members)):
        # the box difference over the coordinates with y_k >= 2, as offsets
        # of y_k - 1 and strides; every other S_k is {0} and adds nothing
        big = [((y - 1) * s, s) for y, s in zip(members[i], stride) if y >= 2]
        if not big:
            down = (0,)  # rule (b)
        elif len(big) == 1:
            hi = big[0][0]
            down = ids[hi : hi + 1]
        elif len(big) == 2:
            # x_j < y_j - 1 with x_k = y_k - 1, then x_j = y_j - 1 with any x_k
            (hi, s), (lo, t) = big
            down = ids[lo : hi + lo : s] + ids[hi : hi + lo + t : t]
        else:  # C_k = {y_k - 1} and S_k = {0, ..., y_k - 1}, as offsets
            row = [((hi,), range(0, hi + s, s)) for hi, s in big]
            down = tuple(_box_difference(row))
        downs.append(down)
    return Poset.__new__(Poset)._assemble(tuple(members), tuple(downs), ids, 0, len(members) - 1)


def proper_product(*factors: Poset) -> Poset:
    """Proper-division product of bounded posets.

    The elements are the tuples (x_1, ..., x_n) lying below the tuple of
    tops, where a tuple is below another iff each coordinate either sits at
    the factor's bottom on both sides or strictly increases.  Indexing is
    lexicographic by factor element indices.  ys covers xs iff xs < ys and
    either some x_k above its bottom is covered by y_k, or xs is the bottom
    tuple and every y_k is a bottom or an atom.  The down-covers of the
    first kind are enumerated from the factors' covers and down-sets; their
    number is counted first and refused past the element guard, as is the
    number of elements.
    """
    if len(factors) < 2:
        raise ValueError("proper_product needs at least two factors")
    for p in factors:
        if not p.is_bounded:
            raise ValueError("all factors must be bounded")
    return _product_poset(factors)


def _product_poset(factors) -> Poset:
    """Proper product of bounded factors, covers by rules (a) and (b) above.

    Rule (a) gives the box difference prod_j S_j minus prod_j (S_j - C_j)
    of the module docstring, where S_j is the strict down-set of y_j, or
    {0_j} if y_j = 0_j, and C_j the down-covers of y_j other than 0_j;
    proof as there.  Each factor element is mapped once to an index offset,
    so that a tuple's index is the sum of its coordinates' offsets.  S_j
    comes from the factor's strict down-sets, built only if another factor
    has covers under rule (a) below its top, and is multiplied into the box
    of the later coordinates only where an earlier coordinate's C_j is
    nonempty.
    """
    n = len(factors)
    bottoms = tuple(p.bottom for p in factors)
    tops = tuple(p.top for p in factors)
    # members other than the top tuple sit below the top in each coordinate,
    # or at it where the factor has one element
    coords = [[y for y in range(len(p)) if y != p.top] or [p.top] for p in factors]
    size = prod(map(len, coords)) + (tops != bottoms)
    if size > DEFAULT_ELEMENT_GUARD:
        raise SizeGuardError(
            f"product would have {size} elements (guard {DEFAULT_ELEMENT_GUARD})"
        )
    # those members are the tuples of ``coords`` in lexicographic order, and
    # the top tuple comes just before the ones whose first coordinate with
    # more than one value, ``lead``, lies above its top: xs has index
    # sum_j at[j][x_j], mixed-radix offsets
    lead = next((j for j, p in enumerate(factors) if len(p) > 1), n)
    at, stride = [], 1
    for j in range(n - 1, -1, -1):
        p = factors[j]
        at.insert(0, [(x - (x > p.top)) * stride + (j == lead and x > p.top) for x in range(len(p))])
        stride *= len(coords[j])
    # lower[k][y]: the offsets of x_k under rule (a) when y_k = y, C_k
    lower = [
        [tuple(o[x] for x in p.downcovers[y] if x != p.bottom) for y in range(len(p))]
        for p, o in zip(factors, at)
    ]
    raised = [sum(len(lower[k][y]) for y in coords[k]) for k in range(n)]
    # rest[j][y]: the offsets of x_j when y_j = y and rule (a) acts in
    # another coordinate, S_j; if no other coordinate has such covers below
    # the top, only the top tuple needs them, and the others are left empty
    rest = []
    for j, (p, o) in enumerate(zip(factors, at)):
        if any(raised[:j] + raised[j + 1 :]):
            masks = _strict_downsets(p)
            rest.append([tuple(map(o.__getitem__, _bits(m))) or (o[y],) for y, m in enumerate(masks)])
        else:
            rest.append([()] * len(p))
            rest[j][p.top] = tuple(o[y] for y in range(len(p)) if y != p.top) or (o[p.top],)
    candidates = 0
    for k in range(n):
        others = [j for j in range(n) if j != k]
        candidates += len(lower[k][tops[k]]) * prod(len(rest[j][tops[j]]) for j in others)
        if raised[k]:
            candidates += raised[k] * prod(
                sum(len(rest[j][y]) for y in coords[j]) for j in others
            )
    if candidates > DEFAULT_ELEMENT_GUARD:
        raise SizeGuardError(
            f"product would have {candidates} candidate covers (guard {DEFAULT_ELEMENT_GUARD})"
        )

    # per coordinate and value: C_j and S_j
    table = [list(zip(c, r)) for c, r in zip(lower, rest)]
    members = list(_cartesian(*coords))
    rows = _cartesian(*[list(map(t.__getitem__, c)) for t, c in zip(table, coords)])
    bottom = top = sum(map(list.__getitem__, at, bottoms))
    if tops != bottoms:
        top = at[lead][tops[lead]]
        members.insert(top, tops)
        rows = _concat(_islice(rows, top), [tuple(map(list.__getitem__, table, tops))], rows)
    downs = []
    for i, row in enumerate(rows):
        diff = _box_difference(row)
        if diff:
            down = tuple(diff)
        else:  # every y_k is 0_k or an atom: rule (b)
            down = () if i == bottom else (bottom,)
        downs.append(down)
    # lexicographic order on the factors' topological positions, top tuple
    # last, extends the product's order (xs < ys raises no coordinate's
    # position, and some); for index-ordered factors it is index order
    topo = [0]
    for p, o in zip(factors, at):
        steps = [o[y] for y in p._topo if y != p.top] or [o[p.top]]
        topo = [t + s for t in topo for s in steps]
    if tops != bottoms:
        topo.append(top)
    # chains and Boolean lattices label by index
    if any(p.labels != tuple(range(len(p))) for p in factors):
        members = [tuple(p.labels[x] for p, x in zip(factors, xs)) for xs in members]
    return Poset.__new__(Poset)._assemble(tuple(members), tuple(downs), tuple(topo), bottom, top)


def _box_difference(row):
    """The offsets of prod_j S_j minus prod_j (S_j - C_j), ascending.

    ``row`` holds per coordinate C_j and S_j as ascending index offsets.
    Walked from the last coordinate back, ``diff`` holds the difference
    over the coordinates walked so far and ``box`` the whole of prod S_j
    over them, save that the S_j in ``held`` are multiplied in only once a
    coordinate with C_j nonempty needs the box, so an S_j that no such
    coordinate needs may be left empty.  Testing x in C_j takes |C_j|
    steps per x in S_j, within the candidate covers the guards count.
    """
    diff, box = row[-1]
    held = []
    for low, below in row[-2::-1]:
        if low:
            for later in held:
                box = [x + o for x in later for o in box]
            held = []
            if diff:
                diff = [x + o for x in below for o in (box if x in low else diff)]
            else:
                diff = [x + o for x in low for o in box]
        elif diff:
            diff = [x + o for x in below for o in diff]
        held.append(below)
    return diff


def _strict_downsets(p: Poset) -> list[int]:
    """Bitmask of the elements strictly below each element of ``p``.

    Refused once the down-sets below the top hold more than the element guard.
    """
    masks = [0] * len(p)
    total = 0
    for y in p._topo:
        for x in p.downcovers[y]:
            masks[y] |= masks[x] | 1 << x
        if y != p.top:
            total += masks[y].bit_count()
            if total > DEFAULT_ELEMENT_GUARD:
                raise SizeGuardError(
                    f"product would have more than {DEFAULT_ELEMENT_GUARD} candidate covers"
                )
    return masks
