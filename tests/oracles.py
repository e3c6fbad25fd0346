"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's own algorithms: the Mobius number
comes from chain counting, invariant factors from gcds of minors, ranks
from elimination over the rationals, comparability from transitive closure
over the cover relation, boundary matrices and the covers of P(a) and of
proper products from comparing all pairs, the number of each element's
down-covers in a proper product from its factors' down-set sizes, falling
chains from filtering every maximal chain by their definition, the atom
crosscut complex and its verdict from comparing elements one pair at a
time, and open parts from the checking constructor.  The exceptions are
earlier forms of the library's own code, kept as references for their
replacements:
``verify_rao_by_generators``, the verifier with one generator per
interval, for its frame walk (it tests the conditions element by element,
not with the verifier's masks); ``dual_lex_betti_by_lists``, which checks
the certificate in a pass of its own from the top down, testing both
conditions at every cover with condition (ii) as a union of the
witnesses' down-sets, and keeps a row of counts per cover as a list, for
the walk's single bottom-up pass, which tests only the atoms it reaches
in part, holds one packed row per element and builds the partial rows it
reads; ``falling_chain_counts_by_lists`` and
``falling_chain_row_by_lists``, with list rows, for the packed ones; ``search_rao_by_recursion``, the atom-ordering search as
one recursive call per interval and per position, for its explicit stack;
and ``boundary_columns_by_slicing``, which finds each face's rows by
slicing one vertex out at a time, for the boundary columns read from
``combinations``.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product, zip_longest
from math import gcd

from properdiv import posets
from properdiv.shellability import RaoCertificate


def open_part(poset):
    """The bounded ``poset`` minus its bottom and top, through the checking constructor."""
    members = [i for i in range(len(poset)) if i not in (poset.bottom, poset.top)]
    remap = {old: new for new, old in enumerate(members)}
    ups = [[remap[j] for j in poset.upcovers[i] if j in remap] for i in members]
    return posets.Poset([poset.labels[i] for i in members], ups)


def hall_mobius(poset) -> int:
    """Mobius number as the signed count of bottom-to-top chains."""
    below = poset.below
    total = 0
    stack = [(poset.bottom, 0)]
    while stack:
        x, length = stack.pop()
        if x == poset.top:
            total += -1 if length % 2 else 1
            continue
        for y in range(len(poset)):
            if y != x and (below[y] >> x) & 1:
                stack.append((y, length + 1))
    return total


def closure_from_covers(poset):
    """Strict comparability pairs obtained by closing the cover relation."""
    n = len(poset)
    reach = [set(poset.upcovers[i]) for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            extra = set()
            for j in reach[i]:
                extra |= reach[j]
            if not extra <= reach[i]:
                reach[i] |= extra
                changed = True
    return {(i, j) for i in range(n) for j in reach[i]}


def _det(mat) -> int:
    """Exact determinant by fraction-full elimination on small matrices."""
    n = len(mat)
    m = [[Fraction(v) for v in row] for row in mat]
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    assert det.denominator == 1
    return det.numerator


def rank_over_rationals(rows) -> int:
    """Rank by Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][c] / m[rank][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def dense_boundaries(facets):
    """(faces by dimension, dense boundary matrices) of the complex of ``facets``.

    The faces are the nonempty vertex subsets of the facets, each sorted.
    Entry (r, c) of the d-th matrix is (-1)**j when the r-th (d-1)-face is
    the c-th d-face without its j-th vertex, found by comparing every pair
    of faces, and 0 otherwise.
    """
    found = {
        sub for f in facets for k in range(1, len(f) + 1) for sub in combinations(sorted(f), k)
    }
    top = max((len(f) for f in found), default=0)
    faces = [sorted(f for f in found if len(f) == d + 1) for d in range(top)]
    matrices = []
    for d in range(1, len(faces)):
        mat = [[0] * len(faces[d]) for _ in faces[d - 1]]
        for r, low in enumerate(faces[d - 1]):
            for c, up in enumerate(faces[d]):
                if set(low) <= set(up):
                    (gone,) = set(up) - set(low)
                    mat[r][c] = (-1) ** up.index(gone)
        matrices.append(mat)
    return faces, matrices


def boundary_columns_by_slicing(lower_index, upper_faces, skip=frozenset()):
    """``homology._boundary_columns`` with each face's rows found by slicing.

    Yields ``(index, {row: +-1})`` for every face of ``upper_faces`` not in
    ``skip``; the face with vertex ``j`` removed has coefficient ``(-1) ** j``.
    """
    for cid, face in enumerate(upper_faces):
        if cid in skip:
            continue
        yield cid, {
            lower_index[face[:j] + face[j + 1 :]]: -1 if j & 1 else 1
            for j in range(len(face))
        }


def snf_by_minors(rows):
    """(invariant factors, rank) from gcds of k x k minors."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    gcds = [1]
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rsel in combinations(range(nr), k):
            for csel in combinations(range(nc), k):
                minor = _det([[rows[i][j] for j in csel] for i in rsel])
                g = gcd(g, minor)
        if g == 0:
            break
        gcds.append(g)
    rank = len(gcds) - 1
    factors = [gcds[k] // gcds[k - 1] for k in range(1, rank + 1)]
    return factors, rank


def crosscut_by_definition(poset, most=None):
    """(faces, verdict) of the atom crosscut complex of a bounded ``poset``, by definition.

    The atoms are the minimal elements of the open part, numbered 0, 1, ...
    in index order.  A set of atoms is a face iff some element of the open
    part lies above each of them, tested with ``le``; a set with no such
    bound has none of its supersets as faces, so the faces are found by
    adding one atom at a time to faces.  The verdict is whether every face's
    upper bounds in the open part have a least element, found by comparing
    every pair of them.  Past ``most`` faces the search stops, and the faces
    and verdict found so far are returned.
    """
    inner = [x for x in range(len(poset)) if x not in (poset.bottom, poset.top)]
    atoms = [x for x in inner if not any(poset.lt(y, x) for y in inner)]
    faces, verdict = set(), True
    stack = [((), inner)]
    while stack:
        face, bounds = stack.pop()
        for v in range(face[-1] + 1 if face else 0, len(atoms)):
            common = [x for x in bounds if poset.le(atoms[v], x)]
            if common:
                faces.add(face + (v,))
                if most is not None and len(faces) > most:
                    return faces, verdict
                least = [m for m in common if all(poset.le(m, x) for x in common)]
                verdict = verdict and len(least) == 1
                stack.append((face + (v,), common))
    return faces, verdict


def count_chains_by_length(poset):
    """Number of nonempty chains of each size, by dynamic programming."""
    n = len(poset)
    below = poset.below
    order = sorted(range(n), key=lambda i: bin(below[i]).count("1"))
    ending = {i: {1: 1} for i in range(n)}
    for j in order:
        for i in range(n):
            if i != j and (below[j] >> i) & 1:
                for size, cnt in ending[i].items():
                    ending[j][size + 1] = ending[j].get(size + 1, 0) + cnt
    totals = {}
    for table in ending.values():
        for size, cnt in table.items():
            totals[size] = totals.get(size, 0) + cnt
    return totals


def _covers_by_all_pairs(members, leq):
    """Upcovers as the transitive reduction of ``leq`` over all pairs."""
    n = len(members)
    above = [
        {j for j in range(n) if j != i and leq(members[i], members[j])}
        for i in range(n)
    ]
    return tuple(
        tuple(sorted(j for j in above[i] if not any(j in above[k] for k in above[i])))
        for i in range(n)
    )


def all_pairs_proper_divisibility(a):
    """(labels, upcovers) of P(a) by comparing every pair of multidegrees."""
    grid = sorted(product(*(range(x) if x else (0,) for x in a)))
    members = grid + [tuple(a)] if any(a) else grid

    def leq(u, v):
        return u == v or all(x == y == 0 or x < y for x, y in zip(u, v))

    return tuple(members), _covers_by_all_pairs(members, leq)


def all_pairs_proper_product(*factors):
    """(labels, upcovers) of a proper product by comparing every pair of tuples.

    Comparability inside each factor comes from closing its covers.
    """
    strict = [closure_from_covers(p) for p in factors]
    bottoms = tuple(p.bottom for p in factors)
    tops = tuple(p.top for p in factors)

    def leq(xs, ys):
        return xs == ys or all(
            x == y == bot or (x, y) in lt
            for lt, bot, x, y in zip(strict, bottoms, xs, ys)
        )

    members = [
        xs for xs in product(*(range(len(p)) for p in factors)) if leq(xs, tops)
    ]
    labels = tuple(tuple(p.labels[x] for p, x in zip(factors, xs)) for xs in members)
    return labels, _covers_by_all_pairs(members, leq)


def box_difference_cover_counts(poset, factors):
    """The number of down-covers of each element of a proper product.

    For ys let S_j be the strict down-set of y_j, or {0_j} if y_j is the
    bottom, and C_j the down-covers of y_j other than 0_j.  Rule (a) gives
    prod |S_j| - prod |S_j - C_j| down-covers; an element with none covers
    the bottom alone (rule (b)), and the bottom covers nothing.  The sizes
    come from closing each factor's covers, not from the product's.
    """
    sizes = []
    for p in factors:
        strict = Counter(y for _, y in closure_from_covers(p))
        sizes.append(
            [(max(strict[y], 1), sum(x != p.bottom for x in p.downcovers[y])) for y in range(len(p))]
        )
    counts = []
    for i, labels in enumerate(poset.labels):
        whole = outside = 1
        for p, size, label in zip(factors, sizes, labels):
            s, c = size[p.index_of(label)]
            whole *= s
            outside *= s - c
        counts.append(whole - outside or int(i != poset.bottom))
    return counts


def falling_chains_by_definition(dual, length=None):
    """Falling maximal chains of ``dual``, the dual of P(a, b), as label tuples.

    A maximal chain from (a, b) down to (0, 0) is falling when no step but
    the last lands on the componentwise decrement of the element before it,
    and no element other than its ends is a border element (1, k), (k, 1),
    (0, k) or (k, 0) with k >= 2.  ``length`` keeps only the chains with
    that many steps.
    """

    def decrement(e):
        return tuple(max(x - 1, 0) for x in e)

    def border(e):
        c, d = e
        return (c <= 1 and d >= 2) or (d <= 1 and c >= 2)

    out = []
    for chain in dual.maximal_chains():
        elems = tuple(dual.labels[i] for i in chain)
        if length is not None and len(elems) - 1 != length:
            continue
        if any(elems[i + 1] == decrement(elems[i]) for i in range(len(elems) - 2)):
            continue
        if any(border(e) for e in elems[1:-1]):
            continue
        out.append(elems)
    return out


def verify_rao_by_generators(p, cert):
    """``verify_rao`` as one generator per interval, each sent its children's results.

    Condition (ii), the short-interval test and the atoms condition (i)
    requires are computed here from ``p.upcovers`` and ``p.above``, element
    by element, not with the library's masks.
    """
    up, above = p.upcovers, p.above
    index = {lab: i for i, lab in enumerate(p.labels)}

    def label_of(x):
        return p.labels[x]

    def above_earlier(q, earlier):
        return any(e != q and (above[e] >> q) & 1 for e in earlier)

    def condition_ii(atom, earlier):
        # every q above atom and above an earlier atom lies above an
        # up-cover of atom that is itself above an earlier atom
        witnesses = [c for c in up[atom] if above_earlier(c, earlier)]
        return all(
            any((above[c] >> q) & 1 for c in witnesses)
            for q in range(len(p))
            if (above[atom] >> q) & 1 and above_earlier(q, earlier)
        )

    def check(x, node, required_first):
        atoms = up[x]
        try:
            ordering = tuple(map(index.__getitem__, node.ordering))
        except KeyError as exc:
            raise ValueError(f"unknown atom label in certificate: {exc}") from None
        if sorted(ordering) != list(atoms):
            raise ValueError(
                f"ordering at interval above {label_of(x)!r} is not a "
                f"permutation of its atoms"
            )
        if sum(1 << i for i in ordering[: required_first.bit_count()]) != required_first:
            return (
                False,
                f"condition (i): atoms {sorted(map(label_of, posets._bits(required_first)))} "
                f"must come first in the interval above {label_of(x)!r}",
            )
        if all(q == p.top for q in atoms):  # [x, top] has length <= 1
            if node.children is not None:
                raise ValueError(
                    f"interval above {label_of(x)!r} has length <= 1 but the "
                    f"certificate carries children"
                )
            return True, None
        if node.children is None or len(node.children) != len(ordering):
            raise ValueError(
                f"certificate above {label_of(x)!r} must carry one child per atom"
            )
        for j, atom in enumerate(ordering):
            earlier = ordering[:j]
            if not condition_ii(atom, earlier):
                return (
                    False,
                    f"condition (ii) fails for atom {label_of(atom)!r} at "
                    f"position {j} in the interval above {label_of(x)!r}",
                )
            # the atoms of [atom, top] above an earlier atom must lead there
            required = sum(1 << c for c in up[atom] if above_earlier(c, earlier))
            ok, why = yield atom, node.children[j], required
            if not ok:
                return False, why
        return True, None

    memo = {}
    stack = [((p.bottom, 0, id(cert)), check(p.bottom, cert, 0))]
    result = None
    while stack:
        key, walk = stack[-1]
        try:
            x, node, required_first = walk.send(result)
        except StopIteration as done:
            stack.pop()
            result = memo[key] = done.value
            continue
        key = (x, required_first, id(node))
        result = memo.get(key)
        if result is None:
            stack.append((key, check(x, node, required_first)))
    return result


def dual_lex_betti_by_lists(poset):
    """``_dual_lex_betti`` one cover at a time: the per-cover reference.

    Both conditions are tested at every cover, and the walk keeps a row of
    counts per cover, each a list with one entry per length, where
    ``_dual_lex_betti`` keeps one packed row per element and builds only
    the partial rows it reads.  Its tuple may end in zeros where a walk
    stops short of the bottom.
    """
    down, below = poset.downcovers, poset.below
    down_mask = [sum(map((1).__lshift__, d)) for d in down]
    leads = [None] * len(poset)
    for x in reversed(poset._topo):
        prefix = 0
        sizes = leads[x] = []
        for atom in reversed(down[x]):
            required = down_mask[atom] & prefix
            rest = down_mask[atom] ^ required
            if required and rest.bit_length() > (required & -required).bit_length():
                return None
            trigger = below[atom] & prefix
            if trigger:
                witness = 0
                for q in down[atom]:
                    if required >> q & 1:
                        witness |= below[q]
                if trigger & ~witness:
                    return None
            sizes.append(required.bit_count())
            prefix |= below[atom]
    sums = [None] * len(poset)
    sums[poset.bottom] = [[1]]
    for x in poset._topo[1:]:
        acc = []
        row = sums[x] = [acc]
        for atom, size in zip(reversed(down[x]), leads[x]):
            acc = [*map(sum, zip_longest(acc, (0, *sums[atom][size]), fillvalue=0))]
            row.append(acc)
    return tuple(sums[poset.top][-1][2:])


def falling_chain_counts_by_lists(a, b):
    """``betti_from_falling_chains`` with every row of counts a list, one entry per length."""
    betti = tuple(falling_chain_row_by_lists(a, b)[2:])
    return betti + (0,) * (a - 1 - len(betti))


def falling_chain_row_by_lists(a, b):
    """The falling chains of the dual of P(a, b) counted by length from 0; it may end in zeros."""
    poset = posets.proper_divisibility_poset((a, b))
    bottom = poset.bottom
    counts = [None] * len(poset)
    for x in poset._topo:
        down = poset.downcovers[x]
        if x == bottom:
            counts[x] = [1]
            continue
        steps = down if down[-1] == bottom else down[:-1]
        counts[x] = [0, *map(sum, zip_longest(*map(counts.__getitem__, steps), fillvalue=0))]
    return counts[poset.top]


def search_rao_by_recursion(p):
    """``search_rao`` as one recursive call per interval and per position.

    It tries candidates in the same order, keeps the same memo and applies
    condition (ii) as the union of the witnesses' up-sets, without a step
    guard: its depth grows with the poset's length, so it serves small inputs.
    """
    up, above = p.upcovers, p.above
    up_mask = [sum(1 << q for q in ups) for ups in up]
    memo = {}

    def condition_ii(atom, prefix_mask):
        trigger = above[atom] & prefix_mask
        if not trigger:
            return True
        witness = 0
        for q in up[atom]:
            if (prefix_mask >> q) & 1:
                witness |= above[q]
        return not (trigger & ~witness)

    def search(x, required_first):
        key = (x, required_first)
        if key in memo:
            return memo[key]
        atoms = up[x]
        if above[x].bit_count() <= 2:  # the interval has length <= 1
            cert = memo[key] = RaoCertificate(tuple(p.labels[i] for i in atoms), None)
            return cert
        required = posets._bits(required_first)
        rest = [q for q in atoms if not (required_first >> q) & 1]
        ordering, children = [], []

        def extend(prefix_mask):
            j = len(ordering)
            if j == len(atoms):
                return True
            for atom in required if j < len(required) else rest:
                if atom in ordering or not condition_ii(atom, prefix_mask):
                    continue
                # the atoms of [atom, top] above an earlier atom must lead there
                child = search(atom, up_mask[atom] & prefix_mask)
                if child is None:
                    continue
                ordering.append(atom)
                children.append(child)
                if extend(prefix_mask | above[atom]):
                    return True
                ordering.pop()
                children.pop()
            return False

        cert = None
        if extend(0):
            cert = RaoCertificate(tuple(p.labels[i] for i in ordering), tuple(children))
        memo[key] = cert
        return cert

    return search(p.bottom, 0)
