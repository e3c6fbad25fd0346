"""Recursive atom orderings and falling chains.

A recursive atom ordering of a bounded poset P is a linear order on its
atoms such that (i) each interval [p, 1] admits one in which the atoms
lying above some earlier atom come first, and (ii) whenever two atoms
p < p' (in the order) sit below a common element q, some atom q' of
[p', 1] below q lies above an atom earlier than p'.  Existence is
equivalent to CL-shellability of P.

Certificates store the chosen ordering at every interval.  The search and
the verifier both work on the intervals [x, 1] of the ambient poset using
its comparability bitmasks.  The search memoizes on x and the bitmask of
the required prefix: the constraint condition (i) imposes on a child
interval is exactly which atoms must come first, nothing more.  The
verifier memoizes on x and the certificate node met there, whose checks
depend on the pair alone except (i), which it tests on every edge.

The falling-chain machinery is specific to two coordinates: the labeling
induced by the dual-lexicographic atom ordering makes a maximal chain of
the dual of P(a, b) falling iff it never steps onto the componentwise
decrement except at the last step and never passes through a border
element (1, k), (k, 1), (0, k) or (k, 0) with k >= 2 in its interior.

The dual-lex certificate reads only covers: it orders each element's
down-covers by descending index, which on P(a), indexed lexicographically,
is dual-lex order.  There an element's last down-cover is its
componentwise decrement, which the falling chains read.

``order_complex`` checks that certificate and counts its falling chains
with the walk ``_dual_lex_betti`` before it lists any chain: one pass
from the bottom up checks each element's atoms and adds their counts.
Most atoms need no test: where the down-set of the atoms before it holds
an atom's whole strict down-set, both conditions hold and the atom adds
its own full row.  Any other atom passes iff that down-set meets its
down-set in exactly the down-sets of its first few atoms, one comparison
of masks, and adds a partial row that counts only the chains through
those (see the walk for both proofs).  The walk holds a ``len(P)``-bit
mask per element; a row of counts by length packed into one integer
(below) per element, of its level (the most covers on a chain up to it)
plus one slots; and each partial row it builds, of as many slots, with
its mask.  It is skipped, answering None, where the masks in 64-bit words
(``len(P)**2 // 64``) or the full rows' slots, one per count whatever
their width, exceed the face guard, and it stops, answering None, once
the partial rows and their masks in words take the total past it.  The
words are counted before any mask is built; the full rows' slots are
added up in the set-up pass and checked before ``below`` and any row.
``verify_rao`` and ``search_rao`` hold the same up-set masks and refuse
past the same number of words with :class:`SizeGuardError`.  Besides,
the search holds a mask of up-covers per element, and the verifier one
per (element, certificate node) pair it enters.

Falling chains are counted without listing them.  The walk refuses a step
from x onto k iff k is x's decrement and not (0, 0), a test of the step's
two ends alone, so the falling chains are exactly the paths from the top
to (0, 0) along the allowed steps.  The number of such paths with l steps
from x is the sum, over the allowed steps x -> k, of those with l - 1
steps from k; filled in for every element in a linear extension from the
bottom up, in exact integers, this is the count the walk would reach.
An element's counts by length form one integer, sum_l c_l * 2**(w*l), so
they are summed over the steps by big-integer additions and moved one
step longer by a shift by w; only the top's row is unpacked.  The slot
width w is the bit length of the largest number of saturated chains
from the bottom up to any element (``Poset._chain_counts``), which in a
bounded poset is the top's, as the walk counts it.  The chains
a row counts, of all lengths together, are some of those up to its
element, so neither a slot nor a partial sum of rows reaches 2**w, and no
slot carries into the next.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import posets
from .errors import SizeGuardError, face_guard_default
from .posets import Poset, as_multidegree, proper_divisibility_poset

# -- certificates -----------------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class RaoCertificate:
    """Atom ordering of one interval plus certificates for its children.

    ``children`` is None exactly when the certified interval has length at
    most one (nothing to check there); otherwise ``children[j]`` certifies
    the interval above ``ordering[j]``.  Children may be shared, but the
    JSON form spells every one out, so it may hold at most
    ``posets.DEFAULT_CHAIN_GUARD`` nodes.  The serializers, ``==`` and
    ``hash`` walk explicit stacks: certificates nest once per step of a
    maximal chain, deeper than the interpreter's recursion limit.  ``==``
    and ``hash`` compare certificates as the trees they spell out, but
    visit a shared node, or pair of nodes, once.  The repr gives the root's
    ordering and the number of distinct nodes, not the tree.
    """

    ordering: tuple
    children: tuple["RaoCertificate", ...] | None

    def __repr__(self):
        nodes = sum(1 for _ in self._postorder())
        return f"RaoCertificate(ordering={self.ordering!r}, distinct_nodes={nodes})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        compared = set()  # id pairs found equal or still to be compared
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in compared:
                continue
            compared.add((id(a), id(b)))
            if a.__class__ is not b.__class__ or a.ordering != b.ordering:
                return False
            if a.children is None or b.children is None:
                if a.children is not b.children:
                    return False
            elif len(a.children) != len(b.children):
                return False
            else:
                stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self):
        hashes: dict[int, int] = {}
        for node in self._postorder():
            kids = node.children
            if kids is not None:
                kids = tuple(hashes[id(c)] for c in kids)
            hashes[id(node)] = hash((node.ordering, kids))
        return hashes[id(self)]

    def _postorder(self):
        """Every distinct node from this one down, once, after its children."""
        done: set[int] = set()
        stack = [self]
        while stack:
            node = stack[-1]
            pending = [c for c in node.children or () if id(c) not in done]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if id(node) not in done:  # else pushed by two parents
                done.add(id(node))
                yield node

    def to_json_dict(self) -> dict:
        """Nested ``{"ordering": [...], "children": [...] | None}`` dicts.

        A shared child becomes one dict shared by its parents.
        """
        done: dict[int, dict] = {}
        size: dict[int, int] = {}  # nodes of the JSON tree below each node
        for node in self._postorder():
            kids = node.children or ()
            size[id(node)] = 1 + sum(size[id(c)] for c in kids)
            done[id(node)] = {
                "ordering": [_label_json(x) for x in node.ordering],
                "children": None if node.children is None else [done[id(c)] for c in kids],
            }
        if size[id(self)] > posets.DEFAULT_CHAIN_GUARD:
            raise SizeGuardError(
                f"certificate tree has {size[id(self)]} nodes "
                f"(guard {posets.DEFAULT_CHAIN_GUARD})"
            )
        return done[id(self)]

    def iterencode(self):
        """The text of ``json.dumps(self.to_json_dict())``, piece by piece."""
        heads: dict[int, str] = {}
        stack = [enumerate((self.to_json_dict(),))]
        while stack:
            j, node = next(stack[-1], (0, None))
            if node is None:
                stack.pop()
                if stack:
                    yield "]}"
                continue
            head = heads.get(id(node))
            if head is None:
                ordering = json.dumps(node["ordering"])
                end = "null}" if node["children"] is None else "["
                head = heads[id(node)] = f'{{"ordering": {ordering}, "children": {end}'
            yield ", " + head if j else head
            if node["children"] is not None:
                stack.append(enumerate(node["children"]))


def _label_json(label):
    if isinstance(label, tuple):
        return [_label_json(x) for x in label]
    return label


def _interval_masks(p: Poset):
    """Up-covers and reflexive up-sets per element, under the mask bound.

    Reflexive up-sets serve as strict ones: a prefix mask joins those of
    earlier atoms of an interval, which are distinct from and incomparable
    to a later atom, so their own bits meet neither its up-set nor its
    up-covers (``verify_rao`` checks that an ordering permutes the atoms).
    """
    if not p.is_bounded:
        raise ValueError("poset must be bounded")
    guard = face_guard_default()
    if len(p) ** 2 // 64 > guard:
        raise SizeGuardError(
            f"face-count guard {guard} exceeded by the bitmasks of {len(p)} elements"
        )
    return p.upcovers, p.above


def _condition_ii_ok(up, above, atom: int, prefix_mask: int) -> bool:
    """Condition (ii) for ``atom`` given the earlier atoms' up-sets."""
    trigger = above[atom] & prefix_mask
    if not trigger:
        return True
    witness = 0
    for q in up[atom]:
        if (prefix_mask >> q) & 1:
            witness |= above[q]
    return not (trigger & ~witness)


def _condition_i_failure(labels, required: int, x: int):
    return (
        False,
        f"condition (i): atoms {sorted(map(labels.__getitem__, posets._bits(required)))} "
        f"must come first in the interval above {labels[x]!r}",
    )


def _leads(ordering, required: int, k: int) -> bool:
    """Condition (i): ``required``, k atoms of ``ordering``, are its first k.

    Nothing to compare where k is 0 or all of ``ordering``.
    """
    if not k or k == len(ordering):
        return True
    lead = 0
    for q in ordering[:k]:
        lead |= 1 << q
    return lead == required


def verify_rao(p: Poset, cert: RaoCertificate):
    """Check a certificate against every interval it covers.

    Returns ``(True, None)`` or ``(False, description of the first violated
    condition)``.  Raises ValueError when the certificate's orderings are
    not permutations of the proper atom sets.

    The memo is keyed on (x, node), an element and the certificate node
    met there.  What the interval above x is checked for depends on the
    pair alone, except condition (i), whose required atoms the parent's
    prefix fixes; and the first failure ends the walk, so a pair met again
    has passed.  The first edge into a pair checks (ii) at the parent from
    the up-covers, then translates and checks the pair's ordering once and
    enters it.  The memo keeps the pair's ordering, the mask ``atoms`` of
    its atoms and, per k, the size ``reached[k]`` of the union of the
    up-sets of its first k atoms.  Every edge tests (i): ``required =
    atoms & prefix``, of k bits, must be the first k atoms, which takes no
    comparison where k is 0 or all of them.  On a later edge where (i)
    holds, (ii) is one comparison of sizes: the witness, the union of the
    up-sets of those k atoms, lies inside the trigger, since the prefix is
    an up-set (``_dual_lex_betti`` proves the same inclusion and compares
    the trigger with the witness itself).  Where (i) fails, (ii) is
    checked from the up-covers first, so the first violation is the same
    either way.
    """
    up, above = _interval_masks(p)
    index, labels = p._index(), p.labels
    seen: dict = {}  # (x, id(node)) -> (ordering, atoms, reached) of every pair entered
    # depth-first on an explicit stack of frames [x, edges, prefix mask,
    # reached], one per open interval: certificates nest once per step of a
    # maximal chain, deeper than the interpreter's recursion limit.  A
    # frame's edges iterate over the (atom, child) pairs not taken yet, and
    # its prefix mask is the union of the earlier atoms' up-sets.
    stack: list = []
    x, node, prefix = p.bottom, cert, 0
    while True:
        # the first edge into the pair (x, node); (ii) at the parent holds
        ordering, atoms = [], 0
        try:
            for label in node.ordering:
                q = index[label]
                ordering.append(q)
                atoms |= 1 << q
        except KeyError as exc:
            raise ValueError(f"unknown atom label in certificate: {exc}") from None
        if sorted(ordering) != list(up[x]):
            raise ValueError(
                f"ordering at interval above {labels[x]!r} is not a "
                f"permutation of its atoms"
            )
        required = atoms & prefix
        if not _leads(ordering, required, required.bit_count()):
            return _condition_i_failure(labels, required, x)
        reached = [0]
        seen[x, id(node)] = ordering, atoms, reached
        if above[x].bit_count() <= 2:  # the interval has length <= 1
            if node.children is not None:
                raise ValueError(
                    f"interval above {labels[x]!r} has length <= 1 but the "
                    f"certificate carries children"
                )
            if ordering:  # the top alone, its own up-set
                reached.append(1)
        elif node.children is None or len(node.children) != len(ordering):
            raise ValueError(
                f"certificate above {labels[x]!r} must carry one child per atom"
            )
        else:
            stack.append([x, zip(ordering, node.children), 0, reached])
        # take the next edge of the innermost open interval
        while stack:
            frame = stack[-1]
            x, edges, prefix, reached = frame
            for atom, node in edges:
                trigger = above[atom] & prefix
                known = seen.get((atom, id(node)))
                if known is not None:
                    order, atoms, sizes = known
                    required = atoms & prefix
                    k = required.bit_count()
                    # _leads's own first test, spared a call on this hot path
                    if not k or k == len(order) or _leads(order, required, k):
                        if trigger.bit_count() == sizes[k]:
                            prefix |= above[atom]
                            reached.append(prefix.bit_count())
                            continue
                    elif _condition_ii_ok(up, above, atom, prefix):
                        return _condition_i_failure(labels, required, atom)
                elif not trigger or _condition_ii_ok(up, above, atom, prefix):
                    # the frame moves past atom; ``prefix`` stays the pair's
                    frame[2] = prefix | above[atom]
                    reached.append(frame[2].bit_count())
                    break
                return (
                    False,
                    f"condition (ii) fails for atom {labels[atom]!r} at "
                    f"position {len(reached) - 1} in the interval above {labels[x]!r}",
                )
            else:
                stack.pop()  # every edge of the interval passed
                continue
            x = atom  # enter the pair (atom, node) on its first edge
            break
        else:
            return True, None


def search_rao(p: Poset):
    """Exhaustive memoized search for a recursive atom ordering.

    Returns the first certificate in lexicographic permutation order (with
    constrained atoms kept in front), or None once the space is exhausted.
    In an interval, the atoms placed so far are those in the prefix mask,
    the union of their up-sets, so the mask fixes every later try; a mask
    from which no ordering was completed is not reached again.

    The search counts its steps against the chain guard and raises
    :class:`SizeGuardError` past it.  Entering an interval costs a step per
    atom, as it sorts them into those that must lead and the rest.  Trying
    an atom at a position costs one step, and one more per up-cover of the
    atom where condition (ii) reads them (where an earlier atom's up-set
    meets the atom's).
    """
    up, above = _interval_masks(p)
    up_mask = [sum(map((1).__lshift__, ups)) for ups in up]
    labels = p.labels
    guard = posets.DEFAULT_CHAIN_GUARD
    refusal = f"atom-ordering search made more than {guard} steps"
    memo: dict = {}
    steps = 0
    # depth-first on an explicit stack of interval frames [memo key, atoms
    # that must lead, the other atoms, atoms placed, their certificates,
    # position frames, failed prefix masks]: certificates nest once per step
    # of a maximal chain, deeper than the interpreter's recursion limit.
    # Position j's frame [k, prefix mask] holds the index past the last atom
    # tried there, among the leading atoms while j is below their number and
    # among the others after, and the up-sets of the atoms placed before it.
    stack: list = []
    x, required = p.bottom, 0
    while True:
        # enter the interval above x, where the atoms in ``required`` lead
        atoms = up[x]
        steps += len(atoms)
        if steps > guard:
            raise SizeGuardError(refusal)
        if above[x].bit_count() <= 2:  # the interval has length <= 1
            result = memo[x, required] = RaoCertificate(tuple(map(labels.__getitem__, atoms)), None)
            answered = True
        else:
            rest = [q for q in atoms if not (required >> q) & 1]
            stack.append([(x, required), posets._bits(required), rest, [], [], [[0, 0]], set()])
            answered = False
        # advance the innermost open interval; while ``answered``, ``result``
        # is the certificate, or None, of the atom its last position tried
        while stack:
            key, lead, rest, ordering, children, positions, failed = stack[-1]
            position = positions[-1]
            k, prefix = position
            pool = lead if len(positions) <= len(lead) else rest
            if answered:
                answered = False
                if result is not None:
                    atom = pool[k - 1]
                    ordering.append(atom)
                    children.append(result)
                    if len(ordering) < len(lead) + len(rest):
                        positions.append([0, prefix | above[atom]])
                        continue
                    stack.pop()
                    result = memo[key] = RaoCertificate(
                        tuple(map(labels.__getitem__, ordering)), tuple(children)
                    )
                    answered = True
                    continue
            while k < len(pool):
                atom = pool[k]
                k += 1
                placed = prefix >> atom & 1  # a placed atom's up-set holds it, and no other atom
                trigger = not placed and above[atom] & prefix
                steps += 1 + len(up[atom]) if trigger else 1
                if steps > guard:
                    raise SizeGuardError(refusal)
                if placed or trigger and not _condition_ii_ok(up, above, atom, prefix):
                    continue
                if prefix | above[atom] in failed:  # no ordering was completed from there
                    continue
                # the atoms of [atom, top] above an earlier atom must lead there
                x, required = atom, up_mask[atom] & prefix
                position[0] = k
                answered = (x, required) in memo
                if answered:
                    result = memo[x, required]
                break
            else:
                # every atom was tried here: undo the previous position's
                failed.add(prefix)
                positions.pop()
                if positions:
                    ordering.pop()
                    children.pop()
                else:
                    stack.pop()
                    result = memo[key] = None
                    answered = True
                continue
            if not answered:
                break  # enter the interval above the atom
        else:
            return result


# -- the dual-lexicographic certificate --------------------------------------


def least_atom(b) -> tuple[int, ...]:
    """Componentwise decrement: the first atom of [b, 0] in dual-lex order."""
    b = as_multidegree(b)
    if not any(b):
        raise ValueError("the zero vector spans no interval")
    return tuple(x - 1 if x else 0 for x in b)


def dual_lex_certificate(a) -> RaoCertificate:
    """Certificate for the dual of P(a) ordering every interval dual-lexicographically.

    Dual-lex compares descending: c precedes d iff at the first differing
    coordinate c is larger, so every interval starts with the componentwise
    decrement of its bottom; P(a) is indexed lexicographically, so this is
    descending index order.  Sub-certificates are shared between intervals
    with the same bottom vector.
    """
    return _dual_lex_certificate(proper_divisibility_poset(a))


def _dual_lex_certificate(poset: Poset) -> RaoCertificate:
    """Certificate for ``poset.dual()``: down-covers in descending index order."""
    if not poset.is_bounded:
        raise ValueError("poset must be bounded")
    down, labels = poset.downcovers, poset.labels
    short = ((), (poset.bottom,))  # the down-covers of the bottom and of an atom
    certs: list = [None] * len(poset)
    for x in poset._topo:
        order = down[x][::-1]
        children = None if order in short else tuple(map(certs.__getitem__, order))
        certs[x] = RaoCertificate(tuple(map(labels.__getitem__, order)), children)
    return certs[poset.top]


def _dual_lex_betti(poset: Poset) -> tuple[int, ...] | None:
    """Reduced Betti numbers of Δ(poset) from the dual-lex certificate of its dual, or None.

    Degree i counts the falling maximal chains of ``poset.dual()`` with
    i + 2 steps (see the ``homology`` module), in every degree up to the
    dimension of Δ(poset), the poset's length minus 2, which the set-up
    below finds; the result is None when a condition ``verify_rao`` checks
    fails or the walk is skipped for the face guard (see the module
    docstring).
    The certificate is read from covers, never built: the atoms of the
    dual's interval above x are x's down-covers in descending index order,
    and ``poset.below`` gives the dual's up-sets.  What a certificate node
    is checked for depends only on its element, except condition (i), whose
    required mask the parent's prefix fixes; and once every interval passes,
    every element has been entered.  So checking each element's atoms once,
    in any order, gives ``verify_rao``'s verdict, and one pass from the
    bottom up both checks and counts.  The atoms condition (i) requires
    lead the descending order, so the required mask is fixed by its size.

    Most atoms need no test.  ``prefix``, the union of the down-sets of the
    atoms of x taken so far, is a down-set that holds no later atom, and
    the trigger of a later atom is ``below[atom] & prefix``.

    - Whole interval reached: the trigger is atom's whole strict down-set.
      Then every down-cover of atom is in ``prefix``, so (i) requires all
      of atom's atoms, and the witness, the union of their down-sets, is
      the strict down-set, the trigger: (ii) holds.  The walk adds
      ``full[atom]``.
    - Partly reached: let ``size`` be the number of atom's down-covers in
      ``prefix``.  With ``size`` 0 the witness is empty but the trigger
      holds the bottom, so (ii) fails.  Otherwise (i) and (ii) hold
      together iff the trigger equals U, the union of the down-sets of
      atom's first ``size`` atoms.  If they hold, (i) makes those atoms
      the required ones, each inside ``prefix``, so U, the witness, lies
      inside the trigger, and (ii) is the converse.  If the trigger equals
      U, it holds atom's first ``size`` atoms, which are then all of the
      ``size`` in ``prefix``: (i) holds, and U is the witness.  The walk
      adds atom's row for those ``size`` atoms.

    A chain is falling iff each step after the first lands on an atom in
    the required mask of the interval it leaves.  ``full[x]`` counts, by
    length, the falling chains from x down to the bottom, the memo on (x,
    all of x's atoms) a walk from the top would keep; a partial row, keyed
    (x, size), those whose first step lands on one of x's first ``size``
    atoms.  A partial row is built, with its U, where it is first read, by
    a loop over those atoms with the prefixes x's own pass met.  That pass
    read each of them there, so every row the loop adds is held already:
    the build neither recurses nor nests, however long the poset.  A row
    is one integer holding the chains of l steps in the w-bit slot l (see
    the module docstring), so the rows of x's atoms are added up and moved
    one step longer by a single shift by w.  Its chains all run from the
    bottom up to its element, so none of its slots can carry into the next.

    The walk holds one full row per element, of its level plus one slots,
    and each partial row it builds, as many, with its U in ``ceil(len(poset)
    / 64)`` words; the face guard bounds the total (see the module
    docstring).  One set-up loop from the bottom up reads the covers for
    the full rows' slots and the slot width: per element it fills its
    level and its number of saturated chains.  ``below`` and the pass then
    each read every cover once more, and only the top's row is unpacked,
    padded with 0 to ``level[top] - 1`` degrees.
    """
    down, guard, n = poset.downcovers, face_guard_default(), len(poset)
    if n**2 // 64 > guard:
        return None
    level, chains = [0] * n, [0] * n
    slots = 0
    for x in poset._topo:
        most, total = -1, 0
        for y in down[x]:
            if level[y] > most:
                most = level[y]
            total += chains[y]
        level[x], chains[x] = most + 1, total or 1
        slots += most + 2
    if slots > guard:
        return None
    below, bottom = poset.below, poset.bottom
    # every saturated chain up to any element extends to one up to the top
    width = chains[poset.top].bit_length()
    strict = [mask.bit_count() - 1 for mask in below]  # strict down-set sizes
    words = -(-n // 64)  # one mask
    full = [0] * n
    full[bottom] = 1  # the chain of no steps; the bottom has no atoms
    # (x, size) -> (the union of the down-sets of x's first size atoms, x's
    # row for them), 0 < size < all, built where the pass first reads it
    partial: dict = {}
    for x in poset._topo[1:]:  # a linear extension starts at the bottom
        d = down[x]
        first = d[-1]
        # the first atom meets an empty prefix, so nothing is required of it
        # and it counts only the chain that ends there, at the bottom
        acc = int(first == bottom)
        prefix = below[first]
        for atom in d[-2::-1]:
            trigger = below[atom] & prefix
            prefix |= below[atom]
            if trigger.bit_count() == strict[atom]:  # the whole interval reached
                acc += full[atom]
                continue
            size = 0
            for c in down[atom]:
                size += trigger >> c & 1
            if not size:
                return None
            held = partial.get((atom, size))
            if held is None:
                # atom's own pass read these atoms with these prefixes, so
                # it holds every row they need; atom's first atom adds 0
                da = down[atom]
                mask, row = below[da[-1]], 0
                for c in da[-2:-1 - size:-1]:
                    part = below[c] & mask
                    if part.bit_count() == strict[c]:
                        row += full[c]
                    else:
                        k = 0
                        for e in down[c]:
                            k += part >> e & 1
                        row += partial[c, k][1]
                    mask |= below[c]
                slots += level[atom] + 1 + words
                if slots > guard:
                    return None
                held = partial[atom, size] = mask, row << width
            if trigger != held[0]:
                return None
            acc += held[1]
        full[x] = acc << width
    betti = tuple(_unpack(full[poset.top], width)[2:])
    return betti + (0,) * (level[poset.top] - 1 - len(betti))


def _unpack(row: int, width: int) -> list[int]:
    """The ``width``-bit slots of ``row``, lowest first, up to its last nonzero one."""
    mask = (1 << width) - 1
    return [row >> shift & mask for shift in range(0, row.bit_length(), width)]


# -- falling chains (two coordinates) ----------------------------------------


def is_border(e) -> bool:
    """True iff e is of the form (1, k), (k, 1), (0, k) or (k, 0) with k >= 2."""
    e = as_multidegree(e)
    if len(e) != 2:
        raise ValueError("border elements are defined for two coordinates")
    c, d = e
    return (c in (0, 1) and d >= 2) or (d in (0, 1) and c >= 2)


@dataclass(frozen=True)
class FallingChain:
    """A maximal chain of the dual of P(a, b), from (a, b) down to (0, 0)."""

    elements: tuple[tuple[int, int], ...]

    @property
    def length(self) -> int:
        return len(self.elements) - 1

    def to_json_list(self) -> list:
        return [list(e) for e in self.elements]


def falling_chains(
    a: int,
    b: int,
    length: int | None = None,
) -> list[FallingChain]:
    """All falling maximal chains of the dual of P(a, b), depth-first.

    Steps onto the componentwise decrement are pruned except directly onto
    (0, 0).  That also keeps border elements out: the only down-cover of
    (1, k), (k, 1), (0, k) or (k, 0) with k >= 2 is its decrement, which is
    not (0, 0).  Chains come out ordered lexicographically by their vector
    sequences.  With ``length`` the walk descends at most ``length`` steps
    and keeps the chains of exactly that many; a negative ``length`` raises
    ValueError.  The chain guard bounds every chain the walk completes, kept
    or not.
    """
    if not (2 <= a <= b):
        raise ValueError(f"need 2 <= a <= b, got a={a}, b={b}")
    if length is not None and length < 0:
        raise ValueError(f"length must be at least 0, got {length}")
    poset = proper_divisibility_poset((a, b))
    down = poset.downcovers
    labels = poset.labels
    out: list[FallingChain] = []
    walked = 0  # chains reaching the bottom, kept or not: what the guard bounds
    # depth-first over indices, one down-cover iterator per path element;
    # an element's last down-cover is its decrement (see the module docstring)
    path = [poset.top]
    stack = [iter(down[poset.top])]
    while stack:
        k = next(stack[-1], None)
        if k is None:
            stack.pop()
            path.pop()
        elif k == poset.bottom:
            walked += 1
            if walked > posets.DEFAULT_CHAIN_GUARD:
                raise SizeGuardError(f"more than {posets.DEFAULT_CHAIN_GUARD} falling chains")
            if length is None or len(path) == length:
                out.append(FallingChain(tuple(labels[i] for i in path) + (labels[k],)))
        elif k != down[path[-1]][-1] and (length is None or len(path) < length):
            path.append(k)
            stack.append(iter(down[k]))
    return out


def betti_from_falling_chains(a: int, b: int) -> tuple[int, ...]:
    """Reduced Betti ranks as falling-chain counts: degree i counts length i + 2.

    The falling chains of the dual of P(a, b) are counted per element in
    packed rows (see the module docstring), so no chain is built and the
    chain guard does not apply.  The ranks are padded with 0 to a - 1
    degrees, as ``formulas.betti_rank`` gives them.
    """
    if not (2 <= a <= b):
        raise ValueError(f"need 2 <= a <= b, got a={a}, b={b}")
    poset = proper_divisibility_poset((a, b))
    bottom, down = poset.bottom, poset.downcovers
    width = max(poset._chain_counts()).bit_length()
    counts = [0] * len(poset)
    counts[bottom] = 1
    for x in poset._topo[1:]:
        d = down[x]
        row = 0
        # every down-cover but the decrement, unless the decrement is (0, 0)
        for k in d if d[-1] == bottom else d[:-1]:
            row += counts[k]
        counts[x] = row << width
    betti = tuple(_unpack(counts[poset.top], width)[2:])
    return betti + (0,) * (a - 1 - len(betti))


def check_final_increments(chain) -> bool:
    """Constraints on the last two steps of a falling chain.

    The next-to-last element must be (1, 0), (1, 1) or (0, 1); reaching
    (1, 0) forces a unit drop in the first coordinate and a drop of at
    least two in the second, symmetrically for (0, 1).
    """
    elems = chain.elements if isinstance(chain, FallingChain) else tuple(chain)
    if len(elems) < 3 or elems[-1] != (0, 0):
        return False
    penult = elems[-2]
    prev = elems[-3]
    if penult == (1, 0):
        return prev[0] - 1 == 1 and prev[1] >= 2
    if penult == (0, 1):
        return prev[1] - 1 == 1 and prev[0] >= 2
    return penult == (1, 1)
