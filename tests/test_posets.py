import random
import re
import tracemalloc
from collections import Counter
from itertools import product as cartesian
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import properdiv as pd
from properdiv import posets
from properdiv.posets import pd_le, properly_divides

from oracles import (
    all_pairs_proper_divisibility,
    all_pairs_proper_product,
    box_difference_cover_counts,
    closure_from_covers,
    hall_mobius,
    open_part,
)
from strategies import bounded_posets, small_factors


# -- proper divisibility ------------------------------------------------------


def test_properly_divides_examples():
    assert properly_divides((0, 0), (1, 1))
    assert properly_divides((1, 0), (2, 3))
    assert not properly_divides((1, 1), (1, 2))
    assert not properly_divides((2, 0), (1, 0))
    assert properly_divides((0, 0), (0, 0))  # degenerate: all coordinates zero


def test_pd_order_axioms_exhaustive():
    vecs = list(cartesian(range(4), repeat=2)) + [(0, 0, 0), (1, 2, 3)]
    vecs2 = [v for v in vecs if len(v) == 2]
    for u in vecs2:
        assert pd_le(u, u)
        for v in vecs2:
            if pd_le(u, v) and pd_le(v, u):
                assert u == v
            for w in vecs2:
                if pd_le(u, v) and pd_le(v, w):
                    assert pd_le(u, w)


@given(
    st.lists(st.integers(0, 5), min_size=3, max_size=3),
    st.lists(st.integers(0, 5), min_size=3, max_size=3),
    st.lists(st.integers(0, 5), min_size=3, max_size=3),
)
@settings(max_examples=300)
def test_pd_transitivity_random(u, v, w):
    if pd_le(u, v) and pd_le(v, w):
        assert pd_le(tuple(u), tuple(w))


def test_multidegree_validation():
    with pytest.raises(ValueError):
        pd.as_multidegree([])
    with pytest.raises(ValueError):
        pd.as_multidegree([1, -2])


# -- constructors -------------------------------------------------------------


def test_chain_basics():
    c0 = pd.chain(0)
    assert len(c0) == 1 and c0.bottom == c0.top == 0
    c3 = pd.chain(3)
    assert len(c3) == 4
    assert sum(len(u) for u in c3.upcovers) == 3
    assert c3.maximal_chains() == [(0, 1, 2, 3)]
    for k in range(7):
        assert pd.chain(k).length() == k
    for k in range(2, 6):
        assert len(pd.chain(k).atoms()) == 1


def test_boolean_lattice():
    b0 = pd.boolean_lattice(0)
    assert len(b0) == 1
    b2 = pd.boolean_lattice(2)
    assert len(b2) == 4
    assert sum(len(u) for u in b2.upcovers) == 4
    assert len(b2.atoms()) == 2
    assert pd.boolean_lattice(3).mobius() == -1  # oracle: hall_mobius below
    assert hall_mobius(pd.boolean_lattice(3)) == -1
    for n in (3, 4):
        assert len(pd.boolean_lattice(n).atoms()) == n


def test_boolean_cover_guard_is_exact(monkeypatch):
    # B4 has 16 elements and 4 * 8 covers, B5 32 elements and 5 * 16 covers
    for n, size, covers in [(4, 16, 32), (5, 32, 80)]:
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_GUARD", covers)
        b = pd.boolean_lattice(n)
        assert (len(b), sum(map(len, b.downcovers))) == (size, covers)
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_GUARD", covers - 1)
        with pytest.raises(pd.SizeGuardError, match=f"^B{n} would have {covers} covers "):
            pd.boolean_lattice(n)


def test_boolean_guard_refuses_before_building():
    # B17's 1,114,112 covers would hold tens of MB once built
    tracemalloc.start()
    try:
        with pytest.raises(pd.SizeGuardError, match="^B17 would have 1114112 covers "):
            pd.boolean_lattice(17)
        with pytest.raises(pd.SizeGuardError, match=r"^B1000000000 would have 2\*\*1000000000 elements "):
            pd.boolean_lattice(10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_proper_div_poset_sizes_and_length():
    assert len(pd.proper_divisibility_poset((4, 4))) == 17
    p11 = pd.proper_divisibility_poset((1, 1))
    assert len(p11) == 2
    assert p11.upcovers[p11.bottom] == (p11.top,)
    for vec in [(1,), (3,), (2, 3), (1, 4), (3, 3, 2)]:
        p = pd.proper_divisibility_poset(vec)
        expected = 1
        for x in vec:
            expected *= x
        assert len(p) == expected + 1
        assert p.length() == max(vec)


def test_proper_div_poset_zero_coordinate_deletion():
    # dropping a zero coordinate gives an isomorphic poset
    for vec, reduced in [((0, 3), (3,)), ((2, 0, 3), (2, 3)), ((0, 0, 4), (4,))]:
        p = pd.proper_divisibility_poset(vec)
        q = pd.proper_divisibility_poset(reduced)
        assert p.is_isomorphic_to(q)


def test_p44_atoms_match_known_values():
    p = pd.proper_divisibility_poset((4, 4))
    assert [p.labels[i] for i in p.atoms()] == [(0, 1), (1, 0), (1, 1)]


def test_cover_decrement_rule_exhaustive():
    # every cover drops some coordinate by exactly one
    for n in (1, 2, 3):
        for vec in cartesian(range(5), repeat=n):
            p = pd.proper_divisibility_poset(vec)
            for i, ups in enumerate(p.upcovers):
                for j in ups:
                    lo, hi = p.labels[i], p.labels[j]
                    assert any(lo[t] == hi[t] - 1 for t in range(n)), (lo, hi)


def test_transitive_reduction_soundness():
    posets = [
        pd.proper_divisibility_poset((4, 4)),
        pd.proper_divisibility_poset((2, 5)),
        pd.proper_divisibility_poset((3, 3, 2)),
        pd.proper_product(pd.boolean_lattice(2), pd.boolean_lattice(3)),
        pd.boolean_lattice(4),
    ]
    for p in posets:
        assert len(p) <= 200
        closed = closure_from_covers(p)
        direct = {
            (i, j)
            for i in range(len(p))
            for j in range(len(p))
            if i != j and p.le(i, j)
        }
        assert closed == direct


# -- the proper division product ----------------------------------------------


def test_product_matches_pdiv_posets():
    for a in range(0, 6):
        for b in range(0, 6):
            prod = pd.proper_product(pd.chain(a), pd.chain(b))
            assert prod.is_isomorphic_to(pd.proper_divisibility_poset((a, b)))


def test_product_ternary_matches_pdiv():
    for vec in cartesian(range(4), repeat=3):
        chains = [pd.chain(x) for x in vec]
        assert pd.proper_product(*chains).is_isomorphic_to(
            pd.proper_divisibility_poset(vec)
        ), vec


def test_product_associativity():
    triples = [
        (pd.chain(2), pd.chain(3), pd.chain(2)),
        (pd.boolean_lattice(1), pd.boolean_lattice(2), pd.chain(2)),
        (pd.boolean_lattice(2), pd.boolean_lattice(2), pd.boolean_lattice(1)),
    ]
    for p, q, r in triples:
        nested = pd.proper_product(pd.proper_product(p, q), r)
        flat = pd.proper_product(p, q, r)
        assert nested.is_isomorphic_to(flat)


def test_product_one_element_factor_direct_enumeration():
    # oracle: enumerate the pairs of C1 xp B2 straight from the definition
    b2 = pd.boolean_lattice(2)
    expected = set()
    for y in range(4):
        # coordinate 1 always passes (the single chain element is both bounds);
        # coordinate 2 needs y < top or the equal pair
        if y == 3 or b2.lt(y, 3):
            expected.add((0, y))
    assert expected == {(0, 0), (0, 1), (0, 2), (0, 3)}  # frozen: 4 pairs
    prod = pd.proper_product(pd.chain(0), b2)
    assert len(prod) == len(expected)
    assert prod.is_isomorphic_to(b2)


def test_product_requires_bounded():
    unbounded = pd.Poset(["a", "b"], [[], []])  # two incomparable points
    with pytest.raises(ValueError):
        pd.proper_product(unbounded, pd.chain(1))


def test_b2_b6_product_size():
    prod = pd.proper_product(pd.boolean_lattice(2), pd.boolean_lattice(6))
    assert len(prod) == 3 * 63 + 1


# -- covers against the all-pairs reference -----------------------------------


def _assert_matches(poset, reference):
    labels, upcovers = reference
    assert poset.labels == labels
    assert poset.upcovers == upcovers


def test_pdiv_covers_match_all_pairs_reference():
    vecs = [(0,), (0, 0, 0, 0), (3, 0, 2), (1, 1, 1, 1), (2, 2, 2, 2), (2, 0, 1, 3)]
    for n, hi in ((1, 6), (2, 6), (3, 5)):
        vecs += cartesian(range(hi), repeat=n)
    for vec in vecs:
        _assert_matches(
            pd.proper_divisibility_poset(vec), all_pairs_proper_divisibility(vec)
        )


def test_product_covers_match_all_pairs_reference():
    factors = small_factors()
    for p in factors:
        for q in factors:
            _assert_matches(pd.proper_product(p, q), all_pairs_proper_product(p, q))
    c0, c1, c3, b2, b3, p23 = factors[:6]
    # three and four factors, mixed with duals and one-element factors
    for combo in [
        (b2, pd.chain(2), b2.dual()),
        (p23, pd.chain(2), c0),
        (c1, c3.dual(), b2, c0),
        (p23.dual(), b3, c1),
    ]:
        _assert_matches(pd.proper_product(*combo), all_pairs_proper_product(*combo))


@given(
    st.lists(st.tuples(bounded_posets(max_mid=3), st.booleans()), min_size=2, max_size=3)
)
@settings(max_examples=80, deadline=None)
def test_product_covers_match_reference_on_random_factors(drawn):
    factors = [p.dual() if flip else p for p, flip in drawn]
    _assert_matches(pd.proper_product(*factors), all_pairs_proper_product(*factors))


# -- cover counts of the box difference ----------------------------------------


def _assert_cover_counts(poset, factors):
    counts = box_difference_cover_counts(poset, factors)
    assert list(map(len, poset.downcovers)) == counts


def test_cover_counts_match_the_box_difference():
    factors = small_factors()
    for p in factors:
        for q in factors:
            _assert_cover_counts(pd.proper_product(p, q), [p, q])
    c0, c1, c3, b2, b3, p23 = factors[:6]
    for combo in [
        (b2, pd.chain(2), b2.dual()),
        (p23, pd.chain(2), c0),
        (c1, c3.dual(), b2, c0),
        (p23.dual(), b3, c1),
        (pd.boolean_lattice(4), pd.boolean_lattice(5)),
    ]:
        _assert_cover_counts(pd.proper_product(*combo), combo)
    for vec in [v for n in range(1, 4) for v in cartesian(range(6), repeat=n)] + [(16, 16), (6, 6, 6)]:
        _assert_cover_counts(pd.proper_divisibility_poset(vec), [pd.chain(x) for x in vec])


@given(
    st.lists(st.tuples(bounded_posets(max_mid=4), st.booleans()), min_size=2, max_size=3)
)
@settings(max_examples=80, deadline=None)
def test_cover_counts_match_the_box_difference_on_random_factors(drawn):
    factors = [p.dual() if flip else p for p, flip in drawn]
    _assert_cover_counts(pd.proper_product(*factors), factors)


# -- P(a) against the proper product of chains ----------------------------------


def _candidate_covers(p):
    # rule (a) pairs each y_k >= 2 with x_k = y_k - 1 and, in every other
    # coordinate, an x_j below y_j (only 0 where y_j = 0)
    return sum(
        prod(max(yj, 1) for j, yj in enumerate(y) if j != k)
        for y in p.labels
        for k, yk in enumerate(y)
        if yk >= 2
    )


def test_pdiv_matches_the_proper_product_of_chains(monkeypatch):
    vecs = [vec for n in range(1, 5) for vec in cartesian(range(6), repeat=n)]
    fields = ("labels", "upcovers", "downcovers", "bottom", "top", "_topo")
    builders = (
        pd.proper_divisibility_poset,
        lambda vec: posets._product_poset([pd.chain(x) for x in vec]),
    )
    for vec in vecs + [(16, 16), (6, 6, 6), (2, 5000)]:
        p, q = (build(vec) for build in builders)
        assert [getattr(p, f) for f in fields] == [getattr(q, f) for f in fields], vec
        # both refuse just below the larger of the two counts the guard bounds
        need = max(len(q), _candidate_covers(q))
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_GUARD", need - 1)
        for build in builders:
            with pytest.raises(pd.SizeGuardError):
                build(vec)
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_GUARD", need)
        for build in builders:
            assert len(build(vec)) == len(q), vec
        monkeypatch.undo()


def test_candidate_cover_guard_is_exact(monkeypatch):
    for vec, size, candidates in [
        # rule (a) offers 2 * 2 * 7 candidates below the tuples other than
        # the top and 2 * 4 below the top
        ((4, 4), 17, 36),
        # per coordinate: 3 * 3 below the top, 1 * 4 * 4 below the rest
        ((3, 3, 3), 28, 75),
        # coordinate 0: 1 * 4 below the top, 1 * 1 * 7 below the rest;
        # coordinate 2: 3 * 1 below the top, 2 * 4 * 1 below the rest
        ((3, 0, 4), 13, 4 + 7 + 3 + 8),
    ]:
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_GUARD", candidates)
        assert len(pd.proper_divisibility_poset(vec)) == size
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_GUARD", candidates - 1)
        with pytest.raises(pd.SizeGuardError, match=f" {candidates} candidate covers"):
            pd.proper_divisibility_poset(vec)


def test_guard_refuses_before_enumerating():
    # the long coordinate's down-sets alone pass the guard
    with pytest.raises(pd.SizeGuardError, match="product would have 4513496 candidate covers"):
        pd.proper_divisibility_poset((3, 3000))
    # where no cover pairs with a down-set, long chains cost nothing extra
    assert len(pd.proper_divisibility_poset((2, 5000))) == 10001
    p = pd.proper_divisibility_poset((60, 60))
    assert len(p) == 3601 and p.length() == 60


# -- rule-built posets against the checking constructor -----------------------


def _assert_linear_extension(p):
    position = {x: k for k, x in enumerate(p._topo)}
    assert sorted(p._topo) == list(range(len(p)))
    assert all(position[j] < position[i] for i, down in enumerate(p.downcovers) for j in down)


def _assert_assembled_like_checked(p):
    """``p`` equals the poset the checking constructor builds from its covers."""
    q = pd.Poset(p.labels, p.upcovers)
    fields = ("labels", "upcovers", "downcovers", "bottom", "top")
    assert [getattr(p, f) for f in fields] == [getattr(q, f) for f in fields]
    _assert_linear_extension(p)
    d = p.dual()
    assert d.above == p.below
    # the double dual reads p's own store from p's side
    dd = d.dual()
    assert dd._store is p._store
    for field in pd.Poset.__slots__:
        assert getattr(dd, field) == getattr(p, field), field


def _assert_assembled_family(p):
    for r in (p, p.dual()):
        _assert_assembled_like_checked(r)
        if r.is_bounded:
            _assert_assembled_like_checked(open_part(r))


def test_rule_built_posets_match_the_checking_constructor():
    built = [pd.chain(k) for k in range(5)] + [pd.boolean_lattice(n) for n in range(4)]
    built += [
        pd.proper_divisibility_poset(vec)
        for n in (1, 2, 3)
        for vec in cartesian(range(5), repeat=n)
    ]
    factors = small_factors()
    built += [pd.proper_product(p, q) for p in factors for q in factors]
    for p in built:
        _assert_assembled_family(p)


@given(
    st.lists(st.tuples(bounded_posets(max_mid=3), st.booleans()), min_size=2, max_size=3)
)
@settings(max_examples=60, deadline=None)
def test_rule_built_products_of_random_factors_match_the_checking_constructor(drawn):
    factors = [p.dual() if flip else p for p, flip in drawn]
    _assert_assembled_family(pd.proper_product(*factors))


# -- the cover direction a constructor stores ----------------------------------


def _rule_built_builders():
    """Builders of chains, Boolean lattices, every P(a) with n <= 3 and sum
    <= 12, and products of index-ordered factors, one-element ones included,
    and of a dual, whose index order is no linear extension."""
    builders = [lambda k=k: pd.chain(k) for k in range(5)]
    builders += [lambda n=n: pd.boolean_lattice(n) for n in range(5)]
    builders += [
        lambda vec=vec: pd.proper_divisibility_poset(vec)
        for n in (1, 2, 3)
        for vec in cartesian(range(13), repeat=n)
        if sum(vec) <= 12
    ]
    factors = [
        lambda: pd.chain(0),
        lambda: pd.boolean_lattice(0),
        lambda: pd.proper_divisibility_poset((0,)),
        lambda: pd.chain(2),
        lambda: pd.boolean_lattice(2),
        lambda: pd.proper_divisibility_poset((2, 3)),
        lambda: pd.proper_divisibility_poset((2, 3)).dual(),
    ]
    builders += [
        lambda fs=fs: pd.proper_product(*(f() for f in fs))
        for k in (2, 3)
        for fs in cartesian(factors, repeat=k)
    ]
    return builders


_STORED = ("downcovers", "upcovers", "below", "above")


def _stored(p):
    """What the store ``p`` shares with its dual holds, named as ``p`` reads it."""
    names = {name for k, name in enumerate(_STORED) if p._store[k ^ p._side] is not None}
    if p._store[4] is not None:
        names.add("index")
    return names


def test_rule_built_posets_store_down_covers_and_invert_on_first_read():
    views = (lambda p: p, lambda p: p.dual(), lambda p: p.dual().dual())
    for build in _rule_built_builders():
        fresh = build()
        # a return to eager inversion fills the up-covers here; atoms()
        # reads the down-covers without filling them
        assert _stored(fresh) == {"downcovers"}
        assert _stored(fresh.dual()) == {"upcovers"}
        fresh.atoms()
        assert _stored(fresh) == {"downcovers"}
        for view in views:
            for first in ("upcovers", "downcovers"):
                r = view(build())
                atoms = r.atoms()
                getattr(r, first)
                q = pd.Poset(r.labels, r.upcovers)
                fields = ("labels", "upcovers", "downcovers", "bottom", "top")
                assert [getattr(r, f) for f in fields] == [getattr(q, f) for f in fields]
                assert r.is_bounded
                assert atoms == r.atoms() == r.upcovers[r.bottom] == q.atoms()


# -- one store for a poset and its dual ----------------------------------------

_READS = [(view, name) for view in (0, 1) for name in _STORED + ("index",)]


def _assert_pair_builds_once(p, reads):
    """Read ``reads``, pairs of 0 for ``p`` or 1 for its dual and what to read,
    in that order: each cover and mask direction of the pair is built once,
    whichever poset reads it first, and the label index once."""
    pair = (p, p.dual())
    missing = {"_invert": p._store[:2].count(None), "_closure": p._store[2:4].count(None)}
    built, indexes = Counter(), set()

    def counted(name, original):
        def count_call(*args):
            built[name] += 1
            return original(*args)

        return count_call

    with pytest.MonkeyPatch.context() as mp:
        for name in missing:
            mp.setattr(posets, name, counted(name, getattr(posets, name)))
        for view, name in reads:
            if name == "index":
                pair[view].index_of(p.labels[0])
                indexes.add(id(p._store[4]))
            else:
                getattr(pair[view], name)
    assert built == +Counter(missing) and len(indexes) == 1
    d = p.dual()
    assert p.upcovers is d.downcovers and p.downcovers is d.upcovers
    assert p.below is d.above and p.above is d.below
    q = pd.Poset(p.labels, p.upcovers)
    assert (p.downcovers, p.below, p.above) == (q.downcovers, q.below, q.above)


def test_rule_built_posets_and_their_duals_build_each_structure_once():
    # every read comes first for about a tenth of the builders
    for i, build in enumerate(_rule_built_builders()):
        p = build() if i % 2 else build().dual()
        _assert_pair_builds_once(p, random.Random(i).sample(_READS, len(_READS)))


@given(bounded_posets(), st.booleans(), st.permutations(_READS))
@settings(max_examples=60, deadline=None)
def test_checked_posets_and_their_duals_build_each_structure_once(p, flip, reads):
    _assert_pair_builds_once(p.dual() if flip else p, reads)


def _refuse_to_sort(down):
    raise AssertionError("a rule-built constructor sorted its covers")


def test_rule_built_constructors_bring_their_linear_extension(monkeypatch):
    # the builders include products of a dual factor, whose index order is
    # no linear extension
    factors = small_factors()
    monkeypatch.setattr(pd.Poset, "_toposort", staticmethod(_refuse_to_sort))
    built = [build() for build in _rule_built_builders()]
    built += [pd.proper_product(p, q) for p in factors for q in factors]
    built.append(pd.proper_product(pd.boolean_lattice(6).dual(), pd.boolean_lattice(4)))
    for p in built:
        _assert_linear_extension(p)
        _assert_linear_extension(p.dual())


@given(st.lists(st.tuples(bounded_posets(max_mid=3), st.booleans()), min_size=2, max_size=3))
@settings(max_examples=40, deadline=None)
def test_products_of_checked_posets_bring_their_linear_extension(drawn):
    factors = [p.dual() if flip else p for p, flip in drawn]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pd.Poset, "_toposort", staticmethod(_refuse_to_sort))
        product = pd.proper_product(*factors)
    _assert_linear_extension(product)


# -- dual, atoms, chains ---------------------------------------------------


def test_dual_involution_and_self_dual_chain():
    p = pd.proper_divisibility_poset((3, 2))
    dd = p.dual().dual()
    assert dd.labels == p.labels and dd.upcovers == p.upcovers
    c4 = pd.chain(3)
    assert c4.dual().is_isomorphic_to(c4)


def test_dual_intervals_are_smaller_pdiv_posets():
    for a in range(2, 5):
        for b in range(a, 5):
            star = pd.proper_divisibility_poset((a, b)).dual()
            zero = star.index_of((0, 0))
            for i, lab in enumerate(star.labels):
                if lab == (a, b):
                    continue
                # the interval [i, zero] as the subposet its masks carve out
                mask = star.above[i] & star.below[zero]
                members = [x for x in range(len(star)) if (mask >> x) & 1]
                remap = {x: k for k, x in enumerate(members)}
                sub = pd.Poset(
                    [star.labels[x] for x in members],
                    [[remap[y] for y in star.upcovers[x] if y in remap] for x in members],
                )
                assert sub.is_isomorphic_to(
                    pd.proper_divisibility_poset(lab).dual()
                ), lab


def test_atoms_require_bottom():
    two_points = pd.Poset(["a", "b"], [[], []])
    with pytest.raises(ValueError):
        two_points.atoms()


def test_maximal_chains_examples():
    star = pd.proper_divisibility_poset((2, 2)).dual()
    chains = star.maximal_chains()
    assert len(chains) == 3
    assert all(len(c) == 3 for c in chains)
    assert chains == sorted(chains)
    for vec in [(2, 3), (4, 2), (3, 3, 2)]:
        p = pd.proper_divisibility_poset(vec)
        longest = max(len(c) - 1 for c in p.maximal_chains())
        assert longest == max(vec)


def test_maximal_chains_longer_than_recursion_limit():
    import sys

    n = sys.getrecursionlimit() + 100
    assert pd.chain(n).maximal_chains() == [tuple(range(n + 1))]


def test_maximal_chain_guard(monkeypatch):
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "10")
    with pytest.raises(pd.SizeGuardError):
        pd.boolean_lattice(5).maximal_chains()


@given(bounded_posets(max_mid=7))
@settings(max_examples=60, deadline=None)
def test_maximal_chain_guard_is_exact(p):
    # open parts have several minimal and maximal elements, or isolated ones
    for q in (p, open_part(p)):
        chains = q.maximal_chains()
        n = len(chains)
        if not n:
            continue
        counts = q._chain_counts()
        assert sum(c for c, ups in zip(counts, q.upcovers) if not ups) == n
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("PROPERDIV_GUARD_FACES", str(n))
            assert q.maximal_chains() == chains
            mp.setenv("PROPERDIV_GUARD_FACES", str(n - 1))
            with pytest.raises(pd.SizeGuardError, match=f"^more than {n - 1} maximal chains$"):
                q.maximal_chains()
        assert q.length() == max(map(len, chains)) - 1


def test_maximal_chain_guard_refuses_before_listing(monkeypatch):
    # P(30, 30) has 3.4 * 10**14 maximal chains of 31 elements: listing the
    # 10**5 the guard admits before refusing would hold about 30 MB
    p = pd.proper_divisibility_poset((30, 30))
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "100000")
    tracemalloc.start()
    try:
        with pytest.raises(pd.SizeGuardError, match="^more than 100000 maximal chains$"):
            p.maximal_chains()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_p44_bounded_chain_lengths():
    # computed by enumeration: maximal chains have lengths 3 and 4 only
    p = pd.proper_divisibility_poset((4, 4))
    lengths = {len(c) - 1 for c in p.maximal_chains()}
    assert lengths == {3, 4}


# -- Mobius ---------------------------------------------------------------------


def test_mobius_examples():
    for k in (2, 3, 5):
        assert pd.chain(k).mobius() == 0
    assert pd.boolean_lattice(3).mobius() == -1
    assert pd.proper_divisibility_poset((4, 4)).mobius() == -4


def test_mobius_against_hall_oracle():
    posets = [
        pd.chain(4),
        pd.boolean_lattice(3),
        pd.proper_divisibility_poset((3, 4)),
        pd.proper_divisibility_poset((2, 2, 2)),
        pd.proper_product(pd.boolean_lattice(2), pd.boolean_lattice(2)),
    ]
    for p in posets:
        assert p.mobius() == hall_mobius(p)


def test_mobius_equals_reduced_euler_char_mixed_corpus():
    posets = [
        pd.chain(3),
        pd.boolean_lattice(4),
        pd.proper_divisibility_poset((3, 5)),
        pd.proper_divisibility_poset((2, 3, 4)),
        pd.proper_product(pd.boolean_lattice(2), pd.boolean_lattice(3)),
        pd.proper_product(pd.chain(3), pd.boolean_lattice(2)),
    ]
    for p in posets:
        assert p.mobius() == pd.order_complex(p).reduced_euler_char()


def test_mobius_requires_bounds():
    with pytest.raises(ValueError):
        pd.Poset(["a", "b"], [[], []]).mobius()


# -- isomorphism -----------------------------------------------------------------


def test_isomorphism_identity_witness():
    p = pd.proper_divisibility_poset((3, 2))
    witness = p.isomorphism_to(p)
    assert witness is not None
    for i, j in enumerate(witness):
        assert sorted(witness[k] for k in p.upcovers[i]) == list(p.upcovers[j])


def test_isomorphism_negative_cases():
    assert not pd.chain(2).is_isomorphic_to(pd.boolean_lattice(2))
    # equal size and degree multiset, different order: C4 vs B2
    assert not pd.chain(3).is_isomorphic_to(pd.boolean_lattice(2))


def _two_hexagons(comp_x, comp_y):
    """Bottom 0 and top 13 around two components of (mins, maxes), each a 6-cycle of covers."""
    ups = [[] for _ in range(14)]
    for mins, maxes in (comp_x, comp_y):
        for k, m in enumerate(mins):
            ups[0].append(m)
            ups[m] += [maxes[k], maxes[k - 1]]
        for top in maxes:
            ups[top].append(13)
    return pd.Poset(range(14), ups)


def test_isomorphism_backtracks():
    # refined colors cannot tell the components apart, so placing min 2
    # next to min 1 is a dead end found only at the maxes
    p = _two_hexagons(((1, 3, 5), (7, 9, 11)), ((2, 4, 6), (8, 10, 12)))
    q = _two_hexagons(((1, 2, 3), (7, 8, 9)), ((4, 5, 6), (10, 11, 12)))
    assert p.isomorphism_to(q) == [0, 1, 4, 2, 5, 3, 6, 7, 10, 8, 11, 9, 12, 13]


def test_isomorphism_deeper_than_recursion_limit():
    # the backtracking search places one element per level of its stack
    assert pd.proper_divisibility_poset((1, 1200)).is_isomorphic_to(pd.chain(1200))


def test_isomorphism_search_guard_counts_placements(monkeypatch):
    # the chain guard bounds the placements of the backtracking search: an
    # identity match places each element once, the hexagons need backtracking
    p = _two_hexagons(((1, 3, 5), (7, 9, 11)), ((2, 4, 6), (8, 10, 12)))
    q = _two_hexagons(((1, 2, 3), (7, 8, 9)), ((4, 5, 6), (10, 11, 12)))
    monkeypatch.setattr(posets, "DEFAULT_CHAIN_GUARD", len(p))
    assert p.isomorphism_to(p) == list(range(len(p)))
    with pytest.raises(pd.SizeGuardError, match="^isomorphism search made more than 14 placements$"):
        p.isomorphism_to(q)


def test_isomorphism_guard(monkeypatch):
    big = pd.boolean_lattice(9)
    monkeypatch.setattr(posets, "DEFAULT_ISO_GUARD", 100)
    with pytest.raises(pd.SizeGuardError):
        big.isomorphism_to(big)


@given(bounded_posets(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_isomorphism_invariant_under_relabeling(p, rng):
    perm = list(range(len(p)))
    rng.shuffle(perm)
    inv = [0] * len(p)
    for new, old in enumerate(perm):
        inv[old] = new
    labels = [p.labels[old] for old in perm]
    ups = [sorted(inv[j] for j in p.upcovers[old]) for old in perm]
    q = pd.Poset(labels, ups)
    assert p.is_isomorphic_to(q)


@given(bounded_posets())
@settings(max_examples=60, deadline=None)
def test_mobius_oracles_agree_on_random_posets(p):
    mu = p.mobius()
    assert mu == hall_mobius(p)
    assert mu == pd.order_complex(p).reduced_euler_char()


@given(st.integers(0, (1 << 3000) - 1))
@example(0)
@settings(max_examples=200)
def test_bits_lists_the_set_bits_ascending(mask):
    assert posets._bits(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]


# -- text format -------------------------------------------------------------------


def test_poset_text_roundtrip():
    p = pd.proper_divisibility_poset((2, 3))
    text = p.to_text()
    q = pd.Poset.from_text(text)
    assert len(q) == len(p)
    assert q.upcovers == p.upcovers
    assert q.bottom == p.bottom and q.top == p.top
    assert q.labels == tuple(
        "(" + ",".join(map(str, lab)) + ")" for lab in p.labels
    )
    assert q.to_text() == text


def test_poset_text_without_bounds_lines():
    text = "elements: 3\n0 x\n1 y\n2 z\ncovers:\n0 < 1\n0 < 2\n"
    p = pd.Poset.from_text(text)
    assert p.bottom == 0 and p.top is None


def test_poset_text_rejects_garbage():
    with pytest.raises(ValueError):
        pd.Poset.from_text("covers:\n0 < 1\n")
    with pytest.raises(ValueError):
        pd.Poset.from_text("elements: 2\n0 a\n1 b\ncovers:\n0 < 1\nbottom: 1\n")
    # a repeated index used to overwrite a label and leave another unset
    with pytest.raises(ValueError, match="given twice"):
        pd.Poset.from_text("elements: 2\n0 a\n0 b\ncovers:\n0<1\n")
    # cover indices outside [0, n): -1 used to be read as element 1, 7
    # ended in an IndexError
    for cover in ("-1 < 0", "7 < 0", "0 < -1", "0 < 7"):
        with pytest.raises(ValueError, match="out of range"):
            pd.Poset.from_text(f"elements: 2\n0 a\n1 b\ncovers:\n{cover}\n")
    # a count that is negative or exceeds the lines that follow is refused
    # before a list of that size is allocated
    for count in (-1, 20_000_000):
        with pytest.raises(ValueError, match="negative or exceeds the 2 lines"):
            pd.Poset.from_text(f"elements: {count}\ncovers:\n0 < 1\n")


def test_constructor_rejects_cover_targets_out_of_range():
    # from_text checks its own indices first; this reaches the constructor,
    # where -1 would otherwise wrap to the last element's down-covers
    for target in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            pd.Poset(range(2), [[target], []])


def test_constructor_rejects_repeated_labels():
    # search_rao used to return the ordering ["x", "x"] here, which
    # verify_rao refused as no permutation of the atoms
    text = "elements: 4\n0 b\n1 x\n2 x\n3 t\ncovers:\n0 < 1\n0 < 2\n1 < 3\n2 < 3\n"
    with pytest.raises(ValueError, match="^label 'x' is given to more than one element$"):
        pd.Poset.from_text(text)
    with pytest.raises(ValueError, match="^label 1 is given"):
        pd.Poset([0, 1, 1], [[1, 2], [], []])


def test_cycle_rejected():
    with pytest.raises(ValueError):
        pd.Poset("abc", [[1], [2], [0]])


def test_redundant_cover_rejected():
    with pytest.raises(ValueError):
        pd.Poset("abc", [[1, 2], [2], []])


def _first_implied_cover(ups):
    """The message for the first cover i -> j with j above another cover k of i.

    Every cover must point to a higher index; reachability comes from
    closing the covers, and the pairs are tried in the constructor's order.
    """
    reach = [set() for _ in ups]
    for i in reversed(range(len(ups))):
        for j in ups[i]:
            reach[i] |= {j} | reach[j]
    for i, covers in enumerate(ups):
        for j in covers:
            for k in covers:
                if k != j and j in reach[k]:
                    return f"cover {i} -> {j} is implied by {i} -> {k} -> ... -> {j}"
    return None


@st.composite
def _ascending_covers(draw):
    n = draw(st.integers(1, 7))
    return [sorted(draw(st.sets(st.integers(i + 1, n - 1)))) for i in range(n - 1)] + [[]]


@given(_ascending_covers())
@settings(max_examples=150, deadline=None)
@example([[1, 2, 3], [3], [3], []])  # 0 -> 3 is implied through 1 and through 2
def test_constructor_names_the_first_implied_cover(ups):
    n = len(ups)
    want = _first_implied_cover(ups)
    if want is None:
        assert pd.Poset(range(n), ups).upcovers == tuple(map(tuple, ups))
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            pd.Poset(range(n), ups)
