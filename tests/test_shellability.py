import dataclasses
import json
import time
import tracemalloc
from collections import Counter
from itertools import product as cartesian

import pytest
from hypothesis import given, settings

import properdiv as pd
from properdiv import posets, shellability
from properdiv.cli import REFERENCE_TABLE
from properdiv.formulas import betti_rank
from properdiv.shellability import (
    RaoCertificate,
    _dual_lex_betti,
    _dual_lex_certificate,
)

from oracles import (
    dual_lex_betti_by_lists,
    falling_chain_counts_by_lists,
    falling_chain_row_by_lists,
    falling_chains_by_definition,
    search_rao_by_recursion,
    verify_rao_by_generators,
)
from strategies import RP2_FACETS, bounded_posets, face_poset, small_factors


def _dual_pdiv(vec):
    return pd.proper_divisibility_poset(vec).dual()


def _product(name):
    """``"B2xpC3"`` is the proper product of B2 and C3; one factor stands alone."""
    factors = [{"B": pd.boolean_lattice, "C": pd.chain}[f[0]](int(f[1:])) for f in name.split("xp")]
    return pd.proper_product(*factors) if len(factors) > 1 else factors[0]


def _greedy_certificate(p, x=None):
    """Shape-complete certificate ordering every interval by element index."""
    ctx_above = p.above
    if x is None:
        x = p.bottom
    atoms = p.upcovers[x]
    if bin(ctx_above[x]).count("1") <= 2:
        return RaoCertificate(tuple(p.labels[i] for i in atoms), None)
    return RaoCertificate(
        tuple(p.labels[i] for i in atoms),
        tuple(_greedy_certificate(p, i) for i in atoms),
    )


# -- verify_rao -----------------------------------------------------------------


def test_chain_certificate_verifies():
    c5 = pd.chain(4)
    cert = _greedy_certificate(c5)
    assert pd.verify_rao(c5, cert) == (True, None)


def test_p22_dual_certificate_by_exhaustive_search():
    star = _dual_pdiv((2, 2))
    cert = pd.search_rao(star)
    assert cert is not None
    ok, why = pd.verify_rao(star, cert)
    assert ok, why
    cert_dl = pd.dual_lex_certificate((2, 2))
    assert pd.verify_rao(star, cert_dl) == (True, None)


def test_any_certificate_for_p44_fails():
    p44 = pd.proper_divisibility_poset((4, 4))
    ok, why = pd.verify_rao(p44, _greedy_certificate(p44))
    assert not ok
    assert "condition (ii)" in why


def test_verify_rejects_shape_mismatch():
    p44 = pd.proper_divisibility_poset((4, 4))
    wrong_atoms = RaoCertificate(((3, 3), (2, 3)), None)
    with pytest.raises(ValueError):
        pd.verify_rao(p44, wrong_atoms)
    star = _dual_pdiv((2, 2))
    missing_children = RaoCertificate(
        tuple(star.labels[i] for i in star.upcovers[star.bottom]), None
    )
    with pytest.raises(ValueError):
        pd.verify_rao(star, missing_children)


def test_verify_rejects_malformed_certificates():
    star = _dual_pdiv((2, 2))
    cert = pd.dual_lex_certificate((2, 2))
    unknown = RaoCertificate(((7, 7),) + cert.ordering[1:], cert.children)
    with pytest.raises(ValueError, match="unknown atom label"):
        pd.verify_rao(star, unknown)
    # the interval above (1, 1) is {(1, 1), (0, 0)}: nothing to certify there
    leaf = RaoCertificate(((0, 0),), (RaoCertificate((), None),))
    overgrown = RaoCertificate(cert.ordering, (leaf,) + cert.children[1:])
    with pytest.raises(ValueError, match="length <= 1 but the certificate carries children"):
        pd.verify_rao(star, overgrown)


# -- the frame walk against the generator verifier -----------------------------------


def _outcome(verify, p, cert):
    try:
        return verify(p, cert)
    except ValueError as exc:
        return "ValueError", str(exc)


def _assert_same_verdict(p, cert):
    want = _outcome(verify_rao_by_generators, p, cert)
    assert _outcome(pd.verify_rao, p, cert) == want
    return want


def test_frame_walk_matches_generators_on_the_dual_lex_corpus():
    # every multidegree with at most three coordinates summing to at most 12
    corpus = [
        vec for n in (1, 2, 3) for vec in cartesian(range(13), repeat=n) if sum(vec) <= 12
    ]
    assert len(corpus) == 559
    for vec in corpus:
        verdict = _assert_same_verdict(_dual_pdiv(vec), pd.dual_lex_certificate(vec))
        assert verdict == (True, None), vec


def test_frame_walk_matches_generators_on_searched_certificates():
    for vec in ((4, 4), (2, 3, 2)):
        star = _dual_pdiv(vec)
        assert _assert_same_verdict(star, pd.search_rao(star)) == (True, None)


_PRODUCTS = ["C2xpC3", "C2xpB3", "B2xpC3", "B2xpB2", "B2xpB3", "B2xpB4", "B2xpB7", "B2xpB2xpB2", "B4"]


def test_frame_walk_matches_generators_on_products():
    for name in _PRODUCTS + ["B3xpB3"]:
        p = _product(name)
        verdict = _assert_same_verdict(p.dual(), _dual_lex_certificate(p))
        assert verdict[0] == (name != "B3xpB3"), name
    assert verdict[1] == (
        "condition (i): atoms [(0, 4), (2, 0), (2, 4), (4, 0), (4, 4)] must come "
        "first in the interval above (6, 5)"
    )


def _nodes_by_path(cert, depth):
    """(path of child positions, node) for every node at most ``depth`` levels down."""
    out, stack = [], [((), cert)]
    while stack:
        path, node = stack.pop()
        out.append((path, node))
        if node.children is not None and len(path) < depth:
            stack.extend((path + (j,), c) for j, c in enumerate(node.children))
    return out


def _replace_at(cert, path, new):
    if not path:
        return new
    j, kids = path[0], cert.children
    return RaoCertificate(
        cert.ordering, kids[:j] + (_replace_at(kids[j], path[1:], new),) + kids[j + 1 :]
    )


def _mutants(node):
    """Broken copies of one certificate node, each of one kind."""
    order, kids = node.ordering, node.children
    if len(order) >= 2:
        # two atoms swapped, at the front and at the back
        for i, j in ((0, 1), (len(order) - 2, len(order) - 1)):
            perm = list(range(len(order)))
            perm[i], perm[j] = j, i
            yield RaoCertificate(
                tuple(order[k] for k in perm),
                None if kids is None else tuple(kids[k] for k in perm),
            )
    if order:
        yield RaoCertificate(("no such label",) + order[1:], kids)
    if kids is None:
        yield RaoCertificate(order, (RaoCertificate((), None),) * len(order))
    else:
        yield RaoCertificate(order, None)
        yield RaoCertificate(order, kids[:-1])
        yield RaoCertificate(order, kids + kids[:1])


def test_frame_walk_matches_generators_on_mutated_certificates():
    cases = [(_dual_pdiv(vec), pd.dual_lex_certificate(vec)) for vec in ((3, 4), (4, 4), (2, 3, 2))]
    cases.append((_dual_pdiv((4, 4)), pd.search_rao(_dual_pdiv((4, 4)))))
    for name in ("B2xpB3", "B3xpB3"):
        p = _product(name)
        cases.append((p.dual(), _dual_lex_certificate(p)))
    kinds = Counter()
    for p, cert in cases:
        for path, node in _nodes_by_path(cert, 3):
            for bad in _mutants(node):
                verdict = _assert_same_verdict(p, _replace_at(cert, path, bad))
                kinds[verdict[0]] += 1
    # every outcome occurs: accepted, refused and malformed
    assert set(kinds) == {True, False, "ValueError"}, kinds


def _certificate_by_element(p, orderings):
    """One node per element, shared by all its parents; atoms given by label.

    Elements that ``orderings`` leaves out keep their atoms in index order.
    """
    up, labels = p.upcovers, p.labels
    nodes = {}
    for x in reversed(p._topo):
        atoms = orderings.get(labels[x], [labels[q] for q in up[x]])
        kids = None if p.above[x].bit_count() <= 2 else tuple(nodes[p.index_of(a)] for a in atoms)
        nodes[x] = RaoCertificate(tuple(atoms), kids)
    return nodes[p.bottom]


def test_a_shared_node_is_held_to_condition_i_on_every_edge():
    # B4 with subsets as bitmasks: one node certifies the interval above
    # 5 = {1, 3}, a child of 1 = {1} and of 4 = {3}.  Its atoms are 7 =
    # {1, 2, 3} and 13 = {1, 3, 4}.  Above 1, after 9 = {1, 4}, 13 must lead
    # there; above 4, after 6 = {2, 3}, 7 must lead.  The bottom orders 1
    # before 4, so the node is first met above 1
    p = pd.boolean_lattice(4)
    orderings = {0: [1, 2, 4, 8], 1: [9, 5, 3], 2: [3, 10, 6], 4: [6, 5, 12], 10: [11, 14]}
    # condition (i) holds on the first edge into the node and fails on the second
    cert = _certificate_by_element(p, {**orderings, 5: [13, 7]})
    assert _assert_same_verdict(p, cert) == (
        False,
        "condition (i): atoms [7] must come first in the interval above 5",
    )
    # it fails on the first edge
    cert = _certificate_by_element(p, {**orderings, 5: [7, 13]})
    assert _assert_same_verdict(p, cert) == (
        False,
        "condition (i): atoms [13] must come first in the interval above 5",
    )


def test_verify_reads_each_ordering_once_per_element():
    # the dual-lex certificate of P(6, 6, 6)'s dual has one node per element
    # but the dual's top; here the seven coatoms' nodes, which have the same
    # ordering, are one node
    p = _dual_pdiv((6, 6, 6))
    reads = Counter()

    class Counting(RaoCertificate):
        def __getattribute__(self, name):
            if name == "ordering":
                reads[id(self)] += 1
            return object.__getattribute__(self, name)

    leaf = Counting((p.labels[p.top],), None)
    copies = {}
    for node in pd.dual_lex_certificate((6, 6, 6))._postorder():
        kids = node.children
        copies[id(node)] = (
            leaf if kids is None else Counting(node.ordering, tuple(copies[id(c)] for c in kids))
        )
    cert = copies[id(node)]  # the root comes last
    reads.clear()
    assert pd.verify_rao(p, cert) == (True, None)
    coatoms = [x for x in range(len(p)) if p.upcovers[x] == (p.top,)]
    assert len(coatoms) == 7
    assert reads.pop(id(leaf)) == len(coatoms)
    assert len(reads) == len(p) - 1 - len(coatoms)
    assert set(reads.values()) == {1}


def test_certificate_equality_and_hash_visit_shared_nodes_once():
    # as trees, these certificates have 46,192,482 nodes each
    start = time.perf_counter()
    one, other = pd.dual_lex_certificate((16, 16)), pd.dual_lex_certificate((16, 16))
    assert one is not other and one.children[0] is not other.children[0]
    assert one == other
    assert hash(one) == hash(other)
    assert time.perf_counter() - start < 2.0
    # a copy changed deep down, along the path through every first child
    path, node = [], one
    while node.children is not None and len(node.children[0].ordering) >= 2:
        path.append(0)
        node = node.children[0]
    assert len(path) == 14
    swapped = RaoCertificate(node.ordering[::-1], node.children[::-1])
    assert one != _replace_at(one, path, swapped)
    assert one != _replace_at(one, path, RaoCertificate(node.ordering, None))
    # the same answers as the trees spelled out, on a small case
    small = pd.dual_lex_certificate((3, 2))
    tree = json.loads(json.dumps(small.to_json_dict()))

    def from_json(d):
        kids = d["children"]
        return RaoCertificate(
            tuple(map(tuple, d["ordering"])),
            None if kids is None else tuple(map(from_json, kids)),
        )

    spelled = from_json(tree)
    assert spelled == small and hash(spelled) == hash(small)
    assert small != RaoCertificate(small.ordering, small.children[::-1])
    assert small.__eq__("not a certificate") is NotImplemented


def test_certificate_repr_counts_shared_nodes_once():
    # P(16, 16)'s certificate has 256 distinct nodes and 46,192,482 as a tree
    cert = pd.dual_lex_certificate((16, 16))
    start = time.perf_counter()
    text = repr(cert)
    assert time.perf_counter() - start < 1.0
    assert text == f"RaoCertificate(ordering={cert.ordering!r}, distinct_nodes=256)"
    assert len(text) < 400
    assert repr(pd.dual_lex_certificate((1, 1))) == "RaoCertificate(ordering=((0, 0),), distinct_nodes=1)"


def _constructed_dual_lex_certificate(p):
    """The certificate of ``_dual_lex_certificate(p)``, one ``RaoCertificate(...)`` call per node."""
    short = ((), (p.bottom,))
    nodes = [None] * len(p)
    for x in p._topo:
        order = p.downcovers[x][::-1]
        kids = None if order in short else tuple(nodes[y] for y in order)
        nodes[x] = RaoCertificate(tuple(p.labels[y] for y in order), kids)
    return nodes[p.top]


def test_dual_lex_nodes_are_frozen_and_equal_constructed_ones():
    assert [f.name for f in dataclasses.fields(RaoCertificate)] == ["ordering", "children"]
    for vec in [(1,), (2,), (3, 2), (4, 4), (2, 3, 2), (5, 0, 3), (1, 1, 1)]:
        p = pd.proper_divisibility_poset(vec)
        built, made = _dual_lex_certificate(p), _constructed_dual_lex_certificate(p)
        assert built == made and made == built and hash(built) == hash(made)
        assert json.dumps(built.to_json_dict()) == json.dumps(made.to_json_dict())
        assert "".join(built.iterencode()) == "".join(made.iterencode())
        assert repr(built) == repr(made)
        nodes = list(built._postorder())
        assert len(nodes) == len(list(made._postorder()))
        for node, twin in zip(nodes, made._postorder()):
            assert type(node) is RaoCertificate and vars(node) == vars(twin), vec
            with pytest.raises(dataclasses.FrozenInstanceError):
                node.ordering = ()
            with pytest.raises(dataclasses.FrozenInstanceError):
                node.children = None


# -- search_rao ------------------------------------------------------------------


def test_search_rao_p44_exhausts():
    assert pd.search_rao(pd.proper_divisibility_poset((4, 4))) is None


def test_search_rao_p44_dual_succeeds():
    star = _dual_pdiv((4, 4))
    cert = pd.search_rao(star)
    assert cert is not None
    ok, why = pd.verify_rao(star, cert)
    assert ok, why


def test_search_rao_chain():
    assert pd.search_rao(pd.chain(4)) is not None
    # certificates nest once per step, deeper than the recursion limit
    p = pd.chain(1500)
    assert pd.verify_rao(p, pd.search_rao(p)) == (True, None)


def test_search_rao_guard(monkeypatch):
    # B5 needs 443 steps: 117 for its atoms as 48 intervals are entered,
    # 183 for the atoms tried and 143 for the up-covers condition (ii) read
    b5 = pd.boolean_lattice(5)
    monkeypatch.setattr(posets, "DEFAULT_CHAIN_GUARD", 443)
    assert pd.verify_rao(b5, pd.search_rao(b5)) == (True, None)
    monkeypatch.setattr(posets, "DEFAULT_CHAIN_GUARD", 442)
    with pytest.raises(pd.SizeGuardError, match="^atom-ordering search made more than 442 steps$"):
        pd.search_rao(b5)


def _assert_search_matches_reference(p):
    """``search_rao`` finds the recursive reference's certificate, which verifies, or both None."""
    cert, want = pd.search_rao(p), search_rao_by_recursion(p)
    assert (cert is None) == (want is None)
    if cert is not None:
        assert cert.to_json_dict() == want.to_json_dict()
        assert pd.verify_rao(p, cert) == (True, None)
    return cert


@given(bounded_posets())
@settings(max_examples=80, deadline=None)
def test_search_results_verify_on_random_posets(p):
    _assert_search_matches_reference(p)


def test_search_results_always_verify_on_small_corpus():
    # P(a) with up to three coordinates summing to at most 8, Boolean
    # lattices, products of chains and Boolean lattices, the face poset of
    # RP^2 (no certificate: its torsion rules one out), and all their duals
    corpus = [
        pd.proper_divisibility_poset(vec)
        for n in range(1, 4)
        for vec in cartesian(range(9), repeat=n)
        if sum(vec) <= 8
    ]
    corpus += [pd.boolean_lattice(n) for n in range(6)]
    corpus += map(_product, ["C1xpC1", "C2xpB2", "C3xpC3", "B2xpB2", "B2xpB3", "B3xpB3", "B2xpC2xpC1"])
    corpus.append(face_poset(pd.SimplicialComplex(range(6), RP2_FACETS)))
    missing = [
        q.labels[q.top]
        for p in corpus
        for q in (p, p.dual())
        if _assert_search_matches_reference(q) is None
    ]
    # the paper's P(4, 4), with or without a zero coordinate; RP^2 both ways
    assert missing == [(4, 4), (0, 4, 4), (4, 0, 4), (4, 4, 0), "1", "0"]


# -- the dual-lex certificate ------------------------------------------------------


def test_least_atom():
    assert pd.least_atom((2, 5)) == (1, 4)
    assert pd.least_atom((1, 0, 5)) == (0, 0, 4)
    assert pd.least_atom((3, 7)) == (2, 6)
    with pytest.raises(ValueError):
        pd.least_atom((0, 0))


def test_dual_lex_root_orderings():
    assert pd.dual_lex_certificate((4, 4)).ordering[0] == (3, 3)
    for b in range(2, 7):
        assert pd.dual_lex_certificate((2, b)).ordering[0] == (1, b - 1)
    assert pd.dual_lex_certificate((3, 5)).ordering[0] == (2, 4)


def test_dual_lex_orderings_are_dual_lex_sorted():
    cert = pd.dual_lex_certificate((4, 4))
    assert cert.ordering == (
        (3, 3), (3, 2), (3, 1), (3, 0), (2, 3), (1, 3), (0, 3),
    )


def test_dual_lex_certificates_verify_small():
    for n in (1, 2, 3):
        for vec in cartesian(range(5), repeat=n):
            if max(vec, default=0) > 4:
                continue
            cert = pd.dual_lex_certificate(vec)
            ok, why = pd.verify_rao(_dual_pdiv(vec), cert)
            assert ok, (vec, why)


def test_dual_lex_certificate_matches_the_sorting_rule():
    # the reference: order each interval's down-covers by negated label
    for n in (1, 2, 3):
        for vec in cartesian(range(5), repeat=n):
            p = pd.proper_divisibility_poset(vec)
            labels, down = p.labels, p.downcovers
            # the index order the certificate reads dual-lex order from
            assert all(u < v for u, v in zip(labels, labels[1:]))
            for i, v in enumerate(labels):
                if i != p.bottom:
                    assert labels[down[i][-1]] == pd.least_atom(v)
            seen = set()
            stack = [(vec, pd.dual_lex_certificate(vec))]
            while stack:
                v, node = stack.pop()
                if (v, id(node)) in seen:
                    continue
                seen.add((v, id(node)))
                want = sorted(
                    (labels[k] for k in down[p.index_of(v)]),
                    key=lambda u: tuple(-x for x in u),
                )
                assert node.ordering == tuple(want), (vec, v)
                assert (node.children is None) == all(x <= 1 for x in v), (vec, v)
                if node.children is not None:
                    stack.extend(zip(node.ordering, node.children))


B, C = pd.boolean_lattice, pd.chain


@pytest.mark.parametrize("name", _PRODUCTS)
def test_the_builder_certifies_the_duals_of_products(name):
    p = _product(name)
    assert pd.verify_rao(p.dual(), _dual_lex_certificate(p)) == (True, None)


def test_the_builder_fails_on_b3_times_b3():
    p = pd.proper_product(B(3), B(3))
    assert pd.verify_rao(p.dual(), _dual_lex_certificate(p)) == (
        False,
        "condition (i): atoms [(0, 4), (2, 0), (2, 4), (4, 0), (4, 4)] must come "
        "first in the interval above (6, 5)",
    )


def _judge_built_certificate(p):
    # verify_rao raises ValueError on a certificate of the wrong shape
    for q in (p, p.dual()):
        ok, why = pd.verify_rao(q.dual(), _dual_lex_certificate(q))
        assert ok == (why is None)


@given(bounded_posets())
@settings(max_examples=60, deadline=None)
def test_the_builder_is_well_formed_on_random_posets(p):
    _judge_built_certificate(p)


def test_the_builder_is_well_formed_on_products_of_small_factors():
    for f, g in cartesian(small_factors(), repeat=2):
        _judge_built_certificate(pd.proper_product(f, g))


def test_the_builder_refuses_an_unbounded_poset():
    with pytest.raises(ValueError, match="bounded"):
        _dual_lex_certificate(pd.Poset(["a", "b"], [[], []]))


def test_duality_asymmetry_witness():
    assert pd.search_rao(pd.proper_divisibility_poset((4, 4))) is None
    assert pd.search_rao(_dual_pdiv((4, 4))) is not None


# -- Betti numbers from the dual-lex certificate ----------------------------------


def _trimmed(counts):
    """``counts`` without its trailing zeros, as a tuple; None stays None."""
    if counts is None:
        return None
    counts = tuple(counts)
    while counts and not counts[-1]:
        counts = counts[:-1]
    return counts


def _packed_matches_lists(p):
    """The packed walk's Betti numbers, after checking them against the list rows.

    The walk pads them with 0 to one per degree of Δ(p), whose dimension is
    p's length minus 2; the list rows stop at the longest falling chain.
    """
    betti = _dual_lex_betti(p)
    assert _trimmed(betti) == _trimmed(dual_lex_betti_by_lists(p))
    if betti is not None:
        assert len(betti) == max(p.length() - 1, 0)
    return betti


def _certified_complex(p):
    """``order_complex(p)``, after checking the dimension a certified one reads from its walk."""
    cx = pd.order_complex(p)
    if cx._certified_betti is not None:
        assert cx._facets is None and cx.dim == p.length() - 2
        for reduced in (False, True):
            assert len(pd.homology(cx, reduced=reduced).betti) == cx.dim + 1
    return cx


def _routes_agree(p):
    """``verify_rao``'s verdict on p's dual-lex certificate, after checking the walk against it.

    The walk must match its list-row reference, give Betti numbers exactly
    when ``verify_rao`` passes the certificate, and ``homology`` of the
    order complex, which answers from them, must equal the reduction of the
    same facets; a certified complex's dimension, read from them, must be
    p's length minus 2.
    """
    ok, _ = pd.verify_rao(p.dual(), _dual_lex_certificate(p))
    assert (_packed_matches_lists(p) is not None) == ok
    cx = _certified_complex(p)
    assert (cx._certified_betti is not None) == (ok and not cx.is_empty)
    checked = pd.SimplicialComplex(cx.vertices, cx.facets)
    for reduced in (False, True):
        assert pd.homology(cx, reduced=reduced) == pd.homology(checked, reduced=reduced)
    return ok


@given(bounded_posets(max_mid=7))
@settings(max_examples=150, deadline=None)
def test_certified_betti_match_reduction_on_random_posets(p):
    _routes_agree(p)
    _routes_agree(p.dual())


def test_certified_betti_match_reduction_on_the_dual_lex_corpus():
    corpus = [
        vec for n in (1, 2, 3) for vec in cartesian(range(13), repeat=n) if sum(vec) <= 12
    ]
    for vec in corpus:
        assert _routes_agree(pd.proper_divisibility_poset(vec)), vec
    # its checked copy is an 11-vertex simplex, reduced in full
    assert _routes_agree(pd.chain(12))


def test_certified_betti_match_reduction_on_products():
    for name in _PRODUCTS:
        if name != "B2xpB7":  # its reduction alone takes seconds; checked below
            assert _routes_agree(_product(name)), name
    for i, j, want in REFERENCE_TABLE:
        if i == 2:
            p = pd.proper_product(pd.boolean_lattice(i), pd.boolean_lattice(j))
            assert _packed_matches_lists(p) == (want[0] - 1,) + want[1:]
            assert pd.homology(pd.order_complex(p), torsion=False).betti == want


def _partial_reads(p):
    """The (atom, size) pairs whose partial rows the walk builds on p, one cover at a time.

    An atom after the first of x, of whose down-covers some but not all lie
    below x's earlier atoms, is read for the number of those.  Where the
    walk fails, this may name pairs it never reaches.
    """
    down, below = p.downcovers, p.below
    reads = set()
    for x in p._topo:
        earlier = 0
        for atom in reversed(down[x]):
            size = sum(earlier >> c & 1 for c in down[atom])
            if 0 < size < len(down[atom]):
                reads.add((atom, size))
            earlier |= below[atom]
    return reads


def _sd_face_posets():
    """The face posets of RP2, sd(RP2) and sd2(RP2): their order complexes are sd1-3(RP2)."""
    cx, built = pd.SimplicialComplex(range(6), RP2_FACETS), []
    for _ in range(3):
        built.append(face_poset(cx))
        cx = pd.order_complex(built[-1])
    return built


def test_the_walk_matches_its_list_reference_on_duals():
    # verdict and counts on the dual-lex corpus, the products, the face
    # posets of sd1-3(RP2) and the duals of all; of these, condition (ii)
    # fails on duals only
    family = [
        pd.proper_divisibility_poset(vec)
        for n in (1, 2, 3)
        for vec in cartesian(range(13), repeat=n)
        if sum(vec) <= 12
    ]
    family += map(_product, _PRODUCTS + ["B3xpB3"])
    for i, j in cartesian(range(1, 4), range(1, 7)):
        family += _product(f"B{i}xpB{j}"), _product(f"C{i}xpB{j}"), _product(f"B{j}xpC{i}")
    family += _sd_face_posets()
    verdicts = Counter()
    partly_reached = 0  # certified posets whose walk builds partial rows
    for p in family:
        for q in (p, p.dual()):
            if q.is_bounded:
                betti = _packed_matches_lists(q)
                ok, why = pd.verify_rao(q.dual(), _dual_lex_certificate(q))
                assert (betti is not None) == ok, (q.labels[q.top], why)
                if ok:  # a failed certificate's chains are listed at once
                    _certified_complex(q)
                    partly_reached += bool(_partial_reads(q))
                verdicts[why and why[: why.index(")") + 1]] += 1
    assert verdicts[None] and verdicts["condition (i)"] and verdicts["condition (ii)"]
    assert partly_reached


def test_packed_rows_on_wide_and_narrow_slots():
    # P(40, 40): slots of 66 bits, wider than a machine word
    p = pd.proper_divisibility_poset((40, 40))
    assert max(p._chain_counts()).bit_length() == 66
    assert _packed_matches_lists(p) == tuple(betti_rank(40, 40, i) for i in range(39))
    # five atoms: five chains, so slots of 3 bits, all of which the top's
    # four falling chains fill
    p = pd.Poset(["0", *"abcde", "1"], [[1, 2, 3, 4, 5], *[[6]] * 5, []])
    assert max(p._chain_counts()).bit_length() == 3
    assert _packed_matches_lists(p) == (4,)
    # the chain P(1500): one chain up to each element, slots of 1 bit
    p = pd.proper_divisibility_poset((1500,))
    assert max(p._chain_counts()) == 1
    assert _packed_matches_lists(p) == (0,) * 1499
    assert _packed_matches_lists(face_poset(pd.SimplicialComplex(range(6), RP2_FACETS))) is None


def _held_slots(p):
    """What the walk holds on a certified p: a full row per element, and each partial row and mask.

    A row of an element of level l (the most covers on a chain up to it)
    takes l + 1 slots, and a mask ceil(len(p) / 64) words.
    """
    level = p._longest_paths(p._topo, p.downcovers)
    words = -(-len(p) // 64)
    return sum(level) + len(p) + sum(level[a] + 1 + words for a, _ in _partial_reads(p))


def test_the_walk_holds_one_row_per_element_and_each_partial_row_it_builds(monkeypatch):
    # B2 xp B6: 190 elements in 564 mask words; its 190 full rows take 756
    # slots, and 49 partial rows with their masks the rest
    p = _product("B2xpB6")
    held = _held_slots(p)
    assert len(_partial_reads(p)) == 49 and held > 756 > len(p) ** 2 // 64
    assert dual_lex_betti_by_lists(p) == (14, 30, 40, 30, 13)
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", str(held))
    assert _dual_lex_betti(p) == (14, 30, 40, 30, 13)
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", str(held - 1))
    assert _dual_lex_betti(p) is None


def _nested_partial_reads(k):
    """A certified poset of length k + 3 whose walk reads k partial rows, each inside the next.

    Above a bottom, atoms f_-1, y_-1 and z_1, ..., z_k; f_0 and y_0 cover
    f_-1 and y_-1; for 1 <= i <= k, f_i covers f_i-1 and y_i-1, and y_i
    covers those and z_i; the top covers f_k and y_k.  Indexed so that each
    f_i follows y_i, and every z first, the top reads y_k for its two
    atoms below f_k, whose row reads y_k-1 for its two below f_k-1, and so on.
    """
    labels = ["0", *(f"z{i}" for i in range(1, k + 1))]
    labels += [f"{c}{i}" for i in range(-1, k + 1) for c in "yf"] + ["1"]
    index = {lab: j for j, lab in enumerate(labels)}
    down = {"y-1": ["0"], "f-1": ["0"], "1": [f"f{k}", f"y{k}"]}
    down.update((f"z{i}", ["0"]) for i in range(1, k + 1))
    for i in range(k + 1):
        down[f"f{i}"] = [f"f{i - 1}", f"y{i - 1}"]
        down[f"y{i}"] = [f"f{i - 1}", f"y{i - 1}"] + ([f"z{i}"] if i else [])
    ups = [[] for _ in labels]
    for lab, below in down.items():
        for c in below:
            ups[index[c]].append(index[lab])
    return pd.Poset(labels, ups)


def test_partial_rows_nest_deeper_than_the_recursion_limit():
    for k in (1, 2, 5):
        assert _routes_agree(_nested_partial_reads(k))
    k = 1100  # past the interpreter's default recursion limit, 1000
    p = _nested_partial_reads(k)
    assert {(p.index_of(f"y{i}"), 2) for i in range(1, k + 1)} <= _partial_reads(p)
    betti = _packed_matches_lists(p)
    assert betti == (0,) * (k + 1) + (1,)


def test_the_walk_holds_few_rows_of_p40_40():
    # one full row per element, about 0.3 MB; a row per cover took 11 MB
    p = pd.proper_divisibility_poset((40, 40))
    p.below  # the masks the walk reads, built outside the measurement
    tracemalloc.start()
    try:
        betti = _dual_lex_betti(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert betti == tuple(betti_rank(40, 40, i) for i in range(39))
    assert peak < 2 * 2**20


def test_certified_betti_on_three_coordinates():
    # the walk's verdict, not a formula: no closed form is claimed for n >= 3
    certified = 0
    for a, b, c in cartesian(range(1, 5), repeat=3):
        if a <= b <= min(c, 3):
            p = pd.proper_divisibility_poset((a, b, c))
            if len(p) <= 2:  # P(1, 1, 1): the empty complex
                continue
            betti = _dual_lex_betti(p)
            cx = pd.order_complex(p)
            checked = pd.SimplicialComplex(cx.vertices, cx.facets)
            want = pd.homology(checked, reduced=True)
            assert want.torsion == ((),) * len(want.betti)
            assert betti == want.betti, (a, b, c)
            certified += 1
    assert certified == 15
    # P(10, 10, 10): 1,001 elements, far past the chain guard
    p = pd.proper_divisibility_poset((10, 10, 10))
    betti = _dual_lex_betti(p)
    assert sum(x if i % 2 == 0 else -x for i, x in enumerate(betti)) == p.mobius()


# 0 < c < 1 and 0 < a < b < 1: the top's down-covers in descending index
# order are c, then b, whose strict down-set meets c's in 0 while b's
# down-cover a lies below no earlier atom
_FAILS_CONDITION_II = pd.Poset(["b", "c", "a", "1", "0"], [[3], [3], [0], [], [1, 2]])
# c covers a and b, d covers a: the top orders d before c, which makes a lead
# the interval below c, but c's descending order puts b first
_FAILS_CONDITION_I = pd.Poset(["a", "b", "c", "d", "0", "1"], [[2, 3], [2], [5], [5], [0, 1], []])


@pytest.mark.parametrize(
    "p, condition",
    [
        (_FAILS_CONDITION_II, "condition (ii)"),
        (_FAILS_CONDITION_I, "condition (i)"),
        (pd.proper_product(B(3), B(3)), "condition (i)"),
        (face_poset(pd.SimplicialComplex(range(6), RP2_FACETS)), "condition (i)"),
    ],
    ids=["fails-ii", "fails-i", "B3xpB3", "RP2-faces"],
)
def test_failed_certificates_give_no_betti_numbers(p, condition):
    ok, why = pd.verify_rao(p.dual(), _dual_lex_certificate(p))
    assert not ok and why.startswith(condition)
    assert _dual_lex_betti(p) is None
    assert not _routes_agree(p)


def test_rp2_face_poset_keeps_its_torsion():
    # the order complex of the face poset of RP^2 is its subdivision; its
    # certificate fails, so its chains are listed on first read
    cx = pd.order_complex(face_poset(pd.SimplicialComplex(range(6), RP2_FACETS)))
    assert cx._certified_betti is None and len(cx.facets) == 60
    s = pd.homology(cx, reduced=True)
    assert (s.betti, s.torsion) == ((0, 0, 0), ((), (2,), ()))


# -- border elements and falling chains ---------------------------------------------


def test_is_border():
    assert pd.is_border((0, 3))
    assert pd.is_border((3, 0))
    assert pd.is_border((1, 2))
    assert pd.is_border((5, 1))
    assert not pd.is_border((1, 1))
    assert not pd.is_border((2, 2))
    assert not pd.is_border((0, 1))
    with pytest.raises(ValueError):
        pd.is_border((1, 2, 3))


def test_falling_chains_a2():
    # at b = 2 the least atom of [(2,2), (0,0)] is (1,1), so the two falling
    # chains pass through (1,0) and (0,1); for b > 2 through (1,0) and (1,1)
    assert [c.elements for c in pd.falling_chains(2, 2)] == [
        ((2, 2), (0, 1), (0, 0)),
        ((2, 2), (1, 0), (0, 0)),
    ]
    for b in range(3, 8):
        chains = pd.falling_chains(2, b)
        assert [c.elements for c in chains] == [
            ((2, b), (1, 0), (0, 0)),
            ((2, b), (1, 1), (0, 0)),
        ]


def test_falling_chains_a3():
    assert pd.falling_chains(3, 3) == []
    for b in range(4, 9):
        chains = pd.falling_chains(3, b)
        assert len(chains) == 2 * (b - 3)
        assert all(c.length == 3 for c in chains)


def test_falling_chain_length_filter():
    assert len(pd.falling_chains(4, 8, length=2)) == pd.formulas.betti_rank(4, 8, 0)
    assert all(c.length == 3 for c in pd.falling_chains(4, 8, length=3))


def test_falling_chain_structural_conditions():
    for a in range(2, 8):
        for b in range(a, 8):
            for c in pd.falling_chains(a, b):
                elems = c.elements
                assert elems[0] == (a, b) and elems[-1] == (0, 0)
                for i in range(len(elems) - 2):
                    assert elems[i + 1] != pd.least_atom(elems[i])
                for i in range(1, len(elems) - 2):
                    assert not pd.is_border(elems[i])
                assert pd.check_final_increments(c)


def test_falling_chains_match_the_definition():
    for a in range(2, 9):
        for b in range(a, 9):
            dual = pd.proper_divisibility_poset((a, b)).dual()
            for length in (None, 2, 3, 4):
                want = falling_chains_by_definition(dual, length)
                got = [c.elements for c in pd.falling_chains(a, b, length)]
                assert got == want, (a, b, length)


def test_falling_chains_vanishing_above_top_degree():
    for a in range(2, 10):
        for b in range(a, 10):
            assert all(c.length <= a for c in pd.falling_chains(a, b))


def test_falling_chain_guard_and_preconditions(monkeypatch):
    with pytest.raises(ValueError):
        pd.falling_chains(1, 5)
    with pytest.raises(ValueError):
        pd.falling_chains(4, 3)
    monkeypatch.setattr(posets, "DEFAULT_CHAIN_GUARD", 3)
    with pytest.raises(pd.SizeGuardError):
        pd.falling_chains(6, 9)


def test_falling_chain_guard_counts_every_chain_the_walk_completes(monkeypatch):
    # the dual of P(5, 5) has 4 falling chains of length 3 and 4 of length 4
    monkeypatch.setattr(posets, "DEFAULT_CHAIN_GUARD", 8)
    assert len(pd.falling_chains(5, 5, length=4)) == 4
    monkeypatch.setattr(posets, "DEFAULT_CHAIN_GUARD", 7)
    with pytest.raises(pd.SizeGuardError):
        pd.falling_chains(5, 5, length=4)


def test_check_final_increments_examples():
    assert pd.check_final_increments(pd.FallingChain(((2, 5), (1, 0), (0, 0))))
    assert pd.check_final_increments(pd.FallingChain(((2, 5), (1, 1), (0, 0))))
    assert not pd.check_final_increments(pd.FallingChain(((3, 5), (1, 0), (0, 0))))
    assert not pd.check_final_increments(pd.FallingChain(((2, 5), (2, 0), (0, 0))))


def test_betti_from_falling_chains_examples():
    assert pd.betti_from_falling_chains(2, 7) == (2,)
    assert pd.betti_from_falling_chains(3, 3) == (0, 0)
    assert pd.betti_from_falling_chains(4, 4) == (0, 4, 0)


def test_fch_matches_homology_oracle(pab_reduced):
    for (a, b), summary in pab_reduced.items():
        counts = pd.betti_from_falling_chains(a, b)
        degrees = max(len(counts), len(summary.betti))
        for i in range(degrees):
            got = counts[i] if i < len(counts) else 0
            assert got == summary.rank(i), (a, b, i)


def test_falling_chain_counts_match_the_listing():
    for a in range(2, 13):
        for b in range(a, 13):
            listed = Counter(c.length for c in pd.falling_chains(a, b))
            counts = pd.betti_from_falling_chains(a, b)
            assert Counter({i + 2: c for i, c in enumerate(counts) if c}) == listed, (a, b)


def test_packed_falling_chain_counts_match_the_list_rows(monkeypatch):
    # the whole packed row, lengths 0 and 1 included, against the list row;
    # no falling chain has fewer than two steps
    rows = []
    unpack = shellability._unpack

    def recording_unpack(row, width):
        rows.append(unpack(row, width))
        return rows[-1]

    monkeypatch.setattr(shellability, "_unpack", recording_unpack)
    for a in range(2, 13):
        for b in range(a, 13):
            assert pd.betti_from_falling_chains(a, b) == falling_chain_counts_by_lists(a, b)
            listed = falling_chain_row_by_lists(a, b)
            assert listed[:2] == [0, 0], (a, b)
            assert _trimmed(rows.pop()) == _trimmed(listed), (a, b)
    # slots of 66 bits
    counts = pd.betti_from_falling_chains(40, 40)
    assert counts == falling_chain_counts_by_lists(40, 40)
    assert counts == tuple(betti_rank(40, 40, i) for i in range(39))


def _disagreements(betti, largest):
    """The pairs 2 <= a <= b <= largest where ``betti`` differs from ``betti_rank``."""
    return [
        (a, b)
        for a in range(2, largest + 1)
        for b in range(a, largest + 1)
        if betti(a, b) != tuple(pd.formulas.betti_rank(a, b, i) for i in range(a - 1))
    ]


def _counts_allowing_the_decrement(a, b):
    # the per-element count with every step allowed: maximal chains by length
    p = pd.proper_divisibility_poset((a, b))
    paths = {p.bottom: Counter({0: 1})}
    for x in p._topo[1:]:
        paths[x] = Counter()
        for k in p.downcovers[x]:
            paths[x].update({steps + 1: c for steps, c in paths[k].items()})
    return tuple(paths[p.top][i + 2] for i in range(a - 1))


def test_falling_chain_counts_match_the_formula():
    assert _disagreements(pd.betti_from_falling_chains, 30) == []
    # the check catches a count that steps onto the decrement
    assert _disagreements(_counts_allowing_the_decrement, 6)


def _swap_first_atoms_of_first_child(cert):
    child = cert.children[0]
    order = (1, 0) + tuple(range(2, len(child.ordering)))
    swapped = RaoCertificate(
        tuple(child.ordering[i] for i in order), tuple(child.children[i] for i in order)
    )
    return RaoCertificate(cert.ordering, (swapped,) + cert.children[1:])


def test_verify_reports_violations_below_the_root():
    # one level down: the interval above (2, 3) in the dual of P(3, 4)
    bad = _swap_first_atoms_of_first_child(pd.dual_lex_certificate((3, 4)))
    assert pd.verify_rao(_dual_pdiv((3, 4)), bad) == (
        False,
        "condition (ii) fails for atom (1, 2) at position 1 in the interval above (2, 3)",
    )
    # two levels down: the child's children now need (1, 0) first above (2, 2)
    bad = _swap_first_atoms_of_first_child(pd.dual_lex_certificate((4, 4)))
    assert pd.verify_rao(_dual_pdiv((4, 4)), bad) == (
        False,
        "condition (i): atoms [(1, 0)] must come first in the interval above (2, 2)",
    )


def test_verify_names_every_required_atom_in_label_order():
    # B4 with subsets named by letters in reverse bit order, so that label
    # order differs from index order; above the third atom "b" the atoms
    # "bd" and "bc" lie above earlier atoms and "ab" does not
    def name(s):
        return "".join(sorted("dcba"[k] for k in range(4) if s >> k & 1)) or "0"

    p = pd.Poset([name(s) for s in range(16)], pd.boolean_lattice(4).upcovers)
    cert = pd.search_rao(p)
    child = cert.children[2]
    assert (cert.ordering[2], child.ordering) == ("b", ("bd", "bc", "ab"))
    moved = RaoCertificate(
        tuple(child.ordering[i] for i in (2, 0, 1)), tuple(child.children[i] for i in (2, 0, 1))
    )
    bad = RaoCertificate(cert.ordering, cert.children[:2] + (moved,) + cert.children[3:])
    assert pd.verify_rao(p, bad) == (
        False,
        "condition (i): atoms ['bc', 'bd'] must come first in the interval above 'b'",
    )


# -- JSON shapes ----------------------------------------------------------------


def test_certificate_json_shape():
    cert = pd.dual_lex_certificate((2, 2))
    d = cert.to_json_dict()
    assert d["ordering"] == [[1, 1], [1, 0], [0, 1]]
    assert all(child["children"] is None for child in d["children"])


def test_certificate_text_matches_json_dumps():
    certs = [
        pd.dual_lex_certificate(vec) for vec in [(0,), (1, 1), (2, 2), (3, 1, 2), (2, 100)]
    ]
    certs.append(pd.search_rao(pd.proper_divisibility_poset((4, 4)).dual()))
    for cert in certs:
        assert "".join(cert.iterencode()) == json.dumps(cert.to_json_dict())


def test_certificate_tree_guard():
    cert = pd.dual_lex_certificate((20, 20))
    with pytest.raises(pd.SizeGuardError, match="5414619738 nodes"):
        cert.to_json_dict()
    with pytest.raises(pd.SizeGuardError, match="5414619738 nodes"):
        next(cert.iterencode())


def test_falling_chain_json():
    c = pd.falling_chains(2, 3)[0]
    assert c.to_json_list() == [[2, 3], [1, 0], [0, 0]]
