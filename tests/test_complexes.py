import tracemalloc
from itertools import product as cartesian

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import properdiv as pd
from properdiv.complexes import SimplicialComplex, _chain_facets, face_guard_default

from oracles import count_chains_by_length, open_part
from strategies import RP2_FACETS, bounded_posets, face_poset, small_factors


def _pdiv_complex(vec):
    return pd.order_complex(pd.proper_divisibility_poset(vec))


def test_order_complex_p33_is_the_known_tree():
    cx = _pdiv_complex((3, 3))
    assert len(cx.vertices) == 8
    assert cx.f_vector() == (8, 7)
    assert cx.reduced_euler_char() == 0
    edges = {frozenset(cx.vertices[v] for v in f) for f in cx.facets}
    assert edges == {
        frozenset({(1, 0), (2, 0)}),
        frozenset({(1, 0), (2, 1)}),
        frozenset({(1, 0), (2, 2)}),
        frozenset({(0, 1), (0, 2)}),
        frozenset({(0, 1), (1, 2)}),
        frozenset({(0, 1), (2, 2)}),
        frozenset({(1, 1), (2, 2)}),
    }


def test_order_complex_p22_three_isolated_points():
    cx = _pdiv_complex((2, 2))
    assert cx.f_vector() == (3,)
    assert cx.reduced_euler_char() == 2
    assert cx.is_pure()
    assert all(len(f) == 1 for f in cx.facets)


def test_order_complex_empty_cases():
    for vec in [(1, 1), (0, 0), (0, 1)]:
        cx = _pdiv_complex(vec)
        assert cx.is_empty
        assert cx.f_vector() == ()
        assert cx.reduced_euler_char() == -1
        assert cx.is_pure()


def _assert_order_complex_matches_the_checking_constructor(p):
    # order_complex stores maximal chains unchecked; chains of duals and of
    # parsed posets run down the index order, so each is sorted first.  Every
    # order complex lists them on first read, and answers dim and is_empty
    # before that
    for q in (p, p.dual()):
        open_poset = open_part(q)
        checked = SimplicialComplex(open_poset.labels, open_poset.maximal_chains())
        trusted = pd.order_complex(q)
        dim, empty = trusted.dim, trusted.is_empty
        assert trusted._facets is None
        assert trusted.vertices == checked.vertices
        assert trusted.facets == checked.facets
        assert (dim, empty) == (trusted.dim, trusted.is_empty) == (checked.dim, checked.is_empty)
        assert checked._certified_betti is None


def test_order_complex_matches_the_checking_constructor():
    built = [pd.chain(k) for k in range(5)] + [pd.boolean_lattice(n) for n in range(4)]
    built += [
        pd.proper_divisibility_poset(vec)
        for n in (1, 2, 3)
        for vec in cartesian(range(5), repeat=n)
    ]
    factors = small_factors()
    built += [pd.proper_product(p, q) for p in factors for q in factors]
    built.append(pd.Poset.from_text(pd.proper_divisibility_poset((3, 2, 2)).dual().to_text()))
    for p in built:
        _assert_order_complex_matches_the_checking_constructor(p)


@given(bounded_posets())
@settings(max_examples=100, deadline=None)
def test_order_complex_of_random_posets_matches_the_checking_constructor(p):
    _assert_order_complex_matches_the_checking_constructor(p)


def _certified(vec):
    return pd.order_complex(pd.proper_divisibility_poset(vec))._certified_betti


def test_order_complex_walks_only_within_the_face_guard(monkeypatch):
    # P(2, ..., 2) with 10 coordinates is a bottom, 1,023 atoms and a top:
    # its 1,025 bitmasks take 1,025**2 // 64 = 16,416 words and its rows of
    # counts 5,115 entries.  One word fewer in the guard skips the walk, builds
    # no bitmask and lists the 1,023 one-vertex facets, which reduce
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "16415")
    p = pd.proper_divisibility_poset((2,) * 10)
    cx = pd.order_complex(p)
    # no mask of either direction is in the store p shares with its dual
    assert cx._certified_betti is None and p._store[2:4] == [None, None]
    assert len(cx.facets) == 1023
    assert pd.homology(cx, reduced=True).betti == (1022,)
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "16416")
    assert _certified((2,) * 10) == (1022,)
    # P(4, 4): 17 elements in 4 words, but one row per element, of its
    # level plus one slots, 55 in all, and no partial row.  Under a guard
    # of 54 its 19 chains are listed, and its 63 faces refused
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "54")
    cx = _pdiv_complex((4, 4))
    assert cx._certified_betti is None and len(cx.facets) == 19
    with pytest.raises(pd.SizeGuardError, match="^face-count guard 54 exceeded$"):
        pd.homology(cx, reduced=True)
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "55")
    assert _certified((4, 4)) == (0, 4, 0)  # padded to the complex's dimension, 2


def test_homology_of_a_certified_complex_lists_no_chain(monkeypatch):
    monkeypatch.delenv("PROPERDIV_GUARD_FACES", raising=False)
    cx = _pdiv_complex((14, 14))  # 1,729,637 maximal chains
    s = pd.homology(cx, reduced=True)
    assert s.betti == tuple(pd.formulas.betti_rank(14, 14, i) for i in range(13))
    assert cx._facets is None and cx.dim == 12 and not cx.is_empty
    assert repr(cx) == "SimplicialComplex(195 vertices, unlisted facets)"


def test_certified_complex_past_the_chain_guard_answers_and_refuses_its_facets(monkeypatch):
    # P(30, 30) has more maximal chains than the default guard, which its
    # walk fits (12,684 mask words, 18,476 count slots).  Its facets are
    # read under a guard of 100,000, read when they are, so that the chains
    # listed before the refusal stay few
    monkeypatch.delenv("PROPERDIV_GUARD_FACES", raising=False)
    cx = _pdiv_complex((30, 30))
    s = pd.homology(cx, reduced=True)
    assert s.betti == tuple(pd.formulas.betti_rank(30, 30, i) for i in range(29))
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "100000")
    with pytest.raises(pd.SizeGuardError, match="more than 100000 maximal chains"):
        cx.facets
    assert cx._facets is None and cx.dim == 28


def _facets_of_the_open_part(p):
    chains = open_part(p).maximal_chains()
    return tuple(sorted(tuple(sorted(c)) for c in chains))


def test_chain_facets_match_the_open_part_route(monkeypatch):
    # the face posets of RP2, sd(RP2) and sd2(RP2), which no certificate
    # covers, and their duals
    cx = SimplicialComplex(range(6), RP2_FACETS)
    built = [pd.chain(0), pd.chain(1), pd.chain(2)]
    for _ in range(3):
        p = face_poset(cx)
        built += [p, p.dual()]
        cx = pd.order_complex(p)
        assert cx._certified_betti is None
    for p in built:
        assert _chain_facets(p) == _facets_of_the_open_part(p)
    # P(4, 4) under a guard of 54 skips its certificate and lists its 19
    # chains; both routes refuse the same count with the same message
    p = pd.proper_divisibility_poset((4, 4))
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "54")
    cx = pd.order_complex(p)
    assert cx._certified_betti is None
    assert cx.facets == _chain_facets(p.dual()) == _facets_of_the_open_part(p)
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "19")
    assert _chain_facets(p) == _facets_of_the_open_part(p)
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "18")
    for route in (_chain_facets, _facets_of_the_open_part):
        with pytest.raises(pd.SizeGuardError, match="^more than 18 maximal chains$"):
            route(p)


def test_order_complex_requires_bounded():
    two_points = pd.Poset(["a", "b"], [[], []])
    with pytest.raises(ValueError):
        pd.order_complex(two_points)


def test_purity():
    assert not _pdiv_complex((4, 4)).is_pure()
    one_facet = SimplicialComplex(range(3), [(0, 1, 2)])
    assert one_facet.is_pure()


def test_facets_form_antichain_on_constructions():
    for vec in [(2, 2), (3, 3), (4, 4), (3, 5), (2, 2, 2)]:
        cx = _pdiv_complex(vec)
        sets = [set(f) for f in cx.facets]
        for i, f in enumerate(sets):
            for j, g in enumerate(sets):
                assert i == j or not f <= g


def test_constructor_rejects_nested_facets_and_stray_vertices():
    with pytest.raises(ValueError):
        SimplicialComplex(range(3), [(0, 1), (0, 1, 2)])
    with pytest.raises(ValueError):
        SimplicialComplex(range(4), [(0, 1, 2)])  # vertex 3 uncovered
    with pytest.raises(ValueError):
        SimplicialComplex(range(2), [()])


def test_stray_vertex_message_is_capped():
    with pytest.raises(ValueError) as exc:
        SimplicialComplex(range(100_000), [(0,)])
    assert str(exc.value) == "vertices [1, 2, 3, 4, 5, ... (99999 in all)] lie in no facet"
    with pytest.raises(ValueError, match=r"^vertices \[3\] lie in no facet$"):
        SimplicialComplex(range(4), [(0, 1, 2)])


def test_f_vector_counts_all_chains():
    for vec in [(3, 3), (4, 4), (2, 5), (3, 3, 2)]:
        p = pd.proper_divisibility_poset(vec)
        assert len(p) <= 100
        cx = pd.order_complex(p)
        by_size = count_chains_by_length(open_part(p))
        expected = tuple(
            by_size.get(size, 0) for size in range(1, max(by_size, default=0) + 1)
        )
        assert cx.f_vector() == expected
        assert sum(cx.f_vector()) == sum(by_size.values())


def test_dual_complex_has_identical_face_sets():
    for vec in [(4, 4), (3, 2), (2, 2, 2)]:
        p = pd.proper_divisibility_poset(vec)
        cx = pd.order_complex(p)
        cx_dual = pd.order_complex(p.dual())
        as_label_sets = lambda c: {
            frozenset(c.vertices[v] for v in f) for f in c.facets
        }
        assert as_label_sets(cx) == as_label_sets(cx_dual)
        assert set(cx.vertices) == set(cx_dual.vertices)


def test_face_guard(monkeypatch):
    cx = _pdiv_complex((5, 5))
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "5")
    with pytest.raises(pd.SizeGuardError):
        cx.f_vector()


def test_face_guard_applies_to_cached_faces(monkeypatch):
    cx = SimplicialComplex(range(4), [(0, 1, 2, 3)])
    # faces are closed again on every call, so the guard trips after a call
    # that succeeded; homology closes all faces of the boundary of the
    # 3-simplex
    sphere = SimplicialComplex(range(4), [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert len(cx.faces_by_dim()) == 4
    assert len(sphere.faces_by_dim()) == 3
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "1")
    with pytest.raises(pd.SizeGuardError):
        cx.faces_by_dim()
    with pytest.raises(pd.SizeGuardError):
        pd.homology(sphere)
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "15")
    assert cx.f_vector() == (4, 6, 4, 1)


def test_face_guard_counts_the_vertices_of_a_0_dimensional_complex(monkeypatch):
    # no face lies below a vertex, so the guard must count the generators
    # before it closes any level
    cx = SimplicialComplex(range(10), [(v,) for v in range(10)])
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "5")
    with pytest.raises(pd.SizeGuardError):
        cx.f_vector()
    with pytest.raises(pd.SizeGuardError):
        pd.homology(cx)


def test_face_guard_trips_partway_through_a_level(monkeypatch):
    # 5,000 disjoint 7-simplices: their ridges alone, 40,000 tuples of 7,
    # would take several MB; the guard is crossed after a few facets
    facets = [tuple(range(8 * i, 8 * i + 8)) for i in range(5000)]
    cx = SimplicialComplex(range(40000), facets)
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", str(len(facets) + 20))
    tracemalloc.start()
    try:
        with pytest.raises(pd.SizeGuardError):
            cx.faces_by_dim()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_face_guard_env_override(monkeypatch):
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "7")
    assert face_guard_default() == 7
    cx = SimplicialComplex(range(4), [(0, 1, 2, 3)])
    with pytest.raises(pd.SizeGuardError):
        cx.f_vector()
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "junk")
    with pytest.raises(ValueError):
        face_guard_default()


def test_facet_text_roundtrip():
    cx = _pdiv_complex((3, 3))
    text = cx.to_facet_text()
    assert text.splitlines()[0] == "vertices: 8"
    back = SimplicialComplex.from_facet_text(text)
    assert back.facets == cx.facets
    assert cx._certified_betti is not None and back._certified_betti is None
    empty = SimplicialComplex((), ())
    assert SimplicialComplex.from_facet_text(empty.to_facet_text()).is_empty


def test_facet_text_refuses_vertex_count_beyond_its_tokens():
    for text in ("vertices: 3000000\n0 1\n", "vertices: -1\n0 1\n", "vertices: 3\n0 1\n"):
        with pytest.raises(ValueError, match="negative or exceeds") as exc:
            SimplicialComplex.from_facet_text(text)
        assert len(str(exc.value)) < 200


_FACET_JUNK = ["x", "0 x", "1.5", "-", "vertices:", "vertices: y", "0 0", "-1 0", "10**9"]


@st.composite
def _facet_texts(draw):
    """(text, clean, bad): a random complex's facet text, possibly mutated.

    ``clean`` when the text is unchanged; ``bad`` when a mutation makes it
    malformed by construction: a vertex index outside [0, n) or a vertex
    count that is negative or exceeds the vertex tokens.
    """
    sets = draw(st.lists(st.frozensets(st.integers(0, 5), min_size=1), max_size=5))
    maximal = {s for s in sets if not any(s < t for t in sets)}
    used = sorted(set().union(*maximal))
    relabel = {v: i for i, v in enumerate(used)}
    cx = SimplicialComplex(range(len(used)), [[relabel[v] for v in s] for s in maximal])
    n = len(cx.vertices)
    lines = cx.to_facet_text().splitlines()
    kinds = ["junk", "drop", "index", "count"]
    mutations = draw(st.lists(st.sampled_from(kinds), max_size=3))
    bad = False
    # the mutations that make a text bad come last, so none undoes them
    for kind in sorted(mutations, key=kinds.index):
        if kind in ("junk", "drop"):
            k = draw(st.integers(0, len(lines) - 1))
            if kind == "junk":
                lines[k] = draw(st.sampled_from(_FACET_JUNK))
            elif len(lines) > 1:
                del lines[k]
        elif kind == "index":
            lines.append(f"{draw(st.sampled_from([-1, n, n + 7]))}")
            bad = True
        else:
            tokens = sum(len(ln.split()) for ln in lines[1:])
            lines[0] = f"vertices: {draw(st.sampled_from([-1, tokens + 1, 3_000_000]))}"
            bad = True
    return "\n".join(lines) + "\n", not mutations, bad


@given(_facet_texts())
@settings(max_examples=300, deadline=None)
def test_facet_text_fuzz(drawn):
    text, clean, bad = drawn
    try:
        cx = SimplicialComplex.from_facet_text(text)
    except ValueError:
        assert not clean, text
        return
    assert not bad, text
    if clean:
        assert cx.to_facet_text() == text


def test_faces_by_dim_sorted_and_deduplicated():
    cx = SimplicialComplex(range(4), [(0, 1, 2), (1, 2, 3), (0, 3)])
    faces = cx.faces_by_dim()
    assert faces[0] == [(0,), (1,), (2,), (3,)]
    assert faces[1] == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert faces[2] == [(0, 1, 2), (1, 2, 3)]
