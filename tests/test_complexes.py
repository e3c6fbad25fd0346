import pytest

import properdiv as pd
from properdiv.complexes import SimplicialComplex, face_guard_default

from oracles import count_chains_by_length


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


def test_f_vector_counts_all_chains():
    for vec in [(3, 3), (4, 4), (2, 5), (3, 3, 2)]:
        p = pd.proper_divisibility_poset(vec)
        assert len(p) <= 100
        cx = pd.order_complex(p)
        by_size = count_chains_by_length(p.open_part())
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


def test_face_guard():
    cx = _pdiv_complex((5, 5))
    with pytest.raises(pd.SizeGuardError):
        cx.f_vector(max_faces=5)


def test_face_guard_applies_to_cached_faces():
    cx = SimplicialComplex(range(4), [(0, 1, 2, 3)])
    assert len(cx.faces_by_dim()) == 4
    with pytest.raises(pd.SizeGuardError):
        cx.faces_by_dim(1)
    with pytest.raises(pd.SizeGuardError):
        pd.homology(cx, max_faces=1)
    assert cx.f_vector(max_faces=15) == (4, 6, 4, 1)


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
    empty = SimplicialComplex((), ())
    assert SimplicialComplex.from_facet_text(empty.to_facet_text()).is_empty


def test_faces_by_dim_sorted_and_deduplicated():
    cx = SimplicialComplex(range(4), [(0, 1, 2), (1, 2, 3), (0, 3)])
    faces = cx.faces_by_dim()
    assert faces[0] == [(0,), (1,), (2,), (3,)]
    assert faces[1] == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert faces[2] == [(0, 1, 2), (1, 2, 3)]
