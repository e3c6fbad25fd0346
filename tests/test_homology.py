from itertools import product as cartesian
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import properdiv as pd
from properdiv.homology import (
    _boundary_columns,
    _crosscut_homology,
    _snf_of_columns,
    smith_normal_form,
)
from properdiv.complexes import SimplicialComplex, _crosscut_faces, face_guard_default

from oracles import (
    boundary_columns_by_slicing,
    crosscut_by_definition,
    dense_boundaries,
    rank_over_rationals,
    snf_by_minors,
)
from strategies import RP2_FACETS, bounded_posets, face_poset

RP2 = SimplicialComplex(range(6), RP2_FACETS)


def _pdiv_complex(vec):
    return pd.order_complex(pd.proper_divisibility_poset(vec))


# -- Smith normal form ---------------------------------------------------------


def test_snf_frozen_examples():
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == ([1, 1, 1], 3)
    # oracle snf_by_minors: gcd of entries 2, |det| = 8 -> factors (2, 4)
    assert snf_by_minors([[2, 4], [6, 8]]) == ([2, 4], 2)
    assert smith_normal_form([[2, 4], [6, 8]]) == ([2, 4], 2)
    assert smith_normal_form([[0, 0], [0, 0]]) == ([], 0)
    assert smith_normal_form([]) == ([], 0)
    assert smith_normal_form([[6]]) == ([6], 1)
    assert smith_normal_form([[2, 0], [0, 3]]) == ([1, 6], 2)
    # column 0 is set aside (low entry 2), then cleared of row 0 by column 1
    assert smith_normal_form([[1, 1], [2, 0]]) == ([1, 2], 2)


matrices = st.integers(1, 4).flatmap(
    lambda nr: st.integers(1, 4).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-9, 9), min_size=nc, max_size=nc),
            min_size=nr,
            max_size=nr,
        )
    )
)


@given(matrices)
@settings(max_examples=200, deadline=None)
def test_snf_matches_minors_oracle(rows):
    factors, rank = smith_normal_form(rows)
    want_factors, want_rank = snf_by_minors(rows)
    assert rank == want_rank
    assert factors == want_factors
    for i in range(1, len(factors)):
        assert factors[i] % factors[i - 1] == 0


sparse_matrices = st.integers(1, 7).flatmap(
    lambda nr: st.integers(1, 7).flatmap(
        lambda nc: st.lists(
            st.lists(
                st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2]) | st.integers(-6, 6),
                min_size=nc,
                max_size=nc,
            ),
            min_size=nr,
            max_size=nr,
        )
    )
)


@given(sparse_matrices)
@settings(max_examples=150, deadline=None)
def test_snf_of_sparse_matrices_matches_oracles(rows):
    # non-unit lows are set aside and must be cleared by later unit pivots
    factors, rank = smith_normal_form(rows)
    assert (factors, rank) == snf_by_minors(rows)
    assert rank == rank_over_rationals(rows)


def test_rank_matches_fraction_free_on_boundaries():
    _, matrices = dense_boundaries(_pdiv_complex((4, 5)).facets)
    for dense in matrices:
        factors, rank = smith_normal_form(dense)
        assert rank == rank_over_rationals(dense)
        assert all(f == 1 for f in factors)


# -- boundary matrices -----------------------------------------------------------


def _boundary_maps(cx):
    """Faces by dimension and the columns ``homology()`` builds for each map."""
    faces = cx.faces_by_dim()
    maps = [None]
    for d in range(1, len(faces)):
        lower_index = {f: i for i, f in enumerate(faces[d - 1])}
        maps.append(dict(_boundary_columns(lower_index, faces[d])))
    return faces, maps


def test_hollow_triangle_boundary():
    tri = SimplicialComplex(range(3), [(0, 1), (0, 2), (1, 2)])
    faces, maps = _boundary_maps(tri)
    assert len(faces) == 2
    assert len(faces[0]) == 3 and len(faces[1]) == 3
    for col in maps[1].values():
        assert sum(col.values()) == 0
        assert len(col) == 2


def test_single_vertex_chain_complex():
    point = SimplicialComplex(["v"], [(0,)])
    assert pd.homology(point).betti == (1,)
    s = pd.homology(point, reduced=True)
    assert s.betti == (0,)
    assert s.torsion == ((),)


def test_p33_boundary_shape():
    faces, maps = _boundary_maps(_pdiv_complex((3, 3)))
    assert len(faces[0]) == 8
    assert len(maps[1]) == 7


def test_boundary_squares_to_zero():
    for cx in [
        SimplicialComplex(range(4), [(0, 1, 2), (1, 2, 3), (0, 3)]),
        SimplicialComplex(range(4), [(0, 1, 2, 3)]),
        _pdiv_complex((4, 4)),  # order complexes too
    ]:
        _, maps = _boundary_maps(cx)
        for d in range(2, len(maps)):
            for col in maps[d].values():
                acc: dict[int, int] = {}
                for r, v in col.items():
                    for rr, vv in maps[d - 1][r].items():
                        acc[rr] = acc.get(rr, 0) + v * vv
                assert all(v == 0 for v in acc.values())


def _complex_of_sets(sets):
    """The complex whose facets are the maximal ``sets``, on the vertices they use."""
    used = sorted(set().union(*sets))
    facets = [[used.index(v) for v in f] for f in sets if not any(f < g for g in sets)]
    return SimplicialComplex(range(len(used)), facets)


random_complexes = st.lists(
    st.sets(st.integers(0, 7), min_size=1, max_size=5), min_size=1, max_size=8
).map(_complex_of_sets)


def _assert_columns_match_slicing(cx):
    # every column, and the columns left once every other face is skipped
    faces = cx.faces_by_dim()
    for d in range(1, len(faces)):
        lower_index = dict(zip(faces[d - 1], range(len(faces[d - 1]))))
        assert lower_index == {f: i for i, f in enumerate(faces[d - 1])}
        for skip in (frozenset(), frozenset(range(0, len(faces[d]), 2))):
            got = list(_boundary_columns(lower_index, faces[d], skip))
            assert got == list(boundary_columns_by_slicing(lower_index, faces[d], skip))


@given(random_complexes)
@settings(max_examples=150, deadline=None)
def test_boundary_columns_match_slicing_on_random_complexes(cx):
    _assert_columns_match_slicing(cx)


def test_boundary_columns_match_slicing_with_torsion():
    # sd^1 and sd^2 of RP^2: 31 and 181 vertices, torsion 2 in degree 1
    sd1 = _subdivision(RP2)
    sd2 = _subdivision(sd1)
    for cx in (RP2, sd1, sd2):
        assert pd.homology(cx, reduced=True).torsion[1] == (2,)
        _assert_columns_match_slicing(cx)


def test_boundary_dimensions_consistent():
    faces, maps = _boundary_maps(_pdiv_complex((4, 5)))
    for d in range(1, len(faces)):
        assert sorted(maps[d]) == list(range(len(faces[d])))
        assert all(0 <= r < len(faces[d - 1]) for col in maps[d].values() for r in col)


# -- homology --------------------------------------------------------------------


def test_known_small_complexes():
    tri = SimplicialComplex(range(3), [(0, 1), (0, 2), (1, 2)])
    s = pd.homology(tri, reduced=True)
    assert s.betti == (0, 1)
    assert s.torsion == ((), ())

    sphere = SimplicialComplex(range(4), [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert pd.homology(sphere, reduced=True).betti == (0, 0, 1)
    assert pd.homology(sphere, reduced=False).betti == (1, 0, 1)

    simplex = SimplicialComplex(range(4), [(0, 1, 2, 3)])
    assert pd.homology(simplex, reduced=True).betti == (0, 0, 0, 0)


def test_projective_plane_torsion():
    s = pd.homology(RP2, reduced=True)
    assert s.betti == (0, 0, 0)
    assert s.torsion == ((), (2,), ())


# -- clearing against uncleared references ----------------------------------------


def _subdivision(cx):
    """Barycentric subdivision: the order complex of the face poset."""
    return pd.order_complex(face_poset(cx))


def _suspension(cx):
    n = len(cx.vertices)
    return SimplicialComplex(
        range(n + 2), [f + (v,) for f in cx.facets for v in (n, n + 1)]
    )


# RP^2 with the cone over its triangle 012 glued on
RP2_CONE = SimplicialComplex(range(7), [f for f in RP2.facets if f != (0, 1, 2)] + [(0, 1, 2, 6)])
# RP^2 with the path 0-6-7 hanging off it
RP2_PATH = SimplicialComplex(range(8), list(RP2.facets) + [(0, 6), (6, 7)])
# the same with a path of 2,000 edges
RP2_LONG_PATH = SimplicialComplex(
    range(2006), list(RP2.facets) + [(0, 6)] + [(v, v + 1) for v in range(6, 2005)]
)


def _uncleared_homology(cx, reduced, snf):
    """(betti, torsion) from every full boundary matrix put through ``snf``.

    The matrices come from the oracle builder and ``snf`` maps a dense
    matrix to (invariant factors, rank); no column is left out, so this is
    the reference the cleared computation must match.
    """
    faces, matrices = dense_boundaries(cx.facets)
    dims = len(faces) - 1
    ranks = [0] * (dims + 2)
    factors = [[] for _ in range(dims + 2)]
    if reduced:
        ranks[0] = 1
    for d, dense in enumerate(matrices, start=1):
        factors[d], ranks[d] = snf(dense)
    betti = tuple(len(faces[i]) - ranks[i] - ranks[i + 1] for i in range(dims + 1))
    torsion = tuple(tuple(x for x in factors[i + 1] if x > 1) for i in range(dims + 1))
    return betti, torsion


def _minors_feasible(cx):
    f = cx.f_vector()
    return all(comb(f[d - 1] + f[d], f[d]) <= 3000 for d in range(1, len(f)))


def _routes(cx):
    """``cx``, and if it is an order complex, its copy from the checked constructor.

    ``homology`` answers an order complex from the Betti numbers its poset's
    certificate gives, or else, where it can, from the poset's atom
    crosscut; the checked copy keeps no poset, so it is reduced.
    """
    if cx._poset is None:
        return [cx]
    checked = SimplicialComplex(cx.vertices, cx.facets)
    assert checked._certified_betti is None
    return [cx, checked]


def _check_against_uncleared(cx):
    oracle = _minors_feasible(cx)
    for reduced in (False, True):
        s = pd.homology(cx, reduced=reduced, torsion=True)
        want = _uncleared_homology(cx, reduced, smith_normal_form)
        assert (s.betti, s.torsion) == want
        # every map's rank from elimination over the rationals, which shares
        # no code with the library
        by_rationals = _uncleared_homology(
            cx, reduced, lambda dense: ([], rank_over_rationals(dense))
        )
        assert by_rationals[0] == s.betti
        if oracle:
            assert _uncleared_homology(cx, reduced, snf_by_minors) == want
        assert pd.homology(cx, reduced=reduced, torsion=False).betti == s.betti


@given(bounded_posets(max_mid=6))
@settings(max_examples=150, deadline=None)
def test_clearing_matches_uncleared_on_order_complexes(poset):
    for cx in _routes(pd.order_complex(poset)):
        _check_against_uncleared(cx)


@pytest.mark.parametrize(
    "cx",
    [
        RP2,
        _suspension(RP2),
        _subdivision(RP2),
        _pdiv_complex((4, 4)),
        _pdiv_complex((4, 4, 4)),
        RP2_CONE,
        RP2_PATH,
    ],
    ids=["RP2", "susp-RP2", "sd-RP2", "P4,4", "P4,4,4", "RP2-cone", "RP2-path"],
)
def test_clearing_matches_uncleared_with_torsion(cx):
    for route in _routes(cx):
        _check_against_uncleared(route)


# -- the atom crosscut ----------------------------------------------------------------

# 0 < a1, a2 < b1, b2 < 1: Δ is a circle, but the crosscut is the edge a1 a2,
# whose upper bounds b1 and b2 have no least element
CROWN = pd.Poset(["0", "a1", "a2", "b1", "b2", "1"], [[1, 2], [3, 4], [3, 4], [5], [5], []])
# the crown with a third atom a3 < c, where c > a1, a2 too: β1 = 2, but the
# crosscut is the triangle a1 a2 a3; its facet's upper bounds are c alone,
# and only the face a1 a2, with b1, b2 and c, fails
CROWN_AND_A_THIRD_ATOM = pd.Poset(
    ["0", "a1", "a2", "b1", "b2", "1", "a3", "c"],
    [[1, 2, 6], [3, 4, 7], [3, 4, 7], [5], [5], [], [7], [5]],
)


def _crosscut_verdict(p):
    """What the crosscut route does with ``p``, checked against its definition.

    The route must give up ("abandoned") where the crosscut has more faces
    than the face guard or p's maximal chains allow, and otherwise accept
    exactly where ``crosscut_by_definition`` finds a least upper bound for
    every face ("accepted"; else "refused").  Where it accepts, its faces
    must be the definition's, and its summary, in both modes, must equal
    the reduction of the listed chains, the minors oracle's where that is
    feasible, and ``homology`` of the order complex, which answers from the
    walk where p's certificate verifies.
    """
    got = _crosscut_faces(p)
    if len(p) <= 2:
        assert got is None
        return "empty"
    limit = min(face_guard_default(), len(p.maximal_chains()))
    faces, ok = crosscut_by_definition(p, most=limit)
    if len(faces) > limit:
        assert got is None
        return "abandoned"
    assert (got is not None) == ok
    if got is None:
        return "refused"
    assert [f for level in got for f in level] == sorted(faces, key=lambda f: (len(f), f))
    cx = pd.order_complex(p)
    listed = SimplicialComplex(cx.vertices, cx.facets)
    minors = _minors_feasible(listed)
    for reduced in (False, True):
        s = _crosscut_homology(p, reduced, True)
        assert s == pd.homology(listed, reduced=reduced) == pd.homology(cx, reduced=reduced)
        if minors:
            assert (s.betti, s.torsion) == _uncleared_homology(listed, reduced, snf_by_minors)
        assert _crosscut_homology(p, reduced, False).betti == s.betti
    return "accepted"


@given(bounded_posets(max_mid=7))
@settings(max_examples=150, deadline=None)
def test_crosscut_matches_its_definition_on_random_posets(p):
    _crosscut_verdict(p)
    _crosscut_verdict(p.dual())


def test_crosscut_matches_its_definition_on_fixed_families():
    verdicts = {}
    cx = RP2
    for k in (1, 2, 3):
        p = face_poset(cx)
        verdicts[f"sd{k}"] = _crosscut_verdict(p)
        if k < 3:  # the crosscut of sd2's dual has millions of faces
            verdicts[f"sd{k}-dual"] = _crosscut_verdict(p.dual())
        cx = pd.order_complex(p)
    family = {f"B{n}": pd.boolean_lattice(n) for n in range(2, 8)}
    family["C4"] = pd.chain(4)  # the crosscut is one vertex, Δ a 2-simplex
    family.update(
        (f"P{vec}", pd.proper_divisibility_poset(vec))
        for n in (2, 3)
        for vec in cartesian(range(1, 7), repeat=n)
        if sum(vec) <= 9 and list(vec) == sorted(vec)
    )
    family.update(
        (f"B{m}xpB{n}", pd.proper_product(pd.boolean_lattice(m), pd.boolean_lattice(n)))
        for m, n in cartesian(range(1, 5), repeat=2)
    )
    for name, p in family.items():
        verdicts[name] = _crosscut_verdict(p)
        verdicts[name + "-dual"] = _crosscut_verdict(p.dual())
    assert {verdicts[f"sd{k}"] for k in (1, 2, 3)} == {"accepted"}
    assert {verdicts[f"B{n}"] for n in range(2, 8)} == {"accepted"}
    assert verdicts["P(4, 4)"] == verdicts["B2xpB3"] == "refused"
    assert verdicts["sd1-dual"] == verdicts["P(2, 3)-dual"] == verdicts["B3xpB3"] == "abandoned"


def test_crosscut_refuses_the_crowns():
    for p, betti in ((CROWN, (0, 1)), (CROWN_AND_A_THIRD_ATOM, (0, 2))):
        assert _crosscut_faces(p) is None
        assert _crosscut_verdict(p) == "refused"
        assert pd.homology(pd.order_complex(p), reduced=True).betti == betti


def test_crosscut_answers_the_torsion_of_sd3_rp2():
    # sd3(RP2) has 6,481 faces; its crosscut is sd2(RP2), with 1,081
    cx = RP2
    for _ in range(3):
        p = face_poset(cx)
        cx = pd.order_complex(p)
    assert sum(map(len, _crosscut_faces(p))) == 1081
    s = pd.homology(cx, reduced=True)
    assert cx._facets is None  # no chain listed
    assert (s.betti, s.torsion) == ((0, 0, 0), ((), (2,), ()))


def test_coatom_crosscut_answers_the_duals_of_rp2_face_posets():
    # the atom crosscut of a face poset's dual is the nerve of the facets and
    # is given up; its coatom crosscut is the face poset's atom crosscut
    cx = RP2
    for _ in range(3):
        p = face_poset(cx)
        dual = p.dual()
        assert _crosscut_faces(dual) is None and _crosscut_faces(p) is not None
        listed = pd.order_complex(dual)
        assert listed._certified_betti is None
        listed = SimplicialComplex(listed.vertices, listed.facets)
        for reduced in (False, True):
            s = _crosscut_homology(dual, reduced, True)
            assert s == pd.homology(listed, reduced=reduced)
            assert _crosscut_homology(dual, reduced, False).betti == s.betti
        assert (s.betti, s.torsion) == ((0, 0, 0), ((), (2,), ()))
        fresh = pd.order_complex(face_poset(cx).dual())
        assert pd.homology(fresh, reduced=True) == s
        assert fresh._facets is None  # no chain listed
        cx = pd.order_complex(p)


def test_crosscut_is_held_to_the_mask_bound(monkeypatch):
    # P(2, ..., 2) with 10 coordinates: 1,025 elements, so 16,416 mask words;
    # its 1,023 atoms are its coatoms, and its crosscut 1,023 points
    p = pd.proper_divisibility_poset((2,) * 10)
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "16415")
    assert _crosscut_faces(p) is None
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "16416")
    assert [len(level) for level in _crosscut_faces(p)] == [1023]
    assert _crosscut_homology(p, True, True).betti == (1022,)


def test_cones_and_paths_keep_the_torsion_of_rp2():
    for cx in (RP2_CONE, RP2_PATH, RP2_LONG_PATH):
        s = pd.homology(cx, reduced=True)
        dims = cx.dim + 1
        assert s.betti == (0,) * dims
        assert s.torsion == ((), (2,)) + ((),) * (dims - 2)


def _full_map_homology(cx, reduced):
    """(betti, torsion) from every full boundary map of ``cx``, none cleared.

    The maps are eliminated sparsely, as ``homology`` does, since the dense
    oracles of ``_check_against_uncleared`` are too slow at these sizes.
    """
    faces = cx.faces_by_dim()
    ranks = [0] * (len(faces) + 1)
    tails = [[] for _ in range(len(faces) + 1)]
    if reduced:
        ranks[0] = 1
    for d in range(1, len(faces)):
        lower_index = {f: i for i, f in enumerate(faces[d - 1])}
        pivot_rows, tails[d] = _snf_of_columns(dict(_boundary_columns(lower_index, faces[d])))
        ranks[d] = len(pivot_rows) + len(tails[d])
    betti = tuple(len(faces[i]) - ranks[i] - ranks[i + 1] for i in range(len(faces)))
    torsion = tuple(tuple(x for x in tails[i + 1] if x > 1) for i in range(len(faces)))
    return betti, torsion


@pytest.mark.parametrize(
    "cx",
    [
        _pdiv_complex((7, 8)),
        pd.order_complex(pd.proper_product(pd.boolean_lattice(2), pd.boolean_lattice(6))),
    ],
    ids=["P7,8", "B2xpB6"],
)
def test_certificate_and_cleared_reduction_match_full_maps(cx):
    assert len(_routes(cx)) == 2  # each of these is certified
    for route in _routes(cx):
        for reduced in (False, True):
            s = pd.homology(route, reduced=reduced)
            assert (s.betti, s.torsion) == _full_map_homology(cx, reduced)


def test_p33_contractible_and_p44_ranks():
    s = pd.homology(_pdiv_complex((3, 3)), reduced=True)
    assert s.betti == (0, 0)
    assert s.torsion == ((), ())
    s = pd.homology(_pdiv_complex((4, 4)), reduced=True)
    assert s.betti == (0, 4, 0)


def test_empty_complex_flag():
    s = pd.homology(_pdiv_complex((1, 1)), reduced=True)
    assert s.empty_complex
    assert s.betti == ()
    assert s.rank(0) == 0
    assert s.to_json_dict() == {
        "reduced": True,
        "betti": [],
        "torsion": [],
        "empty": True,
    }


def test_reduced_vs_nonreduced_relation(pab_reduced):
    for (a, b), s in pab_reduced.items():
        ns = pd.homology(_pdiv_complex((a, b)), reduced=False, torsion=False)
        assert ns.betti[0] == s.betti[0] + 1
        assert ns.betti[1:] == s.betti[1:]


def test_euler_consistency(pab_reduced):
    for (a, b), s in pab_reduced.items():
        cx = _pdiv_complex((a, b))
        alt = sum((1 if i % 2 == 0 else -1) * v for i, v in enumerate(s.betti))
        assert alt == cx.reduced_euler_char() == pd.proper_divisibility_poset((a, b)).mobius()


def test_torsion_free_pdiv_corpus():
    from itertools import product as cartesian

    vecs = []
    for n in (1, 2, 3):
        for vec in cartesian(range(15), repeat=n):
            if sum(vec) <= 14 and sorted(vec) == list(vec):
                vecs.append(vec)
    for vec in vecs:
        s = pd.homology(_pdiv_complex(vec), reduced=True)
        assert all(not t for t in s.torsion), vec


def test_torsion_free_boolean_products():
    # i + j <= 9, skipping (1, 8): a 546k-face simplex boundary that adds
    # nothing structurally but dominates the whole suite's runtime
    for i in range(1, 5):
        for j in range(i, 10 - i):
            if (i, j) == (1, 8):
                continue
            prod = pd.proper_product(pd.boolean_lattice(i), pd.boolean_lattice(j))
            s = pd.homology(pd.order_complex(prod), reduced=True)
            assert all(not t for t in s.torsion), (i, j)


def test_nonreduced_betti_b2_b6():
    prod = pd.proper_product(pd.boolean_lattice(2), pd.boolean_lattice(6))
    s = pd.homology(pd.order_complex(prod), reduced=False, torsion=False)
    assert s.betti == (15, 30, 40, 30, 13)
    assert s.rank(5) == 0


def test_rank_only_mode_skips_torsion():
    s = pd.homology(_pdiv_complex((4, 4)), reduced=True, torsion=False)
    assert s.torsion is None
    assert s.to_json_dict()["torsion"] is None


def test_smith_normal_form_rejects_ragged():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])
