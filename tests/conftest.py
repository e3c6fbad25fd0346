import pytest

import properdiv as pd


@pytest.fixture(scope="session")
def pab_reduced():
    """Reduced homology summaries (with torsion) for all P(a, b), 2 <= a <= b <= 8.

    Computed by reducing all faces: the complexes go through the checked
    constructor, which keeps no certified Betti numbers.
    """
    out = {}
    for a in range(2, 9):
        for b in range(a, 9):
            cx = pd.order_complex(pd.proper_divisibility_poset((a, b)))
            cx = pd.SimplicialComplex(cx.vertices, cx.facets)
            out[(a, b)] = pd.homology(cx, reduced=True, torsion=True)
    return out
