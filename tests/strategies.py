"""Hypothesis strategies for random bounded posets, and fixed ones."""

from hypothesis import strategies as st

import properdiv as pd


@st.composite
def bounded_posets(draw, max_mid: int = 5):
    """A random bounded poset: mid elements under a random order, plus bounds.

    Relations only point from lower to higher index, so acyclicity is free;
    covers are recovered by transitive reduction.
    """
    n = draw(st.integers(0, max_mid))
    closure = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                closure[i].add(j)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            extra = set()
            for j in closure[i]:
                extra |= closure[j]
            if not extra <= closure[i]:
                closure[i] |= extra
                changed = True
    bottom, top = n, n + 1
    full = [set(closure[i]) | {top} for i in range(n)]
    full.append(set(range(n)) | {top})  # bottom
    full.append(set())  # top
    ups = []
    for i in range(n + 2):
        covers = [
            j
            for j in full[i]
            if not any(j in full[k] for k in full[i] if k != j)
        ]
        ups.append(covers)
    return pd.Poset(list(range(n)) + ["bot", "top"], ups)


def small_factors():
    """Chains, Boolean lattices and a P(a), each with its dual: factors for products."""
    base = [
        pd.chain(0),
        pd.chain(1),
        pd.chain(3),
        pd.boolean_lattice(2),
        pd.boolean_lattice(3),
        pd.proper_divisibility_poset((2, 3)),
    ]
    return base + [p.dual() for p in base]


# the 10 triangles of the 6-vertex triangulation of the real projective plane
RP2_FACETS = (
    (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 4, 5), (0, 3, 4),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
)


def face_poset(cx):
    """The faces of a complex under inclusion, with a bottom "0" and a top "1" added.

    Its order complex is the barycentric subdivision of ``cx``.
    """
    faces = [f for level in cx.faces_by_dim() for f in level]
    index = {f: k + 1 for k, f in enumerate(faces)}
    top = len(faces) + 1
    ups = [[] for _ in range(top + 1)]
    for f in faces:
        if len(f) == 1:
            ups[0].append(index[f])
        else:
            for j in range(len(f)):
                ups[index[f[:j] + f[j + 1 :]]].append(index[f])
    for f in cx.facets:
        ups[index[f]].append(top)
    return pd.Poset(["0"] + faces + ["1"], ups)
