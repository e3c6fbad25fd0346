"""Task sets of the three benchmark workloads.

Every task calls only the public API of one layer module at a time, each
call wrapped in a span of the tracer it is given, and returns an observed
value that the runner compares exactly with the task's expected value.
Expected values come from sources independent of the code under test:
the reference table, the closed forms in ``properdiv.formulas``, known
invariants of RP^2, and element counts in closed form.

The seed only permutes task order; the instance set of a workload is
fixed.  ``scale="tiny"`` swaps in small instances of the same kinds, for
the benchmark's own smoke test.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from dataclasses import dataclass
from itertools import combinations_with_replacement, product as cartesian
from math import prod
from typing import Any, Callable

import properdiv.cli  # noqa: F401  (loads the package and every layer module)

# ``properdiv.homology`` is the function, which shadows the submodule.
posets = sys.modules["properdiv.posets"]
complexes = sys.modules["properdiv.complexes"]
homology_mod = sys.modules["properdiv.homology"]
shellability = sys.modules["properdiv.shellability"]
cli = sys.modules["properdiv.cli"]
formulas = sys.modules["properdiv.formulas"]

# The 10 triangles of the 6-vertex triangulation of the real projective plane.
RP2_FACETS = (
    (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 4, 5), (0, 3, 4),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
)


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[Any], Any]
    expected: Any
    largest: bool = False


# -- layer calls shared by several tasks ------------------------------------


def _construct(tr, build):
    """A poset from an all-pairs constructor, with its size counters."""
    with tr.span("posets.construct"):
        p = build()
    if tr.enabled:
        n = len(p)
        tr.add("posets.elements", n)
        tr.add("posets.covers", sum(len(u) for u in p.upcovers))
        tr.add("posets.pairs", n * n)
    return p


def _order_complex(tr, p):
    with tr.span("complexes.chains"):
        cx = complexes.order_complex(p)
    if tr.enabled:
        # Traced runs close faces in their own span to split face closure
        # from elimination; untraced runs leave it to homology().
        _faces(tr, cx)
    return cx


def _faces(tr, cx):
    with tr.span("complexes.faces"):
        levels = cx.faces_by_dim()
    if tr.enabled:
        f = [len(level) for level in levels]
        tr.add("complexes.facets", len(cx.facets))
        tr.add("complexes.faces", sum(f))
        tr.add("complexes.faces_top_level", max(f, default=0))
        tr.add("complexes.generated", sum((d + 1) * x for d, x in enumerate(f) if d))
        tr.add("complexes.distinct_generated", sum(f) - len(cx.facets))
    return levels


def _homology(tr, cx, reduced, torsion):
    with tr.span("homology"):
        s = homology_mod.homology(cx, reduced=reduced, torsion=torsion)
    if tr.enabled and not s.empty_complex:
        f = cx.f_vector()
        # rank d_d = f_d - beta_d - rank d_{d+1}, solved from the top down;
        # reduced and plain homology differ only in degree 0.
        ranks = [0] * (len(f) + 1)
        for d in range(len(f) - 1, 0, -1):
            ranks[d] = f[d] - s.betti[d] - ranks[d + 1]
        tr.add("homology.columns", sum(f[1:]))
        tr.add("homology.nnz", sum((d + 1) * x for d, x in enumerate(f) if d))
        tr.add("homology.rank", sum(ranks[1:]))
        tr.add("homology.clearable", sum(ranks[2:]))
    return s


def _query(tr, fn, *args):
    with tr.span("posets.query"):
        return fn(*args)


def _alternating_sum(s):
    """Reduced Euler characteristic read off a homology summary."""
    total = sum(b if i % 2 == 0 else -b for i, b in enumerate(s.betti))
    return total - 1 if s.empty_complex else total


def _count_cert_nodes(tr, cert):
    if not tr.enabled or cert is None:
        return
    seen = set()
    stack = [cert]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.children or ())
    tr.add("shellability.cert_nodes", len(seen))


# -- products_rank ------------------------------------------------------------


def _product_task(kind, factor, i, j, expected_betti, largest=False):
    def run(tr):
        p = _construct(tr, lambda: posets.proper_product(factor(i), factor(j)))
        s = _homology(tr, _order_complex(tr, p), reduced=False, torsion=False)
        return s.betti, s.torsion

    return Task(f"{kind}{i}xp{kind}{j}", run, (expected_betti, None), largest)


def products_rank(scale):
    # chain(a) xp chain(b) is P(a, b), whose ranks have a closed form
    chains = ((3, 4), (3, 5)) if scale == "tiny" else ((6, 9), (7, 8), (8, 8))
    tasks = []
    for a, b in chains:
        betti = [formulas.betti_rank(a, b, i) for i in range(b - 1)]
        betti[0] += 1
        tasks.append(_product_task("C", posets.chain, a, b, tuple(betti)))
    if scale == "tiny":
        return tasks
    # B2 xp B7 and B3 xp B6 (2 to 10 s) and B3 xp B7 (over 60 s and 1 GB) are
    # left out, as are larger chain products: a pass must be short for a run
    # to hold many paired passes.
    table = {(i, j): betti for i, j, betti in cli.REFERENCE_TABLE}
    tasks.append(_product_task("B", posets.boolean_lattice, 2, 6, table[(2, 6)], largest=True))
    return tasks


# -- pdiv_torsion -------------------------------------------------------------


def _pab_task(a, b, largest=False):
    def run(tr):
        p = _construct(tr, lambda: posets.proper_divisibility_poset((a, b)))
        s = _homology(tr, _order_complex(tr, p), reduced=True, torsion=True)
        mu = _query(tr, p.mobius)
        return s.betti, s.torsion, mu, _alternating_sum(s)

    # the order complex of P(a, b) has dimension b - 2
    betti = tuple(formulas.betti_rank(a, b, i) for i in range(b - 1))
    chi = formulas.euler_char(a, b)
    return Task(f"P{a},{b}", run, (betti, ((),) * (b - 1), chi, chi), largest)


def _multidegree_task(vec):
    def run(tr):
        p = _construct(tr, lambda: posets.proper_divisibility_poset(vec))
        s = _homology(tr, _order_complex(tr, p), reduced=True, torsion=True)
        mu = _query(tr, p.mobius)
        return s.torsion, _alternating_sum(s) - mu

    # dimension max(vec) - 2, torsion-free, reduced Euler characteristic = mobius
    name = "P" + ",".join(map(str, vec))
    return Task(name, run, (((),) * (max(vec) - 1), 0))


def _face_poset_complex(tr, cx):
    """Barycentric subdivision: the order complex of the face poset plus 0 and 1."""
    faces = [f for level in _faces(tr, cx) for f in level]
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
    labels = ["0"] + faces + ["1"]
    with tr.span("posets.construct"):
        p = posets.Poset(labels, ups)
    return _order_complex(tr, p)


def _rp2_task(k):
    def run(tr):
        cx = complexes.SimplicialComplex(range(6), RP2_FACETS)
        for _ in range(k):
            cx = _face_poset_complex(tr, cx)
        s = _homology(tr, cx, reduced=True, torsion=True)
        return s.betti, s.torsion

    return Task(f"sd{k}(RP2)", run, ((0, 0, 0), ((), (2,), ())))


def pdiv_torsion(scale):
    tiny = scale == "tiny"
    top, total, subdivisions = (5, 6, 1) if tiny else (9, 12, 3)
    # P(a, b) with a + b > top + 6 (0.3 to 4 s each) are left out to keep a
    # pass short; P(top - 2, top - 1) is the largest.
    tasks = [
        _pab_task(a, b, largest=(a, b) == (top - 2, top - 1))
        for a in range(2, top + 1)
        for b in range(a, top + 1)
        if a + b <= top + 6
    ]
    for n in (3, 4):
        for vec in combinations_with_replacement(range(1, total + 1), n):
            if sum(vec) <= total:
                tasks.append(_multidegree_task(vec))
    tasks += [_rp2_task(k) for k in range(subdivisions + 1)]
    return tasks


# -- posets_certs -------------------------------------------------------------


def _big_pdiv_task(vec, largest=False):
    def run(tr):
        p = _construct(tr, lambda: posets.proper_divisibility_poset(vec))
        mu = _query(tr, p.mobius) if len(vec) == 2 else None
        return len(p), _query(tr, p.length), mu

    mu = formulas.euler_char(*vec) if len(vec) == 2 else None
    name = "P" + ",".join(map(str, vec))
    return Task(name, run, (prod(vec) + 1, max(vec), mu), largest)


def _boolean_product_task(m, n, largest=False):
    def run(tr):
        p = _construct(
            tr,
            lambda: posets.proper_product(
                posets.boolean_lattice(m), posets.boolean_lattice(n)
            ),
        )
        return len(p), len(_query(tr, p.atoms))

    # elements: every pair below the tops, plus the top; atoms: (i, 0), (0, j), (i, j)
    expected = ((2**m - 1) * (2**n - 1) + 1, (m + 1) * (n + 1) - 1)
    return Task(f"B{m}xpB{n}", run, expected, largest)


def _isomorphism_task(a, b):
    def run(tr):
        prod = _construct(
            tr, lambda: posets.proper_product(posets.chain(a), posets.chain(b))
        )
        p = _construct(tr, lambda: posets.proper_divisibility_poset((a, b)))
        return _query(tr, prod.is_isomorphic_to, p)

    return Task(f"C{a}xpC{b}~P{a},{b}", run, True)


def _dual_lex_task(vec):
    def run(tr):
        with tr.span("shellability.dual_lex"):
            cert = shellability.dual_lex_certificate(vec)
        _count_cert_nodes(tr, cert)
        p = _construct(tr, lambda: posets.proper_divisibility_poset(vec))
        with tr.span("posets.construct"):
            p = p.dual()
        with tr.span("shellability.verify"):
            return shellability.verify_rao(p, cert)

    return Task("duallex" + ",".join(map(str, vec)), run, (True, None))


def _search_task(a, dual):
    def run(tr):
        p = _construct(tr, lambda: posets.proper_divisibility_poset((a, a)))
        if dual:
            with tr.span("posets.construct"):
                p = p.dual()
        with tr.span("shellability.search"):
            cert = shellability.search_rao(p)
        _count_cert_nodes(tr, cert)
        if cert is None:
            return None
        with tr.span("shellability.verify"):
            return shellability.verify_rao(p, cert)

    # P(a, a) admits no recursive atom ordering for a = 4; its dual does
    return Task(f"search{'dual' if dual else ''}P{a},{a}", run, (True, None) if dual else None)


def _falling_task(a, b):
    def run(tr):
        with tr.span("shellability.falling"):
            counts = shellability.betti_from_falling_chains(a, b)
        if tr.enabled:
            tr.add("shellability.falling_chains", sum(counts))
        return counts

    expected = tuple(formulas.betti_rank(a, b, i) for i in range(max(a - 1, 1)))
    return Task(f"falling{a},{b}", run, expected)


def _cli_task(vec):
    argv = ["rao", "--dual-lex", ",".join(map(str, vec))]

    def run(tr):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), tr.span("cli.main"):
            code = cli.main(argv)
        return code, "verified: true" in out.getvalue().splitlines()

    return Task("cli " + " ".join(argv), run, (0, True))


def posets_certs(scale):
    tiny = scale == "tiny"
    big, cube, bool_m, iso_max, coords, total, fall_max = (
        (8, 3, 2, 3, 2, 4, 5) if tiny else (16, 6, 4, 5, 3, 12, 10)
    )
    tasks = [
        _big_pdiv_task((big, big)),
        _big_pdiv_task((cube,) * 3),
        _boolean_product_task(bool_m, 5, largest=True),
    ]
    tasks += [
        _isomorphism_task(a, b) for a in range(iso_max + 1) for b in range(iso_max + 1)
    ]
    corpus = [
        _dual_lex_task(vec)
        for n in range(1, coords + 1)
        for vec in cartesian(range(total + 1), repeat=n)
        if sum(vec) <= total
    ]
    if not tiny and len(corpus) != 13 + 91 + 455:
        raise RuntimeError(f"dual-lex corpus has {len(corpus)} multidegrees, not 559")
    tasks += corpus
    tasks += [_search_task(4, dual=False), _search_task(4, dual=True)]
    tasks += [
        _falling_task(a, b)
        for a in range(2, fall_max + 1)
        for b in range(a, fall_max + 1)
    ]
    tasks.append(_cli_task((2, 2, 2) if tiny else (4, 4, 4)))
    return tasks


BUILDERS = {
    "products_rank": products_rank,
    "pdiv_torsion": pdiv_torsion,
    "posets_certs": posets_certs,
}


def build(workload: str, seed: int, scale: str = "full") -> list[Task]:
    """The workload's tasks in the order the seed selects."""
    tasks = BUILDERS[workload](scale)
    random.Random(seed).shuffle(tasks)
    return tasks
