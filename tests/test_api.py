import ast
import graphlib
import inspect
from pathlib import Path

import properdiv as pd

# size guards are module constants, and PROPERDIV_GUARD_FACES overrides the
# face guard; no public callable takes a limit as a keyword
_GUARD_KEYWORDS_ALLOWED = set()


def _public_callables():
    for name in pd.__all__:
        obj = getattr(pd, name)
        if inspect.ismodule(obj):
            for attr, fn in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield f"{name}.{attr}", fn
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                public = attr == "__init__" or not attr.startswith("_")
                if public and inspect.isfunction(member):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, obj


def test_no_public_callable_takes_a_guard_keyword():
    names = dict(_public_callables())
    assert "Poset.maximal_chains" in names and "SimplicialComplex.f_vector" in names
    found = {
        (name, param)
        for name, fn in names.items()
        for param in inspect.signature(fn).parameters
        if param.startswith("max_")
    }
    assert found == _GUARD_KEYWORDS_ALLOWED


def _library_tour():
    """Run the README's library tour; map each bare expression to its value."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        if isinstance(stmt, ast.Expr):
            values[source] = eval(source, namespace)
        else:
            exec(source, namespace)
    return namespace, values


def test_readme_library_tour_gives_its_commented_values():
    namespace, values = _library_tour()
    p = namespace["p"]
    assert (len(p), p.labels[p.bottom], p.labels[p.top]) == (17, (0, 0), (4, 4))
    assert values["p.mobius()"] == -4
    assert sorted(p.labels[i] for i in values["p.atoms()"]) == [(0, 1), (1, 0), (1, 1)]
    assert values["cx.f_vector()"] == (15, 33, 15)
    assert values["pd.homology(cx, reduced=True).betti"] == (0, 4, 0)
    assert values["pd.search_rao(p)"] is None
    assert values["pd.verify_rao(p.dual(), cert)"] == (True, None)
    assert values["cert.ordering[0]"] == (3, 3)
    assert values["pd.betti_from_falling_chains(4, 4)"] == (0, 4, 0)
    assert values["pd.formulas.betti_rank(4, 4, 1)"] == 4
    assert values["pd.homology(pd.order_complex(prod)).betti"] == (15, 30, 40, 30, 13)


def test_module_imports_form_no_cycle():
    # relative imports between the package's modules, at module level or
    # inside functions; a cycle raises graphlib.CycleError naming it
    package = Path(pd.__file__).parent
    graph = {}
    for path in package.glob("*.py"):
        deps = graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:  # from . import module
                    deps.update(alias.name for alias in node.names)
    assert {"complexes", "shellability"} <= graph.keys()
    graphlib.TopologicalSorter(graph).prepare()
