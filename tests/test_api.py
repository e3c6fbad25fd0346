import inspect

import properdiv as pd

# size guards are module constants (PROPERDIV_GUARD_FACES for faces); this
# keyword stays because order_complex bounds facets by the face guard with it
_GUARD_KEYWORDS_ALLOWED = {("Poset.maximal_chains", "max_chains")}


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
