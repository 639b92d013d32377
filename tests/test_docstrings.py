"""Every Sphinx cross-reference in the package's source names something
that exists, so a rename or a deletion cannot leave a docstring pointing
at nothing."""

import dataclasses
import importlib
import inspect
import pathlib
import re

import pytest

import hoij

SOURCES = sorted(pathlib.Path(hoij.__file__).parent.glob("*.py"))
# every module of the package, imported, so each is an attribute of hoij
MODULES = {p: importlib.import_module("hoij" if p.stem == "__init__" else f"hoij.{p.stem}")
           for p in SOURCES}
ROLE = re.compile(r":(func|meth|class|attr|mod):`([^`]*)`")


def _lookup(obj, parts) -> bool:
    # whether the dotted parts name an attribute or a dataclass field under obj
    for i, part in enumerate(parts):
        if dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
            return i == len(parts) - 1
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def resolves(module, target: str) -> bool:
    """Whether ``target``, a reference in ``module``'s source, names
    something: with any leading ``~`` removed, as a dotted path under
    ``hoij``, in the module itself, or in a class the module defines."""
    parts = target.removeprefix("~").split(".")
    if not all(p.isidentifier() for p in parts):
        return False
    if parts[0] == "hoij":
        parts = parts[1:]
    classes = [c for _, c in inspect.getmembers(module, inspect.isclass)
               if c.__module__ == module.__name__]
    return any(_lookup(root, parts) for root in [hoij, module, *classes])


def references(path):
    """(role, target) of every cross-reference in a source file."""
    return ROLE.findall(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_cross_references_resolve(path):
    dangling = [f":{role}:`{target}`" for role, target in references(path)
                if not resolves(MODULES[path], target)]
    assert not dangling, f"{path.name}: {dangling}"


def test_the_resolver_refuses_what_does_not_exist():
    from hoij import bounds, expansion

    assert resolves(expansion, "HessianFactor.prepare_expansion")
    assert resolves(expansion, "prepare_expansion")  # a method of a class of the module
    assert resolves(expansion, "~hoij.forward_ad.NonFiniteValueError")
    assert resolves(bounds, "forward_ad.per_datum_tensors")
    assert resolves(bounds, "BoundConstants.radius")  # a field with no class attribute
    for target in ("forward_ad.no_such_pass", "no_such_fill", "HessianFactor.no_such_fill",
                   "hoij.nowhere", "expansion.refit_block()", ""):
        assert not resolves(expansion, target), target
    assert not resolves(bounds, "radius.real")
    assert sum(len(references(p)) for p in SOURCES) >= 50
