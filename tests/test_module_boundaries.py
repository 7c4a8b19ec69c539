"""Each module of the package keeps its `_`-prefixed names to itself.

A private name is one module's own decision.  A sibling module that imports
it, or reads it as `module._name`, gives that decision a second home; the
public name it should use instead says which module owns it.
"""

import ast
from pathlib import Path

import pytest

import padic_dispersion

PACKAGE = "padic_dispersion"
SOURCES = sorted(Path(padic_dispersion.__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(source: str) -> list[str]:
    """The private names of sibling modules that `source` imports or reads."""
    tree = ast.parse(source)
    siblings: set[str] = set()  # local names bound to sibling modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level > 0 or (node.module or "").split(".")[0] == PACKAGE
            if not package:
                continue
            whole = node.module in (None, PACKAGE)  # `from . import wave`
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
                elif whole:
                    siblings.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE and alias.asname:
                    siblings.add(alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = node.value
            if isinstance(base, ast.Name) and base.id in siblings:
                found.append(f"{base.id}.{node.attr}")
            elif ast.unparse(base).startswith(PACKAGE + "."):
                found.append(f"{ast.unparse(base)}.{node.attr}")
    return found


def test_the_package_has_modules():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_name_crosses_a_module(path):
    assert private_uses(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "from .wave import _box",
        "from .wave import solve_u, _box as box",
        "from padic_dispersion.wave import _box",
        "from . import wave\nwave._box(spec, 1, 10)",
        "from . import wave as w\nw._box",
        "import padic_dispersion.wave as w\nw._box",
        "import padic_dispersion.wave\npadic_dispersion.wave._box",
    ],
)
def test_the_check_sees_a_private_crossing(source):
    assert private_uses(source)


def test_the_check_allows_public_and_own_names():
    source = (
        "from .wave import solve_u\nfrom . import wave\n"
        "def _own():\n    return wave.solve_u, wave.__name__, self._x\n_own()"
    )
    assert private_uses(source) == []
