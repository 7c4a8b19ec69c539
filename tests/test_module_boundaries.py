"""Each module of the package keeps its `_`-prefixed names to itself.

A private name is one module's own decision.  A sibling module that imports
it, or reads it as `module._name`, gives that decision a second home; the
public name it should use instead says which module owns it.  The same holds
for the private attributes of objects: `x._name` on anything but `self`,
`cls` or `super()` must name an attribute the reading module defines.

No module hands a product to BLAS either: OpenBLAS splits a long dot across
its threads, so the summation order, and with it the output bits, would
follow the BLAS thread count.  And `schwartz` exponentiates in `_roots`
only, which evaluates each modulus's roots once per call; `expsums` splits
Z_p^d by Hensel classes in `_edges` only, the one tree that both counts and
values read.  `polynomials.compose_affine` names no `Fraction`: it expands in
the numbers it is given, so the integer phases of the recursion stay integers.

The parameter names of everything the package exports are pinned in one
table, so a keyword added or removed shows as a one-line diff.
"""

import ast
import inspect
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


def _own_attributes(tree: ast.AST) -> set[str]:
    """The private attributes a module defines: `__slots__` entries, class-level
    names and `self._x = ...` assignments."""
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    own.add(stmt.name)
                targets = stmt.targets if isinstance(stmt, ast.Assign) else (
                    [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
                for target in targets:
                    if isinstance(target, ast.Name):
                        own.add(target.id)
                        if target.id == "__slots__":
                            own.update(c.value for c in ast.walk(stmt.value)
                                       if isinstance(c, ast.Constant))
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            own.add(node.attr)
    return {name for name in own if isinstance(name, str) and _private(name)}


def _on_itself(base: ast.expr) -> bool:
    if isinstance(base, ast.Name):
        return base.id in ("self", "cls")
    return (isinstance(base, ast.Call) and isinstance(base.func, ast.Name)
            and base.func.id == "super")


def foreign_attribute_reads(source: str) -> list[str]:
    """`x._name` reads, x not `self`, `cls` or `super()`, of attributes `source`
    does not define."""
    tree = ast.parse(source)
    own = _own_attributes(tree)
    return [
        f"{ast.unparse(node.value)}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and _private(node.attr) and node.attr not in own and not _on_itself(node.value)
    ]


BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot"}


def blas_products(source: str) -> list[str]:
    """The products in `source` that numpy may hand to BLAS: `@`, the dot
    family by attribute or import, and einsum with `optimize`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(ast.unparse(node))
        elif isinstance(node, ast.ImportFrom):
            found += [alias.name for alias in node.names if alias.name in BLAS_NAMES]
        elif (isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "einsum"
              and any(k.arg in ("optimize", None) for k in node.keywords)):
            found.append(ast.unparse(node))
    return found


def test_the_package_has_modules():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_name_crosses_a_module(path):
    assert private_uses(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_attribute_of_another_module_is_read(path):
    assert foreign_attribute_reads(path.read_text()) == []


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


@pytest.mark.parametrize(
    "source",
    [
        "def f(x):\n    return x._val",
        "def f(xs):\n    return [-x._val for x in xs]",
        "def f(res):\n    return res._value is None",
        "class A:\n    _n = 1\n\ndef f(b):\n    return b._m",
        "class A:\n    def g(self):\n        return self._n\n\ndef f(a):\n    return a._n",
    ],
)
def test_the_check_sees_a_foreign_attribute_read(source):
    assert foreign_attribute_reads(source)


def test_the_check_allows_attributes_the_module_defines():
    source = (
        "class A:\n"
        "    __slots__ = ('_val', 'unit')\n"
        "    _FIELDS = ('unit',)\n"
        "    _cache: dict = {}\n"
        "    def __init__(self):\n        self._seen = 0\n"
        "    def _set(self):\n        return super()._set(), cls._other, self._anything\n"
        "def f(a, b):\n"
        "    return a._val, a._FIELDS, A._cache, b._seen, a._set(), a.__class__, a.unit"
    )
    assert foreign_attribute_reads(source) == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_product_goes_through_blas(path):
    assert blas_products(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "v @ w",
        "v @= w",
        "np.dot(v, w)",
        "v.dot(w)",
        "np.matmul(v, w)",
        "np.inner(v, w)",
        "np.vdot(v, w)",
        "np.tensordot(v, w, 1)",
        "from numpy import dot",
        "f = np.dot\nf(v, w)",
        "np.einsum('i,i', v, w, optimize=True)",
        "np.einsum('i,i', v, w, **opts)",
    ],
)
def test_the_check_sees_a_blas_product(source):
    assert blas_products(source)


def test_the_check_allows_fixed_order_sums():
    source = (
        "inner = np.exp(x)\n"
        "np.sum(v * w), (v * w).sum(axis=1), np.einsum('ba,a->b', m, inner)\n"
        "@dataclass\nclass A:\n    pass"
    )
    assert blas_products(source) == []


def exp_uses_outside(source: str, allowed: str) -> list[str]:
    """The uses of numpy's `exp` in `source` outside the function named `allowed`."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == allowed for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if (isinstance(node, ast.Attribute) and node.attr == "exp"
                and ast.unparse(node.value) in ("np", "numpy")):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [alias.name for alias in node.names if alias.name == "exp"]
    return found


def test_schwartz_exponentiates_in_roots_only():
    source = next(path for path in SOURCES if path.name == "schwartz.py").read_text()
    assert exp_uses_outside(source, "_roots") == []


@pytest.mark.parametrize(
    "source",
    [
        "def f(r, M):\n    return np.exp(r / M)",
        "values = numpy.exp(x)",
        "f = np.exp\nf(x)",
        "from numpy import exp",
        "def _roots(r, M):\n    return r\n\ndef g(x):\n    return np.exp(x)",
    ],
)
def test_the_check_sees_an_exp_outside_roots(source):
    assert exp_uses_outside(source, "_roots")


def test_the_check_allows_exp_inside_roots():
    source = (
        "import cmath\n"
        "def _roots(r, M):\n"
        "    if M < r.size:\n        return np.exp(np.arange(M) / M)[r]\n"
        "    return np.exp(r / M)\n"
        "z = cmath.exp(1j)"
    )
    assert exp_uses_outside(source, "_roots") == []


def hensel_splits_outside(source: str, allowed: str) -> list[str]:
    """The uses of `_gradient` or `_mesh` in `source` outside the function
    named `allowed`, and every use of numpy's `add.at`."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == allowed for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "at"
                and ast.unparse(node.value) in ("np.add", "numpy.add")):
            found.append(ast.unparse(node))
        elif (isinstance(node, ast.Name) and node.id in ("_gradient", "_mesh")
              and id(node) not in inside):
            found.append(node.id)
    return found


def test_expsums_splits_by_hensel_class_in_edges_only():
    # counts and values read one tree of nodes, each split once by `_edges`
    source = next(path for path in SOURCES if path.name == "expsums.py").read_text()
    assert hensel_splits_outside(source, "_edges") == []


@pytest.mark.parametrize(
    "source",
    [
        "def _slabs(h):\n    return _gradient(h)",
        "def _edges(h):\n    return h\n\ndef scan(d, p):\n    return list(_mesh(d, p))",
        "grads = map(_gradient, rows)",
        "np.add.at(counts, picked, 1)",
        "def _edges(counts, picked):\n    numpy.add.at(counts, picked, 1)",
    ],
)
def test_the_check_sees_a_second_hensel_split(source):
    assert hensel_splits_outside(source, "_edges")


def test_the_check_allows_the_split_inside_edges():
    source = (
        "def _mesh(d, side):\n    return d\n"
        "def _edges(h, d, p):\n    rows = _gradient(h)\n    return [_mesh(d, p), rows]\n"
        "np.add(a, b), np.bincount(x)"
    )
    assert hensel_splits_outside(source, "_edges") == []


def fraction_names_inside(source: str, function: str, names=("Fraction",)) -> list[str]:
    """The names and attributes in `names` (`Fraction` alone by default) in
    the function named `function`."""
    return [
        ast.unparse(node)
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, ast.FunctionDef) and fn.name == function
        for node in ast.walk(fn)
        if (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)
    ]


def test_compose_affine_names_no_fraction():
    # integer inputs, as `_edges` passes them, give integer coefficients
    source = next(path for path in SOURCES if path.name == "polynomials.py").read_text()
    assert fraction_names_inside(source, "compose_affine") == []


@pytest.mark.parametrize(
    "source",
    [
        "def compose_affine(c, x, s):\n    return {e: Fraction(a) for e, a in c.items()}",
        "def compose_affine(c: dict[tuple, Fraction], x, s):\n    return c",
        "def compose_affine(c, x, s):\n    s = fractions.Fraction(s)\n    return c",
    ],
)
def test_the_check_sees_a_fraction_in_compose_affine(source):
    assert fraction_names_inside(source, "compose_affine")


def test_the_check_allows_fractions_outside_compose_affine():
    source = (
        "def compose_affine(c, x, s):\n    return {e: a * s for e, a in c.items()}\n"
        "def lattice_form(phase):\n    return Fraction(1)"
    )
    assert fraction_names_inside(source, "compose_affine") == []


# the certificate's ball is integral: it refines integer residue classes and
# reads their gradient valuations with `int_valuation`
CERTIFICATE_NAMES = ("Fraction", "split_p_part")


def test_stationary_certificate_names_no_fraction():
    source = next(path for path in SOURCES if path.name == "expsums.py").read_text()
    assert fraction_names_inside(source, "stationary_certificate", CERTIFICATE_NAMES) == []


def test_the_check_sees_a_fraction_in_the_certificate():
    source = (
        "def stationary_certificate(f, ball, values):\n"
        "    return split_p_part(Fraction(v), p)[1]"
    )
    assert fraction_names_inside(source, "stationary_certificate", CERTIFICATE_NAMES) == [
        "split_p_part", "Fraction"
    ]


def test_the_check_allows_fractions_outside_the_certificate():
    source = (
        "def stationary_certificate(f, ball, values):\n    return int_valuation(v, p)\n"
        "def decay_fit(f, ball, values):\n    return split_p_part(Fraction(1), 3)"
    )
    assert fraction_names_inside(source, "stationary_certificate", CERTIFICATE_NAMES) == []


# None: an exception class that keeps Exception's own (*args)
EXPORTED_PARAMETERS = {
    "Ball": ("prime", "center", "radius_exp"),
    "CertificateIndeterminate": None,
    "CertificateUnavailableError": ("residue_class",),
    "DecayFit": (
        "samples", "slope", "intercept", "residual", "status", "beta", "quasi_homogeneous",
        "consistent",
    ),
    "DegenerateInputError": None,
    "DomainError": None,
    "ExpSumResult": (
        "prime", "level", "terms", "dim", "box_level", "blocks", "const", "step", "scale", "cap",
        "_value",
    ),
    "Facet": ("normal", "support_value", "weight", "vertices"),
    "GraphHypersurface": ("phi", "window"),
    "ModulatedSBFn": ("n", "prime", "terms"),
    "NewtonPolyhedron": ("dim", "facets", "support"),
    "PolynomialSyntaxError": ("message", "position"),
    "QuasiHomogeneityWitness": ("alpha", "degree"),
    "ResourceCapError": ("required", "cap", "what"),
    "RootOfUnity": ("prime", "numerator", "level"),
    "SchwartzBruhatFn": ("n", "prime", "terms"),
    "SolutionSpec": ("f0", "phi", "spectrum", "freq_bound", "phase_bound", "spectrum_exp"),
    "SparsePolynomial": ("nvars", "terms"),
    "StationaryCertificate": ("bound_exponent", "threshold", "verified_levels", "max_abs"),
    "StrichartzReport": ("sigma", "rows", "increments", "converged", "diverged", "constant"),
    "SurfaceDecayTable": (
        "rows", "slope", "expected", "degree_bound", "reciprocal_bound", "consistent",
    ),
    "beta_and_t0": ("P",),
    "character": ("x", "p"),
    "character_sum": ("phase", "ball", "cap"),
    "decay_fit": ("f", "ball", "values"),
    "decay_table": ("Y", "values"),
    "exp_sum": ("f", "z", "ball", "cap", "threads"),
    "face_polynomials": ("f", "P"),
    "fourier_sb": ("g",),
    "inverse_fourier_sb": ("G",),
    "l2_norm": ("g",),
    "lp_norm": ("g", "rho"),
    "newton_facets": ("f",),
    "nondegeneracy_mod_p": ("f", "P", "p", "cap"),
    "parse_polynomial": ("text", "nvars"),
    "quasi_homogeneous_detect": ("P",),
    "ray_values": ("Y", "direction", "levels", "cap"),
    "residue_histogram": ("f", "m", "ball", "cap"),
    "restriction_ratio": ("g", "Y", "rho", "beta_phi", "cap"),
    "sb_allclose": ("g1", "g2", "tol"),
    "solution_grid": ("spec", "R", "cap"),
    "solve_u": ("spec", "x", "t", "cap"),
    "stationary_certificate": ("f", "ball", "values"),
    "strichartz_report": ("spec", "sigma", "R_max", "cap"),
    "strichartz_truncated": ("spec", "sigma", "R", "cap"),
    "support": ("f",),
    "surface_ft": ("Y", "xi", "cap"),
    "windowed_spectrum": ("spec", "xi", "tau", "R", "cap"),
    "zeta_kernel": ("z", "x_n", "e0", "p"),
    "zeta_kernel_numeric": ("z", "x_n", "e0", "p"),
}


def exported_parameters() -> dict[str, tuple[str, ...] | None]:
    """The parameter names of every function and class the package exports."""
    found = {}
    for name in dir(padic_dispersion):
        obj = getattr(padic_dispersion, name)
        if name.startswith("_") or not callable(obj):
            continue
        try:
            found[name] = tuple(inspect.signature(obj).parameters)
        except ValueError:
            found[name] = None
    return found


def test_exported_parameters_are_pinned():
    assert exported_parameters() == EXPORTED_PARAMETERS
