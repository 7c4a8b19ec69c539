"""Every library name and call that the benchmark relies on still works.

`bench/tracing.py` wraps library functions by (module, attribute), and
`bench/workloads.py` and `bench/test_bench.py` call a few of them directly;
without these checks a rename or a signature change in the library only shows
in the slow benchmark suite.  The tracer file is loaded as it is and never
modified.
"""

import importlib
import importlib.util
import inspect
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from padic_dispersion import cli, expsums, newton, schwartz, wave
from padic_dispersion.padic import Ball
from padic_dispersion.polynomials import parse_polynomial

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_tracing()
    missing = []
    for module, attr, _ in tracing.SPANS + tracing.COUNTS:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{module}")
        if "." in attr:  # "Class.member": the tracer patches the class's own member
            cls_name, member = attr.split(".")
            found = member in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{module}.{attr}")
    assert not missing, f"traced names missing from the library: {missing}"


def test_benchmark_calls_bind(monkeypatch):
    f, ball = parse_polynomial("x1^2+x2^3"), Ball.of(3, (0, 0), 0)
    inspect.signature(expsums.exp_sum).bind(f, Fraction(1, 27), ball, threads=1)
    parsed = cli.build_parser().parse_args(["expsum", "--prime", "3", "--poly", "x^2", "--m", "1..2"])
    pair = cli.config_from_args(parsed)
    assert isinstance(pair, tuple) and len(pair) == 2
    inspect.signature(cli.run).bind(pair[0], 1)
    # the tracer reads (terms, n, p, level) from the positional arguments of
    # `_mod_histogram` and counts len() of its result; the histogram is built
    # when the counts are read, and `value` alone never builds it
    params = list(inspect.signature(expsums._mod_histogram).parameters)
    assert params[:4] == ["terms", "n", "p", "level"]
    seen = []
    original = expsums._mod_histogram

    def recording(*args):
        result = original(*args)
        seen.append((args[1:4], len(result)))
        return result

    monkeypatch.setattr(expsums, "_mod_histogram", recording)
    res = expsums.exp_sum(f, Fraction(1, 27), ball, threads=1)
    res.value
    assert seen == []
    assert sum(res.counts.values()) == 3**6
    assert seen == [((2, 3, 3), 27)]


def test_block_counts_signature_and_total():
    # bench/test_bench.py wraps `_block_counts(*args)`, passing on the
    # positional arguments of `_mod_histogram`'s call, and sums its result
    params = list(inspect.signature(expsums._block_counts).parameters.values())
    assert [param.name for param in params[:5]] == ["block", "terms", "width", "p", "level"]
    assert all(param.default is not param.empty for param in params[5:])  # the work and cap
    counts = expsums._block_counts((0, 1), {(2, 0, 0): 1, (0, 3, 0): 1, (0, 0, 1): 1}, 27, 3, 2)
    assert isinstance(counts, np.ndarray) and len(counts) == 9
    assert int(counts.sum()) == 27**2


def test_random_sb_draw():
    # bench/workloads.py redraws the CLI's restriction test functions
    inspect.signature(cli._random_sb).bind(random.Random(14), 3, 2)
    g = cli._random_sb(random.Random(14), 3, 2)
    assert isinstance(g, schwartz.SchwartzBruhatFn)
    for ball, coeff in g.terms:
        assert len(ball.center_fractions()) == 2 and isinstance(ball.radius_exp, int)
        assert all(isinstance(c, Fraction) for c in ball.center_fractions())
        assert isinstance(coeff, complex)
    # bench/test_bench.py drops a transform's last term by rebuilding it from its own terms
    G = schwartz.fourier_sb(cli._random_sb(random.Random(12), 3, 2))
    H = G.__class__(G.n, G.prime, G.terms[:-1])
    assert len(G.terms) == 9 and H.terms == G.terms[:-1]


def test_modulated_value_at_is_patchable(monkeypatch):
    # bench/test_bench.py counts `ModulatedSBFn.value_at` calls by patching the class
    assert list(inspect.signature(schwartz.ModulatedSBFn.value_at).parameters) == ["self", "point"]
    original, calls = schwartz.ModulatedSBFn.value_at, []

    def counting(self, point):
        calls.append(point)
        return original(self, point)

    monkeypatch.setattr(schwartz.ModulatedSBFn, "value_at", counting)
    g = schwartz.SchwartzBruhatFn.of(3, [(Ball.of(3, [0], 0), 1 + 0j)])
    G = schwartz.fourier_sb(g)
    assert isinstance(G, schwartz.ModulatedSBFn)
    assert abs(G.value_at((Fraction(1, 3),))) < 1e-12 and calls == [(Fraction(1, 3),)]


def test_counts_values_and_equality():
    # the six-squares operation returns `res.counts`; its check sums values()
    # and later rounds compare the output tuple with ==
    f, ball = parse_polynomial("x1^2+x2^2"), Ball.of(3, (0, 0), 0)
    one = expsums.exp_sum(f, Fraction(1, 27), ball)
    two = expsums.exp_sum(f, Fraction(1, 27), ball)
    assert one.scale * sum(one.counts.values()) == 1
    assert not any(k < 0 for k in one.counts.values())
    assert (one.counts, one.scale, one.value) == (two.counts, two.scale, two.value)
    assert one.counts == dict(two.counts) and dict(one.counts) == two.counts
    assert one.counts != expsums.exp_sum(f, Fraction(1, 9), ball).counts


def test_each_level_is_tiled_once_and_counted_by_its_rows(monkeypatch):
    # the tracer's `wave.freq_cells` count, p^(n (e + level)) per `_freq_cells`
    # call, must equal the cells `_freq_cells` examines: the rows it passes to
    # `ModulatedSBFn.values`; and a repeated (level, cap) of a spec must be
    # served without tiling again
    tracing = load_tracing()
    tiled, counted, rows = [], [0], [0]
    cells, values = wave._freq_cells, schwartz.ModulatedSBFn.values

    def counting_cells(spec, level, cap):
        tiled.append((id(spec), level, cap))
        counted[0] += tracing.freq_cells(spec, level)
        return cells(spec, level, cap)

    def counting_values(self, points, denom):
        rows[0] += len(points)
        return values(self, points, denom)

    monkeypatch.setattr(wave, "_freq_cells", counting_cells)
    monkeypatch.setattr(schwartz.ModulatedSBFn, "values", counting_values)
    f0 = schwartz.SchwartzBruhatFn.of(
        3, [(Ball.of(3, [0], 0), 1 + 0j), (Ball.of(3, [Fraction(1, 3)], 0), 1j)]
    )
    g0 = schwartz.SchwartzBruhatFn.of(3, [(Ball.of(3, [0, 0], 1), 1 + 0j)])
    for spec in (wave.SolutionSpec.build(f0, parse_polynomial("x^2")),
                 wave.SolutionSpec.build(g0, parse_polynomial("x1^2+x2^2"))):
        p, zero = spec.prime, (0,) * (spec.n - 1)
        for _ in range(2):
            wave.solve_u(spec, (Fraction(1, p),) + zero, Fraction(1, p**2))
            wave.solve_u(spec, (0,) + zero, Fraction(1, p**3))
            wave.windowed_spectrum(spec, (0,) + zero, Fraction(1, p), 1)
            wave.solution_grid(spec, 2)
    assert len(tiled) == len(set(tiled)) >= 4
    assert counted[0] == rows[0] > 0


def test_a_newton_run_reaches_every_traced_newton_name():
    # the tracer wraps newton_facets, nondegeneracy_mod_p and face_polynomials
    # where callers look them up and counts len() of face_polynomials' result;
    # a certified run walks the faces, so it must reach all three
    tracing = load_tracing()
    names = [name for module, _, name in tracing.SPANS if module == "newton"]
    assert names == ["newton.newton_facets", "newton.nondegeneracy_mod_p", "newton.face_polynomials"]
    parsed = cli.build_parser().parse_args(["newton", "--prime", "5", "--poly", "x1^2+x2^3"])
    cfg, _ = cli.config_from_args(parsed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        _, status = cli.run(cfg, 1)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert status == cli.EXIT_OK
    assert {name: tracer.calls[name] for name in names} == dict.fromkeys(names, 1)
    f = parse_polynomial("x1^2+x2^3")
    faces = newton.face_polynomials(f, newton.newton_facets(f))
    assert isinstance(faces, list) and tracer.counts["newton.faces"] == len(faces) == 5
