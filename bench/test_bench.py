"""Tests of the benchmark itself.

    python3 -m pytest bench -q        # from the repository root; about 3 minutes

They check that a run names every metric of BENCHMARK.json with its unit
and a usable value, that every output check fires on a wrong value, that
the references agree with brute force, and that the traced counters match
brute-force counts on small inputs.
"""

from __future__ import annotations

import cmath
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracles as ref  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from padic_dispersion import expsums, schwartz, wave  # noqa: E402
from padic_dispersion.padic import Ball  # noqa: E402
from padic_dispersion.polynomials import parse_polynomial  # noqa: E402
from padic_dispersion.schwartz import SchwartzBruhatFn  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def validate(result: dict, metrics: list[dict], strictly_positive: bool) -> None:
    """The contract of the last stdout line."""
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"], m["name"]
        value = got["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), m["name"]
        if strictly_positive:
            assert value > 0, m["name"]


def test_workloads_match_the_spec():
    assert tuple(NAMES) == bench.WORKLOADS == tuple(workloads._BUILDERS)
    spec_layers = {m["name"] for m in SPEC["per_layer"]}
    measured = set(tracing.Tracer().layer_metrics(1)) | {"trace.overhead_s"}
    assert spec_layers == measured


@pytest.mark.parametrize("name", NAMES)
def test_rounds_hold_enough_operations_for_a_tail(name):
    # op_tail_s needs >= 40 samples at threads=1 in the shortest run
    assert len(workloads.build(name, 0).ops) * bench.MIN_ROUNDS >= 40


def test_validate_fires_on_wrong_results():
    metrics = SPEC["end_to_end"]
    good = {"correct": True, "attempted": 4, "failed": 1,
            "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in metrics}}
    validate(good, metrics, True)
    broken = [
        lambda r: r["metrics"].pop("setup_s"),
        lambda r: r["metrics"]["wall_s"].update(unit="ms"),
        lambda r: r["metrics"]["cpu_s"].update(value=0.0),
        lambda r: r["metrics"]["op_p50_s"].update(value=float("nan")),
        lambda r: r.update(attempted=0),
        lambda r: r.update(correct=False),
    ]
    for breaker in broken:
        bad = json.loads(json.dumps(good))
        breaker(bad)
        with pytest.raises(AssertionError):
            validate(bad, metrics, True)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_run_reports_every_metric(name, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    validate(result, SPEC["per_layer"] if trace else SPEC["end_to_end"], not trace)
    expected_faults = sum(op.known_fault for op in workloads.build(name, 3).ops)
    assert result["failed"] * len(workloads.build(name, 3).ops) == result["attempted"] * expected_faults


def test_calibration_scales_measured_times():
    class Fixed(bench.Calibration):
        def __init__(self, kernel_s):
            self.kernel_s = kernel_s

        def time_kernel(self):
            return self.kernel_s

    w = workloads.build("fourier-roundtrip", 0)
    w.ops = w.ops[:2]
    same = bench.run_round(w, 1, Fixed(bench.Calibration.REFERENCE_S))
    assert same.wall == pytest.approx(same.raw_wall)
    slow = bench.run_round(w, 1, Fixed(2 * bench.Calibration.REFERENCE_S))
    assert slow.wall == pytest.approx(slow.raw_wall / 2)
    assert sum(slow.latencies) == pytest.approx(slow.wall)


def test_run_refuses_without_the_library(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# -- the output checks ----------------------------------------------------------


def _edit_json(out, edit):
    doc = json.loads(out[0])
    edit(doc["results"])
    return json.dumps(doc).encode(), out[1]


def _cli_corruptions(command: str):
    """Deliberately wrong variants of a correct CLI output."""

    def nudge(path):
        def edit(r):
            target = r
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] += 1e-6
        return edit

    fields = {
        "expsum": [nudge(["table", -1, "value", 0]), nudge(["table", 0, "value", 1]),
                   lambda r: r["histogram"].update({"0": r["histogram"].get("0", 0) + 1}),
                   lambda r: r["decay_fit"].update(beta="1/7")],
        "newton": [lambda r: r.update(beta="1/7"), lambda r: r["facets"].pop(),
                   lambda r: r.update(mod_p_verdict="indeterminate")],
        "surface": [nudge(["ft_samples", -1, "value", 0]), nudge(["zeta_check", "max_diff"])],
        "solve": [nudge(["u_samples", -1, "value", 1]), nudge(["u_samples", 0, "value", 0]),
                  nudge(["windowed_spectrum", 0, "abs"])],
        "strichartz": [nudge(["l2_f0"]), lambda r: r.update(converged=False),
                       nudge(["rows", 0, "ratio"])],
    }[command]
    return [lambda out, e=e: _edit_json(out, e) for e in fields] + [
        lambda out: (out[0], 2 if out[1] != 2 else 0)]


@pytest.fixture(scope="module")
def outputs():
    runs = {}
    for name in NAMES:
        w = workloads.build(name, 0)
        runs[name] = [(op, op.run(1)) for op in w.ops]
    return runs


@pytest.mark.parametrize("name", NAMES)
def test_checks_pass_on_the_program_and_fire_on_wrong_values(outputs, name):
    for op, out in outputs[name]:
        verdict = op.check(out)
        if op.known_fault:
            assert verdict is not None, op.name
            continue
        assert verdict is None, (op.name, verdict)
        if isinstance(out, tuple) and isinstance(out[0], bytes):
            command = json.loads(out[0])["config"]["command"]
            wrong = [c(out) for c in _cli_corruptions(command)]
        else:
            G, back, close = out
            wrong = [(G, back, False), (G, back.scaled(2.0), True),
                     (G.__class__(G.n, G.prime, G.terms[:-1]), back, True)]
        for bad in wrong:
            assert op.check(bad) is not None, op.name


def test_six_squares_check_fires_on_each_symptom():
    op = workloads._six_squares_fault()
    counts = {0: 3**54}
    assert "negative" in op.check(({0: -1, 1: 3**54 + 1}, Fraction(1, 3**54), 0j))
    assert "volume" in op.check((counts, Fraction(1, 3**53), 0j))
    assert "|E|" in op.check((counts, Fraction(1, 3**54), 1 + 0j))


# -- references against brute force ---------------------------------------------------


def _naive_zp(poly: dict, p: int, L: int) -> complex:
    total = 0j
    for y in range(p**L):
        x = sum((Fraction(c) * y**k for k, c in poly.items()), Fraction(0))
        total += cmath.exp(2j * math.pi * float(x - math.floor(x)))
    return total / p**L


def test_integral_and_closed_forms_agree_with_naive_sums():
    for p, d in ((5, 3), (3, 5), (2, 3), (7, 5)):
        for m in range(1, 5):
            poly = {d: Fraction(2 if p > 2 else 1, p**m)}
            assert abs(ref.integral_zp(poly, p) - _naive_zp(poly, p, m)) < 1e-12
            assert abs(ref.integral_zp(poly, p) - float(ref.monomial_expsum(d, p, m))) < 1e-12
    # |Gauss sum| = p^(-m/2)
    assert abs(abs(ref.integral_zp({2: Fraction(1, 3**5)}, 3)) - 3**-2.5) < 1e-12
    # ball integral: c + pZ_3 = shifted Riemann sum
    direct = sum(cmath.exp(2j * math.pi * ((2 + 3 * y) ** 2 % 27) / 27) for y in range(9)) / 27
    assert abs(ref.integral_ball({2: Fraction(1, 27)}, Fraction(2), 1, 3) - direct) < 1e-12


def test_transform_reference_matches_the_library_on_one_ball():
    p = 3
    g = SchwartzBruhatFn.of(p, [(Ball.of(p, [Fraction(1, 3)], 1), 2 + 0j)])
    G = schwartz.fourier_sb(g)
    for xi in (0, Fraction(1, 3), Fraction(2, 9), 5, Fraction(1, 27)):
        want = ref.sb_transform_value([((Fraction(1, 3),), 1, 2 + 0j)], (Fraction(xi),), p)
        assert abs(G.value_at((xi,)) - want) < 1e-12


def test_newton_polygon_reference():
    facets, chain = ref.newton_polygon([(0, 4), (1, 2), (2, 1), (4, 0), (3, 3)])
    assert facets == {((1, 0), 0), ((0, 1), 0), ((2, 1), 4), ((1, 1), 3), ((1, 2), 4)}
    assert chain == [(0, 4), (1, 2), (2, 1), (4, 0)]
    assert ref.certified_mod_p({(0, 2): 1, (2, 0): 1}, 3)  # x^2 + y^2 is anisotropic mod 3
    assert ref.certified_mod_p({(0, 2): 1, (2, 0): 1}, 5)  # zeros (1, 2) are smooth
    assert not ref.certified_mod_p({(2, 0): 1, (1, 1): 2, (0, 2): 1}, 5)  # (x + y)^2


# -- closed-form counters against brute force ---------------------------------------


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    t.active = True
    try:
        yield t
    finally:
        t.active = False
        t.uninstall()


def test_residue_points_match_enumerated_points(tracer, monkeypatch):
    enumerated = []
    original = expsums._block_counts

    def counting(*args):
        counts = original(*args)
        enumerated.append(int(counts.sum()))
        return counts

    monkeypatch.setattr(expsums, "_block_counts", counting)
    f = parse_polynomial("x1^2+x2^3+x2*x3")
    expsums.exp_sum(f, Fraction(1, 27), Ball.of(3, (0, 0, 0), 0))
    expsums.residue_histogram(f, 2, Ball.of(3, (0, 0, 0), 0))
    expsums.exp_sum(parse_polynomial("x^2"), Fraction(1, 25), Ball.of(5, (1,), 1))
    assert tracer.counts["expsums.residue_points"] == sum(enumerated) > 0
    assert tracer.calls["expsums.exp_sum"] == 2
    assert tracer.calls["expsums.character_sum"] == 2


def test_freq_cells_and_grid_samples_match_brute_force(tracer, monkeypatch):
    visited = [0]
    original = schwartz.ModulatedSBFn.value_at

    def counting(self, point):
        visited[0] += 1
        return original(self, point)

    f0 = SchwartzBruhatFn.of(3, [(Ball.of(3, [0], 0), 1 + 0j), (Ball.of(3, [Fraction(1, 3)], 0), 1j)])
    spec = wave.SolutionSpec.build(f0, parse_polynomial("x^2"))
    monkeypatch.setattr(schwartz.ModulatedSBFn, "value_at", counting)
    wave.solve_u(spec, (Fraction(1, 3),), Fraction(1, 9))
    wave.windowed_spectrum(spec, (Fraction(0),), Fraction(1, 3), 1)
    assert tracer.counts["wave.freq_cells"] == visited[0] > 0
    grid = wave.solution_grid(spec, 2)
    assert tracer.counts["wave.grid_samples"] == len(grid.t_reps) * len(grid.x_axis) ** grid.n


def test_self_times_partition_the_traced_time(tracer):
    from padic_dispersion import cli

    cfg, threads = cli.config_from_args(cli.build_parser().parse_args(
        ["expsum", "--prime", "3", "--poly", "x^2", "--m", "1..4"]))
    cli.run(cfg, threads)
    assert tracer.calls["cli.run"] == 1
    assert tracer.counts["cli.expsum_calls"] >= tracer.counts["cli.expsum_distinct"] == 4
    top = tracer.total_s["cli.run"]
    assert all(v >= 0 for v in tracer.self_s.values())
    # self times cover the traced time except the counters' own bookkeeping
    assert 0.8 * top <= sum(tracer.self_s.values()) <= top
    parents = {sid for sid, *_ in tracer.spans}
    assert all(parent is None or parent in parents for *_, parent in tracer.spans)


def test_uninstall_restores_the_library():
    before = (expsums.exp_sum, expsums.ExpSumResult.__dict__["value"], wave.SolutionSpec.build)
    t = tracing.Tracer()
    t.install()
    assert expsums.exp_sum is not before[0]
    t.uninstall()
    after = (expsums.exp_sum, expsums.ExpSumResult.__dict__["value"], wave.SolutionSpec.build)
    assert after == before
