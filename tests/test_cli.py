import json
import math
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import DEGREE_SIX_IN_FOUR, config_from_dict, x1_x2_count_work, x1_x2_work
import padic_dispersion
from padic_dispersion import expsums, surface, wave
from padic_dispersion.cli import (
    EXIT_CERTIFICATE,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VALIDATION,
    JobConfig,
    build_parser,
    config_from_args,
    frac_str,
    main,
    parse_ball_list,
    run,
)
from padic_dispersion.padic import Ball
from padic_dispersion.polynomials import SparsePolynomial, parse_polynomial


def run_cli(tmp_path, argv, name="out.bin"):
    out = tmp_path / name
    code = main(list(argv) + ["--out", str(out)])
    data = out.read_bytes() if out.exists() else b""
    return code, data


class TestNewtonCommand:
    def test_two_squares_json(self, tmp_path):
        code, out = run_cli(
            tmp_path, ["newton", "--prime", "3", "--poly", "x1^2+x2^2"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["results"]["beta"] == "1/1"
        assert doc["results"]["t0"] == ["1", "1"]
        assert doc["results"]["mod_p_verdict"] == "certified"
        assert doc["results"]["quasi_homogeneous"] == {"alpha": [1, 1], "degree": 2}

    def test_exact_rational_serialisation(self, tmp_path):
        code, out = run_cli(
            tmp_path, ["newton", "--prime", "5", "--poly", "x1^2+x2^3"]
        )
        doc = json.loads(out)
        assert doc["results"]["beta"] == "5/6"
        assert doc["results"]["t0"] == ["6/5", "6/5"]

    def test_csv(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            ["newton", "--prime", "3", "--poly", "x1^2+x2^2", "--format", "csv"],
        )
        lines = out.decode().splitlines()
        assert lines[0] == "field,value"
        assert "beta,1/1" in lines


class TestExpsumCommand:
    def test_gauss_csv_schema(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            ["expsum", "--prime", "3", "--poly", "x^2", "--m", "1..6", "--format", "csv"],
        )
        lines = out.decode().splitlines()
        assert lines[0] == "m,abs_value,fitted_slope"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["1", "2", "3", "4", "5", "6"]
        for m, row in enumerate(rows, start=1):
            assert abs(float(row[1]) - 3 ** (-m / 2)) < 1e-9
        # x^2 over Z_3 has its critical point inside: certificate unavailable
        assert code == EXIT_CERTIFICATE

    def test_certificate_ok_on_shifted_ball(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            [
                "expsum",
                "--prime",
                "3",
                "--poly",
                "x^2+x+1",
                "--m",
                "2..6",
                "--ball",
                "ball 0 1",
            ],
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        cert = doc["results"]["certificate"]
        assert cert["status"] == "ok" and cert["I"] == 0 and cert["threshold"] == 3
        assert doc["results"]["decay_fit"]["status"] == "superpolynomial"

    @pytest.mark.parametrize("coeff", ["5", "0.5", "1j", "-1"])
    def test_a_weighted_ball_is_refused(self, tmp_path, coeff):
        # the integration domain is a set: a coefficient would be dropped
        code, out = run_cli(
            tmp_path,
            ["expsum", "--prime", "3", "--poly", "x^2", "--m", "1..2", "--ball", f"{coeff}*ball 0 0"],
        )
        assert (code, out) == (EXIT_VALIDATION, b"")

    def test_a_unit_coefficient_is_the_plain_ball(self, tmp_path):
        argv = ["expsum", "--prime", "3", "--poly", "x^2", "--m", "1..2", "--ball"]
        runs = [run_cli(tmp_path, argv + [ball]) for ball in ["1 * ball 1 1", "ball 1 1"]]
        assert [code for code, _ in runs] == [EXIT_OK, EXIT_OK]
        assert len({json.dumps(json.loads(out)["results"]) for _, out in runs}) == 1

    def test_an_irrational_critical_point_is_indeterminate(self, tmp_path):
        # f' = 3x^2 - 3^20 vanishes at +-3^(19/2), outside Q_3, yet has valuation
        # 1 + 2 v(x) up to 20 near 0: no class of depth 12 settles, none is Hensel's
        poly = "x^3-3486784401*x"
        code, out = run_cli(tmp_path, ["expsum", "--prime", "3", "--poly", poly, "--m", "1..4"])
        assert code == EXIT_OK
        assert json.loads(out)["results"]["certificate"] == {
            "status": "indeterminate",
            "reason": "gradient valuation did not stabilise within depth 12",
        }

    # -1/2 in Z_3 and a root of 3x^2 - 2 in Z_5 are no class centre; at depth 12
    # Hensel's lemma puts one in the class: 2c + 1 = 0 mod 3^12, 3c^2 - 2 = 0 mod 5^12
    @pytest.mark.parametrize("prime,poly,c", [("3", "x^2+x", 265720), ("5", "x^3-2*x", 174699547)])
    def test_a_critical_point_off_the_integers_is_unavailable(self, tmp_path, prime, poly, c):
        argv = ["expsum", "--prime", prime, "--poly", poly, "--m", "1..4"]
        code, out = run_cli(tmp_path, argv)
        assert code == EXIT_CERTIFICATE
        assert json.loads(out)["results"]["certificate"] == {
            "status": "unavailable",
            "reason": f"critical point detected in residue class ({c}) mod p^12",
        }

    def test_a_critical_line_is_indeterminate_within_the_class_budget(self, tmp_path):
        # x1 = -1/2 meets the ball for every x2: the search visited about 5^12
        # classes and did not finish within 60 s
        argv = ["expsum", "--prime", "5", "--poly", "4*x1^2+4*x1+x2-x2", "--m", "1..3",
                "--ball", "ball 2 0 1"]
        start = time.perf_counter()
        code, out = run_cli(tmp_path, argv)
        elapsed = time.perf_counter() - start
        doc = json.loads(out)["results"]
        assert code == EXIT_OK and doc["certificate"]["status"] == "indeterminate"
        assert "class search" in doc["certificate"]["reason"]
        assert [row["m"] for row in doc["table"]] == [1, 2, 3]
        assert elapsed < 2.0, elapsed

    def test_a_ball_of_radius_exponent_two_is_not_certified(self, tmp_path):
        argv = ["expsum", "--prime", "3", "--poly", "x^2", "--m", "1..4", "--ball", "ball 1 2"]
        code, out = run_cli(tmp_path, argv)
        cert = json.loads(out)["results"]["certificate"]
        assert code == EXIT_OK and cert["status"] == "not-applicable"
        assert "radius exponent" in cert["reason"]

    def test_a_histogram_past_the_limit_is_refused(self, tmp_path, capsys):
        # 3^13 residues at level 13: refused before the histogram is printed
        start = time.perf_counter()
        code = main(["expsum", "--prime", "3", "--poly", "x1*x2", "--m", "13..13"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_RESOURCE, "")
        assert "lower start of --m" in captured.err
        assert elapsed < 2.0, elapsed
        # 3^12 = 531441 residues are still printed in full
        code, out = run_cli(tmp_path, ["expsum", "--prime", "3", "--poly", "x1*x2", "--m", "12..12"])
        histogram = json.loads(out)["results"]["histogram"]
        assert code == EXIT_CERTIFICATE
        assert len(histogram) == 3**12 and sum(histogram.values()) == 3**24

    def test_histogram_included(self, tmp_path):
        _, out = run_cli(
            tmp_path, ["expsum", "--prime", "3", "--poly", "x^2", "--m", "2..3"]
        )
        doc = json.loads(out)
        assert doc["results"]["histogram_level"] == 2
        assert doc["results"]["histogram"] == {"0": 3, "1": 2, "4": 2, "7": 2}


    @pytest.mark.parametrize(
        "argv, levels",
        [(["--prime", "3", "--poly", "x1*x2", "--m", "9..9"], [9]),
         (["--prime", "7", "--poly", "x^3", "--m", "1..10"], range(1, 11))],
        ids=["x1*x2-p3-m9", "x^3-p7-m1..10"],
    )
    def test_the_cap_counts_the_grid_scanned(self, tmp_path, capsys, argv, levels):
        # both once passed the default cap by their box points alone
        code, out = run_cli(tmp_path, ["expsum", *argv])
        assert code in (EXIT_OK, EXIT_CERTIFICATE)
        table = json.loads(out)["results"]["table"]
        assert [row["m"] for row in table] == list(levels)
        if argv[3] == "x1*x2":  # E(3^-9) = 3^-9: the y sum vanishes unless x = 0 mod 3^9
            assert abs(complex(*table[0]["value"]) - 3**-9) <= 1e-15
            # the value, and then the histogram's count vectors, each refused one
            # short of its own work
            for need in (x1_x2_work(9), x1_x2_count_work(9)):
                capsys.readouterr()
                assert run_cli(tmp_path, ["expsum", *argv, "--cap", str(need - 1)])[0] == EXIT_RESOURCE
                assert f"enumeration of {need} mesh points" in capsys.readouterr().err
            assert run_cli(tmp_path, ["expsum", *argv, "--cap", str(need)])[0] == code

    @pytest.mark.parametrize("m", [3000, 10000])
    def test_a_deep_level_ends_in_an_exit_code(self, tmp_path, capsys, m):
        # thousands of nodes deep, with residues of 4755 and 15850 bits: the value
        # is computed (it underflows to 0j), and only the histogram at 3^m is
        # refused, its modulus written by its power of two (3^10000 has more
        # digits than Python converts to text)
        argv = ["expsum", "--prime", "3", "--poly", "x^3", "--m", f"{m}..{m}"]
        code, _ = run_cli(tmp_path, argv)
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_RESOURCE) and "Traceback" not in err
        bits = (3**m).bit_length() - 1
        assert code == EXIT_OK or (
            f"more than 2^{bits} residue classes exceeds the cap of 2147483647" in err
        )

    def test_one_nonzero_sample_is_too_few_for_a_fit(self, tmp_path):
        # x1^2*x2^2 at m = 16 is checked on the library's decay_fit: its
        # histogram at 3^16 takes a minute
        code, out = run_cli(tmp_path, ["expsum", "--prime", "3", "--poly", "x^2", "--m", "5..5"])
        assert code == EXIT_CERTIFICATE
        fit = json.loads(out)["results"]["decay_fit"]
        assert fit["status"] == "too_few_samples" and fit["slope"] is None
        assert math.isclose(fit["samples"][0][1], 3**-2.5, rel_tol=1e-12)

    def test_five_squares_are_fitted_and_an_oversized_facet_search_exits_3(self, tmp_path, capsys):
        five = ["expsum", "--prime", "3", "--poly", "x1^2+x2^2+x3^2+x4^2+x5^2", "--m", "1..2"]
        code, out = run_cli(tmp_path, five)
        assert code == EXIT_CERTIFICATE
        assert json.loads(out)["results"]["decay_fit"]["beta"] == "5/2"
        # decay_fit refuses the facet search after the sums, which --cap bounds
        capsys.readouterr()
        argv = ["expsum", "--prime", "3", "--poly", DEGREE_SIX_IN_FOUR, "--m", "1..2"]
        code, out = run_cli(tmp_path, argv, name="refused.bin")
        assert (code, out) == (EXIT_RESOURCE, b"")
        assert "932755600 facet search units" in capsys.readouterr().err

    def test_six_squares_reach_their_newton_exponent(self, tmp_path):
        six = ["--prime", "3", "--poly", "x1^2+x2^2+x3^2+x4^2+x5^2+x6^2"]
        code, out = run_cli(tmp_path, ["expsum", *six, "--m", "1..30"])
        fit = json.loads(out)["results"]["decay_fit"]
        assert code == EXIT_CERTIFICATE
        assert (fit["beta"], fit["consistent"]) == ("3", True)
        code, out = run_cli(tmp_path, ["newton", *six])
        doc = json.loads(out)["results"]
        assert code == EXIT_OK
        assert (doc["beta"], len(doc["facets"]), doc["mod_p_verdict"]) == ("3/1", 7, "certified")


class TestSurfaceCommand:
    def test_csv_schema(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            ["surface", "--prime", "3", "--phi", "x^2", "--k", "1..5", "--format", "csv"],
        )
        assert code == EXIT_OK
        lines = out.decode().splitlines()
        assert lines[0] == "k,abs_value,fitted_slope"
        assert len(lines) == 6

    def test_restriction_requires_seed(self, tmp_path):
        code, _ = run_cli(
            tmp_path,
            ["surface", "--prime", "3", "--phi", "x^2", "--rho", "1.2"],
        )
        assert code == EXIT_VALIDATION

    def test_seed_requires_restriction(self, tmp_path):
        argv = ["surface", "--prime", "3", "--phi", "x^2", "--seed", "1"]
        assert run_cli(tmp_path, argv) == (EXIT_VALIDATION, b"")

    def test_restriction_at_a_large_rho(self, tmp_path):
        argv = ["surface", "--prime", "3", "--phi", "x^2", "--k", "1..2", "--rho", "1000", "--seed", "1"]
        code, out = run_cli(tmp_path, argv)
        assert code == EXIT_OK
        ratios = json.loads(out)["results"]["restriction"]["ratios"]
        assert all(math.isfinite(r) and r > 0 for r in ratios)

    def test_restriction_with_seed(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            [
                "surface",
                "--prime",
                "3",
                "--phi",
                "x^2",
                "--k",
                "1..3",
                "--rho",
                "1.2",
                "--seed",
                "7",
            ],
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        rest = doc["results"]["restriction"]
        assert len(rest["ratios"]) == 10 and rest["sup"] >= max(rest["ratios"]) - 1e-15
        assert doc["results"]["zeta_check"]["max_diff"] < 1e-9


class TestEachSumEvaluatedOnce:
    """The table, the decay fit and the certificate read one evaluation per level."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        original = expsums.character_sum

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # surface holds its own reference to the engine entry point
        monkeypatch.setattr(expsums, "character_sum", counting)
        monkeypatch.setattr(surface, "character_sum", counting)
        return calls

    @pytest.mark.parametrize(
        "argv, levels",
        [
            (["expsum", "--prime", "3", "--poly", "x^2", "--m", "1..6"], 6),
            (
                ["expsum", "--prime", "3", "--poly", "x^2", "--ball", "ball 1 1", "--m", "1..6"],
                6,
            ),
        ],
    )
    def test_one_evaluation_per_level(self, tmp_path, evaluations, argv, levels):
        run_cli(tmp_path, argv)
        assert len(evaluations) == levels

    def test_a_surface_table_builds_one_lattice_form(self, tmp_path, evaluations, monkeypatch):
        # the transform is linear in xi: every level scales the one lattice form
        forms, build = [], expsums.lattice_form
        monkeypatch.setattr(expsums, "lattice_form", lambda *args: forms.append(args) or build(*args))
        assert run_cli(tmp_path, ["surface", "--prime", "7", "--phi", "x^3", "--k", "1..6"])[0] == EXIT_OK
        assert len(forms) == 1 and evaluations == []

    def test_certificate_verifies_only_the_tabulated_levels(self, tmp_path, evaluations):
        code, out = run_cli(
            tmp_path,
            ["expsum", "--prime", "3", "--poly", "x^2", "--ball", "ball 1 1", "--m", "4..6"],
        )
        assert code == EXIT_OK
        assert len(evaluations) == 3
        cert = json.loads(out)["results"]["certificate"]
        assert cert["status"] == "ok" and cert["verified_levels"] == [4, 5, 6]


    def test_a_table_scans_each_distinct_block_once(self, tmp_path, monkeypatch):
        scans, nodes = [], []
        counts, edges = expsums._counts, expsums._edges
        monkeypatch.setattr(expsums, "_counts", lambda *args: scans.append(args[1]) or counts(*args))
        monkeypatch.setattr(expsums, "_edges", lambda *args: nodes.append(args[:3]) or edges(*args))
        argv = ["expsum", "--prime", "5", "--poly", "x1^2+4*x2^3", "--m", "1..8"]
        assert run_cli(tmp_path, argv)[0] == EXIT_CERTIFICATE
        # the eight levels of both blocks are nodes of one walk, each expanded
        # once, and the histogram at m = 1 reads each block's level-1 node once more;
        # a node's coefficients lie in (-5^m/2, 5^m/2], so 4 y^3 is -y^3 at level 1
        blocks = ((((2,), 1),), (((3,), 4),))
        level_one = ((((2,), 1),), (((3,), -1),))
        assert {(5, local, m) for local in blocks for m in range(2, 9)} <= set(nodes)
        assert sorted(node for node in set(nodes) if nodes.count(node) > 1) == [(5, local, 1) for local in level_one]
        assert max(map(nodes.count, nodes)) == 2
        assert [tuple(local) for local in scans] == list(level_one)

    SURFACE = ["surface", "--prime", "7", "--phi", "x^3", "--k", "1..7"]

    def test_a_surface_table_expands_each_node_once(self, tmp_path, monkeypatch):
        nodes, edges = [], expsums._edges
        monkeypatch.setattr(expsums, "_edges", lambda *args: nodes.append(args[:3]) or edges(*args))
        assert run_cli(tmp_path, self.SURFACE)[0] == EXIT_OK
        # level k reaches level k - 3 through its stationary class 0: the
        # seven levels are seven nodes of one walk
        assert len(nodes) == len(set(nodes)) == 7

    @pytest.mark.parametrize(
        "argv",
        [["surface", "--prime", "7", "--phi", "3*x^3", "--k", "1..20"],
         ["expsum", "--prime", "5", "--poly", "x^3+x^4", "--m", "1..30"]],
        ids=["surface-3x^3-p7", "expsum-x^3+x^4-p5"],
    )
    def test_each_node_polynomial_is_expanded_once(self, tmp_path, monkeypatch, argv):
        nodes, expanded = [], []
        edges, compose = expsums._edges, expsums.compose_affine
        monkeypatch.setattr(expsums, "_edges", lambda *args: nodes.append(args[:3]) or edges(*args))
        monkeypatch.setattr(expsums, "compose_affine", lambda *args: expanded.append(args) or compose(*args))
        assert run_cli(tmp_path, argv)[0] in (EXIT_OK, EXIT_CERTIFICATE)
        # one expansion per stationary class of each distinct node polynomial of
        # level 2 or more, whatever the number of levels it appears at
        p, polys = nodes[0][0], {h for _, h, k in nodes if k > 1}
        classes = 0
        for h in polys:
            d = len(h[0][0])
            grad = SparsePolynomial.from_terms(d, dict(h)).gradient()
            classes += sum(all(g.evaluate(a) % p == 0 for g in grad) for a in product(range(p), repeat=d))
        assert len(expanded) == classes
        assert len(polys) < len({node for node in nodes if node[2] > 1})

    @pytest.mark.parametrize(
        "argv, required",
        [(["expsum", "--prime", "5", "--poly", "x^3+x^4", "--m", "1..30", "--cap", "100000"], 102700),
         (["expsum", "--prime", "3", "--poly", "x1^2*x2^2", "--m", "1..12", "--cap", "1000000"], 1000413),
         (["expsum", "--prime", "3", "--poly", "x1^2+x2^2+x3^2", "--m", "1..10", "--cap", "20000"], 21108),
         (["surface", "--prime", "7", "--phi", "3*x^3", "--k", "1..20", "--cap", "20000"], 21312)],
        ids=["x^3+x^4-p5", "x1^2*x2^2-p3", "3squares-p3", "surface-3x^3-p7"],
    )
    def test_a_reused_expansion_is_charged_as_if_made(self, tmp_path, capsys, argv, required):
        # the work at refusal is that of a walk that expands every node afresh
        assert run_cli(tmp_path, argv)[0] == EXIT_RESOURCE
        assert f"enumeration of {required} mesh points and node charges" in capsys.readouterr().err

    def test_a_surface_table_counts_its_work_against_one_cap(self, tmp_path, monkeypatch):
        totals, charge = [], expsums._charge

        def recording(work, *args):
            charge(work, *args)
            totals.append(work[0])

        monkeypatch.setattr(expsums, "_charge", recording)
        assert run_cli(tmp_path, self.SURFACE)[0] == EXIT_OK
        monkeypatch.undo()
        work = totals[-1]
        assert run_cli(tmp_path, self.SURFACE + ["--cap", str(work - 1)], "low.bin")[0] == EXIT_RESOURCE
        assert run_cli(tmp_path, self.SURFACE + ["--cap", str(work)], "at.bin")[0] == EXIT_OK
        # each level alone fits below the table's work: the cap counts them together
        Y = surface.GraphHypersurface(parse_polynomial("x^3"), Ball.of(7, [0, 0], 0))
        for k in range(1, 8):
            surface.surface_ft(Y, (0, Fraction(1, 7**k)), cap=work - 1)


class TestSolveCommand:
    def test_solve_fields(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            ["solve", "--prime", "3", "--phi", "x^2", "--f0", "ball 0 0"],
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        res = doc["results"]
        assert res["freq_bound"] == 0 and res["phase_bound"] == 0
        u0 = next(s for s in res["u_samples"] if s["x"] == "0" and s["t"] == "0")
        assert abs(u0["value"][0] - 1.0) < 1e-12
        assert all(w["abs"] < 1e-12 for w in res["windowed_spectrum"])

    def test_csv_has_one_row_per_u_sample(self, tmp_path):
        argv = ["solve", "--prime", "3", "--phi", "x^2", "--f0", "ball 0 0"]
        code, out = run_cli(tmp_path, argv + ["--format", "csv"], name="out.csv")
        _, doc = run_cli(tmp_path, argv)
        samples = json.loads(doc)["results"]["u_samples"]
        lines = out.decode().splitlines()
        assert code == EXIT_OK and lines[0] == "x,t,re,im"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == len(samples) > 0
        for (x, t, re, im), s in zip(rows, samples):
            assert (x, t, float(re), float(im)) == (s["x"], s["t"], *s["value"])

    def test_each_level_tiled_once(self, tmp_path, monkeypatch):
        levels, original = [], wave._freq_cells

        def recording(spec, level, cap):
            levels.append(level)
            return original(spec, level, cap)

        monkeypatch.setattr(wave, "_freq_cells", recording)
        code, _ = run_cli(
            tmp_path,
            ["solve", "--prime", "3", "--phi", "x^2", "--f0", "ball 0 0", "--m", "1..3"],
        )
        assert code == EXIT_OK
        # 16 solve_u and 25 windowed_spectrum calls share these levels
        assert len(levels) == len(set(levels)) >= 3

    def test_values_near_the_float_limit_stay_finite(self, tmp_path):
        # the cell sums of 1e308 overflow unless they are scaled first
        argv = ["solve", "--prime", "3", "--phi", "x^2", "--f0"]
        code, out = run_cli(tmp_path, argv + ["1e308 * ball 0 0"])
        assert code == EXIT_OK
        assert b"NaN" not in out and b"Infinity" not in out
        res = json.loads(out)["results"]
        small = run_cli(tmp_path, argv + ["1e307 * ball 0 0"], "small.bin")[1]
        small = json.loads(small)["results"]
        for big, ref in zip(res["u_samples"], small["u_samples"]):
            assert abs(big["abs"] - 10 * ref["abs"]) <= 1e-12 * 1e308
        assert all(w["abs"] == 0 for w in res["windowed_spectrum"])


    def test_a_spectrum_past_the_float_range_is_computed(self):
        # F f0 = 3e308 on 3Z_3: the spectrum is taken of f0 / 2 and scaled back,
        # with no warning on stderr
        src = str(Path(padic_dispersion.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "padic_dispersion.cli", "solve", "--prime", "3",
             "--phi", "x^2", "--f0", "1e308 * ball 0 -1", "--m", "1..2"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=120,
        )
        assert (done.returncode, done.stderr) == (EXIT_OK, b"")
        samples = json.loads(done.stdout)["results"]["u_samples"]
        assert all(s["value"] == [1e308, 0.0] for s in samples if s["t"] == "0")
        assert all(math.isfinite(s["abs"]) for s in samples)

    def test_a_ball_past_the_modulus_limit_is_refused_before_its_volume(self, tmp_path, capsys):
        # 3^700 is past both the float range and the modulus limit 2^31
        code, out = run_cli(
            tmp_path, ["solve", "--prime", "3", "--phi", "x^2", "--f0", "1 * ball 0 -700"]
        )
        err = capsys.readouterr().err.splitlines()
        assert (code, out, len(err)) == (EXIT_RESOURCE, b"", 1)
        assert err[0].startswith("resource cap: ") and "ball index modulus" in err[0]


class TestStrichartzCommand:
    def test_a_norm_past_the_float_range_is_refused_alone(self):
        # the spectrum is scaled into range, and the norm over |x|, |t| <= 9
        # is not in it: exit 2 with the one error line
        src = str(Path(padic_dispersion.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "padic_dispersion.cli", "strichartz", "--prime", "3",
             "--phi", "x^2", "--sigma", "6", "--rmax", "2", "--f0", "1e308 * ball 0 -3"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=120,
        )
        assert (done.returncode, done.stdout) == (EXIT_VALIDATION, b"")
        assert done.stderr.decode().splitlines() == [
            "error: the norm leaves the float range at sigma = 6.0"
        ]

    def test_gauss_series(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            [
                "strichartz",
                "--prime",
                "3",
                "--phi",
                "x^2",
                "--sigma",
                "6",
                "--rmax",
                "4",
                "--f0",
                "ball 0 0",
            ],
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        res = doc["results"]
        assert res["converged"] and not res["diverged"]
        assert abs(res["rows"][0]["norm"] - 1.0) < 1e-12
        assert res["l2_f0"] == 1.0

    def test_csv_has_one_row_per_r(self, tmp_path):
        argv = ["strichartz", "--prime", "3", "--phi", "x^2", "--sigma", "6", "--rmax", "4",
                "--f0", "ball 0 0"]
        code, out = run_cli(tmp_path, argv + ["--format", "csv"], name="out.csv")
        _, doc = run_cli(tmp_path, argv)
        lines = out.decode().splitlines()
        assert code == EXIT_OK and lines[0] == "R,norm,ratio"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        want = json.loads(doc)["results"]["rows"]
        assert rows == [[r["R"], r["norm"], r["ratio"]] for r in want]
        assert [r[0] for r in rows] == [0, 1, 2, 3, 4]

    SCALED = ["strichartz", "--prime", "3", "--phi", "x^2", "--sigma", "2", "--rmax", "2",
              "--f0"]

    @pytest.mark.parametrize("coeff", ["1e200", "1e-200"])
    def test_extreme_coefficients_keep_the_unit_ratios(self, tmp_path, coeff):
        unit = json.loads(run_cli(tmp_path, self.SCALED + ["ball 0 0"])[1])["results"]
        code, out = run_cli(tmp_path, self.SCALED + [f"{coeff} * ball 0 0"])
        assert code == EXIT_OK
        res = json.loads(out)["results"]
        text = json.dumps(res)
        assert "NaN" not in text and "Infinity" not in text

        def close(a, b):
            return abs(a - b) <= 1e-12 * abs(b)

        assert all(close(r["ratio"], u["ratio"]) for r, u in zip(res["rows"], unit["rows"]))
        assert close(res["constant"], unit["constant"])
        assert all(close(a, b) for a, b in zip(res["increments"], unit["increments"]))
        assert (res["converged"], res["diverged"]) == (unit["converged"], unit["diverged"])

    TWO_D = ["strichartz", "--prime", "3", "--phi", "x1^2+x2^2", "--sigma", "4",
             "--f0", "ball 0 0 0", "--rmax", "3"]

    def test_two_dimensional_series(self, tmp_path):
        code, out = run_cli(tmp_path, self.TWO_D)
        assert code == EXIT_OK
        norms = [row["norm"] for row in json.loads(out)["results"]["rows"]]
        assert len(norms) == 4
        assert abs(norms[0] - 1.0) < 1e-12  # u = 1 on the unit box at t = 0
        assert all(b >= a - 1e-15 for a, b in zip(norms, norms[1:]))

    def test_two_dimensional_grid_over_the_cap(self, tmp_path):
        code, _ = run_cli(tmp_path, self.TWO_D + ["--cap", "10000"])
        assert code == EXIT_RESOURCE

    @pytest.mark.parametrize("coeff", ["1e-310", "1e-320"])
    def test_subnormal_coefficients_keep_the_unit_ratios(self, tmp_path, coeff):
        argv = ["strichartz", "--prime", "3", "--phi", "x^2", "--sigma", "6", "--rmax", "2",
                "--f0"]
        unit = json.loads(run_cli(tmp_path, argv + ["1 * ball 0 0"])[1])["results"]
        code, out = run_cli(tmp_path, argv + [f"{coeff} * ball 0 0"], "tiny.bin")
        assert code == EXIT_OK
        rows = json.loads(out)["results"]["rows"]
        assert rows[0]["ratio"] == 1.0
        assert all(abs(r["ratio"] - u["ratio"]) <= 1e-12 for r, u in zip(rows, unit["rows"]))

    UNIT = ["strichartz", "--prime", "3", "--phi", "x^2", "--rmax", "2", "--f0", "ball 0 0"]

    def test_a_zero_tail_has_converged(self, tmp_path):
        # |u| = 1 on the unit box: the sup-norm series stops growing at once
        code, out = run_cli(tmp_path, self.UNIT + ["--sigma", "inf"])
        assert code == EXIT_OK
        res = json.loads(out)["results"]
        assert res["increments"] == [0.0, 0.0]
        assert res["converged"] and not res["diverged"]

    def test_a_grid_near_the_float_limit_is_computed_or_refused(self, tmp_path, capsys):
        # the grid of 1e308 is finite; its L^2 norm over |t|, ||x|| <= 9 is 3e308
        argv = ["strichartz", "--prime", "3", "--phi", "x^2", "--sigma", "2",
                "--f0", "1e308 * ball 0 0", "--rmax"]
        code, out = run_cli(tmp_path, argv + ["1"])
        assert code == EXIT_OK and b"NaN" not in out and b"Infinity" not in out
        assert run_cli(tmp_path, argv + ["2"], name="refused.bin") == (EXIT_VALIDATION, b"")
        err = capsys.readouterr().err
        assert "float range" in err and "Traceback" not in err

    def test_a_norm_beyond_the_float_range_is_refused(self, tmp_path, capsys):
        # the power 1 / sigma = 1e300 of a sum above 1 overflows
        assert run_cli(tmp_path, self.UNIT + ["--sigma", "1e-300"]) == (EXIT_VALIDATION, b"")
        err = capsys.readouterr().err
        assert "sigma" in err and "Traceback" not in err


class TestValidationAndExitCodes:
    def test_bad_prime(self, tmp_path):
        assert run_cli(tmp_path, ["newton", "--prime", "6", "--poly", "x^2"])[0] == EXIT_VALIDATION

    def test_huge_prime_is_refused_at_once(self, tmp_path, capsys):
        argv = ["newton", "--prime", str(2**61 - 1), "--poly", "x"]
        start = time.perf_counter()
        code, _ = run_cli(tmp_path, argv)
        elapsed = time.perf_counter() - start
        assert code == EXIT_VALIDATION
        assert "2^31" in capsys.readouterr().err
        assert elapsed < 0.1, elapsed

    def test_a_composite_below_the_limit_is_refused_at_once(self, tmp_path):
        # 46337^2: trial division runs to its square root 46337
        argv = ["newton", "--prime", str(46337**2), "--poly", "x"]
        start = time.perf_counter()
        code, _ = run_cli(tmp_path, argv)
        elapsed = time.perf_counter() - start
        assert code == EXIT_VALIDATION
        assert elapsed < 0.1, elapsed

    def test_bad_polynomial(self, tmp_path):
        assert (
            run_cli(tmp_path, ["newton", "--prime", "3", "--poly", "x^^2"])[0]
            == EXIT_VALIDATION
        )

    def test_missing_required_flag(self, tmp_path):
        assert run_cli(tmp_path, ["expsum", "--prime", "3", "--poly", "x^2"])[0] == EXIT_VALIDATION

    def test_resource_cap(self, tmp_path):
        code, _ = run_cli(
            tmp_path,
            ["expsum", "--prime", "3", "--poly", "x^2", "--m", "1..12", "--cap", "100"],
        )
        assert code == EXIT_RESOURCE

    def test_huge_counts_end_in_an_exit_code(self, tmp_path, capsys):
        code, _ = run_cli(
            tmp_path,
            ["expsum", "--prime", "3", "--poly", "x1^2+0*x6", "--m", "12..12"],
        )
        assert code in (EXIT_VALIDATION, EXIT_RESOURCE, EXIT_CERTIFICATE)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["expsum", "--prime", "3", "--poly", "x^2", "--m=0..2"],
            ["surface", "--prime", "3", "--phi", "x^2", "--k=-1..2"],
            ["solve", "--prime", "3", "--phi", "x^2", "--f0", "ball 0 0", "--m=-2..1"],
        ],
        ids=["expsum", "surface", "solve"],
    )
    def test_levels_below_the_floor_are_refused(self, tmp_path, capsys, argv):
        code, _ = run_cli(tmp_path, argv)
        assert code == EXIT_VALIDATION
        assert "range must start at" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["strichartz", "--prime", "3", "--phi", "x^2", "--f0", "ball 0 0", "--rmax", "2",
             "--sigma"],
            ["surface", "--prime", "3", "--phi", "x^2", "--k", "1..2", "--seed", "1", "--rho"],
        ],
        ids=["sigma", "rho"],
    )
    def test_nan_exponent_is_refused_and_inf_accepted(self, tmp_path, capsys, argv):
        # the library refuses it, naming the exponent but not the flag
        assert run_cli(tmp_path, argv + ["nan"]) == (EXIT_VALIDATION, b"")
        assert argv[-1][2:] in capsys.readouterr().err
        code, out = run_cli(tmp_path, argv + ["inf"])  # the L^inf norm
        assert code == EXIT_OK and json.loads(out)["config"][argv[-1][2:]] == float("inf")

    @pytest.mark.parametrize("command", ["solve", "strichartz"])
    @pytest.mark.parametrize("coeff", ["nan", "inf", "-inf", "1+nanj"])
    def test_non_finite_f0_coefficient_is_refused(self, tmp_path, capsys, command, coeff):
        argv = [command, "--prime", "3", "--phi", "x^2", "--f0", f"{coeff}*ball 0 0", "--rmax", "2"]
        if command == "strichartz":
            argv += ["--sigma", "6"]
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite" in captured.err

    def test_solve_with_mismatched_dimension_is_refused(self, tmp_path, capsys):
        argv = ["solve", "--prime", "3", "--phi", "x1^2+x2^2", "--f0", "ball 0 0"]
        assert run_cli(tmp_path, argv) == (EXIT_VALIDATION, b"")
        assert "arity" in capsys.readouterr().err

    def test_level_zero_is_accepted(self, tmp_path):
        surface = ["surface", "--prime", "3", "--phi", "x^2", "--k", "0..2"]
        solve = ["solve", "--prime", "3", "--phi", "x^2", "--f0", "ball 0 0", "--m", "0..1"]
        assert run_cli(tmp_path, surface)[0] == EXIT_OK
        assert run_cli(tmp_path, solve)[0] == EXIT_OK

    def test_bad_ball_grammar(self, tmp_path):
        code, _ = run_cli(
            tmp_path,
            ["solve", "--prime", "3", "--phi", "x^2", "--f0", "sphere 0 0"],
        )
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--phi", "x^2", "--f0", "ball 1/0 0"], "bad rational '1/0'"),
            (["solve", "--phi", "x^2", "--f0", "ball 0 x"], "bad radius exponent 'x'"),
            (["solve", "--phi", "x^2", "--f0", " ; "], "empty ball list"),
            (["expsum", "--poly", "x^2", "--m", "1-4"], "bad range '1-4'; expected A..B"),
            (["expsum", "--poly", "x^2", "--m", "4..1"], "empty range '4..1'"),
            (["expsum", "--poly", "x^2", "--m", "1..4", "--ball", "ball 0 0; ball 1 1"],
             "the integration domain must be a single ball"),
            (["expsum", "--poly", "x^2", "--m", "1..4", "--ball", "ball 0 0 0"],
             "ball dimension 2 does not match the polynomial (1)"),
            (["expsum", "--poly", "x^2", "--m", "1..4", "--cap", "0"], "--cap must be positive"),
        ],
        ids=["rational", "radius", "empty-list", "range", "empty-range", "two-balls", "dimension",
             "cap"],
    )
    def test_bad_input_is_refused_before_any_output(self, capsys, argv, message):
        assert main([argv[0], "--prime", "3", *argv[1:]]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_a_bad_coefficient_is_quoted_without_its_spaces(self, capsys):
        argv = ["solve", "--prime", "3", "--phi", "x^2", "--f0", "abc * ball 0 0"]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", "error: bad coefficient 'abc'\n")

    def test_without_out_the_payload_goes_to_stdout(self, capsysbinary):
        argv = ["expsum", "--prime", "3", "--poly", "x^2+x+1", "--m", "1..3", "--ball", "ball 0 1"]
        payload, status = run(config_from_args(build_parser().parse_args(argv))[0])
        assert main(argv) == status == EXIT_OK
        assert capsysbinary.readouterr() == (payload, b"")


# a valid run of each command, and a valid value for each flag some command takes
COMMAND_ARGV = {
    "newton": ["--prime", "3", "--poly", "x^2"],
    "expsum": ["--prime", "3", "--poly", "x^2", "--m", "1..2"],
    "surface": ["--prime", "3", "--phi", "x^2", "--k", "1..2"],
    "solve": ["--prime", "3", "--phi", "x^2", "--f0", "ball 0 0"],
    "strichartz": ["--prime", "3", "--phi", "x^2", "--f0", "ball 0 0", "--sigma", "6", "--rmax", "1"],
}
FLAG_VALUES = {"poly": "x^2", "phi": "x^2", "f0": "ball 0 0", "ball": "ball 0 0", "m": "1..2",
               "k": "1..2", "rmax": "1", "sigma": "6", "rho": "1.2", "seed": "1"}
TAKES = {
    "newton": {"poly"},
    "expsum": {"poly", "m", "ball"},
    "surface": {"phi", "k", "rho", "seed"},
    "solve": {"phi", "f0", "m", "rmax"},
    "strichartz": {"phi", "f0", "sigma", "rmax"},
}
DROPPED = [(command, flag) for command in TAKES for flag in FLAG_VALUES if flag not in TAKES[command]]


@pytest.mark.parametrize("command, flag", DROPPED, ids=[f"{c}-{f}" for c, f in DROPPED])
def test_a_flag_the_command_does_not_read_is_refused(capsys, command, flag):
    assert len(DROPPED) == 34
    with pytest.raises(SystemExit) as exc:
        main([command, *COMMAND_ARGV[command], f"--{flag}", FLAG_VALUES[flag]])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (EXIT_VALIDATION, "")
    assert f"--{flag}" in captured.err


class TestDeterminism:
    JOBS = [
        ["expsum", "--prime", "5", "--poly", "x1^2+x2^3", "--m", "1..5"],
        ["newton", "--prime", "3", "--poly", "x1^2+x2^3"],
        ["surface", "--prime", "7", "--phi", "x^3", "--k", "1..4"],
        ["strichartz", "--prime", "3", "--phi", "x^2", "--sigma", "6", "--rmax", "3", "--f0", "ball 0 0"],
        ["solve", "--prime", "3", "--phi", "x^2", "--f0", "ball 0 1"],
    ]

    @pytest.mark.parametrize("job", JOBS, ids=[j[0] for j in JOBS])
    def test_byte_identical_across_threads(self, tmp_path, job):
        _, a = run_cli(tmp_path, job + ["--threads", "1"])
        _, b = run_cli(tmp_path, job + ["--threads", "4"])
        assert a == b

    def test_byte_identical_rerun(self, tmp_path):
        job = self.JOBS[0]
        _, a = run_cli(tmp_path, job)
        _, b = run_cli(tmp_path, job)
        assert a == b

    def test_byte_identical_across_processes_threads_and_blas_threads(self):
        # exp sums, the zeta check, the cell sums of solve_u and the grid are
        # evaluated by fixed-order numpy sums and FFTs, never through BLAS,
        # and phase residues are integers, so neither --threads nor the
        # BLAS thread count reaches the output.  The second solve job sums
        # 5^8 cells, long enough for OpenBLAS to split a dot across threads
        jobs = [
            ["expsum", "--prime", "3", "--poly", "x1^2+x1*x2+x2^3", "--m", "1..8"],
            # the stationary-point sums of a level the box count once refused
            ["expsum", "--prime", "7", "--poly", "x^3", "--m", "1..10"],
            # two distinct blocks on a ball off the origin, evaluated in one joint scan
            ["expsum", "--prime", "5", "--poly", "x1^2+4*x2^3", "--ball", "ball 1 1 1",
             "--m", "1..8"],
            ["surface", "--prime", "3", "--phi", "x1^2+2*x2^2", "--k", "1..6"],
            ["solve", "--prime", "3", "--phi", "x^2", "--f0", "1+2j * ball 0 1; ball 1/3 0"],
            ["solve", "--prime", "5", "--phi", "x1^2+x2^2", "--f0", "(0.3+0.7j) * ball 0 0 1",
             "--m", "1..2"],
            ["strichartz", "--prime", "3", "--phi", "x1^2+x2^2", "--sigma", "6", "--rmax", "2",
             "--f0", "ball 0 0 0"],
        ]
        src = str(Path(padic_dispersion.__file__).resolve().parents[1])
        for job in jobs:
            outputs = set()
            for threads, blas in product("12", "12"):
                env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": blas}
                done = subprocess.run(
                    [sys.executable, "-m", "padic_dispersion.cli", *job, "--threads", threads],
                    env=env, capture_output=True, timeout=120,
                )
                outputs.add((done.returncode, done.stdout))
            assert len(outputs) == 1, job
            ((code, stdout),) = outputs
            assert code in (EXIT_OK, EXIT_CERTIFICATE) and json.loads(stdout)["results"], job

    def test_env_thread_count(self, tmp_path):
        job = self.JOBS[0]
        _, a = run_cli(tmp_path, job)
        _, b = run_cli(tmp_path, job + ["--threads", "3"])
        assert a == b
        code, _ = run_cli(tmp_path, job + ["--threads", "0"])
        assert code == EXIT_VALIDATION


class TestConfigRoundTrip:
    def test_emitted_config_parses_back(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            ["expsum", "--prime", "3", "--poly", "x^2", "--m", "1..3"],
        )
        doc = json.loads(out)
        cfg = config_from_dict(doc["config"])
        assert cfg.command == "expsum"
        assert cfg.prime == 3
        assert cfg.m_range == (1, 3)
        assert config_from_dict(cfg.to_dict()) == cfg

    @given(
        st.sampled_from(["newton", "expsum", "surface", "solve", "strichartz"]),
        st.sampled_from([2, 3, 5, 7]),
        st.one_of(st.none(), st.tuples(st.integers(1, 3), st.integers(3, 8))),
        st.one_of(st.none(), st.integers(0, 5)),
        st.one_of(st.none(), st.floats(min_value=2.1, max_value=10)),
        st.integers(min_value=1, max_value=10**9),
    )
    def test_round_trip_property(self, command, prime, m_range, rmax, sigma, cap):
        cfg = JobConfig(
            command=command,
            prime=prime,
            poly="x^2",
            m_range=m_range,
            rmax=rmax,
            sigma=sigma,
            cap=cap,
        )
        assert config_from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


class TestHelpers:
    def test_empty_table_keeps_header(self):
        from padic_dispersion.cli import emit

        cfg = JobConfig(command="strichartz", prime=3, phi="x^2", sigma=6.0, format="csv")
        payload = emit(cfg, {"rows": []})
        assert payload.decode() == "R,norm,ratio\n"

    def test_frac_str(self):
        assert frac_str(Fraction(5, 6)) == "5/6"
        assert frac_str(Fraction(1), always_den=True) == "1/1"
        assert frac_str(Fraction(2)) == "2"

    def test_ball_grammar(self):
        terms = parse_ball_list("ball 0 0; 0.5+0j * ball 1/3 0 1", 3)
        assert len(terms) == 2
        ball0, c0 = terms[0]
        assert ball0.dim == 1 and ball0.radius_exp == 0 and c0 == 1
        ball1, c1 = terms[1]
        assert ball1.dim == 2 and ball1.radius_exp == 1
        assert ball1.center_fractions() == (Fraction(1, 3), Fraction(0))
        assert c1 == 0.5


def readme_examples() -> list[list[str]]:
    """Every `padic-dispersion ...` line of the README's examples block."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line)[1:] for line in block.splitlines() if line.startswith("padic-dispersion ")
    ]


@pytest.mark.parametrize("argv", readme_examples(), ids=lambda argv: argv[0])
def test_readme_example_runs(tmp_path, argv):
    code, data = run_cli(tmp_path, argv)
    # x^2 has a critical point in Z_3: the documented certificate is unavailable
    assert code == (EXIT_CERTIFICATE if argv[0] == "expsum" else EXIT_OK)
    assert data
