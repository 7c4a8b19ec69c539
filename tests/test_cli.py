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

import padic_dispersion
from padic_dispersion import expsums, surface, wave
from padic_dispersion.cli import (
    EXIT_CERTIFICATE,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VALIDATION,
    JobConfig,
    frac_str,
    main,
    parse_ball_list,
)


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

    def test_histogram_included(self, tmp_path):
        _, out = run_cli(
            tmp_path, ["expsum", "--prime", "3", "--poly", "x^2", "--m", "2..3"]
        )
        doc = json.loads(out)
        assert doc["results"]["histogram_level"] == 2
        assert doc["results"]["histogram"] == {"0": 3, "1": 2, "4": 2, "7": 2}


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
            (["surface", "--prime", "7", "--phi", "x^3", "--k", "1..6"], 6),
        ],
    )
    def test_one_evaluation_per_level(self, tmp_path, evaluations, argv, levels):
        run_cli(tmp_path, argv)
        assert len(evaluations) == levels

    def test_certificate_verifies_only_the_tabulated_levels(self, tmp_path, evaluations):
        code, out = run_cli(
            tmp_path,
            ["expsum", "--prime", "3", "--poly", "x^2", "--ball", "ball 1 1", "--m", "4..6"],
        )
        assert code == EXIT_OK
        assert len(evaluations) == 3
        cert = json.loads(out)["results"]["certificate"]
        assert cert["status"] == "ok" and cert["verified_levels"] == [4, 5, 6]


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


class TestStrichartzCommand:
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
        argv = [command, "--prime", "3", "--phi", "x^2", "--f0", f"{coeff}*ball 0 0",
                "--sigma", "6", "--rmax", "2"]
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
        # sums are evaluated by einsum and plain sums, never through BLAS, so
        # neither --threads nor the BLAS thread count reaches the output
        jobs = [
            ["expsum", "--prime", "3", "--poly", "x1^2+x1*x2+x2^3", "--m", "1..8"],
            ["surface", "--prime", "3", "--phi", "x1^2+2*x2^2", "--k", "1..6"],
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

    def test_env_thread_count(self, tmp_path, monkeypatch):
        job = self.JOBS[0]
        _, a = run_cli(tmp_path, job)
        monkeypatch.setenv("PADIC_THREADS", "3")
        _, b = run_cli(tmp_path, job)
        assert a == b
        monkeypatch.setenv("PADIC_THREADS", "0")
        code, _ = run_cli(tmp_path, job)
        assert code == EXIT_VALIDATION


class TestConfigRoundTrip:
    def test_emitted_config_parses_back(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            ["expsum", "--prime", "3", "--poly", "x^2", "--m", "1..3", "--seed", "5"],
        )
        doc = json.loads(out)
        cfg = JobConfig.from_dict(doc["config"])
        assert cfg.command == "expsum"
        assert cfg.prime == 3
        assert cfg.m_range == (1, 3)
        assert JobConfig.from_dict(cfg.to_dict()) == cfg

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
        assert JobConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


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
