import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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


class TestValidationAndExitCodes:
    def test_bad_prime(self, tmp_path):
        assert run_cli(tmp_path, ["newton", "--prime", "6", "--poly", "x^2"])[0] == EXIT_VALIDATION

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
