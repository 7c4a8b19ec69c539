import json
import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import cycle, permutations

import pytest

from helpers import (
    compact_facets,
    echelon_rank,
    oracle_compact_facets,
    oracle_faces,
    oracle_facets,
    oracle_quasi_homogeneous,
    oracle_verdict,
)
from padic_dispersion import newton
from padic_dispersion.cli import EXIT_CERTIFICATE, EXIT_OK, main
from padic_dispersion.errors import DomainError
from padic_dispersion.newton import (
    beta_and_t0,
    determinant,
    face_polynomials,
    newton_facets,
    nondegeneracy_mod_p,
    quasi_homogeneous_detect,
    support,
)
from padic_dispersion.polynomials import SparsePolynomial, parse_polynomial


def compact(P):
    return {(f.normal, f.support_value) for f in compact_facets(P)}


def verdict(f, p):
    return nondegeneracy_mod_p(f, newton_facets(f), p)


def detect(f):
    return quasi_homogeneous_detect(newton_facets(f))


class TestSupport:
    def test_examples(self):
        assert support(parse_polynomial("x1^2+x2^2")) == {(2, 0), (0, 2)}
        assert support(parse_polynomial("x^3")) == {(3,)}
        assert support(parse_polynomial("x1^2+x2^3")) == {(2, 0), (0, 3)}

    def test_rejects_constant_and_nonvanishing(self):
        with pytest.raises(DomainError):
            support(parse_polynomial("x^2+1"))
        with pytest.raises(DomainError):
            support(parse_polynomial("7"))


class TestFacets:
    def test_two_squares(self):
        P = newton_facets(parse_polynomial("x1^2+x2^2"))
        assert compact(P) == {((1, 1), 2)}
        coord = {f.normal for f in P.facets if 0 in f.normal}
        assert coord == {(1, 0), (0, 1)}

    def test_mixed(self):
        P = newton_facets(parse_polynomial("x1^2+x2^3"))
        facet = next(f for f in compact_facets(P))
        assert (facet.normal, facet.support_value, facet.weight) == ((3, 2), 6, 5)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_monomial(self, d):
        P = newton_facets(parse_polynomial(f"x^{d}"))
        assert [(f.normal, f.support_value, f.weight) for f in P.facets] == [((1,), d, 1)]

    @pytest.mark.parametrize(
        "text",
        [
            "x1^2+x2^2",
            "x1^2+x2^3",
            "x1^2*x2 + x1*x2^3",
            "x1^3*x2 + x1*x2^3",
            "x1^4 + x1*x2 + x2^4",
            "x1^2 + x2^2 + x3^2",
            "x1^2 + x2^3 + x3^4",
            "x1*x2 + x3^3",
            "x1^6 + x2^2",
        ],
    )
    def test_h_description_oracle(self, text):
        f = parse_polynomial(text)
        assert compact(newton_facets(f)) == oracle_compact_facets(f)

    def test_h_side_of_every_support_point(self):
        f = parse_polynomial("x1^3*x2 + x1*x2^3 + x2^5")
        P = newton_facets(f)
        for facet in P.facets:
            for pt in P.support:
                assert sum(a * l for a, l in zip(facet.normal, pt)) >= facet.support_value

    def test_variable_cap(self):
        with pytest.raises(DomainError):
            newton_facets(parse_polynomial("x1+x2+x3+x4+x5"))

    def test_every_facet_matches_the_box_scan(self):
        # exponents shrink as variables are added, so the oracle's box stays small
        kinds = Counter()
        for f in random_vanishing_polynomials(31, 300, degrees=(4, 4, 3, 2)):
            P = newton_facets(f)
            got = [(fc.normal, fc.support_value, fc.vertices) for fc in P.facets]
            assert len(set(got)) == len(got) and set(got) == oracle_facets(f), f
            assert [fc.normal for fc in P.facets] == sorted(fc.normal for fc in P.facets)
            assert all(fc.weight == sum(fc.normal) for fc in P.facets)
            kinds[f.nvars] += 1
            kinds["coordinate"] += any(a.count(0) == f.nvars - 1 for a, _, _ in got)
            kinds["m(a) = 0"] += any(mval == 0 for _, mval, _ in got)
            kinds["several vertices"] += any(len(on) > 1 for _, _, on in got)
        assert min(kinds[m] for m in (1, 2, 3, 4)) >= 60
        assert min(kinds[k] for k in ("coordinate", "m(a) = 0", "several vertices")) >= 100


class TestBetaT0:
    def test_values(self):
        cases = {
            "x1^2+x2^2": (Fraction(1), (Fraction(1), Fraction(1))),
            "x1^2+x2^3": (Fraction(5, 6), (Fraction(6, 5), Fraction(6, 5))),
            "x^2": (Fraction(1, 2), (Fraction(2),)),
            "x^5": (Fraction(1, 5), (Fraction(5),)),
        }
        for text, (beta, t0) in cases.items():
            got_beta, got_t0 = beta_and_t0(newton_facets(parse_polynomial(text)))
            assert got_beta == beta and got_t0 == t0

    def test_t0_on_boundary(self):
        for text in ("x1^2+x2^2", "x1^2+x2^3", "x1^2*x2 + x1*x2^3"):
            P = newton_facets(parse_polynomial(text))
            beta, t0 = beta_and_t0(P)
            tight = 0
            for facet in P.facets:
                val = sum(a * t for a, t in zip(facet.normal, t0))
                assert val >= facet.support_value
                tight += val == facet.support_value
            assert tight >= 1

    def test_interior_monomial_is_invisible(self):
        base = parse_polynomial("x1^2+x2^3")
        fat = parse_polynomial("x1^2+x2^3+x1*x2^2")  # (1,2) interior: 3+4 > 6? no: on!
        # (1,2) gives <(3,2),(1,2)> = 7 > 6 and coordinates 1,2 > 0: interior
        P0, P1 = newton_facets(base), newton_facets(fat)
        assert {f.normal for f in P0.facets} == {f.normal for f in P1.facets}
        assert beta_and_t0(P0)[0] == beta_and_t0(P1)[0]


class TestQuasiHomogeneity:
    def test_homogeneous(self):
        w = detect(parse_polynomial("x1^2+x2^2"))
        assert (w.alpha, w.degree) == ((1, 1), 2)

    def test_weighted(self):
        w = detect(parse_polynomial("x1^2+x2^3"))
        assert (w.alpha, w.degree) == ((3, 2), 6)

    def test_none(self):
        assert detect(parse_polynomial("x1^2+x2^2+x1*x2^3")) is None

    @pytest.mark.parametrize(
        "text",
        ["x1^2+x2^2", "x1^2+x2^3", "x^4", "x1^3*x2 + x1*x2^3", "x1^4+x1^2*x2^2+x2^4"],
    )
    def test_witness_matches_beta(self, text):
        f = parse_polynomial(text)
        w = detect(f)
        if w is None:
            return
        beta, _ = beta_and_t0(newton_facets(f))
        assert Fraction(sum(w.alpha), w.degree) == beta

    def test_degenerate_monomial_weight_is_lex_minimal(self):
        # x1^2*x2 has a 2-parameter weight family; the lex rule picks (1,1).
        # Its critical set is the union of the axes, so the sharp
        # quasi-homogeneous decay regime (and the beta identity) does not
        # apply; beta_and_t0 still reports the polyhedron exponent 1/2.
        f = parse_polynomial("x1^2*x2")
        w = detect(f)
        assert (w.alpha, w.degree) == ((1, 1), 3)
        assert beta_and_t0(newton_facets(f))[0] == Fraction(1, 2)


class TestFacePolynomials:
    def test_two_squares_compact_facet(self):
        f = parse_polynomial("x1^2+x2^2")
        faces = face_polynomials(f, newton_facets(f))
        polys = {fp for _, fp in faces}
        assert parse_polynomial("x1^2+x2^2") in polys
        assert parse_polynomial("x1^2", nvars=2) in polys
        assert parse_polynomial("x2^2", nvars=2) in polys

    def test_vertex_of_mixed(self):
        f = parse_polynomial("x1^2+x2^3")
        faces = face_polynomials(f, newton_facets(f))
        vertex_faces = [fp for face, fp in faces if face.dim == 0]
        assert parse_polynomial("x1^2", nvars=2) in vertex_faces
        assert parse_polynomial("x2^3", nvars=2) in vertex_faces
        full = [fp for face, fp in faces if len(face.support_points) == 2]
        assert full == [f]

    def test_faces_are_proper_and_unique(self):
        f = parse_polynomial("x1^2 + x2^3 + x3^4")
        P = newton_facets(f)
        faces = face_polynomials(f, P)
        keys = [(face.support_points, face.rays) for face, _ in faces]
        assert len(keys) == len(set(keys))
        assert all(face.dim <= P.dim - 1 for face, _ in faces)


def random_vanishing_polynomials(seed: int, count: int, degrees=(4, 4, 3, 3)):
    """Seeded polynomials in 1-4 variables with 1-6 terms; each exponent of a
    polynomial in m variables is at most degrees[m - 1]."""
    rng = random.Random(seed)
    while count:
        m = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = tuple(rng.randint(0, degrees[m - 1]) for _ in range(m))
            if sum(exps):
                terms[exps] = rng.randint(1, 6)
        if terms:
            count -= 1
            yield SparsePolynomial.from_terms(m, terms)


def convex_chain(edges: int) -> SparsePolynomial:
    """sum of x1^a x2^b over the vertices of a chain of `edges` primitive
    edges of distinct slopes; its polygon has edges + 2 facets."""
    directions = sorted(
        ((dx, dy) for dx in range(1, 6) for dy in range(1, 6) if math.gcd(dx, dy) == 1),
        key=lambda v: Fraction(v[1], v[0]),
        reverse=True,
    )[:edges]
    x, y = 0, sum(dy for _, dy in directions)
    terms = {(x, y): 1}
    for dx, dy in directions:
        x, y = x + dx, y - dy
        terms[(x, y)] = 1
    return SparsePolynomial.from_terms(2, terms)


class TestFaceWalk:
    """face_polynomials against the facet-subset oracle of tests/helpers.py."""

    @staticmethod
    def check(f):
        P = newton_facets(f)
        faces = face_polynomials(f, P)
        got = [(face.support_points, face.rays, face.dim) for face, _ in faces]
        assert len(got) == len(set(got))
        assert set(got) == oracle_faces(P)
        order = [(dim, pts, rays) for pts, rays, dim in got]
        assert order == sorted(order)
        coeff = dict(f.terms)
        for face, fg in faces:
            assert dict(fg.terms) == {pt: coeff[pt] for pt in face.support_points}
        return P, faces

    def test_random_polynomials_in_one_to_four_variables(self):
        for f in random_vanishing_polynomials(11, 80):
            self.check(f)

    def test_seventeen_facet_polygon(self):
        P, faces = self.check(convex_chain(15))
        assert len(P.facets) == 17
        # 15 edges, 2 unbounded coordinate facets and 16 vertices
        assert [face.dim for face, _ in faces].count(0) == 16
        assert len(faces) == 33


def few_term_polynomials(seed: int, count: int, nvars: tuple[int, int], bound: int = 3):
    """Seeded polynomials with 1-3 support points: a small support often
    leaves a weight space of dimension 2 or more."""
    rng = random.Random(seed)
    while count:
        m = rng.randint(*nvars)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, bound) for _ in range(m))
            if sum(exps):
                terms[exps] = rng.randint(1, 6)
        if terms:
            count -= 1
            yield SparsePolynomial.from_terms(m, terms)


class TestWitnessSearch:
    """quasi_homogeneous_detect against the full scan of tests/helpers.py.

    The witness is the sum of the normals of the facets through the whole
    support: it must exist exactly when the scan finds one, be valid, and
    equal the scan's least-degree witness wherever the weights form a line
    or the support is one point (elsewhere its degree may be larger)."""

    @staticmethod
    def check(f, bound=32):
        w = detect(f)
        expected = oracle_quasi_homogeneous(f, bound)
        assert (w is None) == (expected is None), f
        if w is None:
            return
        supp = sorted(f.support())
        assert min(w.alpha) >= 1 and math.gcd(w.degree, *w.alpha) == 1, f
        assert all(sum(a * l for a, l in zip(w.alpha, pt)) == w.degree for pt in supp), f
        diffs = [[a - b for a, b in zip(pt, supp[0])] for pt in supp[1:]]
        if len(supp) == 1 or f.nvars - echelon_rank(diffs) == 1:
            assert (w.degree, w.alpha) == expected, f

    def test_one_to_three_variables(self):
        # exponents <= 4 keep a one-dimensional weight space's generator
        # inside [1, 32]^m, so the scan sees every line of weights
        polys = [*few_term_polynomials(5, 60, (1, 2)), *few_term_polynomials(6, 20, (3, 3))]
        polys += [f for f in random_vanishing_polynomials(7, 40) if f.nvars <= 2]
        for f in polys:
            self.check(f)

    def test_four_variables_in_a_small_box(self):
        # at most two support points: the weight space has dimension >= 3
        # unless the support is one point; bound 6 keeps the scan fast
        for f in few_term_polynomials(8, 40, (4, 4)):
            if len(f.terms) <= 2:
                self.check(f, 6)

    def test_weights_past_any_fixed_box(self):
        # the one weight line is spanned by (40, 1, 1), outside [1, 32]^3
        w = detect(parse_polynomial("x1*x3 + x2^40*x3"))
        assert (w.alpha, w.degree) == ((40, 1, 1), 41)

    def test_wide_weight_space_answers_at_once(self):
        # weights of dimension 2: a walk of [1, 32]^4 by degree took 6.3 s
        f = parse_polynomial("2*x4^3 + 2*x3^3*x4^2 + 6*x1^2*x3*x4")
        P = newton_facets(f)
        start = time.perf_counter()
        w = quasi_homogeneous_detect(P)
        assert time.perf_counter() - start < 0.1
        assert (w.alpha, w.degree) == ((5, 1, 2, 6), 18)

    def test_newton_prints_weights_past_any_fixed_box(self, tmp_path):
        code = main(["newton", "--prime", "3", "--poly", "x1*x3+x2^40*x3", "--out", str(tmp_path / "o")])
        doc = json.loads((tmp_path / "o").read_bytes())
        assert code == EXIT_OK
        assert doc["results"]["quasi_homogeneous"] == {"alpha": [40, 1, 1], "degree": 41}

    def test_expsum_on_a_wide_weight_space_answers_at_once(self, tmp_path):
        argv = ["expsum", "--prime", "5", "--poly", "2*x4^3+2*x3^3*x4^2+6*x1^2*x3*x4", "--m", "1..2"]
        start = time.perf_counter()
        main(argv + ["--out", str(tmp_path / "o")])
        elapsed = time.perf_counter() - start
        assert json.loads((tmp_path / "o").read_bytes())["results"]["decay_fit"]["quasi_homogeneous"]
        assert elapsed < 2, elapsed

    def test_no_witness_is_refused_quickly(self):
        # both points on the diagonal: <alpha, (1,1,1,1)> = 0 has no positive solution
        f = parse_polynomial("x1*x2*x3*x4 + x1^2*x2^2*x3^2*x4^2")
        start = time.perf_counter()
        assert detect(f) is None
        assert time.perf_counter() - start < 0.5

    def test_no_positive_weights_are_refused_at_once(self):
        # a weight space of dimension 2 with no positive point: a walk of
        # the degrees once took 82 s to answer None
        f = parse_polynomial("3*x3^3*x4^3 + 2*x1*x3^2 + 3*x1^2*x2*x3^2*x4")
        start = time.perf_counter()
        assert detect(f) is None
        assert time.perf_counter() - start < 0.1

    def test_four_variable_monomial_answers_at_once(self, tmp_path):
        start = time.perf_counter()
        code = main(["newton", "--prime", "3", "--poly", "x1*x2*x3*x4", "--out", str(tmp_path / "o")])
        elapsed = time.perf_counter() - start
        doc = json.loads((tmp_path / "o").read_bytes())
        assert code == 0
        assert doc["results"]["quasi_homogeneous"] == {"alpha": [1, 1, 1, 1], "degree": 4}
        assert elapsed < 0.1, elapsed


class TestOnePolyhedronPerCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            # certified: the verdict walks the faces
            ["newton", "--prime", "3", "--poly", "x1^2+x2^2"],
            ["newton", "--prime", "5", "--poly", "x1^2+x2^3"],
            ["newton", "--prime", "7", "--poly", "x1^2+x2^2+x3^3"],
            # degenerate at the gradient: no face is walked
            ["newton", "--prime", "5", "--poly", "x1^4 + x1*x2 + x2^4"],
            ["expsum", "--prime", "3", "--poly", "x1^2+x2^3", "--m", "1..4"],
            ["expsum", "--prime", "5", "--poly", "x^3", "--m", "1..3"],
        ],
    )
    def test_each_command_builds_one_polyhedron(self, tmp_path, monkeypatch, argv):
        # patch every module namespace that holds newton_facets, as the bench tracer does
        original, built = newton.newton_facets, []

        def counting(f):
            built.append(f)
            return original(f)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "padic_dispersion":
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counting)
        # an expsum whose certificate is unavailable still writes its table
        assert main([*argv, "--out", str(tmp_path / "o")]) in (EXIT_OK, EXIT_CERTIFICATE)
        assert json.loads((tmp_path / "o").read_bytes())["results"]
        assert len(built) == 1


class TestNondegeneracy:
    def test_certified(self):
        assert verdict(parse_polynomial("x1^2+x2^2"), 3) == "certified"

    def test_degenerate_square_of_line(self):
        f = parse_polynomial("x1^2 + 2*x1*x2 + x2^2")
        assert verdict(f, 3) == "degenerate-mod-p"

    def test_indeterminate_char_2(self):
        assert verdict(parse_polynomial("x^2"), 2) == "indeterminate"

    def test_monomial_odd_p(self):
        assert verdict(parse_polynomial("x^2"), 3) == "certified"

    def test_verdicts_match_the_point_scan(self):
        cases = list(zip(random_vanishing_polynomials(21, 120), cycle((2, 3, 5))))
        # seeded draws never fail at a face, so add phases that pass the gradient
        # scan and fail at a face of two or three support points
        cases += [
            (parse_polynomial(text), p)
            for text, p in [
                ("x1^2 - 2*x1*x2 + x2^2 + x1^3", 5),
                ("x1^2 - 2*x1*x2 + x2^2 + x1^3 + x3^3", 7),
                ("x1^4*x2 + x1*x2^4 + x1^6 + x2^7", 3),
                ("x1^3 + x2^5 + x1*x2^2", 2),
                ("x1^3*x3 + x2^3*x3 + x1^5 + x2^5 + x3^4", 3),
            ]
        ]
        got, want = [], []
        for f, p in cases:
            P = newton_facets(f)
            got.append(nondegeneracy_mod_p(f, P, p))
            want.append(oracle_verdict(f, P, p))
        assert got == want
        assert set(got) == {"certified", "degenerate-mod-p", "indeterminate"}

    def test_large_prime_scan_is_quick(self):
        start = time.perf_counter()
        got = verdict(parse_polynomial("x1^2+x2^2+x3^3"), 101)
        elapsed = time.perf_counter() - start
        assert got == "certified"
        assert elapsed < 2.0, elapsed

    def test_four_variable_scan_at_53_is_quick(self):
        # each gradient entry and face polynomial uses few of the four variables
        start = time.perf_counter()
        got = verdict(parse_polynomial("x1^2+x2^2+x3^2+x4^3"), 53)
        elapsed = time.perf_counter() - start
        assert got == "certified"
        assert elapsed < 2.0, elapsed


def leibniz(rows):
    """sum over permutations of sign * product, written independently of the library."""
    n, total = len(rows), 0
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += sign * math.prod(rows[i][perm[i]] for i in range(n))
    return total


class TestDeterminant:
    def test_row_swaps_keep_the_sign(self):
        assert determinant([[0, 1], [1, 0]]) == -1
        assert determinant([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
        assert determinant([[1, 2], [2, 4]]) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_leibniz_sum(self, n):
        rng = random.Random(n)
        for _ in range(300):
            rows = [[rng.choice([0, 0, 1, -1, 2, -3, 7]) for _ in range(n)] for _ in range(n)]
            assert determinant(rows) == leibniz(rows), rows
