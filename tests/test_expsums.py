import cmath
import dataclasses
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    column_mean,
    column_vanishes,
    dense_column_value,
    expsum_values,
    x1_x2_count_work,
    x1_x2_work,
    oracle_block_counts,
    oracle_cyclic_convolution,
    oracle_exp_sum,
    oracle_residue_counts,
    oracle_vanishes,
)
from padic_dispersion import expsums
from padic_dispersion.errors import (
    CertificateIndeterminate,
    CertificateUnavailableError,
    DomainError,
    ResourceCapError,
)
from padic_dispersion.expsums import (
    character_sum,
    decay_fit,
    exp_sum,
    residue_histogram,
    stationary_certificate,
)
from padic_dispersion.padic import Ball
from padic_dispersion.polynomials import SparsePolynomial, lattice_form, parse_polynomial

Z3 = Ball.of(3, [0], 0)
SQUARE = parse_polynomial("x^2")


class TestExpSum:
    def test_gauss_sum_level_one(self):
        res = exp_sum(SQUARE, Fraction(1, 3), Z3)
        expect = (1 + 2 * cmath.exp(2j * math.pi / 3)) / 3
        assert res.counts == {0: 1, 1: 2}
        assert abs(res.value - expect) < 1e-15
        assert abs(abs(res.value) - 3 ** -0.5) < 1e-12

    def test_trivial_character_gives_volume(self):
        assert exp_sum(SQUARE, 2, Z3).value == 1.0

    def test_full_linear_sum_vanishes(self):
        for m in (1, 2, 3):
            res = exp_sum(parse_polynomial("x"), Fraction(1, 3**m), Z3)
            assert set(res.counts.values()) == {1}
            assert abs(res.value) < 1e-9

    def test_zero_z_rejected(self):
        with pytest.raises(DomainError):
            exp_sum(SQUARE, 0, Z3)

    def test_matches_direct_oracle_randomised(self):
        rng = random.Random(42)
        polys = [
            parse_polynomial("x^2"),
            parse_polynomial("x^3 - x"),
            parse_polynomial("x1^2 + x1*x2", nvars=2),
            parse_polynomial("x1*x2^2 - 3*x2", nvars=2),
        ]
        for _ in range(40):
            f = rng.choice(polys)
            p = rng.choice([2, 3])
            unit = rng.choice([1, 2, -1])
            mexp = rng.randint(-1, 2)
            z = Fraction(unit) * Fraction(p) ** -mexp
            e = rng.randint(-1, 1) if f.nvars == 1 else rng.randint(0, 1)
            center = tuple(
                Fraction(rng.randint(0, p**2), p ** rng.randint(0, 1))
                for _ in range(f.nvars)
            )
            ball = Ball.of(p, center, e)
            got = exp_sum(f, z, ball).value
            # a provably sufficient constancy level, plus one step of margin
            level = max(0, mexp + max(0, -e) * f.total_degree()) + 1
            want = oracle_exp_sum(f, z, ball, level)
            assert abs(got - want) < 1e-9, (f, z, ball)

    def test_volume_bound_exact(self):
        rng = random.Random(7)
        for _ in range(30):
            p = rng.choice([2, 3, 5])
            m = rng.randint(1, 3)
            f = parse_polynomial(rng.choice(["x^2", "x^3+x", "x^4-2*x"]))
            ball = Ball.of(p, [rng.randint(0, p)], rng.randint(0, 1))
            res = exp_sum(f, Fraction(1, p**m), ball)
            assert res.scale * res.total_count == ball.volume
            assert abs(res.value) <= float(ball.volume) + 1e-12

    def test_separated_variables_multiplicative(self):
        f = parse_polynomial("x1^2 + x2^3")
        ball2 = Ball.of(3, [0, 0], 0)
        for m in (1, 2, 3, 4):
            z = Fraction(1, 3**m)
            joint = exp_sum(f, z, ball2).value
            split = (
                exp_sum(parse_polynomial("x^2"), z, Z3).value
                * exp_sum(parse_polynomial("x^3"), z, Z3).value
            )
            assert abs(joint - split) < 1e-9

    def test_coupled_block_matches_oracle(self):
        f = parse_polynomial("x1^2*x2 + x2^2")
        ball2 = Ball.of(3, [0, 0], 0)
        z = Fraction(1, 27)
        got = exp_sum(f, z, ball2).value
        want = oracle_exp_sum(f, z, ball2, 3)
        assert abs(got - want) < 1e-9

    def test_large_coupled_block_matches_sub_balls(self):
        # 3^14 points: the coupled block spans more than one slab
        f = parse_polynomial("x1^2 + x1*x2 + x2^3")
        z = Fraction(1, 3**7)
        whole = exp_sum(f, z, Ball.of(3, [0, 0], 0)).value
        parts = sum(
            exp_sum(f, z, Ball.of(3, [a, b], 1)).value
            for a in range(3)
            for b in range(3)
        )
        assert abs(whole - parts) < 1e-12

    def test_slab_splitting_matches_the_oracles(self, monkeypatch):
        # slabs of 10 points: the histogram grid of every case spans several,
        # and so does the value mesh F_2^4 of the third
        monkeypatch.setattr(expsums, "_CHUNK", 10)
        calls = []
        evaluate = expsums.poly_residues

        def recording(terms, coords, modulus):
            out = evaluate(terms, coords, modulus)
            calls.append((modulus, out.size))
            return out

        monkeypatch.setattr(expsums, "poly_residues", recording)
        cases = [
            # a grid of 7^2 points in rows of 10
            (parse_polynomial("x^3 - 2*x"), Ball.of(7, [0], 0), 4),
            # 9 x 9 points: one row of 9 per slab
            (parse_polynomial("x1^2*x2 + x2^2"), Ball.of(3, [0, 0], 0), 4),
            # side 4 over four coupled variables: 4^2 exceeds the chunk, so
            # the first two variables are scalars and the third is walked
            (parse_polynomial("x1*x2 + x2*x3^2 + x3*x4 + x4^3"), Ball.of(2, [0] * 4, 0), 3),
        ]
        for f, ball, m in cases:
            z = Fraction(1, ball.prime**m)
            calls.clear()
            assert abs(exp_sum(f, z, ball).value - oracle_exp_sum(f, z, ball, m)) < 1e-9
            assert {modulus for modulus, _ in calls} == {ball.prime}  # meshes of F_p^n
            assert max(size for _, size in calls) <= 10
            calls.clear()
            assert residue_histogram(f, m, ball) == oracle_residue_counts(f, m, ball)
            top = max(modulus for modulus, _ in calls)  # the phase's calls, not its gradient's
            slabs = [size for modulus, size in calls if modulus == top]
            assert len(slabs) > 1 and max(slabs) <= 10, slabs


def seeded_block_terms(rng, p: int, n: int, block: tuple[int, ...]) -> dict:
    """One to four monomials in the block's variables, with coefficients that
    p or p^2 often divides, and one term in x1, which is not in the block."""
    terms = {(2,) + (0,) * (n - 1): 1}
    while len(terms) < 2:
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 3) if j in block else 0 for j in range(n))
            if any(exps):
                terms[exps] = rng.choice([-1, 1]) * rng.randint(1, 30) * p ** rng.choice([0, 0, 1, 2])
    return terms


class TestHalfLevelGrid:
    """`_block_counts` reads each block's counts from the nodes of the
    stationary-phase recursion (`_counts`); the counts, values and exact
    zeros equal those of plain enumeration."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_counts_match_plain_enumeration(self, p, d):
        rng = random.Random(f"{p}:{d}")
        block = tuple(range(1, d + 1))
        seen = set()
        for level in range(7):
            for width_level in (level, level + 1):  # the boxes `_result` builds: W >= L
                if p ** (width_level * d) > 2500:
                    continue
                for draw in range(3):
                    terms = seeded_block_terms(rng, p, d + 1, block)
                    if draw == 2:  # the block's whole part divisible by p
                        terms = {e: c * (p if e[0] == 0 else 1) for e, c in terms.items()}
                    width, modulus = p**width_level, p**level
                    got = expsums._block_counts(block, terms, width, p, level)
                    assert got.tolist() == oracle_block_counts(terms, block, width, modulus), (
                        terms, width, modulus,
                    )
                seen.add((min(level, 2), width_level - level))
        # levels 0, 1 and above, each with a box as wide as the modulus or wider
        assert seen >= {(0, 0), (0, 1), (1, 0)}
        if p ** (2 * d) <= 2500:  # a node with stationary edges (L >= 2) fits the budget
            assert (2, 0) in seen

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_values_and_exact_zeros_match_the_oracles(self, p):
        rng = random.Random(p)
        seen = set()
        for _ in range(16):
            n = rng.randint(1, 2)
            m = rng.choice([m for m in range(1, 7) if p ** (m * n) <= 729])
            terms = seeded_block_terms(rng, p, n + 1, tuple(range(1, n + 1)))
            f = SparsePolynomial.from_terms(n, {e[1:]: c for e, c in terms.items() if any(e[1:])})
            ball = Ball.of(p, [0] * n, 0)
            z = Fraction(rng.randint(1, p - 1), p**m)
            value = exp_sum(f, z, ball).value
            # u f and f vanish together: e(u r / p^m) is a Galois conjugate of e(r / p^m)
            zero = oracle_vanishes(oracle_residue_counts(f, m, ball), p, m)
            if zero:
                assert value == 0j, (f, z)
            else:
                want = oracle_exp_sum(f, z, ball, m)
                assert abs(value - want) <= 1e-12 * abs(want), (f, z, value, want)
            seen.add(zero)
        assert seen == {True, False}

    def test_a_box_beyond_int64_is_refused(self):
        # the grid of 2^36 points is under the cap, but the box of 2^69
        # points does not fit the int64 counts, whatever the cap; the value
        # counts nothing and answers
        m = 23
        res = exp_sum(parse_polynomial("x1*x2*x3"), Fraction(1, 2**m), Ball.of(2, [0] * 3, 0),
                      cap=10**30)
        # E = #{(x1, x2) mod 2^m : x1 x2 = 0 mod 2^m} / 4^m, by valuations i, j
        units = [2 ** (m - i - 1) for i in range(m)] + [1]
        pairs = sum(a * b for i, a in enumerate(units) for j, b in enumerate(units) if i + j >= m)
        assert abs(res.value - pairs / 4**m) <= 1e-15
        with pytest.raises(ResourceCapError) as err:
            res.counts
        assert err.value.required == 2**69 and err.value.cap == 2**63 - 1

    def test_a_singular_curve_is_counted_at_3_to_the_14(self):
        # x1^2 x2^2 is singular on both axes, so its nodes multiply with the
        # level; its counts at 3^14 once took 0.6 s, and 7.8 s at 3^16
        f, ball = parse_polynomial("x1^2*x2^2"), Ball.of(3, [0, 0], 0)
        res = exp_sum(f, Fraction(1, 3**14), ball)
        column = res.dense[:, 0].astype(np.int64)
        assert res.powers == (1,) and int(column.sum()) == 3**28
        coarser = exp_sum(f, Fraction(1, 3**13), ball).dense[:, 0].astype(np.int64)
        assert (column.reshape(3, -1).sum(axis=0) == 9 * coarser).all()
        assert abs(column_mean(column, 3) - res.value) <= 1e-15

    def test_the_counts_expand_the_value_nodes_once(self, monkeypatch):
        # one Hensel tree: the counts expand the nodes of the value's
        # recursion, each once, and the level-1 node of each for its classes
        # with grad h(a) != 0 mod p; the d gradient rows of each node polynomial
        # are evaluated on F_p^d once, whatever its levels, and h at each level-1 node
        nodes, points = [], []
        edges, evaluate = expsums._edges, expsums.poly_residues

        def counting(terms, coords, modulus):
            out = evaluate(terms, coords, modulus)
            points.append(out.size)
            return out

        monkeypatch.setattr(expsums, "_edges", lambda *args: nodes.append(args[:3]) or edges(*args))
        monkeypatch.setattr(expsums, "poly_residues", counting)
        cases = [
            ({(3,): 1, (1,): -2}, (0,), 5, 8, 8),
            ({(3,): 1}, (0,), 3, 6, 9),
            ({(1, 1): 1}, (0, 1), 3, 6, 6),
            ({(2, 1): 1, (0, 2): 3}, (0, 1), 2, 7, 9),
            ({(1, 1, 0): 1, (0, 1, 2): 1, (0, 0, 3): 2}, (0, 1, 2), 2, 5, 5),
            ({(2, 2): 1}, (0, 1), 3, 8, 8),  # a singular locus that is not a point
        ]
        for terms, block, p, level, width_level in cases:
            nodes.clear()
            points.clear()
            counts = expsums._block_counts(block, terms, p**width_level, p, level)
            assert int(counts.sum()) == p ** (width_level * len(block))
            counted, d = list(nodes), len(block)
            assert len(counted) == len(set(counted)), terms
            polys = {h for _, h, k in counted if k > 1}
            level_ones = sum(k == 1 for _, _, k in counted)
            assert sum(points) == (len(polys) * d + level_ones) * p**d, terms
            nodes.clear()
            block_mean(p, expsums._local_terms(block, terms), level)
            level_one = {(p, centred_mod(h, p), 1) for _, h, _ in nodes}
            assert set(nodes) <= set(counted) <= set(nodes) | level_one, terms


def seeded_phase(rng, p: int, n: int) -> SparsePolynomial:
    """Two to five monomials in n variables, coupled or not, with
    coefficients that p often divides."""
    terms = {}
    while len(terms) < 2:
        for _ in range(rng.randint(2, 5)):
            exps = tuple(rng.randint(0, 3) if rng.random() < 0.6 else 0 for _ in range(n))
            if any(exps):
                terms[exps] = rng.choice([-1, 1]) * rng.randint(1, 9) * p ** rng.choice([0, 0, 1])
    return SparsePolynomial.from_terms(n, terms)


def centred_mod(h, p: int) -> tuple:
    """The nonzero terms of h mod p, each coefficient in (-p/2, p/2]."""
    return tuple((e, r - p if 2 * r > p else r) for e, c in h if (r := c % p))


def block_mean(p: int, local, level: int, memo=None) -> complex:
    """One block mean of the stationary-phase recursion, at the default cap."""
    return expsums._block_mean(p, local, level, {} if memo is None else memo, [0], 10**8)


class TestStationarySum:
    """`value` takes each block mean from the stationary-phase recursion; it
    equals the evaluation of the count columns and is exactly 0j when their
    cyclotomic column test passes."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_block_sums_match_the_counts(self, p):
        # the box [0, p^L)^d of each level L, in 1-3 variable blocks
        rng = random.Random(f"stationary:{p}")
        seen = set()
        for d in (1, 2, 3):
            block = tuple(range(1, d + 1))
            for level in range(6):
                if p ** (level * d) > 2500:
                    continue
                for draw in range(3):
                    terms = seeded_block_terms(rng, p, d + 1, block)
                    counts = oracle_block_counts(terms, block, p**level, p**level)
                    got = block_mean(p, expsums._local_terms(block, terms), level)
                    zero = column_vanishes(counts, p)
                    if zero:
                        assert got == 0j, (terms, level)
                    else:
                        assert got != 0j and abs(got - column_mean(counts, p)) <= 1e-15
                    seen.add(zero)
        assert seen == {True, False}

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_one_scan_of_many_levels_gives_the_one_level_bits(self, p):
        # one memo shared by every level gives the bits of a fresh memo per level
        rng = random.Random(f"levels:{p}")
        levels = list(range(8))
        for d in (1, 2):
            block = tuple(range(1, d + 1))
            for draw in range(3):
                local = expsums._local_terms(block, seeded_block_terms(rng, p, d + 1, block))
                memo = {}
                joint = [block_mean(p, local, level, memo) for level in levels]
                single = [block_mean(p, local, level) for level in levels]
                assert [repr(v) for v in joint] == [repr(v) for v in single], local
                assert joint[0] == 1  # level 0: one point, e(0) = 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_values_match_the_dense_column_evaluation(self, p):
        rng = random.Random(f"dense:{p}")
        cases = [
            # certified balls: the gradient is a unit, so high levels vanish
            (parse_polynomial("x^2+x+1"), Ball.of(p, [0], 1)),
            (parse_polynomial("x1^2+x1+x2^3+x2"), Ball.of(p, [0, 0], 1)),
        ]
        for _ in range(12):
            n = rng.randint(1, 3)
            center = [rng.randint(0, p) for _ in range(n)]
            cases.append((seeded_phase(rng, p, n), Ball.of(p, center, rng.randint(0, 1))))
        zeros = set()
        for f, ball in cases:
            for m in range(1, 9):
                if p**m > 3**9 or p ** ((m + 1) // 2 * f.nvars) > 10**5:
                    continue
                res = exp_sum(f, Fraction(rng.randint(1, p - 1), p**m), ball)
                value, want = res.value, dense_column_value(res)
                assert (value == 0j) == (want == 0j), (f, ball, m)
                assert abs(value - want) <= 1e-15, (f, ball, m, value, want)
                zeros.add(value == 0j)
        assert zeros == {True, False}

    def test_shrunk_slabs_give_identical_bits(self, monkeypatch):
        cases = [
            (parse_polynomial("x1^2 + x1*x2 + x2^3"), Ball.of(3, [0, 0], 0), 8),
            (parse_polynomial("x1*x2 + x2*x3^2 + x3"), Ball.of(2, [0, 0, 0], 0), 6),
            (parse_polynomial("x^3"), Ball.of(5, [2], 1), 5),  # an exact zero
            (parse_polynomial("x^3 - 2*x"), Ball.of(7, [0], 0), 4),
            # many stationary points, on residues that recur from slab to slab
            (parse_polynomial("x1^2*x2^2 + x2^3"), Ball.of(3, [0, 0], 0), 6),
            # a mesh of 3^4 points in slabs of 9: x1 a scalar, x2 walked in rows of one
            (parse_polynomial("x1*x2 + x2*x3^2 + x3*x4 + x4^3"), Ball.of(3, [0] * 4, 0), 5),
        ]
        whole = [exp_sum(f, Fraction(1, ball.prime**m), ball).value for f, ball, m in cases]
        monkeypatch.setattr(expsums, "_CHUNK", 10)
        sliced = [exp_sum(f, Fraction(1, ball.prime**m), ball).value for f, ball, m in cases]
        assert sliced == whole and 0j in whole
        bits = [(v.real.hex(), v.imag.hex()) for v in whole]
        assert [(v.real.hex(), v.imag.hex()) for v in sliced] == bits

    def test_value_builds_no_count_vector(self, monkeypatch):
        # the one value path: no histogram machinery, and every polynomial
        # evaluation is a mesh mod p, so no value needs MODULUS_LIMIT
        def refuse(*args):
            raise AssertionError("a count vector was built")

        moduli = []
        evaluate = expsums.poly_residues

        def recording(terms, coords, modulus):
            moduli.append(modulus)
            return evaluate(terms, coords, modulus)

        for name in ("_counts", "_block_counts", "_mod_histogram"):
            monkeypatch.setattr(expsums, name, refuse)
        monkeypatch.setattr(expsums, "poly_residues", recording)
        cube, z7 = parse_polynomial("x^3"), Ball.of(7, [0], 0)
        # x = 7y: the units are stationary-free, so E(7^-m) = E(7^-(m-3)) / 7 for m >= 4
        value = exp_sum(cube, Fraction(1, 7**10), z7).value
        assert abs(value - exp_sum(cube, Fraction(1, 7**7), z7).value / 7) <= 1e-15
        assert abs(value - exp_sum(cube, Fraction(1, 7**4), z7).value / 7**2) <= 1e-15
        assert abs(value - oracle_exp_sum(cube, Fraction(1, 7), z7, 1) / 7**3) <= 1e-15
        # 7^40 is far past MODULUS_LIMIT
        assert abs(exp_sum(cube, Fraction(1, 7**40), z7).value - value / 7**10) <= 1e-15
        assert set(moduli) == {7}
        moduli.clear()
        f = parse_polynomial("x1^2 + x1*x2 + x2^3 + 3*x3^4")
        for ball in (Ball.of(3, [0, 0, 0], 0), Ball.of(3, [1, 2, 0], 1), Ball.of(3, [Fraction(1, 3)] * 3, -1)):
            exp_sum(f, Fraction(2, 3**30), ball).value
        assert set(moduli) == {3}

    def test_value_allocates_no_count_vector(self):
        cube, z5 = parse_polynomial("x^3"), Ball.of(5, [0], 0)
        exp_sum(cube, Fraction(1, 5**3), z5).value  # first-call allocations are not counted
        tracemalloc.start()
        try:
            exp_sum(cube, Fraction(1, 5**10), z5).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the count vector alone would be 5^10 int64, 74.5 MiB
        assert peak < 2**20, peak


def seeded_tables(rng, p: int) -> list[list]:
    """Level tables E(u p^-m, f), m = 1..7, of seeded phases on three kinds of
    ball: Z_p^n, unit centres at radius 1, and centre 1/p at radius -1."""
    tables = []
    for kind in range(3):
        for _ in range(4):
            n = rng.randint(1, 2)
            center, radius = [
                ([0] * n, 0),
                ([rng.randint(1, p - 1) for _ in range(n)], 1),
                ([Fraction(1, p)] * n, -1),
            ][kind]
            f, ball = seeded_phase(rng, p, n), Ball.of(p, center, radius)
            tables.append([exp_sum(f, Fraction(rng.randint(1, p - 1), p**m), ball) for m in range(1, 8)])
    return tables


class TestJointScan:
    """`evaluate` expands each node of the stationary-phase recursion once
    for every level and block of every result it is given; each value is
    the bits `value` gives on its own."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_joint_values_are_the_single_values(self, p, monkeypatch):
        tables = seeded_tables(random.Random(f"joint:{p}"), p)
        results = [res for table in tables for res in table]
        single = [repr(dataclasses.replace(res).value) for res in results]
        expsums.evaluate(results)
        assert [repr(res.value) for res in results] == single
        assert len(results) >= 40 and "0j" in single
        # slabs of 10 points: the mesh F_p^2 of p >= 5 spans several
        monkeypatch.setattr(expsums, "_CHUNK", 10)
        sliced = [dataclasses.replace(res, _value=None) for res in results]
        expsums.evaluate(sliced)
        assert [repr(res.value) for res in sliced] == single

    def test_a_table_scans_each_block_once(self, monkeypatch):
        nodes = []
        edges = expsums._edges
        monkeypatch.setattr(expsums, "_edges", lambda *args: nodes.append(args[:3]) or edges(*args))
        ball = Ball.of(5, [0, 0], 0)
        f = parse_polynomial("x1^2+4*x2^3")
        table = [exp_sum(f, Fraction(1, 5**m), ball) for m in range(1, 9)]
        expsums.evaluate(table)
        # each node once; every level of both blocks is a node of the one walk,
        # its coefficients in (-5^m/2, 5^m/2]: 4 y^3 is -y^3 mod 5
        assert len(nodes) == len(set(nodes))
        assert {(5, (((2,), 1),), m) for m in range(1, 9)} <= set(nodes)
        assert {(5, (((3,), 4 if m > 1 else -1),), m) for m in range(1, 9)} <= set(nodes)
        # h(5y) = 25 y^2 and 500 y^3 key their blocks again: the walk meets the
        # same two node polynomials at every level
        assert {h for _, h, _ in nodes} == {(((2,), 1),), (((3,), 4),), (((3,), -1),)}
        assert all(res._value is not None for res in table)
        count = len(nodes)
        expsums.evaluate(table)  # evaluated results are not expanded again
        assert len(nodes) == count

    def test_the_phase_is_evaluated_at_stationary_points_only(self, monkeypatch):
        points, meshes = [], []
        compose, evaluate = expsums.compose_affine, expsums.poly_residues

        def expanding(terms, center, step):
            points.append(center)
            return compose(terms, center, step)

        def counting(terms, coords, modulus):
            out = evaluate(terms, coords, modulus)
            meshes.append((modulus, out.size))
            return out

        monkeypatch.setattr(expsums, "compose_affine", expanding)
        monkeypatch.setattr(expsums, "poly_residues", counting)
        # x1 x2 at level 9: the class (0, 0) alone is stationary, at levels 9, 7, 5 and 3,
        # and h(3y) = 9 y1 y2 is x1 x2 again, so its class is found and expanded once
        # for all four levels; level 1 is one mesh of F_3^2
        value = exp_sum(parse_polynomial("x1*x2"), Fraction(1, 3**9), Ball.of(3, [0, 0], 0)).value
        assert abs(value - 3**-9) <= 1e-15
        assert points == [(0, 0)]
        assert meshes == [(3, 9)] * 3  # two gradient rows once, then h at level 1


class TestLevelTable:
    """`level_table` values a table {m: E(p^-m phase)} from one lattice form;
    each level is the bits of its own `character_sum`, a level whose scaled
    phase is integral included."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_each_level_is_the_character_sum_of_the_scaled_phase(self, p):
        rng = random.Random(f"level-table:{p}")
        levels = range(-3, 9)
        forms, volumes = [], 0
        for n in (1, 2):
            for _ in range(5):
                scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, p**2), p ** rng.randint(0, 2))
                phase = seeded_phase(rng, p, n).scale(scale)
                # centres over p^1 or p^2 and radii down to -2 give K > 0
                center = [Fraction(rng.randint(-p**2, p**2), p ** rng.randint(1, 2)) for _ in range(n)]
                ball = Ball.of(p, center, rng.randint(-2, 1))
                forms.append(lattice_form(phase, ball.center_fractions(), Fraction(p) ** ball.radius_exp, p)[1])
                table = expsums.level_table(phase, ball, levels)
                assert list(table) == list(levels)
                for m, value in table.items():
                    scaled = {e: c * Fraction(p) ** -m for e, c in phase.items()}
                    assert repr(value) == repr(character_sum(scaled, ball).value), (phase, ball, m)
                volumes += table[-3] == complex(ball.volume)
        assert max(forms) > 0 and min(forms) == 0 and volumes > 0


class TestWorkCap:
    """A value counts the mesh points of the recursion's nodes and
    _NODE_COST per node and per stationary class expanded; a histogram
    counts its columns, then the same nodes and each node's count vector."""

    def test_levels_the_box_count_refused_now_answer(self):
        # x1 x2 over Z_3^2: the y sum vanishes unless x = 0 mod p^m, so E = p^-m
        f, ball = parse_polynomial("x1*x2"), Ball.of(3, [0, 0], 0)
        assert abs(exp_sum(f, Fraction(1, 3**9), ball).value - 3**-9) <= 1e-15
        for m in range(1, 5):
            got = exp_sum(f, Fraction(2, 3**m), ball).value
            assert abs(got - oracle_exp_sum(f, Fraction(2, 3**m), ball, m)) < 1e-12
        cube, z7 = parse_polynomial("x^3"), Ball.of(7, [0], 0)
        for m in range(1, 5):
            got = exp_sum(cube, Fraction(1, 7**m), z7).value
            assert abs(got - oracle_exp_sum(cube, Fraction(1, 7**m), z7, m)) < 1e-12

    def test_a_grid_past_the_cap_is_refused(self, monkeypatch):
        f, ball, z = parse_polynomial("x1*x2"), Ball.of(3, [0, 0], 0), Fraction(1, 3**9)
        need = x1_x2_work(9)
        assert abs(exp_sum(f, z, ball, cap=need).value - 3**-9) <= 1e-15
        res = exp_sum(f, z, ball, cap=need - 1)  # building the result counts nothing
        with pytest.raises(ResourceCapError, match=f"enumeration of {need} mesh points") as err:
            res.value
        assert err.value.required == need and err.value.cap == need - 1
        # short of the level-1 node's charge, nothing of that node is scanned, and
        # the levels 7, 5 and 3 reuse the mesh that level 9 scanned, charged as if scanned again
        meshes = []
        mesh = expsums._mesh
        monkeypatch.setattr(expsums, "_mesh", lambda *args: meshes.append(args) or mesh(*args))
        before = need - 5 * 3 * expsums._TERM_COST
        with pytest.raises(ResourceCapError) as err:
            exp_sum(f, z, ball, cap=before - 1).value
        assert err.value.required == before and len(meshes) == 1

    def test_a_histogram_also_counts_its_count_vector(self, monkeypatch):
        f, ball = parse_polynomial("x1*x2"), Ball.of(3, [0, 0], 0)
        need = x1_x2_count_work(9)  # the column, then each node's mesh and count vector
        assert sum(residue_histogram(f, 9, ball, cap=need).values()) == 3**18
        res = exp_sum(f, Fraction(1, 3**9), ball, cap=need - 1)
        assert abs(res.value - 3**-9) <= 1e-15
        with pytest.raises(ResourceCapError, match=f"enumeration of {need} mesh points") as err:
            res.counts
        assert err.value.required == need and err.value.cap == need - 1
        # a column longer than the cap is refused before any node is built
        monkeypatch.setattr(expsums, "_edges", None)
        res = exp_sum(f, Fraction(1, 3**9), ball, cap=3**9 - 1)
        with pytest.raises(ResourceCapError, match="count entries") as err:
            res.counts
        assert err.value.required == 3**9

    def test_blocks_with_the_same_terms_are_scanned_once(self, monkeypatch):
        nodes, counted = [], []
        edges, counts = expsums._edges, expsums._counts
        monkeypatch.setattr(expsums, "_edges", lambda *args: nodes.append(args[:3]) or edges(*args))
        monkeypatch.setattr(expsums, "_counts", lambda *args: counted.append(args[:3]) or counts(*args))
        res = exp_sum(squares(6), Fraction(1, 3**9), Ball.of(3, [0] * 6, 0))
        assert abs(abs(res.value) - 3**-27) <= 1e-12 * 3**-27
        # x^2, once for the six blocks: h(3y) = 9 y^2 steps down two levels at a time
        chain = [(3, (((2,), 1),), level) for level in (9, 7, 5, 3, 1)]
        assert nodes == chain
        assert counted == []
        assert res.dense.shape[1] == 1 and res.powers == (6,)
        # the one column reads the same chain, its top node once
        assert set(counted) == set(chain) and counted.count(chain[0]) == 1


class TestDeepLevels:
    """Levels far past MODULUS_LIMIT, in one table each, against closed forms."""

    @staticmethod
    def table(text: str, ball: Ball, levels) -> dict[int, complex]:
        f = parse_polynomial(text)
        sums = {m: exp_sum(f, Fraction(1, ball.prime**m), ball) for m in levels}
        expsums.evaluate(sums.values())
        return {m: res.value for m, res in sums.items()}

    def test_a_product_of_two_variables(self):
        # the x2 sum vanishes unless x1 = 0 mod 3^m: E = 3^-m
        values = self.table("x1*x2", Ball.of(3, [0, 0], 0), range(1, 41))
        for m, value in values.items():
            assert abs(value - 3.0**-m) <= 1e-15 * 3.0**-m, m

    def test_a_cube_at_its_own_prime(self):
        # x = 3y: the units add p^-1 e(...) E_(m-2) of a linear phase, which is 0
        values = self.table("x^3", Ball.of(3, [0], 0), range(1, 41))
        for m in range(4, 41):
            assert abs(values[m] - values[m - 3] / 3) <= 1e-15 * abs(values[m - 3]), m
        assert values[1] == 0j and {values[m] == 0j for m in range(1, 41)} == {True, False}

    def test_four_squares(self):
        # four Gauss sums of modulus 3^(-m/2) each
        values = self.table("x1^2+x2^2+x3^2+x4^2", Ball.of(3, [0] * 4, 0), range(1, 31))
        for m, value in values.items():
            assert abs(abs(value) - 3.0 ** (-2 * m)) <= 1e-12 * 3.0 ** (-2 * m), m

    def test_a_cube_off_its_critical_point_vanishes(self):
        # 3 x^2 is a unit on 2 + 5 Z_5: E = 0 exactly from m = 2 on
        values = self.table("x^3", Ball.of(5, [2], 1), range(1, 41))
        assert values[1] != 0j
        assert all(values[m] == 0j for m in range(2, 41))


class TestExpSumResult:
    @pytest.mark.parametrize(
        "text, nvars, p, m",
        [
            ("x1^2 + x1*x2", 3, 3, 2),  # x3 unused: each count stands for 9 points
            ("x2^3", 3, 2, 3),  # two unused variables
            ("x1^2 + x2", 2, 3, 0),  # z = 1: level 0, reduced modulus 1
            ("x1^2", 3, 5, 0),  # level 0 with unused variables
        ],
    )
    def test_counts_match_the_oracle(self, text, nvars, p, m):
        f = parse_polynomial(text, nvars=nvars)
        ball = Ball.of(p, [0] * nvars, 0)
        res = exp_sum(f, Fraction(1, p**m), ball)
        want = oracle_residue_counts(f, m, ball)
        assert res.counts == want
        assert res.total_count == sum(want.values()) == p ** (nvars * m)
        assert res.volume == ball.volume

    def test_unused_multiplicity_beyond_int64(self):
        # 3^40 points of x2..x6 per residue class of x1
        res = exp_sum(parse_polynomial("x1^2+0*x6"), Fraction(1, 3**8), Ball.of(3, [0] * 6, 0))
        one = oracle_residue_counts(SQUARE, 8, Z3)
        assert res.counts == {r: c * 3**40 for r, c in one.items()}
        assert res.total_count == 3**48
        assert res.volume == 1

    def test_constant_shift_over_reduced_modulus_one(self):
        # z f = x^2 + 1/3: every point has phase 1/3
        res = exp_sum(parse_polynomial("3*x^2 + 1"), Fraction(1, 3), Z3)
        assert len(res.dense) == 1
        assert res.counts == {1: 1}
        assert res.volume == 1
        assert abs(res.value - cmath.exp(2j * math.pi / 3)) < 1e-15

    def test_result_retains_only_its_count_vector(self):
        cube, z5 = parse_polynomial("x^3"), Ball.of(5, [0], 0)
        exp_sum(cube, Fraction(1, 5**2), z5).value  # first-call allocations are not retained
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = exp_sum(cube, Fraction(1, 5**8), z5)
            res.value
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # one int64 count per residue class, plus the fixed cost of the objects
        assert retained <= 16 * 5**8 + 4096, retained

    def test_enumeration_peak_stays_near_the_count_vector(self, monkeypatch):
        # exp_sum(x^3, 5^-10, Z_5) may peak at 250 MiB for its 74.5 MiB count
        # vector; at 5^-9 the count vector is a fifth as large, and so is the
        # bound (the grid of 5^5 points is one slab at either slab size)
        cube, z5 = parse_polynomial("x^3"), Ball.of(5, [0], 0)
        whole = exp_sum(cube, Fraction(1, 5**9), z5).dense  # one slab
        monkeypatch.setattr(expsums, "_CHUNK", expsums._CHUNK // 5)
        tracemalloc.start()
        try:
            dense = exp_sum(cube, Fraction(1, 5**9), z5).dense
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(dense, whole)
        assert peak <= 250 * 2**20 / 5, peak


def squares(k: int) -> SparsePolynomial:
    return parse_polynomial("+".join(f"x{i}^2" for i in range(1, k + 1)))


class TestFactoredSums:
    """A separable sum is kept as its distinct block columns; `value` is the
    product of the block sums and `counts` combines the columns exactly."""

    def test_six_squares(self):
        # every level-9 count of the combined histogram leaves int64
        res = exp_sum(squares(6), Fraction(1, 3**9), Ball.of(3, [0] * 6, 0))
        assert res.dense.shape == (3**9, 1) and res.dense.dtype == np.uint8
        assert res.powers == (6,)
        counts = dict(res.counts.items())  # one combination, not one per key
        assert min(counts.values()) >= 0 and max(counts.values()) > 2**63
        assert res.volume == 1 and res.scale * sum(counts.values()) == 1
        assert abs(abs(res.value) - 3**-27) <= 1e-12 * 3**-27

    def test_four_squares_at_level_twelve(self):
        res = exp_sum(squares(4), Fraction(1, 3**12), Ball.of(3, [0] * 4, 0))
        assert res.volume == 1
        assert abs(abs(res.value) - 3**-24) <= 1e-12 * 3**-24

    def test_counts_beyond_int64_equal_the_python_int_convolution(self):
        # 3^48 points over 3^6 classes: each count is about 3^42 > 2^63
        res = exp_sum(squares(8), Fraction(1, 3**6), Ball.of(3, [0] * 8, 0))
        want = oracle_cyclic_convolution([oracle_residue_counts(SQUARE, 6, Z3)] * 8, 3**6)
        assert res.counts == want
        assert min(want.values()) > 2**63
        assert all(type(c) is int for c in res.counts.values())

    def test_distinct_and_repeated_columns(self):
        f = parse_polynomial("x1^2 + x2^2 + 2*x3^2 + x4^3")
        m, ball = 5, Ball.of(3, [0] * 4, 0)
        res = exp_sum(f, Fraction(1, 3**m), ball)
        assert res.dense.shape == (3**m, 3) and res.powers == (2, 1, 1)
        blocks = [parse_polynomial(t) for t in ("x^2", "x^2", "2*x^2", "x^3")]
        want = oracle_cyclic_convolution(
            [oracle_residue_counts(g, m, Z3) for g in blocks], 3**m
        )
        assert res.counts == want and len(res.counts) == len(want)
        assert res.total_count == 3 ** (4 * m) and res.volume == 1
        direct = sum(c * cmath.exp(2j * math.pi * r / 3**m) for r, c in want.items())
        assert abs(res.value - direct / 3 ** (4 * m)) < 1e-12

    def test_one_vanishing_factor_gives_an_exact_zero(self):
        # x1^3 over 2 + 5 Z_5 vanishes at 5^-5; x2^2 over 5 Z_5 does not
        z = Fraction(1, 5**5)
        assert exp_sum(SQUARE, z, Ball.of(5, [0], 1)).value != 0
        res = exp_sum(parse_polynomial("x1^3 + x2^2"), z, Ball.of(5, [2, 0], 1))
        assert res.dense.shape[1] == 2
        assert res.value == 0j
        assert oracle_vanishes(dict(res.counts.items()), 5, res.level)

    # 62: limb products pass 2^53 and no longer round exactly; 20: the
    # modulus times the largest count leaves no bit for a limb
    @pytest.mark.parametrize("fft_bits", [62, 20])
    def test_counts_beyond_exact_fft_products_are_refused(self, monkeypatch, fft_bits):
        res = exp_sum(squares(6), Fraction(1, 3**9), Ball.of(3, [0] * 6, 0))
        monkeypatch.setattr(expsums, "_FFT_BITS", fft_bits)
        with pytest.raises(ResourceCapError):
            res.counts.items()
        assert abs(abs(res.value) - 3**-27) <= 1e-12 * 3**-27  # the value needs no combination

    @pytest.mark.parametrize("hold", ["result", "counts"])
    def test_a_held_six_squares_sum_keeps_one_narrow_column(self, hold):
        f, ball, z = squares(6), Ball.of(3, [0] * 6, 0), Fraction(1, 3**9)
        dict(exp_sum(f, z, ball).counts.items())  # first-call allocations are not retained
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = exp_sum(f, z, ball)
            res.value
            assert sum(res.counts.values()) == 3**54  # combined, then dropped
            held = res if hold == "result" else res.counts
            del res
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held is not None
        # one uint8 count per residue class of one column, not the combined counts
        assert retained <= 3**9 + 4096, retained


class TestCountsView:
    """`counts` reads the dense vector in place and builds no dict."""

    # 3 x^3 + 20 at z = 1/27: constant residue 20, step 3, x^3 mod 9 over x mod 9
    SHIFTED = parse_polynomial("3*x^3 + 20")

    def test_len_order_and_dict_equality(self):
        counts = exp_sum(self.SHIFTED, Fraction(1, 27), Z3).counts
        assert len(counts) == 3
        # ascending dense index r, key (20 + 3 r) mod 27: the order wraps
        assert list(counts) == [20, 23, 17]
        assert list(counts.items()) == [(20, 3), (23, 3), (17, 3)]
        assert counts == {17: 3, 20: 3, 23: 3} and {17: 3, 20: 3, 23: 3} == counts
        assert counts != {17: 3, 20: 3} and counts != {17: 3, 20: 3, 23: 4}
        assert counts[np.int64(23)] == 3 and counts.get(18) is None

    @pytest.mark.parametrize("key", [18, 21, 0, 47, -7, 2.5, "20", None])
    def test_missing_key(self, key):
        # 47 = 20 + 27 and -7 = 20 - 27 are congruent to a stored residue
        counts = exp_sum(self.SHIFTED, Fraction(1, 27), Z3).counts
        assert key not in counts
        with pytest.raises(KeyError):
            counts[key]

    def test_multiplicity_beyond_int64_is_exact(self):
        counts = exp_sum(
            parse_polynomial("x1^2+0*x6"), Fraction(1, 3**8), Ball.of(3, [0] * 6, 0)
        ).counts
        want = oracle_residue_counts(SQUARE, 8, Z3)[1] * 3**40
        assert type(counts[1]) is int and counts[1] == want > 2**63
        assert sum(counts.values()) == 3**48

    def test_a_view_combines_its_columns_once(self, monkeypatch):
        calls = []
        combine = expsums._combine
        monkeypatch.setattr(expsums, "_combine", lambda *a: calls.append(a) or combine(*a))
        f, z = parse_polynomial("x1^2 + x2^3"), Fraction(1, 27)
        counts = exp_sum(f, z, Ball.of(3, [0, 0], 0)).counts
        copy = dict(counts)
        assert len(counts) == len(copy) == 27
        assert all(r in counts and counts[r] == c for r, c in copy.items())
        assert copy == oracle_residue_counts(f, 3, Ball.of(3, [0, 0], 0))
        assert len(calls) == 1

    def test_views_held_after_a_read_keep_one_combined_vector_in_all(self):
        res = exp_sum(parse_polynomial("x1^2 + x2^3"), Fraction(1, 3**8), Ball.of(3, [0, 0], 0))
        len(res.counts)  # first-call allocations are not retained
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            held = [res.counts for _ in range(6)]
            assert all(len(view) == len(held[0]) for view in held)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # one int64 count per residue class, of the view read last
        assert retained <= 8 * 3**8 + 4096, retained

    def test_held_view_retains_only_the_count_vector(self):
        cube, z5 = parse_polynomial("x^3"), Ball.of(5, [0], 0)
        exp_sum(cube, Fraction(1, 5**2), z5).counts  # first-call allocations are not retained
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            held = exp_sum(cube, Fraction(1, 5**6), z5).counts
            retained = tracemalloc.get_traced_memory()[0] - before
            copy = dict(held)
            copied = tracemalloc.get_traced_memory()[0] - before - retained
        finally:
            tracemalloc.stop()
        assert copy == held
        # one int64 per residue class, against a dict of every occurring residue
        assert retained <= 8 * 5**6 + 4096 < copied, (retained, copied)


class TestResidueHistogram:
    def test_squares_mod_3(self):
        assert residue_histogram(SQUARE, 1, Z3) == {0: 1, 1: 2}

    def test_squares_mod_9(self):
        assert residue_histogram(SQUARE, 2, Z3) == {0: 3, 1: 2, 4: 2, 7: 2}

    def test_linear_bijection(self):
        assert residue_histogram(parse_polynomial("x"), 1, Z3) == {0: 1, 1: 1, 2: 1}

    def test_matches_brute_force(self):
        rng = random.Random(3)
        polys = [
            parse_polynomial("x^3 - x"),
            parse_polynomial("x1^2 + x2^2"),
            parse_polynomial("x1*x2 + x1", nvars=2),
        ]
        for _ in range(20):
            p = rng.choice([2, 3, 5])
            m = rng.randint(1, 2)
            f = rng.choice(polys)
            ball = Ball.of(p, (0,) * f.nvars, rng.randint(0, 1))
            assert residue_histogram(f, m, ball) == oracle_residue_counts(f, m, ball)
        # small balls off the origin: the modulus p^m exceeds the grid side
        for _ in range(20):
            p = rng.choice([2, 3, 5])
            f = rng.choice(polys)
            center = tuple(rng.randint(1, p**4) for _ in range(f.nvars))
            ball = Ball.of(p, center, rng.randint(2, 3))
            m = rng.randint(1, 5)
            assert residue_histogram(f, m, ball) == oracle_residue_counts(f, m, ball)

    def test_unused_variables_scale_exactly(self):
        # 3^60 points per residue: the counts leave int64 and must stay exact
        one = residue_histogram(SQUARE, 12, Z3)
        six = residue_histogram(parse_polynomial("x1^2+0*x6"), 12, Ball.of(3, [0] * 6, 0))
        assert six == {r: c * 3**60 for r, c in one.items()}

    def test_total_mass(self):
        h = residue_histogram(parse_polynomial("x1^2+x2^2"), 2, Ball.of(3, [0, 0], 0))
        assert sum(h.values()) == 3 ** (2 * 2)

    def test_requires_integral_ball(self):
        with pytest.raises(DomainError):
            residue_histogram(SQUARE, 1, Ball.of(3, [Fraction(1, 3)], 1))

    def test_exp_sum_recoverable_exactly(self):
        # the level-m histogram is the histogram of E(p^-m, f)
        assert residue_histogram(SQUARE, 2, Z3) == exp_sum(SQUARE, Fraction(1, 9), Z3).counts

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            residue_histogram(SQUARE, 9, Z3, cap=100)


class TestStationaryCertificate:
    def test_unit_derivative_on_small_ball(self):
        f, ball = parse_polynomial("x^2+x+1"), Ball.of(3, [0], 1)
        cert = stationary_certificate(f, ball, expsum_values(f, ball, range(1, 7)))
        assert cert.bound_exponent == 0
        assert cert.threshold == 3
        assert cert.verified_levels == (2, 3, 4, 5, 6)
        assert cert.max_abs == 0.0

    def test_unit_ball_shifted(self):
        ball = Ball.of(3, [1], 1)
        cert = stationary_certificate(SQUARE, ball, expsum_values(SQUARE, ball, range(1, 7)))
        assert cert.bound_exponent == 0 and cert.threshold == 3

    def test_critical_point_detected(self):
        with pytest.raises(CertificateUnavailableError) as exc:
            stationary_certificate(SQUARE, Z3, {})
        center, level = exc.value.residue_class
        assert center == (Fraction(0),)

    def test_irrational_critical_point_indeterminate(self):
        # f' = 3x^2 - 3^20 vanishes only at +-3^(19/2), outside Q_3, but near 0
        # its valuation passes the depth cap, where Hensel's lemma finds no root
        with pytest.raises(CertificateIndeterminate):
            stationary_certificate(parse_polynomial("x^3-3486784401*x"), Z3, {})

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_a_critical_line_ends_the_search_at_its_class_budget(self, p):
        # 4 x1^2 + 4 x1 is critical on the line x1 = -1/2, which meets the ball:
        # every class stays critical, so the search runs out of budget before depth
        f = parse_polynomial("4*x1^2+4*x1", nvars=2)
        start = time.perf_counter()
        with pytest.raises(CertificateIndeterminate, match="class search"):
            stationary_certificate(f, Ball.of(p, [(p - 1) // 2, 0], 1), {})
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("p,poly", [(3, "x^2+x"), (5, "x^3-2*x"), (3, "x1^2+x2^2+x1")])
    def test_a_critical_point_off_the_integers_is_unavailable(self, p, poly):
        # -1/2 in Z_3 and the roots of 3x^2 - 2 in Z_5 are no class centre; at
        # the depth cap Hensel's lemma puts one in the class
        f = parse_polynomial(poly)
        with pytest.raises(CertificateUnavailableError) as exc:
            stationary_certificate(f, Ball.of(p, [0] * f.nvars, 0), {})
        center, level = exc.value.residue_class
        assert level == expsums.DEPTH_CAP
        assert all(g.evaluate(center) % p**level == 0 for g in f.gradient())

    def test_positive_bound_exponent(self):
        # f' = 3(x^2 + 1) and x^2 + 1 is a unit on all of Z_3, so
        # min v(f') = 1 everywhere and no critical point exists.
        f = parse_polynomial("x^3 + 3*x")
        cert = stationary_certificate(f, Z3, expsum_values(f, Z3, range(1, 9)))
        assert cert.bound_exponent == 1
        assert cert.threshold == 27
        assert cert.verified_levels == (4, 5, 6, 7, 8)
        assert cert.max_abs == 0.0

    def test_small_ball_rejected(self):
        with pytest.raises(DomainError):
            stationary_certificate(SQUARE, Ball.of(3, [1], 2), {})

    def test_checks_exactly_the_given_levels_above_the_threshold(self):
        f, ball = parse_polynomial("x^2+x+1"), Ball.of(3, [0], 1)
        # I = 0: level 1 lies below 2I + 2 and is neither checked nor listed
        cert = stationary_certificate(f, ball, {5: 0j, 1: 0.7, 4: 0j})
        assert cert.verified_levels == (4, 5)
        assert cert.max_abs == 0.0
        with pytest.raises(AssertionError):
            stationary_certificate(f, ball, {2: 0j, 3: 0.5})

    def test_a_tiny_nonzero_level_is_not_a_zero(self):
        f, ball = parse_polynomial("x^2+x+1"), Ball.of(3, [0], 1)
        with pytest.raises(AssertionError):
            stationary_certificate(f, ball, {4: 0j, 5: 1e-12})


class TestDecayFit:
    def test_gauss_exact_half(self):
        fit = decay_fit(SQUARE, Z3, expsum_values(SQUARE, Z3, range(1, 7)))
        assert fit.status == "ok"
        assert abs(fit.slope - 0.5) < 1e-9
        assert fit.beta == Fraction(1, 2)
        assert fit.quasi_homogeneous and fit.consistent

    def test_two_squares_slope_one(self):
        f, ball = parse_polynomial("x1^2+x2^2"), Ball.of(3, [0, 0], 0)
        fit = decay_fit(f, ball, expsum_values(f, ball, range(1, 6)))
        assert abs(fit.slope - 1.0) < 1e-9
        assert fit.beta == 1

    def test_cubic_p7(self):
        f, ball = parse_polynomial("x^3"), Ball.of(7, [0], 0)
        fit = decay_fit(f, ball, expsum_values(f, ball, range(1, 7)))
        assert abs(fit.slope - 1 / 3) < 0.05
        assert fit.beta == Fraction(1, 3)

    def test_superpolynomial_when_no_critical_point(self):
        f, ball = parse_polynomial("x^2+x+1"), Ball.of(3, [0], 1)
        fit = decay_fit(f, ball, expsum_values(f, ball, range(2, 7)))
        assert fit.status == "superpolynomial"
        assert fit.slope is None
        # constant term only shifts the phase: beta comes from x^2 + x
        assert fit.beta == 1

    def test_residual_reported(self):
        f, ball = parse_polynomial("x^3"), Ball.of(7, [0], 0)
        fit = decay_fit(f, ball, expsum_values(f, ball, range(2, 7)))
        assert fit.residual is not None and fit.residual >= 0

    def test_levels_below_one_rejected(self):
        with pytest.raises(DomainError):
            decay_fit(SQUARE, Z3, {0: 1.0, 1: 3**-0.5})

    @pytest.mark.parametrize("text, nvars, m", [("x^2", 1, 5), ("x1^2*x2^2", 2, 16)])
    def test_one_nonzero_sample_is_too_few(self, text, nvars, m):
        f, ball = parse_polynomial(text), Ball.of(3, [0] * nvars, 0)
        fit = decay_fit(f, ball, expsum_values(f, ball, [m]))
        assert fit.status == "too_few_samples" and fit.slope is None
        assert fit.samples[0][1] > 0.0009

    def test_an_exact_zero_keeps_the_superpolynomial_status(self):
        fit = decay_fit(SQUARE, Z3, {2: 1e-3, 3: 0j})
        assert fit.status == "superpolynomial" and fit.slope is None

    def test_tiny_samples_are_kept(self):
        fit = decay_fit(SQUARE, Z3, {2: 1e-10, 3: 1e-13, 4: 0j})
        assert fit.status == "ok"
        assert fit.samples[-1] == (4, 0.0)
        assert abs(fit.slope - math.log(1000, 3)) < 1e-9


class TestExactZeros:
    """`value` is exactly 0j iff the sum vanishes, decided by the cyclotomic
    oracle of tests/helpers.py."""

    def test_cubic_vanishes_exactly(self):
        # float evaluation leaves about 4.5e-18 here
        res = exp_sum(parse_polynomial("x^3"), Fraction(1, 5**5), Ball.of(5, [2], 1))
        assert res.const != 0
        assert res.value == 0j
        assert oracle_vanishes(dict(res.counts), 5, res.level)

    def test_seeded_sums_agree_with_the_oracle(self):
        rng = random.Random(12)
        seen = set()
        for _ in range(80):
            p, n = rng.choice((2, 3, 5)), rng.randint(1, 2)
            terms = {
                tuple(rng.randint(0, 4) for _ in range(n)): rng.randint(-4, 4)
                for _ in range(rng.randint(1, 3))
            }
            f = SparsePolynomial.from_terms(n, terms)
            ball = Ball.of(p, [rng.randint(0, p * p) for _ in range(n)], rng.randint(0, 1))
            z = Fraction(rng.randint(1, p * p), p ** rng.randint(1, 6 - 2 * n))
            res = exp_sum(f, z, ball)
            zero = oracle_vanishes(dict(res.counts), p, res.level)
            assert (res.value == 0j) == zero
            seen.add((zero, res.const != 0))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}
