"""Exact evaluation of the oscillatory integrals E_A(z, f) = int_A Psi(z f) dx.

The integrand is constant on fine enough cosets, so every integral here is a
finite sum of roots of unity: after x = center + p^e y the phase is
(const + step h(y)) / p^level over y in [0, p^L)^n, h integral and read mod
p^L = p^level / step (a histogram may count a wider box).  h splits over
blocks of coupled variables, so a sum is a product of block means, one per
distinct block.

Values come from the stationary-phase recursion alone (Igusa, An introduction
to the theory of local zeta functions, 2000, ch. 10; Denef, Sem. Bourbaki 741,
1991): E_L(h) keeps the classes a mod p with grad h(a) = 0 mod p, each through
h(a + p y) - h(a) = p^c h_a(y), down to E_1, one mesh over F_p^d (`_tally`).
Its tallies are exact Python ints, so a value evaluates nothing mod more than
p and needs no MODULUS_LIMIT; a zero is decided exactly and every other mean
is one fixed-order sum.  `evaluate` values a level table with one memo, and
`value` is its one-result call; the cap counts the work as it is done.  A node
polynomial's coefficients lie in (-p^k/2, p^k/2] (`_centred`), and its
stationary classes and their expansions are made once per memo for all its
levels; `level_table` values a whole table {m: E(p^-m phase)}.

Counts are built on demand from the same nodes (`_counts`; `_edges` is the
one Hensel split), and only they are bound by MODULUS_LIMIT and int64:
`dense`, `counts` and `residue_histogram` read one column per distinct block
and combine the columns by exact FFT convolution in integer limbs
(`_combine`).

`decay_fit` and `stationary_certificate` evaluate no sum: they read a table
{m: E_A(p^-m, f)} that the caller evaluates once.
"""

from __future__ import annotations

import cmath
import math
import weakref
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import product
from typing import ItemsView, Iterable, Iterator, Mapping, Sequence, ValuesView

import numpy as np

from .errors import (
    CertificateIndeterminate,
    CertificateUnavailableError,
    DomainError,
    ResourceCapError,
)
from .newton import beta_and_t0, determinant, newton_facets, quasi_homogeneous_detect
from .padic import Ball, DEFAULT_ENUMERATION_CAP, check_prime, int_valuation, padic_fraction
from .polynomials import Exponents, SparsePolynomial, checked_modulus, compose_affine
from .polynomials import lattice_form, poly_residues

_CHUNK = 1 << 22
# work in mesh points (`_edges`, `_tally`, `_counts`, `_charge`): a node, a term it evaluates on
# its mesh or a stationary class costs _NODE_COST, a term formed or tally entry merged _TERM_COST,
# a count entry 1; of the values tried on a 2-core host, none took over about 80 ns a unit (8 s
# at the default cap)
_NODE_COST = 1200
_TERM_COST = 30
# every FFT product of a count limb with a column stays below 2^_FFT_BITS, far
# inside the 2^53 that float64 holds exactly, so it rounds to the exact integers
_FFT_BITS = 42
# decay_fit: how far below beta_f a fitted slope may fall and still count as
# consistent, for quasi-homogeneous phases and for all others
SHARP_TOLERANCE = 0.05
EPS_MARGIN = 0.1
# stationary_certificate: how many residue-class refinements below the ball
# it tries before it calls the gradient valuation unstable
DEPTH_CAP = 12


@dataclass
class ExpSumResult:
    """An oscillatory ball integral kept as its integer terms and box:
    value = volume * e(const / p^level) * prod_b (S_b / T_b)^k_b over the
    `blocks` (h_b, k_b): the distinct parts h_b of h in their own variables,
    each shared by k_b blocks, S_b the sum of e(h_b(y) / p^L) over the box
    [0, p^box_level)^|b|, T_b its point count and p^L = p^level / step.

    `value` takes each S_b / T_b from the stationary-phase recursion and builds
    no count (`_block_mean`): it is exactly 0j iff a block's sum vanishes, or
    when a nonzero value is below the smallest float.

    `dense` and `counts` build the histogram on first read: column j of
    `dense` counts the points of the j-th distinct block whose part of the
    phase is step * r mod p^level, the phase sums `powers[j]` = k_j blocks
    with that column, and each point stands for `multiplicity` points of the
    unused variables.
    """

    prime: int
    level: int
    terms: dict[Exponents, int]
    dim: int
    box_level: int
    blocks: tuple[tuple[tuple, int], ...]
    const: int
    step: int
    scale: Fraction
    cap: int
    _value: complex | None = field(default=None, repr=False)

    def __post_init__(self):
        check_prime(self.prime)

    @cached_property
    def dense(self) -> np.ndarray:
        return _mod_histogram(
            self.terms, self.dim, self.prime, self.box_level, self._box, self.cap
        )

    @property
    def powers(self) -> tuple[int, ...]:
        return tuple(k for _, k in self.blocks) or (1,)  # h = 0: the column [1]

    @property
    def counts(self) -> ResidueCounts:
        """{residue mod p^level: count} over the residues that occur."""
        self.dense  # built here, so a refusal comes from this read
        return ResidueCounts(self)

    @property
    def multiplicity(self) -> int:
        used = sum(len(local[0][0]) * k for local, k in self.blocks)
        return self.prime ** (self.box_level * (self.dim - used))

    @property
    def total_count(self) -> int:
        return self.prime ** (self.dim * self.box_level)

    @property
    def volume(self) -> Fraction:
        return self.scale * self.total_count

    @property
    def value(self) -> complex:
        if self._value is None:
            evaluate([self])
        return self._value

    @property
    def _box(self) -> int:
        """L: the blocks are read mod p^L = p^level / step."""
        return self.level - int_valuation(self.step, self.prime)


def evaluate(results: Iterable[ExpSumResult]) -> None:
    """Evaluate every result not yet evaluated, in order, from one recursion
    memo, so each node of every block and level is expanded once; the work of
    the whole call is counted against the cap of the result being evaluated."""
    memo, work = {}, [0]
    for res in [res for res in results if res._value is None]:
        value = float(res.volume) * cmath.exp(2j * math.pi * (res.const / res.prime**res.level))
        for local, k in res.blocks:
            factor = _block_mean(res.prime, local, res._box, memo, work, res.cap)
            if factor == 0:
                value = 0j
                break
            value *= factor**k
        res._value = value


class ResidueCounts(Mapping[int, int]):
    """Read-only {residue mod p^level: count} view of an ExpSumResult: the
    residues that occur, in ascending dense index, each count an exact
    Python int times the multiplicity.  A single column is read in place;
    several are combined by `_combine` once per view, on its first read, and
    kept while that view lives and is the view read last: one combined
    vector at most is alive, so views held after a read, and the
    ExpSumResult, keep nothing.  It compares equal to the dict with the same
    items."""

    # (weak reference to the view read last, its combined counts)
    _last: tuple = (None, None)

    def __init__(self, res: ExpSumResult):
        self._res = res

    def _counts(self) -> np.ndarray:
        ref, counts = ResidueCounts._last
        if ref is None or ref() is not self:
            counts = _combine(self._res.dense, self._res.powers)
            ResidueCounts._last = (weakref.ref(self, ResidueCounts._forget), counts)
        return counts

    @staticmethod
    def _forget(ref: weakref.ref) -> None:
        if ResidueCounts._last[0] is ref:
            ResidueCounts._last = (None, None)

    def __getitem__(self, key: int) -> int:
        res = self._res
        modulus = res.prime**res.level
        if isinstance(key, (int, np.integer)) and 0 <= key < modulus:
            r, off = divmod((int(key) - res.const) % modulus, res.step)
            if not off:
                count = int(self._counts()[r])
                if count:
                    return count * res.multiplicity
        raise KeyError(key)

    def __len__(self) -> int:
        return int(np.count_nonzero(self._counts()))

    # iteration builds a transient dict in bulk, not one lookup per key
    def __iter__(self) -> Iterator[int]:
        return iter(self._dict())

    def items(self) -> ItemsView[int, int]:
        return self._dict().items()

    def values(self) -> ValuesView[int]:
        return self._dict().values()

    def __repr__(self) -> str:
        return repr(self._dict())

    def _dict(self) -> dict[int, int]:
        res, counts = self._res, self._counts()
        support = np.flatnonzero(counts)
        keys = (res.const + res.step * support) % res.prime**res.level
        mult = res.multiplicity
        return dict(zip(keys.tolist(), [c * mult for c in counts[support].tolist()]))


# -- block scans ----------------------------------------------------------------


def _local_terms(block: tuple[int, ...], terms: Mapping[Exponents, int]) -> list:
    """The block's part of the polynomial, in the block's own variables."""
    return [
        (tuple(exps[j] for j in block), coeff)
        for exps, coeff in terms.items()
        if any(exps[j] > 0 for j in block)
    ]


def _distinct_blocks(terms: Mapping[Exponents, int]) -> dict[tuple, list[tuple[int, ...]]]:
    """The connected blocks of variables that share a monomial, in order,
    grouped by their part of the polynomial (its terms in the block's own
    variables, sorted) in the order each part first occurs."""
    groups: list[set[int]] = []
    for exps in terms:
        block = {j for j, a in enumerate(exps) if a > 0}
        for other in [g for g in groups if g & block]:
            block |= other
            groups.remove(other)
        groups.append(block)
    kinds: dict[tuple, list[tuple[int, ...]]] = {}
    for block in sorted(tuple(sorted(g)) for g in groups if g):
        kinds.setdefault(tuple(sorted(_local_terms(block, terms))), []).append(block)
    return kinds


def _mesh(d: int, side: int) -> Iterator[list]:
    """[0, side)^d in slabs of at most _CHUNK points, as broadcast coordinates:
    the fewest leading variables that leave at most _CHUNK points are fixed,
    all but the last as scalars and the last in rows; the rest broadcast."""
    free = d - 1
    while free and side**free > _CHUNK:
        free -= 1
    rows = _CHUNK // side**free
    rest = [np.arange(side, dtype=np.int64)] * free
    for prefix in product(range(side), repeat=d - free - 1):
        for lo in range(0, side, rows):
            yield [*prefix, *np.ix_(np.arange(lo, min(lo + rows, side), dtype=np.int64), *rest)]


def _gradient(h: Sequence) -> list[list]:
    """The partial derivatives of (exponents, coeff) terms h, one list each."""
    d = len(h[0][0])
    return [[(e[:i] + (e[i] - 1,) + e[i + 1 :], c * e[i]) for e, c in h if e[i]] for i in range(d)]


def _block_counts(
    block: tuple[int, ...], terms: Mapping[Exponents, int], width: int, p: int, level: int,
    work: list | None = None, cap: int = DEFAULT_ENUMERATION_CAP,
) -> np.ndarray:
    """Counts of the block's part h of the polynomial mod p^L, L = level, over
    [0, width)^d, d = len(block), width = p^W with W >= L: with h = p^v g, g
    primitive, residue p^v s counts p^(d(v+W-L)) N_(L-v)(g)[s] (`_counts`), and
    h = 0 mod p^L when v >= L.  The work is charged to `work` against `cap`."""
    g, k, v = _primitive(p, _local_terms(block, terms), level)
    column = _counts(p, g, k, {}, [0] if work is None else work, cap) if k else np.ones(1, np.int64)
    scale = (width // p**k) ** len(block)
    if scale > 1:
        column *= scale  # in place: the memo that held it is gone
    if not v:
        return column
    counts = np.zeros(p**level, dtype=np.int64)
    counts[:: p**v] = column
    return counts


def _primitive(p: int, local: Sequence, level: int) -> tuple[tuple, int, int]:
    """(g, k, v) with h = p^v g mod p^L for a block's part h = `local` of the
    polynomial, L = level: v = min(L, v_p(h)), k = L - v, and g, primitive
    when k > 0, has its terms centred mod p^k (`_centred`)."""
    v = min(level, *(int_valuation(c, p) for _, c in local))
    k = level - v
    return tuple((e, r) for e, c in local if (r := _centred(c // p**v, p**k))), k, v


# -- the stationary-phase recursion ----------------------------------------------


def _block_mean(p: int, local: Sequence, level: int, memo: dict, work: list, cap: int) -> complex:
    """The mean of e(h(y) / p^L) over [0, p^L)^d, h = `local` a block's part of
    the polynomial in its d variables, L = level: with h = p^v g, g primitive,
    E_k(g), k = L - v (1 when k = 0).  It is exactly 0j when the `_tally` of g
    is empty, else one sum over its sorted residues, each weight T[r] / p^(dk)
    and angle r / p^k (centred) rounded once from the exact fraction."""
    g, k, _ = _primitive(p, local, level)
    if not k:
        return 1 + 0j
    modulus, scale = p**k, p ** (len(local[0][0]) * k)
    return sum(
        t / scale * cmath.exp(2j * math.pi * ((r if 2 * r < modulus else r - modulus) / modulus))
        for r, t in sorted(_tally(p, g, k, memo, work, cap).items())
    ) + 0j


def _tally(p: int, h: tuple, k: int, memo: dict, work: list, cap: int) -> dict[int, int]:
    """{r: T[r]} with E_k(h) = p^(-dk) sum_r T[r] e(r / p^k), E_k(h) the mean of
    e(h(y) / p^k) over [0, p^k)^d, h primitive with terms mod p^k.

    E_1 is one mesh over F_p^d.  For k >= 2 a class a mod p with grad h(a) != 0
    mod p sums to 0 (y -> y + p^(k-2) z is a full period in z); the others have
    h(a + p y) = h(a) + p^c h_a(y), c >= 2, so E_k(h) = p^-d sum_a e(h(a) / p^k)
    E_(k-c)(h_a), E_j = 1 for j <= 0: h_a's tally moves to h(a) + p^c r mod p^k,
    its weights times p^(d(c-1)).  A stack walks the tree, each node once per
    `memo` {(p, h, k): tally}, which also keeps the expansions of `_edges`.
    A tally sums to 0 iff it is invariant under r -> r + p^(k-1) (Phi_{p^k}(x)
    = Phi_p(x^(p^(k-1))), Lam & Leung, J. Algebra 224, 2000): it is stored
    empty.  Merging costs _TERM_COST an entry.
    """
    stack, edges = [((p, h, k), p**k)], {}  # each node with its modulus p^k
    while stack:
        node, modulus = stack[-1]
        if node in memo:
            stack.pop()
        elif node not in edges:
            edges[node] = _edges(*node, modulus, memo, work, cap)
            stack += [(c, modulus // p ** (node[2] - c[2])) for _, _, c in edges[node]
                      if c and c not in memo]  # a child's modulus raises no power of p again
        else:
            moved, tally = edges.pop(node), {}
            entries = sum(len(memo[c]) if c else 1 for _, _, c in moved)
            _charge(work, _TERM_COST * entries, cap, modulus)
            for r, weight, child in moved:  # a leaf adds weight at r, a child at r + p^c s
                step = p ** (node[2] - child[2]) if child else 0
                for s, t in memo[child].items() if child else [(0, 1)]:
                    s = (r + step * s) % modulus
                    tally[s] = tally.get(s, 0) + weight * t
            shift = modulus // p
            invariant = all(tally.get((r + shift) % modulus) == t for r, t in tally.items())
            memo[stack.pop()[0]] = {} if invariant else tally
    return memo[p, h, k]


def _counts(p: int, h: tuple, k: int, memo: dict, work: list, cap: int) -> np.ndarray:
    """N_k(h)[r] = #{y mod p^k : h(y) = r mod p^k} from the nodes of `_tally`.

    A class a mod p with grad h(a) != 0 mod p spreads p^((d-1)(k-1)) points
    onto every r = h(a) mod p (Hensel): those classes are the level-1 counts
    less one per stationary edge.  A stationary edge (r, weight, child) adds
    weight N_(k-c)(h_a)[s] at r + p^c s, a leaf its weight at r.  Each node is
    built once per `memo` and charged its p^k entries before they exist; p^k
    is under MODULUS_LIMIT, so k <= 31 and plain recursion is enough."""
    if (p, h, k) in memo:
        return memo[p, h, k]
    modulus = p**k
    edges = _edges(p, h, k, modulus, memo, work, cap)
    _charge(work, modulus, cap, modulus)
    if k == 1:  # every edge is a leaf: the mesh's count at r
        counts = np.zeros(p, dtype=np.int64)
    else:
        mod_p = tuple((e, r) for e, c in h if (r := _centred(c, p)))
        spread = _counts(p, mod_p, 1, memo, work, cap).copy()
        for r, _, _ in edges:
            spread[r % p] -= 1
        counts = np.tile(spread * p ** ((len(h[0][0]) - 1) * (k - 1)), modulus // p)
    for r, weight, child in edges:
        if child is None:
            counts[r] += weight
        else:
            low = p ** (k - child[2])  # p^c: the residues r + p^c s share r mod p^c
            column = counts.reshape(-1, low)[:, r % low]
            column += weight * np.roll(_counts(*child, memo, work, cap), r // low)
    memo[p, h, k] = counts
    return counts


def _charge(work: list, units: int, cap: int, modulus: int) -> None:
    """Add `units` to the work done, work[0], times one more per 2^17 bits of the
    node's modulus p^k, whose Python ints slow its steps; refuse past `cap`."""
    work[0] += units * (1 + (modulus.bit_length() >> 17))
    if work[0] > cap:
        raise ResourceCapError(work[0], cap, what="mesh points and node charges")


def _edges(
    p: int, h: tuple, k: int, modulus: int, memo: dict, work: list, cap: int
) -> list[tuple]:
    """The node (p, h, k) of `_tally` and `_counts` as (r, weight, child)
    edges, a leaf when child is None.  Charged first: the mesh F_p^d, and
    _NODE_COST for the node and each term it evaluates there (h, or grad h for
    k >= 2, mod p); then for each stationary class, _NODE_COST and _TERM_COST
    a term formed.  The classes of h and their integer expansions h(a + p y)
    do not depend on k: they are made once per `memo`, under (p, h), and each
    level only reduces them mod p^k; a reused expansion is charged as if it
    were made again, so the work count does not depend on the reuse."""
    d = len(h[0][0])
    rows = [[(e, c) for e, c in row if c % p] for row in ([h] if k == 1 else _gradient(h))]
    _charge(work, p**d + _NODE_COST * (1 + sum(map(len, rows))), cap, modulus)
    if k == 1:
        meshes = (poly_residues(rows[0], x, p).ravel() for x in _mesh(d, p))
        counts = sum(np.bincount(mesh, minlength=p) for mesh in meshes)
        return [(r, n, None) for r, n in enumerate(counts.tolist()) if n]
    expansion = _NODE_COST + _TERM_COST * sum(math.prod(a + 1 for a in e) for e, _ in h)
    shifts = memo.get((p, h))
    if shifts is not None:
        for _ in shifts:
            _charge(work, expansion, cap, modulus)
    else:
        terms, shifts = dict(h), []
        for coords in _mesh(d, p):
            kept = np.ones(np.broadcast_shapes(*map(np.shape, coords)), dtype=bool)
            for row in rows:
                kept &= poly_residues(row, coords, p) == 0
            at = np.nonzero(kept)
            prefix = tuple(coords[: d - len(at)])  # the scalars, then each axis at the kept indices
            for point in zip(*(x.ravel()[i].tolist() for x, i in zip(coords[len(prefix) :], at))):
                _charge(work, expansion, cap, modulus)
                shifted = compose_affine(terms, prefix + point, p)
                shifts.append((shifted.pop((0,) * d, 0), shifted))
        memo[p, h] = shifts
    edges = []
    for const, shifted in shifts:
        rest = {e: r for e, a in shifted.items() if (r := _centred(a, modulus))}
        c = min((int_valuation(a, p) for a in rest.values()), default=k)
        child = (p, tuple(sorted((e, a // p**c) for e, a in rest.items())), k - c)
        edges.append((const % modulus, p ** (d * (min(c, k) - 1)), child if c < k else None))
    return edges


def _centred(c: int, modulus: int) -> int:
    """c mod `modulus` in (-modulus/2, modulus/2]: the one reduction of a node
    polynomial's coefficients, so a small one, such as the -a of -a y^3, is the
    same integer at every level and one key serves them all."""
    r = c % modulus
    return r - modulus if 2 * r > modulus else r


# -- histograms -----------------------------------------------------------------


def _limbs(rows: np.ndarray, bits: int) -> np.ndarray:
    """Nonnegative int64 rows, row i of weight 2^(bits*i), carried into limbs
    below 2^bits: the rows of the result spell the same numbers in base
    2^bits."""
    mask = (1 << bits) - 1
    out, carry = [], np.zeros(rows.shape[1], dtype=np.int64)
    for row in rows:
        row = row + carry
        out.append(row & mask)
        carry = row >> bits
    while carry.any():
        out.append(carry & mask)
        carry >>= bits
    return np.array(out)


def _combine(dense: np.ndarray, powers: Sequence[int]) -> np.ndarray:
    """The exact cyclic convolution of every column, column j taken powers[j]
    times: the count vector of the whole phase.

    The running vector is held in limbs of `bits` bits, chosen from the
    modulus and the largest column count so that every FFT product of a limb
    with a column stays below 2^_FFT_BITS; a product that does not round to
    integers with the right total refuses with ResourceCapError.  The counts
    are int64 while they fit and Python ints (an object array) after.
    """
    if powers == (1,):
        return dense[:, 0]
    size = len(dense)
    needed = size.bit_length() + int(dense.max()).bit_length()
    bits = _FFT_BITS - needed
    if bits < 1:
        raise ResourceCapError(needed + 1, _FFT_BITS, what="bits in one FFT limb product")
    acc = _limbs(dense[:, :1].T.astype(np.int64), bits)
    for j, k in enumerate(powers):
        column = dense[:, j]
        spectrum = np.fft.rfft(column)
        total = np.uint64(column.sum(dtype=np.uint64))
        for _ in range(k - (j == 0)):
            approx = np.fft.irfft(np.fft.rfft(acc, axis=1) * spectrum, size, axis=1)
            out = np.rint(approx).astype(np.int64)
            # the totals are compared mod 2^64, where uint64 sums wrap
            want = acc.sum(axis=1, dtype=np.uint64) * total
            if np.abs(approx - out).max() > 0.25 or not np.array_equal(
                out.sum(axis=1, dtype=np.uint64), want
            ):
                raise ResourceCapError(54, 53, what="bits in one FFT limb product")
            acc = _limbs(out, bits)
    counts = acc[-1] if len(acc) * bits < 63 else acc[-1].astype(object)
    for limb in acc[-2::-1]:
        counts = (counts << bits) + limb
    return counts


def _mod_histogram(
    terms: Mapping[Exponents, int], n: int, p: int, level: int, mod_level: int, cap: int
) -> np.ndarray:
    """A (p^mod_level, distinct blocks) array: column j counts N_r = #{y :
    h_j(y) = r mod p^mod_level} over y in [0, p^level)^d, level >= mod_level,
    for the j-th distinct part h_j of h (`_distinct_blocks`), d its variables.

    `terms` has no constant term; h splits over connected variable blocks,
    h = sum_b h_b, and variables h does not use are not enumerated.  Refused
    before any point is evaluated: a modulus past MODULUS_LIMIT, a box of 2^63
    points or more (each count is an int64) and columns of more entries than
    the cap; the nodes of `_counts` are then charged to one work count as they
    are built.  The array has the narrowest unsigned dtype that holds its
    largest count; h = 0 gives [[1]].
    """
    width, modulus = p**level, checked_modulus(p**mod_level, "residue classes")
    kinds = _distinct_blocks(terms)
    box = sum(width ** len(block) for blocks in kinds.values() for block in blocks)
    if box >= 1 << 63:
        raise ResourceCapError(box, (1 << 63) - 1, what="points counted in int64")
    if len(kinds) * modulus > cap:
        raise ResourceCapError(len(kinds) * modulus, cap, what="count entries")
    if not kinds:
        return np.ones((1, 1), dtype=np.uint8)
    columns, work = [], [0]
    for blocks in kinds.values():
        counts = _block_counts(blocks[0], terms, width, p, mod_level, work, cap)
        columns.append(counts.astype(np.min_scalar_type(int(counts.max()))))
    # stacking promotes every column to the widest; one column is read in place
    return np.stack(columns, axis=1) if len(columns) > 1 else columns[0][:, None]


def _result(
    terms: Mapping[Exponents, int], n: int, p: int, key_level: int, radius: int, cap: int,
    level: int | None = None,
) -> ExpSumResult:
    """The sum of e(H(y) / p^key_level) over y in [0, p^level)^n, as its
    terms, each point of volume p^-n(radius + level).

    The non-constant terms share p^w, w <= key_level, so they are step * h,
    step = p^w, read as h mod p^L, L = key_level - w; the box side p^level
    is p^L unless a histogram asks for a wider one (never a narrower one:
    an integral f has w >= min(radius, key_level)).  Nothing is refused
    here: `value` counts its work against `cap` as it is done, and a read of
    the counts refuses what `_mod_histogram` refuses, before any point is
    evaluated."""
    const = terms.get((0,) * n, 0) % p**key_level
    nonconst = {e: c for e, c in terms.items() if any(e)}
    w = min([key_level] + [int_valuation(c, p) for c in nonconst.values()])
    step, mod_level = p**w, key_level - w
    level = mod_level if level is None else level
    h = {e: c // step for e, c in nonconst.items()}
    blocks = tuple((local, len(found)) for local, found in _distinct_blocks(h).items())
    scale = Fraction(p) ** (-n * (radius + level))
    return ExpSumResult(p, key_level, h, n, level, blocks, const, step, scale, cap)


# -- the ball character-sum engine -------------------------------------------


def character_sum(
    phase: Mapping[Exponents, Fraction | int],
    ball: Ball,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ExpSumResult:
    """int_ball Psi(phase(x)) dx as an exact histogram.

    `phase` maps exponent vectors to coefficients in Z[1/p].  The substitution
    x = center + p^e y makes the integrand a function of y in Z_p^n that is
    constant on cosets mod p^L, with L read off the coefficient valuations.
    """
    p, e = ball.prime, ball.radius_exp
    terms, key_level = lattice_form(phase, ball.center_fractions(), Fraction(p) ** e, p)
    return _result(terms, ball.dim, p, key_level, e, cap)


def level_table(
    phase: Mapping[Exponents, Fraction | int],
    ball: Ball,
    levels: Iterable[int],
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> dict[int, complex]:
    """{m: character_sum(p^-m phase, ball).value} for m in levels, from one
    lattice form phase = terms / p^K: level m is terms over p^(K+m), or terms
    p^-(K+m) over 1 where K + m < 0, and all are valued in one `evaluate`
    call, their work counted together against `cap`."""
    p, e = ball.prime, ball.radius_exp
    terms, K = lattice_form(phase, ball.center_fractions(), Fraction(p) ** e, p)
    sums = {}
    for m in levels:
        up = p ** max(0, -K - m)
        sums[m] = _result({a: c * up for a, c in terms.items()}, ball.dim, p, max(0, K + m), e, cap)
    evaluate(sums.values())
    return {m: res.value for m, res in sums.items()}


def exp_sum(
    f: SparsePolynomial,
    z: Fraction | int,
    ball: Ball,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
) -> ExpSumResult:
    """E_A(z, f) = int_A Psi(z f(x)) |dx| over the ball A.

    z = 0 is rejected: the value there is just vol(A).  `threads` is accepted
    and ignored: every sum runs on the calling thread.
    """
    z = padic_fraction(ball.prime, z)
    if z == 0:
        raise DomainError("z = 0 rejected: E_A(0, f) = vol(A)")
    if f.nvars != ball.dim:
        raise DomainError("polynomial arity does not match the ball dimension")
    return character_sum(f.scale(z), ball, cap=cap)


def residue_histogram(
    f: SparsePolynomial,
    m: int,
    ball: Ball,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ResidueCounts:
    """N_m(c) = #{x mod p^m in A : f(x) = c mod p^m}, exactly.

    Requires an integral ball.  sum_c N_m(c) = p^(n m) * vol(A).
    """
    if m < 1:
        raise DomainError("level m must be >= 1")
    if not ball.is_integral():
        raise DomainError("residue histograms need a ball inside Z_p^n")
    p, n, e = ball.prime, ball.dim, ball.radius_exp
    terms, _ = lattice_form(dict(f.terms), ball.center_fractions(), p**e, p)  # K = 0: integral
    return _result(terms, n, p, m, e, cap, max(0, m - e)).counts


# -- stationary phase ---------------------------------------------------------


@dataclass(frozen=True)
class StationaryCertificate:
    """Exact I(f, A) with the Lemma-style vanishing threshold |z| > p^(2I+1)."""

    bound_exponent: int
    threshold: int
    verified_levels: tuple[int, ...]
    max_abs: float  # always 0.0: every verified level is an exact zero


def stationary_certificate(
    f: SparsePolynomial,
    ball: Ball,
    values: Mapping[int, complex],
) -> StationaryCertificate:
    """Compute I(f, A) = sup_A min_i v(df/dx_i) by refining integer residue
    classes and verify E_A(p^-m, f) = 0 exactly at every given level m with
    p^m above the threshold.

    `values` maps m to E_A(p^-m, f); levels below 2I + 2 are not checked.
    A must be a union of residue classes mod p (radius exponent 0 or 1,
    inside Z_p^n): that is the hypothesis under which the vanishing bound
    holds.  A critical point in A aborts with the offending class: one at a
    class centre, or, at depth DEPTH_CAP, one that Hensel's lemma places in it.
    Each class queued is charged _NODE_COST; past DEFAULT_ENUMERATION_CAP the
    search is indeterminate, as it is past DEPTH_CAP.
    """
    if f.is_constant():
        raise DomainError("polynomial is constant")
    if f.nvars != ball.dim:
        raise DomainError("polynomial arity does not match the ball dimension")
    if not ball.is_integral() or ball.radius_exp > 1:
        raise DomainError(
            "certificate requires a ball of radius exponent 0 or 1 inside Z_p^n"
        )
    p = ball.prime
    grad = f.gradient()
    start_level = max(0, ball.radius_exp)
    queue = deque([(tuple(map(int, ball.center_fractions())), start_level)])
    bound, work = 0, _NODE_COST
    while queue:
        center, k = queue.popleft()
        derivs = [g.evaluate(center) for g in grad]
        if not any(derivs):
            raise CertificateUnavailableError((center, k))
        vmin = min(int_valuation(v, p) for v in derivs if v)
        if vmin < k:
            bound = max(bound, vmin)
            continue
        if k - start_level >= DEPTH_CAP:
            # Hensel: with w = v(det H(center)) and vmin > 2w, grad f has a zero
            # within p^(vmin - w) of the centre, so inside the class when vmin - w >= k
            d = determinant([[h.evaluate(center) for h in g.gradient()] for g in grad])
            w = int_valuation(d, p) if d else math.inf
            if vmin > 2 * w and vmin - w >= k:
                raise CertificateUnavailableError((center, k))
            raise CertificateIndeterminate(
                f"gradient valuation did not stabilise within depth {DEPTH_CAP}"
            )
        work += _NODE_COST * p**ball.dim
        if work > DEFAULT_ENUMERATION_CAP:
            raise CertificateIndeterminate(
                f"class search passed {DEFAULT_ENUMERATION_CAP} units at depth {k - start_level}"
            )
        step = p**k
        for t in product(range(p), repeat=ball.dim):
            queue.append((tuple(c + step * ti for c, ti in zip(center, t)), k + 1))
    threshold = p ** (2 * bound + 1)
    verified = tuple(m for m in sorted(values) if m >= 2 * bound + 2)
    for m in verified:
        if values[m] != 0:
            raise AssertionError(f"E_A vanishing failed at m={m}: |E| = {abs(values[m])}")
    return StationaryCertificate(bound, threshold, verified, 0.0)


# -- decay fits ----------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    """Least-squares slope of -log_p |E(p^-m, f)| against m."""

    samples: tuple[tuple[int, float], ...]
    slope: float | None
    intercept: float | None
    residual: float | None
    status: str  # "ok", or with < 2 nonzero samples "superpolynomial" (some
    # sample is an exact zero) or "too_few_samples" (none is)
    beta: Fraction | None
    quasi_homogeneous: bool
    consistent: bool | None


def fit_line(
    values: Mapping[int, complex], p: int
) -> tuple[list[tuple[int, float]], tuple[float, float, float] | None]:
    """The samples (m, |E_m|) of a table {m: E_m}, sorted by m, and the
    least-squares line (slope, intercept, residual) of -log_p |E_m| against
    m over the nonzero samples, None with fewer than two of them."""
    samples = [(m, abs(values[m])) for m in sorted(values)]
    points = [(m, -math.log(a, p)) for m, a in samples if a != 0]
    n = len(points)
    if n < 2:
        return samples, None
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    rss = sum((y - slope * x - intercept) ** 2 for x, y in points)
    return samples, (slope, intercept, math.sqrt(rss / n))


def decay_fit(
    f: SparsePolynomial,
    ball: Ball,
    values: Mapping[int, complex],
) -> DecayFit:
    """Fit the empirical decay exponent of |E(p^-m, f)| and compare it with
    the Newton-polyhedron exponent beta_f.

    `values` maps each level m >= 1 to E_A(p^-m, f); the ball only supplies p.
    Exact zeros are left out of the fit.  With fewer than two other samples
    there is no slope: the status is "superpolynomial" (stationary-phase
    regime) when some sample is an exact zero and "too_few_samples" when none
    is.  The consistency flag applies SHARP_TOLERANCE for quasi-homogeneous
    phases and EPS_MARGIN otherwise.
    """
    if any(m < 1 for m in values):
        raise DomainError("m range must be >= 1")
    beta = witness = None
    reduced = SparsePolynomial.from_terms(f.nvars, {e: c for e, c in f.terms if sum(e) > 0})
    if not reduced.is_constant():
        P = newton_facets(reduced)
        beta, _ = beta_and_t0(P)
        witness = quasi_homogeneous_detect(P)
    samples, fit = fit_line(values, ball.prime)
    if fit is None:
        status = "superpolynomial" if any(a == 0 for _, a in samples) else "too_few_samples"
        return DecayFit(tuple(samples), None, None, None, status, beta, witness is not None, None)
    slope, intercept, residual = fit
    consistent = None
    if beta is not None:
        margin = SHARP_TOLERANCE if witness is not None else EPS_MARGIN
        consistent = slope >= float(beta) - margin
    return DecayFit(
        tuple(samples), slope, intercept, residual, "ok", beta,
        witness is not None, consistent,
    )
