"""Per-layer tracing from outside the library.

`Tracer.install` replaces each traced public function of `padic_dispersion`
by a wrapper, in every module namespace where callers look it up (a module
that did `from .expsums import exp_sum` holds its own reference).  A span
records name, start, end and the span that caused it; a layer's self time
is its spans' durations minus the time their child spans cover.  Counting
wrappers add work counters without a span.  `uninstall` puts the original
objects back.  Wrappers do nothing but call through while `active` is off,
so the output checks are never traced.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict

# (module, attribute, metric prefix); "Class.attr" patches a class member
SPANS = [
    ("cli", "run", "cli.run"),
    ("expsums", "exp_sum", "expsums.exp_sum"),
    ("expsums", "character_sum", "expsums.character_sum"),
    ("expsums", "residue_histogram", "expsums.residue_histogram"),
    ("expsums", "ExpSumResult.value", "expsums.value"),
    ("expsums", "decay_fit", "expsums.decay_fit"),
    ("expsums", "stationary_certificate", "expsums.stationary_certificate"),
    ("newton", "newton_facets", "newton.newton_facets"),
    ("newton", "nondegeneracy_mod_p", "newton.nondegeneracy_mod_p"),
    ("newton", "face_polynomials", "newton.face_polynomials"),
    ("polynomials", "parse_polynomial", "polynomials.parse_polynomial"),
    ("polynomials", "compose_affine", "polynomials.compose_affine"),
    ("schwartz", "fourier_sb", "schwartz.fourier_sb"),
    ("schwartz", "inverse_fourier_sb", "schwartz.inverse_fourier_sb"),
    ("schwartz", "sb_allclose", "schwartz.sb_allclose"),
    ("surface", "GraphHypersurface.__post_init__", "surface.GraphHypersurface"),
    ("surface", "surface_ft", "surface.surface_ft"),
    ("surface", "decay_table", "surface.decay_table"),
    ("surface", "restriction_ratio", "surface.restriction_ratio"),
    ("wave", "SolutionSpec.build", "wave.SolutionSpec.build"),
    ("wave", "solve_u", "wave.solve_u"),
    ("wave", "windowed_spectrum", "wave.windowed_spectrum"),
    ("wave", "solution_grid", "wave.solution_grid"),
    ("wave", "strichartz_report", "wave.strichartz_report"),
]
COUNTS = [
    ("padic", "character", "padic.character"),
    ("expsums", "_mod_histogram", "expsums.mod_histogram"),
    ("wave", "_freq_cells", "wave.freq_cells"),
]
PACKAGE = "padic_dispersion"


def variable_blocks(terms, n: int) -> list[list[int]]:
    """Connected blocks of variables that share a non-constant monomial."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    used = set()
    for exps in terms:
        vs = [j for j, a in enumerate(exps) if a > 0]
        used.update(vs)
        for a, b in zip(vs, vs[1:]):
            parent[find(a)] = find(b)
    blocks: dict[int, list[int]] = {}
    for j in sorted(used):
        blocks.setdefault(find(j), []).append(j)
    return list(blocks.values())


def residue_points(terms, n: int, p: int, level: int) -> int:
    """Points the engine enumerates: sum over blocks of p^(level |block|)."""
    return sum(p ** (level * len(b)) for b in variable_blocks(terms, n))


def freq_cells(spec, level: int) -> int:
    """Cells tiled at one call: p^(n (e + level))."""
    return spec.prime ** (spec.n * (spec.freq_bound + level))


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._local = threading.local()
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._study: tuple[str, set, set] | None = None  # (command, exp_sum keys, surface_ft keys)

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1][0] if stack else None
            frame = [self._next_id, 0.0]  # id, time covered by children
            self._next_id += 1
            if name == "cli.run":
                self._begin_study(args[0].command)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            if name == "cli.run":
                self._end_study()
            t2 = time.perf_counter()
            # the bookkeeping above is tracing overhead: keep it out of the parent's self time
            if stack:
                stack[-1][1] += t2 - t0
            self.self_s[name] += (t1 - t0) - frame[1]
            self.total_s[name] += t1 - t0
            self.calls[name] += 1
            self.spans.append((frame[0], name, t0, t1, parent))
            return result

        return wrapper

    def counter(self, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                after(args, kwargs, result)
            return result

        return wrapper

    def _begin_study(self, command: str):
        self._study = (command, set(), set())

    def _end_study(self):
        command, sums, fts = self._study
        self.counts["cli.expsum_distinct"] += len(sums)
        self.counts["cli.surface_ft_distinct"] += len(fts)
        self._study = None

    # -- counters at layer boundaries ---------------------------------------------

    def _after_exp_sum(self, args, kwargs, result):
        if self._study is not None:
            f, z, ball = args[:3]
            z = z.as_fraction() if hasattr(z, "as_fraction") else z
            self._study[1].add((f.terms, z, ball))
            self.counts["cli.expsum_calls"] += 1

    def _after_surface_ft(self, args, kwargs, result):
        if self._study is not None:
            Y, xi = args[:2]
            xi = tuple(x.as_fraction() if hasattr(x, "as_fraction") else x for x in xi)
            self._study[2].add((Y.phi.terms, Y.window, xi))
            self.counts["cli.surface_ft_calls"] += 1

    def _after_mod_histogram(self, args, kwargs, result):
        terms, n, p, level = args[:4]
        nonconst = [e for e in terms if sum(e) > 0]
        self.counts["expsums.residue_points"] += residue_points(nonconst, n, p, level)
        self.counts["expsums.histogram_entries"] += len(result)

    def _after_freq_cells(self, args, kwargs, result):
        spec, level = args[:2]
        self.counts["wave.freq_cells"] += freq_cells(spec, level)

    def _after_character(self, args, kwargs, result):
        self.counts["padic.character.calls"] += 1

    def _after_transform(self, args, kwargs, result):
        self.counts["schwartz.terms_in"] += len(args[0].terms)
        self.counts["schwartz.terms_out"] += len(result.terms)

    def _after_faces(self, args, kwargs, result):
        self.counts["newton.faces"] += len(result)

    def _after_grid(self, args, kwargs, result):
        self.counts["wave.grid_samples"] += result.values.size

    # -- installing ------------------------------------------------------------

    def install(self):
        after = {
            "expsums.exp_sum": self._after_exp_sum,
            "surface.surface_ft": self._after_surface_ft,
            "schwartz.fourier_sb": self._after_transform,
            "schwartz.inverse_fourier_sb": self._after_transform,
            "newton.face_polynomials": self._after_faces,
            "wave.solution_grid": self._after_grid,
            "expsums.mod_histogram": self._after_mod_histogram,
            "wave.freq_cells": self._after_freq_cells,
            "padic.character": self._after_character,
        }
        for module, attr, name in SPANS:
            self._wrap(module, attr, lambda fn, n=name: self.span(n, fn, after.get(n)))
        for module, attr, name in COUNTS:
            self._wrap(module, attr, lambda fn, n=name: self.counter(fn, after[n]))

    def _wrap(self, module: str, attr: str, make):
        mod = sys.modules[f"{PACKAGE}.{module}"]
        if "." in attr:
            cls_name, member = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[member]
            if isinstance(raw, property):
                new = property(make(raw.fget))
            elif isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._patched.append((cls, member, raw))
            setattr(cls, member, new)
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for name, other in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._patched.append((other, key, value))
                    setattr(other, key, wrapper)

    def uninstall(self):
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    # -- results ---------------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round self times, calls and work counts of the traced rounds."""
        out: dict[str, float] = {}
        for _, _, name in SPANS:
            out[f"{name}.self_s"] = self.self_s[name] / rounds
        for name in ("expsums.exp_sum", "expsums.character_sum"):
            out[f"{name}.calls"] = self.calls[name] / rounds
        for name in ("cli.expsum_calls", "cli.expsum_distinct", "cli.surface_ft_calls",
                     "cli.surface_ft_distinct", "expsums.residue_points",
                     "expsums.histogram_entries", "newton.faces", "padic.character.calls",
                     "schwartz.terms_in", "schwartz.terms_out", "wave.freq_cells",
                     "wave.grid_samples"):
            out[name] = self.counts[name] / rounds
        engine_s = self.total_s["expsums.character_sum"] + self.total_s["expsums.residue_histogram"]
        out["expsums.points_per_s"] = (
            self.counts["expsums.residue_points"] / engine_s if engine_s else 0.0)
        return out
