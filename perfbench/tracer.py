"""Outside-in tracing of seshadri's public functions.

`Tracer.install()` replaces each listed function with a timing wrapper
under every name that binds it in a loaded `seshadri.*` module (the CLI
and `constants` import several functions by name), so calls made inside
the package are seen too.  `uninstall()` puts the originals back.

A span is one call of a wrapped function.  Its self time is its duration
minus the durations of the wrapped calls made inside it.  Total time
counts only the outermost span of a name, so recursion is not counted
twice.  A few wrappers also read counts off arguments and results.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

TRACED = {
    "cli": ("load_instance",),
    "groebner": (
        "buchberger",
        "normal_form_against",
        "s_polynomial",
        "ideal_quotient",
        "intersect",
        "saturate",
        "hilbert_data",
        "graded_piece",
    ),
    "geometry": (
        "multiplicity_at",
        "ord_at",
        "cut_out_degree",
        "line_scheme",
        "normalize_point",
    ),
    "constants": ("lower_bound", "classify_ci", "seshadri_curve", "sharpness_example"),
    "oracle": ("count_lines_mod_q", "find_conic_mod_q"),
    "linalg": ("rref", "solve_affine"),
}


def _coeff_bits(c):
    numerator = getattr(c, "numerator", c)
    denominator = getattr(c, "denominator", 1)
    return max(abs(numerator).bit_length(), denominator.bit_length())


class SpanStats:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    def __init__(self):
        self.spans = defaultdict(SpanStats)
        self.counts = Counter()
        self.maxima = Counter()
        self.op_calls = Counter()  # span calls inside the current op
        self._stack = []  # [name, child seconds] per open span
        self._depth = Counter()
        self._patched = []

    # -- spans -----------------------------------------------------------

    def _wrap(self, name, fn, after):
        stack = self._stack
        depth = self._depth
        spans = self.spans
        op_calls = self.op_calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            depth[name] += 1
            result = error = None
            completed = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                completed = True
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                stats = spans[name]
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                if not depth[name]:
                    stats.total_s += elapsed
                if stack:
                    stack[-1][1] += elapsed
                op_calls[name] += 1
                # a per-op timeout (not an Exception) leaves no result to read
                if after is not None and (completed or error is not None):
                    after(args, result, error, parent)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters read at the boundary -------------------------------------

    def _after_buchberger(self, args, basis, error, parent):
        if error is not None:
            return
        self.maxima["basis_size"] = max(self.maxima["basis_size"], len(basis))
        bits = max(
            (_coeff_bits(c) for g in basis for _, c in g.terms), default=0
        )
        self.maxima["coeff_bits"] = max(self.maxima["coeff_bits"], bits)

    def _after_normal_form(self, args, result, error, parent):
        if error is None and parent == "groebner.buchberger":
            self.counts["nf_in_buchberger"] += 1
            if not result:
                self.counts["nf_zero_in_buchberger"] += 1

    def _after_count_lines(self, args, result, error, parent):
        if error is None:
            instance = args[0]
            q = instance.prime
            self.counts["directions"] += sum(
                q**k for k in range(instance.ring.nvars - 1)
            )
        elif isinstance(error, ValueError) and "enumeration limit" in str(error):
            self.counts["enum_refused"] += 1

    def _after_find_conic(self, args, result, error, parent):
        if error is None:
            self.counts["conic_searches"] += 1
            self.counts["conic_attempts"] += result.attempts
            self.counts["conic_found"] += int(result.found)

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "seshadri" or key.startswith("seshadri."))
        ]
        hooks = {
            "groebner.buchberger": self._after_buchberger,
            "groebner.normal_form_against": self._after_normal_form,
            "oracle.count_lines_mod_q": self._after_count_lines,
            "oracle.find_conic_mod_q": self._after_find_conic,
        }
        for short, names in TRACED.items():
            home = sys.modules[f"seshadri.{short}"]
            for fname in names:
                original = getattr(home, fname)
                span = f"{short}.{fname}"
                wrapper = self._wrap(span, original, hooks.get(span))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        self._install_cache_probe(sys.modules["seshadri.groebner"].Ideal)

    def _install_cache_probe(self, ideal_cls):
        original = ideal_cls.groebner_basis
        counts = self.counts

        def groebner_basis(ideal, order=None):
            key = ideal.ring.order if order is None else order
            counts["basis_lookups"] += 1
            if key in ideal._basis_cache:
                counts["basis_hits"] += 1
            return original(ideal, order)

        self._patched.append((ideal_cls, "groebner_basis", original))
        ideal_cls.groebner_basis = groebner_basis

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self):
        return {
            "spans": {
                name: {"calls": s.calls, "self_s": s.self_s, "total_s": s.total_s}
                for name, s in self.spans.items()
            },
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }
