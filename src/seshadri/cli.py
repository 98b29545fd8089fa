"""Batch front end: instance files in, reports out.

An instance file is JSON: variable names, ambient generators (empty list
means projective space), cutting polynomials with declared degrees, the
base point as exact rationals, and flags.  The machine-readable report is
deterministic for a fixed file, seed and flags: exact rationals are
rendered as strings, and wall-clock timing goes to the log, never into the
report.  Exit codes: 0 success, 2 hypothesis failure, 3 input error,
4 internal inconsistency (certificate/classification mismatch, dumped in
full as a counterexample candidate).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from functools import lru_cache

from .constants import (
    LOWER_BOUND_ONLY,
    CompleteIntersectionInput,
    HypothesisError,
    InconsistencyError,
    classify_ci,
    lower_bound,
    seshadri_curve,
    sharpness_example,
)
from .geometry import (
    INFINITE,
    PointError,
    line_scheme,
    normalize_point,
    slice_ring,
)
from .groebner import Ideal, saturate
from .oracle import (
    DEFAULT_PRIMES,
    EnumerationLimitError,
    count_lines_mod_q,
    find_conic_mod_q,
    modular_instance,
)
from .polynomials import ParseError, PolynomialRing

logger = logging.getLogger("seshadri")

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


class InputError(ValueError):
    pass


def _render_value(value):
    """A report value as JSON: a Fraction becomes its string, INFINITE
    "infinite", and tuples become lists, through dicts and lists."""
    if type(value) is int:  # most leaves: the coordinates of oracle directions
        return value
    if isinstance(value, (list, tuple)):
        return [_render_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _render_value(v) for k, v in value.items()}
    if isinstance(value, Fraction):
        return str(value)
    return "infinite" if value == INFINITE else value


# instance fields that hold lists: (field, accepted element types, wording)
_LIST_FIELDS = (
    ("variables", str, "strings"),
    ("point", (str, int, float), "numbers or strings"),
    ("ambient", str, "strings"),
    ("cutting", dict, "objects"),
    ("primes", int, "integers"),
    ("component", str, "strings"),
)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


# Fraction("1e<k>") builds 10^k, which takes seconds from k = 10^7 on;
# 4300 is the digit limit CPython puts on int("...")
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)


def _coordinate(value):
    """The exact rational a point entry denotes; a decimal exponent beyond
    4300 in absolute value, or a zero denominator, is refused as input."""
    text = str(value)
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1))) > _MAX_EXPONENT:
        raise ValueError(
            f"point coordinate {text[:40]!r} has a decimal exponent beyond {_MAX_EXPONENT}"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"point coordinate {text[:40]!r} has a zero denominator") from None


def _check_types(raw, path):
    """Reject a missing field or a JSON value of the wrong type before
    anything is parsed."""
    for field in ("variables", "point"):
        if field not in raw:
            raise InputError(f"{path}: missing field {field!r}")
    for field, kinds, wording in _LIST_FIELDS:
        value = raw.get(field, [])
        if not (
            isinstance(value, list)
            and all(isinstance(x, kinds) and not isinstance(x, bool) for x in value)
        ):
            raise InputError(f"{path}: {field} must be a list of {wording}")
    for entry in raw.get("cutting", []):
        if not (isinstance(entry.get("expression"), str) and _is_int(entry.get("degree"))):
            raise InputError(
                f"{path}: a cutting entry needs a string expression and an integer degree"
            )
    for field in ("seed", "max_m"):
        if not _is_int(raw.get(field, 0)):
            raise InputError(f"{path}: {field} must be an integer")
    if not isinstance(raw.get("ambient_homogeneous", False), bool):
        raise InputError(f"{path}: ambient_homogeneous must be true or false")


class Instance:
    """Parsed instance file: ring, ambient generators, cuts, point, flags."""

    def __init__(self, raw, path="<memory>"):
        if not isinstance(raw, dict):
            raise InputError(f"{path}: an instance must be a JSON object")
        _check_types(raw, path)
        self.raw = raw
        self.path = path
        try:
            names = list(raw["variables"])
            point = [_coordinate(x) for x in raw["point"]]
            self.ring = PolynomialRing(tuple(names))
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from exc
        if len(point) != len(names):
            raise InputError(f"{path}: point length does not match variable count")
        self.point = tuple(point)
        try:
            self.ambient_generators = tuple(
                self._parse(expr) for expr in raw.get("ambient", [])
            )
            cutting = []
            for entry in raw.get("cutting", []):
                poly = self._parse(entry["expression"])
                declared = entry["degree"]
                if not poly:
                    raise InputError(f"{path}: cutting expression {entry['expression']!r} is zero")
                if poly.total_degree() != declared:
                    raise InputError(
                        f"{path}: declared degree {declared} does not match "
                        f"{entry['expression']!r} of degree {poly.total_degree()}"
                    )
                cutting.append(poly)
        except ParseError as exc:
            raise InputError(f"{path}: {exc}") from exc
        degrees = [f.total_degree() for f in cutting]
        if degrees != sorted(degrees):
            raise InputError(f"{path}: cutting degrees must be ascending")
        self.cutting = tuple(cutting)
        self.ambient_homogeneous = raw.get("ambient_homogeneous", False)
        # each prime once, in first-seen order, as `_primes` reads --primes
        self.primes = tuple(dict.fromkeys(raw.get("primes", DEFAULT_PRIMES)))
        self.seed = raw.get("seed", 0)
        # read by nothing: echoed into the report flags so reports stay stable
        self.max_m = raw.get("max_m", 24)
        self.component = tuple(raw.get("component", []))

    def _parse(self, expr):
        poly = self.ring.parse(expr)
        if not poly.is_homogeneous():
            raise InputError(f"{self.path}: {expr!r} is not homogeneous")
        return poly

    def _pointed(self, generators):
        try:
            return normalize_point(Ideal(self.ring, generators), self.point)
        except PointError as exc:
            raise InputError(f"{self.path}: {exc}") from exc

    def variety(self):
        return self._pointed(self.ambient_generators + self.cutting)

    def ambient_variety(self):
        return self._pointed(self.ambient_generators)

    def ci_input(self, validate=False):
        if not self.cutting:
            raise InputError(f"{self.path}: this command needs cutting polynomials")
        # built outside the try: its point errors carry the path already
        ambient = self.ambient_variety()
        try:
            return CompleteIntersectionInput(
                ambient=ambient,
                cutting=self.cutting,
                ambient_homogeneous=self.ambient_homogeneous,
                validate_smoothness=validate,
            )
        except ValueError as exc:
            raise InputError(f"{self.path}: {exc}") from exc

    def component_ideal(self, ambient):
        if not self.component:
            return None
        ring = slice_ring(ambient.ring)
        try:
            gens = [ring.parse(expr) for expr in self.component]
        except ParseError as exc:
            raise InputError(f"{self.path}: component: {exc}") from exc
        return Ideal(ring, gens)


def load_instance(path):
    started = time.monotonic()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    instance = Instance(raw, path)
    ambient, cutting = instance.ambient_generators, instance.cutting
    logger.debug(
        "parsed %s: %d ambient and %d cutting forms, %d terms, in %.1f ms",
        path, len(ambient), len(cutting), sum(len(f.terms) for f in ambient + cutting),
        (time.monotonic() - started) * 1e3,
    )
    return instance


def _report_from_certificate(cert):
    # not asdict: it would deep-copy the ideal
    return {
        "degree": cert.degree,
        "multiplicity": cert.multiplicity,
        "ratio": str(cert.ratio),
        "generators": [str(g) for g in cert.ideal.generators],
        "trace": _render_value(cert.trace),
    }


def _cmd_bound(instance, args):
    X = instance.variety()
    _maybe_validate(X, args)
    return {"seshadri": _render_value(asdict(lower_bound(X)))}


def _cmd_fano(instance, args):
    X = instance.variety()
    _maybe_validate(X, args)
    scheme = line_scheme(X)
    return {
        "line_scheme": {
            "generators": [str(g) for g in scheme.ideal.generators],
            **_render_value(asdict(scheme.hilbert)),
        }
    }


def _cmd_dp(instance, args):
    X = instance.variety()
    _maybe_validate(X, args)
    return {
        "cut_out_degree": X.d_p,
        "variety": _render_value(asdict(X.hilbert)),
    }


def _cmd_classify(instance, args):
    ci = instance.ci_input(validate=args.validate)
    report = classify_ci(ci)
    out = {"seshadri": _render_value(asdict(report))}
    ambient = ci.ambient
    out["ambient"] = {
        "cut_out_degree": ambient.d_p,
        "line_scheme_dimension": line_scheme(ambient).dimension,
    }
    if report.status == LOWER_BOUND_ONLY and ci.degrees[-1] == 1:
        # corroborating conic search; a modular witness never upgrades the
        # status, and NOT_FOUND is inconclusive
        annotations = {}
        for q in args.primes:
            try:
                conic = find_conic_mod_q(modular_instance(ci.variety(), q), seed=args.seed)
            except EnumerationLimitError as exc:
                annotations[str(q)] = {"error": str(exc)}
                continue
            annotations[str(q)] = {
                "conic_found": conic.found,
                "inconclusive": conic.inconclusive,
            }
        out["oracle"] = {
            "note": "modular conic witnesses corroborate the value 2 but do not prove it",
            "search": annotations,
        }
    return out


def _cmd_curve(instance, args):
    ci = instance.ci_input(validate=args.validate)
    component = instance.component_ideal(ci.ambient)
    cert = seshadri_curve(ci, component=component, seed=args.seed, retries=args.retries)
    return {"certificate": _report_from_certificate(cert)}


def _cmd_sharpness(args):
    X, cert = sharpness_example(args.n, args.d, seed=args.seed, retries=args.retries)
    return {
        "variety": {
            "generators": [str(g) for g in X.ideal.generators],
            **_render_value(asdict(X.hilbert)),
        },
        "certificate": _report_from_certificate(cert),
    }


def _cmd_oracle(instance, args):
    if not args.primes:
        raise InputError(f"{instance.path}: the list of primes is empty, so no prime was tried")
    X = instance.variety()
    results = {}
    good = 0
    refused = None
    for q in args.primes:
        inst = modular_instance(X, q)
        try:
            lines = count_lines_mod_q(inst)
        except EnumerationLimitError as exc:
            results[str(q)] = {"error": str(exc)}
            refused = exc
            continue
        good += 1
        entry = {
            "line_count": lines.count,
            "directions": _render_value(lines.directions),
        }
        if args.conics:
            try:
                conic = find_conic_mod_q(inst, budget=args.budget, seed=args.seed)
            except EnumerationLimitError as exc:
                entry["conic"] = {"error": str(exc)}
            else:
                entry["conic"] = _render_value(
                    {**asdict(conic), "inconclusive": conic.inconclusive}
                )
        results[str(q)] = entry
    if not good:
        raise InputError(str(refused))
    return {"oracle": results}


def _maybe_validate(X, args):
    if not args.validate:
        return
    # I is saturated iff I : m^infinity = I, for m the irrelevant ideal
    I = X.normalized_ideal
    if not I.contains_ideal(saturate(I, Ideal(X.ring, X.ring.variables()))):
        raise InputError("ideal is not saturated")


def _flatten(prefix, value, lines):
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}{key}." if prefix else f"{key}.", value[key], lines)
    elif isinstance(value, list):
        lines.append((prefix.rstrip("."), json.dumps(value)))
    else:
        lines.append((prefix.rstrip("."), value))


def render_human(report):
    lines = []
    _flatten("", report["result"], lines)
    out = [f"command: {report['command']}"]
    for key, value in lines:
        out.append(f"{key}: {value}")
    return "\n".join(out)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as an input error (exit 3); argparse
    itself would exit 2, the code of a failed hypothesis."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _primes(text):
    """The primes of a comma-separated list, each once, in first-seen order."""
    try:
        return list(dict.fromkeys(int(q) for q in text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")


def _non_negative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {value}")
    return value


def build_parser():
    parser = _ArgumentParser(
        prog="seshadri",
        description="Exact Seshadri-constant bounds, certificates and oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="instance file (JSON)")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--primes", type=_primes,
                       default=None, help="comma-separated primes for the oracle")
        p.add_argument("--json", dest="json_path", default=None,
                       help="write the machine-readable report here")
        p.add_argument("--validate", action="store_true",
                       help="extra saturation/smoothness checks")
        p.add_argument("--retries", type=_non_negative, default=4,
                       help="retry budget for random draws")

    for name in ("bound", "fano", "dp", "classify", "curve"):
        common(sub.add_parser(name))
    oracle = sub.add_parser("oracle")
    common(oracle)
    oracle.add_argument("--conics", action="store_true", help="also search for conics")
    oracle.add_argument("--budget", type=_non_negative, default=200,
                        help="conic search draws")
    sharp = sub.add_parser("sharpness")
    sharp.add_argument("n", type=int, help="dimension")
    sharp.add_argument("d", type=int, help="degree (at least n + 1)")
    common(sharp, needs_file=False)
    return parser


@lru_cache(maxsize=None)
def _parser():
    """The parser of `build_parser`, built at first use and then reused."""
    return build_parser()


def run(argv=None):
    """Run one command; returns (report dict, exit code, parsed args).

    A command line that does not parse gives kind `input` and args None.
    """
    level = os.environ.get("SESHADRI_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    try:
        args = _parser().parse_args(argv)
    except InputError as exc:
        report = {"command": None, "flags": {}, "result": {},
                  "error": {"kind": "input", "message": str(exc)}}
        return report, EXIT_INPUT, None
    started = time.monotonic()
    report = {"command": args.command, "flags": {}, "result": {}}
    try:
        if args.command == "sharpness":
            if args.seed is None:
                args.seed = 0
            report["flags"] = {"seed": args.seed, "retries": args.retries,
                               "n": args.n, "d": args.d}
            report["result"] = _cmd_sharpness(args)
        else:
            instance = load_instance(args.file)
            if args.seed is None:
                args.seed = instance.seed
            if args.primes is None:
                args.primes = list(instance.primes)
            report["instance"] = instance.raw
            report["flags"] = {
                "seed": args.seed,
                "primes": args.primes,
                "max_m": instance.max_m,
                "validate": bool(args.validate),
                "retries": args.retries,
            }
            handler = {
                "bound": _cmd_bound,
                "fano": _cmd_fano,
                "dp": _cmd_dp,
                "classify": _cmd_classify,
                "curve": _cmd_curve,
                "oracle": _cmd_oracle,
            }[args.command]
            report["result"] = handler(instance, args)
        code = EXIT_OK
    except (InputError, ParseError, PointError, ValueError) as exc:
        if isinstance(exc, HypothesisError):
            report["error"] = {"kind": "hypothesis", "message": str(exc),
                               "condition": exc.condition}
            code = EXIT_HYPOTHESIS
        else:
            report["error"] = {"kind": "input", "message": str(exc)}
            code = EXIT_INPUT
    except InconsistencyError as exc:
        payload = {"kind": "inconsistency", "message": str(exc)}
        if exc.certificate is not None:
            payload["certificate"] = _report_from_certificate(exc.certificate)
        report["error"] = payload
        code = EXIT_INTERNAL
    except RuntimeError as exc:
        report["error"] = {"kind": "internal", "message": str(exc)}
        code = EXIT_INTERNAL
    except Exception as exc:
        # last resort: any other failure is a bug of the program, reported
        # as internal with the partial report kept; the traceback goes to
        # the debug log
        logger.debug("%s failed", args.command, exc_info=True)
        report["error"] = {"kind": "internal", "message": f"{type(exc).__name__}: {exc}"}
        code = EXIT_INTERNAL
    logger.info("%s finished in %.2fs", args.command, time.monotonic() - started)
    return report, code, args


def main(argv=None):
    report, code, args = run(argv)
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if getattr(args, "json_path", None):
        with open(args.json_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    if "error" in report:
        print(f"error ({report['error']['kind']}): {report['error']['message']}",
              file=sys.stderr)
        if "certificate" in report.get("error", {}):
            print(payload, file=sys.stderr)
    else:
        print(render_human(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
