"""Acceptance suite: one test per criterion, exact tolerances, stated
runtime budgets, and one printed PASS line per criterion."""

import random
import time
from fractions import Fraction
from itertools import combinations

from seshadri.polynomials import PolynomialRing
from seshadri.groebner import (
    Ideal,
    MonomialOrder,
    hilbert_data,
    ideal_quotient,
    normal_form_against,
    s_polynomial,
    saturate,
)
from seshadri.geometry import (
    cone_ideal,
    cut_out_degree,
    line_scheme,
    multiplicity_at,
    normalize_point,
    ord_at,
    slice_ring,
)
from seshadri.constants import (
    EXACT,
    LINE_FOUND,
    aux_divisors,
    classify_ci,
    lower_bound,
    seshadri_curve,
    sharpness_example,
)
from seshadri.oracle import count_lines_mod_q, modular_instance
from seshadri.cli import load_instance

from conftest import bundled, random_homogeneous

BUNDLED = (
    "quadric-surface",
    "quadric-threefold",
    "twisted-cubic",
    "fermat-cubic",
    "quartic-threefold",
    "two-quadrics-p4",
    "gr24-hyperplanes",
    "gr25-pluecker",
)


def _report(number, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _classify_instance(name):
    instance = load_instance(bundled(name))
    ci = instance.ci_input()
    return instance, ci, classify_ci(ci)


def test_criterion_01_fermat_cubic_exact_value():
    started = time.monotonic()
    _, _, report = _classify_instance("fermat-cubic")
    elapsed = time.monotonic() - started
    ok = (
        report.status == EXACT
        and report.epsilon == Fraction(3, 2)
        and report.line_scheme_dimension == -1
        and elapsed < 10
    )
    _report(1, ok, f"Fermat cubic epsilon = {report.epsilon} in {elapsed:.2f}s")


def test_criterion_02_quartic_threefold_with_certificate():
    started = time.monotonic()
    _, ci, report = _classify_instance("quartic-threefold")
    certificate = seshadri_curve(ci, seed=0)
    elapsed = time.monotonic() - started
    ok = (
        report.epsilon == Fraction(4, 3)
        and certificate.degree == 8
        and certificate.multiplicity == 6
        and elapsed < 60
    )
    _report(
        2,
        ok,
        f"quartic threefold epsilon = {report.epsilon}, certificate "
        f"{certificate.degree}/{certificate.multiplicity} in {elapsed:.2f}s",
    )


def test_criterion_03_two_quadrics():
    started = time.monotonic()
    _, _, report = _classify_instance("two-quadrics-p4")
    elapsed = time.monotonic() - started
    ok = report.status == EXACT and report.epsilon == Fraction(2) and elapsed < 60
    _report(3, ok, f"two quadrics epsilon = {report.epsilon} in {elapsed:.2f}s")


def test_criterion_04_grassmannian_hyperplane_sections():
    started = time.monotonic()
    instance, ci, report = _classify_instance("gr24-hyperplanes")
    # independent sanity: the section is a conic, so its own degree over
    # multiplicity already realizes the value 2
    X = instance.variety()
    data = X.hilbert
    mult = multiplicity_at(X)
    elapsed = time.monotonic() - started
    ok = (
        report.status == EXACT
        and report.epsilon == Fraction(2)
        and (data.dimension, data.degree, mult) == (1, 2, 1)
        and elapsed < 30
    )
    _report(
        4,
        ok,
        f"Gr(2,4) sections epsilon = {report.epsilon}, conic check "
        f"deg/mult = {data.degree}/{mult} in {elapsed:.2f}s",
    )


def test_criterion_05_sharpness_family():
    failures = []
    for n, d in ((1, 2), (2, 3), (2, 4), (3, 4), (4, 5)):
        for seed in (1, 2, 3):
            X, certificate = sharpness_example(n, d, seed=seed)
            if certificate.ratio != Fraction(d, d - 1):
                failures.append((n, d, seed, "ratio", certificate.ratio))
            if not line_scheme(X).is_empty:
                failures.append((n, d, seed, "lines", line_scheme(X).dimension))
    _report(5, not failures, f"sharpness family over 3 seeds each; failures: {failures}")


def test_criterion_06_line_criterion_on_the_quadric():
    ring = PolynomialRing(("x0", "x1", "x2", "x3"))
    quadric = ring.parse("x0*x3 - x1*x2")
    rng = random.Random(614)
    checked = 0
    failures = []
    while checked < 10:
        a, b, c, d = (rng.randint(1, 4) for _ in range(4))
        point = (a * c, a * d, b * c, b * d)
        X = normalize_point(Ideal(ring, [quadric]), point)
        report = lower_bound(X)
        if report.status != LINE_FOUND or report.epsilon != 1:
            failures.append((point, "status", report.status))
        for q in (5, 7, 11):
            count = count_lines_mod_q(modular_instance(X, q)).count
            if count != 2:
                failures.append((point, q, count))
        checked += 1
    _report(6, not failures, f"10 quadric points, 3 primes each; failures: {failures}")


def test_criterion_07_cut_out_degree_bounded_by_degree():
    rows = []
    ok = True
    for name in BUNDLED:
        X = load_instance(bundled(name)).variety()
        d_p = cut_out_degree(X)
        degree = X.degree
        rows.append(f"{name}: d_p={d_p} <= deg={degree}")
        if d_p > degree:
            ok = False
    _report(7, ok, "; ".join(rows))


def test_criterion_08_auxiliary_divisors():
    failures = []
    for name in ("fermat-cubic", "quartic-threefold", "two-quadrics-p4"):
        X = load_instance(bundled(name)).variety()
        divisors, flag = aux_divisors(X)
        empty = line_scheme(X).is_empty
        if not all(d.order >= d.i + 1 for d in divisors):
            failures.append((name, "orders", [(d.i, d.order) for d in divisors]))
        if flag != empty:
            failures.append((name, "flag", flag, empty))
    # one line-covered instance exercises the other direction of the gate
    X = load_instance(bundled("quadric-threefold")).variety()
    _, flag = aux_divisors(X)
    if flag or line_scheme(X).is_empty:
        failures.append(("quadric-threefold", "flag", flag))
    _report(8, not failures, f"divisor orders and common-zero gate; failures: {failures}")


def test_criterion_09_cone_law():
    ring4 = PolynomialRing(("x0", "x1", "x2", "x3"))
    ring5 = PolynomialRing(("x0", "x1", "x2", "x3", "x4"))
    chart4 = slice_ring(ring4)
    chart5 = slice_ring(ring5)
    samples = [
        (Ideal(chart4, [chart4.parse("x2"), chart4.parse("x3")]), ring4),
        (Ideal(chart4, [chart4.parse("x1*x3 - x2^2")]), ring4),
        (Ideal(chart4, [chart4.parse("x1"), chart4.parse("x2*x3")]), ring4),
        (Ideal(chart4, [chart4.parse("x1")]), ring4),
        (
            Ideal(
                chart5,
                [
                    chart5.parse("x1*x4 - x2*x3"),
                    chart5.parse("x2^2 - x1*x3"),
                    chart5.parse("x3^2 - x2*x4"),
                ],
            ),
            ring5,
        ),
    ]
    rows = []
    ok = True
    for base, ambient in samples:
        cone = cone_ideal(base, ambient_ring=ambient)
        base_degree = hilbert_data(base).degree
        cone_degree = hilbert_data(cone).degree
        vertex = normalize_point(cone, (1,) + (0,) * (ambient.nvars - 1))
        mult = multiplicity_at(vertex)
        rows.append(f"deg(Z)={base_degree}, deg(cone)={cone_degree}, mult={mult}")
        if not base_degree == cone_degree == mult:
            ok = False
    _report(9, ok, "; ".join(rows))


def test_criterion_10_local_intersection_inequality():
    ring = PolynomialRing(("x0", "x1", "x2"))
    rng = random.Random(1010)
    checked = 0
    failures = []
    while checked < 10:
        g = random_homogeneous(ring, rng.randint(2, 4), rng, through_origin=True)
        f = random_homogeneous(ring, rng.randint(1, 3), rng, through_origin=True)
        X = normalize_point(Ideal(ring, [g]), (1, 0, 0))
        order = ord_at(f, X)
        if order == float("inf"):
            continue
        mult = multiplicity_at(X)
        if f.total_degree() * g.total_degree() < order * mult:
            failures.append((str(f), str(g), order, mult))
        checked += 1
    _report(10, not failures, f"10 plane-curve pairs; failures: {failures}")


def test_criterion_11_kernel_property_suites():
    failures = []
    rng = random.Random(1111)

    # Buchberger criterion after the fact
    for _ in range(8):
        nvars = rng.choice((3, 4))
        ring = PolynomialRing(tuple(f"x{i}" for i in range(nvars)))
        gens = [random_homogeneous(ring, rng.randint(1, 3), rng) for _ in range(2)]
        basis = Ideal(ring, gens).groebner_basis()
        for f, g in combinations(basis, 2):
            if not normal_form_against(s_polynomial(f, g), list(basis)).is_zero():
                failures.append(("s-pair", [str(x) for x in (f, g)]))

    # quotient and saturation identities
    ring3 = PolynomialRing(("x0", "x1", "x2"))
    for _ in range(5):
        J = Ideal(ring3, [random_homogeneous(ring3, 2, rng) for _ in range(2)])
        I = Ideal(ring3, [random_homogeneous(ring3, rng.randint(1, 2), rng)])
        quotient = ideal_quotient(J, I)
        for a in quotient.generators:
            for b in I.generators:
                if not J.contains(a * b):
                    failures.append(("quotient", str(a), str(b)))
        saturated = saturate(J, I)
        if not saturated.contains_ideal(J):
            failures.append(("saturation-contains",))
        if not saturate(saturated, I).equals(saturated):
            failures.append(("saturation-idempotent",))

    # Hilbert data is order independent
    for _ in range(10):
        nvars = rng.choice((3, 4))
        names = tuple(f"x{i}" for i in range(nvars))
        gens_ring = PolynomialRing(names)
        gens = [random_homogeneous(gens_ring, rng.randint(1, 3), rng) for _ in range(2)]
        elim_ring = PolynomialRing(names, order=MonomialOrder.elimination(nvars))
        a = hilbert_data(Ideal(gens_ring, gens))
        b = hilbert_data(Ideal(elim_ring, [elim_ring.from_terms(g.terms) for g in gens]))
        if (a.dimension, a.degree) != (b.dimension, b.degree):
            failures.append(("hilbert-order", a, b))

    # oracle/Groebner line-scheme agreement on 20 instances, 3 primes each:
    # half are generically empty draws, half carry a planted rational line,
    # so both verdicts occur; a disagreement at every prime is a hard
    # failure, a single-prime disagreement only a bad-prime warning
    ring4 = PolynomialRing(("x0", "x1", "x2", "x3"))
    chart = slice_ring(ring4)
    warnings = []
    for trial in range(20):
        if trial % 2:
            a = random_homogeneous(ring4, 2, rng, through_origin=True)
            b = random_homogeneous(ring4, 2, rng, through_origin=True)
            f = ring4.variable(2) * a + ring4.variable(3) * b  # contains x2=x3=0
        else:
            f = random_homogeneous(ring4, 3, rng, through_origin=True)
        X = normalize_point(Ideal(ring4, [f]), (1, 0, 0, 0))
        empty = line_scheme(X).is_empty
        counts = [count_lines_mod_q(modular_instance(X, q)).count for q in (5, 7, 11)]
        agreeing = [(c == 0) == empty for c in counts]
        if not any(agreeing):
            failures.append(("oracle-agreement", str(f), empty, counts))
        elif not all(agreeing):
            warnings.append((str(f), empty, counts))
    detail = f"kernel suites; failures: {failures}"
    if warnings:
        detail += f"; bad-prime warnings: {len(warnings)}"
    _report(11, not failures, detail)
