import itertools
import random
from fractions import Fraction

import pytest

from seshadri.polynomials import (
    BadReductionError,
    PolynomialRing,
    PrimeField,
    restrict_to_line,
)
from seshadri.groebner import Ideal, monomials_of_degree
from seshadri.geometry import multiplicity_at, normalize_point
from seshadri.oracle import (
    ModularInstance,
    count_lines_mod_q,
    find_conic_mod_q,
    lowest_form_mult,
    modular_instance,
)


def _every_line_direction(inst):
    """Directions of P^3 (pivot coordinate zero, first nonzero coordinate
    one) whose line through the point lies on X, in lexicographic order."""
    q = inst.prime
    pivot = next(i for i, x in enumerate(inst.point) if x % q)
    found = []
    for v in itertools.product(range(q), repeat=4):
        if v[pivot] or next((x for x in v if x), None) != 1:
            continue
        if all(restrict_to_line(g, inst.point, v).is_zero() for g in inst.generators):
            found.append(v)
    return tuple(found)


def quadric_surface(ring4, point=(1, 0, 0, 0)):
    return normalize_point(Ideal(ring4, [ring4.parse("x0*x3 - x1*x2")]), point)


class TestCountLines:
    def test_quadric_surface_two_rulings(self, ring4):
        result = count_lines_mod_q(modular_instance(quadric_surface(ring4), 5))
        assert result.count == 2
        assert result.directions == ((0, 0, 1, 0), (0, 1, 0, 0))

    def test_hyperplane_pencil(self, ring4):
        # the plane X = V(x3) carries a pencil of lines through the point,
        # one for each direction inside it: a P^1 worth, q + 1 of them
        X = normalize_point(Ideal(ring4, [ring4.parse("x3")]), (1, 0, 0, 0))
        assert count_lines_mod_q(modular_instance(X, 3)).count == 4

    def test_full_projective_space(self, ring4):
        # every one of the q^2 + q + 1 directions gives a line on P^3
        X = normalize_point(Ideal(ring4, []), (1, 0, 0, 0))
        assert count_lines_mod_q(modular_instance(X, 3)).count == 13

    def test_fermat_cubic_no_lines_at_good_primes(self, ring4):
        X = normalize_point(
            Ideal(ring4, [ring4.parse("x0^3+x1^3+x2^3+x3^3")]), (3, 4, 5, -6)
        )
        for q in (5, 11, 17):
            assert count_lines_mod_q(modular_instance(X, q)).count == 0

    def test_bad_prime_is_visible(self, ring4):
        # mod 7 the point slides onto a line (7 = 3 + 4), a documented
        # bad-prime effect: the count jumps even though the scheme is empty
        X = normalize_point(
            Ideal(ring4, [ring4.parse("x0^3+x1^3+x2^3+x3^3")]), (3, 4, 5, -6)
        )
        assert count_lines_mod_q(modular_instance(X, 7)).count > 0

    def test_quadric_at_general_point(self, ring4):
        X = quadric_surface(ring4, (2, 6, 1, 3))  # [2:6:1:3]: 2*3 = 6*1
        for q in (5, 7, 11):
            assert count_lines_mod_q(modular_instance(X, q)).count == 2

    def test_directions_satisfy_slices_at_a_general_point(self, ring4):
        # cross-module consistency: directions found in the original
        # coordinates, mapped through the normalizing transform, satisfy
        # the slice equations of the line scheme
        from seshadri.geometry import line_scheme, slice_ring
        from seshadri.linalg import matvec

        X = quadric_surface(ring4, (2, 6, 1, 3))
        scheme = line_scheme(X)
        q = 7
        field = PrimeField(q)
        found = count_lines_mod_q(modular_instance(X, q))
        assert found.count == 2
        transform = [[field.coerce(a) for a in row] for row in X.transform]
        chart = slice_ring(ring4).with_field(field)
        for direction in found.directions:
            mapped = matvec(transform, [field.coerce(v) for v in direction], field)
            for g in scheme.ideal.generators:
                reduced = chart.from_terms(((m.exponents, c) for m, c in g.terms))
                assert reduced.evaluate(mapped[1:]) == 0

    def test_tangent_scan_matches_a_scan_of_every_direction(self, ring4, rng):
        # the scan only visits ker J(p); a scan of all of P^3 must find the
        # same lines, also where X is singular at p or a cone with vertex p
        ideals = [
            quadric_surface(ring4, (2, 6, 1, 3)),
            normalize_point(Ideal(ring4, [ring4.parse("x1*x2 - x3^2")]), (1, 0, 0, 0)),
        ]
        for singular in (False, True, True, False, True, False):
            degree = rng.choice((2, 3))
            top = degree - 2 if singular else degree - 1
            gens = [
                ring4.from_terms(
                    (exps, rng.randint(-2, 2))
                    for exps in monomials_of_degree(4, degree)
                    if exps[0] <= top
                )
                for _ in range(rng.choice((1, 2)))
            ]
            ideals.append(normalize_point(Ideal(ring4, gens), (1, 0, 0, 0)))
        for q in (2, 3, 5):
            for X in ideals:
                inst = modular_instance(X, q)
                result = count_lines_mod_q(inst)
                assert result.directions == _every_line_direction(inst)
                assert result.count == len(result.directions)
            # the cone over a smooth conic has one line per conic point
            assert count_lines_mod_q(modular_instance(ideals[1], q)).count == q + 1

    def test_bad_reduction_in_point(self, ring4):
        X = quadric_surface(ring4, (Fraction(1, 5), 1, 1, 5))
        with pytest.raises(BadReductionError):
            modular_instance(X, 5)

    def test_point_reducing_to_zero(self, ring3):
        X = normalize_point(Ideal(ring3, []), (5, 5, 5))
        with pytest.raises(BadReductionError):
            modular_instance(X, 5)


class TestFindConic:
    def test_conic_finds_itself(self, ring3):
        X = normalize_point(Ideal(ring3, [ring3.parse("x0*x2 - x1^2")]), (1, 0, 0))
        result = find_conic_mod_q(modular_instance(X, 7), budget=300, seed=2)
        assert result.found
        point, tangent, curvature = result.witness
        # the witness parametrization really lies on the curve
        field = PrimeField(7)
        ring = X.ring.with_field(field)
        g = ring.parse("x0*x2 - x1^2")
        for t in range(7):
            sample = [
                (p + t * v + t * t * w) % 7
                for p, v, w in zip(point, tangent, curvature)
            ]
            assert g.evaluate(sample) == 0

    def test_grassmannian_section_conic(self):
        ring = PolynomialRing(("p01", "p02", "p03", "p12", "p13", "p23"))
        gens = [
            ring.parse("p01*p23 - p02*p13 + p03*p12"),
            ring.parse("-3*p03 + 3*p12 + 3*p23"),
            ring.parse("3*p02 + 3*p03 + 3*p12 + 3*p13 - p23"),
            ring.parse("2*p02 + 3*p03 - 2*p12 + p13 + 2*p23"),
        ]
        X = normalize_point(Ideal(ring, gens), (1, 0, 0, 0, 0, 0))
        result = find_conic_mod_q(modular_instance(X, 11), budget=400, seed=0)
        assert result.found

    def test_plane_cubic_is_inconclusive(self, ring3):
        X = normalize_point(
            Ideal(ring3, [ring3.parse("x0^2*x1 - x1^3 - x0*x2^2 + x2^3")]), (1, 1, 0)
        )
        result = find_conic_mod_q(modular_instance(X, 7), budget=80, seed=1)
        assert not result.found
        assert result.inconclusive


class TestLowestFormMult:
    def test_cusp(self, ring3):
        assert lowest_form_mult(ring3.parse("x2*x1^2 - x0^3"), (0, 0, 1)) == 2

    def test_node(self, ring3):
        node = ring3.parse("x2*x1^2 - x0^2*x2 - x0^3")
        assert lowest_form_mult(node, (0, 0, 1)) == 2

    def test_smooth_point(self, ring3):
        assert lowest_form_mult(ring3.parse("x0*x2 - x1^2"), (1, 0, 0)) == 1

    def test_point_off_curve(self, ring3):
        with pytest.raises(ValueError):
            lowest_form_mult(ring3.parse("x0*x2 - x1^2"), (0, 1, 1))

    def test_agrees_with_truncated_quotients(self, ring3, rng):
        # plant a singular point of chosen multiplicity at the origin chart:
        # lowest form of degree k plus higher-order noise
        chart = PolynomialRing(("y1", "y2"))
        checked = 0
        while checked < 10:
            k = rng.choice((1, 2, 3))
            top = k + rng.randint(1, 2)
            terms = []
            for d in range(k, top + 1):
                for exps in monomials_of_degree(2, d):
                    terms.append((exps, rng.randint(-3, 3)))
            affine = chart.from_terms(terms)
            if affine.is_zero() or min(m.degree for m, _ in affine.terms) != k:
                continue
            homogeneous = ring3.from_terms(
                ((top - m.degree,) + m.exponents, c) for m, c in affine.terms
            )
            mult_oracle = lowest_form_mult(homogeneous, (1, 0, 0))
            X = normalize_point(Ideal(ring3, [homogeneous]), (1, 0, 0))
            assert mult_oracle == multiplicity_at(X) == k
            checked += 1


def test_modular_instance_invariants(ring4):
    field = PrimeField(5)
    ring = ring4.with_field(field)
    with pytest.raises(ValueError):
        ModularInstance(prime=7, ring=ring, generators=(), point=(1, 0, 0, 0))
    with pytest.raises(BadReductionError):
        ModularInstance(
            prime=5, ring=ring, generators=(ring.parse("x0"),), point=(1, 0, 0, 0)
        )
