"""The certificates mod one prime inside `hilbert_data`
(`certified_hilbert_data`: emptiness for r >= n forms, complete
intersections for r < n), against the route over Q they are tried ahead
of."""

import json
import logging
import random
import re
from fractions import Fraction

import pytest

from seshadri import constants, geometry, groebner
from seshadri.cli import EXIT_HYPOTHESIS, EXIT_OK, load_instance, run
from seshadri.groebner import (
    EMPTINESS_PRIME,
    HilbertData,
    Ideal,
    certified_hilbert_data,
    hilbert_data,
)
from seshadri.polynomials import QQ, PolynomialRing, PrimeField

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
SHARPNESS = ((2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6))
# (projective dimension, cutting degrees) of seeded complete intersections
# through [1:0:...:0]
SYNTHETIC_SHAPES = (
    (4, (4,)),
    (4, (2, 3)),
    (5, (5,)),
    (5, (2, 3)),
    (5, (2, 4)),
    (5, (3, 3)),
    (5, (2, 2, 2)),
)
EMPTY = HilbertData(-1, None, ())


@pytest.fixture
def recorded(monkeypatch):
    """Generators of every ideal whose Hilbert data geometry asks for (the
    procedures of constants ask through it), keyed by ring and generator
    text."""
    seen = {}

    def recording(I):
        seen.setdefault((I.ring.names, tuple(map(str, I.generators))), (I.ring, I.generators))
        return hilbert_data(I)

    monkeypatch.setattr(geometry, "hilbert_data", recording)
    return seen


def _synthetic_instances(tmp_path, seed):
    rng = random.Random(seed)
    paths = []
    for n, degrees in SYNTHETIC_SHAPES:
        ring = PolynomialRing(tuple(f"x{i}" for i in range(n + 1)))
        raw = {
            "variables": list(ring.names),
            "ambient": [],
            "cutting": [
                {"expression": str(random_homogeneous(ring, d, rng, through_origin=True)),
                 "degree": d}
                for d in degrees
            ],
            "point": ["1"] + ["0"] * n,
        }
        path = tmp_path / f"seed{seed}-p{n}-{'-'.join(map(str, degrees))}.json"
        path.write_text(json.dumps(raw))
        paths.append(str(path))
    return paths


def _compare(recorded):
    """Each recorded ideal the certificates may see gets the same Hilbert
    data with them as over Q; returns how many they proved empty or a
    complete intersection."""
    certified = 0
    for ring, gens in recorded.values():
        if ring.field != QQ:
            continue
        fast = hilbert_data(Ideal(ring, gens))
        slow = Ideal(ring, gens)
        slow.groebner_basis()  # a cached basis leaves the prime out
        assert fast == hilbert_data(slow), gens
        certified += certified_hilbert_data(Ideal(ring, gens)) is not None
    return certified


def test_bundled_ideals_agree(recorded):
    for name in BUNDLED:
        # the singular locus of the quartic threefold takes about 14 s over
        # Q (0.24 s mod p), so only its classify ideals are compared
        validate = [] if name == "quartic-threefold" else ["--validate"]
        for command in (["bound"], ["fano"], ["classify", *validate]):
            run([command[0], bundled(name), *command[1:]])
    assert _compare(recorded) >= 5


def test_sharpness_ideals_agree(recorded):
    for n, d in SHARPNESS:
        constants.sharpness_example(n, d, seed=0)
    assert _compare(recorded) >= len(SHARPNESS)


@pytest.mark.parametrize("seed", [1, 7])
def test_synthetic_ideals_agree(recorded, tmp_path, seed):
    for path in _synthetic_instances(tmp_path, seed):
        run(["bound", path])
        run(["classify", path])
    assert _compare(recorded) >= len(SYNTHETIC_SHAPES)


def test_unlucky_prime_dropping_a_generator_falls_back():
    # mod p both generators are x0, so nothing is proved there; over Q the
    # ideal is (x0, x1)
    ring = PolynomialRing(("x0", "x1"))
    I = Ideal(ring, [ring.parse("x0"), ring.parse(f"x0 + {EMPTINESS_PRIME}*x1")])
    assert certified_hilbert_data(Ideal(ring, I.generators)) is None
    assert hilbert_data(I) == EMPTY


def test_unlucky_prime_dropping_a_leading_term_falls_back():
    # mod p the leading term p*x0^2 vanishes and (x1^2, x0*x1) meets [1:0]
    ring = PolynomialRing(("x0", "x1"))
    I = Ideal(ring, [ring.parse(f"{EMPTINESS_PRIME}*x0^2 + x1^2"), ring.parse("x0*x1")])
    assert certified_hilbert_data(Ideal(ring, I.generators)) is None
    assert hilbert_data(I) == EMPTY


def test_lucky_prime_proves_emptiness():
    ring = PolynomialRing(("x0", "x1", "x2"))
    gens = [ring.parse("x0^2 - x1*x2"), ring.parse("x1^2 + 3*x0*x2"),
            ring.parse("x2^3 - 2*x0^3").scale(Fraction(1, 2))]
    assert certified_hilbert_data(Ideal(ring, gens)) == EMPTY
    assert hilbert_data(Ideal(ring, gens)) == EMPTY


def test_certificate_needs_q_and_no_cached_basis(caplog):
    caplog.set_level(logging.DEBUG, logger="seshadri.groebner")

    def asked():
        """The generator count of each attempt logged so far."""
        return [int(re.search(r"(\d+) generators", m).group(1)) for m in _attempts(caplog)]

    ring = PolynomialRing(("x0", "x1", "x2"))
    # r < n forms are asked too: these two are a complete intersection,
    # the quadric is one, and the prime proves both
    assert hilbert_data(Ideal(ring, [ring.parse("x1"), ring.parse("x2^2")])).dimension == 0
    assert hilbert_data(Ideal(ring, [ring.parse("x0*x1 - x2^2")])).dimension == 1
    assert asked() == [2, 1]
    # a cached basis over Q, or a field other than Q, leaves the prime out
    full = Ideal(ring, [ring.variable(i) for i in range(3)])
    full.groebner_basis()
    assert hilbert_data(full) == EMPTY
    field = PolynomialRing(("x0", "x1"), PrimeField(7))
    assert hilbert_data(Ideal(field, [field.parse("x0"), field.parse("x1")])) == EMPTY
    assert hilbert_data(Ideal(field, [field.parse("x0*x1")])).dimension == 0
    assert asked() == [2, 1]
    assert hilbert_data(Ideal(ring, [ring.variable(i) for i in range(3)])) == EMPTY
    assert asked() == [2, 1, 3]


def test_a_constant_generator_is_empty_for_every_r():
    # a nonzero constant makes I the unit ideal, for r < n, r = n and
    # r > n: the prime may prove it empty or fall back, never more
    for n in (1, 2, 3):
        ring = PolynomialRing(tuple(f"x{i}" for i in range(n)))
        for r in sorted({1, n - 1, n, n + 1} - {0}):
            for constant in (ring.one(), ring.one().scale(Fraction(-2, 3))):
                gens = [constant] + [ring.parse(f"x{k % n}^{k + 1}") for k in range(r - 1)]
                assert hilbert_data(Ideal(ring, gens)) == EMPTY, gens
                assert certified_hilbert_data(Ideal(ring, gens)) in (None, EMPTY), gens


def test_a_single_lead_is_watched(caplog):
    # one form has no pair: rule (b) reads its lead alone, and one nonzero
    # form always has height 1
    caplog.set_level(logging.DEBUG, logger="seshadri.groebner")
    for n, form, data in [
        (1, "x0^3", EMPTY),
        (2, "x0^2 - 5*x0*x1", HilbertData(0, 2, (Fraction(2),))),
        (3, "x0*x1 - x2^2", HilbertData(1, 2, (Fraction(1), Fraction(2)))),
    ]:
        ring = PolynomialRing(tuple(f"x{i}" for i in range(n)))
        I = Ideal(ring, [ring.parse(form)])
        assert certified_hilbert_data(I) == data
        slow = Ideal(ring, I.generators)
        slow.groebner_basis()
        assert hilbert_data(slow) == data
    assert [m.split(" in ")[0] for m in _attempts(caplog)] == [
        f"emptiness mod {EMPTINESS_PRIME}: 1 generators, 1 variables, certified empty",
        f"complete intersection mod {EMPTINESS_PRIME}: 1 generators, 2 variables, certified",
        f"complete intersection mod {EMPTINESS_PRIME}: 1 generators, 3 variables, certified",
    ]
    assert all(m.endswith(" 0 S-pairs reduced (0 to zero), 0 skipped") for m in _attempts(caplog))


def test_each_attempt_is_logged(caplog):
    caplog.set_level(logging.DEBUG, logger="seshadri.groebner")
    ring = PolynomialRing(("x0", "x1"))
    hilbert_data(Ideal(ring, [ring.parse("x0^2"), ring.parse("x1^3")]))
    hilbert_data(Ideal(ring, [ring.parse("x0"), ring.parse(f"x0 + {EMPTINESS_PRIME}*x1")]))
    messages = [r.getMessage() for r in caplog.records if r.name == "seshadri.groebner"]
    assert len(messages) == 2
    assert all(f"mod {EMPTINESS_PRIME}: 2 generators, 2 variables" in m for m in messages)
    assert "certified empty" in messages[0]
    assert "fell back to Q" in messages[1]
    # milliseconds, then the pair loop's counts
    counts = r" in \d+\.\d ms, \d+ S-pairs reduced \(\d+ to zero\), \d+ skipped"
    assert all(re.fullmatch(r".*" + counts, m) for m in messages)


def test_ideals_through_the_base_point_skip_the_prime(caplog, monkeypatch):
    # no generator has an x0^deg term, so V(I) holds [1:0:...:0] and no
    # prime can prove it empty: from nvars generators on nothing is tried;
    # fewer are asked whether they are a complete intersection, and every
    # answer is the route over Q's; the ideals `supported_only_at_basepoint`
    # gets from `aux_divisors` are all of this kind
    ring = PolynomialRing(("x0", "x1", "x2"))
    ideals = [
        (ring, [ring.parse(g) for g in ("x1^2", "x1*x2", "x2^2", "x0*x1")]),
        (ring, [ring.parse(g) for g in ("x0*x1 - x2^2", "x0*x2 + x1^2", "x1^3")]),
    ]
    original = constants.supported_only_at_basepoint

    def recording(K):
        ideals.append((K.ring, K.generators))
        return original(K)

    monkeypatch.setattr(constants, "supported_only_at_basepoint", recording)
    for name in BUNDLED:
        constants.aux_divisors(load_instance(bundled(name)).variety())
    assert len(ideals) == 2 + len(BUNDLED)
    caplog.set_level(logging.DEBUG, logger="seshadri.groebner")
    for ring, gens in ideals:
        caplog.clear()
        fast = hilbert_data(Ideal(ring, gens))
        if len(gens) >= ring.nvars:
            assert not [r for r in caplog.records if r.name == "seshadri.groebner"], gens
        slow = Ideal(ring, gens)
        slow.groebner_basis()
        assert fast == hilbert_data(slow), gens
    assert any(len(gens) >= ring.nvars for ring, gens in ideals[2:])


def _attempts(caplog):
    return [
        r.getMessage() for r in caplog.records
        if r.name == "seshadri.groebner" and f"mod {EMPTINESS_PRIME}:" in r.getMessage()
    ]


def test_a_cached_basis_of_x_skips_the_prime(caplog):
    # --validate checks saturation, which caches the basis of X over Q
    # before its Hilbert data is asked for
    caplog.set_level(logging.DEBUG, logger="seshadri.groebner")
    assert run(["dp", bundled("two-quadrics-p4"), "--validate"])[1] == EXIT_OK
    assert _attempts(caplog) == []
    assert run(["dp", bundled("two-quadrics-p4")])[1] == EXIT_OK
    attempts = _attempts(caplog)
    assert len(attempts) == 1
    assert attempts[0].startswith(
        f"complete intersection mod {EMPTINESS_PRIME}: 2 generators, 5 variables, certified in "
    )


def test_more_forms_than_variables_stop_at_the_pure_powers(caplog):
    # the twisted cubic's line scheme, 5 forms in 3 variables: their leads
    # already hold a pure power of every variable, so rule (b) stops the
    # loop before its first pair
    caplog.set_level(logging.DEBUG, logger="seshadri.groebner")
    report, code, _ = run(["fano", bundled("twisted-cubic")])
    assert code == EXIT_OK
    assert report["result"]["line_scheme"]["dimension"] == -1
    (attempt,) = _attempts(caplog)
    assert attempt.startswith(
        f"emptiness mod {EMPTINESS_PRIME}: 5 generators, 3 variables, certified empty in "
    )
    assert ", 0 S-pairs reduced (0 to zero), " in attempt


def _full_loop_reading(monkeypatch):
    """Make `certified_hilbert_data` read the leads of the full pair loop
    mod p, with no watch, by their Hilbert numerator: certified when
    Proj of R/LT(I_p) has dimension n - 1 - min(r, n)."""
    original = groebner._pair_loop

    def full(forms, packing, q, size=None, numerator=None):
        forms, counts, _ = original(forms, packing, q)
        n = packing.order.nvars
        leads = [packing.unpack(lm) for lm, _, _ in forms]
        data = groebner._hilbert_from_numerator(groebner._hilbert_numerator(leads, n), n)
        return forms, counts, data.dimension == n - 1 - (size + 1)

    monkeypatch.setattr(groebner, "_pair_loop", full)


def _random_ideals():
    """(ring, generators) of seeded random forms with r < n, r = n and
    r > n, in 3 to 5 variables, of degrees 1 to 3."""
    rng = random.Random(25)
    ideals = []
    for n in (3, 4, 5):
        ring = PolynomialRing(tuple(f"x{i}" for i in range(n)))
        for r in (1, n - 1, n, n + 1):
            for _ in range(3):
                degrees = [rng.randint(1, 3) for _ in range(r)]
                ideals.append((ring, [random_homogeneous(ring, d, rng) for d in degrees]))
    return ideals


def _non_regular_ideals():
    """(ring, generators) that are not a regular sequence: a repeated
    generator, g with g*h, and forms sharing the factor x1, with r < n and
    r = n."""
    rng = random.Random(26)
    ideals = []
    for n in (3, 4):
        ring = PolynomialRing(tuple(f"x{i}" for i in range(n)))
        g, h, k = (random_homogeneous(ring, d, rng) for d in (2, 1, 2))
        x1 = ring.variable(1)
        ideals += [
            (ring, [g, g]),
            (ring, [g, g * h]),
            (ring, [x1 * g, x1 * h]),
            (ring, [x1 * g, x1 * h, k] + [random_homogeneous(ring, 2, rng) for _ in range(n - 3)]),
        ]
    return ideals


def test_the_target_changes_no_verdict(monkeypatch):
    # the verdict of the full pair loop mod p, with no watch, on the same
    # forms, read off a Hilbert numerator of its leads
    regular, non_regular = _random_ideals(), _non_regular_ideals()
    verdicts = [certified_hilbert_data(Ideal(ring, gens)) for ring, gens in regular + non_regular]
    _full_loop_reading(monkeypatch)
    assert verdicts == [
        certified_hilbert_data(Ideal(ring, gens)) for ring, gens in regular + non_regular
    ]
    assert verdicts[len(regular):] == [None] * len(non_regular)
    # every shape of regular input is certified somewhere
    shapes = {
        (len(gens) > ring.nvars) - (len(gens) < ring.nvars)
        for (ring, gens), data in zip(regular, verdicts)
        if data is not None
    }
    assert shapes == {-1, 0, 1}


def test_skipped_pairs_are_the_zero_reductions_of_their_degree(monkeypatch):
    # a regular sequence of r = n forms: in each degree the loop with the
    # target reduces the pairs the full loop reduces first, and the full
    # loop's further pairs of that degree, which the target skips, all
    # reduce to zero
    ring = PolynomialRing(tuple(f"x{i}" for i in range(5)))
    rng = random.Random(1)
    I = Ideal(ring, [random_homogeneous(ring, d, rng) for d in (1, 2, 3, 4, 5)])
    calls = []
    original = groebner._pair_loop

    def recording(forms, packing, q, size=None, numerator=None):
        calls.append((list(forms), packing, q, size, numerator))
        return original(forms, packing, q, size, numerator)

    with monkeypatch.context() as m:
        m.setattr(groebner, "_pair_loop", recording)
        assert certified_hilbert_data(I) == EMPTY
    (forms, packing, q, size, numerator), = calls
    assert (size, numerator) == (4, groebner._regular_numerator(I.generators))

    def reductions(*watch):
        """(degree, reduced to zero) of each S-pair the loop divides, its
        counts and whether rule (b) stopped it."""
        seen = []
        s_pair, divide = groebner._s_pair, groebner._divide

        def recording_s_pair(f, g, top, guard, q):
            seen.append(top & packing.mask)
            return s_pair(f, g, top, guard, q)

        def recording_divide(pending, forms, guard, q):
            remainder, scale = divide(pending, forms, guard, q)
            seen[-1] = (seen[-1], not remainder)
            return remainder, scale

        with monkeypatch.context() as m:
            m.setattr(groebner, "_s_pair", recording_s_pair)
            m.setattr(groebner, "_divide", recording_divide)
            _, counts, stopped = original(list(forms), packing, q, *watch)
        return seen, counts, stopped

    fast, (reduced, zero, skipped), stopped = reductions(size, numerator)
    full, full_counts, full_stopped = reductions()
    assert (stopped, full_stopped) == (True, False)
    assert (reduced, zero) == (len(fast), sum(z for _, z in fast))
    full_zero = sum(z for _, z in full)
    assert full_counts == (len(full), full_zero, 0)
    assert reduced - zero == len(full) - full_zero
    assert zero + skipped == full_zero
    assert skipped > 0
    for degree in {d for d, _ in full}:
        kept = [z for d, z in fast if d == degree]
        all_of_degree = [z for d, z in full if d == degree]
        assert all_of_degree[: len(kept)] == kept
        assert all(all_of_degree[len(kept):])


class TestCurveValidate:
    def test_smooth_instance_passes(self):
        plain, code = run(["curve", bundled("two-quadrics-p4"), "--seed", "1"])[:2]
        assert code == EXIT_OK
        checked, code = run(["curve", bundled("two-quadrics-p4"), "--seed", "1", "--validate"])[:2]
        assert code == EXIT_OK
        assert checked["result"] == plain["result"]

    def test_singular_intersection_exits_2(self, tmp_path):
        # a cubic surface smooth at [1:0:0:0], singular at [0:0:0:1], with
        # no line through [1:0:0:0]
        path = tmp_path / "singular.json"
        path.write_text(json.dumps({
            "variables": ["x0", "x1", "x2", "x3"],
            "ambient": [],
            "cutting": [{"expression": "x0^2*x3 + x0*x1^2 + x2^3 + x1*x2*x3", "degree": 3}],
            "point": ["1", "0", "0", "0"],
        }))
        report, code, _ = run(["curve", str(path), "--validate"])
        assert code == EXIT_HYPOTHESIS
        assert report["error"]["condition"] == "smoothness"
        assert run(["curve", str(path)])[1] != EXIT_HYPOTHESIS
