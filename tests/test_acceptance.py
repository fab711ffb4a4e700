"""Acceptance battery: one test per headline property, one printed line each.

Run with ``pytest -v tests/test_acceptance.py`` (or ``-s`` to see the
printed summary lines).  Each criterion states its own tolerance; random
inputs are generated from fixed seeds so failures replay exactly.
"""

import time
from fractions import Fraction

from dirichlet_toolkit import (
    ExactComplex,
    PrimeTable,
    TruncatedDirichletSeries,
    bohr_drop,
    bohr_lift,
)
from dirichlet_toolkit import suites
from dirichlet_toolkit.analysis import perron_recover
from dirichlet_toolkit.builders import random_series, random_support_series, random_unit
from dirichlet_toolkit.scalars import FLOAT

SEED = 42


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_ring_and_action_laws():
    t0 = time.perf_counter()
    result = suites.run_suite("prop3.1a", seed=SEED, trials=500)
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "ring + action laws, 500 exact series, exact equality, < 60 s",
        result.passed and elapsed < 60.0,
        f"{elapsed:.1f} s, {len(result.failures)} failures",
    )


def test_criterion_02_inversion_oracle():
    def mobius(n):
        out, d = 1, 2
        while d * d <= n:
            if n % d == 0:
                n //= d
                if n % d == 0:
                    return 0
                out = -out
            d += 1
        return -out if n > 1 else out

    mu = TruncatedDirichletSeries.zeta(128).invert()
    ok = all(mu.coefficient(n) == ExactComplex(mobius(n)) for n in range(1, 129))
    unit = TruncatedDirichletSeries.unit(128)
    failures = 0
    for i in range(200):
        u = random_unit(128, SEED + i, 0.1)
        if u * u.invert() != unit:
            failures += 1
    _report(
        2,
        "invert(zeta_128) = Moebius; f * invert(f) = 1 for 200 units, exact",
        ok and failures == 0,
        f"{failures} unit failures",
    )


def test_criterion_03_projection_laws():
    laws = suites.run_suite("thm1.7", seed=SEED, trials=60)
    avg = suites.run_suite("lemma6.4", seed=SEED, trials=60)
    _report(
        3,
        "projection laws over 10 groups, exact; average = projection",
        laws.passed and avg.passed,
        f"{len(laws.failures) + len(avg.failures)} failures",
    )


def test_criterion_04_bohr_isomorphism():
    table = PrimeTable(30_000)
    pool = [n for n in range(2, 101) if all(p <= 13 for p in _prime_factors(n))]
    round_trip = homo = intertwine = 0
    for i in range(200):
        f = random_series(300, SEED + i, 0.15)
        if bohr_drop(bohr_lift(f, table), table, f.window) != f:
            round_trip += 1
    for i in range(100):
        # supports whose pairwise products stay inside the window, so the
        # product is untruncated and the lift comparison is exact
        f = random_support_series(pool, SEED + i, 5).truncate(30_000)
        g = random_support_series(pool, 7 * SEED + i, 5).truncate(30_000)
        if bohr_lift(f * g, table).terms != bohr_lift(f, table).mul(bohr_lift(g, table)).terms:
            homo += 1
        r = Fraction(i % 7 + 1, i % 5 + 2)
        if bohr_lift(f.dilate(r, table), table).terms != bohr_lift(f, table).dilate(r).terms:
            intertwine += 1
    _report(
        4,
        "lift/drop round trip (200), lift homomorphism and dilation intertwining, exact",
        round_trip == 0 and homo == 0 and intertwine == 0,
        f"{round_trip}/{homo}/{intertwine} failures",
    )


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def test_criterion_05_bohr_lemma_numeric():
    t0 = time.perf_counter()
    result = suites.run_suite("bohr-lemma", seed=SEED, trials=50)
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "line sup <= torus sup + 1e-9; relative gap <= 1e-2 in >= 45/50; <= 3 min",
        result.passed and elapsed <= 180.0,
        f"{elapsed:.1f} s, within={result.info.get('within_gap_tolerance')}",
    )


def test_criterion_06_dilation_contraction():
    result = suites.run_suite("prop1.1", seed=SEED, trials=20)
    _report(
        6,
        "torus sup and sigma_u surrogate contract under dilation (+1e-9 slack)",
        result.passed,
        f"{len(result.failures)} failures",
    )


def test_criterion_07_seminorm_convexity():
    result = suites.run_suite("prop1.2", seed=SEED, trials=50)
    _report(
        7,
        "seminorm profiles monotone and log-convex within 1e-6; P_r fixture = r",
        result.passed,
        f"{len(result.failures)} failures",
    )


def test_criterion_08_coefficient_recovery():
    dft = suites.run_suite("eq2.8", seed=SEED, trials=100)
    perron = suites.run_suite("perron", seed=SEED, trials=10)
    fixture = TruncatedDirichletSeries(10, {5: 3.0}, FLOAT)
    got = perron_recover(fixture, 5, 2.0, 2000.0, steps=200_000).value
    fixture_ok = abs(got - 3.0) <= 1e-3
    _report(
        8,
        "DFT recovery 1e-10 rel; Perron within sinc bound; fixture within 1e-3",
        dft.passed and perron.passed and fixture_ok,
        f"dft={len(dft.failures)} perron={len(perron.failures)} |err|={abs(got - 3.0):.2e}",
    )


def test_criterion_09_restriction_homomorphism():
    result = suites.run_suite("prop6.1", seed=SEED, trials=40)
    _report(
        9,
        "restriction is an exact homomorphism; sub-torus sups monotone (+1e-9)",
        result.passed,
        f"{len(result.failures)} failures",
    )


def test_criterion_10_invariant_inverses():
    result = suites.run_suite("lemma9.1", seed=SEED, trials=100)
    _report(
        10,
        "inverses of 100 invariant units show no invariance violation, exact",
        result.passed,
        f"{len(result.failures)} failures, inconclusive={result.info.get('inconclusive')}",
    )


def test_criterion_11_orbit_sum_counts():
    result = suites.run_suite("orbit-sums", seed=SEED)
    _report(
        11,
        "orbit-sum counts match partitions into <= k parts for S_k, k <= 4, deg <= 6",
        result.passed,
        f"{len(result.failures)} failures",
    )
