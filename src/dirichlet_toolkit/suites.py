"""Named verification suites: seeded property batteries.

Each suite checks one computable statement (ring/action laws, projection
laws, the Bohr lemma at finite T, dilation contraction, seminorm convexity,
inverse-closedness of invariants, coefficient recovery) over seeded random
inputs.  Failures carry replayable inputs.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from . import analysis, bohr
from .builders import (
    random_permutation,
    random_series,
    random_support_series,
)
from .group import (
    PermutationGroup,
    act,
    group_average,
    invariant_orbit_sums,
    is_invariant,
    phi_restrict,
    project_invariant,
)
from .primes import PrimeTable
from .scalars import EXACT, FLOAT
from .series import TruncatedDirichletSeries


@dataclass
class SuiteResult:
    suite: str
    trials: int
    seed: int
    failures: list = field(default_factory=list)
    elapsed: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "failures": self.failures,
            "elapsed": self.elapsed,
            "info": self.info,
        }


def _fail(result: SuiteResult, prop: str, inputs: dict, expected, got) -> None:
    result.failures.append(
        {
            "property": prop,
            "inputs": inputs,
            "expected": str(expected),
            "got": str(got),
        }
    )


@lru_cache(maxsize=8)
def _table(bound: int) -> PrimeTable:
    return PrimeTable(bound)


def _pool(table: PrimeTable, max_index: int, max_omega: int, limit: int) -> list[int]:
    """Integers <= limit whose prime indices are <= max_index, Omega <= max_omega."""
    out = []
    for n in range(2, limit + 1):
        fac = table.factor(n)
        if fac.omega <= max_omega and all(i <= max_index for i, _ in fac.entries):
            out.append(n)
    return out


def standard_small_groups() -> list[tuple[str, PermutationGroup]]:
    """Ten finite groups acting on prime indices <= 8."""
    specs = [
        ("S2", ["(1 2)"]),
        ("S3", ["(1 2)", "(2 3)"]),
        ("S2xS2", ["(1 2)", "(3 4)"]),
        ("C5", ["(1 2 3 4 5)"]),
        ("diag-swap", ["(1 2)(3 4)"]),
        ("C3", ["(1 2 3)"]),
        ("S4", ["(1 2)", "(2 3)", "(3 4)"]),
        ("S2-high", ["(2 3)"]),
        ("S2xS2-gap", ["(1 2)", "(4 5)"]),
        ("mixed-cycle", ["(1 3 5)(2 4)"]),
    ]
    return [(name, PermutationGroup.from_cycles(*gens)) for name, gens in specs]


# -- ring and action laws (suite "prop3.1a") ------------------------------


def suite_prop31a(seed: int = 42, trials: int = 100) -> SuiteResult:
    result = SuiteResult("prop3.1a", trials, seed)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    table = _table(30_000)
    pool = _pool(table, 6, 2, 100)
    for k in range(trials):
        s = rng.randrange(1 << 30)
        f = random_series(256, s, 0.1)
        g = random_series(256, s + 1, 0.1)
        h = random_series(256, s + 2, 0.1)
        if (f * g) * h != f * (g * h):
            _fail(result, "associativity", {"seed": s}, "(fg)h == f(gh)", "mismatch")
        if (f + g) * h != f * h + g * h:
            _fail(result, "distributivity", {"seed": s}, "(f+g)h == fh+gh", "mismatch")
        if f * g != g * f:
            _fail(result, "commutativity", {"seed": s}, "fg == gf", "mismatch")

        # Action laws need supports whose pairwise products stay inside the
        # window, so truncation never interferes.
        sigma = random_permutation(6, s + 3)
        tau = random_permutation(6, s + 4)
        u = random_support_series(pool, s + 5, 6)
        v = random_support_series(pool, s + 6, 6)
        u = u.truncate(30_000)
        v = v.truncate(30_000)
        if act(sigma * tau, u, table) != act(sigma, act(tau, u, table), table):
            _fail(result, "composition", {"seed": s}, "S_{st} == S_s S_t", "mismatch")
        if act(sigma, u * v, table) != act(sigma, u, table) * act(sigma, v, table):
            _fail(result, "multiplicativity", {"seed": s}, "S(uv) == S(u)S(v)", "mismatch")
        moved = act(sigma, u, table)
        if Counter(u.coeffs.values()) != Counter(moved.coeffs.values()):
            _fail(result, "isometry", {"seed": s}, "coefficient multiset preserved", "mismatch")
    result.elapsed = time.perf_counter() - t0
    return result


# -- projection laws (suite "thm1.7") and the finite-average identity -----

_PROJ_BOUND = 140_000


def suite_thm17(seed: int = 42, trials: int = 60) -> SuiteResult:
    result = SuiteResult("thm1.7", trials, seed)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    table = _table(_PROJ_BOUND)
    pool = _pool(table, 8, 2, 100)
    groups = standard_small_groups()
    for k in range(trials):
        s = rng.randrange(1 << 30)
        name, grp = groups[k % len(groups)]
        inputs = {"seed": s, "group": name}
        g = random_support_series(pool, s, 6, real_only=True).truncate(_PROJ_BOUND)
        pg = project_invariant(g, grp, table)
        if project_invariant(pg, grp, table) != pg:
            _fail(result, "idempotent", inputs, "pi(pi g) == pi g", "mismatch")
        if pg.l1_norm_exact() > g.l1_norm_exact():
            _fail(result, "nonexpansive", inputs, "l1(pi g) <= l1(g)", "exceeds")
        rep = is_invariant(pg, grp, table)
        if rep.status != "invariant":
            _fail(result, "range", inputs, "invariant", rep.status)
        h = random_support_series(pool, s + 1, 5).truncate(_PROJ_BOUND)
        f_inv = project_invariant(h, grp, table)
        if project_invariant(f_inv * g, grp, table) != f_inv * project_invariant(
            g, grp, table
        ):
            _fail(result, "module-law", inputs, "pi(fg) == f pi(g)", "mismatch")
        if group_average(g, grp, table) != pg:
            _fail(result, "lemma6.4", inputs, "average == projection", "mismatch")
    unit = TruncatedDirichletSeries.unit(_PROJ_BOUND)
    for name, grp in groups:
        if project_invariant(unit, grp, table) != unit:
            _fail(result, "norm-one-at-unit", {"group": name}, "pi(1) == 1", "mismatch")
    result.elapsed = time.perf_counter() - t0
    return result


def suite_lemma64(seed: int = 42, trials: int = 60) -> SuiteResult:
    result = SuiteResult("lemma6.4", trials, seed)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    table = _table(_PROJ_BOUND)
    pool = _pool(table, 8, 2, 100)
    groups = standard_small_groups()
    for k in range(trials):
        s = rng.randrange(1 << 30)
        name, grp = groups[k % len(groups)]
        f = random_support_series(pool, s, 7).truncate(_PROJ_BOUND)
        if group_average(f, grp, table) != project_invariant(f, grp, table):
            _fail(
                result,
                "average-equals-projection",
                {"seed": s, "group": name},
                "equal",
                "mismatch",
            )
    result.elapsed = time.perf_counter() - t0
    return result


# -- Bohr fundamental lemma at finite T -----------------------------------


def _random_bohr_series(seed: int, support_size: int = 4) -> TruncatedDirichletSeries:
    # Sparse supports keep the Kronecker approximation on the vertical line
    # fast enough that a finite sample window nearly attains the torus sup.
    rng = random.Random(seed)
    window = rng.randint(6, 20)
    support = rng.sample(range(1, window + 1), min(support_size, window))
    coeffs = {n: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for n in support}
    return TruncatedDirichletSeries(window, coeffs, FLOAT)


def suite_bohr_lemma(
    seed: int = 42,
    trials: int = 20,
    T: float = 1e4,
    samples: int = 200_000,
    gap_tol: float = 1e-2,
    required_fraction: float = 0.9,
) -> SuiteResult:
    result = SuiteResult("bohr-lemma", trials, seed)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    table = _table(64)
    gaps = []
    within = 0
    for _ in range(trials):
        s = rng.randrange(1 << 30)
        f = _random_bohr_series(s)
        p = bohr.bohr_lift(f, table)
        k = len(p.variables())
        tsup = bohr.torus_sup(p, 1.0, grid_per_var=bohr.auto_grid(k), seed=s)
        ls = analysis.line_sup(f, 0.0, T, samples)
        if ls.sup_estimate > tsup.value + 1e-9:
            _fail(
                result,
                "one-sided",
                {"seed": s},
                "line sup <= torus sup + 1e-9",
                f"{ls.sup_estimate} > {tsup.value}",
            )
        gap = (tsup.value - ls.sup_estimate) / max(tsup.value, 1e-30)
        gaps.append(gap)
        if gap <= gap_tol:
            within += 1
    result.info = {
        "max_relative_gap": max(gaps, default=0.0),
        "within_gap_tolerance": within,
        "required": int(required_fraction * trials),
    }
    if within < int(required_fraction * trials):
        _fail(
            result,
            "gap-fraction",
            {"seed": seed},
            f">= {int(required_fraction * trials)} of {trials} within {gap_tol}",
            str(within),
        )
    result.elapsed = time.perf_counter() - t0
    return result


# -- dilation contraction (suite "prop1.1") -------------------------------


def suite_prop11(seed: int = 42, trials: int = 20) -> SuiteResult:
    result = SuiteResult("prop1.1", trials, seed)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    table = _table(64)
    pool = _pool(table, 4, 3, 40)
    radii = [0.1 * i for i in range(1, 10)]
    for _ in range(trials):
        s = rng.randrange(1 << 30)
        f = random_support_series(pool, s, 6, mode=FLOAT)
        p = bohr.bohr_lift(f, table)
        k = len(p.variables())
        g = bohr.auto_grid(k)
        base = bohr.torus_sup(p, 1.0, grid_per_var=g, seed=s).value
        for r in radii:
            dil = bohr.torus_sup(p.dilate(r), 1.0, grid_per_var=g, seed=s).value
            if dil > base + 1e-9:
                _fail(
                    result,
                    "torus-contraction",
                    {"seed": s, "r": r},
                    f"<= {base} + 1e-9",
                    str(dil),
                )
        est = analysis.sigma_u_plus_estimate(f, table).value
        for r in (0.3, 0.7):
            est_r = analysis.sigma_u_plus_estimate(f.dilate(r, table), table).value
            if est_r > est + 1e-9:
                _fail(
                    result,
                    "sigma-u-contraction",
                    {"seed": s, "r": r},
                    f"<= {est} + 1e-9",
                    str(est_r),
                )
    result.elapsed = time.perf_counter() - t0
    return result


# -- seminorm profiles (suite "prop1.2") ----------------------------------


def suite_prop12(seed: int = 42, trials: int = 20, grid_points: int = 17) -> SuiteResult:
    result = SuiteResult("prop1.2", trials, seed)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    table = _table(64)
    pool = _pool(table, 4, 3, 40)
    r_grid = [0.1 + 0.8 * i / (grid_points - 1) for i in range(grid_points)]
    for _ in range(trials):
        s = rng.randrange(1 << 30)
        f = random_support_series(pool, s, 5, mode=FLOAT)
        profile = analysis.seminorm_profile(f, r_grid, table, seed=s)
        report = analysis.convexity_check(profile, tol=1e-6)
        if not report.passed:
            _fail(
                result,
                "log-convexity",
                {"seed": s},
                "monotone and midpoint-convex",
                f"min defect {min(report.defects):.3g}, monotone={report.monotone}",
            )
    # Single-monomial fixture: P_r of 2^{-s} is exactly r.
    fixture = TruncatedDirichletSeries.monomial(2, 1.0, mode=FLOAT)
    for r in (0.1, 0.5, 0.9):
        val = analysis.seminorm_Pr(fixture, r, table)
        if abs(val - r) > 1e-9:
            _fail(result, "monomial-fixture", {"r": r}, str(r), str(val))
    result.elapsed = time.perf_counter() - t0
    return result


# -- restriction homomorphism and sub-torus monotonicity ------------------


def suite_prop61(seed: int = 42, trials: int = 40) -> SuiteResult:
    result = SuiteResult("prop6.1", trials, seed)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    table = _table(30_000)
    pool = _pool(table, 5, 2, 100)
    nested = [{1}, {1, 2}, {1, 2, 3}, {1, 2, 3, 4}, {1, 2, 3, 4, 5}]
    for _ in range(trials):
        s = rng.randrange(1 << 30)
        f = random_support_series(pool, s, 6).truncate(30_000)
        g = random_support_series(pool, s + 1, 6).truncate(30_000)
        idx = set(rng.sample(range(1, 6), rng.randint(1, 4)))
        lhs = phi_restrict(f * g, idx, table)
        rhs = phi_restrict(f, idx, table) * phi_restrict(g, idx, table)
        if lhs != rhs:
            _fail(result, "homomorphism", {"seed": s, "indices": sorted(idx)}, "equal", "mismatch")
        ff = f.to_float()
        p = bohr.bohr_lift(ff.truncate(200), _table(256))
        sups = []
        for index_set in nested:
            q = p.restrict(index_set)
            k = max(len(q.variables()), 1)
            sups.append(
                bohr.torus_sup(q, 1.0, grid_per_var=bohr.auto_grid(k), seed=s).value
            )
        for a, b in zip(sups, sups[1:]):
            if a > b + 1e-9:
                _fail(
                    result,
                    "sub-torus-monotone",
                    {"seed": s},
                    "nondecreasing in nested index sets",
                    str(sups),
                )
                break
    result.elapsed = time.perf_counter() - t0
    return result


# -- inverse-closedness of invariants (suite "lemma9.1") ------------------


def suite_lemma91(seed: int = 42, trials: int = 40) -> SuiteResult:
    result = SuiteResult("lemma9.1", trials, seed)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    table = _table(130_000)
    pool = _pool(table, 8, 2, 60)
    groups = standard_small_groups()
    inconclusive = 0
    for k in range(trials):
        s = rng.randrange(1 << 30)
        name, grp = groups[k % len(groups)]
        h = random_support_series(pool, s, 4).truncate(512)
        body = project_invariant(h, grp, table).truncate(512)
        coeffs = dict(body.coeffs)
        coeffs.pop(1, None)
        coeffs[1] = 1
        u = TruncatedDirichletSeries(512, coeffs, EXACT)
        inv = u.invert()
        if u * inv != TruncatedDirichletSeries.unit(512):
            _fail(result, "inverse", {"seed": s, "group": name}, "u * inv == 1", "mismatch")
        rep = is_invariant(inv, grp, table)
        if rep.status == "violated":
            _fail(
                result,
                "invariant-inverse",
                {"seed": s, "group": name},
                "no violation",
                f"witness {rep.witness}",
            )
        elif rep.status == "inconclusive":
            inconclusive += 1
    result.info = {"inconclusive": inconclusive}
    result.elapsed = time.perf_counter() - t0
    return result


# -- coefficient recovery by discrete Cauchy integrals --------------------


def suite_eq28(seed: int = 42, trials: int = 50) -> SuiteResult:
    result = SuiteResult("eq2.8", trials, seed)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    table = _table(64)
    pool = _pool(table, 4, 6, 64)
    for _ in range(trials):
        s = rng.randrange(1 << 30)
        f = random_support_series(pool, s, 6, mode=FLOAT)
        p = bohr.bohr_lift(f, table)
        n = rng.choice(sorted(f.coeffs) + [rng.randint(1, 64)])
        fac = table.factor(n)
        if any(i > 4 for i, _ in fac.entries):
            n = rng.choice(sorted(f.coeffs))
            fac = table.factor(n)
        degs = p.degree_per_variable()
        for i, e in fac.entries:
            degs[i] = max(degs.get(i, 0), e)
        Q = max(degs.values(), default=0) + 1
        r = 0.3 + 0.5 * rng.random()
        got = bohr.cauchy_coefficient(f, n, table, Q, r)
        expected = complex(f.coeffs.get(n, 0j))
        if abs(got - expected) > 1e-10 * max(1.0, abs(expected)):
            _fail(result, "dft-recovery", {"seed": s, "n": n}, str(expected), str(got))
        # Coefficient bound: |a_n| r^Omega(n) <= sup on the torus of radius r.
        if n in f.coeffs:
            sup = bohr.torus_sup(
                p, r, grid_per_var=bohr.auto_grid(len(p.variables())), seed=s
            ).value
            lhs = abs(expected) * r ** table.omega(n)
            if lhs > sup + 1e-9:
                _fail(result, "coefficient-bound", {"seed": s, "n": n}, f"<= {sup}", str(lhs))
    result.elapsed = time.perf_counter() - t0
    return result


def suite_perron(seed: int = 42, trials: int = 10) -> SuiteResult:
    result = SuiteResult("perron", trials, seed)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    for _ in range(trials):
        s = rng.randrange(1 << 30)
        f = random_series(30, s, 0.3, mode=FLOAT)
        if f.is_zero():
            continue
        n = rng.choice(f.support())
        got = analysis.perron_recover(f, n, 2.0, 2000.0, steps=40_000).value
        expected = complex(f.coeffs[n])
        bound = analysis.perron_error_bound(f, n, 2.0, 2000.0) + 1e-6
        if abs(got - expected) > bound:
            _fail(
                result,
                "perron-within-bound",
                {"seed": s, "n": n},
                f"|err| <= {bound}",
                str(abs(got - expected)),
            )
    result.elapsed = time.perf_counter() - t0
    return result


# -- invariant polynomial counts (orbit sums) -----------------------------


def _partitions_leq(d: int, k: int) -> int:
    """Partitions of d into at most k parts (simple DP oracle)."""
    table = [[0] * (k + 1) for _ in range(d + 1)]
    for j in range(k + 1):
        table[0][j] = 1
    for n in range(1, d + 1):
        for j in range(1, k + 1):
            table[n][j] = table[n][j - 1] + (table[n - j][j] if n >= j else 0)
    return table[d][k]


def suite_orbit_sums(seed: int = 42, trials: int = 0) -> SuiteResult:
    result = SuiteResult("orbit-sums", trials, seed)
    t0 = time.perf_counter()
    for k in (2, 3, 4):
        gens = [f"({i} {i + 1})" for i in range(1, k)]
        grp = PermutationGroup.from_cycles(*gens)
        sums = invariant_orbit_sums(k, 6, grp)
        by_degree = Counter(p.total_degree() for p in sums)
        for d in range(7):
            expected = _partitions_leq(d, k)
            if by_degree.get(d, 0) != expected:
                _fail(
                    result,
                    "count",
                    {"k": k, "degree": d},
                    str(expected),
                    str(by_degree.get(d, 0)),
                )
        for p in sums:
            for el in grp.elements():
                if p.permute_variables(el) != p:
                    _fail(result, "fixed-pointwise", {"k": k}, "invariant", "moved")
                    break
    result.elapsed = time.perf_counter() - t0
    return result


SUITES = {
    "prop3.1a": suite_prop31a,
    "thm1.7": suite_thm17,
    "lemma6.4": suite_lemma64,
    "bohr-lemma": suite_bohr_lemma,
    "prop1.1": suite_prop11,
    "prop1.2": suite_prop12,
    "prop6.1": suite_prop61,
    "lemma9.1": suite_lemma91,
    "eq2.8": suite_eq28,
    "perron": suite_perron,
    "orbit-sums": suite_orbit_sums,
}


def run_suite(name: str, seed: int = 42, trials: int | None = None, **kwargs) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    fn = SUITES[name]
    if trials is None:
        return fn(seed=seed, **kwargs)
    return fn(seed=seed, trials=trials, **kwargs)
