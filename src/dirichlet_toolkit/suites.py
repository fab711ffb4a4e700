"""Named verification suites: seeded property batteries.

Each suite checks one computable statement (ring/action laws, projection
laws, the Bohr lemma at finite T, dilation contraction, seminorm convexity,
inverse-closedness of invariants, coefficient recovery) over seeded random
inputs.  Failures carry replayable inputs.

Each suite is a body listed in ``SUITES`` with its default trial count;
``run_suite`` seeds, runs and times it, and takes only a seed and a count.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
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
        return asdict(self)


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


def _prop31a(result: SuiteResult, rng: random.Random, trials: int) -> None:
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


# -- projection laws (suite "thm1.7") and the finite-average identity -----

_PROJ_BOUND = 140_000


def _thm17(result: SuiteResult, rng: random.Random, trials: int) -> None:
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


def _lemma64(result: SuiteResult, rng: random.Random, trials: int) -> None:
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


# -- Bohr fundamental lemma at finite T -----------------------------------


_BOHR_SUPPORT_SIZE = 4


def _random_bohr_series(seed: int) -> TruncatedDirichletSeries:
    # Sparse supports keep the Kronecker approximation on the vertical line
    # fast enough that a finite sample window nearly attains the torus sup.
    rng = random.Random(seed)
    window = rng.randint(6, 20)
    support = rng.sample(range(1, window + 1), _BOHR_SUPPORT_SIZE)
    coeffs = {n: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for n in support}
    return TruncatedDirichletSeries(window, coeffs, FLOAT)


# line-sup window and samples, the relative gap that counts as attaining
# the torus sup, and the share of trials that must attain it
_BOHR_T = 1e4
_BOHR_SAMPLES = 200_000
_BOHR_GAP_TOL = 1e-2
_BOHR_REQUIRED_FRACTION = 0.9


def _bohr_lemma(result: SuiteResult, rng: random.Random, trials: int) -> None:
    table = _table(64)
    gaps = []
    within = 0
    for _ in range(trials):
        s = rng.randrange(1 << 30)
        f = _random_bohr_series(s)
        p = bohr.bohr_lift(f, table)
        k = len(p.variables())
        tsup = bohr.torus_sup(p, 1.0, grid_per_var=bohr.auto_grid(k), seed=s)
        ls = analysis.line_sup(f, 0.0, _BOHR_T, _BOHR_SAMPLES)
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
        if gap <= _BOHR_GAP_TOL:
            within += 1
    required = int(_BOHR_REQUIRED_FRACTION * trials)
    result.info = {
        "max_relative_gap": max(gaps, default=0.0),
        "within_gap_tolerance": within,
        "required": required,
    }
    if within < required:
        _fail(
            result,
            "gap-fraction",
            {"seed": result.seed},
            f">= {required} of {trials} within {_BOHR_GAP_TOL}",
            str(within),
        )


# -- dilation contraction (suite "prop1.1") -------------------------------


def _prop11(result: SuiteResult, rng: random.Random, trials: int) -> None:
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


# -- seminorm profiles (suite "prop1.2") ----------------------------------


_PROP12_R_GRID = [0.1 + 0.8 * i / 16 for i in range(17)]


def _prop12(result: SuiteResult, rng: random.Random, trials: int) -> None:
    table = _table(64)
    pool = _pool(table, 4, 3, 40)
    for _ in range(trials):
        s = rng.randrange(1 << 30)
        f = random_support_series(pool, s, 5, mode=FLOAT)
        profile = analysis.seminorm_profile(f, _PROP12_R_GRID, table, seed=s)
        report = analysis.convexity_check(profile)
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


# -- restriction homomorphism and sub-torus monotonicity ------------------


def _prop61(result: SuiteResult, rng: random.Random, trials: int) -> None:
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


# -- inverse-closedness of invariants (suite "lemma9.1") ------------------


def _lemma91(result: SuiteResult, rng: random.Random, trials: int) -> None:
    table = _table(130_000)
    pool = _pool(table, 8, 2, 60)
    groups = standard_small_groups()
    inconclusive = checked_pairs = 0
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
        checked_pairs += rep.checked_pairs
        inconclusive += rep.status == "inconclusive"
        if rep.status != "invariant":
            got = f"{rep.status}, witness {rep.witness}"
            _fail(result, "invariant-inverse", {"seed": s, "group": name}, "invariant", got)
    result.info = {"inconclusive": inconclusive, "checked_pairs": checked_pairs}


# -- coefficient recovery by discrete Cauchy integrals --------------------


def _eq28(result: SuiteResult, rng: random.Random, trials: int) -> None:
    table = _table(64)
    pool = _pool(table, 4, 6, 64)
    for _ in range(trials):
        s = rng.randrange(1 << 30)
        f = random_support_series(pool, s, 6, mode=FLOAT)
        p = bohr.bohr_lift(f, table)
        n = rng.choice(sorted(f.coeffs) + [rng.randint(1, 64)])
        if any(i > 4 for i, _ in table.factor(n).entries):
            n = rng.choice(sorted(f.coeffs))
        r = 0.3 + 0.5 * rng.random()
        got = bohr.cauchy_coefficient(f, n, table, r)
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


def _perron(result: SuiteResult, rng: random.Random, trials: int) -> None:
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


def _orbit_sums(result: SuiteResult, rng: random.Random, trials: int) -> None:
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


# name -> (body, default trial count); a body fills in ``result`` from ``rng``.
SUITES = {
    "prop3.1a": (_prop31a, 100),
    "thm1.7": (_thm17, 60),
    "lemma6.4": (_lemma64, 60),
    "bohr-lemma": (_bohr_lemma, 20),
    "prop1.1": (_prop11, 20),
    "prop1.2": (_prop12, 20),
    "prop6.1": (_prop61, 40),
    "lemma9.1": (_lemma91, 40),
    "eq2.8": (_eq28, 50),
    "perron": (_perron, 10),
    "orbit-sums": (_orbit_sums, 0),
}


def run_suite(name: str, seed: int = 42, trials: int | None = None) -> SuiteResult:
    """Run suite ``name`` on ``random.Random(seed)``; ``trials=None`` takes its default."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    body, default_trials = SUITES[name]
    result = SuiteResult(name, default_trials if trials is None else trials, seed)
    t0 = time.perf_counter()
    body(result, random.Random(seed), result.trials)
    result.elapsed = time.perf_counter() - t0
    return result
