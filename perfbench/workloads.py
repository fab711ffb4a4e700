"""The benchmark's four workloads: inputs, items and output checks.

Inputs come from the benchmark's own ``random.Random(seed)``, never from
the toolkit's builders, so a program change cannot change them.  The
toolkit receives only the generated series.

A workload's items are grouped in rounds.  The timed loop runs whole
rounds, so every run holds the same mix of item kinds whatever its
length, and it cycles through a fixed pool of rounds.  Each output is
checked against ``reference``; a result that has passed the full check
once is remembered, and a later identical result for the same item is
accepted by comparison.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

import numpy as np

import reference as ref

DEFAULT_SEED = 0
# Supports of the sparse workloads come from this fixed generator and only
# coefficient values from --seed: item cost follows the support (its lift,
# its multiplicative closure) and varies tenfold between supports, which
# moved the median item latency by 15% from one seed to the next.
SUPPORT_SEED = 20240404
HERE = os.path.dirname(os.path.abspath(__file__))
TORUS_DUMP = os.path.join(HERE, "torus_reference.json")


def _gauss_complex(rng: random.Random) -> complex:
    return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))


def _gauss_rational(rng: random.Random) -> ref.Exact:
    while True:
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        im = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if re or im:
            return re, im


def exact_form(series) -> dict[int, ref.Exact]:
    return {n: (c.re, c.im) for n, c in series.coeffs.items()}


def shape_error(series, window: int, mode: str) -> str | None:
    if series.window != window or series.mode != mode:
        return f"got window {series.window} mode {series.mode}, want {window} {mode}"
    return None


class Workload:
    """Base: ``rounds`` is the pool of rounds; items are dicts with a 'kind'."""

    name = ""
    tail_pct = 90.0
    # Python run in a fresh interpreter to time set-up; ``src`` is on sys.path.
    setup_code = "import dirichlet_toolkit"

    def __init__(self, tk, seed: int, workdir: str):
        self.tk = tk
        self.rng = random.Random(seed)
        self.supports = random.Random(SUPPORT_SEED)
        self.verified: dict = {}
        self.rounds: list[list[dict]] = []

    def sizes(self) -> dict:
        raise NotImplementedError

    def label(self, item) -> str:
        return item["kind"]

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out) -> str | None:
        raise NotImplementedError


# -- torus-profile -------------------------------------------------------------

R_GRID = [0.1 + 0.8 * i / 16 for i in range(17)]


class TorusProfile(Workload):
    """seminorm_Pr on the 17-point r grid and sigma_u at auto_grid (prop1.1/1.2 traffic)."""

    name = "torus-profile"
    tail_pct = 90.0
    setup_code = "import dirichlet_toolkit as dt; dt.PrimeTable(64)"
    WINDOW = 40
    POOL_ROUNDS = 12
    SIGMA_PER_ROUND = 3

    def __init__(self, tk, seed: int, workdir: str, load_dump: bool = True):
        super().__init__(tk, seed, workdir)
        self.table = tk.dt.PrimeTable(64)
        self.primes = ref.primes_upto(64)
        # Support pool of prop1.1/1.2: prime indices <= 4, Omega <= 3.
        support = [
            n for n in range(2, self.WINDOW + 1)
            if ref.big_omega(n) <= 3 and max(ref.factorize(n)) <= 7
        ]
        for j in range(self.POOL_ROUNDS):
            rnd = [self._item("seminorm", support, 5, r) for r in R_GRID]
            rnd += [self._item("sigma_u", support, 6, None) for _ in range(self.SIGMA_PER_ROUND)]
            for i, item in enumerate(rnd):
                item["pos"] = (j, i)
            self.rounds.append(rnd)
        self.dump = None
        if load_dump and seed == DEFAULT_SEED:
            with open(TORUS_DUMP) as fh:
                self.dump = json.load(fh)["values"]

    def _item(self, kind, support, terms, r):
        coeffs = {n: _gauss_complex(self.rng) for n in self.supports.sample(support, terms)}
        series = self.tk.dt.TruncatedDirichletSeries(self.WINDOW, coeffs, "float")
        return {"kind": kind, "coeffs": coeffs, "series": series, "r": r,
                "seed": self.rng.randrange(1 << 30)}

    def sizes(self):
        return {"window": self.WINDOW, "r_grid": [R_GRID[0], R_GRID[-1], len(R_GRID)],
                "seminorm_terms": 5, "sigma_u_terms": 6, "grid": "8 (seminorm), auto_grid (sigma_u)",
                "round": f"17 seminorm_Pr + {self.SIGMA_PER_ROUND} sigma_u_plus_estimate",
                "pool_rounds": self.POOL_ROUNDS}

    def run(self, item):
        an = self.tk.analysis
        if item["kind"] == "seminorm":
            return an.seminorm_Pr(item["series"], item["r"], self.table, seed=item["seed"])
        return an.sigma_u_plus_estimate(item["series"], self.table).value

    def dump_value(self, item):
        if self.dump is None:
            return None
        j, i = item["pos"]
        return self.dump[j][i]

    def bounds(self, item):
        """(lower, upper) for the value, from the benchmark's own grid and l1 sums."""
        key = id(item)
        if key not in self.verified:
            if item["kind"] == "seminorm":
                terms = ref.lift(item["coeffs"], self.primes)
                lo = ref.grid_max(terms, item["r"], 8) * (1 - 1e-12)
                hi = ref.l1_at_radius(terms, item["r"]) * (1 + 1e-12)
            else:
                lo, hi = self._sigma_bounds(item)
            self.verified[key] = (lo, hi)
        return self.verified[key]

    def _sigma_bounds(self, item):
        # Positive ratios peak at support points (the sup is constant between
        # them), and the estimate is clamped at 0, so these prefixes suffice.
        coeffs = item["coeffs"]
        cands = sorted({n for n in coeffs if n >= 2} | {2, self.WINDOW})
        lo = hi = 0.0
        for npr in cands:
            prefix = {n: c for n, c in coeffs.items() if n <= npr}
            if not prefix:
                continue
            terms = ref.lift(prefix, self.primes)
            gm = ref.grid_max(terms, 1.0, None)
            if gm > 0:
                lo = max(lo, math.log(gm) / math.log(npr))
            hi = max(hi, math.log(ref.l1_at_radius(terms, 1.0)) / math.log(npr))
        return lo - 1e-11, hi + 1e-11

    def check(self, item, out):
        if not isinstance(out, float) or not math.isfinite(out):
            return f"not a finite float: {out!r}"
        lo, hi = self.bounds(item)
        if not lo <= out <= hi:
            return f"{item['kind']} value {out!r} outside [{lo!r}, {hi!r}]"
        dumped = self.dump_value(item)
        if dumped is not None:
            floor = dumped - 1e-12 * max(1.0, abs(dumped))
            if out < floor:
                return f"{item['kind']} value {out!r} below the recorded {dumped!r}"
        return None


# -- dense-algebra ---------------------------------------------------------------


class DenseAlgebra(Workload):
    """mul and invert of zeta(N) and density-0.5 series at N = 2048, exact and float."""

    name = "dense-algebra"
    # Each round holds nine item kinds of distinct cost; p70 sits inside
    # the seventh cluster for any whole number of rounds.
    tail_pct = 70.0
    N = 2048
    DENSITY = 0.5
    POOL_ROUNDS = 4

    def __init__(self, tk, seed: int, workdir: str):
        super().__init__(tk, seed, workdir)
        T = tk.dt.TruncatedDirichletSeries
        ExactComplex = tk.dt.ExactComplex
        N = self.N
        zeta_exact = {n: ref.ONE for n in range(1, N + 1)}
        zeta_float = {n: 1.0 + 0j for n in range(1, N + 1)}
        zeta = {"exact": (zeta_exact, T(N, {n: ExactComplex(1) for n in zeta_exact}, "exact")),
                "float": (zeta_float, T(N, zeta_float, "float"))}
        for _ in range(self.POOL_ROUNDS):
            rnd = []
            for mode in ("exact", "float"):
                a = self._random(mode)
                b = self._random(mode)
                z = zeta[mode]
                rnd += [
                    {"kind": "mul", "mode": mode, "input": "zeta*zeta", "a": z, "b": z},
                    {"kind": "mul", "mode": mode, "input": "rand*rand", "a": a, "b": b},
                    {"kind": "invert", "mode": mode, "input": "zeta", "a": z},
                    {"kind": "invert", "mode": mode, "input": "rand", "a": a},
                ]
            # A ninth kind (``a`` is the float series drawn last) makes the
            # median fall inside one cluster, float zeta*zeta, instead of
            # between two whose order depends on the seed.
            rnd.append({"kind": "mul", "mode": "float", "input": "zeta*rand", "a": zeta["float"], "b": a})
            self.rounds.append(rnd)
        self.mobius = {n: ref.mobius(n) for n in range(1, N + 1)}

    def _random(self, mode):
        """Density ~0.5 with a_1 = 1: Gaussian rationals or Gaussian floats."""
        rng = self.rng
        coeffs = {1: ref.ONE if mode == "exact" else 1.0 + 0j}
        for n in range(2, self.N + 1):
            if rng.random() < self.DENSITY:
                coeffs[n] = _gauss_rational(rng) if mode == "exact" else _gauss_complex(rng)
        if mode == "exact":
            E = self.tk.dt.ExactComplex
            prog = {n: E(re, im) for n, (re, im) in coeffs.items()}
        else:
            prog = coeffs
        return coeffs, self.tk.dt.TruncatedDirichletSeries(self.N, prog, mode)

    def sizes(self):
        return {"N": self.N, "density": self.DENSITY,
                "round": "mul(zeta,zeta), mul(rand,rand), invert(zeta), invert(rand) in exact and float, "
                         "plus float mul(zeta,rand)",
                "pool_rounds": self.POOL_ROUNDS}

    def label(self, item):
        return f"{item['kind']} {item['input']} {item['mode']}"

    def run(self, item):
        if item["kind"] == "mul":
            return item["a"][1].mul(item["b"][1])
        return item["a"][1].invert()

    def check(self, item, out):
        err = shape_error(out, self.N, item["mode"])
        if err:
            return err
        if item["mode"] == "exact":
            got = exact_form(out)
            if self.verified.get(id(item)) == got:
                return None
            err = self._check_exact(item, got)
            if err is None:
                self.verified[id(item)] = got
            return err
        return self._check_float(item, ref.dense(out.coeffs, self.N))

    def _check_exact(self, item, got):
        a = item["a"][0]
        if item["kind"] == "mul":
            if got != ref.exact_convolve(a, item["b"][0], self.N):
                return "exact mul differs from the brute convolution"
            return None
        if item["input"] == "zeta":
            want = {n: (Fraction(m), Fraction(0)) for n, m in self.mobius.items() if m}
            return None if got == want else "exact inverse of zeta differs from Moebius"
        return ref.exact_unit_check(a, got, self.N)

    def _check_float(self, item, got):
        A = ref.dense(item["a"][0], self.N)
        if item["kind"] == "mul":
            B = ref.dense(item["b"][0], self.N)
            want = ref.float_convolve(A, B)
            scale = ref.float_convolve(np.abs(A), np.abs(B))
        elif item["input"] == "zeta":
            want = np.array([0] + [self.mobius[n] for n in range(1, self.N + 1)], dtype=complex)
            scale = np.ones(1)
        else:
            want = ref.dense({1: 1.0}, self.N)
            scale = ref.float_convolve(np.abs(A), np.abs(got))
            got = ref.float_convolve(A, got)
        res = ref.float_residual(got, want, scale)
        return None if res <= 1e-9 else f"float {item['kind']} residual {res:.3g} > 1e-9"


# -- sparse-invariants -------------------------------------------------------------

GROUPS = [
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


class SparseInvariants(Workload):
    """project_invariant, is_invariant, invert and u * inv at window 512 (thm1.7/lemma9.1 traffic)."""

    name = "sparse-invariants"
    tail_pct = 98.0
    setup_code = "import dirichlet_toolkit as dt; dt.PrimeTable(512)"
    WINDOW = 512
    POOL_ROUNDS = 40

    def __init__(self, tk, seed: int, workdir: str):
        super().__init__(tk, seed, workdir)
        dt = tk.dt
        self.table = dt.PrimeTable(self.WINDOW)
        self.primes = ref.primes_upto(self.WINDOW)
        self.groups = [(name, dt.PermutationGroup.from_cycles(*gens),
                        [ref.parse_cycles(g) for g in gens]) for name, gens in GROUPS]
        # Support pool of thm1.7/lemma9.1: prime indices <= 8, Omega <= 2, n <= 60.
        support = [n for n in range(2, 61) if ref.big_omega(n) <= 2 and max(ref.factorize(n)) <= 19]
        E = dt.ExactComplex
        for _ in range(self.POOL_ROUNDS):
            rnd = []
            for g in range(len(self.groups)):
                chosen = self.supports.sample(support, self.supports.randint(5, 7))
                coeffs = {n: _gauss_rational(self.rng) for n in chosen}
                series = dt.TruncatedDirichletSeries(
                    self.WINDOW, {n: E(re, im) for n, (re, im) in coeffs.items()}, "exact")
                rnd.append({"kind": "sparse", "group": g, "coeffs": coeffs, "series": series})
            self.rounds.append(rnd)

    def sizes(self):
        return {"window": self.WINDOW, "terms": [5, 7], "groups": [name for name, _ in GROUPS],
                "round": "one item per group", "pool_rounds": self.POOL_ROUNDS}

    def run(self, item):
        grp = self.groups[item["group"]][1]
        group = self.tk.group
        T = self.tk.dt.TruncatedDirichletSeries
        pg = group.project_invariant(item["series"], grp, self.table)
        status = group.is_invariant(pg, grp, self.table).status
        coeffs = dict(pg.truncate(self.WINDOW).coeffs)
        coeffs[1] = 1
        u = T(self.WINDOW, coeffs, "exact")
        inv = u.invert()
        return pg, status, inv, u * inv

    def check(self, item, out):
        pg, status, inv, prod = out
        got = (pg.window, pg.mode, exact_form(pg), status, exact_form(inv),
               prod.window, prod.mode, exact_form(prod))
        if self.verified.get(id(item)) == got:
            return None
        err = self._check_full(item, pg, status, inv, prod)
        if err is None:
            self.verified[id(item)] = got
        return err

    def _check_full(self, item, pg, status, inv, prod):
        gens = self.groups[item["group"]][2]
        window, proj = ref.project(item["coeffs"], self.WINDOW, gens, self.primes)
        err = shape_error(pg, window, "exact")
        if err or exact_form(pg) != proj:
            return err or "projection differs from the orbit average"
        if status != "invariant":
            return f"projection reported {status!r}"
        u = {n: c for n, c in proj.items() if n <= self.WINDOW}
        u[1] = ref.ONE
        err = shape_error(inv, self.WINDOW, "exact") or ref.exact_unit_check(u, exact_form(inv), self.WINDOW)
        if err:
            return err
        err = shape_error(prod, self.WINDOW, "exact")
        if err or exact_form(prod) != {1: ref.ONE}:
            return err or "u * inv is not the unit"
        return None


# -- cli-recovery -------------------------------------------------------------------


class CliRecovery(Workload):
    """In-process cli.main for analyze line-sup, perron and cauchy on series files."""

    name = "cli-recovery"
    tail_pct = 95.0
    setup_code = "import dirichlet_toolkit.cli"
    POOL_ROUNDS = 40
    CAUCHY_POINTS = 1 << 16
    T, SAMPLES = 1000.0, 200_000
    KAPPA, R, STEPS = 2.0, 2000.0, 40_000

    def __init__(self, tk, seed: int, workdir: str):
        super().__init__(tk, seed, workdir)
        os.makedirs(workdir, exist_ok=True)
        self.out_path = os.path.join(workdir, "out.json")
        primes = ref.primes_upto(60)
        for j in range(self.POOL_ROUNDS):
            window, coeffs, n, grid = self._draw(primes)
            path = os.path.join(workdir, f"series-{j}.json")
            with open(path, "w") as fh:
                json.dump({"window": window, "mode": "float",
                           "coeffs": {str(m): [c.real, c.imag] for m, c in sorted(coeffs.items())}}, fh)
            r = 0.3 + 0.5 * self.rng.random()
            common = {"path": path, "coeffs": coeffs, "n": n}
            self.rounds.append([
                dict(common, kind="line-sup",
                     argv=["--T", repr(self.T), "--samples", str(self.SAMPLES)]),
                dict(common, kind="perron",
                     argv=["--n", str(n), "--kappa", repr(self.KAPPA), "--R", repr(self.R),
                           "--steps", str(self.STEPS)]),
                dict(common, kind="cauchy", argv=["--n", str(n), "--grid", str(grid), "--r", repr(r)]),
            ])

    def _draw(self, primes):
        """6-term series on a window of 20-60, redrawn until its Cauchy grid is small."""
        while True:
            window = self.rng.randint(20, 60)
            coeffs = {m: _gauss_complex(self.rng) for m in self.rng.sample(range(1, window + 1), 6)}
            n = self.rng.choice(sorted(coeffs))
            lifted = [ref.index_exponents(m, primes) for m in coeffs]
            variables = {v for e in lifted for v in e}
            grid = max((e for vec in lifted for e in vec.values()), default=0) + 1
            if grid ** len(variables) <= self.CAUCHY_POINTS:
                return window, coeffs, n, grid

    def sizes(self):
        return {"window": [20, 60], "terms": 6, "line_sup": {"T": self.T, "samples": self.SAMPLES},
                "perron": {"kappa": self.KAPPA, "R": self.R, "steps": self.STEPS},
                "cauchy": f"grid = max degree + 1, at most {self.CAUCHY_POINTS} points",
                "round": "line-sup, perron, cauchy on one series", "pool_rounds": self.POOL_ROUNDS}

    def run(self, item):
        argv = ["analyze", item["kind"], item["path"], *item["argv"], "--out", self.out_path]
        return self.tk.cli.main(argv)

    def check(self, item, rc):
        if rc != 0:
            return f"exit code {rc}"
        with open(self.out_path) as fh:
            doc = json.load(fh)
        # Removed so that an item that writes nothing cannot pass on a stale file.
        os.remove(self.out_path)
        return self.check_doc(item, doc)

    def check_doc(self, item, doc):
        coeffs, n = item["coeffs"], item["n"]
        if item["kind"] == "line-sup":
            value, t = doc["value"], doc["witness"]["witness"]["t"]
            if not abs(t) <= self.T:
                return f"line-sup witness t = {t!r} outside [-T, T]"
            want = abs(ref.dirichlet_value(coeffs, complex(0.0, t)))
            if abs(value - want) > 1e-9 * max(1.0, want):
                return f"line-sup value {value!r} != |f(i t*)| = {want!r}"
            return None
        got = complex(*doc["value"])
        err = abs(got - coeffs[n])
        if item["kind"] == "perron":
            bound = ref.perron_bound(coeffs, n, self.KAPPA, self.R) + 1e-6
            return None if err <= bound else f"perron error {err:.3g} > bound {bound:.3g}"
        tol = 1e-10 * max(1.0, abs(coeffs[n]))
        return None if err <= tol else f"cauchy error {err:.3g} > {tol:.3g}"


WORKLOADS = {w.name: w for w in (TorusProfile, DenseAlgebra, SparseInvariants, CliRecovery)}
