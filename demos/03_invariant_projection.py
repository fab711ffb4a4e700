"""Permutation actions on series and the orbit-averaging projection.

A permutation sigma of prime indices extends multiplicatively to the
integers: sigma_hat(prod p_i^{e_i}) = prod p_{sigma(i)}^{e_i}.  Averaging
a series over a group of such permutations projects it onto the invariant
subalgebra; integers whose orbits are infinite are forced to zero.

Run:  python3 demos/03_invariant_projection.py
"""

from dirichlet_toolkit import (
    PermutationGroup,
    PrimeTable,
    TruncatedDirichletSeries,
    hat_apply,
    infinite_index_cycle,
    invariant_orbit_sums,
    is_invariant,
    project_invariant,
)
from dirichlet_toolkit.scalars import ExactComplex

table = PrimeTable(100_000)

print("== the hat action ==\n")
grp = PermutationGroup.from_cycles("(1 2)")
sigma = grp.generators[0]
print(f"sigma = (1 2) swaps the primes 2 and 3, so sigma_hat(12) = "
      f"{hat_apply(sigma, 12, table)}  (12 = 2^2*3 -> 3^2*2)")

# the orbit of n is the support of the projection of n^{-s}
orbit = project_invariant(TruncatedDirichletSeries.monomial(12, 1), grp, table)
print(f"orbit of 12: {orbit.support()}")

print("\n== projection onto invariants ==\n")
f = TruncatedDirichletSeries(100, {2: ExactComplex(1), 12: ExactComplex(6)})
pf = project_invariant(f, grp, table)
print(f"project a_2 = 1:      a_2 = {pf.coefficient(2).re}, a_3 = {pf.coefficient(3).re}")
print(f"project a_12 = 6:     a_12 = {pf.coefficient(12).re}, a_18 = {pf.coefficient(18).re}")
assert project_invariant(pf, grp, table) == pf
print("projection is idempotent: verified exactly.")
print(f"is_invariant: {is_invariant(pf, grp, table).status}")

# the window law: only orbit members inside the window are compared
h = TruncatedDirichletSeries(10, {8: ExactComplex(1)})
print(f"{{8: 1}} at window 10: {is_invariant(h, grp, table).status} "
      f"(the truncation of 8^-s + 27^-s; 27 lies past the window)")
bad = TruncatedDirichletSeries(20, {2: ExactComplex(1), 4: ExactComplex(1)})
rep = is_invariant(bad, grp, table)
print(f"{{2: 1, 4: 1}} at window 20: {rep.status}, witness (n, m) = {rep.witness} "
      f"(a_3 = 0 != a_2), {rep.checked_pairs} members compared")

print("\n== infinite orbits force zero ==\n")
rho = PermutationGroup([infinite_index_cycle()])
g = TruncatedDirichletSeries(10, {1: ExactComplex(7), 2: ExactComplex(1)})
pg = project_invariant(g, rho, table, policy="zero_unresolved")
print("under the infinite index cycle every prime lies on one infinite orbit;")
print(f"projection keeps a_1 = {pg.coefficient(1).re} and zeroes a_2 = {pg.coefficient(2).re}")

print("\n== invariant polynomial orbit sums for S_3 ==\n")
s3 = PermutationGroup.from_cycles("(1 2)", "(2 3)")
sums = invariant_orbit_sums(3, 2, s3)
for p in sums:
    print(f"  degree {p.total_degree()}: {p}")
print(f"\n{len(sums)} orbit sums of degree <= 2 in 3 variables.")
