"""Convolution algebra warm-up: zeta, its inverse, and exact ring identities.

Run:  python3 demos/01_mobius_inversion.py
"""

from dirichlet_toolkit import TruncatedDirichletSeries
from dirichlet_toolkit.builders import random_unit

N = 32

print(f"== truncated zeta on [1..{N}] and its convolution inverse ==\n")
zeta = TruncatedDirichletSeries.zeta(N)
mu = zeta.invert()

print("n   mu(n)")
for n in range(1, 17):
    print(f"{n:<3d} {mu.coefficient(n).re}")

print("\nThe inverse of the all-ones series is the Moebius function:")
print("  +1 on squarefree n with an even number of prime factors,")
print("  -1 on squarefree n with an odd number, 0 otherwise.")

assert zeta * mu == TruncatedDirichletSeries.unit(N)
print(f"\nzeta * mu == 1 on [1..{N}]: verified exactly (rational arithmetic).")

print("\n== inversion of a random unit ==\n")
u = random_unit(64, seed=11, density=0.2)
v = u.invert()
print(f"unit support: {u.support()}")
print(f"inverse support size: {len(v)}")
assert u * v == TruncatedDirichletSeries.unit(64)
print("u * u^{-1} == 1: verified exactly.")

print("\n== the ring is commutative and associative (spot check) ==\n")
from dirichlet_toolkit.builders import random_series

f = random_series(48, seed=1, density=0.2)
g = random_series(48, seed=2, density=0.2)
h = random_series(48, seed=3, density=0.2)
assert f * g == g * f
assert (f * g) * h == f * (g * h)
assert (f + g) * h == f * h + g * h
print("commutativity, associativity, distributivity: all exact.")
