"""Prime table, factorization, and semigroup membership.

Every nontrivial value is cross-checked against a trial-division oracle
that shares no code with the sieve.
"""

import pytest

from dirichlet_toolkit.errors import TableTooSmallError


def trial_division_factor(n):
    """Independent oracle: factor by trial division, return {prime: exp}."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime_slow(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_primes_match_trial_division(table_small):
    slow = [n for n in range(2, 1001) if is_prime_slow(n)]
    assert table_small.primes == slow


def test_prime_indexing_is_one_based(table_small):
    assert table_small.prime(1) == 2
    assert table_small.prime(2) == 3
    assert table_small.prime(5) == 11
    assert table_small.index_of[97] == 25


@pytest.mark.parametrize("n", [2, 12, 60, 97, 128, 720, 997, 1000])
def test_factor_against_trial_division(table_small, n):
    vec = table_small.factor(n)
    oracle = trial_division_factor(n)
    assert [i for i, _ in vec] == sorted(i for i, _ in vec)
    assert {table_small.prime(i): e for i, e in vec} == oracle
    assert table_small.value(vec) == n


def test_factor_one(table_small):
    assert table_small.factor(1) == ()
    assert table_small.omega(1) == 0
    assert table_small.value(()) == 1


def test_omega_counts_with_multiplicity(table_small):
    assert table_small.omega(1) == 0
    assert table_small.omega(2) == 1
    assert table_small.omega(12) == 3
    assert table_small.omega(64) == 6
    for n in range(1, 200):
        oracle = sum(trial_division_factor(n).values())
        assert table_small.omega(n) == oracle


def test_factor_out_of_range(table_small):
    with pytest.raises(ValueError):
        table_small.factor(1001)
    with pytest.raises(ValueError):
        table_small.factor(0)
    with pytest.raises(TableTooSmallError):
        table_small.prime(200)
    with pytest.raises(TableTooSmallError, match="prime index 200 beyond table"):
        table_small.value(((1, 1), (200, 1)))


def test_semigroup_member(table_small):
    # indices {1, 2} generate the 3-smooth numbers
    smooth = {1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27}
    for n in range(1, 30):
        assert table_small.semigroup_member(n, {1, 2}) == (n in smooth)
    assert table_small.semigroup_member(1, set())
    assert not table_small.semigroup_member(2, set())


def test_factorization_as_dict(table_small):
    # the vector is the sorted items of its dict: 12 = p_1^2 p_2
    assert table_small.factor(12) == ((1, 2), (2, 1))
    assert dict(table_small.factor(12)) == {1: 2, 2: 1}
