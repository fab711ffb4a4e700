"""The suite runner: registration, default trial counts, seeding and the JSON record."""

import random

import pytest

from dirichlet_toolkit import suites


@pytest.mark.parametrize("name", list(suites.SUITES))
def test_every_suite_passes_with_two_trials(name):
    result = suites.run_suite(name, seed=5, trials=2)
    assert (result.suite, result.trials, result.seed) == (name, 2, 5)
    assert result.passed, result.failures
    assert result.elapsed > 0


def test_run_suite_uses_the_registered_default_and_seeds_the_body(monkeypatch):
    seen = []

    def body(result, rng, trials):
        seen.append((trials, rng.random()))
        result.info = {"ran": True}

    monkeypatch.setitem(suites.SUITES, "probe", (body, 7))
    result = suites.run_suite("probe", seed=11)
    assert seen == [(7, random.Random(11).random())]
    assert (result.trials, result.info) == (7, {"ran": True})
    assert suites.run_suite("probe", seed=11, trials=3).trials == 3


def test_unknown_suite_lists_the_known_ones():
    with pytest.raises(KeyError) as exc:
        suites.run_suite("no-such-suite")
    assert "no-such-suite" in str(exc.value)
    assert all(name in str(exc.value) for name in suites.SUITES)


def test_negative_trials_run_nothing_and_raise():
    with pytest.raises(ValueError, match="trials must be >= 0, got -3"):
        suites.run_suite("perron", trials=-3)


def test_json_record_keeps_its_keys_in_order():
    doc = suites.run_suite("orbit-sums").to_json_dict()
    assert list(doc) == ["suite", "trials", "seed", "failures", "elapsed", "info"]
    assert doc["suite"] == "orbit-sums" and doc["trials"] == 0 and doc["seed"] == 42


def test_lemma91_reports_the_pairs_it_checked():
    # every trial checks at least a_1 against itself under each generator
    info = suites.run_suite("lemma9.1", seed=5, trials=3).info
    assert set(info) == {"inconclusive", "checked_pairs"}
    assert info["checked_pairs"] >= 3
