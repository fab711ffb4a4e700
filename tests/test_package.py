"""The package's public surface."""

import dirichlet_toolkit


def test_every_exported_name_resolves():
    missing = [name for name in dirichlet_toolkit.__all__ if not hasattr(dirichlet_toolkit, name)]
    assert missing == []
    assert len(set(dirichlet_toolkit.__all__)) == len(dirichlet_toolkit.__all__)
