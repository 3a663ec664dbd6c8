"""Fixtures shared by the test modules."""

import pytest

from xsuperint import ladders

CHAIN_BUILDERS = (ladders.deformed_raising_chain,
                  ladders.deformed_lowering_chain,
                  ladders.radial_raising_chain,
                  ladders.radial_lowering_chain)


@pytest.fixture
def deformed_compositions(monkeypatch):
    """List of the arguments of every deformed-chain composition
    (`ladders._deformed_chain`) made while the test runs.  The memoised chain
    builders are emptied first: their caches live for the whole process, so
    a chain an earlier test built would otherwise not be composed again."""
    for builder in CHAIN_BUILDERS:
        builder.cache_clear()
    compositions = []
    real = ladders._deformed_chain

    def composing(*args):
        compositions.append(args)
        return real(*args)

    monkeypatch.setattr(ladders, "_deformed_chain", composing)
    return compositions
