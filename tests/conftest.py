"""Shared fixtures. Prime tables are the only expensive setup, so build them once."""

from functools import partial

import pytest

from robinpsi import bounds, build_table


@pytest.fixture(scope="session")
def table():
    """Large table, covers the 100000th prime (1299709) for the deep sweeps."""
    return build_table(1_310_000)


@pytest.fixture(scope="session")
def small_table():
    """Enough for the crossover searches; the 10596th prime is 111751."""
    return build_table(1 << 17)


@pytest.fixture
def built_columns(monkeypatch):
    """(suite, key) of every column whose float margins bounds._sweep builds."""
    built = []
    sweep = bounds._sweep

    def build(name, key, margins):
        built.append((name, key))
        return margins()

    def spy(name, columns, *rest):
        logged = ((key, screen, partial(build, name, key, m)) for key, screen, m in columns)
        return sweep(name, logged, *rest)

    monkeypatch.setattr(bounds, "_sweep", spy)
    return built
