"""Shared fixtures and the trial-division oracle. Prime tables are the only
expensive setup, so build them once."""

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
    """(suite, key) of every column where bounds._sweep takes float margins at
    some index, once per column."""
    built = []
    sweep = bounds._sweep

    def build(name, key, margins, idx):
        if not built or built[-1] != (name, key):
            built.append((name, key))
        return margins(idx)

    def spy(name, columns, *rest):
        logged = ((key, screen, partial(build, name, key, m)) for key, screen, m in columns)
        return sweep(name, logged, *rest)

    monkeypatch.setattr(bounds, "_sweep", spy)
    return built


def factor_by_division(n):
    """(p, e) of each prime power exactly dividing n, primes increasing, by
    trial division over every d: independent of the package's primes."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)
