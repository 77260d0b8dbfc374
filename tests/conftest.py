"""Shared fixtures."""

import pytest

from regulus.series import TruncatedSeries


@pytest.fixture
def bump(monkeypatch):
    """bump(module, name, *indices): module.name returns its series or table with those entries raised by one.

    A failure-path case: a check reading the patched source must report a
    violation at exactly the bumped coefficients it checks.
    """

    def install(module, name, *indices):
        real = getattr(module, name)

        def bumped(*args, **kwargs):
            out = real(*args, **kwargs)
            values = list(out.coeffs if isinstance(out, TruncatedSeries) else out)
            for i in indices:
                values[i] += 1
            if isinstance(out, TruncatedSeries):
                return TruncatedSeries(out.ring, tuple(out.ring.reduce(v) for v in values))
            return tuple(values)

        monkeypatch.setattr(module, name, bumped)

    return install
