"""Shared fixtures."""

import ast
import importlib
import os
import time

import pytest

from regulus.series import TruncatedSeries

# the module itself; the package's `series` attribute is the constructor function
series_module = importlib.import_module("regulus.series")


@pytest.fixture
def bump(monkeypatch):
    """bump(module, name, *indices): module.name returns its series or table with those entries raised by one.

    A failure-path case: a check reading the patched source must report a
    violation at exactly the bumped coefficients it checks.  A read too short
    to hold an index is returned without it, so one check may read a source
    at several orders.
    """

    def install(module, name, *indices):
        real = getattr(module, name)

        def bumped(*args, **kwargs):
            out = real(*args, **kwargs)
            values = list(out.coeffs if isinstance(out, TruncatedSeries) else out)
            for i in indices:
                if i < len(values):
                    values[i] += 1
            if isinstance(out, TruncatedSeries):
                return TruncatedSeries(out.ring, tuple(out.ring.reduce(v) for v in values))
            return tuple(values)

        monkeypatch.setattr(module, name, bumped)

    return install


class ProcessLog(list):
    """Entries logged in this process; one logged in a process forked from it, such as a suite worker, is
    appended to a file instead, which `everywhere` reads back after this process's own."""

    def __init__(self, path):
        super().__init__()
        self.path, self.pid = path, os.getpid()

    def log(self, entry) -> None:
        if os.getpid() == self.pid:
            self.append(entry)
        else:
            with open(self.path, "a") as fh:
                fh.write(repr(entry) + "\n")

    def everywhere(self) -> list:
        forked = self.path.read_text().splitlines() if self.path.exists() else []
        return list(self) + [ast.literal_eval(line) for line in forked]


class BuildLog(ProcessLog):
    """The (key, order) of each build the store starts; each build first sleeps `delay` seconds."""

    delay = 0.0


@pytest.fixture
def builds(monkeypatch, tmp_path):
    """An empty prefix store that logs its builds, those of forked workers too."""
    log = BuildLog(tmp_path / "builds.log")
    real = series_module._stored

    def stored(key, order, build):
        def logged(n):
            log.log((key, n))
            time.sleep(log.delay)
            return build(n)

        return real(key, order, logged)

    monkeypatch.setattr(series_module, "_stored", stored)
    monkeypatch.setattr(series_module, "_longest", {})
    monkeypatch.setattr(series_module, "_key_locks", {})
    return log


@pytest.fixture
def past_plan(monkeypatch, tmp_path):
    """The (key, order, target) of every store read past its key's target in the plan of the run in progress.

    Outside a run there is no plan and no read is recorded; inside one, even an empty plan records every read.
    A check that reads more than its rows name shows here; `everywhere` adds the reads of forked workers.
    """
    past = ProcessLog(tmp_path / "past_plan.log")
    real = series_module._stored

    def stored(key, order, build):
        targets = series_module._targets
        if targets is not None and order > targets.get(key, -1):
            past.log((key, order, targets.get(key)))
        return real(key, order, build)

    monkeypatch.setattr(series_module, "_stored", stored)
    return past
