"""Fixtures shared by the test modules."""

import os

import pytest


class Forks(list):
    """The pids that ``os.fork`` returned in the parent, in order."""

    @staticmethod
    def assert_no_child_left():
        # every forked child is reaped: this process has none left
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    # training's outlier helper and gen-data's writer fork only where the
    # process may run on two CPUs (util.may_fork): report two, so that they
    # fork on a one-CPU machine too
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def forks(monkeypatch, two_cpus):
    # the pids that training's helper and gen-data's writer fork, as the
    # parent sees them, on two CPUs; at the end of the test no child is left
    pids, fork = Forks(), os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    yield pids
    pids.assert_no_child_left()
