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
    # util.Beside, training's outlier helper and gen-data's writer, forks
    # only where the process may run on two CPUs (util.may_fork): report
    # two, so that both fork on a one-CPU machine too
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def forks(monkeypatch, two_cpus):
    # the pids of the util.Beside children (training's helper, gen-data's
    # writer), as the parent sees them, on two CPUs; at the end of the test
    # no child is left
    pids, fork = Forks(), os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    yield pids
    pids.assert_no_child_left()
