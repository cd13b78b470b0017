"""Fixtures shared by the test modules."""

import os
import warnings

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
    # only where the process may run on two CPUs (util.may_fork): where the
    # real mask has fewer, report {0, 1}, so that both fork there too. Under
    # that fake mask Beside pins its child to CPU 1 and this process to CPU
    # 0, and close asks for {0, 1}. As on a machine of the real CPU alone, a
    # pin to none of the real CPUs is refused (OSError 22, which leaves that
    # process's mask as it was) and any other keeps only the real ones, so
    # both processes keep the one CPU, also under `taskset -c 0` on a larger
    # machine. A real mask of two or more CPUs is reported as it is, so that
    # the mask close gives back is the one this process had
    real = set(getattr(os, "sched_getaffinity", lambda pid: ())(0))
    if len(real) >= 2:
        return
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    if hasattr(os, "sched_setaffinity"):
        pin = os.sched_setaffinity

        def real_cpus_only(pid, cpus):
            if not real & set(cpus):
                raise OSError(22, "Invalid argument")
            pin(pid, real & set(cpus))

        monkeypatch.setattr(os, "sched_setaffinity", real_cpus_only)


@pytest.fixture
def warning_fork(monkeypatch):
    # install() makes os.fork warn as Python >= 3.12 does in a parent with
    # threads: the parent side warns once the child exists
    def install():
        fork = os.fork

        def warning():
            pid = fork()
            if pid:
                warnings.warn("This process is multi-threaded, use of fork() may lead to "
                              "deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", warning)

    return install


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
