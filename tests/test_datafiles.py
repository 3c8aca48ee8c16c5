"""Tests of ``read_dataset``: every rule of a dataset directory, and its parser processes.

Each refused dataset is one row of ``helpers.DATASET_FAULTS``, checked here
once, at ``read_dataset``; ``tests/test_cli.py`` checks only that ``analyze``
maps the refusal to exit 3.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import matfdp
from matfdp import datafiles
from matfdp.datafiles import read_dataset
from matfdp.errors import DatasetFormatError

from helpers import DATASET_FAULTS, failing, manifest_without, write_small_dataset

needs_two_cores = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="parser processes need two usable cores",
)


def check_refused(data, blamed, message):
    """``read_dataset(data)`` blames ``blamed`` with exactly the one line ``message``.

    ``{data}`` and ``{path}`` in ``message`` stand for ``data`` and
    ``blamed``.  No parser process may be left.
    """
    with pytest.raises(DatasetFormatError) as refused:
        read_dataset(data)
    assert refused.value.path == str(blamed)
    assert str(refused.value) == message.format(data=data, path=blamed)
    assert "\n" not in str(refused.value)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fault", DATASET_FAULTS)
def test_read_dataset_refuses(tmp_path, monkeypatch, fault):
    data = write_small_dataset(tmp_path / "data")
    edit, blamed, message = DATASET_FAULTS[fault]
    edit(data, monkeypatch)
    check_refused(data, data / blamed, message)


def _link_member(data, patch):
    (data / "control_002.csv").rename(data.parent / "elsewhere.csv")
    (data / "control_002.csv").symlink_to(data.parent / "elsewhere.csv")


@pytest.mark.parametrize(
    "edit",
    # A manifest without schema_version is version 1; a member file may be a
    # link to a regular file.
    [manifest_without("schema_version"), _link_member], ids=["no-schema-version", "linked-member"],
)
def test_read_dataset_accepts(tmp_path, edit):
    data = write_small_dataset(tmp_path / "data")
    expected = read_dataset(data)
    edit(data, None)
    ds = read_dataset(data)
    np.testing.assert_array_equal(ds.treatment, expected.treatment)
    np.testing.assert_array_equal(ds.control, expected.control)


def test_read_holds_the_dataset_once(tmp_path):
    data = write_small_dataset(tmp_path / "data", n=15, m=15, p=40, q=50)
    read_dataset(data)
    tracemalloc.start()
    try:
        ds = read_dataset(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Both groups are views of one buffer that holds exactly the 30
    # matrices. It is a shared mapping, which tracemalloc does not see.
    buffers = []
    for group in (ds.treatment, ds.control):
        while isinstance(group, np.ndarray):
            group = group.base
        buffers.append(group)
    assert buffers[0] is buffers[1]
    assert memoryview(buffers[0]).nbytes == 30 * 40 * 50 * 8
    assert ds.treatment.ctypes.data + ds.treatment.nbytes == ds.control.ctypes.data
    # What the calling process allocates besides the buffer: numpy 2.4.6
    # measured 6.0 matrices, most of them np.loadtxt's own temporaries for
    # the first file. Stacking a list of the parsed matrices measured 30.8
    # matrices besides the 30 held.
    assert peak < 8 * (40 * 50 * 8)


@needs_two_cores
def test_parsers_exit_when_the_reader_is_killed(tmp_path):
    data = write_small_dataset(tmp_path / "data", n=10, m=10)
    starts = tmp_path / "starts"
    starts.mkdir()
    # Each parser process records every file it starts and takes 2 s over it;
    # the reader is killed while every parser is inside its first file.
    script = f"""
import os, time
from matfdp import datafiles, noodle
reader, read = os.getpid(), datafiles._read_matrix
def slow(path, p, q):
    if os.getpid() != reader:
        name = f"{{os.getpid()}} {{os.path.basename(path)}}"
        open(os.path.join({str(starts)!r}, name), "w").close()
        time.sleep(2)
    return read(path, p, q)
datafiles._read_matrix = slow
datafiles.read_dataset({str(data)!r})
"""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(matfdp.__file__))}
    # The reader parses one share itself; 19 files are left after the first.
    parsers = min(len(os.sched_getaffinity(0)), 19) - 1
    reader = subprocess.Popen([sys.executable, "-c", script], env=env)
    pids = set()
    try:
        deadline = time.monotonic() + 30
        while len(pids) < parsers and time.monotonic() < deadline:
            time.sleep(0.05)
            pids = {int(name.split()[0]) for name in os.listdir(starts)}
        assert len(pids) == parsers
        reader.kill()
        reader.wait(timeout=10)

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 10
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, pids))
        # Each parser finished the file it was in and started no other.
        assert len(os.listdir(starts)) == parsers
    finally:
        reader.kill()
        reader.wait()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


@needs_two_cores
def test_killed_parser_costs_only_time(tmp_path, monkeypatch):
    data = write_small_dataset(tmp_path / "data", n=10, m=10)
    expected = read_dataset(data)
    killed = tmp_path / "killed"
    killed.mkdir()
    reader, read = os.getpid(), datafiles._read_matrix

    def die_in_a_parser(path, p, q):
        if os.getpid() != reader:
            (killed / str(os.getpid())).touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return read(path, p, q)

    monkeypatch.setattr(datafiles, "_read_matrix", die_in_a_parser)
    ds = read_dataset(data)
    # Every parser died at its first file; the reader parsed what they left.
    assert len(os.listdir(killed)) == min(len(os.sched_getaffinity(0)), 19) - 1
    np.testing.assert_array_equal(ds.treatment, expected.treatment)
    np.testing.assert_array_equal(ds.control, expected.control)
    assert multiprocessing.active_children() == []


def test_usable_cores_without_an_affinity_call(monkeypatch):
    # Where os has no sched_getaffinity, the CPU count decides; 1 if unknown.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert datafiles._usable_cores() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert datafiles._usable_cores() == 1


def test_parsers_leave_the_reader_only_its_share(tmp_path, monkeypatch):
    # More parsers than cores. A parser that failed would still give the right
    # stack, because the reader parses what is left, so count the reader's reads.
    data = write_small_dataset(tmp_path / "data", n=10, m=10)
    monkeypatch.setattr(datafiles, "_usable_cores", lambda: 1)
    expected = read_dataset(data)
    reader, read, in_reader = os.getpid(), datafiles._read_matrix, []

    def count_reader_reads(path, p, q):
        if os.getpid() == reader:
            in_reader.append(os.path.basename(path))
        return read(path, p, q)

    monkeypatch.setattr(datafiles, "_read_matrix", count_reader_reads)
    monkeypatch.setattr(datafiles, "_usable_cores", lambda: 8)
    ds = read_dataset(data)
    assert np.array_equal(ds.treatment, expected.treatment)
    assert np.array_equal(ds.control, expected.control)
    # The first file, then share 0 of 8: slots 1, 9 and 17.
    assert in_reader == ["treatment_000.csv", "treatment_001.csv", "treatment_009.csv",
                         "control_007.csv"]
    assert multiprocessing.active_children() == []


def test_one_usable_core_forks_no_parser(tmp_path, monkeypatch):
    data = write_small_dataset(tmp_path / "data")
    expected = read_dataset(data)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    forked = AssertionError("read_dataset forked")
    refused = BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    # One usable core; 64 usable cores on a platform without fork; 64 usable
    # cores where every fork is refused, as under a process-count limit.
    for cores, methods, fork_error in (
        ({0}, ["fork", "spawn"], forked),
        (set(range(64)), ["spawn"], forked),
        (set(range(64)), ["fork", "spawn"], refused),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
            patch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
            patch.setattr(os, "fork", failing(fork_error))
            if fork_error is forked:
                patch.setattr(
                    multiprocessing.process.BaseProcess, "start",
                    failing(AssertionError("read_dataset started a process")),
                )
            ds = read_dataset(data)
        assert np.array_equal(ds.treatment, expected.treatment)
        assert np.array_equal(ds.control, expected.control)
        assert multiprocessing.active_children() == []
