"""The pinned child environment, host facts, and /proc resource readings.

Every measured process is a child launched with :func:`child_env`, so the
allocator, BLAS thread counts and hash seed are the same on every commit and
every host.  Why the allocator is pinned is in README.md ("Why the allocator
is pinned").
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Scratch space (checkpoint journals, plan caches, span files of contract
#: runs).  Inside the checkout, git-ignored, removed by the leg that made it.
WORK = ROOT / ".bench_work"


class HarnessError(RuntimeError):
    """The benchmark itself broke (as opposed to a query failing)."""


#: glibc keeps large NumPy temporaries on the heap instead of mmap/munmap-ing
#: each one, and never trims; one BLAS thread; stable str hashing.
PINNED = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": "17179869184",
    "MALLOC_TOP_PAD_": "268435456",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
_ALLOCATOR_KEYS = tuple(key for key in PINNED if key.startswith("MALLOC_"))
#: Library switches that must be at their defaults (fast pipeline, serial
#: shard executor unless the workload passes one, no fault plan).
UNSET = ("REPRO_PIPELINE", "REPRO_SHARD_EXECUTOR", "REPRO_FAULT_PLAN")


def child_env(tmpdir: "str | os.PathLike", pinned_allocator: bool = True) -> dict:
    """Environment for a measured child; ``tmpdir`` receives its temp files.

    ``pinned_allocator=False`` is the cold-CLI leg: what a user who types the
    command gets, glibc defaults included.
    """
    env = {key: value for key, value in os.environ.items() if key not in UNSET}
    env.update(PINNED)
    if not pinned_allocator:
        for key in _ALLOCATOR_KEYS:
            env.pop(key, None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["TMPDIR"] = str(tmpdir)
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_facts() -> dict:
    """What a reader needs to judge whether two result documents compare."""
    import numpy

    from repro.obs import git_revision

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(PINNED["OPENBLAS_NUM_THREADS"]),
        "platform": platform.platform(),
        "git_rev": git_revision(ROOT),
        "pinned_env": dict(PINNED),
        "unset_env": list(UNSET),
    }


_TICK = os.sysconf("SC_CLK_TCK")


def proc_usage(pids) -> dict:
    """CPU seconds, minor faults and peak RSS summed over live processes.

    Read from ``/proc`` so it works for processes that are not our children
    to ``wait`` on yet (a warm shard pool, the service).  Each process's
    figures include the children it has already reaped.
    """
    total = {"user_s": 0.0, "sys_s": 0.0, "minflt": 0, "hwm_mb": 0.0}
    for pid in pids:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total["minflt"] += int(fields[7]) + int(fields[8])
        total["user_s"] += (int(fields[11]) + int(fields[13])) / _TICK
        total["sys_s"] += (int(fields[12]) + int(fields[14])) / _TICK
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total["hwm_mb"] += int(line.split()[1]) / 1024.0
                    break
    return total


def usage_delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in ("user_s", "sys_s", "minflt")}
