"""Host-side accounting: CPU and peak RSS of this process and its pool workers,
and the provenance every result records."""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import time
from multiprocessing import resource_tracker

_TICKS = os.sysconf("SC_CLK_TCK")


def live_children_cpu() -> float:
    """CPU seconds of this process's live (not yet reaped) child processes."""
    me = str(os.getpid())
    total = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                raw = handle.read()
        except OSError:
            continue  # exited while we looked
        fields = raw[raw.rindex(b")") + 2:].split()
        if fields[1].decode() == me:
            total += int(fields[11]) + int(fields[12])  # utime + stime
    return total / _TICKS


def cpu_now() -> float:
    """CPU seconds so far of this process plus every child, live or reaped."""
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (time.process_time() + reaped.ru_utime + reaped.ru_stime
            + live_children_cpu())


def reap_children(timeout: float = 30.0) -> None:
    """Wait until every pool worker has exited and been reaped, then stop
    the shared-memory resource tracker if one was started."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5)
            break
        time.sleep(0.01)
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()  # closes its pipe and waits for it to exit


def peak_rss_mb() -> float:
    """Highest peak RSS (MiB) of this process or any child reaped so far."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, root: str, load_start: tuple) -> dict:
    """Seed, code identity, versions and host of one run."""
    import numpy

    from repro.obs.manifest import git_sha
    from repro.runtime.cache import code_fingerprint

    return {
        "seed": seed,
        "git_sha": git_sha(root),
        "code_fingerprint": code_fingerprint("repro"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
    }
