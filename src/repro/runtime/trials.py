"""Seeded, chunked parallel execution of Monte-Carlo trials.

Every paper figure is a Monte-Carlo sweep: hundreds of statistically
independent trials pushed through the PHY/MAC stack. This module is the
shared runtime those sweeps go through:

* **Determinism** — each trial gets its own RNG derived with
  ``np.random.SeedSequence(seed).spawn(n_trials)``, so trial *i* sees the
  same random stream no matter which worker runs it, in what order, or how
  the trials are chunked. Serial and parallel runs are bit-identical.
* **Parallelism** — trials are grouped into chunks and submitted to a
  ``ProcessPoolExecutor``; the worker count auto-detects from
  ``REPRO_WORKERS`` or ``os.cpu_count()``. ``n_workers=1`` (or a single
  trial) short-circuits to a plain loop with zero pool overhead.
* **Pool persistence** — worker pools are kept alive and reused across
  :func:`run_trials` / :func:`parallel_map` calls, keyed by worker count
  and a *content fingerprint* of the shared payload
  (:func:`repro.runtime.cache.stable_digest`): an equal re-created
  payload maps back onto the warm pool, distinct payloads can never
  alias one. :func:`shutdown_pools` tears everything down.
* **Zero-copy shared tables** — pass ``shared=...`` to ship one payload
  to every worker; numpy-array payloads travel through one
  ``multiprocessing.shared_memory`` segment (:mod:`repro.runtime.shm`)
  and are rebuilt in each worker as read-only views — no per-worker
  pickle copy. Non-array or tiny payloads fall back to the pool
  initializer pickle. Trial functions read the payload back with
  :func:`shared_payload` on every path, serial included.
* **Batched chunks** — pass ``batch_fn=...`` to run a whole chunk of
  trials as *one* vectorised call instead of N scalar calls. The batch
  function receives the same per-trial ``SeedSequence`` children the
  scalar path would and must return bit-identical per-trial results;
  traced runs always take the scalar path so correlation ids attach to
  single trials.
* **Coarse work units** — ``granularity=k`` aligns chunk boundaries to
  multiples of *k* trials, so callers whose trials come in tiles (a MAC
  sweep cell's repeats, a deployment cell's members) never see a tile
  split across workers.
* **Worker-side reduction** — pass ``reduce_fn=`` / ``reduce_init=`` and
  each worker folds its chunk's per-trial results into one small
  mergeable accumulator *before* IPC: only accumulators cross the pipe,
  and the parent merges them in span order. The scalar per-trial path
  stays the oracle — traced runs bypass worker reduction (the parent
  folds instead) so traces stay byte-identical — which is only sound
  when the accumulator is exactly associative; see
  :mod:`repro.runtime.reduction` for primitives that are.
* **Lazy trial specs** — pass ``trial_source=`` (a picklable
  ``(start, stop) -> sequence``) and each chunk *generates* its own
  shard of work items inside the worker instead of the parent
  materialising (and shipping) the whole list up front; the trial
  function then receives the item as ``fn(index, rng, item, *args)``.
* **IPC accounting** — when metrics are being collected, the parent
  counts the pickled size of every chunk result it receives under
  ``runtime.ipc_result_bytes``, which is how the bench proves reduction
  actually shrinks the pipe traffic.
* **Chunk autotuning** — ``chunk_size="auto"`` measures the actual
  round-trip cost of a pool submission (cached per pool) plus a short
  serial probe of the trial cost, and picks the smallest chunk that
  keeps IPC overhead to a few percent of useful work.
* **Generality** — :func:`parallel_map` gives the same chunked, ordered
  semantics for non-trial workloads (e.g. the MAC scenario sweeps, where
  each item is one ``(scenario, protocol)`` cell).

The trial function and its extra arguments must be picklable (a module-level
function, not a lambda or closure).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..obs.log import get_logger
from ..obs.profile import profile_capture, profile_paused
from ..obs.trace import (
    active_recorder,
    chunk_capture,
    ingest_chunk,
    metrics,
    metrics_enabled,
    suspended,
    trial_correlation_id,
    worker_spec,
)
from .shm import SharedPayload, pack_payload, payload_fingerprint

log = get_logger(__name__)

__all__ = [
    "resolve_workers",
    "trial_rngs",
    "run_trials",
    "parallel_map",
    "autotune_chunk_size",
    "persistent_pool",
    "shared_payload",
    "shutdown_pools",
    "ChunkFailure",
    "TrialRunResult",
]


@dataclass(frozen=True)
class ChunkFailure:
    """One chunk of trials that could not be completed."""

    start: int
    stop: int
    attempts: int
    error: str

    @property
    def n_trials(self) -> int:
        return self.stop - self.start


@dataclass
class TrialRunResult:
    """Salvaged outcome of a hardened :func:`run_trials` run.

    ``results`` has one slot per trial, in trial order; trials belonging to
    a failed chunk hold ``None``. ``failures`` summarises every chunk that
    exhausted its retries.
    """

    results: list
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def n_completed(self) -> int:
        return sum(r is not None for r in self.results)

    @property
    def n_failed(self) -> int:
        return sum(f.n_trials for f in self.failures)

    def completed(self) -> list:
        """The successful results only (order preserved)."""
        return [r for r in self.results if r is not None]

    def failure_summary(self) -> str:
        """One line per failed chunk, for logs and error reports."""
        if not self.failures:
            return "all chunks completed"
        lines = [
            f"trials {f.start}..{f.stop - 1} failed after {f.attempts} "
            f"attempt(s): {f.error}"
            for f in self.failures
        ]
        return "\n".join(lines)


def resolve_workers(n_workers: int | None = None) -> int:
    """Resolve a worker count: explicit > ``$REPRO_WORKERS`` > CPU count."""
    if n_workers is None:
        env = os.environ.get("REPRO_WORKERS", "").strip()
        if env:
            try:
                n_workers = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_WORKERS must be a positive integer, got {env!r}"
                ) from None
        else:
            n_workers = os.cpu_count() or 1
    n_workers = int(n_workers)
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    return n_workers


def trial_rngs(seed: int, n_trials: int) -> list:
    """Independent per-trial generators via ``SeedSequence.spawn``."""
    return [np.random.default_rng(ss) for ss in _trial_seeds(seed, n_trials)]


def _trial_seeds(seed: int, n_trials: int):
    return np.random.SeedSequence(seed).spawn(n_trials)


def _mp_context():
    """Prefer fork where available: cheap start-up, no re-import races."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return None


def _round_up(value: int, granularity: int) -> int:
    return -(-value // granularity) * granularity


def _chunk_spans(n: int, chunk_size: int) -> list:
    return [(start, min(start + chunk_size, n)) for start in range(0, n, chunk_size)]


# --------------------------------------------------------------------------- #
# Persistent pools and shared read-only payloads.
# --------------------------------------------------------------------------- #


@dataclass
class _PoolEntry:
    """One registered persistent pool and the payload state it was built on."""

    pool: ProcessPoolExecutor
    shared: object
    descriptor: SharedPayload | None
    fingerprint: str | None
    ipc_seconds: float | None = None


# Pool registry: (max_workers, payload_fingerprint | None) -> _PoolEntry.
# A worker's payload is fixed at initializer time, so the registry keys by
# *content*: an equal re-created payload (same fingerprint) reuses the warm
# pool, a different payload at the same worker count retires the old pool
# rather than leaking it (sweeps call run_trials(shared=...) with a fresh
# payload per invocation), and two distinct payloads can never alias.
_POOLS: dict = {}

# The worker-side (and serial-path) shared payload, set per worker by the
# pool initializer instead of being pickled into every chunk. _SHARED_TOKEN
# pins the SharedPayload descriptor (and its attached segment) for as long
# as the materialised views are in use.
_SHARED = None
_SHARED_TOKEN = None


def _init_worker(token) -> None:
    """Pool initializer: stash the shared read-only payload in the worker.

    ``token`` is either the payload itself (plain-pickle fallback) or a
    :class:`~repro.runtime.shm.SharedPayload` descriptor, in which case
    the worker attaches the segment and rebuilds zero-copy views.
    """
    global _SHARED, _SHARED_TOKEN
    if isinstance(token, SharedPayload):
        _SHARED_TOKEN = token
        _SHARED = token.materialize()
    else:
        _SHARED_TOKEN = None
        _SHARED = token


def shared_payload():
    """The payload this worker was initialised with (``None`` if absent).

    Trial functions call this instead of taking big read-only tables
    through ``args`` — the payload crosses the process boundary once per
    worker (at pool start-up, as shared-memory views where possible)
    rather than once per chunk.
    """
    return _SHARED


@contextmanager
def _payload_installed(shared):
    """Expose ``shared`` via :func:`shared_payload` for the duration.

    Serial runs (and the in-parent autotune probe) read the payload
    through the same accessor the workers use. The previous payload is
    restored on exit so a nested ``run_trials(shared=...)`` executing
    *inside* a worker — e.g. a calibration inside a deployment cell —
    cannot clobber the worker's own initializer payload.
    """
    global _SHARED
    if shared is None:
        yield
        return
    previous = _SHARED
    _SHARED = shared
    try:
        yield
    finally:
        _SHARED = previous


def persistent_pool(n_workers: int, shared=None) -> ProcessPoolExecutor:
    """A long-lived pool for ``n_workers``, created on first use.

    Pools are keyed by worker count and the *content fingerprint* of the
    shared payload; repeated calls — including with an equal, re-created
    payload — return the same executor, so process start-up is paid once
    per configuration instead of once per ``run_trials`` call.
    """
    global _SHARED
    fingerprint = payload_fingerprint(shared) if shared is not None else None
    key = (n_workers, fingerprint)
    entry = _POOLS.get(key)
    if entry is not None:
        if shared is not None:
            # Equal content, possibly a different object: point the
            # parent-side accessor at the caller's copy.
            _SHARED = shared
        metrics().counter("runtime.pool_reused").inc()
        return entry.pool
    if shared is not None:
        # A *different* payload at this worker count: the old pool's
        # workers were initialised with the previous tables, so retire it
        # (and unlink its segment) instead of accumulating one pool and
        # one shm segment per historical payload.
        for stale in [k for k in _POOLS if k[0] == n_workers and k[1] is not None]:
            _retire_entry(stale)
    descriptor = None
    if shared is None:
        pool = ProcessPoolExecutor(max_workers=n_workers, mp_context=_mp_context())
    else:
        descriptor = pack_payload(shared)
        if descriptor is not None:
            metrics().counter("runtime.shm_payloads").inc()
        token = descriptor if descriptor is not None else shared
        pool = ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=_mp_context(),
            initializer=_init_worker,
            initargs=(token,),
        )
        # With fork, workers inherit parent globals at spawn time; setting
        # the parent-side payload too keeps shared_payload() consistent
        # everywhere (and serves the n_workers=1 serial path).
        _SHARED = shared
    _POOLS[key] = _PoolEntry(pool=pool, shared=shared, descriptor=descriptor,
                             fingerprint=fingerprint)
    metrics().counter("runtime.pool_spawned").inc()
    log.debug("spawned persistent pool: %d workers, shared=%s, shm=%s",
              n_workers, shared is not None, descriptor is not None)
    return pool


def _retire_entry(key) -> None:
    """Drop one registry entry: tear the pool down, unlink its segment."""
    entry = _POOLS.pop(key, None)
    if entry is None:
        return
    _abandon_pool(entry.pool)
    if entry.descriptor is not None:
        entry.descriptor.release()


def _discard_pool(pool: ProcessPoolExecutor) -> None:
    """Remove a (broken) pool from the registry and tear it down."""
    for key, entry in list(_POOLS.items()):
        if entry.pool is pool:
            _retire_entry(key)
            return
    _abandon_pool(pool)


def shutdown_pools() -> None:
    """Shut down every persistent pool (registered atexit)."""
    global _SHARED, _SHARED_TOKEN
    for key in list(_POOLS):
        _retire_entry(key)
    _POOLS.clear()
    _SHARED = None
    _SHARED_TOKEN = None


atexit.register(shutdown_pools)


# --------------------------------------------------------------------------- #
# Chunk sizing.
# --------------------------------------------------------------------------- #

# Fallback per-submission IPC cost when no live pool is available to
# measure (disposable pools, hardened runs): a conservative figure for a
# local fork-start executor.
_DEFAULT_IPC_SECONDS = 2e-3


def _noop_chunk():
    return None


def _pool_ipc_seconds(pool, entry=None, repeats: int = 3) -> float:
    """Measured round-trip cost of one no-op pool submission.

    Cached on the registry entry — the cost is a property of the pool and
    the host, not of the workload, so one measurement serves every
    subsequent ``chunk_size="auto"`` call on that pool.
    """
    if entry is not None and entry.ipc_seconds is not None:
        return entry.ipc_seconds
    with suspended():
        pool.submit(_noop_chunk).result()  # absorb worker start-up
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            pool.submit(_noop_chunk).result()
            best = min(best, time.perf_counter() - t0)
    if entry is not None:
        entry.ipc_seconds = best
    return best


def autotune_chunk_size(
    fn,
    n_trials: int,
    *,
    seed: int,
    n_workers: int,
    args: tuple = (),
    granularity: int = 1,
    ipc_seconds: float | None = None,
    target_overhead: float = 0.02,
    max_probe_trials: int = 3,
    max_probe_seconds: float = 0.25,
    trial_source=None,
) -> int:
    """Pick trials-per-chunk so measured IPC cost is amortised.

    Runs up to ``max_probe_trials`` leading trials in-process (their
    results are discarded; the chunks re-run them with identical RNGs, so
    determinism is unaffected) to estimate per-trial cost, then sizes
    chunks so the per-chunk submission cost ``ipc_seconds`` — measured on
    the live pool when the caller has one, a conservative default
    otherwise — stays below ``target_overhead`` of the chunk's useful
    work. The result is rounded up to a ``granularity`` multiple and
    clamped so every worker still gets at least one chunk.
    """
    granularity = max(1, int(granularity))
    if n_trials <= 1 or n_workers <= 1:
        return max(1, n_trials)
    children = _trial_seeds(seed, n_trials)
    probe_n = min(max_probe_trials, n_trials)
    items = None if trial_source is None else list(trial_source(0, probe_n))
    start = time.perf_counter()
    probed = 0
    # Probe results are discarded and the chunks re-run the same trials,
    # so any obs events they would emit are duplicates: suspend capture.
    with suspended():
        for index in range(probe_n):
            rng = np.random.default_rng(children[index])
            if items is not None:
                fn(index, rng, items[index], *args)
            else:
                fn(index, rng, *args)
            probed += 1
            if time.perf_counter() - start >= max_probe_seconds:
                break
    per_trial = (time.perf_counter() - start) / probed
    upper = max(1, -(-n_trials // n_workers))  # ceil: >= one chunk per worker
    upper = _round_up(upper, granularity)
    if per_trial <= 0:
        return upper
    ipc = _DEFAULT_IPC_SECONDS if ipc_seconds is None else max(ipc_seconds, 1e-6)
    min_work_seconds = ipc * (1.0 - target_overhead) / target_overhead
    size = max(granularity, int(-(-min_work_seconds // per_trial)))
    return int(min(_round_up(size, granularity), upper))


def _measured_ipc(n_workers: int, shared) -> float | None:
    """IPC cost of the persistent pool serving ``(n_workers, shared)``."""
    fingerprint = payload_fingerprint(shared) if shared is not None else None
    pool = persistent_pool(n_workers, shared=shared)
    try:
        return _pool_ipc_seconds(pool, _POOLS.get((n_workers, fingerprint)))
    except BrokenProcessPool:
        _discard_pool(pool)
        return None


# --------------------------------------------------------------------------- #
# Chunk execution.
# --------------------------------------------------------------------------- #


class _Reduced:
    """Marks a chunk result as an accumulator rather than per-trial list."""

    __slots__ = ("acc",)

    def __init__(self, acc):
        self.acc = acc

    def __reduce__(self):
        return (_Reduced, (self.acc,))


def _chunk_items(trial_source, start, stop):
    """Materialise one chunk's work items from a lazy trial source."""
    items = list(trial_source(start, stop))
    if len(items) != stop - start:
        raise RuntimeError(
            f"trial_source({start}, {stop}) returned {len(items)} items "
            f"for {stop - start} trials"
        )
    return items


def _run_trial_chunk(fn, seed, n_trials, start, stop, args, obs_spec=None,
                     batch_fn=None, trial_source=None, reduce_fn=None,
                     reduce_init=None):
    """Run trials ``start..stop`` of ``n_trials`` (executes inside a worker).

    The full spawn is recomputed here so a chunk's RNGs are identical to
    the ones a serial run hands the same trial indices — ``spawn`` is cheap
    (micro-seconds per child), so this costs nothing measurable.

    ``obs_spec`` (only passed on pool submissions, and only when the
    parent has observability on) makes the worker capture its own events,
    metrics, and profile spans under a fresh local capture state and return an
    ``ObsChunk`` for the parent to fold back in span order. With it
    ``None`` — every uninstrumented run — the plain results list comes
    back untouched. Serial in-process calls leave it ``None`` too: there
    the parent's own ambient recorder is already active.

    ``batch_fn`` routes the whole chunk through one vectorised call. A
    *traced* chunk always takes the scalar loop instead: correlation ids
    wrap exactly one trial's events, which a batched call cannot honour —
    and since ``batch_fn`` is bit-identical by contract, tracing only
    changes wall time, never results.

    ``trial_source`` generates this chunk's work items in-process; the
    trial function then runs as ``fn(index, rng, item, *args)``.

    ``reduce_fn`` / ``reduce_init`` fold the chunk's results into one
    accumulator, returned wrapped in :class:`_Reduced` so the parent can
    tell it from a per-trial list. A *traced* chunk skips the fold and
    returns per-trial results — the parent folds them instead, which is
    result-identical exactly because the accumulators are associative —
    so the trace carries the same per-trial events at any worker count.
    """
    children = _trial_seeds(seed, n_trials)[start:stop]
    items = (None if trial_source is None
             else _chunk_items(trial_source, start, stop))

    def one(index, ss):
        rng = np.random.default_rng(ss)
        if items is not None:
            return fn(index, rng, items[index - start], *args)
        return fn(index, rng, *args)

    def payload():
        rec = active_recorder()
        if rec is None:
            if batch_fn is not None:
                rngs = [np.random.default_rng(ss) for ss in children]
                if items is not None:
                    results = list(batch_fn(start, rngs, items, *args))
                else:
                    results = list(batch_fn(start, rngs, *args))
                if len(results) != stop - start:
                    raise RuntimeError(
                        f"batch_fn returned {len(results)} results for "
                        f"{stop - start} trials"
                    )
                if reduce_fn is not None:
                    acc = reduce_init()
                    for index, result in zip(range(start, stop), results):
                        acc = reduce_fn(acc, index, result)
                    return _Reduced(acc)
                return results
            if reduce_fn is not None:
                acc = reduce_init()
                for index, ss in zip(range(start, stop), children):
                    acc = reduce_fn(acc, index, one(index, ss))
                return _Reduced(acc)
            return [one(index, ss)
                    for index, ss in zip(range(start, stop), children)]
        results = []
        for index, ss in zip(range(start, stop), children):
            # Correlation ids derive from the run seed and the trial's
            # SeedSequence spawn position, never id()/clock, so serial
            # and parallel traces carry identical ids.
            with rec.correlate(trial_correlation_id(seed, index)):
                results.append(one(index, ss))
        return results

    with chunk_capture(obs_spec) as wrap:
        # The profiled span must close before wrap() snapshots the
        # worker-side collector, so the chunk's own timing is complete
        # in the profile it ships home.
        with profile_capture("trials.chunk"):
            out = payload()
        return wrap(out)


def _count_ipc_result(raw) -> None:
    """Charge one received chunk result to ``runtime.ipc_result_bytes``.

    Only measured while metrics are being collected: re-pickling the
    result is pure overhead otherwise, and the counter exists for the
    bench and observability reports, not for steady-state runs. The
    pickled size of what crossed the pipe is re-measured parent-side —
    equivalent to what the executor shipped, without reaching into it.
    """
    if metrics_enabled():
        try:
            size = len(pickle.dumps(raw, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:  # pragma: no cover - unpicklable results cannot
            return  # have crossed a pipe in the first place
        metrics().counter("runtime.ipc_result_bytes").inc(size)


def _merge_accumulators(acc, other, merge_fn):
    """Merge two chunk accumulators (parent side, span order)."""
    if merge_fn is not None:
        merged = merge_fn(acc, other)
    else:
        merged = acc.merge(other)
    return acc if merged is None else merged


def _fold_chunk(acc, chunk, span, reduce_fn, reduce_init, merge_fn):
    """Fold one ingested chunk result into the running accumulator.

    ``chunk`` is either a :class:`_Reduced` accumulator (worker already
    folded) or a per-trial list (traced runs bypass worker reduction);
    either way the outcome is identical for associative accumulators.
    """
    if isinstance(chunk, _Reduced):
        if acc is None:
            return chunk.acc
        return _merge_accumulators(acc, chunk.acc, merge_fn)
    if acc is None:
        acc = reduce_init()
    start, _stop = span
    for offset, result in enumerate(chunk):
        acc = reduce_fn(acc, start + offset, result)
    return acc


def _consume_futures(futures, spans, reduce_fn, reduce_init, merge_fn):
    """Consume chunk futures in span order; list out, or merged accumulator.

    Span order matters twice: worker-captured obs events fold back into
    the parent trace in trial order, and — although associative
    accumulators make any merge order *result*-identical — a fixed order
    keeps the engine deterministic by construction rather than by proof.
    Each wait is a ``trials.wait`` profile stage, not profiled lock time.
    """
    if reduce_fn is None:
        results: list = []
        for future in futures:
            with profile_paused("trials.wait"):
                raw = future.result()
            _count_ipc_result(raw)
            results.extend(ingest_chunk(raw))
        return results
    acc = None
    for span, future in zip(spans, futures):
        with profile_paused("trials.wait"):
            raw = future.result()
        _count_ipc_result(raw)
        acc = _fold_chunk(acc, ingest_chunk(raw), span, reduce_fn,
                          reduce_init, merge_fn)
    return acc


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a (possibly wedged) pool down without waiting on its workers."""
    pool.shutdown(wait=False, cancel_futures=True)
    # shutdown() does not interrupt a hung or crashed worker; terminate
    # whatever processes are left so they cannot linger past the run.
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - defensive
            pass


def _retry_chunk_isolated(fn, seed, n_trials, start, stop, args,
                          chunk_timeout, attempts_left, obs_spec=None,
                          shared_token=None, batch_fn=None, trial_source=None):
    """Re-run one chunk in fresh single-worker pools until it succeeds.

    Each attempt gets its own process, so a crash or hang cannot take other
    chunks down with it. The chunk recomputes the same ``SeedSequence``
    children as the original submission, so a retry is bit-identical to a
    first-time success. ``shared_token`` (payload or shm descriptor) is
    re-shipped through each fresh pool's initializer; the descriptor's
    segment stays owned — and is eventually unlinked — by the parent.

    Returns (results | None, attempts_used, last_error).
    """
    attempt = 0
    error = "never attempted"
    init = ((_init_worker, (shared_token,)) if shared_token is not None
            else (None, ()))
    while attempt < attempts_left:
        attempt += 1
        pool = ProcessPoolExecutor(max_workers=1, mp_context=_mp_context(),
                                   initializer=init[0], initargs=init[1])
        try:
            future = pool.submit(_run_trial_chunk, fn, seed, n_trials,
                                 start, stop, args, obs_spec, batch_fn,
                                 trial_source)
            results = ingest_chunk(future.result(timeout=chunk_timeout))
            pool.shutdown(wait=False)
            return results, attempt, None
        except FutureTimeout:
            error = f"timed out after {chunk_timeout}s"
        except BrokenProcessPool:
            error = "worker process died (BrokenProcessPool)"
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            _abandon_pool(pool)
    return None, attempt, error


def _run_trials_hardened(fn, n_trials, seed, n_workers, chunk_size, args,
                         chunk_timeout, max_chunk_retries, shared=None,
                         batch_fn=None, trial_source=None):
    """Disposable-pool fast path with per-chunk isolated retries on failure."""
    spans = _chunk_spans(n_trials, chunk_size)
    results: list = [None] * n_trials
    pending: list = []  # (start, stop, first_error)
    rec = active_recorder()
    descriptor = None
    shared_token = None

    try:
        if n_workers == 1:
            # Serial: no pool to time out; catch per-chunk exceptions only.
            for start, stop in spans:
                try:
                    results[start:stop] = _run_trial_chunk(
                        fn, seed, n_trials, start, stop, args, None, batch_fn,
                        trial_source,
                    )
                except Exception:
                    pending.append(
                        (start, stop, traceback.format_exc(limit=1).strip()))
        else:
            if shared is not None:
                # Pack once; the descriptor is re-shipped to the disposable
                # pool and to every isolated retry pool, and unlinked in
                # the outer finally even when chunks fail.
                descriptor = pack_payload(shared)
                shared_token = descriptor if descriptor is not None else shared
            init = ((_init_worker, (shared_token,)) if shared is not None
                    else (None, ()))
            spec = worker_spec()
            workers = min(n_workers, len(spans))
            pool = ProcessPoolExecutor(max_workers=workers,
                                       mp_context=_mp_context(),
                                       initializer=init[0], initargs=init[1])
            metrics().counter("runtime.pool_spawned").inc()
            abandoned = False
            try:
                futures = [
                    (start, stop,
                     pool.submit(_run_trial_chunk, fn, seed, n_trials,
                                 start, stop, args, spec, batch_fn,
                                 trial_source))
                    for start, stop in spans
                ]
                for start, stop, future in futures:
                    if abandoned:
                        pending.append((start, stop, "pool abandoned"))
                        continue
                    try:
                        raw = future.result(timeout=chunk_timeout)
                        _count_ipc_result(raw)
                        results[start:stop] = ingest_chunk(raw)
                    except FutureTimeout:
                        # A wedged worker poisons every later wait: abandon
                        # the pool and sort the rest out in isolation.
                        pending.append(
                            (start, stop, f"timed out after {chunk_timeout}s"))
                        abandoned = True
                    except BrokenProcessPool:
                        pending.append((start, stop, "worker process died"))
                        abandoned = True
                    except Exception as exc:
                        pending.append(
                            (start, stop, f"{type(exc).__name__}: {exc}"))
            finally:
                _abandon_pool(pool)

        failures: list = []
        for start, stop, first_error in pending:
            metrics().counter("runtime.chunk_retries").inc()
            if rec is not None:
                rec.emit("runtime", "chunk_retry", start=start, stop=stop,
                         error=first_error)
            log.warning("retrying trials %d..%d in isolation: %s",
                        start, stop - 1, first_error)
            chunk, attempts, error = _retry_chunk_isolated(
                fn, seed, n_trials, start, stop, args,
                chunk_timeout, max_chunk_retries, worker_spec(),
                shared_token, batch_fn, trial_source,
            )
            if chunk is not None:
                results[start:stop] = chunk
            else:
                metrics().counter("runtime.chunks_failed").inc()
                if rec is not None:
                    rec.emit("runtime", "chunk_failed", start=start, stop=stop,
                             attempts=1 + attempts, error=error or first_error)
                log.error("trials %d..%d lost after %d attempt(s): %s",
                          start, stop - 1, 1 + attempts, error or first_error)
                failures.append(ChunkFailure(
                    start=start, stop=stop, attempts=1 + attempts,
                    error=error or first_error,
                ))
        return TrialRunResult(results=results, failures=failures)
    finally:
        if descriptor is not None:
            descriptor.release()


def run_trials(
    fn,
    n_trials: int,
    *,
    seed: int,
    n_workers: int | None = None,
    chunk_size: int | str | None = None,
    args: tuple = (),
    chunk_timeout: float | None = None,
    max_chunk_retries: int = 2,
    salvage: bool = False,
    shared=None,
    batch_fn=None,
    granularity: int = 1,
    reduce_fn=None,
    reduce_init=None,
    merge_fn=None,
    trial_source=None,
) -> list:
    """Run ``fn(trial_index, rng, *args)`` for every trial; ordered results.

    Args:
        fn: Picklable callable ``(trial_index, rng, *args) -> result``.
        n_trials: Number of independent trials.
        seed: Root seed; trial *i* always receives the *i*-th spawned RNG.
        n_workers: Process count; ``None`` auto-detects (``REPRO_WORKERS``
            or CPU count), ``1`` runs serially in-process.
        chunk_size: Trials per task; defaults to ~4 chunks per worker to
            balance scheduling slack against submission overhead. Pass
            ``"auto"`` to size chunks from the measured per-submission IPC
            cost of the live pool plus a quick serial timing probe
            (:func:`autotune_chunk_size`).
        args: Extra (picklable) positional arguments passed to every trial.
        chunk_timeout: Seconds to wait on one chunk before declaring it
            hung (parallel runs only; a serial run cannot be interrupted).
            Enables the hardened path: the shared pool is abandoned on the
            first timeout/crash and surviving chunks retry in isolated
            single-worker pools.
        max_chunk_retries: Isolated retry attempts per failed chunk (each
            recomputes the identical ``SeedSequence`` children, so a retry
            changes nothing statistically).
        salvage: Return a :class:`TrialRunResult` carrying partial results
            and a failure report instead of raising when chunks are lost.
        shared: Optional read-only payload shipped to each worker once;
            numpy arrays inside travel through a shared-memory segment
            and come back as zero-copy read-only views
            (:mod:`repro.runtime.shm`), everything else through the pool
            initializer pickle. Trial functions retrieve it with
            :func:`shared_payload`. Serial runs see it too.
        batch_fn: Optional vectorised executor
            ``(start_index, rngs, *args) -> sequence of per-trial
            results``. Untraced chunks call it once per chunk with the
            same spawned per-trial RNGs the scalar path would use; it must
            return results bit-identical to ``fn`` trial by trial (traced
            runs always use ``fn``, so any divergence shows up as a trace
            vs. plain mismatch).
        granularity: Align chunk boundaries to multiples of this many
            trials, so tiles of trials that must share a chunk (one sweep
            cell's repeats) are never split across workers.
        reduce_fn: Optional fold ``(acc, trial_index, result) -> acc``.
            Untraced workers fold their own chunk before IPC and ship one
            accumulator; the parent merges chunk accumulators in span
            order and :func:`run_trials` returns the merged accumulator
            instead of a results list. Traced runs ship per-trial results
            as usual and the parent folds — identical by construction
            when the accumulator is *exactly associative*
            (:mod:`repro.runtime.reduction`). Incompatible with the
            hardened path (``salvage`` / ``chunk_timeout``), whose
            retry bookkeeping needs per-trial slots.
        reduce_init: Picklable zero-argument factory for a fresh
            accumulator (required with ``reduce_fn``).
        merge_fn: Optional ``(acc_a, acc_b) -> merged`` used by the
            parent to combine chunk accumulators; defaults to
            ``acc_a.merge(acc_b)``.
        trial_source: Optional picklable ``(start, stop) -> sequence`` of
            per-trial work items, generated *inside* the worker per chunk
            instead of materialised and shipped whole by the parent. With
            it, the trial function runs as ``fn(index, rng, item, *args)``
            (and ``batch_fn`` as ``batch_fn(start, rngs, items, *args)``).

    Returns:
        ``[fn(0, rng0, *args), ..., fn(n_trials-1, ...)]`` — identical for
        every worker count. With ``salvage=True`` a
        :class:`TrialRunResult` wrapping the same list (lost trials
        ``None``). With ``reduce_fn`` the merged accumulator.

    Raises:
        RuntimeError: A chunk exhausted its retries and ``salvage`` is off
            (only possible when the hardened path is active).
    """
    with metrics().timer("runtime.run_trials").time():
        return _run_trials_impl(
            fn, n_trials, seed=seed, n_workers=n_workers,
            chunk_size=chunk_size, args=args, chunk_timeout=chunk_timeout,
            max_chunk_retries=max_chunk_retries, salvage=salvage,
            shared=shared, batch_fn=batch_fn,
            granularity=granularity, reduce_fn=reduce_fn,
            reduce_init=reduce_init, merge_fn=merge_fn,
            trial_source=trial_source,
        )


def _run_trials_impl(fn, n_trials, *, seed, n_workers, chunk_size, args,
                     chunk_timeout, max_chunk_retries, salvage, shared,
                     batch_fn, granularity, reduce_fn=None,
                     reduce_init=None, merge_fn=None, trial_source=None):
    if n_trials < 0:
        raise ValueError(f"n_trials must be >= 0, got {n_trials}")
    hardened = salvage or chunk_timeout is not None
    reducing = reduce_fn is not None
    if reducing and reduce_init is None:
        raise ValueError("reduce_fn requires reduce_init (accumulator factory)")
    if reduce_init is not None and not reducing:
        raise ValueError("reduce_init without reduce_fn does nothing")
    if reducing and hardened:
        raise ValueError(
            "reduce_fn is incompatible with salvage/chunk_timeout: the "
            "hardened path tracks per-trial slots to report what was lost"
        )
    if n_trials == 0:
        if reducing:
            return reduce_init()
        return TrialRunResult(results=[]) if salvage else []
    granularity = max(1, int(granularity))
    n_workers = resolve_workers(n_workers)

    with _payload_installed(shared):
        if chunk_size == "auto":
            ipc = None
            if not hardened and n_workers > 1 and n_trials > 1:
                ipc = _measured_ipc(n_workers, shared)
            chunk_size = autotune_chunk_size(
                fn, n_trials, seed=seed, n_workers=n_workers, args=args,
                granularity=granularity, ipc_seconds=ipc,
                trial_source=trial_source,
            )
        elif chunk_size is not None:
            chunk_size = _round_up(max(1, int(chunk_size)), granularity)

        if chunk_size is None:
            chunk_size = _round_up(
                max(1, -(-n_trials // (4 * n_workers))), granularity)

        if not hardened:
            if n_workers == 1 or n_trials == 1:
                if reducing:
                    # Chunk-at-a-time even in-process: with a lazy
                    # trial_source only one chunk's items are ever alive,
                    # which is the constant-memory contract sharded
                    # callers rely on.
                    acc = None
                    for span in _chunk_spans(n_trials, chunk_size):
                        chunk = _run_trial_chunk(
                            fn, seed, n_trials, span[0], span[1], args,
                            None, batch_fn, trial_source, reduce_fn,
                            reduce_init,
                        )
                        acc = _fold_chunk(acc, chunk, span, reduce_fn,
                                          reduce_init, merge_fn)
                    return acc
                return _run_trial_chunk(fn, seed, n_trials, 0, n_trials,
                                        args, None, batch_fn, trial_source)
            spans = _chunk_spans(n_trials, chunk_size)
            workers = min(n_workers, len(spans))
            spec = worker_spec()
            pool = persistent_pool(workers, shared=shared)
            try:
                futures = [
                    pool.submit(_run_trial_chunk, fn, seed, n_trials,
                                start, stop, args, spec, batch_fn,
                                trial_source, reduce_fn, reduce_init)
                    for start, stop in spans
                ]
                return _consume_futures(futures, spans, reduce_fn,
                                        reduce_init, merge_fn)
            except BrokenProcessPool:
                # A dead worker poisons the pool for every later call:
                # evict it so the next run starts fresh, then re-raise.
                _discard_pool(pool)
                raise

        outcome = _run_trials_hardened(
            fn, n_trials, seed, n_workers, chunk_size, args,
            chunk_timeout, max_chunk_retries, shared, batch_fn, trial_source,
        )
    if salvage:
        return outcome
    if not outcome.ok:
        raise RuntimeError(
            f"run_trials lost {outcome.n_failed} of {n_trials} trials:\n"
            + outcome.failure_summary()
        )
    return outcome.results


def parallel_map(
    fn,
    items,
    *,
    n_workers: int | None = None,
    chunk_size: int | None = None,
    shared=None,
) -> list:
    """Order-preserving parallel ``map`` over picklable ``items``.

    Serial (no pool) when ``n_workers`` resolves to 1 or there is at most
    one item; otherwise a chunked ``ProcessPoolExecutor.map`` on a
    persistent pool. Items
    should be deterministic units of work (carry their own seeds) so that
    serial and parallel runs agree. ``shared=`` ships one read-only
    payload to every worker exactly as in :func:`run_trials` — array
    payloads by shared-memory segment, the rest by initializer pickle —
    readable from ``fn`` via :func:`shared_payload`.

    When observability is active, every item runs under a positional
    correlation id (``i00042``) — the same id at any worker count — and
    worker-side captures are folded back in item order.
    """
    items = list(items)
    n_workers = resolve_workers(n_workers)
    if n_workers == 1 or len(items) <= 1:
        with _payload_installed(shared):
            rec = active_recorder()
            if rec is None:
                return [fn(item) for item in items]
            results = []
            for index, item in enumerate(items):
                with rec.correlate(_item_cid(index)):
                    results.append(fn(item))
            return results
    if chunk_size is None:
        chunk_size = max(1, -(-len(items) // (4 * n_workers)))
    workers = min(n_workers, len(items))
    spec = worker_spec()
    mapper = fn if spec is None else _ObservedItem(fn, spec)
    payload = items if spec is None else list(enumerate(items))
    pool = persistent_pool(workers, shared=shared)
    try:
        with profile_paused("trials.wait"):
            out = list(pool.map(mapper, payload, chunksize=chunk_size))
    except BrokenProcessPool:
        _discard_pool(pool)
        raise
    if spec is None:
        return out
    # pool.map preserves item order, so ingesting sequentially keeps the
    # parent trace in item order regardless of worker count.
    return [ingest_chunk(chunk) for chunk in out]


def _item_cid(index: int) -> str:
    """Positional correlation id for :func:`parallel_map` items (the items
    carry their own seeds, so position is the stable identity)."""
    return f"i{index:05d}"


class _ObservedItem:
    """Picklable per-item wrapper: run ``fn(item)`` under a fresh worker
    capture and return the result wrapped in an ``ObsChunk``."""

    def __init__(self, fn, spec):
        self.fn = fn
        self.spec = spec

    def __call__(self, indexed_item):
        index, item = indexed_item
        with chunk_capture(self.spec) as wrap:
            rec = active_recorder()
            with profile_capture("map.item"):
                if rec is None:
                    out = self.fn(item)
                else:
                    with rec.correlate(_item_cid(index)):
                        out = self.fn(item)
            return wrap(out)
