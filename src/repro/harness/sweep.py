"""Parallel sweep engine with a persistent on-disk result cache.

This module is the execution layer underneath :mod:`repro.harness.figures`
and ``python -m repro.cli``: every experiment is decomposed into independent
:class:`RunSpec` units (one simulator run each), which can be

* fanned across worker processes (``run_specs(specs, jobs=N)``; several
  figures' plans at once through :func:`run_plans`, the one batch loop).
  Every call here defaults to ``jobs=1`` — in-process, nothing forks unasked;
  ``python -m repro.cli`` passes the CPUs available unless told ``--jobs N``
  — and a pool exists only while two or more distinct specs miss the cache
  (:func:`pool_workers`).  A batch that fails, loses a worker or is
  interrupted keeps every completed run (:class:`SpecFailedError`); and
* memoized on disk across *processes* (:class:`ResultCache`), so a CI run,
  a benchmark session and an interactive CLI call all reuse each other's
  simulations.

Determinism contract
--------------------
A cached or parallel run must be **bit-identical** to a cold serial run.
Two mechanisms guarantee this:

1. every unit run is an independent, seeded, module-level function — no
   state is shared between specs, so process boundaries cannot reorder
   anything inside a simulation.  A spec usually holds it as a
   :class:`UnitRun` (module and function *name*, imported at the call), so
   this module and the plans built on it load no simulator: what a cache
   hit imports is the codec, the cache and the names;
2. every result (cold, cached or parallel) is normalized through the same
   JSON codec (:func:`encode_result` / :func:`decode_result`) before being
   returned, so the value a caller sees never depends on whether it came
   from a fresh simulation, a worker process or a disk record.  The codec
   round-trips Python scalars exactly (floats via shortest-repr JSON) and
   tags tuples, non-string dict keys and known dataclasses so decoding
   restores the original types.

Cache key scheme
----------------
A record's key is ``sha256(experiment \\x00 canonical-kwargs \\x00
code-fingerprint)`` where

* ``experiment`` is the spec's stable name (e.g. ``"fig16[NDP,senders=8]"``),
* ``canonical-kwargs`` is the sorted-key JSON encoding of the spec's kwargs
  (tuples and int keys tagged, so equal kwargs always serialize equally),
* ``code-fingerprint`` is a SHA-256 over every ``*.py`` source file of the
  installed ``repro`` package — **any** code change invalidates the whole
  cache, which is the conservative choice for a simulator where distant
  modules (queues, pacers, timers) all affect results.

Records are one JSON file per key under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro``).  Writers stage to a unique temp file and ``os.replace``
it into place, so concurrent writers — parallel workers, two CI jobs on a
shared volume — can never interleave bytes; readers treat any unreadable or
structurally invalid record as a miss and delete it.  Pass ``cache=None``
(``--no-cache`` on the CLI) to bypass the cache entirely; the
seeded digest scenarios (``tools/check_digests.py``) never consult it.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import os
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.harness.metrics import ThroughputResult

__all__ = [
    "RunSpec",
    "UnitRun",
    "Plan",
    "ResultCache",
    "SpecFailedError",
    "run_specs",
    "pool_workers",
    "run_plans",
    "run_plan",
    "default_cache",
    "encode_result",
    "decode_result",
    "code_fingerprint",
]

#: environment variable overriding the cache directory
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_TYPE_TAG = "__repro__"


# ---------------------------------------------------------------------------
# Result codec — exact JSON round-tripping for experiment results
# ---------------------------------------------------------------------------

#: result dataclasses the codec tags by class name and restores on decode
_REGISTERED_DATACLASSES: Dict[str, type] = {"ThroughputResult": ThroughputResult}


def encode_result(value: Any) -> Any:
    """Convert *value* into a JSON-serializable structure, reversibly.

    Supported: JSON scalars, lists, tuples, dicts with arbitrary scalar
    keys, and the registered result dataclasses (currently
    :class:`~repro.harness.metrics.ThroughputResult`).  Anything else
    raises ``TypeError`` — unit runs are required to return simple data.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, tuple):
        return {_TYPE_TAG: "tuple", "items": [encode_result(v) for v in value]}
    if isinstance(value, list):
        return [encode_result(v) for v in value]
    if isinstance(value, dict):
        plain = all(isinstance(k, str) for k in value) and _TYPE_TAG not in value
        if plain:
            return {k: encode_result(v) for k, v in value.items()}
        return {
            _TYPE_TAG: "dict",
            "items": [[encode_result(k), encode_result(v)] for k, v in value.items()],
        }
    if is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name in _REGISTERED_DATACLASSES:
            return {
                _TYPE_TAG: name,
                "fields": {
                    f.name: encode_result(getattr(value, f.name))
                    for f in fields(value)
                },
            }
    raise TypeError(
        f"experiment results must be JSON-codable data, got {type(value).__name__}"
    )


def decode_result(value: Any) -> Any:
    """Inverse of :func:`encode_result`."""
    if isinstance(value, list):
        return [decode_result(v) for v in value]
    if isinstance(value, dict):
        tag = value.get(_TYPE_TAG)
        if tag is None:
            return {k: decode_result(v) for k, v in value.items()}
        if tag == "tuple":
            return tuple(decode_result(v) for v in value["items"])
        if tag == "dict":
            return {decode_result(k): decode_result(v) for k, v in value["items"]}
        cls = _REGISTERED_DATACLASSES.get(tag)
        if cls is not None:
            return cls(**{k: decode_result(v) for k, v in value["fields"].items()})
        raise ValueError(f"unknown result tag {tag!r}")
    return value


def normalize_result(value: Any) -> Any:
    """Round-trip *value* through the codec (what a cache hit would return)."""
    return decode_result(json.loads(json.dumps(encode_result(value))))


def canonical_params(params: Mapping[str, Any]) -> str:
    """Deterministic JSON string for a kwargs mapping (cache-key component)."""
    return json.dumps(encode_result(dict(params)), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Code fingerprint — any source change invalidates every record
# ---------------------------------------------------------------------------

_fingerprint_cache: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over every ``*.py`` file of the ``repro`` package.

    Computed once per process.  Keying cache records on this hash means a
    record can only ever be replayed against the exact code that produced
    it; there is no staleness to reason about.
    """
    global _fingerprint_cache
    if _fingerprint_cache is None:
        import repro

        package_root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for directory, _subdirs, filenames in sorted(os.walk(package_root)):
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(directory, filename)
                digest.update(os.path.relpath(path, package_root).encode())
                digest.update(b"\x00")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
                digest.update(b"\x00")
        _fingerprint_cache = digest.hexdigest()
    return _fingerprint_cache


def record_key(
    experiment: str, params: Mapping[str, Any], fingerprint: Optional[str] = None
) -> str:
    """Digest identifying one run's cache record (see the module docstring)."""
    material = "\x00".join(
        [experiment, canonical_params(params),
         fingerprint if fingerprint is not None else code_fingerprint()]
    )
    return hashlib.sha256(material.encode()).hexdigest()


# ---------------------------------------------------------------------------
# RunSpec / Plan — the unit-of-work contract
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitRun:
    """A module-level function named by where it lives, imported when called.

    ``UnitRun("repro.harness.unit_runs", "_figure12_run")`` stands for that
    function as a :class:`RunSpec`'s ``fn`` without importing its module:
    a plan can be built, keyed and served from the cache while the simulator
    the unit runs import stays unloaded, and the first *executed* spec pays
    for it — in whichever process executes it.  Equal, hashable and
    picklable by value; a name the module lacks raises ``AttributeError``
    (``module 'm' has no attribute 'f'``) at the call.
    """

    module: str
    name: str

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return getattr(importlib.import_module(self.module), self.name)(*args, **kwargs)


@dataclass(frozen=True)
class RunSpec:
    """One independent, seeded experiment run.

    ``fn`` must be a module-level callable, or a :class:`UnitRun` naming one
    (so worker processes can import it), and ``kwargs`` must be JSON-codable
    (so the cache key is stable); calling ``fn(**kwargs)`` must be
    deterministic and return codec-friendly data.  ``experiment`` names the
    run for cache records and progress output — include the varying
    parameters (e.g. ``"fig17[8pkt,iw=10]"``) so records are self-describing.
    """

    experiment: str
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def cache_key(self, fingerprint: Optional[str] = None) -> str:
        """Digest identifying this run (:func:`record_key`)."""
        return record_key(self.experiment, self.kwargs, fingerprint)

    def execute(self) -> Any:
        """Run the experiment (no cache involvement)."""
        return self.fn(**self.kwargs)


class Plan(NamedTuple):
    """A figure decomposed into independent specs plus an assembly step.

    ``assemble`` receives the spec results *in spec order* and builds the
    figure's public result structure (rows, mapping, …).
    """

    specs: List[RunSpec]
    assemble: Callable[[List[Any]], Any]


# ---------------------------------------------------------------------------
# Persistent cache
# ---------------------------------------------------------------------------

class ResultCache:
    """Concurrent-writer-safe, per-record JSON cache of experiment results.

    One file per record under *root* (:func:`default_cache` picks
    ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``).  All I/O failures degrade
    to cache misses — a read-only or corrupt cache never breaks an
    experiment, it only makes it slower.  ``hits`` / ``misses`` /
    ``stores`` count this instance's traffic (used by tests and the CLI
    summary).
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def get(self, experiment: str, params: Mapping[str, Any]) -> Tuple[bool, Any]:
        """Return ``(hit, decoded_result)``; corrupt records become misses."""
        path = self._path(record_key(experiment, params))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
            result = record["result"]  # KeyError -> corrupt
            if record["experiment"] != experiment:
                raise ValueError("record/experiment mismatch")
            decoded = decode_result(result)
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except (OSError, ValueError, KeyError, TypeError):
            # unreadable or structurally invalid: drop it and treat as a miss
            try:
                os.remove(path)
            except OSError:
                pass
            self.misses += 1
            return False, None
        try:
            os.utime(path)  # keep hot records young for the age-based prune
        except OSError:
            pass
        self.hits += 1
        return True, decoded

    def put(self, experiment: str, params: Mapping[str, Any], result: Any) -> None:
        """Atomically persist *result*; failures are silently ignored."""
        self.put_encoded(experiment, params, encode_result(result))

    def put_encoded(
        self, experiment: str, params: Mapping[str, Any], encoded_result: Any
    ) -> None:
        """Like :meth:`put` for a result already passed through the codec.

        Lets the sweep engine write worker payloads straight to disk
        without re-encoding multi-thousand-sample figures a second time.
        """
        key = record_key(experiment, params)
        record = {
            "experiment": experiment,
            "kwargs": encode_result(dict(params)),
            "fingerprint": code_fingerprint(),
            "result": encoded_result,
        }
        import tempfile  # only a miss stores: a run served from the cache never loads it

        try:
            os.makedirs(self.root, exist_ok=True)
            fd, staging = tempfile.mkstemp(
                prefix=f"{key}.tmp.", dir=self.root, text=True
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(record, fh)
                os.replace(staging, self._path(key))
            except BaseException:
                try:
                    os.remove(staging)
                except OSError:
                    pass
                raise
        except (OSError, TypeError):
            return
        self.stores += 1

    # Maintenance ----------------------------------------------------------

    #: records untouched for this long are assumed orphaned (their code
    #: fingerprint no longer exists) and are reclaimed by :meth:`prune`
    PRUNE_TTL_SECONDS = 30 * 24 * 3600
    #: how often :meth:`maybe_prune` actually walks the directory
    PRUNE_INTERVAL_SECONDS = 24 * 3600

    def prune(self) -> int:
        """Delete records untouched for :data:`PRUNE_TTL_SECONDS`; return count.

        Cache keys embed the code fingerprint, so records from older source
        trees become unreachable rather than stale — this reclaims them.
        Hits touch their record's mtime (see :meth:`get`), so anything a
        month old genuinely has not been used; in the worst case a
        still-valid record is re-simulated once.  Leftover staging files
        older than an hour are removed too.
        """
        import time as _time

        ttl = self.PRUNE_TTL_SECONDS
        removed = 0
        try:
            now = _time.time()
            for name in os.listdir(self.root):
                path = os.path.join(self.root, name)
                try:
                    age = now - os.stat(path).st_mtime
                    if (name.endswith(".json") and age > ttl) or (
                        ".tmp." in name and age > 3600
                    ):
                        os.remove(path)
                        removed += 1
                except OSError:
                    continue
        except OSError:
            return removed
        return removed

    def maybe_prune(self) -> None:
        """Run :meth:`prune` at most once per :data:`PRUNE_INTERVAL_SECONDS`.

        Throttled through the mtime of a stamp file in the cache directory,
        so the directory walk doesn't tax every CLI invocation.
        """
        stamp = os.path.join(self.root, ".last-prune")
        import time as _time

        try:
            if _time.time() - os.stat(stamp).st_mtime < self.PRUNE_INTERVAL_SECONDS:
                return
        except OSError:
            pass  # no stamp yet
        try:
            os.makedirs(self.root, exist_ok=True)
            with open(stamp, "w"):
                pass
        except OSError:
            return
        self.prune()


#: sentinel meaning "use default_cache()" (distinct from None = disabled)
USE_DEFAULT_CACHE = object()

_default_cache: Optional[ResultCache] = None


def default_cache() -> ResultCache:
    """The process-wide :class:`ResultCache` under ``$REPRO_CACHE_DIR``, else
    ``~/.cache/repro``: the one place the cache root is chosen."""
    global _default_cache
    root = os.environ.get(CACHE_DIR_ENV) or os.path.join(
        os.path.expanduser("~"), ".cache", "repro"
    )
    if _default_cache is None or _default_cache.root != root:
        _default_cache = ResultCache(root)
        _default_cache.maybe_prune()
    return _default_cache


# ---------------------------------------------------------------------------
# Execution engine
# ---------------------------------------------------------------------------

class SpecFailedError(RuntimeError):
    """A batch stopped early; ``labels`` names the specs to blame.

    One label when a spec raised (``__cause__`` is what it raised, and the
    message quotes it).  When a worker process died — killed, out of memory,
    ``os._exit`` — the pool cannot say which run took it down, so ``labels``
    lists every spec that had started and not finished.  Either way every
    run that completed, before the failure or while it surfaced, is in the
    cache and was reported through ``on_result``.
    """

    def __init__(self, message: str, labels: Sequence[str]) -> None:
        super().__init__(message)
        self.labels = tuple(labels)


def _execute_spec_encoded(spec: RunSpec) -> Any:
    """Worker entry point: run the spec and return the *encoded* result."""
    return encode_result(spec.execute())


def _pool_context():
    import multiprocessing

    # fork keeps sys.path (src/ layout without installation) and is cheap;
    # fall back to the platform default where fork is unavailable
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def pool_workers(jobs: int, distinct_misses: int) -> int:
    """Worker processes :func:`run_specs` starts for a batch; 0 means in-process.

    A pool needs ``jobs`` > 1 and at least two distinct specs to simulate,
    and never holds more workers than specs: a warm cache, a single-spec
    family and a one-CPU host all run (or read) in the calling process.
    """
    return min(jobs, distinct_misses) if jobs > 1 and distinct_misses > 1 else 0


def _run_pooled(
    specs: Sequence[RunSpec],
    leaders: Sequence[int],
    workers: int,
    finish: Callable[[int, Any], None],
) -> None:
    """Run ``specs[i]`` for *i* in *leaders* on *workers* processes, in order.

    A spec is handed to the pool only when a worker is free to start it, so
    the runs in flight are exactly the ones that have started: on the first
    failure nothing else starts, the (at most ``workers - 1``) other runs in
    flight finish and are kept, and a dead worker is blamed on the specs it
    could have been running rather than on every spec still queued.
    """
    import concurrent.futures  # with multiprocessing, ~20 ms only this branch uses
    import signal
    from concurrent.futures.process import BrokenProcessPool

    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, mp_context=_pool_context(),
        # a terminal's Ctrl-C signals the whole process group: the workers
        # end at once without a traceback each, and the caller reports
        initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_DFL),
    )
    waiting = iter(leaders)
    running: Dict[Any, int] = {}
    errors: Dict[int, BaseException] = {}

    def collect(done) -> None:
        for future in done:
            index = running.pop(future)
            error = future.exception()
            if error is None:
                finish(index, future.result())
            else:
                errors[index] = error

    try:
        while not errors:
            for index in itertools.islice(waiting, workers - len(running)):
                running[pool.submit(_execute_spec_encoded, specs[index])] = index
            if not running:
                break
            collect(concurrent.futures.wait(
                running, return_when=concurrent.futures.FIRST_COMPLETED).done)
    finally:
        # the runs in flight finish (or their worker is dead); keep what they return
        pool.shutdown(wait=True)
        collect(list(running))
    if not errors:
        return
    dead = [index for index, error in errors.items() if isinstance(error, BrokenProcessPool)]
    if dead:
        labels = [specs[index].experiment for index in sorted(dead)]
        raise SpecFailedError(
            "a worker process died (killed, out of memory?) while running "
            + ", ".join(map(repr, labels)), labels,
        ) from errors[dead[0]]
    index, error = next(iter(errors.items()))
    raise _spec_failed(specs[index], error) from error


def _spec_failed(spec: RunSpec, error: BaseException) -> SpecFailedError:
    return SpecFailedError(
        f"experiment {spec.experiment!r} failed: {error}", [spec.experiment])


def run_specs(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    cache: Any = USE_DEFAULT_CACHE,
    on_result: Optional[Callable[[RunSpec, int, str], None]] = None,
) -> List[Any]:
    """Execute *specs*, in parallel and through the cache, in spec order.

    ``jobs`` > 1 fans cache misses across that many worker processes (each
    spec is an independent seeded simulation, so any interleaving yields
    identical results).  ``cache`` is the default persistent cache, an
    explicit :class:`ResultCache`, or ``None`` to disable caching.  Every
    returned value — hit or miss, serial or parallel — is normalized
    through the result codec, so callers always see the same data the
    cache would serve.  ``on_result(spec, index, source)`` is invoked as
    results resolve with ``source`` in ``{"cache", "run"}``.

    Identical specs in one batch are simulated once (they are
    deterministic), and a pool is started only for two or more distinct
    misses (:func:`pool_workers`): a warm cache or a single miss stays in
    this process and imports no ``multiprocessing``.

    Each result is persisted *as it resolves*, so a failing spec or an
    interrupt costs at most the runs in flight — every completed simulation
    is already on disk.  The first spec to raise ends the batch with one
    :class:`SpecFailedError` naming it: serially at once; on a pool after the
    other runs already in flight have finished and been stored, while specs
    that had not started never do.  A worker process that dies raises the
    same error naming the specs that were in flight.  ``KeyboardInterrupt``
    passes through with the same guarantee about the cache.
    """
    if cache is USE_DEFAULT_CACHE:
        cache = default_cache()
    results: List[Any] = [None] * len(specs)
    pending: List[int] = []
    for index, spec in enumerate(specs):
        if cache is not None:
            hit, value = cache.get(spec.experiment, spec.kwargs)
            if hit:
                results[index] = value
                if on_result is not None:
                    on_result(spec, index, "cache")
                continue
        pending.append(index)

    if not pending:
        return results

    # identical (experiment, kwargs) specs are deterministic duplicates:
    # simulate the first occurrence only and fan its result out
    groups: Dict[str, List[int]] = {}
    for index in pending:
        groups.setdefault(specs[index].cache_key(), []).append(index)
    leaders = [indices[0] for indices in groups.values()]

    def finish(leader: int, payload: Any) -> None:
        # normalize through the same JSON round-trip a cache hit takes,
        # and persist immediately — the already-encoded worker payload
        # goes straight to disk without a second encode pass
        value = decode_result(json.loads(json.dumps(payload)))
        if cache is not None:
            cache.put_encoded(specs[leader].experiment, specs[leader].kwargs, payload)
        for index in groups[specs[leader].cache_key()]:
            results[index] = value
            if on_result is not None:
                on_result(specs[index], index, "run")

    workers = pool_workers(jobs, len(leaders))
    if workers:
        _run_pooled(specs, leaders, workers, finish)
    else:
        for index in leaders:
            try:
                payload = _execute_spec_encoded(specs[index])
            except Exception as exc:
                raise _spec_failed(specs[index], exc) from exc
            finish(index, payload)
    return results


def run_plans(
    plans: Sequence[Plan],
    jobs: int = 1,
    cache: Any = USE_DEFAULT_CACHE,
    on_result: Optional[Callable[[RunSpec, int, str], None]] = None,
) -> List[Any]:
    """Execute *plans* as one batch; one assembled result per plan, in order.

    The batch loop of the experiment layer (a multi-figure CLI run, a sweep
    grid and a render are all this call): every plan's specs go through a
    single :func:`run_specs`, so plans interleave across the worker pool, a
    spec that several plans share is simulated once, and ``on_result``'s
    *index* counts across the concatenated specs.  A plan with no specs
    assembles from an empty list.
    """
    results = iter(run_specs(
        [spec for plan in plans for spec in plan.specs],
        jobs=jobs, cache=cache, on_result=on_result,
    ))
    return [
        plan.assemble(list(itertools.islice(results, len(plan.specs))))
        for plan in plans
    ]


def run_plan(plan: Plan, jobs: int = 1, cache: Any = USE_DEFAULT_CACHE) -> Any:
    """Execute a figure plan and assemble its public result."""
    return run_plans([plan], jobs=jobs, cache=cache)[0]
