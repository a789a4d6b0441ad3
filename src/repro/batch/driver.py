"""The crash-isolated parallel batch driver (``repro batch``).

ROADMAP item 3's robustness half: fan a corpus of projects / legacy
sources / fuzz specs through the whole pipeline with the guarantee that
one pathological item can never hang, crash, or corrupt the run for the
rest.  The envelope, per item:

1. **Resume** — with ``--resume``, a digest-valid checkpoint from a
   killed campaign short-circuits the item entirely
   (:class:`repro.numeric.CheckpointStore`).
2. **Sticky quarantine** — an item already quarantined as poison (its
   digest-named bundle exists for these pipeline options) is skipped
   without spawning a worker: poison stays down across invocations.
3. **Cache** — the content-addressed :class:`.cache.ArtifactCache` is
   consulted before any process is spawned; a verified hit costs one
   JSON read instead of a compile.
4. **Isolated compile with retry** — the item runs in a worker process
   (forkserver, falling back to spawn) under its ``ResourceLimits``
   (iteration/wall budgets inside, ``RLIMIT_AS`` memory budget at
   startup) plus a parent-side deadline that SIGKILLs a hung worker.
   Worker death raises :class:`repro.errors.WorkerCrashError`, retried
   under a seeded :class:`repro.numeric.RetryPolicy`; typed pipeline
   errors are transported back as themselves, and the never-retry
   classes (``ResourceLimitError``, ``NumericIntegrityError``) propagate
   without re-spawning.
5. **Quarantine** — an item whose worker died on every attempt gets a
   digest-named ``batch-<sha12>.json`` poison bundle (fuzz-style) and
   the batch keeps going.

``--jobs 1`` — or a platform without ``multiprocessing`` — degrades to
serial in-process execution of the same compile path (poison faults are
then *simulated* with identical death records, since really crashing
would take the parent down); serial and parallel runs produce
digest-identical manifests.  See ``docs/BATCH.md``.

:attr:`BatchOptions.checks` adds per-item checks to ``fuzz`` items (the
``repro fuzz`` differential oracle); :func:`probe_item` is the same
compile+check, in-process, for callers that need one item's failures
without a campaign around it (the fuzz shrinker's probe).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import (
    BatchError,
    DiagnosticBundle,
    ExecutionError,
    GlafError,
    WorkerCrashError,
)
from ..numeric.checkpoint import CheckpointStore
from ..numeric.integrity import atomic_write_json, content_digest
from ..numeric.retry import RetryPolicy, retry_call
from ..robust.watchdog import ResourceLimits
from .cache import ArtifactCache
from .corpus import CorpusItem
from .manifest import ItemOutcome, build_manifest
from .worker import (
    POISON_CRASH_EXIT,
    POISON_OOM_EXIT,
    WorkerConfig,
    run_item,
    worker_entry,
)

if TYPE_CHECKING:
    from ..fuzz.oracle import FuzzChecks

__all__ = ["POISON_SCHEMA", "DEFAULT_CHECKPOINT_DIR",
           "DEFAULT_QUARANTINE_DIR", "DEFAULT_CACHE_DIR",
           "BatchOptions", "BatchResult", "run_batch", "probe_item",
           "quarantine_bundle_name"]

POISON_SCHEMA = "repro.batch.poison/v1"
DEFAULT_CHECKPOINT_DIR = ".repro_batch.ckpt"
DEFAULT_QUARANTINE_DIR = "batch_quarantine"
DEFAULT_CACHE_DIR = os.path.join(".repro", "batch-cache")


@dataclass(frozen=True)
class BatchOptions:
    """The whole envelope for one batch, validated up front."""

    variant: str = "GLAF-parallel v0"
    target: str = "fortran"
    jobs: int = 1
    timeout: float = 60.0             # parent-side per-item deadline (s)
    retries: int = 1                  # worker re-spawns before quarantine
    seed: int = 0                     # retry-jitter stream root
    max_loop_iterations: int | None = 2_000_000
    max_wall_seconds: float | None = 30.0
    max_memory_mb: int | None = 2048
    fuzz_profile: str = "small"
    cache_dir: str | None = DEFAULT_CACHE_DIR
    cache_max_entries: int = 0        # 0: unbounded
    checkpoint_dir: str | None = DEFAULT_CHECKPOINT_DIR
    resume: bool = False
    quarantine_dir: str = DEFAULT_QUARANTINE_DIR
    retry_base_delay: float = 0.05
    checks: FuzzChecks | None = None  # fuzz-item checks (``repro fuzz``)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise BatchError("batch jobs must be >= 1")
        if self.timeout <= 0:
            raise BatchError("batch timeout must be positive")
        if self.retries < 0:
            raise BatchError("batch retries must be >= 0")
        if self.cache_max_entries < 0:
            raise BatchError("cache_max_entries must be >= 0")

    def limits(self) -> ResourceLimits:
        return ResourceLimits(
            max_loop_iterations=self.max_loop_iterations,
            max_wall_seconds=self.max_wall_seconds,
            max_memory_mb=self.max_memory_mb)

    def worker_config(self) -> WorkerConfig:
        return WorkerConfig(variant=self.variant, target=self.target,
                            limits=self.limits(), checks=self.checks)

    def pipeline_options(self) -> dict:
        """The options half of the cache address: everything that can
        change what the pipeline *emits* for a given source.  A plain
        batch has no ``checks`` key, so its cache keys and manifest
        digests do not depend on whether checks exist at all."""
        options = {"variant": self.variant, "target": self.target,
                   "fuzz_profile": self.fuzz_profile}
        if self.checks is not None:
            options["checks"] = self.checks.to_json()
        return options

    def manifest_options(self) -> dict:
        """The digested manifest options: the pipeline options plus the
        robustness envelope (budgets shape typed-failure outcomes, the
        timeout appears in hang death records, retries bound death
        lists) — but never ``jobs``, so serial and parallel runs digest
        identically."""
        return {
            **self.pipeline_options(),
            "retries": self.retries,
            "timeout": self.timeout,
            "seed": self.seed,
            "max_loop_iterations": self.max_loop_iterations,
            "max_wall_seconds": self.max_wall_seconds,
            "max_memory_mb": self.max_memory_mb,
        }


@dataclass
class BatchResult:
    """Everything one batch produced, manifest already digest-stamped."""

    manifest: dict
    outcomes: list[ItemOutcome]
    stats: dict

    @property
    def ok(self) -> bool:
        return (self.stats["failed"] == 0
                and self.stats["quarantined"] == 0)


# -- worker process management ------------------------------------------

def _main_is_spawn_safe() -> bool:
    """Whether spawn/forkserver children can re-import ``__main__``.

    Both start methods replay the parent's main module in the child; a
    parent whose main is not a real importable file — a REPL, a heredoc,
    an embedded interpreter — would kill every worker at startup with
    ``FileNotFoundError``, which the driver would then dutifully
    quarantine as poison.  Detect that up front and degrade to serial
    instead.
    """
    import sys

    main = sys.modules.get("__main__")
    if main is None:
        return False
    spec = getattr(main, "__spec__", None)
    if getattr(spec, "name", None):
        return True               # python -m …: re-imported by name
    path = getattr(main, "__file__", None)
    return bool(path) and os.path.exists(path)


def _mp_context():
    """A working multiprocessing context, or ``None`` to degrade serial.

    Prefers ``forkserver`` (safe next to the driver's threads, and forks
    are fast once the server has preloaded the package); falls back to
    ``spawn``; returns ``None`` where multiprocessing itself is broken
    (missing OS semaphores, restricted platforms) or where worker
    startup could never succeed (:func:`_main_is_spawn_safe`).
    """
    if not _main_is_spawn_safe():
        return None
    try:
        import multiprocessing as mp

        try:
            ctx = mp.get_context("forkserver")
            try:
                ctx.set_forkserver_preload(["repro.batch.worker"])
            except Exception:         # server already running: keep it
                pass
        except ValueError:
            ctx = mp.get_context("spawn")
        return ctx
    except (ImportError, OSError, ValueError):
        return None


def _hang_message(item_id: str, timeout: float) -> str:
    return (f"batch:{item_id}: worker SIGKILLed after exceeding the "
            f"parent deadline of {timeout:g}s")


def _crash_message(item_id: str, exit_code) -> str:
    return (f"batch:{item_id}: worker died before reporting a result "
            f"(exit code {exit_code})")


def _kill(proc) -> None:
    if proc.is_alive():
        proc.kill()
    proc.join()


def _spawn_once(item: CorpusItem, config: WorkerConfig,
                options: BatchOptions, ctx) -> dict:
    """One worker process for one item: typed result, typed error, or
    :class:`WorkerCrashError` — never a parent hang."""
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=worker_entry,
                       args=(child_conn, item, config), daemon=True)
    proc.start()
    child_conn.close()
    message = None
    try:
        if parent_conn.poll(options.timeout):
            try:
                message = parent_conn.recv()
            except (EOFError, OSError):
                message = None        # died without reporting
        else:
            _kill(proc)
            raise WorkerCrashError(
                _hang_message(item.id, options.timeout),
                item=item.id, kind="hang")
    finally:
        parent_conn.close()
    if message is None:
        proc.join(options.timeout)
        _kill(proc)
        code = proc.exitcode
        raise WorkerCrashError(_crash_message(item.id, code),
                               item=item.id, kind="crash", exit_code=code)
    proc.join(options.timeout)
    _kill(proc)
    status, payload = message
    if status == "ok":
        return payload
    raise payload


def _simulate_poison(item: CorpusItem, options: BatchOptions) -> None:
    """Serial-mode stand-in for a poison worker death.

    Really crashing/hanging would take the whole (single-process) batch
    down, so serial mode raises the exact :class:`WorkerCrashError` the
    parallel parent would have synthesized — same kind, same exit code,
    same message — keeping serial and parallel manifests digest-equal.
    """
    kind = item.content
    if kind == "hang":
        raise WorkerCrashError(_hang_message(item.id, options.timeout),
                               item=item.id, kind="hang")
    code = POISON_OOM_EXIT if kind == "oom" else POISON_CRASH_EXIT
    raise WorkerCrashError(_crash_message(item.id, code),
                           item=item.id, kind="crash", exit_code=code)


def _run_serial(item: CorpusItem, config: WorkerConfig,
                options: BatchOptions) -> dict:
    if item.kind == "poison":
        _simulate_poison(item, options)
    return run_item(item, config)


# -- quarantine ---------------------------------------------------------

def quarantine_bundle_name(item: CorpusItem, options: BatchOptions) -> str:
    """Deterministic bundle filename for one poisonous (item, options).

    The digest covers only the item identity and the pipeline options —
    not the deaths — so interrupted, resumed, and repeated runs converge
    on the same file (the stickiness key)."""
    digest = content_digest({
        "schema": POISON_SCHEMA,
        "item": {"id": item.id, "kind": item.kind,
                 "content_sha": item.content_sha},
        "options": options.manifest_options(),
    })
    return f"batch-{digest[:12]}.json"


def _write_quarantine(item: CorpusItem, options: BatchOptions,
                      deaths: list[dict]) -> str:
    name = quarantine_bundle_name(item, options)
    qdir = Path(options.quarantine_dir)
    qdir.mkdir(parents=True, exist_ok=True)
    atomic_write_json(qdir / name, {
        "schema": POISON_SCHEMA,
        "item": {"id": item.id, "kind": item.kind,
                 "content_sha": item.content_sha,
                 "content": item.content, "origin": item.origin},
        "options": options.manifest_options(),
        "deaths": list(deaths),
        "attempts": len(deaths),
    })
    return name


def _sticky_deaths(item: CorpusItem, options: BatchOptions
                   ) -> list[dict] | None:
    """The death record from a prior quarantine of this exact (item,
    options), or ``None``.  An unreadable bundle is ignored — the item
    gets a fresh chance and a fresh bundle."""
    path = Path(options.quarantine_dir) / quarantine_bundle_name(
        item, options)
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(doc, dict) or doc.get("schema") != POISON_SCHEMA:
        return None
    return [d for d in doc.get("deaths", ()) if isinstance(d, dict)]


# -- outcomes -----------------------------------------------------------

def _failure_doc(exc: GlafError) -> dict:
    doc = {
        "stage": getattr(exc, "batch_stage", "") or "compile",
        "error": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, DiagnosticBundle):
        doc["diagnostics"] = [str(d) for d in exc.diagnostics]
    return doc


def _artifact_failures(artifacts: dict) -> list[dict]:
    """The failure docs a compiled item carries: lint findings, then
    whatever its checks reported."""
    failures = []
    for f in artifacts.get("lint", {}).get("findings", ()):
        failures.append({
            "stage": "lint",
            "error": "LintFinding",
            "rule": f.get("rule", ""),
            "message": (f"{f.get('unit', '?')}:{f.get('line', 0)}: "
                        f"{f.get('message', '')}"),
        })
    failures.extend(artifacts.get("checks", {}).get("failures", ()))
    return failures


def _outcome_from_artifacts(item: CorpusItem, artifacts: dict, *,
                            cached: bool, attempts: int,
                            deaths: list[dict]) -> ItemOutcome:
    failures = _artifact_failures(artifacts)
    return ItemOutcome(
        id=item.id, kind=item.kind,
        status="failed" if failures else "ok",
        content_sha=item.content_sha,
        artifact_sha=content_digest(artifacts),
        failures=failures, deaths=list(deaths),
        attempts=attempts, cached=cached,
        checks=dict(artifacts.get("checks", {}).get("counts", {})))


def probe_item(item: CorpusItem, config: WorkerConfig
               ) -> tuple[dict | None, list[dict]]:
    """Compile and check one item in-process, outside any campaign.

    Returns its artifacts (``None`` when the pipeline raised a typed
    error) and the failure docs its batch outcome would carry.
    """
    try:
        artifacts = run_item(item, config)
    except GlafError as e:
        return None, [_failure_doc(e)]
    return artifacts, _artifact_failures(artifacts)


class _Stats:
    """Thread-safe tallies for the run section / metrics / CLI lines."""

    FIELDS = ("ok", "failed", "quarantined", "resumed", "sticky",
              "deaths", "hits", "misses")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counts = dict.fromkeys(self.FIELDS, 0)

    def bump(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n


def _note_item(item: CorpusItem, index: int, outcome: ItemOutcome) -> None:
    from ..observe import get_decisions, get_metrics

    m = get_metrics()
    if m.enabled:
        m.counter("batch.items").inc()
        m.counter(f"batch.{outcome.status}").inc()
        if outcome.cached:
            m.counter("batch.cache.hits").inc()
        if outcome.deaths:
            m.counter("batch.deaths").inc(len(outcome.deaths))
    dl = get_decisions()
    if dl.enabled:
        reasons = tuple(f["message"] for f in outcome.failures[:3])
        dl.record("batch:item", item.id, index, item.kind, outcome.status,
                  reasons=reasons, cached=outcome.cached,
                  resumed=outcome.resumed, attempts=outcome.attempts)


def _note_quarantine(item: CorpusItem, index: int, bundle: str,
                     verdict: str, detail: str) -> None:
    from ..observe import get_decisions, get_metrics

    m = get_metrics()
    if m.enabled:
        m.counter("batch.quarantined").inc()
    dl = get_decisions()
    if dl.enabled:
        dl.record("batch:quarantine", item.id, index, item.kind, verdict,
                  reasons=(detail,), bundle=bundle)


def _process_item(item: CorpusItem, index: int, options: BatchOptions,
                  config: WorkerConfig, store: CheckpointStore | None,
                  cache: ArtifactCache | None, ctx,
                  stats: _Stats) -> ItemOutcome:
    from ..observe import get_metrics

    key = f"item-{item.id}"

    # 1. a digest-valid checkpoint from a killed campaign wins outright.
    if store is not None and options.resume:
        doc = store.load(key, discard_corrupt=True)
        if doc is not None:
            outcome = ItemOutcome.from_json(doc["outcome"])
            outcome.resumed = True
            stats.bump("resumed")
            stats.bump(outcome.status)
            _note_item(item, index, outcome)
            return outcome

    # 2. sticky quarantine: known poison is never given a third worker.
    prior = _sticky_deaths(item, options)
    if prior is not None:
        bundle = quarantine_bundle_name(item, options)
        outcome = ItemOutcome(
            id=item.id, kind=item.kind, status="quarantined",
            content_sha=item.content_sha, deaths=prior, bundle=bundle,
            attempts=0,
            failures=[{"stage": "worker", "error": "WorkerCrashError",
                       "message": prior[-1]["detail"] if prior else
                       "quarantined by a previous run"}])
        stats.bump("quarantined")
        stats.bump("sticky")
        _note_quarantine(item, index, bundle, "sticky",
                         "bundle already on disk; worker not spawned")
        if store is not None:
            store.save(key, {"outcome": outcome.to_json()})
        _note_item(item, index, outcome)
        return outcome

    # 3. content-addressed cache: verified hits skip the compile.
    cache_key = None
    if cache is not None and item.kind != "poison":
        cache_key = cache.key_for(item.content_sha, item.kind,
                                  options.pipeline_options())
        artifacts = cache.get(cache_key)
        if artifacts is not None:
            stats.bump("hits")
            outcome = _outcome_from_artifacts(
                item, artifacts, cached=True, attempts=0, deaths=[])
            stats.bump(outcome.status)
            if store is not None:
                store.save(key, {"outcome": outcome.to_json()})
            _note_item(item, index, outcome)
            return outcome
        stats.bump("misses")
        m = get_metrics()
        if m.enabled:
            m.counter("batch.cache.misses").inc()

    # 4. isolated compile under seeded retry-with-backoff.
    deaths: list[dict] = []
    attempts = 0

    def attempt() -> dict:
        nonlocal attempts
        attempts += 1
        try:
            if ctx is None:
                return _run_serial(item, config, options)
            return _spawn_once(item, config, options, ctx)
        except WorkerCrashError as e:
            deaths.append({"kind": e.kind, "attempt": attempts - 1,
                           "detail": str(e)})
            stats.bump("deaths")
            raise

    policy = RetryPolicy(retries=options.retries,
                         base_delay=options.retry_base_delay,
                         seed=(options.seed * 1_000_003 + index) % 2**32)
    try:
        artifacts = retry_call(
            attempt, policy=policy, what=f"batch:{item.id}",
            retryable=(WorkerCrashError, ExecutionError))
    except WorkerCrashError:
        # 5. every attempt killed its worker: quarantine and move on.
        bundle = _write_quarantine(item, options, deaths)
        outcome = ItemOutcome(
            id=item.id, kind=item.kind, status="quarantined",
            content_sha=item.content_sha, deaths=deaths, bundle=bundle,
            attempts=attempts,
            failures=[{"stage": "worker", "error": "WorkerCrashError",
                       "message": deaths[-1]["detail"]}])
        stats.bump("quarantined")
        _note_quarantine(item, index, bundle, "written",
                         deaths[-1]["detail"])
    except GlafError as e:
        outcome = ItemOutcome(
            id=item.id, kind=item.kind, status="failed",
            content_sha=item.content_sha, failures=[_failure_doc(e)],
            deaths=deaths, attempts=attempts)
        stats.bump("failed")
    else:
        if cache_key is not None:
            cache.put(cache_key, content_sha=item.content_sha,
                      kind=item.kind,
                      options=options.pipeline_options(),
                      artifacts=artifacts)
        outcome = _outcome_from_artifacts(
            item, artifacts, cached=False, attempts=attempts,
            deaths=deaths)
        stats.bump(outcome.status)
    if store is not None:
        store.save(key, {"outcome": outcome.to_json()})
    _note_item(item, index, outcome)
    return outcome


def run_batch(items: list[CorpusItem],
              options: BatchOptions | None = None) -> BatchResult:
    """Drive the whole corpus to a digest-stamped aggregate manifest."""
    from ..observe import get_decisions

    options = options or BatchOptions()
    if not items:
        raise BatchError("run_batch: empty corpus")
    ids = [i.id for i in items]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise BatchError(f"run_batch: duplicate item id(s): "
                         f"{', '.join(dupes)}")

    t0 = time.perf_counter()
    store = (CheckpointStore(options.checkpoint_dir)
             if options.checkpoint_dir else None)
    if store is not None and not options.resume:
        store.clear()              # stale checkpoints must not skip work
    cache = (ArtifactCache(options.cache_dir,
                           max_entries=options.cache_max_entries)
             if options.cache_dir else None)

    ctx = None
    mode = "serial"
    if options.jobs > 1:
        ctx = _mp_context()
        if ctx is not None:
            mode = "parallel"
        else:
            dl = get_decisions()
            if dl.enabled:
                dl.record("batch:degraded", "batch", 0, "", "serial",
                          reasons=("multiprocessing unavailable; compiling "
                                   "in-process without crash isolation",))

    stats = _Stats()
    config = options.worker_config()

    def process(pair) -> ItemOutcome:
        index, item = pair
        return _process_item(item, index, options, config, store, cache,
                             ctx, stats)

    if mode == "parallel":
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=options.jobs) as pool:
            outcomes = list(pool.map(process, enumerate(items)))
    else:
        outcomes = [process(pair) for pair in enumerate(items)]

    wall_s = time.perf_counter() - t0
    counts = dict(stats.counts)
    run_stats = {
        "items": len(items),
        "ok": counts["ok"],
        "failed": counts["failed"],
        "quarantined": counts["quarantined"],
        "resumed": counts["resumed"],
        "sticky": counts["sticky"],
        "deaths": counts["deaths"],
        "attempts": sum(o.attempts for o in outcomes),
        "cache": {
            "enabled": cache is not None,
            "hits": counts["hits"],
            "misses": counts["misses"],
            "corrupt": cache.corrupt_discarded if cache else 0,
            "evictions": cache.evicted if cache else 0,
        },
        "wall_s": round(wall_s, 6),
        "jobs": options.jobs,
        "mode": mode,
    }
    manifest = build_manifest(outcomes, options.manifest_options(),
                              run=run_stats)
    if store is not None:
        store.clear()              # campaign complete: checkpoints spent
    dl = get_decisions()
    if dl.enabled:
        dl.record(
            "batch:campaign", "batch", len(items), mode,
            "completed" if not (counts["failed"] or counts["quarantined"])
            else "failed",
            reasons=(f"ok {counts['ok']}, failed {counts['failed']}, "
                     f"quarantined {counts['quarantined']}",),
            digest=manifest["content_sha256"])
    return BatchResult(manifest=manifest, outcomes=outcomes,
                       stats=run_stats)
