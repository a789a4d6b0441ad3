"""Crash-isolated parallel batch compilation (``repro batch``).

The robustness capstone over the whole pipeline: fan a corpus of GLAF
projects, legacy FORTRAN sources, and fuzz-generated programs through
parse→analyze→optimize→codegen→lint in isolated worker processes, with
per-item budgets, parent-side deadlines, seeded retry, content-addressed
artifact caching, sticky poison-item quarantine, per-item checkpoints
behind ``--resume``, and graceful degradation to serial execution.
Narrative documentation lives in ``docs/BATCH.md``.
"""

from .cache import CACHE_SCHEMA, ArtifactCache
from .corpus import POISON_KINDS, SOURCE_SUFFIXES, CorpusItem, ingest_corpus
from .driver import (
    DEFAULT_CACHE_DIR,
    DEFAULT_CHECKPOINT_DIR,
    DEFAULT_QUARANTINE_DIR,
    POISON_SCHEMA,
    BatchOptions,
    BatchResult,
    probe_item,
    quarantine_bundle_name,
    run_batch,
)
from .manifest import (
    MANIFEST_SCHEMA,
    ItemOutcome,
    build_manifest,
    load_manifest,
    write_manifest,
)
from .worker import (
    ARTIFACT_SCHEMA,
    POISON_CRASH_EXIT,
    POISON_OOM_EXIT,
    WorkerConfig,
    compile_item,
    run_item,
    worker_entry,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactCache",
    "BatchOptions",
    "BatchResult",
    "CACHE_SCHEMA",
    "CorpusItem",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_CHECKPOINT_DIR",
    "DEFAULT_QUARANTINE_DIR",
    "ItemOutcome",
    "MANIFEST_SCHEMA",
    "POISON_CRASH_EXIT",
    "POISON_KINDS",
    "POISON_OOM_EXIT",
    "POISON_SCHEMA",
    "SOURCE_SUFFIXES",
    "WorkerConfig",
    "build_manifest",
    "compile_item",
    "ingest_corpus",
    "load_manifest",
    "probe_item",
    "quarantine_bundle_name",
    "run_batch",
    "run_item",
    "worker_entry",
]
