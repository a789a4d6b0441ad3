"""Corpus ingestion for ``repro batch``: files, directories, specs.

A corpus is an ordered list of :class:`CorpusItem` values, each carrying
its payload *by value* (project JSON, legacy FORTRAN text, a fuzz spec,
or a poison directive), so items pickle cleanly into worker processes
and their content digests are stable no matter where the batch runs.

Four item kinds:

``project``
    A saved GLAF project (``*.json``): validated, planned, generated,
    re-parsed, and linted — the full paper pipeline.
``source``
    A legacy FORTRAN file (``*.f``, ``*.f90``, ``*.f77``, ``*.for``):
    parsed with recovery, range-analyzed, and linted.
``fuzz``
    One :class:`repro.fuzz.CodebaseSpec` drawn from a ``fuzz:SEED:COUNT``
    input — the seeded generator as an infinite corpus faucet.
``poison``
    A synthetic fault directive from ``poison:KIND[:N]`` (``crash``,
    ``hang``, or ``oom``), used to prove the crash-isolation envelope:
    the item kills/stalls/overallocates its worker on purpose and must
    end up quarantined, never taking the batch down (docs/BATCH.md).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import BatchError

if TYPE_CHECKING:
    from ..fuzz import FuzzProfile

__all__ = ["CorpusItem", "ingest_corpus", "SOURCE_SUFFIXES",
           "POISON_KINDS"]

#: Legacy FORTRAN file suffixes picked up from files and directories.
SOURCE_SUFFIXES = (".f", ".f90", ".f77", ".for")

#: Fault directives ``poison:KIND[:N]`` understands.
POISON_KINDS = ("crash", "hang", "oom")

_ID_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


@dataclass(frozen=True)
class CorpusItem:
    """One unit of batch work, self-contained and pickle-safe."""

    id: str                  # unique, filename-safe (checkpoint key)
    kind: str                # project | source | fuzz | poison
    content: str             # JSON text / FORTRAN text / poison kind
    origin: str = ""         # provenance (path or spec), display only

    @property
    def content_sha(self) -> str:
        return hashlib.sha256(self.content.encode("utf-8")).hexdigest()


def _safe_id(text: str) -> str:
    safe = _ID_SAFE.sub("-", text).strip("-.")
    return safe or "item"


def _unique(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    n = 2
    while f"{base}-{n}" in taken:
        n += 1
    return f"{base}-{n}"


def _from_file(path: Path, taken: set[str]) -> CorpusItem:
    suffix = path.suffix.lower()
    if suffix == ".json":
        kind = "project"
    elif suffix in SOURCE_SUFFIXES:
        kind = "source"
    else:
        raise BatchError(
            f"{path}: unsupported corpus file type {suffix!r} (want .json "
            f"for projects or {'/'.join(SOURCE_SUFFIXES)} for legacy "
            "FORTRAN)")
    try:
        content = path.read_text(encoding="utf-8")
    except OSError as e:
        raise BatchError(f"{path}: unreadable corpus file ({e})") from e
    item_id = _unique(_safe_id(path.name), taken)
    return CorpusItem(id=item_id, kind=kind, content=content,
                      origin=str(path))


def _from_dir(path: Path, taken: set[str]) -> list[CorpusItem]:
    wanted = (".json",) + SOURCE_SUFFIXES
    found = sorted(p for p in path.rglob("*")
                   if p.is_file() and p.suffix.lower() in wanted)
    if not found:
        raise BatchError(
            f"{path}: directory holds no corpus files "
            f"({'/'.join(wanted)})")
    items = []
    for p in found:
        item = _from_file(p, taken)
        taken.add(item.id)
        items.append(item)
    return items


def _from_fuzz_spec(spec: str, profile: str | FuzzProfile, taken: set[str]
                    ) -> list[CorpusItem]:
    from ..fuzz import generate_spec

    parts = spec.split(":")
    if len(parts) != 3:
        raise BatchError(
            f"bad fuzz corpus spec {spec!r} (want fuzz:SEED:COUNT)")
    try:
        seed, count = int(parts[1]), int(parts[2])
    except ValueError as e:
        raise BatchError(
            f"bad fuzz corpus spec {spec!r}: SEED and COUNT must be "
            "integers") from e
    if count <= 0:
        raise BatchError(f"bad fuzz corpus spec {spec!r}: COUNT must be "
                         "positive")
    items = []
    for i in range(count):
        cs = generate_spec(seed, profile, i)
        item_id = _unique(f"fuzz-{seed}-{i:04d}", taken)
        taken.add(item_id)
        items.append(CorpusItem(
            id=item_id, kind="fuzz",
            content=json.dumps(cs.to_json(), sort_keys=True),
            origin=spec))
    return items


def _from_poison_spec(spec: str, taken: set[str]) -> list[CorpusItem]:
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise BatchError(
            f"bad poison spec {spec!r} (want poison:KIND[:N], KIND one of "
            f"{', '.join(POISON_KINDS)})")
    kind = parts[1]
    if kind not in POISON_KINDS:
        raise BatchError(
            f"bad poison spec {spec!r}: unknown kind {kind!r} (want one "
            f"of {', '.join(POISON_KINDS)})")
    try:
        count = int(parts[2]) if len(parts) == 3 else 1
    except ValueError as e:
        raise BatchError(f"bad poison spec {spec!r}: N must be an "
                         "integer") from e
    if count <= 0:
        raise BatchError(f"bad poison spec {spec!r}: N must be positive")
    items = []
    for i in range(count):
        item_id = _unique(f"poison-{kind}-{i}", taken)
        taken.add(item_id)
        items.append(CorpusItem(id=item_id, kind="poison", content=kind,
                                origin=spec))
    return items


def ingest_corpus(inputs: list[str] | tuple[str, ...], *,
                  fuzz_profile: str | FuzzProfile = "small"
                  ) -> list[CorpusItem]:
    """Resolve CLI inputs into a deterministic, de-duplicated corpus.

    Each input is a project/FORTRAN file, a directory of them (recursed
    in sorted order), a ``fuzz:SEED:COUNT`` generator spec, or a
    ``poison:KIND[:N]`` fault directive.  Item ids are filename-safe
    (checkpoint keys) and unique across the whole corpus; input order is
    preserved so two invocations with the same arguments produce the
    same corpus, in the same order, byte for byte.  ``fuzz_profile`` is
    a registered profile name or a :class:`repro.fuzz.FuzzProfile`.
    """
    if not inputs:
        raise BatchError("empty corpus: give files, directories, "
                         "fuzz:SEED:COUNT, or poison:KIND[:N] inputs")
    items: list[CorpusItem] = []
    taken: set[str] = set()
    for raw in inputs:
        if raw.startswith("fuzz:"):
            items.extend(_from_fuzz_spec(raw, fuzz_profile, taken))
            continue
        if raw.startswith("poison:"):
            items.extend(_from_poison_spec(raw, taken))
            continue
        path = Path(raw)
        if path.is_dir():
            items.extend(_from_dir(path, taken))
        elif path.is_file():
            item = _from_file(path, taken)
            taken.add(item.id)
            items.append(item)
        else:
            raise BatchError(
                f"{raw}: not a corpus file, directory, fuzz:SEED:COUNT "
                "spec, or poison:KIND[:N] directive")
    return items
