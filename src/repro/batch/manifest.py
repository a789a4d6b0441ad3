"""Aggregate batch manifest: the digest-stable record of one campaign.

One :class:`ItemOutcome` per corpus item, one ``repro.batch.manifest/v1``
document per batch.  The manifest's ``content_sha256`` covers only the
*semantic* core — pipeline options plus the per-item outcome cores,
sorted by item id — and deliberately excludes anything an interruption
can perturb: wall seconds, cache hit/miss status, resume counts, and
per-item attempt counts all live in the un-digested ``run`` section.
That exclusion is the resume contract: a batch SIGKILLed mid-campaign
and finished with ``--resume`` produces a manifest whose digest equals
an uninterrupted run's (``scripts/resume_smoke.py`` enforces it against
the real CLI), and a serial (``--jobs 1``) run digests identically to a
parallel one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import BatchError
from ..numeric.integrity import atomic_write_json, content_digest

__all__ = ["MANIFEST_SCHEMA", "ItemOutcome", "build_manifest",
           "write_manifest", "load_manifest"]

MANIFEST_SCHEMA = "repro.batch.manifest/v1"

_STATUSES = ("ok", "failed", "quarantined")


@dataclass
class ItemOutcome:
    """The terminal state of one corpus item.

    ``ok``: compiled, artifacts digested; findings-free.
    ``failed``: the pipeline produced a typed verdict (lint findings,
    a DiagnosticBundle, a budget trip) — deterministic, not retried into
    quarantine.
    ``quarantined``: the item killed its worker on every attempt and a
    digest-named poison bundle was written.
    """

    id: str
    kind: str
    status: str
    content_sha: str
    artifact_sha: str = ""
    failures: list[dict] = field(default_factory=list)
    deaths: list[dict] = field(default_factory=list)
    bundle: str = ""
    attempts: int = 1
    cached: bool = False
    resumed: bool = False
    checks: dict = field(default_factory=dict)  # item-check counts

    def core(self) -> dict:
        """The digested projection: everything an interruption, a cache
        hit, or a retry count cannot change.  ``checks`` appears only
        when the item ran checks, so plain batch digests ignore it."""
        doc = {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "content_sha": self.content_sha,
            "artifact_sha": self.artifact_sha,
            "failures": list(self.failures),
            "deaths": list(self.deaths),
            "bundle": self.bundle,
        }
        if self.checks:
            doc["checks"] = dict(self.checks)
        return doc

    def to_json(self) -> dict:
        doc = self.core()
        doc.update({"attempts": self.attempts, "cached": self.cached,
                    "resumed": self.resumed})
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "ItemOutcome":
        if doc.get("status") not in _STATUSES:
            raise BatchError(
                f"bad item outcome status {doc.get('status')!r} "
                f"(want one of {', '.join(_STATUSES)})")
        return cls(
            id=doc["id"], kind=doc["kind"], status=doc["status"],
            content_sha=doc["content_sha"],
            artifact_sha=doc.get("artifact_sha", ""),
            failures=list(doc.get("failures", ())),
            deaths=list(doc.get("deaths", ())),
            bundle=doc.get("bundle", ""),
            attempts=int(doc.get("attempts", 1)),
            cached=bool(doc.get("cached", False)),
            resumed=bool(doc.get("resumed", False)),
            checks=dict(doc.get("checks", {})),
        )


def build_manifest(outcomes: list[ItemOutcome], options: dict,
                   run: dict | None = None) -> dict:
    """Assemble and digest-stamp the aggregate manifest.

    ``options`` is the pipeline-options document (the same one the cache
    keys on, plus the retry/timeout envelope); ``run`` is free-form
    un-digested run telemetry (wall seconds, jobs, cache stats, resumed
    counts).
    """
    core = {
        "schema": MANIFEST_SCHEMA,
        "options": dict(options),
        "items": [o.core() for o in sorted(outcomes, key=lambda o: o.id)],
    }
    doc = dict(core)
    doc["content_sha256"] = content_digest(core)
    doc["run"] = dict(run or {})
    # The full (non-core) outcome views ride along for triage, outside
    # the digest so cached/resumed flags never perturb it.
    doc["run"]["items"] = {
        o.id: {"attempts": o.attempts, "cached": o.cached,
               "resumed": o.resumed}
        for o in sorted(outcomes, key=lambda o: o.id)
    }
    return doc


def write_manifest(path: str | Path, doc: dict) -> Path:
    return atomic_write_json(path, doc)


def load_manifest(path: str | Path) -> dict:
    """Read and digest-verify a manifest; typed error on any corruption."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise BatchError(f"{path}: unreadable batch manifest ({e})") from e
    if not isinstance(doc, dict) or doc.get("schema") != MANIFEST_SCHEMA:
        raise BatchError(
            f"{path}: expected manifest schema {MANIFEST_SCHEMA!r}, found "
            f"{doc.get('schema') if isinstance(doc, dict) else doc!r}")
    core = {k: doc.get(k) for k in ("schema", "options", "items")}
    if doc.get("content_sha256") != content_digest(core):
        raise BatchError(
            f"{path}: manifest digest mismatch — file corrupted or "
            "hand-edited")
    return doc
