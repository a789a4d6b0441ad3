"""Failure triage: signatures, buckets, and quarantined reproducers.

Every failure doc a fuzz campaign's batch outcomes carry
(``stage``/``error``/``rule``, docs/BATCH.md) is reduced to a
:class:`FailureSignature` — ``stage × exception type × rule`` — and
bucketed by its deduplicated key.  The first time a signature appears in
a campaign it is quarantined: a digest-named reproducer bundle (spec +
seed + profile + generated source + diagnostics + the delta-debug
minimized spec/source) is written atomically via
:mod:`repro.numeric.integrity`, so a killed campaign never leaves a
truncated bundle and re-runs converge on byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..codegen import count_sloc
from ..numeric import atomic_write_json, content_digest
from .generate import CodebaseSpec
from .profile import FuzzProfile

__all__ = ["FailureSignature", "Triage", "BUNDLE_SCHEMA"]

BUNDLE_SCHEMA = "repro.fuzz.reproducer/v1"


@dataclass(frozen=True)
class FailureSignature:
    """The deduplication key of one pipeline failure."""

    stage: str          # build|analyze|codegen|parse|lint|execute|oracle|…
    exc_type: str       # exception class, or LintFinding/OracleDivergence
    rule: str = ""      # lint rule id / tolerance policy / refusal class

    @property
    def key(self) -> str:
        return (f"{self.stage}:{self.exc_type}:{self.rule}"
                if self.rule else f"{self.stage}:{self.exc_type}")

    def to_json(self) -> dict[str, str]:
        return {"stage": self.stage, "exc_type": self.exc_type,
                "rule": self.rule}

    @classmethod
    def from_json(cls, doc: dict) -> "FailureSignature":
        return cls(stage=doc["stage"], exc_type=doc["exc_type"],
                   rule=doc.get("rule", ""))

    @classmethod
    def from_failure(cls, doc: dict) -> "FailureSignature":
        """The signature of one batch failure doc."""
        return cls(stage=doc["stage"], exc_type=doc["error"],
                   rule=doc.get("rule", ""))


@dataclass
class Triage:
    """Campaign-wide signature buckets plus the quarantine directory."""

    quarantine_dir: Path
    buckets: dict[str, int] = field(default_factory=dict)
    bundles: dict[str, str] = field(default_factory=dict)  # key -> filename

    def __post_init__(self) -> None:
        self.quarantine_dir = Path(self.quarantine_dir)

    def bucket(self, sig: FailureSignature) -> bool:
        """Count ``sig``; True the first time its key is seen."""
        new = sig.key not in self.buckets
        self.buckets[sig.key] = self.buckets.get(sig.key, 0) + 1
        from ..observe import get_decisions

        dl = get_decisions()
        if dl.enabled:
            dl.record("fuzz:signature", "campaign", 0, sig.key,
                      "new" if new else "duplicate")
        return new

    def bundle_name(self, sig: FailureSignature, spec: CodebaseSpec,
                    faults: tuple[str, ...] = ()) -> str:
        """Deterministic bundle filename for this (signature, reproducer).

        The digest covers the signature, the *original* failing spec, and
        any injected fault plan — everything that identifies the
        reproduction — so interrupted and resumed campaigns converge on
        the same file name before any shrinking has run.
        """
        digest = content_digest({
            "schema": BUNDLE_SCHEMA,
            "signature": sig.to_json(),
            "spec": spec.to_json(),
            "faults": list(faults),
        })
        return f"fuzz-{digest[:12]}.json"

    def quarantine(
        self,
        sig: FailureSignature,
        failure: dict,
        spec: CodebaseSpec,
        profile: FuzzProfile,
        source: str,
        *,
        faults: tuple[str, ...] = (),
        minimized_spec: CodebaseSpec | None = None,
        minimized_source: str = "",
        shrink_probes: int = 0,
    ) -> Path:
        """Write the reproducer bundle atomically; returns its path.

        ``failure`` is the batch failure doc that carried ``sig``.
        """
        name = self.bundle_name(sig, spec, faults)
        path = self.quarantine_dir / name
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        min_spec = minimized_spec or spec
        min_source = minimized_source or source
        doc = {
            "schema": BUNDLE_SCHEMA,
            "signature": sig.to_json(),
            "seed": spec.seed,
            "index": spec.index,
            "profile": profile.to_json(),
            "faults": list(faults),
            "failure": {
                "signature": sig.to_json(),
                "detail": failure.get("message", ""),
                "unit": failure.get("unit", ""),
                "diagnostics": list(failure.get("diagnostics", ())),
            },
            "spec": spec.to_json(),
            "source": source,
            "minimized": {
                "spec": min_spec.to_json(),
                "source": min_source,
                # Paper Table-1 convention: blanks and comments excluded,
                # !$OMP directives counted (codegen.count_sloc).
                "lines": count_sloc(min_source),
                "total_lines": len(min_source.splitlines()),
                "shrink_probes": shrink_probes,
            },
        }
        atomic_write_json(path, doc)
        self.bundles[sig.key] = name
        from ..observe import get_decisions, get_metrics

        m = get_metrics()
        if m.enabled:
            m.counter("fuzz.quarantined").inc()
        dl = get_decisions()
        if dl.enabled:
            dl.record("fuzz:quarantine", "campaign", spec.index, sig.key,
                      "written", reasons=(failure.get("message", ""),),
                      bundle=name)
        return path
