"""The fuzz campaign: a batch run with the differential checks switched on.

:func:`run_campaign` ingests ``fuzz:SEED:COUNT`` under the profile's
variant and budgets and compiles it through :func:`repro.batch.run_batch`
— serial, no artifact cache, the fuzz checkpoint and quarantine
directories — with :class:`~repro.fuzz.oracle.FuzzChecks` as the item
checks, so every item gets the batch envelope (budgets, seeded retry,
checkpointed ``--resume``) and then the differential oracle.  The batch
outcomes' failure docs are bucketed by signature
(:class:`~repro.fuzz.triage.Triage`); the first item of each new
signature is delta-debug minimized, probing candidates with the batch
worker's in-process compile+check (:func:`repro.batch.probe_item`), and
quarantined as a reproducer bundle.  Profiled runs get ``fuzz:*``
decisions and metrics (docs/FUZZING.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..numeric import content_digest
from ..robust import FaultSpec
from .generate import CodebaseSpec
from .oracle import FuzzChecks
from .profile import FuzzProfile, get_profile
from .shrink import shrink_spec
from .triage import FailureSignature, Triage

__all__ = [
    "CampaignSummary", "run_campaign",
    "SUMMARY_SCHEMA", "DEFAULT_CHECKPOINT_DIR", "DEFAULT_QUARANTINE_DIR",
]

SUMMARY_SCHEMA = "repro.fuzz.campaign/v1"
DEFAULT_CHECKPOINT_DIR = ".repro_fuzz.ckpt"
DEFAULT_QUARANTINE_DIR = "fuzz_quarantine"


@dataclass
class CampaignSummary:
    """Machine-readable outcome of one fuzz campaign.

    ``outcomes`` are the batch's :class:`repro.batch.ItemOutcome`\\ s in
    item (index) order.
    """

    seed: int
    count: int
    profile: FuzzProfile
    outcomes: list = field(default_factory=list)
    quarantined: list[dict] = field(default_factory=list)
    buckets: dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.failures)

    @property
    def clean(self) -> int:
        return len(self.outcomes) - self.failed

    @property
    def resumed(self) -> int:
        return sum(1 for o in self.outcomes if o.resumed)

    def _total(self, count: str) -> int:
        return sum(o.checks.get(count, 0) for o in self.outcomes)

    def to_json(self) -> dict[str, object]:
        """Summary document — deliberately timing-free, so two runs of
        the same campaign are byte-identical and resume is digest-equal."""
        doc = {
            "schema": SUMMARY_SCHEMA,
            "seed": self.seed,
            "count": self.count,
            "profile": self.profile.to_json(),
            "stats": {
                "clean": self.clean,
                "failed": self.failed,
                "units_run": self._total("units_run"),
                "fallbacks": self._total("fallbacks"),
                "signatures": len(self.buckets),
                "claims_proven": self._total("claims_proven"),
                "claims_refuted": self._total("claims_refuted"),
            },
            "buckets": {k: self.buckets[k] for k in sorted(self.buckets)},
            "quarantined": self.quarantined,
            "items": [
                {"index": index,
                 "status": "failed" if o.failures else "clean",
                 "failures": [FailureSignature.from_failure(f).key
                              for f in o.failures]}
                for index, o in enumerate(self.outcomes)
            ],
        }
        doc["content_sha256"] = content_digest(doc)
        return doc


def run_campaign(
    seed: int,
    count: int,
    profile: FuzzProfile | str = "small",
    *,
    resume: bool = False,
    checkpoint_dir: str | None = None,
    quarantine_dir: str | None = None,
    faults: tuple[FaultSpec, ...] = (),
    fault_seed: int = 0,
    crosscheck: bool = False,
) -> CampaignSummary:
    """Run ``count`` seeded items with checkpointed resume and triage."""
    from ..batch import (
        BatchOptions,
        CorpusItem,
        ingest_corpus,
        probe_item,
        run_batch,
    )
    from ..observe import get_decisions, get_metrics, get_tracer

    prof = get_profile(profile) if isinstance(profile, str) else profile
    checks = FuzzChecks(prof, crosscheck=crosscheck, faults=tuple(faults),
                        fault_seed=fault_seed)
    options = BatchOptions(
        variant=prof.variant, fuzz_profile=prof.name,
        max_loop_iterations=prof.max_loop_iterations,
        max_wall_seconds=prof.max_wall_seconds,
        cache_dir=None,
        checkpoint_dir=str(checkpoint_dir or DEFAULT_CHECKPOINT_DIR),
        resume=resume,
        quarantine_dir=str(quarantine_dir or DEFAULT_QUARANTINE_DIR),
        checks=checks)
    # An empty campaign is clean (exit 0), though an empty batch is an error.
    items = (ingest_corpus([f"fuzz:{seed}:{count}"], fuzz_profile=prof)
             if count > 0 else [])
    tracer = get_tracer()
    with tracer.span("fuzz.batch", items=count):
        outcomes = run_batch(items, options).outcomes if items else []
    config = options.worker_config()
    triage = Triage(options.quarantine_dir)
    dl, m = get_decisions(), get_metrics()

    for index, (item, outcome) in enumerate(zip(items, outcomes)):
        if m.enabled:
            m.counter("fuzz.items").inc()
            if outcome.failures:
                m.counter("fuzz.items.failed").inc()
        if dl.enabled:
            dl.record("fuzz:item", "campaign", index, item.id,
                      "failed" if outcome.failures else "clean",
                      reasons=tuple(FailureSignature.from_failure(f).key
                                    for f in outcome.failures))
        for failure in outcome.failures:
            sig = FailureSignature.from_failure(failure)
            if not triage.bucket(sig):
                continue
            spec = CodebaseSpec.from_json(json.loads(item.content))
            bundle = triage.quarantine_dir / triage.bundle_name(
                sig, spec, checks.fault_keys)
            if bundle.exists():
                triage.bundles[sig.key] = bundle.name
                continue

            # First sighting of this signature: minimize and bundle.
            def probe(cand: CodebaseSpec, _id: str = item.id):
                return probe_item(CorpusItem(
                    id=_id, kind="fuzz",
                    content=json.dumps(cand.to_json(), sort_keys=True)),
                    config)

            def reproduces(cand: CodebaseSpec, _k: str = sig.key) -> bool:
                return any(FailureSignature.from_failure(f).key == _k
                           for f in probe(cand)[1])

            with tracer.span("fuzz.shrink", signature=sig.key):
                shrunk = shrink_spec(spec, reproduces)
                original, minimized = probe(spec)[0], probe(shrunk.spec)[0]
            triage.quarantine(
                sig, failure, spec, prof,
                original["code"] if original else "",
                faults=checks.fault_keys,
                minimized_spec=shrunk.spec,
                minimized_source=minimized["code"] if minimized else "",
                shrink_probes=shrunk.probes)
        if m.enabled:
            m.counter("fuzz.units").inc(outcome.checks.get("units_run", 0))

    summary = CampaignSummary(
        seed=seed, count=count, profile=prof, outcomes=outcomes,
        buckets=dict(triage.buckets),
        quarantined=[{"signature": k, "bundle": triage.bundles[k]}
                     for k in sorted(triage.bundles)])
    if dl.enabled:
        dl.record("fuzz:campaign", "campaign", count, f"seed-{seed}",
                  "failed" if summary.failed else "clean",
                  items=count, failed=summary.failed,
                  signatures=len(summary.buckets))
    return summary
