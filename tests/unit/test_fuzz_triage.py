"""Triage and shrinking: bucketing, bundle determinism, delta debugging.

These run entirely on synthetic specs and predicates — no pipeline
underneath — so the triage contract (one bucket per signature key,
digest-stable bundle names, schema'd atomic bundles) and the shrink
contract (same-signature-only acceptance, fixpoint minimization) are
pinned independently of what the fuzz campaign happens to find."""

import json

import pytest

from repro import observe
from repro.fuzz import (
    BUNDLE_SCHEMA,
    CodebaseSpec,
    FailureSignature,
    StepSpec,
    Triage,
    UnitSpec,
    get_profile,
    shrink_spec,
)


def _spec():
    return CodebaseSpec(
        seed=7, index=0, profile="small", extent=12,
        units=(
            UnitSpec("k1", (StepSpec("pointwise"),
                            StepSpec("indirect-write")),
                     ("common-block",)),
            UnitSpec("k2", (StepSpec("masked"),), ()),
        ))


SIG = FailureSignature("lint", "LintFinding", "race-shared-write")


class TestSignatures:
    def test_key_includes_rule_only_when_present(self):
        assert SIG.key == "lint:LintFinding:race-shared-write"
        assert FailureSignature("parse", "DiagnosticBundle").key == \
            "parse:DiagnosticBundle"

    def test_json_round_trip(self):
        assert FailureSignature.from_json(SIG.to_json()) == SIG

    def test_from_batch_failure_doc(self):
        doc = {"stage": "lint", "error": "LintFinding",
               "rule": "race-shared-write", "message": "k1:3: shared"}
        assert FailureSignature.from_failure(doc) == SIG
        assert FailureSignature.from_failure(
            {"stage": "parse", "error": "DiagnosticBundle",
             "message": "x"}).key == "parse:DiagnosticBundle"


class TestBuckets:
    def test_first_occurrence_is_new_then_duplicates_count(self, tmp_path):
        tri = Triage(tmp_path)
        with observe.observed() as obs:
            assert tri.bucket(SIG) is True
            assert tri.bucket(SIG) is False
            assert tri.bucket(FailureSignature("oracle",
                                               "OracleDivergence")) is True
        assert tri.buckets[SIG.key] == 2
        verdicts = [d.verdict for d in
                    obs.decisions.for_stage("fuzz:signature")]
        assert verdicts == ["new", "duplicate", "new"]


class TestQuarantine:
    def test_bundle_name_is_digest_stable_and_ignores_shrinking(
            self, tmp_path):
        tri = Triage(tmp_path)
        name = tri.bundle_name(SIG, _spec())
        assert name == tri.bundle_name(SIG, _spec())
        assert name.startswith("fuzz-") and name.endswith(".json")
        # a different fault plan identifies a different reproduction
        assert name != tri.bundle_name(
            SIG, _spec(), faults=("analysis.parallelize.verdict:misparallelize",))

    def test_bundle_document_shape(self, tmp_path):
        tri = Triage(tmp_path)
        failure = {"stage": "lint", "error": "LintFinding",
                   "rule": "race-shared-write",
                   "message": "shared write y", "unit": "k1"}
        src = "SUBROUTINE k1(n)\n! comment\n\nEND SUBROUTINE k1\n"
        path = tri.quarantine(SIG, failure, _spec(), get_profile("small"),
                              src, minimized_source=src, shrink_probes=3)
        doc = json.loads(path.read_text())
        assert doc["schema"] == BUNDLE_SCHEMA
        assert doc["signature"] == SIG.to_json()
        assert doc["failure"]["detail"] == "shared write y"
        # SLOC excludes the blank and the comment (Table-1 convention)
        assert doc["minimized"]["lines"] == 2
        assert doc["minimized"]["total_lines"] == 4
        assert doc["minimized"]["shrink_probes"] == 3
        assert tri.bundles[SIG.key] == path.name


class TestShrink:
    def test_minimizes_to_the_reproducing_kernel(self):
        probed = []

        def reproduces(spec):
            probed.append(spec)
            return any(s.kind == "indirect-write"
                       for u in spec.units for s in u.steps)

        res = shrink_spec(_spec(), reproduces)
        spec = res.spec
        assert len(spec.units) == 1
        assert [s.kind for s in spec.units[0].steps] == ["indirect-write"]
        assert spec.units[0].structures == ()
        assert spec.extent == 2            # bound-shrink floor
        assert res.probes == len(probed) > 0

    def test_raising_predicate_rejects_the_candidate(self):
        def reproduces(spec):
            if len(spec.units) < 2:
                raise RuntimeError("different failure")
            return True

        res = shrink_spec(_spec(), reproduces)
        assert len(res.spec.units) == 2    # every drop was rejected

    def test_probe_budget_is_respected(self):
        calls = []

        def reproduces(spec):
            calls.append(1)
            return True

        shrink_spec(_spec(), reproduces, max_probes=2)
        assert len(calls) == 2

    def test_never_shrinks_below_one_unit(self):
        res = shrink_spec(_spec(), lambda spec: True)
        assert len(res.spec.units) == 1
