"""The seeded corpus generator: deterministic, well-typed, exhaustive.

The generator is the foundation the whole ``repro fuzz`` campaign
stands on, so its contract is pinned hard: the same (seed, profile,
index) always draws the same spec, specs round-trip through JSON,
``build_program`` is a pure function of the spec, and a modest run of
the small profile exercises every step kind and every §3 integration
structure."""

import pytest

from repro.core.validate import validate_program
from repro.errors import ValidationError
from repro.fuzz import (
    PROFILES,
    STEP_KINDS,
    STRUCTURE_KINDS,
    CodebaseSpec,
    FuzzProfile,
    build_program,
    generate_codebase,
    generate_spec,
    get_profile,
)
from repro.optimize import make_plan
from repro.codegen import generate_fortran_module


class TestProfiles:
    def test_registry_has_small_and_full(self):
        assert set(PROFILES) == {"small", "full"}

    def test_get_profile_rejects_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown fuzz profile"):
            get_profile("huge")

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValidationError):
            FuzzProfile(name="bad", units=(3, 1))
        with pytest.raises(ValidationError):
            FuzzProfile(name="bad", extent=(0, 4))

    def test_small_is_bounded(self):
        small = get_profile("small")
        assert small.max_wall_seconds is not None


class TestSpecDrawing:
    def test_same_inputs_same_spec(self):
        a = generate_spec(7, "small", index=3)
        b = generate_spec(7, "small", index=3)
        assert a == b

    def test_index_and_seed_vary_the_draw(self):
        base = generate_spec(7, "small", index=0)
        assert base != generate_spec(7, "small", index=1)
        assert base != generate_spec(8, "small", index=0)

    def test_spec_respects_profile_bounds(self):
        prof = get_profile("small")
        for i in range(10):
            sp = generate_spec(11, "small", index=i)
            assert prof.extent[0] <= sp.extent <= prof.extent[1]
            assert prof.units[0] <= len(sp.units) <= prof.units[1]
            for u in sp.units:
                assert prof.steps[0] <= len(u.steps) <= prof.steps[1]
                assert all(s.kind in STEP_KINDS for s in u.steps)
                assert all(s in STRUCTURE_KINDS for s in u.structures)

    def test_json_round_trip(self):
        sp = generate_spec(7, "small", index=5)
        assert CodebaseSpec.from_json(sp.to_json()) == sp

    def test_small_profile_covers_every_kind_within_20_items(self):
        kinds, structs = set(), set()
        for i in range(20):
            sp = generate_spec(7, "small", index=i)
            for u in sp.units:
                kinds.update(s.kind for s in u.steps)
                structs.update(u.structures)
        assert kinds == set(STEP_KINDS)
        assert structs == set(STRUCTURE_KINDS)


class TestProgramRendering:
    def test_build_program_is_pure(self):
        sp = generate_spec(7, "small", index=2)
        text_a = generate_fortran_module(make_plan(build_program(sp)))
        text_b = generate_fortran_module(make_plan(build_program(sp)))
        assert text_a == text_b

    @pytest.mark.parametrize("index", range(6))
    def test_generated_programs_validate(self, index):
        cb = generate_codebase(7, "small", index=index)
        validate_program(cb.program)
        assert cb.sizes == {"n": cb.spec.extent}


class TestCrosscheck:
    """The fuzzer as a soundness oracle for the static bounds checker."""

    def test_static_claims_classify_a_literal_kernel(self):
        from repro.fuzz.oracle import _static_bounds_claims

        src = """\
subroutine k1(a)
  real(kind=8), intent(inout) :: a(10)
  integer :: i
  do i = 1, 10
    a(i) = a(i) + 1.0
  end do
end subroutine k1
"""
        claim = _static_bounds_claims(src)["k1"]
        assert claim.possible == 0 and claim.unknown == 0
        assert claim.proven > 0

    def test_run_item_crosscheck_refutes_nothing_on_clean_corpus(self):
        """The batch worker's fuzz checks, crosscheck on, on one item."""
        from repro.batch import WorkerConfig, ingest_corpus, run_item
        from repro.fuzz import FuzzChecks

        item = ingest_corpus(["fuzz:7:1"], fuzz_profile="small")[0]
        checks = FuzzChecks(get_profile("small"), crosscheck=True)
        arts = run_item(item, WorkerConfig(checks=checks))
        counts = arts["checks"]["counts"]
        assert counts["claims_refuted"] == 0
        assert counts["units_run"] == len(generate_spec(7, "small").units)
        assert not any(f["stage"] == "crosscheck"
                       for f in arts["checks"]["failures"])

    def test_item_result_claims_round_trip(self):
        """Claim counts survive a batch outcome's checkpoint round trip
        and are part of its digested core."""
        from repro.batch import ItemOutcome

        out = ItemOutcome(id="fuzz-7-0001", kind="fuzz", status="ok",
                          content_sha="0" * 64,
                          checks={"claims_proven": 3, "claims_refuted": 1})
        back = ItemOutcome.from_json(out.to_json())
        assert back.checks == {"claims_proven": 3, "claims_refuted": 1}
        assert back.core() == out.core()
        assert "checks" not in ItemOutcome(
            id="x", kind="fuzz", status="ok", content_sha="0").core()
