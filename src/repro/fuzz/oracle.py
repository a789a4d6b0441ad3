"""The fuzz item checks: the differential oracle the batch worker runs.

``repro fuzz`` compiles its corpus through :func:`repro.batch.run_batch`
with a :class:`FuzzChecks` as the item checks.  The worker compiles a
``fuzz`` item under :meth:`FuzzChecks.armed` (its fault plan plus the
numeric sentinels), then :meth:`FuzzChecks.run` executes every kernel
under the interpreter and the vectorized executor on identically seeded
inputs and compares all grids under the profile's tolerance policy.
With ``crosscheck``, a runtime out-of-bounds trip in a unit the static
bounds checker proved in-bounds refutes that proof.  Failures are batch
failure docs; counts ride in the artifacts (docs/FUZZING.md).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ContextManager

import numpy as np

from ..errors import GlafError, NumericIntegrityError, ResourceLimitError
from ..robust import FaultSpec
from ..runconfig import RunConfig, run_config
from .generate import CodebaseSpec
from .profile import FuzzProfile

__all__ = ["FuzzChecks"]


@dataclass(frozen=True)
class FuzzChecks:
    """What a ``fuzz`` item checks after lint; pickle-safe for workers."""

    profile: FuzzProfile
    crosscheck: bool = False
    faults: tuple[FaultSpec, ...] = ()
    fault_seed: int = 0

    @property
    def fault_keys(self) -> tuple[str, ...]:
        return tuple(f"{f.site}:{f.kind}" for f in self.faults)

    def to_json(self) -> dict[str, object]:
        """The checks' share of the batch pipeline options."""
        return {"oracle": self.profile.to_json(),
                "crosscheck": self.crosscheck,
                "faults": [asdict(f) for f in self.faults],
                "fault_seed": self.fault_seed}

    def armed(self) -> ContextManager[RunConfig]:
        """A fresh seeded fault plan plus the numeric sentinels, for one
        item — so one-shot faults fire identically on every
        reproduction."""
        from ..numeric import SentinelConfig
        from ..robust import FaultPlan

        changes: dict = {"sentinels": SentinelConfig()}
        if self.faults:
            changes["faults"] = FaultPlan(list(self.faults),
                                          seed=self.fault_seed)
        return run_config(**changes)

    def run(self, program, spec: CodebaseSpec, source: str) -> dict:
        """Differentially execute every unit of one compiled item."""
        failures: list[dict] = []
        counts = dict.fromkeys(("units_run", "fallbacks", "claims_proven",
                                "claims_refuted"), 0)
        claims: dict[str, object] = {}
        if self.crosscheck:
            try:
                claims = _static_bounds_claims(source)
            except GlafError as e:
                failures.append({"stage": "crosscheck",
                                 "error": type(e).__name__,
                                 "message": str(e)})
        for unit in spec.units:
            unit_failures, fallbacks = _execute_unit(program, spec, unit,
                                                     self.profile)
            failures.extend(unit_failures)
            counts["fallbacks"] += fallbacks
            counts["units_run"] += 1
            claim = claims.get(unit.name.lower())
            if (claim is not None and claim.possible == 0
                    and claim.unknown == 0 and claim.proven > 0):
                counts["claims_proven"] += 1
                for f in unit_failures:
                    if (f["stage"] == "execute"
                            and "out of bounds" in f["message"]):
                        counts["claims_refuted"] += 1
                        failures.append(_failure(
                            "crosscheck", "UnsoundBoundsProof", "bounds",
                            f"{unit.name}: every subscript was statically "
                            "proven in-bounds, yet the runtime tripped: "
                            f"{f['message']}", unit.name))
        return {"counts": counts, "failures": failures}


def _failure(stage: str, error: str, rule: str, message: str,
             unit: str) -> dict:
    return {"stage": stage, "error": error, "rule": rule,
            "message": message, "unit": unit}


def _unit_args(spec: CodebaseSpec, unit) -> list:
    """Seeded inputs for one kernel: same (seed, index, unit) ⇒ same data.

    The unit's ordinal comes from its name (``k3`` → 3), so inputs are
    stable while the shrinker drops sibling units around it.
    """
    ordinal = int(unit.name.lstrip("k") or 0)
    rng = np.random.default_rng(
        np.random.SeedSequence((spec.seed, spec.index, ordinal)))
    n = spec.extent
    args = [n, rng.standard_normal(n), np.zeros(n)]
    if unit.needs_idx:
        args.append(rng.permutation(n).astype(np.int64) + 1)
    return args


def _execute_unit(program, spec: CodebaseSpec, unit,
                  profile: FuzzProfile) -> tuple[list[dict], int]:
    """Differentially execute one kernel; returns (failures, fallbacks)."""
    from ..glafexec import get_executor
    from ..numeric import RetryPolicy, get_policy, retry_call
    from ..robust.watchdog import ResourceLimits

    limits = ResourceLimits(
        max_loop_iterations=profile.max_loop_iterations,
        max_wall_seconds=profile.max_wall_seconds)
    policy = RetryPolicy(retries=profile.retries,
                         seed=spec.seed * 1000 + spec.index)
    sizes = {"n": spec.extent}
    runs = {}
    for engine in ("interpreter", "vectorized"):
        args = _unit_args(spec, unit)

        def attempt(engine=engine, args=args):
            # Fresh output storage per attempt, so a retried run never
            # accumulates on top of a half-written previous one.
            retry_args = [a.copy() if isinstance(a, np.ndarray) else a
                          for a in args]
            run = get_executor(engine, limits=limits).run(
                program, unit.name, retry_args, sizes=sizes)
            return run, retry_args

        try:
            runs[engine] = retry_call(
                attempt, policy=policy, limits=limits,
                what=f"fuzz:{unit.name}:{engine}")
        except (ResourceLimitError, NumericIntegrityError, GlafError) as e:
            return [_failure("execute", type(e).__name__, engine,
                             f"{unit.name} under {engine}: {e}",
                             unit.name)], 0

    (ref_run, ref_args) = runs["interpreter"]
    (vec_run, vec_args) = runs["vectorized"]
    failures: list[dict] = []
    tol = get_policy(profile.policy, profile.tolerance)
    pairs = [("y", ref_args[2], vec_args[2])]
    ref_snap = ref_run.context.snapshot()
    for name in sorted(ref_snap):
        got = vec_run.context.get(name)
        if got.size == 0 and ref_snap[name].size == 0:
            continue
        pairs.append((name, got, ref_snap[name]))
    for name, got, want in pairs:
        cmp = tol.compare(got, want)
        if not cmp.ok:
            failures.append(_failure(
                "oracle", "OracleDivergence", profile.policy,
                f"{unit.name}: grid {name!r} diverges between interpreter "
                f"and vectorized ({cmp.detail})", unit.name))
    return failures, len(vec_run.fallbacks)


def _static_bounds_claims(source: str) -> dict[str, object]:
    """Per-unit range summaries of the generated source (lowercase keys).

    A unit whose every subscript is *proven* in-bounds (``possible == 0``
    and ``unknown == 0`` with at least one classified subscript) carries a
    refutable static claim: any runtime out-of-bounds trip in that unit
    means the bounds proof was unsound.
    """
    from ..fortranlib.parser import parse_source
    from ..lint.dataflow import analyze_batch_ranges

    parsed = {"<fuzz>": parse_source(source)}
    return {ur.unit.lower(): ur.summary
            for ur in analyze_batch_ranges(parsed)}
