"""The ``repro faultcheck`` sweep: fire every registered fault, verify the
pipeline degrades the way ``docs/ROBUSTNESS.md`` promises.

For each :data:`repro.robust.faults.SITES` entry the sweep installs a
seeded one-fault :class:`FaultPlan`, runs a representative workload, and
classifies the outcome:

* **recovered** — the recovery machinery engaged (parser resynchronization,
  guard serial-fallback, generated-Python fallback) *and* the final results
  match the fault-free reference;
* **surfaced** — the fault could not be recovered but was reported as a
  typed :class:`repro.errors.GlafError` (e.g. the watchdog's
  :class:`ResourceLimitError`);
* **failed** — a raw (non-GlafError) exception escaped, the fault never
  fired, or results were silently corrupted.

``repro faultcheck`` exits non-zero iff any site **failed**.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import (
    DiagnosticBundle,
    ExecutionError,
    GlafError,
    NumericIntegrityError,
    ResourceLimitError,
)
from ..numeric import snapshot_max_abs_error
from ..runconfig import run_config
from .faults import SITES, FaultPlan, FaultSpec
from .watchdog import ResourceLimits

__all__ = ["SiteResult", "FaultCheckReport", "run_faultcheck"]

_TOLERANCE = 1e-9

# Two healthy units; the corrupt-token fault turns one token into garbage.
_LEX_CHECK_SOURCE = """\
subroutine scale_it(a, n)
  integer, intent(in) :: n
  real(kind=8), intent(inout) :: a(n)
  integer :: i
  do i = 1, n
    a(i) = a(i) * 2.0
  end do
end subroutine scale_it

subroutine shift_it(b, n)
  integer, intent(in) :: n
  real(kind=8), intent(inout) :: b(n)
  integer :: i
  do i = 1, n
    b(i) = b(i) + 1.0
  end do
end subroutine shift_it
"""


@dataclass(frozen=True)
class SiteResult:
    """Outcome of exercising one injection site."""

    site: str
    kind: str
    outcome: str          # 'recovered' | 'surfaced' | 'failed'
    detail: str
    fired: int            # faults that actually fired
    events: int           # recovery events observed (guard demotions, diags)

    @property
    def ok(self) -> bool:
        return self.outcome in ("recovered", "surfaced")


@dataclass
class FaultCheckReport:
    seed: int
    results: list[SiteResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json(self) -> dict:
        return {
            "schema": "repro.robust.faultcheck/v1",
            "seed": self.seed,
            "ok": self.ok,
            "sites": [
                {"site": r.site, "kind": r.kind, "outcome": r.outcome,
                 "detail": r.detail, "fired": r.fired, "events": r.events}
                for r in self.results
            ],
        }

    def render(self) -> str:
        lines = [f"faultcheck (seed={self.seed}): "
                 f"{len(self.results)} site(s) swept"]
        width = max(len(r.site) for r in self.results)
        for r in self.results:
            lines.append(
                f"  {r.site:<{width}}  {r.kind:<15}  {r.outcome:<9}  {r.detail}"
            )
        lines.append("result: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


def _max_abs_err(got: dict[str, np.ndarray], ref: dict[str, np.ndarray]) -> float:
    # NaN/Inf-aware (returns inf on a special-value mismatch): a silently
    # NaN-corrupted run must never compare equal to the reference.
    return snapshot_max_abs_error(got, ref)


def _check_lexer(seed: int) -> SiteResult:
    from ..fortranlib.parser import parse_source

    site, kind = "fortran.lex.tokens", "corrupt-token"
    plan = FaultPlan([FaultSpec(site, kind)], seed=seed)
    try:
        with run_config(faults=plan):
            parse_source(_LEX_CHECK_SOURCE, recover=True)
        # The recovering parser skipped the corruption entirely — only
        # acceptable if the fault genuinely fired and produced no error
        # (it cannot: '?' is not parsable), so treat as failed.
        return SiteResult(site, kind, "failed",
                          "corrupted source parsed without diagnostics",
                          len(plan.fired), 0)
    except DiagnosticBundle as bundle:
        partial = bundle.partial
        units = (len(partial.subprograms) + len(partial.modules)
                 + len(partial.programs)) if partial is not None else 0
        if units >= 1:
            return SiteResult(
                site, kind, "recovered",
                f"parser resynchronized: {len(bundle.diagnostics)} diagnostic(s), "
                f"{units} unit(s) still parsed", len(plan.fired),
                len(bundle.diagnostics))
        return SiteResult(site, kind, "surfaced",
                          f"typed DiagnosticBundle, no units salvaged: {bundle}",
                          len(plan.fired), len(bundle.diagnostics))
    except GlafError as e:
        return SiteResult(site, kind, "surfaced",
                          f"typed {type(e).__name__}: {e}", len(plan.fired), 0)


def _check_guarded(site: str, kind: str, spec: FaultSpec, seed: int) -> SiteResult:
    """Shared harness: SARB under the guarded executor must demote and
    still match."""
    from ..observe import observed
    from .scenarios import scenario_for

    scenario = scenario_for("sarb")
    ref = scenario.reference()
    plan = FaultPlan([spec], seed=seed)
    with observed(), run_config(faults=plan):
        run = scenario.run_executor("guarded")
    if not plan.fired:
        return SiteResult(site, kind, "failed", "fault never fired", 0, 0)
    if not run.events:
        return SiteResult(site, kind, "failed",
                          "fault fired but the guard recorded no fallback",
                          len(plan.fired), 0)
    _, _, _, _, compare = scenario.setup()
    err = _max_abs_err(run.context.snapshot(list(compare)), ref)
    if err > _TOLERANCE:
        return SiteResult(site, kind, "failed",
                          f"fallback taken but outputs diverge ({err:.3e})",
                          len(plan.fired), len(run.events))
    demoted = ", ".join(f"{f}/{i}" for f, i in sorted(run.demoted))
    return SiteResult(
        site, kind, "recovered",
        f"serial fallback on {demoted}; outputs match reference "
        f"(max abs err {err:.1e})", len(plan.fired), len(run.events))


def _check_codegen(seed: int) -> SiteResult:
    from ..glafexec import guarded_python_run
    from ..observe import observed
    from .scenarios import scenario_for

    site, kind = "codegen.python.assign", "perturb"
    scenario = scenario_for("sarb")
    program, args, sizes, values, compare = scenario.setup()
    ref = scenario.reference()
    plan = FaultPlan(
        [FaultSpec(site, kind, match={"function": "shortwave_entropy_model"})],
        seed=seed)
    with observed(), run_config(faults=plan):
        result = guarded_python_run(
            program, scenario.entry, args, sizes=sizes, values=values,
            compare=list(compare))
    if not plan.fired:
        return SiteResult(site, kind, "failed", "fault never fired", 0, 0)
    if not result.fell_back:
        return SiteResult(site, kind, "failed",
                          "perturbed generated Python was not detected",
                          len(plan.fired), 0)
    err = _max_abs_err(result.context.snapshot(list(compare)), ref)
    if err > _TOLERANCE:
        return SiteResult(site, kind, "failed",
                          f"fallback taken but outputs diverge ({err:.3e})",
                          len(plan.fired), 1)
    return SiteResult(site, kind, "recovered",
                      f"fell back to interpreter: {result.reason}",
                      len(plan.fired), 1)


def _check_watchdog(seed: int) -> SiteResult:
    from ..glafexec import get_executor
    from .scenarios import scenario_for

    site, kind = "exec.interp.iter", "delay"
    scenario = scenario_for("sarb")
    program, args, sizes, values, _ = scenario.setup()
    plan = FaultPlan(
        [FaultSpec(site, kind, param=0.25, max_fires=10**6)], seed=seed)
    limits = ResourceLimits(max_wall_seconds=0.05)
    try:
        with run_config(faults=plan):
            get_executor("interpreter", limits=limits).run(
                program, scenario.entry, args, sizes=sizes, values=values)
        return SiteResult(site, kind, "failed",
                          "stalled run finished under its wall-clock limit",
                          len(plan.fired), 0)
    except ResourceLimitError as e:
        return SiteResult(site, kind, "surfaced",
                          f"watchdog raised ResourceLimitError: {e}",
                          len(plan.fired), 1)


def _check_lint_mutant(site: str, mutant_id: str, seed: int) -> SiteResult:
    """One representative mutant per codegen site; the linter must catch it.

    The full mutant corpus runs under ``repro lint --selftest`` (and in
    CI); the sweep runs a single cheap mutant per site so every registered
    site has a scenario here too.
    """
    from ..lint.mutation import MUTANTS, run_mutant

    mutant = next(m for m in MUTANTS if m.id == mutant_id)
    result, report = run_mutant(mutant, seed=seed)
    if not result.fired:
        return SiteResult(site, mutant.kind, "failed", "fault never fired", 0, 0)
    if not result.caught:
        return SiteResult(site, mutant.kind, "failed",
                          f"linter missed the mutant ({result.fault_detail})",
                          1, 0)
    return SiteResult(
        site, mutant.kind, "recovered",
        f"linter caught '{result.fault_detail}' via {', '.join(result.rules)}",
        1, len(report.findings))


def _check_sentinel(seed: int) -> SiteResult:
    """Two-part scenario for ``numeric.sentinel``:

    1. an injected NaN assignment must trip an active sentinel — typed
       :class:`NumericIntegrityError` naming the kind, plus a
       ``numeric:nan`` DecisionLog event;
    2. a benchmark sweep that crashes mid-run must *resume* from its
       checkpoints and produce an ``experiments`` section content-digest
       identical to an uninterrupted sweep (the resumability the sentinel
       trip relies on: detect, fix, re-run only what's missing).
    """
    import tempfile
    from pathlib import Path

    from ..bench.harness import Experiment, ExperimentResult
    from ..bench.record import record_benchmark
    from ..glafexec import get_executor
    from ..numeric import CheckpointStore, SentinelConfig, content_digest
    from ..observe import observed
    from .scenarios import scenario_for

    site, kind = "numeric.sentinel", "nan"

    # -- part 1: the trip ------------------------------------------------
    scenario = scenario_for("sarb")
    program, args, sizes, values, _ = scenario.setup()
    plan = FaultPlan([FaultSpec(site, kind)], seed=seed)
    trip: NumericIntegrityError | None = None
    armed = run_config(faults=plan, sentinels=SentinelConfig())
    with observed() as obs, armed:
        try:
            get_executor("interpreter").run(
                program, scenario.entry, args, sizes=sizes, values=values)
        except NumericIntegrityError as e:
            trip = e
    if not plan.fired:
        return SiteResult(site, kind, "failed", "fault never fired", 0, 0)
    if trip is None:
        return SiteResult(site, kind, "failed",
                          "injected NaN was assigned but no sentinel tripped "
                          "(the silent-NaN hole is open)", len(plan.fired), 0)
    if trip.kind != "nan":
        return SiteResult(site, kind, "failed",
                          f"sentinel tripped with kind {trip.kind!r}, "
                          "expected 'nan'", len(plan.fired), 0)
    decisions = obs.decisions.for_stage("numeric:nan")
    if not decisions:
        return SiteResult(site, kind, "failed",
                          "sentinel tripped but recorded no numeric:nan "
                          "DecisionLog event", len(plan.fired), 0)

    # -- part 2: crash-and-resume ---------------------------------------
    def registry(crash_on_call: int | None) -> dict[str, Experiment]:
        calls = {"n": 0}

        def run() -> ExperimentResult:
            calls["n"] += 1
            if crash_on_call is not None and calls["n"] == crash_on_call:
                raise ExecutionError("simulated mid-sweep crash")
            return ExperimentResult(
                experiment_id="SYN", title="synthetic resume probe",
                headers=["case", "value"], rows=[["a", 1.0]])

        return {"SYN": Experiment("SYN", "synthetic resume probe", "-", run)}

    def fake_clock():
        # Integer steps: binary-exact, so elapsed differences are identical
        # regardless of where in the tick sequence a repeat starts (a
        # 0.001-step clock would leak float round-off into the walls and
        # break the digest-equality assertion below).
        t = {"v": 0.0}

        def clk() -> float:
            t["v"] += 1.0
            return t["v"]

        return clk

    with tempfile.TemporaryDirectory() as td:
        store = CheckpointStore(Path(td) / "ckpt")
        try:
            record_benchmark(["SYN"], repeats=3, clock=fake_clock(),
                             experiments=registry(2), checkpoints=store)
            return SiteResult(site, kind, "failed",
                              "simulated mid-sweep crash did not propagate",
                              len(plan.fired), len(decisions))
        except ExecutionError:
            pass
        if not store.keys():
            return SiteResult(site, kind, "failed",
                              "crashed sweep left no checkpoint to resume "
                              "from", len(plan.fired), len(decisions))
        resumed = record_benchmark(["SYN"], repeats=3, clock=fake_clock(),
                                   experiments=registry(None),
                                   checkpoints=store)
        fresh = record_benchmark(["SYN"], repeats=3, clock=fake_clock(),
                                 experiments=registry(None))
    if resumed["meta"]["resumed"] < 1:
        return SiteResult(site, kind, "failed",
                          "resumed sweep re-ran every repeat (checkpoints "
                          "ignored)", len(plan.fired), len(decisions))
    d_resumed = content_digest(resumed["experiments"])
    d_fresh = content_digest(fresh["experiments"])
    if d_resumed != d_fresh:
        return SiteResult(site, kind, "failed",
                          f"resumed artifact diverges from uninterrupted run "
                          f"({d_resumed[:12]}… != {d_fresh[:12]}…)",
                          len(plan.fired), len(decisions))
    return SiteResult(
        site, kind, "recovered",
        f"sentinel raised typed NumericIntegrityError ({trip.kind} in "
        f"{trip.function}, step {trip.step_index}); crash-resumed sweep "
        f"digest-identical to uninterrupted run "
        f"(resumed {resumed['meta']['resumed']} repeat(s))",
        len(plan.fired), len(decisions))


def run_faultcheck(seed: int = 0) -> FaultCheckReport:
    """Sweep every registered injection site; see the module docstring."""
    checks = {
        "fortran.lex.tokens":
            lambda: _check_lexer(seed),
        "codegen.fortran.omp":
            lambda: _check_lint_mutant(
                "codegen.fortran.omp", "sarb-drop-reduction-lw", seed),
        "codegen.fortran.body":
            lambda: _check_lint_mutant(
                "codegen.fortran.body", "fun3d-drop-init-edge", seed),
        "analysis.parallelize.verdict":
            lambda: _check_guarded(
                "analysis.parallelize.verdict", "misparallelize",
                FaultSpec("analysis.parallelize.verdict", "misparallelize",
                          match={"function": "adjust2"}), seed),
        "codegen.python.assign":
            lambda: _check_codegen(seed),
        "exec.interp.step":
            lambda: _check_guarded(
                "exec.interp.step", "raise",
                FaultSpec("exec.interp.step", "raise",
                          match={"parallel": True}), seed),
        "exec.interp.iter":
            lambda: _check_watchdog(seed),
        "numeric.sentinel":
            lambda: _check_sentinel(seed),
    }
    missing = set(SITES) - set(checks)
    if missing:
        raise AssertionError(
            f"faultcheck has no scenario for registered site(s): {sorted(missing)}"
        )
    from ..observe import get_tracer

    tracer = get_tracer()
    results = []
    for site in sorted(checks):
        kinds = SITES[site].kinds
        try:
            with tracer.span("faultcheck.site", site=site):
                results.append(checks[site]())
        except GlafError as e:
            results.append(SiteResult(site, kinds[0], "surfaced",
                                      f"typed {type(e).__name__}: {e}", -1, 0))
        except Exception as e:  # raw escape: exactly what the sweep polices
            results.append(SiteResult(site, kinds[0], "failed",
                                      f"raw {type(e).__name__}: {e}", -1, 0))
    return FaultCheckReport(seed=seed, results=results)
