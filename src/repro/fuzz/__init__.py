"""Seeded corpus generation and differential fuzzing (docs/FUZZING.md).

Turns "works on two case studies" into "works on arbitrary legacy
FORTRAN": :func:`generate_codebase` renders seeded, reproducible GLAF
codebases mixing every construct the pipeline claims to handle;
:func:`run_campaign` compiles them through the batch driver with a
differential interpreter-vs-vectorized oracle as the item checks
(:class:`FuzzChecks`), bucketing failures by signature, quarantining
digest-named reproducer bundles, and delta-debug minimizing each new
failure (``repro fuzz`` on the command line).  The
:mod:`~repro.fuzz.vocab` module is the shared mutation vocabulary the
parser property tests draw from.
"""

from .generate import (
    CodebaseSpec,
    FuzzCodebase,
    StepSpec,
    UnitSpec,
    build_program,
    generate_codebase,
    generate_spec,
)
from .profile import (
    PROFILES,
    STEP_KINDS,
    STRUCTURE_KINDS,
    FuzzProfile,
    get_profile,
)
from .oracle import FuzzChecks
from .runner import (
    DEFAULT_CHECKPOINT_DIR,
    DEFAULT_QUARANTINE_DIR,
    SUMMARY_SCHEMA,
    CampaignSummary,
    run_campaign,
)
from .shrink import ShrinkResult, shrink_spec
from .triage import BUNDLE_SCHEMA, FailureSignature, Triage
from .vocab import (
    MUTATION_KINDS,
    NOISE_ALPHABET,
    apply_mutation,
    mutated_source,
    parser_corpus,
)

__all__ = [
    # profile
    "FuzzProfile", "PROFILES", "get_profile", "STEP_KINDS",
    "STRUCTURE_KINDS",
    # generate
    "StepSpec", "UnitSpec", "CodebaseSpec", "FuzzCodebase",
    "generate_spec", "build_program", "generate_codebase",
    # oracle / runner
    "FuzzChecks", "CampaignSummary", "run_campaign",
    "SUMMARY_SCHEMA", "DEFAULT_CHECKPOINT_DIR", "DEFAULT_QUARANTINE_DIR",
    # triage / shrink
    "FailureSignature", "Triage", "BUNDLE_SCHEMA",
    "ShrinkResult", "shrink_spec",
    # vocab
    "NOISE_ALPHABET", "MUTATION_KINDS", "parser_corpus", "apply_mutation",
    "mutated_source",
]
