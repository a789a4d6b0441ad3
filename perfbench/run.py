"""Benchmark driver: batch compile and case-study validation, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload compile-corpus --seed 1 \\
        --seconds 50 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (``BENCHMARK.json`` lists both); a line per metric goes
to stdout first, and the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``README.md`` beside this
file maps each metric to its layer and workload.

Only the standard library is imported at module level: ``run_batch``
with ``jobs=2`` starts forkserver workers, and each one re-imports this
file as its main module before it compiles anything.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"
#: Fresh-interpreter set-ups timed per run; setup_s is their median.
SETUP_SAMPLES = 5
#: A traced run times at least one untraced and two traced rounds.
TRACED_MIN_REPS = 3
#: Longest temp dir under which the forkserver's socket path still fits
#: the 107-byte AF_UNIX limit.
MAX_TMPDIR_LEN = 70

#: Counters that must read the same in two traced rounds of one run.
DETERMINISTIC = ("codegen.sloc", "analysis.steps.parallel",
                 "fortran.lex.tokens", "exec.vectorized.fallbacks",
                 "cells.written")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once and exit (one setup_s sample)")
    return ap.parse_args(argv)


def _hermetic(run_dir: Path) -> None:
    """Pin thread pools, turn the run ledger off, keep temp files here."""
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                      MKL_NUM_THREADS="1", REPRO_LEDGER="0")
    tmp = run_dir / "tmp"
    tmp.mkdir()
    if len(str(tmp)) <= MAX_TMPDIR_LEN:
        os.environ["TMPDIR"] = str(tmp)
        tempfile.tempdir = str(tmp)
    sys.path.insert(0, str(ROOT / "src"))


def _setup_sample(args) -> float:
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=120)
    return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _determinism_problems(traced) -> list[str]:
    first, second = traced[0].layers, traced[1].layers
    return [f"{name} differs between traced rounds: {first[name]} vs "
            f"{second[name]}" for name in DETERMINISTIC
            if first[name] != second[name]]


def _line(name: str, unit: str, scaled, raw) -> str:
    from stats import median, summarize

    s = summarize(scaled)
    tail = (f"p{s['tail_p']}={s['tail']:.6g}" if s["tail_p"] is not None
            else "no percentile has 10 samples beyond it")
    return (f"{name} = {s['median']:.6g} {unit} (n={s['n']}, {tail}; "
            f"raw median={median(raw):.6g})")


def _measure(args, run_dir: Path) -> int:
    import workloads
    from stats import CALIBRATION_REF_S, calibrate, fail_frac, median

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    setup_ = workloads.setup(args.workload, args.seed, run_dir)
    # Each metric's samples as (value, calibration loop time to scale by,
    # or None when the work ran in other processes).
    samples = {"setup_s": [(_setup_sample(args), None)
                           for _ in range(SETUP_SAMPLES)]}

    reps = []
    t0 = time.perf_counter()
    min_reps = TRACED_MIN_REPS if args.trace else 1
    # Another round starts only if one more of average length still ends
    # within --seconds.
    while len(reps) < min_reps or (time.perf_counter() - t0) * (
            len(reps) + 1) / len(reps) <= args.seconds:
        digest = reps[0].digest if reps else None
        if args.trace:
            # Traced, untraced, traced, ...: the untraced round that
            # trace.overhead_frac divides by is not the run's first.
            rep = workloads.run_rep(
                setup_, run_dir, traced=len(reps) % 3 != 1, parallel=True,
                twice=False, digest=digest)
        else:
            spent = sum(r.parallel_wall for r in reps)
            rep = workloads.run_rep(
                setup_, run_dir, traced=False, twice=True, digest=digest,
                parallel=spent <= workloads.PARALLEL_SHARE * (
                    time.perf_counter() - t0))
        reps.append(rep)

    problems = [p for r in reps for p in r.problems]
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    if args.trace:
        traced = [r for r in reps if r.traced]
        for name in traced[0].layers:
            samples[name] = [(r.layers[name], None) for r in traced]
        untraced = median(r.wall for r in reps if not r.traced)
        samples["trace.overhead_frac"] = [
            (median(r.wall for r in traced) / untraced - 1.0, None)]
        attempted += 1
        mismatched = _determinism_problems(traced)
        if mismatched:
            failed += 1
            problems.extend(mismatched)
    else:
        for r in reps:
            for name, values in r.samples.items():
                samples.setdefault(name, []).extend(
                    zip(values, r.loops[name]))
        samples["peak_rss_mb"] = [(_peak_rss_mb(), None)]

    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    loops = [x for r in reps for x in r.calibration]
    print(f"calibration loop: median {median(loops) * 1e3:.4g} ms over "
          f"{len(loops)} samples; times and rates measured in this process "
          f"are scaled to a {CALIBRATION_REF_S * 1e3:g} ms loop")
    metrics = {}
    for m in wanted:
        pairs = samples[m["name"]]
        scaled = [calibrate(v, m["unit"], loop) for v, loop in pairs]
        print(_line(m["name"], m["unit"], scaled, [v for v, _ in pairs]))
        metrics[m["name"]] = {"value": median(scaled), "unit": m["unit"]}
    print(f"fail_frac = {fail_frac(attempted, failed):.6g} "
          f"({failed} of {attempted} operations failed)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _remove_scratch(run_dir: Path) -> None:
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass                           # another run still holds its dir


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package under {ROOT / 'src'}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    # Registered before multiprocessing is imported, so this runs after
    # its exit handlers have removed their own temp dir from run_dir.
    atexit.register(_remove_scratch, run_dir)
    try:
        _hermetic(run_dir)
        import workloads

        if args.workload not in workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r} (want one of "
                  f"{', '.join(workloads.WORKLOADS)})", file=sys.stderr)
            return 2
        if args.setup_only:
            workloads.setup(args.workload, args.seed, run_dir)
            return 0
        return _measure(args, run_dir)
    finally:
        import layers

        layers.stop_forkserver()
        layers.stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())
