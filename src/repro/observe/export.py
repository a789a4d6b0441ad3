"""The run-ledger renderers behind the ``repro runs`` CLI family
(``docs/RUN_LEDGER.md``):

* :func:`record_to_chrome` — the Chrome/Perfetto trace of a persisted
  record for ``repro runs export``: phase-``"X"`` span events re-laid
  from the stored flame tree, plus the counter, resource-sample and
  decision-instant events :func:`repro.observe.report.chrome_track_events`
  also writes for the live ``repro profile --chrome`` trace;
* :func:`render_runs_table` / :func:`render_run` / :func:`diff_runs` /
  :func:`render_runs_trend` — the text views for ``repro runs
  list|show|diff|trend``.
"""

from __future__ import annotations

import time

from .report import chrome_track_events

__all__ = [
    "record_to_chrome",
    "render_runs_table",
    "render_run",
    "diff_runs",
    "render_runs_trend",
]


# ---------------------------------------------------------------------------
# Chrome trace from a persisted record
# ---------------------------------------------------------------------------

def record_to_chrome(record: dict) -> dict[str, object]:
    """A Chrome/Perfetto trace document for one ``repro.run/v1`` record.

    The ledger stores the name-aggregated flame tree, not individual
    spans, so sibling aggregates are re-laid sequentially inside their
    parent — per-name totals and nesting are exact, interleaving is not.
    Counters, sampler ticks, and decision instants are exact.
    """
    events: list[dict[str, object]] = [
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
         "args": {"name": "main"}},
    ]

    def emit(nodes: list[dict], cursor: float) -> None:
        for node in nodes:
            dur = float(node.get("total_s", 0.0)) * 1e6
            events.append({
                "name": node.get("name", "?"),
                "cat": str(node.get("name", "?")).split(".", 1)[0],
                "ph": "X", "ts": round(cursor, 3), "dur": round(dur, 3),
                "pid": 0, "tid": 0,
                "args": {"calls": node.get("calls", 1)},
            })
            emit(node.get("children", []), cursor)
            cursor += dur

    emit(record.get("flame", []), 0.0)
    events += chrome_track_events(
        record.get("metrics", {}), record.get("decisions", []),
        record.get("samples", []), float(record.get("wall_s", 0.0)) * 1e6)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"run": str(record.get("id", "?")),
                      "command": str(record.get("command", "?")),
                      "schema": str(record.get("schema", ""))},
    }


# ---------------------------------------------------------------------------
# text renderers (repro runs list/show/diff/trend)
# ---------------------------------------------------------------------------

def _when(ts: object) -> str:
    try:
        return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(float(ts)))
    except (TypeError, ValueError, OverflowError):
        return "?"


def render_runs_table(entries: list[dict]) -> str:
    if not entries:
        return "(run ledger is empty)"
    header = (f"{'id':<12s} {'command':<14s} {'status':<8s} {'exit':>4s} "
              f"{'wall':>12s} {'recorded (UTC)':<20s} {'git':<8s}")
    lines = [header, "-" * len(header)]
    for e in entries:
        lines.append(
            f"{e.get('id', '?'):<12s} {e.get('command', '?'):<14s} "
            f"{e.get('status', '?'):<8s} {e.get('exit_code', 0):>4d} "
            f"{float(e.get('wall_s', 0.0)) * 1e3:>10.1f}ms "
            f"{_when(e.get('started')):<20s} "
            f"{str(e.get('git_sha', 'unknown'))[:7]:<8s}")
    return "\n".join(lines)


def _event_counts(record: dict) -> dict[str, int]:
    """Decision events per stage family: a stage without a ``:`` counts
    as itself (``guard``), any other under its prefix (``batch:*``)."""
    counts: dict[str, int] = {}
    for d in record.get("decisions", []):
        prefix, sep, _ = str(d.get("stage", "")).partition(":")
        family = f"{prefix}:*" if sep else prefix
        counts[family] = counts.get(family, 0) + 1
    return counts


def render_run(record: dict) -> str:
    """The ``repro runs show`` view of one record."""
    outcome = record.get("outcome", {})
    env = record.get("environment", {})
    ck = record.get("checkpoint") or {}
    lines = [
        f"== {record.get('id', '?')}: repro {record.get('command', '?')} ==",
        f"argv:      {' '.join(record.get('argv', [])) or '(none)'}",
        f"outcome:   {outcome.get('status', '?')} "
        f"(exit {outcome.get('exit_code', '?')})",
        f"wall:      {float(record.get('wall_s', 0.0)) * 1e3:.1f}ms",
        f"recorded:  {_when(record.get('started'))} UTC",
        f"env:       python {env.get('python', '?')}, numpy "
        f"{env.get('numpy', '?')}, git {str(env.get('git_sha', '?'))[:12]}, "
        f"executor {env.get('executor', '?')}",
    ]
    if ck:
        lines.append(f"checkpoint: dir={ck.get('dir', '?')} "
                     f"resume={ck.get('resume', False)}")
    stages = record.get("stages", [])
    if stages:
        lines.append("-- per-stage seconds --")
        for row in stages:
            lines.append(f"  {row.get('stage', '?'):<12s} "
                         f"calls {int(row.get('calls', 0)):>6d} "
                         f"cumulative {float(row.get('cumulative_s', 0)) * 1e3:>10.3f}ms "
                         f"self {float(row.get('self_s', 0)) * 1e3:>10.3f}ms")
    metrics = record.get("metrics", {})
    counters = metrics.get("counters", {})
    if counters:
        lines.append("-- counters --")
        for name in sorted(counters):
            lines.append(f"  {name:<40s} {counters[name]:>10}")
    events = _event_counts(record)
    if events:
        lines.append("-- events --")
        for label in sorted(events):
            lines.append(f"  {label:<20s} {events[label]:>6d}")
    samples = record.get("samples", [])
    if samples:
        rss = [s.get("rss_mb", 0.0) for s in samples]
        lines.append(f"-- resource samples: {len(samples)} tick(s), "
                     f"rss {min(rss):.1f}..{max(rss):.1f} MB --")
    return "\n".join(lines)


def _pct(old: float, new: float) -> str:
    if old <= 0.0:
        return "+inf%" if new > 0.0 else "+0.0%"
    return f"{(new - old) / old * 100.0:+.1f}%"


def diff_runs(a: dict, b: dict) -> str:
    """The ``repro runs diff`` view: wall, stages, counters, environment."""
    lines = [f"== runs diff: {a.get('id', '?')} -> {b.get('id', '?')} =="]
    wa, wb = float(a.get("wall_s", 0.0)), float(b.get("wall_s", 0.0))
    lines.append(f"wall: {wa * 1e3:.1f}ms -> {wb * 1e3:.1f}ms "
                 f"({_pct(wa, wb)})")
    sa = {r["stage"]: r for r in a.get("stages", [])}
    sb = {r["stage"]: r for r in b.get("stages", [])}
    shared = sorted(set(sa) | set(sb))
    if shared:
        lines.append("-- stages (cumulative) --")
        for stage in shared:
            oa = float(sa.get(stage, {}).get("cumulative_s", 0.0))
            ob = float(sb.get(stage, {}).get("cumulative_s", 0.0))
            lines.append(f"  {stage:<12s} {oa * 1e3:>10.3f}ms "
                         f"{ob * 1e3:>10.3f}ms {_pct(oa, ob):>8s}")
    ca = a.get("metrics", {}).get("counters", {})
    cb = b.get("metrics", {}).get("counters", {})
    changed = [n for n in sorted(set(ca) | set(cb))
               if ca.get(n, 0) != cb.get(n, 0)]
    if changed:
        lines.append("-- counters (changed) --")
        for name in changed:
            lines.append(f"  {name:<40s} {ca.get(name, 0):>8} -> "
                         f"{cb.get(name, 0):>8}")
    env_keys = ("python", "numpy", "platform", "git_sha", "executor")
    env_diffs = [(k, a.get("environment", {}).get(k),
                  b.get("environment", {}).get(k))
                 for k in env_keys
                 if a.get("environment", {}).get(k)
                 != b.get("environment", {}).get(k)]
    if env_diffs:
        lines.append("-- environment changed --")
        for k, va, vb in env_diffs:
            lines.append(f"  {k}: {va} -> {vb}")
    return "\n".join(lines)


def render_runs_trend(records: list[dict]) -> str:
    """Wall-time trajectory per command across the whole ledger."""
    if not records:
        return "(run ledger is empty)"
    lines = ["== run trend (wall time per command) =="]
    prev: dict[str, float] = {}
    header = (f"{'id':<12s} {'command':<14s} {'status':<8s} {'wall':>12s} "
              f"{'vs prev':>8s}")
    lines += [header, "-" * len(header)]
    for r in records:
        cmd = str(r.get("command", "?"))
        wall = float(r.get("wall_s", 0.0))
        delta = _pct(prev[cmd], wall) if cmd in prev else "-"
        prev[cmd] = wall
        lines.append(
            f"{r.get('id', '?'):<12s} {cmd:<14s} "
            f"{r.get('outcome', {}).get('status', '?'):<8s} "
            f"{wall * 1e3:>10.1f}ms {delta:>8s}")
    return "\n".join(lines)
