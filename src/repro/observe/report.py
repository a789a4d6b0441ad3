"""Reporting: flame-style tree, per-stage summary, JSON export, decisions.

Three views over one observation:

* :func:`render_tree` — siblings aggregated by span name into a
  flame-style text tree (total ms, call count, attrs of singletons);
* :func:`render_stage_summary` — a table keyed by pipeline stage (the
  first dotted component of the span name: ``fortran``, ``analysis``,
  ``optimize``, ``codegen``, ``exec``, ``bench``, …) with cumulative and
  self time;
* :func:`trace_to_json` / :func:`render_report` — the machine-readable
  export (schema ``repro.observe.trace/v1``, documented in
  ``docs/OBSERVABILITY.md``) and the human-readable composite used by
  ``repro profile`` and ``--profile``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .decisions import Decision, DecisionLog, NullDecisionLog
from .metrics import MetricsRegistry, NullMetricsRegistry
from .trace import NullTracer, Span, Tracer

__all__ = [
    "TRACE_SCHEMA",
    "aggregate_children",
    "render_tree",
    "stage_totals",
    "render_stage_summary",
    "render_metrics",
    "render_decisions",
    "trace_to_json",
    "decision_docs",
    "chrome_track_events",
    "to_chrome_trace",
    "render_report",
]

TRACE_SCHEMA = "repro.observe.trace/v1"


@dataclass
class _Agg:
    """Siblings with the same span name, merged."""

    name: str
    count: int = 0
    total: float = 0.0
    attrs: dict[str, object] = field(default_factory=dict)
    children: list[Span] = field(default_factory=list)


def aggregate_children(spans: list[Span]) -> list[_Agg]:
    """Merge sibling spans by name, preserving first-seen order."""
    out: dict[str, _Agg] = {}
    for s in spans:
        a = out.get(s.name)
        if a is None:
            a = out[s.name] = _Agg(name=s.name)
        a.count += 1
        a.total += s.duration
        a.children.extend(s.children)
        if a.count == 1:
            a.attrs = dict(s.attrs)
        else:
            a.attrs = {}           # attrs only shown for unmerged spans
    return list(out.values())


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:8.3f}ms"


def _fmt_attrs(attrs: dict[str, object]) -> str:
    if not attrs:
        return ""
    inner = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    return f"  [{inner}]"


def render_tree(tracer: Tracer | NullTracer, *, max_depth: int = 12) -> str:
    """Flame-style text tree of the recorded spans."""
    lines: list[str] = []

    def emit(aggs: list[_Agg], depth: int) -> None:
        if depth >= max_depth:
            return
        for a in aggs:
            calls = f" x{a.count}" if a.count > 1 else ""
            lines.append(
                f"{_fmt_ms(a.total)}  {'  ' * depth}{a.name}{calls}"
                f"{_fmt_attrs(a.attrs)}"
            )
            emit(aggregate_children(a.children), depth + 1)

    emit(aggregate_children(list(tracer.roots)), 0)
    if not lines:
        return "(no spans recorded)"
    return "\n".join(lines)


def stage_totals(tracer: Tracer | NullTracer) -> list[dict[str, object]]:
    """Cumulative/self time and call count per pipeline stage.

    The stage is the first dotted component of the span name.  *Cumulative*
    counts a stage's time only at its outermost spans (nested same-stage
    spans are not double counted); *self* excludes time spent in child
    spans of any stage.
    """
    rows: dict[str, dict[str, object]] = {}

    def row(stage: str) -> dict[str, object]:
        r = rows.get(stage)
        if r is None:
            r = rows[stage] = {"stage": stage, "calls": 0,
                               "cumulative_s": 0.0, "self_s": 0.0}
        return r

    def visit(span: Span, enclosing: str | None) -> None:
        stage = span.name.split(".", 1)[0]
        r = row(stage)
        r["calls"] = int(r["calls"]) + 1
        if stage != enclosing:
            r["cumulative_s"] = float(r["cumulative_s"]) + span.duration
        child_time = sum(c.duration for c in span.children)
        r["self_s"] = float(r["self_s"]) + max(0.0, span.duration - child_time)
        for c in span.children:
            visit(c, stage)

    for root in tracer.roots:
        visit(root, None)
    return sorted(rows.values(), key=lambda r: -float(r["cumulative_s"]))


def render_stage_summary(tracer: Tracer | NullTracer) -> str:
    rows = stage_totals(tracer)
    if not rows:
        return "(no stages recorded)"
    lines = [f"{'stage':<12s} {'calls':>6s} {'cumulative':>12s} {'self':>12s}"]
    lines.append(f"{'-' * 12} {'-' * 6} {'-' * 12} {'-' * 12}")
    for r in rows:
        lines.append(
            f"{r['stage']:<12s} {r['calls']:>6d} "
            f"{float(r['cumulative_s']) * 1e3:>10.3f}ms "
            f"{float(r['self_s']) * 1e3:>10.3f}ms"
        )
    return "\n".join(lines)


def render_metrics(metrics: MetricsRegistry | NullMetricsRegistry) -> str:
    snap = metrics.snapshot()
    lines: list[str] = []
    for name, v in snap["counters"].items():
        lines.append(f"{name:<40s} {v:>10d}")
    for name, v in snap["gauges"].items():
        lines.append(f"{name:<40s} {v:>10g}")
    for name, s in snap["histograms"].items():
        lines.append(
            f"{name:<40s} n={s['count']} mean={s['mean']:.4g} "
            f"min={s['min']:.4g} max={s['max']:.4g}"
        )
    return "\n".join(lines) if lines else "(no metrics recorded)"


def _decision_line(d: Decision) -> str:
    cls = f" class={d.loop_class}" if d.loop_class else ""
    why = f" — {d.reasons[0]}" if d.reasons else ""
    extra = {k: v for k, v in d.attrs if v not in ("", None) and k != "variant"}
    ex = ("  [" + ", ".join(f"{k}={v}" for k, v in sorted(extra.items())) + "]"
          if extra else "")
    return (f"    step {d.step_index} {d.step_name:<24s} "
            f"[{d.stage}:{d.verdict}]{cls}{why}{ex}")


def render_decisions(log: DecisionLog | NullDecisionLog) -> str:
    """Decision events grouped per subroutine/function."""
    grouped = log.by_function()
    if not grouped:
        return "(no decisions recorded)"
    lines: list[str] = []
    for fname, events in grouped.items():
        lines.append(f"  {fname}")
        for d in events:
            lines.append(_decision_line(d))
    return "\n".join(lines)


def _span_to_dict(span: Span, epoch: float) -> dict[str, object]:
    return {
        "name": span.name,
        "start_s": round(span.start - epoch, 9),
        "duration_s": round(span.duration, 9),
        "thread": span.thread,
        "attrs": dict(span.attrs),
        "children": [_span_to_dict(c, epoch) for c in span.children],
    }


def trace_to_json(
    tracer: Tracer | NullTracer,
    metrics: MetricsRegistry | NullMetricsRegistry | None = None,
    decisions: DecisionLog | NullDecisionLog | None = None,
    **meta: object,
) -> dict[str, object]:
    """The exportable trace document (see ``docs/OBSERVABILITY.md``)."""
    epoch = getattr(tracer, "epoch", 0.0)
    doc: dict[str, object] = {
        "schema": TRACE_SCHEMA,
        "meta": dict(meta),
        "spans": [_span_to_dict(r, epoch) for r in tracer.roots],
        "stages": stage_totals(tracer),
    }
    if metrics is not None:
        doc["metrics"] = metrics.snapshot()
    if decisions is not None:
        doc["decisions"] = [d.to_dict() for d in decisions.events]
    return doc


def _chrome_arg(value: object) -> object:
    """Chrome trace ``args`` values must be JSON-serializable primitives."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def decision_docs(decisions: DecisionLog | NullDecisionLog,
                  epoch: float) -> list[dict[str, object]]:
    """The decision events as dicts whose ``t`` is seconds since the
    tracer ``epoch`` (the live stamps are absolute ``perf_counter``
    values) — the form the run ledger persists and
    :func:`chrome_track_events` places."""
    docs = []
    for d in decisions.events:
        doc = d.to_dict()
        doc["t"] = round(max(0.0, d.t - epoch), 6) if d.t else 0.0
        docs.append(doc)
    return docs


def chrome_track_events(
    snapshot: dict,
    decisions: list[dict],
    samples: list[dict],
    end_us: float,
) -> list[dict[str, object]]:
    """The non-span Chrome events shared by the live and the persisted
    trace: counter/gauge tracks, resource-sample tracks, and decision
    instants.

    Every counter becomes a phase-``"C"`` track with a zero point at the
    epoch and its final value at ``end_us``; every gauge its last-written
    value at ``end_us``.  Each ``samples`` tick (the
    :class:`repro.observe.sample.ResourceSampler` series, ``t`` in
    seconds since the epoch) becomes per-tick ``sample.rss_mb`` /
    ``sample.cpu_s`` / ``sample.gc_gen0`` points.  Each decision (see
    :func:`decision_docs`) becomes a global instant (``"ph": "i"``)
    categorized by its stage.
    """
    events: list[dict[str, object]] = []
    end = round(end_us, 3)
    for name, value in snapshot.get("counters", {}).items():
        # Two points per counter: the zero at the epoch gives the UI a
        # track to draw even for a single-valued counter.
        events.append({"name": name, "cat": "metric", "ph": "C",
                       "ts": 0.0, "pid": 0, "args": {"value": 0}})
        events.append({"name": name, "cat": "metric", "ph": "C",
                       "ts": end, "pid": 0, "args": {"value": value}})
    for name, value in snapshot.get("gauges", {}).items():
        events.append({"name": name, "cat": "metric", "ph": "C",
                       "ts": end, "pid": 0, "args": {"value": value}})
    for tick in samples:
        ts = round(max(0.0, float(tick.get("t", 0.0))) * 1e6, 3)
        for key in ("rss_mb", "cpu_s", "gc_gen0"):
            if key in tick:
                events.append({"name": f"sample.{key}", "cat": "sample",
                               "ph": "C", "ts": ts, "pid": 0,
                               "args": {"value": tick[key]}})
    for d in decisions:
        stage = str(d.get("stage", "?"))
        events.append({
            "name": f"{stage}:{d.get('verdict', '?')}", "cat": stage,
            "ph": "i", "s": "g",
            "ts": round(max(0.0, float(d.get("t", 0.0))) * 1e6, 3),
            "pid": 0, "tid": 0,
            "args": {"function": d.get("function", ""),
                     "step": d.get("step_name", ""),
                     "reasons": str(list(d.get("reasons", [])))},
        })
    return events


def to_chrome_trace(
    tracer: Tracer | NullTracer,
    metrics: MetricsRegistry | NullMetricsRegistry | None = None,
    decisions: DecisionLog | NullDecisionLog | None = None,
    **meta: object,
) -> dict[str, object]:
    """Export the recorded spans in Chrome trace-event format.

    The result loads directly into ``chrome://tracing`` or Perfetto
    (https://ui.perfetto.dev).  Every span becomes a complete event
    (``"ph": "X"``) with microsecond ``ts``/``dur`` relative to the trace
    epoch; its pipeline stage (the first dotted name component) becomes the
    event category, so the UI can filter by stage.  Threads are mapped to
    stable integer ``tid``\\ s with metadata events carrying the real names.

    With a ``metrics`` registry, counters and gauges become Perfetto
    counter tracks; with a ``decisions`` log, every decision becomes an
    instant event at the moment it was recorded
    (:func:`chrome_track_events`).  Resource-sample tracks come from a
    persisted record (:func:`repro.observe.export.record_to_chrome`).
    """
    epoch = getattr(tracer, "epoch", 0.0)
    tids: dict[str, int] = {}
    events: list[dict[str, object]] = []

    def tid_of(thread: str) -> int:
        if thread not in tids:
            tids[thread] = len(tids)
            events.append({
                "name": "thread_name", "ph": "M", "pid": 0,
                "tid": tids[thread], "args": {"name": thread or "main"},
            })
        return tids[thread]

    end = 0.0

    def emit(span: Span) -> None:
        nonlocal end
        start = (span.start - epoch) * 1e6
        dur = span.duration * 1e6
        end = max(end, start + dur)
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": round(start, 3),
            "dur": round(dur, 3),
            "pid": 0,
            "tid": tid_of(span.thread),
            "args": {k: _chrome_arg(v) for k, v in span.attrs.items()},
        })
        for c in span.children:
            emit(c)

    for root in tracer.roots:
        emit(root)

    events += chrome_track_events(
        metrics.snapshot() if metrics is not None else {},
        decision_docs(decisions, epoch) if decisions is not None else [],
        [], end)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {str(k): _chrome_arg(v) for k, v in meta.items()},
    }


def render_report(
    tracer: Tracer | NullTracer,
    metrics: MetricsRegistry | NullMetricsRegistry | None = None,
    decisions: DecisionLog | NullDecisionLog | None = None,
    *,
    title: str = "pipeline profile",
) -> str:
    """The composite human-readable report printed by ``repro profile``."""
    parts = [f"== {title} =="]
    parts.append("\n-- span tree --")
    parts.append(render_tree(tracer))
    parts.append("\n-- per-stage summary --")
    parts.append(render_stage_summary(tracer))
    if metrics is not None:
        parts.append("\n-- metrics --")
        parts.append(render_metrics(metrics))
    if decisions is not None:
        parts.append("\n-- parallelization decisions --")
        parts.append(render_decisions(decisions))
    return "\n".join(parts)
