"""Warm batch workers: the forkserver really preloads the compile stack.

The batch driver launches its forkserver with
:data:`repro.batch.worker.PRELOAD_MODULES` preloaded, so each isolated
worker forks with the compile stack already imported (docs/BATCH.md,
"Worker start-up").  The preload must land even when ``repro`` is
importable only through an in-process ``sys.path.insert`` — the server
is a fresh interpreter, and CPython's forkserver swallows a failed
preload import — and the launch must leave the parent's environment
as it found it.  Each request for a context records one
``batch:forkserver`` decision saying how the server was obtained.

The probe runs as a real script in a fresh interpreter with
``PYTHONPATH`` unset: forkserver children re-import their parent's main
module, so the script keeps a stdlib-only top level and its work under
the ``__main__`` guard.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

PROBE = '''\
import json
import os
import sys

WATCHED = ("repro.batch.worker", "repro.codegen")


def probe(conn):
    conn.send([m for m in WATCHED if m in sys.modules])
    conn.close()


if __name__ == "__main__":
    sys.path.insert(0, {src!r})
    from repro import observe
    from repro.batch.driver import _mp_context

    env, path = dict(os.environ), list(sys.path)
    with observe.observed() as obs:
        ctx = _mp_context()
        _mp_context()
    rx, tx = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=probe, args=(tx,), daemon=True)
    proc.start()
    tx.close()
    loaded = rx.recv()
    proc.join(60)
    events = obs.decisions.for_stage("batch:forkserver")
    print(json.dumps({{
        "method": ctx.get_start_method(),
        "loaded": loaded,
        "exitcode": proc.exitcode,
        "env_unchanged": dict(os.environ) == env,
        "path_unchanged": sys.path == path,
        "events": [[d.verdict, dict(d.attrs)] for d in events],
    }}))
'''


def test_forkserver_children_start_with_the_compile_stack(tmp_path):
    script = tmp_path / "probe.py"
    script.write_text(PROBE.format(src=str(REPO / "src")))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                         env=env, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    assert doc["method"] == "forkserver"
    assert doc["loaded"] == ["repro.batch.worker", "repro.codegen"]
    assert doc["exitcode"] == 0
    assert doc["env_unchanged"] and doc["path_unchanged"]
    # One decision per context request: the first launches the warm
    # server, the second finds it already running.
    (v1, a1), (v2, a2) = doc["events"]
    assert v1 == "started" and a1["warm"] and a1["start_s"] >= 0
    assert v2 == "reused" and a2["warm"]


def _forkserver_events(obs):
    return [(d.verdict, dict(d.attrs))
            for d in obs.decisions.for_stage("batch:forkserver")]


def test_server_launched_elsewhere_is_reused_and_flagged(monkeypatch):
    from repro import observe
    from repro.batch import driver

    assert driver._mp_context() is not None   # a warm server is running
    # As if something other than the driver had launched it.
    monkeypatch.setattr(driver, "_warm_server_pid", None)
    with observe.observed() as obs:
        ctx = driver._mp_context()
    assert ctx.get_start_method() == "forkserver"
    assert _forkserver_events(obs) == [("reused", {"warm": False})]


def test_failed_launch_falls_back_to_spawn(monkeypatch):
    from repro import observe
    from repro.batch import driver

    def refuse(ctx):
        raise OSError("AF_UNIX path too long")

    monkeypatch.setattr(driver, "_start_forkserver", refuse)
    with observe.observed() as obs:
        ctx = driver._mp_context()
    assert ctx.get_start_method() == "spawn"
    (verdict, attrs), = _forkserver_events(obs)
    assert verdict == "unavailable" and attrs == {}
