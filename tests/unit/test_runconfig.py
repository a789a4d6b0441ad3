"""The run configuration: one immutable RunConfig in a context variable."""

import ast
import dataclasses
import threading
from pathlib import Path

import pytest

import repro
from repro.robust import FaultPlan
from repro.runconfig import RunConfig, current, run_config

#: The only ``global`` statements allowed under ``src/repro``: forkserver
#: bookkeeping and a memo, neither of which changes how a run behaves.
ALLOWED_GLOBALS = {
    ("batch/driver.py", "_warm_server_pid"),
    ("observe/ledger.py", "_ENV_CACHE"),
}


class TestRunConfig:
    def test_fields_are_the_six_settings(self):
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "tracer", "metrics", "decisions", "executor", "faults",
            "sentinels"]

    def test_is_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            current().executor = "guarded"

    def test_nesting_innermost_wins_and_restores(self):
        before = current()
        with run_config(executor="guarded") as outer:
            assert current() is outer and outer.executor == "guarded"
            with run_config(faults=FaultPlan()) as inner:
                assert inner.faults is not None
                assert inner.executor == "guarded"
                with run_config(executor="vectorized"):
                    assert current().executor == "vectorized"
                assert current() is inner
            assert current() is outer
        assert current() is before

    def test_restores_after_an_exception(self):
        before = current()
        with pytest.raises(RuntimeError):
            with run_config(executor="guarded"):
                raise RuntimeError("boom")
        assert current() is before


class TestThreads:
    def test_new_thread_starts_from_the_default(self):
        seen = []
        with run_config(faults=FaultPlan()):
            t = threading.Thread(target=lambda: seen.append(current().faults))
            t.start()
            t.join()
        assert seen == [None]

class TestNoModeGlobals:
    def test_only_allowed_global_statements(self):
        # Run behaviour belongs in RunConfig, not in module globals.
        src = Path(repro.__file__).parent
        found = set()
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Global):
                    rel = path.relative_to(src).as_posix()
                    found.update((rel, name) for name in node.names)
        assert sorted(found - ALLOWED_GLOBALS) == []
