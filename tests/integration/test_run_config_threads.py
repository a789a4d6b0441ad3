"""Two differently configured pipelines in one process.

Thread A runs the SARB IR pipeline with a NaN-poisoning fault plan and
the numeric sentinels; thread B runs it plain on the vectorized
executor.  B runs from start to end while A's configuration is in force,
so any setting shared between the threads would poison B or demote its
lifted steps.
"""

import threading

import numpy as np
import pytest

from repro import observe
from repro.errors import NumericIntegrityError
from repro.numeric import SentinelConfig
from repro.robust import FaultPlan, FaultSpec
from repro.runconfig import run_config
from repro.sarb import make_inputs
from repro.sarb import validation as sv

TIMEOUT_S = 120


@pytest.fixture(scope="module")
def inputs():
    return make_inputs()


def _plain_vectorized(inputs):
    """Outputs and ``exec.vectorized.*`` counters of one plain run."""
    with run_config(executor="vectorized"), observe.observed() as obs:
        out = sv.run_ir_interpreter(inputs)
    counters = {name: value for name, value
                in obs.metrics.snapshot()["counters"].items()
                if name.startswith("exec.vectorized.")}
    return out, counters


def test_two_configured_pipelines_run_side_by_side(inputs):
    solo_out, solo_counters = _plain_vectorized(inputs)
    assert solo_counters["exec.vectorized.steps"] > 0

    a_armed = threading.Event()
    b_done = threading.Event()
    results = {}

    def pipeline_a():
        plan = FaultPlan([FaultSpec("numeric.sentinel", "nan")])
        try:
            with run_config(faults=plan, sentinels=SentinelConfig()):
                a_armed.set()
                b_done.wait(TIMEOUT_S)
                sv.run_ir_interpreter(inputs)
        except BaseException as e:      # handed to the main thread
            results["a"] = e
        finally:
            a_armed.set()

    def pipeline_b():
        try:
            a_armed.wait(TIMEOUT_S)
            results["b"] = _plain_vectorized(inputs)
        except BaseException as e:
            results["b"] = e
        finally:
            b_done.set()

    threads = [threading.Thread(target=pipeline_a),
               threading.Thread(target=pipeline_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(TIMEOUT_S)
    assert not any(t.is_alive() for t in threads)

    assert isinstance(results.get("a"), NumericIntegrityError)
    if isinstance(results["b"], BaseException):
        raise results["b"]
    b_out, b_counters = results["b"]
    assert b_counters == solo_counters
    assert sorted(b_out) == sorted(solo_out)
    for name in solo_out:
        assert np.array_equal(b_out[name], solo_out[name]), name
