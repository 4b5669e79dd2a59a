import os

import pytest

from conftest import fresh_python

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# the threads of the importing process, and the BLAS variable it then sees
PROBE = "import os, rcdirac; print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
# the calls of inspect.signature and the inspect.Signature objects built by
# importing rcdirac after numpy and loading a bundled scenario
SIGNATURE_PROBE = """
import inspect, numpy
calls, built = [], []
signature, init = inspect.signature, inspect.Signature.__init__
def counting_signature(*args, **kwargs):
    calls.append(args)
    return signature(*args, **kwargs)
def counting_init(self, *args, **kwargs):
    built.append(args)
    init(self, *args, **kwargs)
inspect.signature, inspect.Signature.__init__ = counting_signature, counting_init
import rcdirac
from rcdirac import fieldspec, harness
fieldspec.load_scenario_file(harness.resolve_scenario_path("curved_torsion"))
print(len(calls), len(built))
"""


def _import_in_fresh_interpreter(probe=PROBE, **env) -> list[str]:
    proc = fresh_python("-c", probe, env={**dict.fromkeys(BLAS_THREAD_VARS), **env})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task (Linux)")
def test_import_starts_no_blas_thread_pool():
    # one thread, and the variable set for numpy's import is gone again
    assert _import_in_fresh_interpreter() == ["1", "None"]
    # a thread count the user chose is left as given
    assert _import_in_fresh_interpreter(OPENBLAS_NUM_THREADS="2")[1] == "2"
    assert _import_in_fresh_interpreter(OMP_NUM_THREADS="2")[1] == "None"


def test_import_and_scenario_load_build_no_signature():
    # the classes need no generated docstring or code, and the per-frame
    # memo binds no call through a signature
    assert _import_in_fresh_interpreter(SIGNATURE_PROBE) == ["0", "0"]
