"""`import ehtlab` pins OpenBLAS to one thread before numpy loads it.

pytest has imported numpy before any test runs, so the pin can only show in a
fresh interpreter: every check here starts one.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(code: str, **env_vars: str) -> str:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(env_vars)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.strip()


def test_import_sets_one_thread_unless_the_user_chose():
    code = ("import os, ehtlab; task = '/proc/self/task';"
            "n = len(os.listdir(task)) if os.path.isdir(task) else 1;"
            "print(os.environ['OPENBLAS_NUM_THREADS'], n)")
    # one thread in the whole process: OpenBLAS started no worker
    assert _run(code) == "1 1"
    assert _run(code, OPENBLAS_NUM_THREADS="3").split()[0] == "3"


def test_direct_cosine_sum_bits_do_not_depend_on_the_core_count():
    # n_direct = 65535 lies above the size where a threaded ddot splits the sum
    code = ("from ehtlab.envelope import build_envelope, evaluate_g, inverse_log_majorant;"
            "env = build_envelope(inverse_log_majorant(shift=2), 30);"
            "[r] = evaluate_g(env, [1.3], 1e-6);"
            "print(r['n_direct'], float(r['s_n_direct']).hex())")
    unset = _run(code)
    assert unset.split()[0] == "65535"
    assert unset == _run(code, OPENBLAS_NUM_THREADS="1")
