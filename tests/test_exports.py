import os
import subprocess
import sys

import stabsim


def test_every_exported_name_resolves():
    namespace = {}
    exec("from stabsim import *", namespace)
    assert set(stabsim.__all__) <= set(namespace)


def test_batched_run_loop_sits_below_verify():
    # `search` steps its sampled runs on `engine.ensemble_runs`; `verify`
    # imports `search`, so neither lower module may pull `verify` in.
    code = (
        "import sys, stabsim.engine, stabsim.search; "
        "sys.exit('stabsim.verify' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
