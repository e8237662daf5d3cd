import os
import subprocess
import sys
from pathlib import Path

import dioptuples


def fresh_python(*args, run=subprocess.run, **kwargs):
    """`python *args` in a fresh process that imports this checkout's dioptuples.

    `run` starts the process (`subprocess.run` or `subprocess.Popen`) and takes
    every other keyword, so each caller keeps its own wiring and timeout.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(dioptuples.__file__).parents[1])}
    return run([sys.executable, *args], env=env, **kwargs)
