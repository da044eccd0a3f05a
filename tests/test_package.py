"""The package's public names and what importing it costs."""

import collections
import os
import subprocess
import sys
from pathlib import Path

import entnetsim


def test_all_names_resolve_once():
    # a stale export would make `from entnetsim import *` raise
    missing = [name for name in entnetsim.__all__
               if not hasattr(entnetsim, name)]
    repeated = [name for name, n in
                collections.Counter(entnetsim.__all__).items() if n > 1]
    assert missing == [] and repeated == []
    namespace = {}
    exec("from entnetsim import *", namespace)
    assert set(entnetsim.__all__) <= set(namespace)


def test_import_leaves_numpy_random_unimported():
    # NumPy imports numpy.random lazily (about 6 ms); the engine takes it
    # on its first run, not at package import
    code = ("import sys, entnetsim; "
            "sys.exit('numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(entnetsim.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
