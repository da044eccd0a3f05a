"""The package's public names."""

import collections

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
