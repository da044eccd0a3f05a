"""The hooks of the benchmark (perfbench/) into the pipeline.

perfbench/tracer.py wraps named package functions from outside and
reports a target as missing when it is absent or never called; a traced
benchmark run then drops the per-layer metrics of that target. The
benchmark also counts the mutual_information low-sample warnings. A
short reference run under the tracer checks both hooks, so that a
refactor cannot silently remove one.
"""

import re
import sys
import warnings
from pathlib import Path

from entnetsim import config, report

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer  # noqa: E402

LOW_SYMBOL = re.compile(r"only \d+ symbol pairs")


def test_traced_reference_run_reports_every_target(tmp_path):
    cfg = config.with_overrides(config.default_config(), seed=42,
                                duration_s=0.05, links="figures")
    tracer = Tracer(clock=True)
    tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bundle = report.run_bundle(cfg)
            report.write_bundle(bundle, str(tmp_path), wall_time_s=0.0)
    finally:
        tracer.uninstall()
    assert tracer.missing() == []
    assert any(issubclass(w.category, UserWarning)
               and LOW_SYMBOL.search(str(w.message)) for w in caught)
