"""The benchmark's tracer wraps library functions by name.

``bench/tracing.py`` lists them in ``TRACED`` and looks each one up
with a plain ``getattr`` when it installs, so a rename in ``orcline``
breaks every traced benchmark run.  This test reads that table as it is
and checks every name against the package.
"""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def test_every_traced_function_exists():
    traced = _traced()
    assert traced
    for (module, function) in traced:
        target = importlib.import_module(f"orcline.{module}")
        assert callable(getattr(target, function, None)), \
            f"bench/tracing.py traces orcline.{module}.{function}, " \
            f"which does not exist"
