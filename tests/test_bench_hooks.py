"""Every span hook of the benchmark still names a callable in the package.

bench/tracing.py patches module attributes by name; a renamed function drops
its layer from a traced benchmark run.  The module is read, not imported
through the package path, so no file under bench/ is written.
"""

import sys
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    # dataclasses looks the defining module up in sys.modules
    sys.modules[module.__name__] = module
    try:
        exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
        yield module
    finally:
        del sys.modules[module.__name__]


def test_every_layer_hook_resolves(tracing):
    missing = [hook.target for hook in tracing.LAYER_HOOKS if not tracing.resolve(hook.target)]
    assert missing == []


def test_resolve_reports_a_renamed_target(tracing):
    assert tracing.resolve("csgtopo.fea:no_such_function") == []
