import asyncio
import sys
import textwrap

import pytest

import layers
from trace import ABSENT, INSTALLED, Target, Tracer


@pytest.fixture
def package(tmp_path, monkeypatch):
    """Two modules where one imports a function by name from the other."""
    (tmp_path / "tracedpkg_a.py").write_text(
        textwrap.dedent(
            """
            def inner(x):
                return x * 2

            def outer(x):
                return inner(x) + 1

            class Box:
                def grow(self, x):
                    return outer(x)

            async def later(x):
                return outer(x)
            """
        )
    )
    (tmp_path / "tracedpkg_b.py").write_text(
        "from tracedpkg_a import outer, Box\n\ndef call(x):\n    return outer(x) + Box().grow(x)\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    yield
    for name in ("tracedpkg_a", "tracedpkg_b"):
        sys.modules.pop(name, None)


def test_wrappers_catch_imported_names_and_methods(package):
    import tracedpkg_a
    import tracedpkg_b

    original = tracedpkg_b.outer
    tracer = Tracer(
        [
            Target("a.outer", ("tracedpkg_a.outer",)),
            Target("a.inner", ("tracedpkg_a.inner",), kind="fine"),
            Target("a.grow", ("tracedpkg_a.Box.grow",)),
        ],
        prefixes=("tracedpkg",),
    )
    assert set(tracer.install().values()) == {INSTALLED}
    assert tracedpkg_b.outer is not original
    assert tracedpkg_b.call(3) == 14
    snapshot = tracer.snapshot()
    assert snapshot["layers"]["a.outer"]["calls"] == 2
    assert snapshot["layers"]["a.inner"]["calls"] == 2
    assert snapshot["layers"]["a.grow"]["calls"] == 1
    outer = snapshot["layers"]["a.outer"]
    assert 0 <= outer["self_s"] <= outer["total_s"]
    spans = {span[2]: span for span in tracer.spans}
    assert spans["a.outer"][1] in (0, spans["a.grow"][0])
    tracer.uninstall()
    assert tracedpkg_b.outer is original and tracedpkg_a.outer is original


def test_coroutines_are_timed_across_awaits(package):
    import tracedpkg_a

    tracer = Tracer([Target("a.later", ("tracedpkg_a.later",))], prefixes=("tracedpkg",))
    tracer.install()
    assert asyncio.run(tracedpkg_a.later(2)) == 5
    tracer.uninstall()
    assert tracer.snapshot()["layers"]["a.later"]["calls"] == 1


def test_missing_targets_are_absent_not_errors():
    tracer = Tracer(
        [
            Target("gone.module", ("no_such_module_anywhere.f",)),
            Target("gone.function", ("repro.analysis.servers.no_such_function",)),
            Target("gone.method", ("repro.core.rchannel.RChannel.no_such_method",)),
        ]
    )
    status = tracer.install()
    tracer.uninstall()
    assert set(status.values()) == {ABSENT}
    assert tracer.snapshot()["absent"] == ["gone.function", "gone.method", "gone.module"]


def test_design_layers_survive_deleted_program_functions(monkeypatch):
    """Layers the program drops (as planned for ``minimum_budget`` and
    ``design_servers``) report ``absent``; the rest still install."""
    import repro.analysis.servers as servers
    import repro.api  # noqa: F401 -- bound the names before they go

    for name in ("minimum_budget", "design_servers"):
        monkeypatch.delattr(servers, name)
    tracer = Tracer(layers.DESIGN_TARGETS)
    status = tracer.install()
    tracer.uninstall()
    assert status["repro.analysis.servers.minimum_budget"] == ABSENT
    assert status["repro.analysis.servers.design_servers"] == ABSENT
    assert status["repro.synth.search.best_first_assignment"] == INSTALLED
    assert tracer.snapshot()["absent"] == ["analysis.servers.minimum_budget", "synth.seed"]
