"""The wrappers are transparent, reach every caller, and record spans
across a fork."""

from __future__ import annotations

import multiprocessing
import sys
import types

import pytest

from perfbench import layers
from perfbench.tracer import Tracer, load_spans


def _work(x, scale=2):
    if x < 0:
        raise ValueError("negative")
    return {"value": x * scale}


@pytest.fixture
def fake_program(monkeypatch):
    """A defining module and a caller that imported its function by name."""
    owner = types.ModuleType("repro_perfbench_fake")
    owner.work = _work
    caller = types.ModuleType("repro_perfbench_caller")
    caller.work = owner.work
    monkeypatch.setitem(sys.modules, owner.__name__, owner)
    monkeypatch.setitem(sys.modules, caller.__name__, caller)
    return owner, caller


def test_wrapper_returns_identical_values_and_reraises(tmp_path,
                                                       fake_program):
    owner, caller = fake_program
    tracer = Tracer(tmp_path)
    tracer.wrap(owner, "work", "fake.work")
    assert owner.work is not _work and caller.work is owner.work
    assert caller.work(3, scale=5) == _work(3, scale=5)
    with pytest.raises(ValueError, match="negative"):
        caller.work(-1)
    assert [span.name for span in tracer.spans] == ["fake.work"] * 2
    tracer.uninstall()
    assert owner.work is _work and caller.work is _work


def test_nested_spans_name_their_parent(tmp_path, fake_program):
    owner, _ = fake_program
    owner.outer = lambda: owner.work(1)
    tracer = Tracer(tmp_path)
    tracer.wrap(owner, "work", "inner")
    tracer.wrap(owner, "outer", "outer")
    owner.outer()
    inner, outer = tracer.spans
    assert inner.parent == outer.span_id and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_wrapper_is_transparent_inside_a_forked_worker(tmp_path,
                                                       fake_program):
    owner, caller = fake_program
    tracer = Tracer(tmp_path / "spans")
    tracer.wrap(owner, "work", "fake.work", dump_in_child=True)
    out = tmp_path / "child.txt"

    def child():
        out.write_text(repr(caller.work(7)))

    def fork_one():
        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(timeout=30)
        assert not process.is_alive() and process.exitcode == 0
        return process.pid

    owner.fork_one = fork_one
    tracer.wrap(owner, "fork_one", "parent.fork")
    child_pid = owner.fork_one()
    tracer.uninstall()
    tracer.dump()
    assert out.read_text() == repr(_work(7))
    spans = {span.name: span for span in load_spans(tmp_path / "spans")}
    assert spans["fake.work"].pid == child_pid
    assert spans["fake.work"].parent == spans["parent.fork"].span_id
    assert spans["parent.fork"].pid != child_pid


def test_uninstall_restores_inherited_methods(tmp_path):
    class Base:
        def method(self):
            return "base"

    class Child(Base):
        pass

    tracer = Tracer(tmp_path)
    tracer.wrap(Child, "method", "child.method")
    assert Child().method() == "base"
    tracer.uninstall()
    assert "method" not in vars(Child)
    assert Child().method() == "base" and tracer.spans[0].name == (
        "child.method")


def test_layer_table_names_calls_the_program_has(tmp_path):
    """Every wrapped path exists, and uninstall restores the program."""
    from repro.api import facade
    from repro.campaign import cache
    from repro.dataset import io

    originals = (io.load_measurement_set, cache.load_measurement_set,
                 facade.prepare)
    tracer = Tracer(tmp_path)
    layers.install(tracer)
    assert cache.load_measurement_set is not originals[1]
    assert cache.load_measurement_set is io.load_measurement_set
    tracer.uninstall()
    assert (io.load_measurement_set, cache.load_measurement_set,
            facade.prepare) == originals
