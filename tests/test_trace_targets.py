"""The benchmark's tracer wraps lyagate entry points by name; they must exist."""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module,attr,name", _targets())
def test_target_resolves(module, attr, name):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    # the tracer swaps the owner's own attribute, so it must not be inherited
    assert callable(vars(owner)[leaf])


def test_check_sound_simulates_through_module_attribute(ex1d, monkeypatch):
    """The tracer counts `sim.*` work by wrapping `lyagate.sim.simulate_closed_loop`;
    `check_sound` must reach it through that attribute, or `sim.steps` reads 0."""
    import lyagate.conformance as cf
    import lyagate.sim as sm

    calls = []
    real = sm.simulate_closed_loop

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sm, "simulate_closed_loop", counting)
    strategy = {c: "g0" for c in ex1d.complex.cell_ids()}
    report = cf.check_sound(ex1d.sys, ex1d.tga, strategy, [ex1d.right],
                            samples=1, horizon=1.0, step=1e-3,
                            controls=ex1d.controls)
    assert report.traces == 1
    assert calls == [1]


def test_point_location_goes_through_module_attributes(ex1d, monkeypatch):
    """The tracer counts `partition.locate_calls` and
    `model.sample_level_set_calls` by wrapping `lyagate.partition.locate` and
    `lyagate.model.sample_level_set`; every point-location path must reach
    them through those attributes, or the counts read 0."""
    import numpy as np

    import lyagate.model as md
    import lyagate.partition as pt

    calls = {"locate": 0, "sample": 0}

    def counting(key, real):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pt, "locate", counting("locate", pt.locate))
    monkeypatch.setattr(md, "sample_level_set",
                        counting("sample", md.sample_level_set))
    cx = pt.build_cells(ex1d.families, ex1d.box, grid=64)   # empty caches
    cx.locate((0.5,))
    assert calls["locate"] == 1
    cx.cell_at((2.0,))
    assert calls["locate"] == 2
    cx.uniform_point_in(ex1d.mid, np.random.default_rng(0))
    assert calls["locate"] >= 3
    before = calls["locate"]
    crossings = cx.level_crossing_points(1, 1.0)
    assert calls["sample"] == 1
    assert calls["locate"] - before >= len(crossings) > 0
