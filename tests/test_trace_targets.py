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


SPEC_DIR = os.path.join(os.path.dirname(os.path.dirname(TRACER)),
                        "demos", "specs")


@pytest.mark.parametrize("spec", ["example1d", "phase_plane"])
def test_build_searches_equilibria_once_per_control(spec, monkeypatch):
    """Building both automata on a fresh Pipeline calls
    `lyagate.model.critical_points` once per control: admissibility and
    bounds both read `Pipeline.equilibria`."""
    import lyagate.cli as cli
    import lyagate.model as md

    calls = []
    real = md.critical_points

    def counting(sys, g, *args, **kwargs):
        calls.append(g.name)
        return real(sys, g, *args, **kwargs)

    monkeypatch.setattr(md, "critical_points", counting)
    pipe = cli.Pipeline(cli.SystemSpec.load(
        os.path.join(SPEC_DIR, spec + ".json")))
    for mode in ("cells", "extended-cells"):
        pipe.automaton(mode)
    assert calls == [g.name for g in pipe.spec.controls]


@pytest.mark.parametrize("spec,most", [("example1d", 2), ("phase_plane", 0)])
def test_automata_locate_only_band_matching_level_samples(spec, most,
                                                          monkeypatch):
    """Building both automata on a fresh complex locates only level samples
    listed under an asked cell's band tuple, each at most once: none on
    phase_plane, and at most the 2 crossing points of example1d's level 9.
    A scan of every sample (1020 per build on phase_plane) fails here."""
    import lyagate.cli as cli
    import lyagate.partition as pt

    located = []
    real = pt.locate

    def counting(x, *args, **kwargs):
        located.append(tuple(x))
        return real(x, *args, **kwargs)

    pipe = cli.Pipeline(cli.SystemSpec.load(
        os.path.join(SPEC_DIR, spec + ".json")))
    pipe.complex()
    monkeypatch.setattr(pt, "locate", counting)
    for mode in ("cells", "extended-cells"):
        pipe.automaton(mode)
    assert len(located) <= most
    if spec == "example1d":
        assert located            # the two outer cells touch level 9
        crossing = pipe.complex().level_crossing_points(1, 9.0)
        # the scan locates only the samples the build did not; the sampler
        # returns each of the points -3 and 3 twice, and the complex keeps
        # each once
        assert len(crossing) == 2
        assert sorted(located) == sorted(p for p, _, _ in crossing)
