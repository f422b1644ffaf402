"""The benchmark's hold on the package, checked without running ``bench/``.

``bench/spans.py`` patches named entry points and ``bench/workloads.py``
calls named public functions and attributes. The tracer raises ``KeyError``
when an attribute it patches is gone, so a deletion in the package that
breaks the benchmark fails here.
"""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

import uwoclink

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return load_bench_module("spans")


@pytest.fixture(scope="module")
def workloads():
    return load_bench_module("workloads")


def test_tracer_patches_and_restores_every_entry_point(spans):
    originals = (uwoclink.modem.add_noise, uwoclink.engine.agc_step,
                 uwoclink.BchCodeSpec.__dict__["decode"])
    with spans.Tracer().installed(uwoclink):
        assert uwoclink.modem.add_noise is not originals[0]
    assert (uwoclink.modem.add_noise, uwoclink.engine.agc_step,
            uwoclink.BchCodeSpec.__dict__["decode"]) == originals


@pytest.mark.parametrize("name", ["green-ook", "blue-nlos-ppm", "inject-dirty"])
def test_workload_call_passes_its_checks(workloads, name):
    workload = workloads.WORKLOADS[name]
    spec = uwoclink.load_preset(workload.preset)
    report = workload.call(uwoclink, spec, 4, 1)
    assert workloads.check_report(workload, spec, report, 4, 1) == []


def test_codec_probe_passes(workloads):
    spec = uwoclink.load_preset("green-125M")
    assert workloads.codec_probe(uwoclink, spec, np.random.default_rng(0), frames=1) == []
