"""The traced benchmark rebinds isacbounds names listed in
perfbench/tracing.py; a refactor that renames or bypasses one of them
breaks `perfbench/run.py --trace 1`. These tests catch that here."""
import importlib
import importlib.util
import pathlib

import isacbounds
from isacbounds import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCENARIO = str(ROOT / "scenarios" / "multistatic3.json")


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracing = load_tracing()
    assert tracing.PACKAGE == isacbounds.__name__
    for mod, attr in tracing.TARGETS:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{mod}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"{mod}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{mod}.{attr}"


def test_every_target_is_on_the_call_path(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = str(tmp_path / "out.csv")
        for argv in (["heatmap", "--grid", "30:32:1,30:32:1", "--metric", "peb"],
                     ["heatmap", "--grid", "30:32:1,30:32:1", "--metric", "veb", "--mc", "4"],
                     ["select-bs", "--target", "30,40", "--choose", "2", "--mc", "4"]):
            assert cli.main(argv + ["--scenario", SCENARIO, "-o", out]) == 0
    finally:
        tracer.uninstall()
    missed = [name for name, calls in zip(tracer.names, tracer.calls) if calls == 0]
    assert missed == []
