"""Hypothesis fuzz of the command line.

Every verb is run through cli.main with argv built from valid values and,
now and then, malformed or extreme numbers (nan, +-inf, 1e400, negative,
zero, non-integral), on small generated scenario documents whose values are
now and then malformed too. Every run must end in a documented exit code,
0, 2 (usage or malformed input; argparse's own errors included), 3 or 4,
or 1 from validate, and never raise. Sizes are bounded: at most ~400 grid
cells, --mc <= 64, --choose <= 4, validate --draws <= 3.
"""
import contextlib
import io
import json
import math
import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isacbounds import cli, engine

from test_map_kernel import mixed_networks

SCENARIO_DIR = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
BAD_NUMBERS = ("nan", "inf", "-inf", "1e400", "-1e400", "-3", "-0.5", "2.5", "0")
BAD_VALUES = (math.nan, math.inf, -math.inf, -3.0, -0.5, 2.5, 0.0)
VERBS = ("link", "peb", "veb", "heatmap", "sweep", "select-bs", "select-tx", "validate")


def number(valid):
    """A valid value as text, or one time in four a malformed one."""
    return st.integers(0, 3).flatmap(
        lambda k: st.sampled_from(BAD_NUMBERS) if k == 0 else valid.map(str))


def pair(valid):
    return st.tuples(number(valid), number(valid)).map(",".join)


coords = st.integers(-2, 8) | st.floats(-2.0, 8.0)


@st.composite
def documents(draw):
    """A shipped scenario, or a generated network whose document has, one
    time in three, a node or radio value, a node or the params replaced by
    a malformed one."""
    if draw(st.booleans()):
        return json.loads((SCENARIO_DIR / draw(st.sampled_from(
            ["mono2.json", "mono4.json", "multistatic2.json", "multistatic3.json"]))).read_text())
    doc = engine.dump_scenario(draw(mixed_networks()))
    if draw(st.integers(0, 2)) == 0:
        value = draw(st.sampled_from(BAD_VALUES))
        key = draw(st.sampled_from(("position", "orientation_deg", "power_scale", "carrier_freq",
                                    "n_rx_ant", "frac_subcarriers", "total_power", "node",
                                    "params")))
        if key in ("carrier_freq", "n_rx_ant", "frac_subcarriers", "total_power"):
            doc["params"][key] = value
        elif key == "params":  # not an object
            doc["params"] = [value]
        elif key == "node":
            doc["nodes"][0] = value
        else:
            node = draw(st.sampled_from(doc["nodes"]))
            node[key] = [value, 1.0] if key == "position" else value
    return doc


@st.composite
def argvs(draw, verb, path):
    """argv of one verb on the scenario file at path."""
    mc = ["--mc", draw(number(st.integers(1, 64))), "--seed", draw(number(st.integers(0, 9))),
          "--speed", draw(number(st.floats(1.0, 40.0)))]
    metric = ["--metric", draw(st.sampled_from(engine.METRICS))]
    fmt = ["--format", draw(st.sampled_from(("csv", "json")))]
    if verb == "validate":
        return [verb, "--seed", draw(number(st.integers(0, 9))),
                "--draws", draw(number(st.integers(0, 3)))] + fmt
    argv = [verb, "--scenario", path, "--rcs", draw(number(st.floats(0.1, 10.0)))] + fmt
    if verb != "heatmap":
        argv += ["--target", draw(pair(coords))]
    if verb == "veb":
        if draw(st.booleans()):
            argv += ["--velocity", draw(pair(st.floats(-30.0, 30.0)))]
            argv += ["--exact"] if draw(st.booleans()) else []
        argv += mc
    elif verb == "heatmap":
        step = draw(st.sampled_from((1.0, 2.0, 2.5)))
        x0, y0 = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        x1, y1 = (v + step * draw(st.integers(1, 19)) for v in (x0, y0))
        fields = [str(v) for v in (x0, x1, step, y0, y1, step)]
        if draw(st.booleans()):
            fields[draw(st.integers(0, 5))] = draw(st.sampled_from(BAD_NUMBERS))
        argv += ["--grid", "{}:{}:{},{}:{}:{}".format(*fields)] + metric + mc
    elif verb == "sweep":
        parameter = draw(st.sampled_from(engine.SWEEP_PARAMETERS))
        valid = (st.integers(1, 32) if parameter == "n_rx_ant"
                 else st.floats(0.01, 1.0))
        values = draw(st.lists(number(valid), min_size=1, max_size=3))
        argv += ["--parameter", parameter, "--values", ",".join(values)] + metric + mc
    elif verb == "select-bs":
        argv += ["--choose", draw(number(st.integers(1, 4)))] + metric + mc
    elif verb == "select-tx":
        argv += metric + mc
    return argv


@pytest.mark.parametrize("verb", VERBS)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_run_ends_in_a_documented_exit_code(verb, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "s.json"
        path.write_text(json.dumps(data.draw(documents())))
        argv = data.draw(argvs(verb, str(path)))
        if data.draw(st.integers(0, 9)) == 0:  # an unwritable output path
            argv += ["-o", str(pathlib.Path(tmp) / "missing" / "out.csv")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    assert code in ((0, 1, 2, 3, 4) if verb == "validate" else (0, 2, 3, 4)), (argv, err.getvalue())
    assert code == 0 or err.getvalue(), argv
