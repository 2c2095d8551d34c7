"""The one flag vocabulary: geom.CODES, its renderer, and its documentation."""
import pathlib
import re

import numpy as np
import pytest

from isacbounds import geom
from isacbounds.errors import NoInformationError, OutOfFieldError, SingularGeometryError

ROOT = pathlib.Path(__file__).resolve().parents[1]
FLAGS = {name: geom.CODES[getattr(geom, name)][2] for name in (
    "COINCIDENT", "OUT_OF_FIELD", "TX_COINCIDENT", "BASELINE", "SINGULAR_JACOBIAN",
    "NO_INFORMATION", "POSITION_SINGULAR", "VELOCITY_SINGULAR")}
FLAGS["SINGULAR_DRAWS"] = geom.SINGULAR_DRAWS
LABELS = [("m", "m"), ("r", "r")]


def test_readme_table_lists_every_flag():
    section = (ROOT / "README.md").read_text().split("\n## Flags\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", section, flags=re.M)
    assert dict(rows) == FLAGS and len(rows) == len(FLAGS)
    assert set(geom.CODES) == {getattr(geom, name) for name in FLAGS if name != "SINGULAR_DRAWS"}


def test_each_flag_text_appears_once_in_the_package():
    sources = "".join(p.read_text() for p in (ROOT / "src" / "isacbounds").glob("*.py"))
    for text in FLAGS.values():
        assert sources.count(text) == 1, text


@pytest.mark.parametrize("code, error, text", [
    (geom.COINCIDENT, SingularGeometryError, "target coincides with node 'a{b}'"),
    (geom.OUT_OF_FIELD, OutOfFieldError, "target behind array of node 'a{b}' (|doa| >= pi/2)"),
    (geom.BASELINE, SingularGeometryError, "target on the tx-rx baseline (ellipse degenerates)"),
    (geom.NO_INFORMATION, NoInformationError, "no link contributes information"),
])
def test_raise_status_texts(code, error, text):
    with pytest.raises(error) as exc:
        geom.raise_status(code, "a{b}")
    assert str(exc.value) == text


def test_render_orders_link_then_cell_flags():
    codes = np.array([[geom.OK, geom.OUT_OF_FIELD, geom.OK, geom.COINCIDENT],
                      [geom.OK, geom.OK, geom.OK, geom.BASELINE]], dtype=np.int8)
    cells = [(geom.POSITION_SINGULAR, np.array([False, True, False, True])),
             (geom.VELOCITY_SINGULAR, np.array([False, True, True, True]))]
    draws = (np.array([0, 3, 0, 5]), 8)
    assert geom.render_flags(LABELS, codes, cells, draws) == [
        (),
        ("m: out-of-field", "position-info-singular", "velocity-info-singular",
         "singular-draws=3/8"),
        ("velocity-info-singular",),
        ("no-information",),  # no link used: that flag alone
    ]

