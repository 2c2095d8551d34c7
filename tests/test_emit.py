"""cli.emit_table against a row-wise oracle.

The oracle is the row-wise writer the columnar one replaced, kept here
verbatim in behaviour: one dict per row, each field rendered on its own by
_fmt ('{:.9g}' for a float, str otherwise; a missing field as empty) through
csv.writer, and JSON records built field by field (a non-finite float is
null and flags the row "infinite" unless it has a flag). The columnar
writer must match it byte for byte.
"""
import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isacbounds import bounds, cli, engine
from isacbounds.errors import BoundsError
from isacbounds.link import link_snr, scalar_crlbs
from isacbounds.model import TargetState

from conftest import SCENARIO_DIR

FORMATS = ("csv", "json")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return None
        return float(f"{value:.9g}")
    return value


def oracle(rows: list[dict], columns: list[str], fmt: str) -> str:
    """What the row-wise writer wrote for rows (dicts, a missing key being a
    blank field)."""
    if fmt == "json":
        records = []
        for row in rows:
            rec = {col: _json_value(row.get(col)) for col in columns}
            nonfinite = any(
                rec[col] is None and isinstance(row.get(col), float)
                for col in columns if col != "flag")
            if nonfinite and not rec.get("flag"):
                rec["flag"] = "infinite"
            records.append(rec)
        return json.dumps(records, indent=2) + "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(row.get(col, "")) for col in columns] for row in rows)
    return out.getvalue()


def emitted(table: cli.Table, fmt: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.emit_table(table, fmt, None)
    return out.getvalue()


def rows_of(table: cli.Table) -> list[dict]:
    """The table as the oracle's rows: a blank cell is a missing key."""
    rows = [{} for _ in range(len(table))]
    for name, col in table.columns.items():
        values = list(col.values)
        index = range(len(values)) if col.index is None else col.index
        for row, i in zip(rows, index):
            if i >= 0:
                row[name] = values[i]
    return rows


def assert_matches_oracle(table: cli.Table) -> None:
    rows = rows_of(table)
    for fmt in FORMATS:
        assert emitted(table, fmt) == oracle(rows, list(table.columns), fmt), fmt


SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 1e300, 0.1234567891234])
FLOATS = st.one_of(SPECIAL_FLOATS, st.floats(allow_nan=True, allow_infinity=True))
INTS = st.integers(-10**12, 10**12)
TEXT = st.text(alphabet=st.sampled_from('ab ,";:\n-.0'), max_size=6)
NAMES = ("x", "y", "metric", "value", "flag", "a,b", 'q"t')


@st.composite
def tables(draw):
    """A table of 0-12 rows: float, int and text columns, each given per
    row or per distinct value with blank cells; float columns sometimes as
    arrays."""
    n_rows = draw(st.integers(0, 12))
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=5, unique=True))
    columns = {}
    for name in names:
        kind = draw(st.sampled_from(("float", "int", "text")))
        cells = {"float": FLOATS, "int": INTS, "text": TEXT}[kind]
        if draw(st.booleans()):
            values = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
            index = None
        else:
            values = draw(st.lists(cells, min_size=1, max_size=4))
            index = draw(st.lists(st.integers(-1, len(values) - 1),
                                  min_size=n_rows, max_size=n_rows))
        if kind == "float" and draw(st.booleans()):
            values = np.array(values, dtype=float)
        columns[name] = cli.Column(values, kind == "float", index)
    return cli.Table(columns)


@settings(max_examples=300, deadline=None)
@given(table=tables())
@example(table=cli.Table({"doa_deg": cli.Column([0.0, -0.0, -0.0, 0.0], True)}))
@example(table=cli.Table({"x": cli.Column([-0.0, 0.0], True, [1, 0, 1, -1]),
                          "value": cli.Column([math.inf, math.nan, -math.inf, 5e-324], True),
                          "flag": cli.Column(["", 'a,"b"'], False, [0, 1, 0, -1])}))
def test_matches_row_wise_oracle(table):
    assert_matches_oracle(table)


def test_negative_zero_keeps_its_sign():
    table = cli.Table({"doa_deg": cli.Column([0.0, -0.0], True, [0, 1, 1, 0])})
    assert emitted(table, "csv") == "doa_deg\n0\n-0\n-0\n0\n"
    assert_matches_oracle(table)


def test_empty_table_is_header_only():
    table = cli.Table({"x": cli.Column(np.empty(0), True), "metric": cli.constant("peb", 0),
                       "flag": cli.Column([])})
    assert len(table) == 0
    assert emitted(table, "csv") == "x,metric,flag\n"
    assert_matches_oracle(table)


def test_columns_of_different_lengths_rejected():
    with pytest.raises(ValueError, match="different lengths"):
        cli.Table({"a": cli.Column([1.0], True), "b": cli.Column([])})


def link_oracle_rows(scenario_path, target) -> list[dict]:
    """The link verb's rows as the row-wise writer's caller built them."""
    s = engine.normalize_power(engine.load_scenario(scenario_path.read_text()))
    t = TargetState(position=target)
    rows = []
    for lk in bounds.sensing_links(s):
        row = {"node": lk.node_id, "kind": lk.kind}
        try:
            g = bounds.link_geometry(lk, t)
            snr = link_snr(s.params, g, t.rcs, lk.power_scale)
            crlbs = scalar_crlbs(s.params, g, t.rcs, lk.power_scale)
            row.update(
                range_tx_m=g.range_tx, range_rx_m=g.range_rx,
                doa_deg=math.degrees(g.doa_local),
                snr_db=10.0 * math.log10(snr["snr"]),
                snr_postdiv_db=10.0 * math.log10(snr["snr_postdiv"]),
                flag="", **crlbs,
            )
        except BoundsError as exc:
            row.update(range_tx_m=math.nan, range_rx_m=math.nan, doa_deg=math.nan,
                       snr_db=math.nan, snr_postdiv_db=math.nan, flag=str(exc))
        rows.append(row)
    return rows


LINK_COLUMNS = ["node", "kind", "range_tx_m", "range_rx_m", "doa_deg", "snr_db",
                "snr_postdiv_db", "crlb_alpha", "crlb_phi", "crlb_fd", "crlb_tau",
                "crlb_theta", "crlb_range", "crlb_bistatic_range", "flag"]


def test_link_row_with_missing_fields_renders_blank(capsys):
    # behind the array of bs1: its row has no CRLBs
    path = SCENARIO_DIR / "mono2.json"
    rows = link_oracle_rows(path, (42.0, -5.0))
    assert "crlb_tau" not in rows[0] and "crlb_tau" in rows[1]
    for fmt in FORMATS:
        assert cli.main(["link", "--scenario", str(path), "--target=42,-5",
                         "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert out == oracle(rows, LINK_COLUMNS, fmt), fmt
    first = next(csv.DictReader(io.StringIO(oracle(rows, LINK_COLUMNS, "csv"))))
    assert first["crlb_tau"] == "" and first["range_tx_m"] == "nan"
