import copy
import json
import math

import pytest

from diskflow import jsonio
from diskflow.expr import compile_expr, parse
from diskflow.flow import integrate


def test_dumps_is_deterministic():
    obj = {"a": 1 / 3, "b": [1.0, 2.5], "c": {"re": 0.1}}
    assert jsonio.dumps(obj) == jsonio.dumps(obj)


def test_float_formatting_17_digits():
    text = jsonio.dumps({"x": 0.1})
    assert "0.1000000000000000055511151231257827" not in text
    assert json.loads(text)["x"] == 0.1


def test_infinities_and_nan_become_strings():
    out = json.loads(jsonio.dumps({"a": math.inf, "b": -math.inf, "c": math.nan}))
    assert out == {"a": "inf", "b": "-inf", "c": "nan"}


def test_complex_encoding():
    out = json.loads(jsonio.dumps({"mu": 0.5 - 0.25j}))
    assert out["mu"] == {"re": 0.5, "im": -0.25}


def test_string_escaping():
    out = json.loads(jsonio.dumps({"s": 'a"b\\c\nd'}))
    assert out["s"] == 'a"b\\c\nd'


def test_nested_round_trips_via_stdlib():
    obj = {
        "list": [1, 2.5, None, True, False, "x"],
        "empty_list": [],
        "empty_dict": {},
        "nested": {"deep": [{"k": 1j}]},
    }
    parsed = json.loads(jsonio.dumps(obj))
    assert parsed["nested"]["deep"][0]["k"] == {"re": 0.0, "im": 1.0}


def test_dumps_same_bytes_property():
    # a report renders to the same bytes on every call and from a deep
    # copy; keys keep the report's own order (the CLI fixes it in code),
    # so the same report built in another key order parses to the same
    # object and renders the same lines, in another order
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    scalars = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.complex_numbers() | st.text())
    reports = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=20,
    )

    def shuffled(obj, rnd):
        if isinstance(obj, dict):
            keys = list(obj)
            rnd.shuffle(keys)
            return {k: shuffled(obj[k], rnd) for k in keys}
        if isinstance(obj, list):
            return [shuffled(v, rnd) for v in obj]
        return obj

    def lines(text):
        return sorted(line.removesuffix(",") for line in text.splitlines())

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.dictionaries(st.text(), reports, max_size=6), st.randoms())
    def check(report, rnd):
        text = jsonio.dumps(report)
        assert jsonio.dumps(report) == text
        assert jsonio.dumps(copy.deepcopy(report)) == text
        other = jsonio.dumps(shuffled(report, rnd))
        assert json.loads(other) == json.loads(text)
        assert lines(other) == lines(text)

    check()


def test_trajectory_csv_header_and_rows():
    traj = integrate(compile_expr(parse("i*(1-z)^2")), 0j, 1.0)
    text = jsonio.trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,re,im,horocycle,gap"
    assert len(lines) == len(traj.samples) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0


def test_trajectory_csv_row_format_property():
    # each row is printed with one %-format; it must give the bytes of
    # format(v, ".17g") per value, for every float
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    class Rows:
        def __init__(self, row):
            self.row = row

        def csv_rows(self):
            yield self.row

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.tuples(*[st.floats(allow_subnormal=True)] * 5))
    @example((math.inf, -math.inf, math.nan, -0.0, 0.0))
    @example((5e-324, -2.2250738585072014e-308, 1e-310, 1.7976931348623157e308, 0.1))
    @example((-math.nan, 1e16, 1e17, 123456789012345678.0, -1.5))
    def check(row):
        line = jsonio.trajectory_csv(Rows(row)).split("\n")[1]
        assert line == ",".join(format(v, ".17g") for v in row)

    check()


def test_svg_structure():
    fn = compile_expr(parse("i*(1-z)^2"))
    traj = integrate(fn, 0j, 5.0)
    svg = jsonio.render_phase_portrait(fn, trajectories=[traj])
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "<circle" in svg
    assert "<polyline" in svg
    assert svg.count("<path") > 50


def test_svg_deterministic():
    fn = compile_expr(parse("-(1-z)^2"))
    assert jsonio.render_phase_portrait(fn) == jsonio.render_phase_portrait(fn)
