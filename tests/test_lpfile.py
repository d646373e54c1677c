import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flexcep.canonical import EQ, GE, INF, LE, ModelBuilder
from flexcep.lpfile import LpParseError, parse_lp, write_lp


def _round_trip(model):
    buf = io.StringIO()
    write_lp(model, buf)
    return parse_lp(buf.getvalue()), buf.getvalue()


def _assert_same_model(a, b):
    assert a.var_names == b.var_names
    assert np.array_equal(a.var_lb, b.var_lb)
    assert np.array_equal(a.var_ub, b.var_ub)
    assert np.array_equal(a.var_integer, b.var_integer)
    assert a.row_names == b.row_names
    assert np.array_equal(a.row_sense, b.row_sense)
    assert np.array_equal(a.row_rhs, b.row_rhs)
    assert np.array_equal(a.a_indptr, b.a_indptr)
    assert np.array_equal(a.a_indices, b.a_indices)
    assert np.array_equal(a.a_data, b.a_data)
    assert np.array_equal(a.obj, b.obj)
    assert a.obj_offset == b.obj_offset


def test_round_trip_small_model():
    mb = ModelBuilder(name="rt")
    x = mb.add_var("x[a,1]", lb=0.0, ub=4.5, integer=True, obj=2.25)
    y = mb.add_var("y", lb=-INF, ub=INF, obj=-1.0)
    z = mb.add_var("z", lb=-3.0, ub=INF)
    mb.add_obj_offset(17.5)
    mb.add_row("c1", [(x, 1.5), (y, -2.0)], LE, 4.0)
    mb.add_row("c2", [(y, 1.0), (z, 1.0)], GE, -1.0)
    mb.add_row("c3", [(x, 1.0)], EQ, 2.0)
    model = mb.freeze()
    parsed, text = _round_trip(model)
    _assert_same_model(model, parsed)
    assert text.endswith("End\n")


def test_round_trip_g1_ef(g1_ef):
    model, _ = g1_ef
    parsed, _ = _round_trip(model)
    _assert_same_model(model, parsed)


def test_quadratic_rejected(g1_ef):
    from flexcep.canonical import ModelError, QuadTerm
    import dataclasses
    model, _ = g1_ef
    bad = dataclasses.replace(model, quad=(QuadTerm(col=0, coef=1.0, anchor=0.0),))
    with pytest.raises(ModelError, match="linear"):
        write_lp(bad, io.StringIO())


def test_parse_error_reports_line():
    with pytest.raises(LpParseError, match="line 1"):
        parse_lp("garbage before sections\nMinimize\n obj: + 1 x\nEnd\n")


def test_unrecognized_bound_line():
    text = "Minimize\n obj: + 1 x\nSubject To\n c: + 1 x >= 0\nBounds\n x what even\nEnd\n"
    with pytest.raises(LpParseError, match="bound"):
        parse_lp(text)


_SMALL = "Minimize\n obj: + 1.0 x\nSubject To\n{rows}Bounds\n{bounds}End\n"


@pytest.mark.parametrize("text, line, message", [
    (_SMALL.format(rows=" c: + 1.0 x + 1.0 y >= 1.0\n", bounds=" 0.0 <= x <= 5.0\n"),
     4, "'y' is not declared"),
    (_SMALL.format(rows="Binaries\n x\n", bounds=" 0.0 <= x <= 1.0\n"),
     4, "unknown section header 'Binaries'"),
    (_SMALL.format(rows="", bounds=" x <= 5\n"), 5, "unrecognized bound line"),
], ids=["undeclared_column", "unknown_section", "one_sided_bound"])
def test_only_what_the_writer_emits_is_read(text, line, message):
    with pytest.raises(LpParseError, match=message) as raised:
        parse_lp(text)
    assert raised.value.line == line
    assert str(raised.value).startswith(f"line {line}: ")


@st.composite
def small_models(draw):
    n = draw(st.integers(1, 5))
    mb = ModelBuilder(name="h")
    finite = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
    for i in range(n):
        lb = draw(finite)
        ub = lb + draw(st.floats(0, 40, allow_nan=False))
        integer = draw(st.booleans())
        if integer:
            lb, ub = round(lb), round(ub)
            if ub < lb:
                ub = lb
        mb.add_var(f"v{i}", lb=lb, ub=ub, integer=integer,
                   obj=draw(finite))
    for r in range(draw(st.integers(0, 4))):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                             unique=True))
        coeffs = [(c, draw(finite)) for c in cols]
        mb.add_row(f"r{r}", coeffs, draw(st.sampled_from([LE, GE, EQ])), draw(finite))
    mb.add_obj_offset(draw(finite))
    return mb.freeze()


@given(small_models())
@settings(max_examples=40, deadline=None)
def test_round_trip_random_models(model):
    parsed, _ = _round_trip(model)
    _assert_same_model(model, parsed)


def test_emitted_files_are_byte_stable(g1_ef):
    model, _ = g1_ef
    a = io.StringIO()
    b = io.StringIO()
    write_lp(model, a)
    write_lp(model, b)
    assert a.getvalue() == b.getvalue()
    rebuilt = parse_lp(a.getvalue())
    c = io.StringIO()
    write_lp(rebuilt, c)
    assert c.getvalue() == a.getvalue()
