"""Expression parser: arithmetic, functions, and rejection of junk."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geosink.expressions import ExpressionError, parse_expression


class TestParseExpression:
    def test_plain_arithmetic(self):
        f = parse_expression("2*x1 + 3", ["x1"])
        assert_allclose(f({"x1": np.array([0.0, 1.0, -2.0])}), [3.0, 5.0, -1.0])

    def test_power_and_unary_minus(self):
        f = parse_expression("-x1^2 + 1", ["x1"])
        assert_allclose(f({"x1": np.array([2.0])}), [-3.0])

    def test_functions_and_pi(self):
        f = parse_expression("cos(2*pi*x1)", ["x1"])
        x = np.linspace(0.0, 1.0, 9)
        assert_allclose(f({"x1": x}), np.cos(2 * np.pi * x), atol=1e-15)

    def test_two_variables(self):
        f = parse_expression("sin(theta)*cos(phi)", ["phi", "theta"])
        out = f({"phi": np.array([0.0]), "theta": np.array([np.pi / 2])})
        assert_allclose(out, [1.0], atol=1e-15)

    def test_constant_expression_returns_scalar(self):
        f = parse_expression("exp(1)", ["x1"])
        assert_allclose(float(f({"x1": np.zeros(4)})), np.e)

    def test_unknown_variable_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("x1 + y", ["x1"])

    def test_unknown_function_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("frob(x1)", ["x1"])

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("cos(2*x1", ["x1"])

    def test_empty_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("   ", ["x1"])

    def test_no_attribute_access(self):
        # the grammar has no dot operator, so there is no path to getattr
        with pytest.raises(ExpressionError):
            parse_expression("x1.__class__", ["x1"])

    def test_source_recorded(self):
        f = parse_expression("x1 + 1", ["x1"])
        assert f.source == "x1 + 1"
        assert f.variables == ("x1",)


_X1 = np.array([0.5, 2.0, -1.5])

# (text, value at x1 = _X1), each value written as the Python it must equal
_ACCEPTED = [
    ("1 + 2*3", 7.0),
    ("2*3 - 4/8", 5.5),
    ("1 - 2 - 3", -4.0),
    ("8 / 4 / 2", 1.0),
    ("(1 - 2) * 3", -3.0),
    ("2^3^2", 512.0),
    ("2**3**2", 512.0),
    ("(2^3)^2", 64.0),
    ("-x1^2", -(_X1**2)),
    ("2^-x1^2", 2.0 ** -(_X1**2)),
    ("-2**2", -4.0),
    ("x1*-x1", -(_X1 * _X1)),
    ("+-+x1", -_X1),
    (".5", 0.5),
    ("5.", 5.0),
    ("1E-2", 0.01),
    ("2.5e+1", 25.0),
    ("00", 0.0),
    ("1 +\n  x1\t* 2", 1.0 + _X1 * 2.0),
    ("  x1  ", _X1),
    ("e", np.e),
    ("pi", np.pi),
    ("exp(1)", np.exp(1.0)),
    ("cos (pi*x1)", np.cos(np.pi * _X1)),
    ("(sin(x1))", np.sin(_X1)),
    ("sin((x1))", np.sin(_X1)),
    ("(" * 100 + "x1" + ")" * 100, _X1),
]

_REJECTED = [
    "x1.real",
    "np.sin(x1)",
    "x1[0]",
    "lambda: 1",
    "(lambda y: y)(x1)",
    "x1 < 1",
    "x1 == 1",
    "x1 and 1",
    "x1 or 1",
    "not x1",
    "~x1",
    "1 if x1 else 2",
    "(y := 1)",
    "x1 @ x1",
    "x1 // 2",
    "x1 % 2",
    "x1 | 1",
    "sin(x=x1)",
    "sin(x1, x1)",
    "sin(x1,)",
    "sin()",
    "sin(*x1)",
    "(sin)(x1)",
    "sin(x1)(x1)",
    "x1(2)",
    "pi(2)",
    "sin",
    "0x10",
    "0o7",
    "0b1",
    "1_000",
    "1j",
    "2.5J",
    "True",
    "None",
    "...",
    "'x1'",
    "b'1'",
    "f'{x1}'",
    "x1 # comment",
    "1e",
    "2pi",
    "1 2",
    "(x1, 1)",
    "[x1]",
    "{x1}",
    "x1 = 1",
    "x1 \\\n+ 1",
    "1)+(2",
    "(1",
    "1 +",
    "2^^3",
    "x1 ** * 2",
    "π",
    "x1\x00",
    "(" * 1000 + "x1" + ")" * 1000,
    "-" * 1000 + "x1",
    "-" * 10000 + "x1",
    "+".join(["x1"] * 5000),
]


class TestGrammarTable:
    @pytest.mark.parametrize("text, want", _ACCEPTED, ids=[repr(t[:24]) for t, _ in _ACCEPTED])
    def test_accepted(self, text, want):
        got = parse_expression(text, ["x1"])({"x1": _X1})
        assert np.array_equal(np.broadcast_to(got, _X1.shape), np.broadcast_to(want, _X1.shape))

    @pytest.mark.parametrize("text", _REJECTED, ids=[repr(t[:24]) for t in _REJECTED])
    def test_rejected(self, text):
        with pytest.raises(ExpressionError):
            parse_expression(text, ["x1"])

    def test_leading_zero_integer_rejected(self):
        # Python's grammar refuses a decimal integer with leading zeros
        with pytest.raises(ExpressionError):
            parse_expression("05", ["x1"])

    def test_nothing_is_evaluated_at_parse_time(self):
        f = parse_expression("1/0 + x1", ["x1"])
        with pytest.raises(ZeroDivisionError):
            f({"x1": _X1})
