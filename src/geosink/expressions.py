"""Tiny arithmetic expression language for density definitions.

Configs describe log-densities as strings such as
``"0.3*cos(2*pi*x1) + 0.1*sin(4*pi*x2)"``: decimal numbers (``2``, ``.5``,
``5.``, ``1E-2``), ``+ - * /``, powers (``**`` or ``^``, right
associative, so ``2^3^2`` is 512 and ``-x1^2`` is ``-(x1^2)``), unary
minus and plus, parentheses, sin/cos/exp of one argument, the constants
pi and e, and the variable names the caller whitelists. Whitespace and
newlines are free. Python's own parser reads the text (``ast.parse`` in
eval mode); one walk over the tree accepts only those nodes and builds a
closure that evaluates on numpy arrays. Anything else raises
ExpressionError: attributes, subscripts, comparisons, ``//``, ``%``,
keywords, hex or underscored numbers, integers with leading zeros such as
``05``, comments, non-ASCII text. Nothing is evaluated at parse time, and
no ``eval``, ``exec`` or ``compile`` runs on the text.
"""

from __future__ import annotations

import ast
import operator
import re

import numpy as np

__all__ = ["ExpressionError", "parse_expression"]

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": np.pi, "e": np.e}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
# decimal literals only: no hex, octal, binary, underscores or imaginary part
_NUMBER_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")


class ExpressionError(ValueError):
    """Raised for syntax errors or names outside the whitelist."""


def _build(node, text, variables):
    """Evaluator closure env -> value for one whitelisted node."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op = _BINARY[type(node.op)]
        a = _build(node.left, text, variables)
        b = _build(node.right, text, variables)
        return lambda env: op(a(env), b(env))
    if isinstance(node, ast.UnaryOp) and type(node.op) in (ast.USub, ast.UAdd):
        inner = _build(node.operand, text, variables)
        return inner if isinstance(node.op, ast.UAdd) else lambda env: -inner(env)
    if isinstance(node, ast.Call):
        # name(arg) alone: Python also reads (sin)(x), sin(x)(y) and sin(x,)
        func = node.func
        if (not isinstance(func, ast.Name) or func.col_offset != node.col_offset
                or len(node.args) != 1 or node.keywords
                or "," in text[node.args[0].end_col_offset : node.end_col_offset]):
            raise ExpressionError("a call is a function name and one argument, as in sin(x)")
        if func.id not in _FUNCTIONS:
            raise ExpressionError(f"unknown function {func.id!r}")
        arg = _build(node.args[0], text, variables)
        return lambda env, fn=_FUNCTIONS[func.id]: fn(arg(env))
    if isinstance(node, ast.Name):
        if node.id in _CONSTANTS:
            return lambda env, v=_CONSTANTS[node.id]: v
        if node.id in variables:
            return lambda env, name=node.id: env[name]
        raise ExpressionError(f"unknown name {node.id!r} (allowed: "
                              f"{sorted(variables)} plus sin, cos, exp, pi, e)")
    if isinstance(node, ast.Constant):
        # the value is read again from its own digits, as float() reads them
        lexeme = text[node.col_offset : node.end_col_offset]
        if type(node.value) in (int, float) and _NUMBER_RE.fullmatch(lexeme):
            return lambda env, v=float(lexeme): v
        raise ExpressionError(f"unsupported literal {lexeme!r}")
    raise ExpressionError(f"unsupported syntax: {type(node).__name__}")


def parse_expression(text, variables):
    """Compile ``text`` into a callable taking a dict of named arrays.

    Parameters
    ----------
    text : str
        Expression over the given variable names.
    variables : sequence of str
        Names the expression may reference.

    Returns
    -------
    callable
        ``f(env)`` where env maps each variable name to an array; the
        result broadcasts against the inputs. Expressions that use no
        variable return a scalar.
    """
    if not isinstance(text, str) or text.strip() == "":
        raise ExpressionError("empty expression")
    # Python would read a comment as the end of the expression
    if not text.isascii() or "#" in text:
        bad = next(c for c in text if not c.isascii() or c == "#")
        raise ExpressionError(f"unexpected character {bad!r}")
    # one line, so a newline cannot end the expression early
    line = " ".join(text.split()).replace("^", "**")
    try:
        evaluator = _build(ast.parse(line, mode="eval").body, line, frozenset(variables))
    except ExpressionError:
        raise
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        # CPython's parser signals nesting too deep for its stack with
        # RecursionError or MemoryError
        raise ExpressionError(f"invalid expression ({type(exc).__name__}: {exc})") from None
    evaluator.source = text
    evaluator.variables = tuple(variables)
    return evaluator
