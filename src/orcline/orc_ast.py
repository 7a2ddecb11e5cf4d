"""Abstract syntax for the Orc orchestration calculus.

An expression orchestrates *site calls*.  A site is an external (or
built-in) service that is called with value arguments and may respond
at most once.  Expressions are composed with four combinators:

* ``A | B``      -- parallel: run both, merge publications; ``|`` is
                    associative, and one node holds all the branches
                    of ``A | B | C``.
* ``A >x> B``    -- sequential: each value published by A starts a
                    fresh copy of B with x bound to that value.
* ``A <x< B``    -- asymmetric: run both; the first value published by
                    B is bound to x in A and B is then terminated.
* ``A ; B``      -- otherwise: run A; if A halts without having
                    published anything, run B instead.

Expression nodes are immutable.  Two extra node kinds never appear in
source programs and only arise during evaluation: ``Pending`` (a site
call waiting for its response) and ``Emit`` (a response that has
arrived and is about to be published).  ``Stop`` is the inert
expression with no behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union


class Signal:
    """The unit value.  Sites that "respond with a signal" produce it.

    There is one interned instance, ``SIGNAL``; all instances compare
    equal regardless.
    """

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, Signal)

    def __hash__(self):
        return hash(Signal)

    def __repr__(self):
        return "signal"


SIGNAL = Signal()

#: Values a site may respond with and an expression may publish.
#: Tuples only arise from the identity site applied to several
#: arguments and are always non-empty.
Value = Union[Signal, bool, int, str, tuple]


@dataclass(frozen=True)
class Var:
    """A variable occurrence in argument position.

    Variables are introduced by the binders of ``>x>`` and ``<x<`` and
    disappear by substitution as soon as the binder receives a value; a
    Var remaining in an expression is therefore an *unbound* one.
    """

    name: str

    def __repr__(self):
        return f"Var({self.name})"


#: What may appear as an argument of a call: a literal value or a
#: not-yet-substituted variable.
Arg = Union[Value, Var]


@dataclass(frozen=True)
class SiteCall:
    site: str
    args: tuple = ()


@dataclass(frozen=True)
class DefCall:
    """Call to a declared definition (expanded by the evaluator)."""

    name: str
    args: tuple = ()


@dataclass(frozen=True, init=False)
class Parallel:
    """``b0 | b1 | ... | bn``: every branch runs, and their publications
    merge.  ``branches`` holds at least two expressions.

    ``|`` is associative, so the constructor flattens a Parallel given
    in first position into its branches: the left-nested spine that
    ``a | b | c`` parses to is one node, and ``Parallel(Parallel(a, b),
    c) == Parallel(a, b, c)``.  A Parallel in any other position stays
    nested, so ``a | (b | c)`` keeps its shape and a term prints back
    as it was written.  ``Parallel(a, b)`` is the binary form.
    """

    branches: tuple

    def __init__(self, *branches):
        if len(branches) < 2:
            raise TypeError("Parallel needs at least two branches")
        if type(branches[0]) is Parallel:
            branches = branches[0].branches + branches[1:]
        object.__setattr__(self, "branches", branches)


@dataclass(frozen=True)
class Sequential:
    """``left >binder> right``; ``binder`` is None for ``>>``."""

    left: "Expr"
    binder: "str | None"
    right: "Expr"


@dataclass(frozen=True)
class Asymmetric:
    """``left <binder< right``; ``binder`` is None for ``<<``."""

    left: "Expr"
    binder: "str | None"
    right: "Expr"


@dataclass(frozen=True)
class Otherwise:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pending:
    """An outstanding call to ``site``, identified by its fresh handle.

    ``due`` (the clock tick of the response, or None if the call never
    responds) and ``value`` (the response) are fixed when the call is
    made.  The call lives only here: discarding the node abandons it.
    """

    handle: int
    site: str
    due: "int | None"
    value: "Value | None"


@dataclass(frozen=True)
class Emit:
    """A value that has been returned and is ready to be published."""

    value: Value


@dataclass(frozen=True)
class Stop:
    """The halted expression.  Publishes nothing, never steps."""


STOP = Stop()

#: Sites the semantics answers itself, whatever a program declares.
BUILTIN_SITES = frozenset(("0", "Signal", "let", "if", "Rtimer"))

Expr = Union[
    SiteCall, DefCall, Parallel, Sequential, Asymmetric, Otherwise,
    Pending, Emit, Stop,
]


@dataclass(frozen=True)
class SiteSpec:
    """Behaviour of an external site.

    ``responses`` are produced cyclically across successive calls (most
    sites have exactly one).  A site with no responses accepts calls but
    never responds.  ``delay`` is in virtual clock ticks.
    """

    responses: tuple = (SIGNAL,)
    delay: int = 0


@dataclass(frozen=True)
class Definition:
    params: tuple
    body: Expr


@dataclass(frozen=True)
class Program:
    goal: Expr
    definitions: dict = field(default_factory=dict)
    site_env: dict = field(default_factory=dict)

    def __post_init__(self):
        # Freeze the mapping contents against accidental aliasing bugs;
        # dicts still compare by value, which Program equality relies on.
        object.__setattr__(self, "definitions", dict(self.definitions))
        object.__setattr__(self, "site_env", dict(self.site_env))


def _subst_args(args: tuple, name: str, value: Value) -> tuple:
    return tuple(value if isinstance(a, Var) and a.name == name else a
                 for a in args)


def substitute(expr: Expr, name: str, value: Value) -> Expr:
    """Replace every free occurrence of ``name`` in ``expr`` by ``value``.

    Occurrences under a combinator that rebinds the same name are left
    alone: in ``A >x> B`` the binder scopes over B, in ``A <x< B`` it
    scopes over A.
    """
    if isinstance(expr, (SiteCall, DefCall)):
        new_args = _subst_args(expr.args, name, value)
        if new_args == expr.args:
            return expr
        if isinstance(expr, SiteCall):
            return SiteCall(expr.site, new_args)
        return DefCall(expr.name, new_args)
    if isinstance(expr, Parallel):
        return Parallel(*[substitute(b, name, value)
                          for b in expr.branches])
    if isinstance(expr, Sequential):
        left = substitute(expr.left, name, value)
        right = expr.right if expr.binder == name else substitute(
            expr.right, name, value)
        return Sequential(left, expr.binder, right)
    if isinstance(expr, Asymmetric):
        left = expr.left if expr.binder == name else substitute(
            expr.left, name, value)
        return Asymmetric(left, expr.binder,
                          substitute(expr.right, name, value))
    if isinstance(expr, Otherwise):
        return Otherwise(substitute(expr.left, name, value),
                         substitute(expr.right, name, value))
    # Pending, Emit, Stop carry no variables.
    return expr


def free_vars(expr: Expr) -> frozenset:
    """The set of unbound variable names occurring in ``expr``."""
    if isinstance(expr, (SiteCall, DefCall)):
        return frozenset(a.name for a in expr.args if isinstance(a, Var))
    if isinstance(expr, Parallel):
        return frozenset().union(*map(free_vars, expr.branches))
    if isinstance(expr, Otherwise):
        return free_vars(expr.left) | free_vars(expr.right)
    if isinstance(expr, Sequential):
        scoped = free_vars(expr.right)
        if expr.binder is not None:
            scoped = scoped - {expr.binder}
        return free_vars(expr.left) | scoped
    if isinstance(expr, Asymmetric):
        scoped = free_vars(expr.left)
        if expr.binder is not None:
            scoped = scoped - {expr.binder}
        return scoped | free_vars(expr.right)
    return frozenset()


def render_value(value: Value) -> str:
    """Concrete syntax for a value, with no internal whitespace.

    The output is what the parser accepts in argument position (tuples
    and signals cannot be written in source, but render unambiguously
    for traces and transition labels).
    """
    if isinstance(value, Signal):
        return "signal"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        import json
        return json.dumps(value)
    if isinstance(value, tuple):
        return "(" + ",".join(render_value(v) for v in value) + ")"
    raise TypeError(f"not a value: {value!r}")


def value_sort_key(value: Value) -> str:
    """A total order on values, used to normalise publication multisets."""
    return render_value(value)


# How loosely each combinator binds (see the grammar in orc_parser);
# every other node is a primary, level 5.  ``_render(e, floor)``
# parenthesises a combinator that binds more loosely than ``floor``.
_LEVEL = {Otherwise: 1, Asymmetric: 2, Parallel: 3, Sequential: 4}


def _render_args(args: tuple) -> str:
    return ", ".join(a.name if type(a) is Var else render_value(a)
                     for a in args)


def _render(e: Expr, floor: int) -> str:
    kind = type(e)
    if kind is Parallel:
        # ``|`` is left-associative, so a branch that is itself a ``|``
        # needs parentheses; in first position there is none to print,
        # since the constructor flattens it.
        text = " | ".join([_render(b, 4) for b in e.branches])
    elif kind is Sequential:
        text = (f"{_render(e.left, 5)} >{e.binder or ''}> "
                f"{_render(e.right, 4)}")
    elif kind is Asymmetric:
        text = (f"{_render(e.left, 3)} <{e.binder or ''}< "
                f"{_render(e.right, 2)}")
    elif kind is Otherwise:
        text = f"{_render(e.left, 1)} ; {_render(e.right, 2)}"
    elif kind is SiteCall:
        if e.site == "0" and not e.args:
            return "0"
        return f"{e.site}({_render_args(e.args)})"
    elif kind is Pending:
        due = "-" if e.due is None else e.due
        value = "-" if e.value is None else render_value(e.value)
        return f"?{e.site}:{due}:{value}"
    elif kind is Emit:
        return f"!{render_value(e.value)}"
    elif kind is DefCall:
        return f"{e.name}({_render_args(e.args)})"
    elif kind is Stop:
        return "stop"
    else:
        raise TypeError(f"not an expression: {e!r}")
    return f"({text})" if _LEVEL[kind] < floor else text


def render_expr(e: Expr) -> str:
    """Concrete syntax for ``e``, parenthesised only where precedence
    needs it; ``parse_expr(render_expr(e)) == e`` for source terms.

    Runtime nodes print as primaries that no source term prints as:
    ``Pending`` as ``?site:due:value`` (``-`` for a call that never
    responds), without its handle, ``Emit`` as ``!value`` and ``Stop``
    as ``stop``.
    """
    return _render(e, 1)
