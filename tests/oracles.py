"""Reference implementations that optimised library code is compared with.

``is_product`` and ``derive_products`` are the original MTS algorithms,
kept unchanged: the product check deletes failing pairs from the full
product × family relation until fixpoint (O(n³) on a chain), and the
derivation toggles every may-only transition, reachable or not.

``canonical_key`` is the explorer's original state key, kept
unchanged: a private, fully parenthesised syntax that marks site calls
``C`` and definition calls ``D`` and writes a halted branch as ``.``.

``_halted``, ``_next_due`` and ``_depth_blocked`` are the interpreter's
original separate walks, kept unchanged, for whether a term is halted,
where a quiescent state's Tick goes and whether its quiescence is a
truncation; the step walk now reports all three through its waits.
"""

from __future__ import annotations

import itertools

from orcline.errors import BoundExceeded
from orcline.mts import ActionMismatch, ClauseFailure, Lts, ProductCheck
from orcline.orc_ast import (
    Asymmetric, DefCall, Emit, Expr, Otherwise, Parallel, Pending,
    Sequential, SiteCall, Stop, Var, render_value,
)
from orcline.orc_semantics import Bounds, ExecState


def _outgoing(trans):
    out = {}
    for (src, action, dst) in trans:
        out.setdefault(src, []).append((action, dst))
    return out


def is_product(product, family) -> ProductCheck:
    extra = product.actions - family.actions
    if extra:
        raise ActionMismatch(
            f"product actions not in the family alphabet: {sorted(extra)}")

    p_out = _outgoing(product.trans)
    f_must = _outgoing(family.must)
    f_may = _outgoing(family.may)

    relation = set(itertools.product(sorted(product.states),
                                     sorted(family.states)))
    first_failure = None
    rounds = 0
    while True:
        rounds += 1
        doomed = []
        for (p, q) in sorted(relation):
            fail = None
            for (action, q2) in sorted(f_must.get(q, [])):
                if not any((action2 == action and (p2, q2) in relation)
                           for (action2, p2) in p_out.get(p, [])):
                    fail = ClauseFailure("must-unmatched", p, q, action, q2)
                    break
            if fail is None:
                for (action, p2) in sorted(p_out.get(p, [])):
                    if not any((action2 == action and (p2, q2) in relation)
                               for (action2, q2) in f_may.get(q, [])):
                        fail = ClauseFailure("may-unmatched", p, q, action, p2)
                        break
            if fail is not None:
                doomed.append((p, q))
                if first_failure is None:
                    first_failure = fail
        if not doomed:
            break
        relation.difference_update(doomed)

    initial = (product.init, family.init)
    if initial not in relation:
        return ProductCheck(False, None, first_failure, rounds)

    seen = {initial}
    frontier = [initial]
    while frontier:
        (p, q) = frontier.pop()
        for (action, p2) in p_out.get(p, []):
            for (action2, q2) in f_may.get(q, []):
                if action2 == action and (p2, q2) in relation \
                        and (p2, q2) not in seen:
                    seen.add((p2, q2))
                    frontier.append((p2, q2))
    return ProductCheck(True, frozenset(seen), None, rounds)


def _canonical_reachable(init, trans) -> Lts:
    out = _outgoing(trans)
    rename = {init: "s0"}
    queue = [init]
    while queue:
        src = queue.pop(0)
        for (_, dst) in sorted(out.get(src, [])):
            if dst not in rename:
                rename[dst] = f"s{len(rename)}"
                queue.append(dst)
    kept = frozenset((rename[src], action, rename[dst])
                     for (src, action, dst) in trans if src in rename)
    actions = frozenset(a for (_, a, _) in kept)
    return Lts(frozenset(rename.values()), actions, "s0", kept)


def derive_products(family, max_optional: int = 20) -> list:
    optional = sorted(family.may - family.must)
    if len(optional) > max_optional:
        raise BoundExceeded(
            f"{len(optional)} optional transitions, derivation bound "
            f"is {max_optional}")

    seen = {}
    for mask in range(1 << len(optional)):
        chosen = frozenset(t for i, t in enumerate(optional)
                           if mask & (1 << i))
        product = _canonical_reachable(family.init, family.must | chosen)
        key = (product.states, product.trans)
        if key not in seen:
            seen[key] = product

    def sort_key(lts):
        return (len(lts.states), len(lts.trans), sorted(lts.trans))

    return sorted(seen.values(), key=sort_key)


def _canon_value(v) -> str:
    return v.name if isinstance(v, Var) else render_value(v)


def _canon_pair(e, op: str, parts: list):
    parts.append("(")
    _canon_expr(e.left, parts)
    parts.append(op)
    _canon_expr(e.right, parts)
    parts.append(")")


def _canon_expr(e, parts: list):
    kind = type(e)
    if kind is Parallel:
        _canon_pair(e, "|", parts)
    elif kind is Pending:
        value = "-" if e.value is None else render_value(e.value)
        parts.append(f"?{e.site}:{e.due}:{value}")
    elif kind is SiteCall:
        parts.append(f"C{e.site}({','.join(_canon_value(a) for a in e.args)})")
    elif kind is Sequential:
        _canon_pair(e, f">{e.binder or ''}>", parts)
    elif kind is Emit:
        parts.append(f"!{render_value(e.value)}")
    elif kind is Stop:
        parts.append(".")
    elif kind is Asymmetric:
        _canon_pair(e, f"<{e.binder or ''}<", parts)
    elif kind is Otherwise:
        _canon_pair(e, ";", parts)
    elif kind is DefCall:
        parts.append(f"D{e.name}({','.join(_canon_value(a) for a in e.args)})")


def canonical_key(state) -> str:
    """Stable state identity: the expression with each outstanding
    call's site, due tick and response written at its node, plus clock
    and counters.  Handles are left out: each occurs once in the term,
    so numbering them in walk order would give the k-th Pending k."""
    parts: list = []
    _canon_expr(state.expr, parts)
    parts.append(f"@{state.clock}")
    for name in sorted(state.def_depth):
        parts.append(f"d{name}={state.def_depth[name]}")
    for site in sorted(state.cycles):
        parts.append(f"c{site}={state.cycles[site]}")
    return "\x1f".join(parts)


def _halted(e: Expr) -> bool:
    """Can this subterm never transition or publish again?

    Conservative where variables are involved: a call blocked on an
    unbound variable counts as live, because an enclosing binder may
    still deliver the value.
    """
    if isinstance(e, Stop):
        return True
    if isinstance(e, Pending):
        return e.due is None
    if isinstance(e, (Parallel, Asymmetric)):
        return _halted(e.left) and _halted(e.right)
    if isinstance(e, Sequential):
        return _halted(e.left)
    # SiteCall, DefCall, Emit, Otherwise all still have (potential) moves.
    return False


def _next_due(e: Expr, clock: int):
    """The earliest response due after ``clock``, or None.  Only calls
    still in the term count: a terminated branch took its calls along."""
    if isinstance(e, Pending):
        return e.due if e.due is not None and e.due > clock else None
    if isinstance(e, (Parallel, Sequential, Asymmetric, Otherwise)):
        dues = [d for d in (_next_due(e.left, clock),
                            _next_due(e.right, clock)) if d is not None]
        return min(dues, default=None)
    return None


def _depth_blocked(e: Expr, state: ExecState, bounds: Bounds) -> bool:
    """Is some *active* definition call stuck at the depth bound?"""
    if isinstance(e, DefCall):
        return (not any(isinstance(a, Var) for a in e.args)
                and state.def_depth.get(e.name, 0) >= bounds.max_depth)
    if isinstance(e, (Parallel, Asymmetric)):
        return (_depth_blocked(e.left, state, bounds)
                or _depth_blocked(e.right, state, bounds))
    if isinstance(e, (Sequential, Otherwise)):
        return _depth_blocked(e.left, state, bounds)
    return False
