"""Reference implementations that optimised library code is compared with.

``is_product`` and ``derive_products`` are the original MTS algorithms,
kept unchanged: the product check deletes failing pairs from the full
product × family relation until fixpoint (O(n³) on a chain), and the
derivation toggles every may-only transition, reachable or not.
``parse_transition_file`` is the .mts/.lts reader that kept the
declared states in a list (O(states) a membership test) and found
every word's column with a regular expression; the reader now keeps a
set, splits with ``str.split`` and finds a column only for a
diagnostic.

``canonical_key`` is the explorer's original state key, kept
unchanged: a private, fully parenthesised syntax that marks site calls
``C`` and definition calls ``D`` and writes a halted branch as ``.``.

``_halted``, ``_next_due`` and ``_depth_blocked`` are the interpreter's
original separate walks, kept unchanged, for whether a term is halted,
where a quiescent state's Tick goes and whether its quiescence is a
truncation; the step walk now reports all three through its waits.

``_expr_steps``, ``_enabled``, ``_apply`` and ``run`` are the step walk
that built every enabled step's successor term; steps now name the
node they rewrite, and ``_apply`` builds the one successor taken.
``safe`` picks the steps of that walk that a reduced exploration may
follow alone, with a publication bound of its own (unbounded as inf,
not capped).

These walks are binary: they read a ``|`` of n branches as the
left-nested spine it flattens, through ``_sides``, build ``|`` with the
binary ``_par``, and give steps binary positions.  ``Parallel``'s
constructor flattens what ``_par`` builds, so their terms compare
equal with the library's.

``_slots``, ``_configurations``, ``_constraints_hold`` and
``_iter_products`` are the feature-model enumerator that built every
product as a frozenset, and ``_sorted_products`` is the command line's
sort of those sets into its order (by size, then by the sorted name
lists); products are now enumerated as bit masks.

``_sorted_masks``, ``_decode`` and ``joined_products`` are the mask
decoder that wrote each product as one string: it sorted the masks
twice (descending, then stably by ``int.bit_count``) and concatenated
each product's string from per-byte tables; the command line now sorts
keys that hold its order and writes two table lookups a product.

``streamed_count`` is the bit-mask count that streamed every candidate
of the tree through the cross-tree constraint filter (or multiplied
without constraints); counting now conditions on the features that the
constraints touch.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
from operator import itemgetter

from orcline.errors import BoundExceeded
from orcline.feature_model import (
    MAX_ENUMERATION_FEATURES, FeatureModel, Requires,
)
from orcline.mts import ActionMismatch, ClauseFailure, Lts, ProductCheck
from orcline.orc_ast import (
    STOP, Asymmetric, DefCall, Emit, Expr, Otherwise, Parallel, Pending,
    Program, Sequential, SiteCall, Stop, Var, render_value, substitute,
)
from orcline.orc_parser import ParseDiagnostic, ParseError, SourceSpan
from orcline.orc_semantics import (
    _DEPTH, _PRIO_BIND, _PRIO_CALL, _PRIO_EXPAND, _PRIO_FALLBACK,
    _PRIO_PUBLISH, _PRIO_RETURN, _PRIO_SEQ_SPAWN, _PRIO_TICK, _UNBOUND,
    INTERNAL, Bounds, Call, ExecState, Publish, Return, Tick, Trace,
    _resolve_call, _seq,
)


def _sides(e) -> tuple:
    """``(left, right)`` of a binary node; a ``|`` reads as the binary
    node of its left-nested spine: all branches but the last, then the
    last."""
    if type(e) is Parallel:
        *init, last = e.branches
        return (init[0] if len(init) == 1 else Parallel(*init)), last
    return e.left, e.right


def _par(left: Expr, right: Expr) -> Expr:
    # A finished side disappears; Parallel(Stop, X) behaves as X.
    if type(left) is Stop:
        return right
    if type(right) is Stop:
        return left
    return Parallel(left, right)


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
        return ProductCheck(None, first_failure, rounds)

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
    return ProductCheck(frozenset(seen), None, rounds)


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


def _ts_lines(src: str):
    for lineno, raw in enumerate(src.splitlines(), start=1):
        line = raw.split("--", 1)[0]
        tokens = [(m.group(), m.start() + 1)
                  for m in re.finditer(r"\S+", line)]
        if tokens:
            yield lineno, tokens


def parse_transition_file(src: str, kind: str):
    """Shared reader for .mts (must/may lines) and .lts (trans lines)."""
    diags: list = []
    states: list = []
    init = None
    triples: dict = {"must": set(), "may": set(), "trans": set()}
    allowed = ("must", "may") if kind == "mts" else ("trans",)
    header_seen = False

    def err(lineno, col, msg):
        diags.append(ParseDiagnostic(SourceSpan(lineno, col), msg, "error"))

    for lineno, tokens in _ts_lines(src):
        word, col = tokens[0]
        if not header_seen:
            if word != kind or len(tokens) != 2:
                err(lineno, col,
                    f"expected header '{kind} NAME' on the first line")
            header_seen = True
            if word == kind:
                continue
        if word == "states":
            for (name, c) in tokens[1:]:
                if name in states:
                    err(lineno, c, f"state {name!r} declared twice")
                else:
                    states.append(name)
        elif word == "init":
            if len(tokens) != 2:
                err(lineno, col, "expected 'init STATE'")
                continue
            if init is not None:
                err(lineno, col, "init state declared twice")
            init = tokens[1][0]
            if init not in states:
                err(lineno, tokens[1][1],
                    f"init state {init!r} is not declared")
        elif word in allowed:
            if len(tokens) != 4:
                err(lineno, col, f"expected '{word} SRC ACTION DST'")
                continue
            (src_s, c1), (action, _), (dst_s, c3) = tokens[1:]
            ok = True
            for (s, c) in ((src_s, c1), (dst_s, c3)):
                if s not in states:
                    err(lineno, c, f"state {s!r} is not declared")
                    ok = False
            if ok:
                triples[word].add((src_s, action, dst_s))
        else:
            err(lineno, col, f"unknown directive {word!r}")

    if init is None:
        err(1, 1, "missing init state")
    if any(d.severity == "error" for d in diags):
        raise ParseError(diags)
    return frozenset(states), init, triples


def _canon_value(v) -> str:
    return v.name if isinstance(v, Var) else render_value(v)


def _canon_pair(e, op: str, parts: list):
    left, right = _sides(e)
    parts.append("(")
    _canon_expr(left, parts)
    parts.append(op)
    _canon_expr(right, parts)
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
        left, right = _sides(e)
        return _halted(left) and _halted(right)
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
        dues = [d for d in (_next_due(side, clock) for side in _sides(e))
                if d is not None]
        return min(dues, default=None)
    return None


def _depth_blocked(e: Expr, state: ExecState, bounds: Bounds) -> bool:
    """Is some *active* definition call stuck at the depth bound?"""
    if isinstance(e, DefCall):
        return (not any(isinstance(a, Var) for a in e.args)
                and state.def_depth.get(e.name, 0) >= bounds.max_depth)
    if isinstance(e, (Parallel, Asymmetric)):
        left, right = _sides(e)
        return (_depth_blocked(left, state, bounds)
                or _depth_blocked(right, state, bounds))
    if isinstance(e, (Sequential, Otherwise)):
        return _depth_blocked(e.left, state, bounds)
    return False


# ---------------------------------------------------------------------------
# The step walk that rebuilt a successor term for every enabled step.
#
# ``_expr_steps``, ``_enabled`` and ``_apply`` are kept unchanged: each
# step carried the whole rewritten term, rebuilt at every enclosing
# node, and ``run`` kept one of them.  ``run`` is the library's run
# loop on top of them; it returns ``(trace, exceeded)`` instead of
# raising, so its bound message does not enter the comparison.

def _expr_steps(e: Expr, path: tuple, state: ExecState, program: Program,
                bounds: Bounds, waits: list) -> list:
    """The enabled steps of subterm ``e`` at ``path``, unsorted.

    A step is a plain tuple ``(priority, position, event, expr,
    def_name, cycle_site)``: ``expr`` replaces ``e``, ``def_name`` is
    the definition expanded and ``cycle_site`` the multi-response site
    called, or None.  Each enclosing node rebuilds only ``expr`` (and,
    for a spawn or a bind, the first three fields).
    """
    kind = type(e)
    if kind is SiteCall:
        if any(isinstance(a, Var) for a in e.args):
            waits.append(_UNBOUND)
            return []
        due, value, cycled = _resolve_call(e.site, e.args, state.clock,
                                           program, state.cycles)
        handle = state.next_handle
        return [(_PRIO_CALL, path, Call(e.site, handle, e.args),
                 Pending(handle, e.site, due, value), None, cycled)]

    if kind is Pending:
        if e.due is None:
            return []  # never responds
        if e.due <= state.clock:
            return [(_PRIO_RETURN, path, Return(e.site, e.handle, e.value),
                     Emit(e.value), None, None)]
        waits.append(e.due)
        return []

    if kind is Emit:
        return [(_PRIO_PUBLISH, path, Publish(e.value), STOP, None, None)]

    if kind is DefCall:
        if any(isinstance(a, Var) for a in e.args):
            waits.append(_UNBOUND)
            return []
        d = program.definitions[e.name]
        if state.def_depth.get(e.name, 0) >= bounds.max_depth:
            waits.append(_DEPTH)  # surfaces as truncation, not as halting
            return []
        body = d.body
        for p, a in zip(d.params, e.args):
            body = substitute(body, p, a)
        return [(_PRIO_EXPAND, path, INTERNAL, body, e.name, None)]

    if kind is Parallel:
        left, right = _sides(e)
        out = [(prio, pos, ev, _par(x, right), dn, cs)
               for (prio, pos, ev, x, dn, cs)
               in _expr_steps(left, path + (0,), state, program, bounds,
                             waits)]
        out += [(prio, pos, ev, _par(left, x), dn, cs)
                for (prio, pos, ev, x, dn, cs)
                in _expr_steps(right, path + (1,), state, program, bounds,
                              waits)]
        return out

    if kind is Sequential:
        out = []
        for (prio, pos, ev, x, dn, cs) in _expr_steps(
                e.left, path + (0,), state, program, bounds, waits):
            rest = _seq(x, e.binder, e.right)
            if type(ev) is Publish:
                inst = e.right
                if e.binder is not None:
                    inst = substitute(e.right, e.binder, ev.value)
                out.append((_PRIO_SEQ_SPAWN, path, INTERNAL,
                            _par(rest, inst), dn, cs))
            else:
                out.append((prio, pos, ev, rest, dn, cs))
        return out

    if kind is Asymmetric:
        out = [(prio, pos, ev, Asymmetric(x, e.binder, e.right), dn, cs)
               for (prio, pos, ev, x, dn, cs)
               in _expr_steps(e.left, path + (0,), state, program, bounds,
                              waits)]
        for (prio, pos, ev, x, dn, cs) in _expr_steps(
                e.right, path + (1,), state, program, bounds, waits):
            if type(ev) is Publish:
                bound = e.left
                if e.binder is not None:
                    bound = substitute(e.left, e.binder, ev.value)
                out.append((_PRIO_BIND, path, INTERNAL, bound, dn, cs))
            else:
                out.append((prio, pos, ev, Asymmetric(e.left, e.binder, x),
                            dn, cs))
        return out

    if kind is Otherwise:
        waiting = len(waits)
        left_steps = _expr_steps(e.left, path + (0,), state, program,
                                 bounds, waits)
        # A publication settles the choice: B is discarded.
        out = [s if type(s[2]) is Publish
               else s[:3] + (Otherwise(s[3], e.right),) + s[4:]
               for s in left_steps]
        if not left_steps and len(waits) == waiting:  # A is halted
            out.append((_PRIO_FALLBACK, path, INTERNAL, e.right, None, None))
        return out

    return []  # Stop


def _enabled(state: ExecState, program: Program, bounds: Bounds) -> tuple:
    waits: list = []
    steps = _expr_steps(state.expr, (), state, program, bounds, waits)
    if steps:
        steps.sort(key=itemgetter(0, 1))
    else:
        target = min((w for w in waits if type(w) is int), default=None)
        if target is not None:
            steps = [(_PRIO_TICK, (), Tick(target), state.expr, None, None)]
    return steps, waits


def _apply(state: ExecState, s: tuple) -> ExecState:
    priority, _, event, expr, def_name, cycle_site = s
    clock, next_handle = state.clock, state.next_handle
    if priority == _PRIO_CALL:
        next_handle += 1
    elif priority == _PRIO_TICK:
        clock = event.clock
    def_depth = state.def_depth
    if def_name is not None:
        def_depth = dict(def_depth)
        def_depth[def_name] = def_depth.get(def_name, 0) + 1
    cycles = state.cycles
    if cycle_site is not None:
        cycles = dict(cycles)
        cycles[cycle_site] = cycles.get(cycle_site, 0) + 1
    return ExecState(expr, clock, next_handle, def_depth, cycles)


def _publications(e: Expr):
    """At most how many more times ``e`` can publish: inf for a
    definition call, whose expansions are unknown."""
    if isinstance(e, (SiteCall, Pending, Emit)):
        return 1
    if isinstance(e, DefCall):
        return math.inf
    if isinstance(e, Stop):
        return 0
    left, right = _sides(e)
    if isinstance(e, Parallel):
        return _publications(left) + _publications(right)
    if isinstance(e, Otherwise):
        return max(_publications(left), _publications(right))
    if isinstance(e, Asymmetric):
        return _publications(left)
    left, right = _publications(left), _publications(right)  # >x>
    return left * right if left and right else 0


def safe(state: ExecState, s: tuple) -> bool:
    """Is step ``s`` of ``_enabled`` one that a reduced exploration may
    follow alone: a Return, a publication, a fallback, a Call that
    advances no response counter, or the spawn of a ``>x>`` whose left
    operand can publish at most once more?"""
    priority, position, *_, cycle_site = s
    if priority in (_PRIO_RETURN, _PRIO_PUBLISH, _PRIO_FALLBACK):
        return True
    if priority == _PRIO_CALL:
        return cycle_site is None
    if priority != _PRIO_SEQ_SPAWN:
        return False
    node = state.expr
    for i in position:
        node = _sides(node)[i]
    return _publications(node.left) <= 1


def run(program: Program, seed=None, bounds: Bounds = Bounds()) -> tuple:
    rng = None if seed is None else random.Random(seed)
    state = ExecState(program.goal)
    events: list = []
    taken = 0
    while True:
        steps, waits = _enabled(state, program, bounds)
        if not steps:
            return Trace(events, truncated=_DEPTH in waits), False
        if taken >= bounds.max_steps:
            return Trace(events, truncated=True), True
        chosen = steps[0] if rng is None else \
            steps[rng.randrange(len(steps))]
        event = chosen[2]
        events.append((state.clock, event))
        state = _apply(state, chosen)
        taken += 1


def _constraints_hold(fm: FeatureModel, selected: frozenset) -> bool:
    for c in fm.constraints:
        if isinstance(c, Requires):
            if c.a in selected and c.b not in selected:
                return False
        else:
            if c.a in selected and c.b in selected:
                return False
    return True


def _slots(fm: FeatureModel, name: str) -> list:
    """One list of choices per slot under a selected ``name``: each
    mandatory or optional child (an optional one may also be left out)
    and each alternative group.  Tree rules only; cross-tree
    constraints are filtered at the top."""
    slots = []
    optional, mandatory, groups = fm.child_table[name]
    for child in optional + mandatory:
        sub = list(_configurations(fm, child))
        if fm.features[child].kind == "optional":
            sub = [frozenset()] + sub
        slots.append(sub)
    for g in groups:
        slots.append([option for m in g.members
                      for option in _configurations(fm, m)])
    return slots


def _configurations(fm: FeatureModel, name: str):
    """Lazily, every way of configuring the subtree rooted at ``name``,
    given that ``name`` itself is selected."""
    return itertools.starmap(frozenset((name,)).union,
                             itertools.product(*_slots(fm, name)))


def _iter_products(fm: FeatureModel):
    # Streams, so the constraint filter never materialises the full
    # cartesian product.
    return filter(functools.partial(_constraints_hold, fm),
                  _configurations(fm, fm.root))


def _sorted_products(products) -> list:
    return sorted((sorted(p) for p in products),
                  key=lambda names: (len(names), names))


def _product_masks(fm: FeatureModel) -> tuple:
    """``(names, rows)``: the model's feature names in sorted order and
    a stream of its products as int lists, one row at a time.  Each
    subtree's configurations are an int list; the root's slots, with
    those of the mandatory features under it, go to two lists of
    balanced size, and a row is one left mask plus every right mask,
    filtered by the cross-tree constraints."""
    names = sorted(fm.features)
    bit = {name: 1 << i for i, name in enumerate(reversed(names))}

    def slots(name):
        out = []
        optional, mandatory, groups = fm.child_table[name]
        for child in optional + mandatory:
            if fm.features[child].kind == "optional":
                out.append([0] + configurations(child))
            else:
                out.append([bit[child]])
                out += slots(child)
        for g in groups:
            out.append([m for member in g.members
                        for m in configurations(member)])
        return out

    def configurations(name):
        acc = [bit[name]]
        for sub in slots(name):
            acc = [x + y for x in acc for y in sub]
        return acc

    left, right = [bit[fm.root]], [0]
    for sub in sorted(slots(fm.root), key=len, reverse=True):
        if len(left) <= len(right):
            left = [x + y for x in left for y in sub]
        else:
            right = [x + y for x in right for y in sub]

    requires = [(bit[c.a], bit[c.b]) for c in fm.constraints
                if isinstance(c, Requires)]
    excludes = [bit[c.a] | bit[c.b] for c in fm.constraints
                if not isinstance(c, Requires)]

    def rows():
        for x in left:
            row = [x + y for y in right]
            for a, b in requires:
                row = [m for m in row if not m & a or m & b]
            for ab in excludes:
                row = [m for m in row if m & ab != ab]
            yield row

    return names, rows()


def streamed_count(fm: FeatureModel) -> int:
    """Number of products: multiplied when there are no cross-tree
    constraints, otherwise the streamed enumeration's length, which
    ``MAX_ENUMERATION_FEATURES`` bounds."""
    if not fm.constraints:
        def count(name):
            n = 1
            optional, mandatory, groups = fm.child_table[name]
            for child in optional + mandatory:
                c = count(child)
                n *= c + 1 if fm.features[child].kind == "optional" else c
            for g in groups:
                n *= sum(count(m) for m in g.members)
            return n
        return count(fm.root)
    if len(fm.features) > MAX_ENUMERATION_FEATURES:
        raise BoundExceeded(
            f"model has {len(fm.features)} features, enumeration bound "
            f"is {MAX_ENUMERATION_FEATURES}")
    return sum(map(len, _product_masks(fm)[1]))


def _decode(pieces: list, masks: list, join, sep=None) -> list:
    """Each mask as ``join`` of its features' pieces in sorted order
    (``list``, or ``sep.join``): the low byte through a table, the bits
    above it by decoding their distinct values the same way.  With
    ``sep``, a byte after the leading one reads entries that start with
    ``sep``.  Masks are distinct, so no two results share a list."""
    n = len(pieces)
    width = min(8, n)
    first = [join([pieces[n - 1 - j] for j in reversed(range(width))
                   if v >> j & 1])
             for v in range(1 << width)]
    if n <= 8:
        return [first[m] for m in masks]
    highs = list({m >> 8 for m in masks})
    head = dict(zip(highs, _decode(pieces[:n - 8], highs, join, sep)))
    if sep is None:
        return [head[m >> 8] + first[m & 255] for m in masks]
    rest = [sep + text if text else text for text in first]
    return [head[h] + rest[m & 255] if (h := m >> 8) else first[m]
            for m in masks]


def _sorted_masks(fm: FeatureModel) -> tuple:
    """``(names, masks)``: the masks in the command line's order (by
    size, then by the sorted name lists, which is descending mask
    order among masks of one size)."""
    names, rows = _product_masks(fm)
    masks = sorted((m for row in rows for m in row), reverse=True)
    masks.sort(key=int.bit_count)
    return names, masks


def joined_products(fm: FeatureModel, sep: str, form=str) -> list:
    """The sorted products, each as the one string
    ``sep.join(map(form, names))``, decoded straight from its mask."""
    names, masks = _sorted_masks(fm)
    return _decode(list(map(form, names)), masks, sep.join, sep)
