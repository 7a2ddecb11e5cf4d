"""Labelled and modal transition systems.

An ``Lts`` is states + labelled transitions + one initial state.  An
``Mts`` refines this with two transition relations: ``must`` (required
behaviour) and ``may`` (allowed behaviour), with must ⊆ may by
construction — the constructor closes ``may`` over ``must``, so a
violating instance cannot be built.

An LTS ``p`` is a *product* of an MTS ``f`` when there is a relation R
over product × family states containing the initial pair such that for
every (s, t) in R:

* (i)  every must-transition of t is matched by a transition of s with
       targets again related, and
* (ii) every transition of s is allowed by a may-transition of t with
       targets again related.

``is_product`` decides this with a worklist over the state pairs
reachable from the initial pair: each clause obligation counts its live
matches, and each match holds the counters it keeps alive.
``product_rows`` and ``derive_products`` list, as rows and as Lts
values, the products of every choice of may-only transitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BoundExceeded

#: Cap on the optional transitions ``product_rows`` toggles.
MAX_OPTIONAL_TRANSITIONS = 20


class ActionMismatch(Exception):
    """The candidate product uses actions the family does not know."""


# Sets a field of a frozen dataclass, past its refusing __setattr__.
_freeze = object.__setattr__


def _seal(system, trans, what):
    """Freeze ``system``'s states, check that its init and ``trans`` name
    only them, and add the labels of ``trans`` to its actions."""
    _freeze(system, "states", frozenset(system.states))
    if system.init not in system.states:
        raise ValueError(f"initial state {system.init!r} not among states")
    for (src, action, dst) in trans:
        if src not in system.states or dst not in system.states:
            raise ValueError(
                f"{what} transition ({src!r}, {action!r}, {dst!r}) "
                f"mentions an undeclared state")
    _freeze(system, "actions", frozenset(system.actions)
            | {a for (_, a, _) in trans})


@dataclass(frozen=True)
class Lts:
    states: frozenset
    actions: frozenset
    init: str
    trans: frozenset        # (src, action, dst) triples

    def __post_init__(self):
        _freeze(self, "trans", frozenset(self.trans))
        _seal(self, self.trans, "lts")


@dataclass(frozen=True)
class Mts:
    states: frozenset
    actions: frozenset
    init: str
    must: frozenset
    may: frozenset

    def __post_init__(self):
        _freeze(self, "must", frozenset(self.must))
        # Closure: everything required is also allowed.
        _freeze(self, "may", frozenset(self.may) | self.must)
        _seal(self, self.may, "mts")


def modality(m: Mts, src, action, dst) -> str:
    """Three-valued transition query: "must", "may-only" or "absent"."""
    triple = (src, action, dst)
    if triple in m.must:
        return "must"
    if triple in m.may:
        return "may-only"
    return "absent"


@dataclass(frozen=True)
class ClauseFailure:
    """A clause that fails for a state pair.

    ``is_product`` reports the first pair, in sorted product × family
    order, that fails while every pair is still related: the pair a
    deletion fixpoint over the full relation would delete first."""

    clause: str              # "must-unmatched" | "may-unmatched"
    product_state: str
    family_state: str
    action: str
    target: str              # transition target lacking a counterpart

    def __str__(self):
        if self.clause == "must-unmatched":
            return (f"required transition {self.family_state} --{self.action}"
                    f"--> {self.target} of the family has no counterpart "
                    f"from product state {self.product_state}")
        return (f"product transition {self.product_state} --{self.action}"
                f"--> {self.target} is not allowed by the family "
                f"at state {self.family_state}")


@dataclass(frozen=True)
class ProductCheck:
    witness: "frozenset | None"   # (product_state, family_state) pairs
    failure: "ClauseFailure | None"
    rounds: int                   # deletion layers + the final empty one

    @property
    def holds(self) -> bool:
        return self.failure is None


def _by_action(trans):
    """src -> action -> targets."""
    out = {}
    for (src, action, dst) in trans:
        out.setdefault(src, {}).setdefault(action, []).append(dst)
    return out


def is_product(product: Lts, family: Mts) -> ProductCheck:
    """Decide the product relation, with a witness or a root cause.

    Works on the pairs reachable from the initial pair through
    synchronised moves: a product edge p --a--> p2 beside a family
    may-edge q --a--> q2 leads from (p, q) to (p2, q2).  Both clauses
    only ever ask about such successors, so the greatest relation on
    the reachable pairs is the greatest relation on all of P × Q
    restricted to them.  Each obligation of a pair (an edge of p, a
    must-edge of q) is a counter ``[owner, live]`` of the successors
    that can still meet it, and each successor holds the counters it
    meets.  A pair dies when one of its counters reaches 0, and its
    death lowers only the counters it holds (the simulation algorithm
    of Henzinger, Henzinger and Kopke, FOCS 1995).  A pair that dies at
    once is not expanded: nothing behind it can save a live pair.
    ``rounds`` counts the layers of deaths, plus the final empty one.

    Raises ActionMismatch when the product uses an action the family
    has never heard of (that is a modelling error, not a refusal).
    """
    extra = product.actions - family.actions
    if extra:
        raise ActionMismatch(
            f"product actions not in the family alphabet: {sorted(extra)}")

    p_out = _by_action(product.trans)
    f_must = _by_action(family.must)
    f_may = _by_action(family.may)

    initial = (product.init, family.init)
    keeps = {initial: []}       # pair -> the counters it meets
    succ = {}                   # expanded pair -> its successor pairs
    layer = []                  # pairs that die now
    stack = [initial]
    while stack:
        pair = stack.pop()
        p_moves = p_out.get(pair[0], {})
        q_must = f_must.get(pair[1], {})
        q_may = f_may.get(pair[1], {})
        if not _actions_match(p_moves, q_must, q_may):
            layer.append(pair)
            continue
        succ[pair] = nexts = []
        for action, p_targets in p_moves.items():
            q_targets = q_may[action]
            must = {q2: [pair, len(p_targets)]
                    for q2 in q_must.get(action, ())}
            for p2 in p_targets:
                move = [pair, len(q_targets)]
                for q2 in q_targets:
                    nxt = (p2, q2)
                    if nxt not in keeps:
                        keeps[nxt] = []
                        stack.append(nxt)
                    keeps[nxt].append(move)
                    if q2 in must:
                        keeps[nxt].append(must[q2])
                    nexts.append(nxt)

    dead = set(layer)
    rounds = 1
    while layer:
        rounds += 1
        next_layer = []
        for pair in layer:
            for counter in keeps[pair]:
                owner = counter[0]
                if owner not in dead:
                    counter[1] -= 1
                    if not counter[1]:
                        dead.add(owner)
                        next_layer.append(owner)
        layer = next_layer

    if initial in dead:
        return ProductCheck(None,
                            _first_failure(product, family, p_out, f_must,
                                           f_may), rounds)
    seen = {initial}
    frontier = [initial]
    while frontier:
        for pair in succ[frontier.pop()]:
            if pair not in dead and pair not in seen:
                seen.add(pair)
                frontier.append(pair)
    return ProductCheck(frozenset(seen), None, rounds)


def _actions_match(p_moves, q_must, q_may) -> bool:
    """Whether a pair passes both clauses while every pair is related:
    each required action of q has an edge from p, and each action of p
    a may-edge from q."""
    return q_must.keys() <= p_moves.keys() <= q_may.keys()


def _first_failure(product, family, p_out, f_must, f_may) -> ClauseFailure:
    """The failure a deletion fixpoint over all of P × Q reports: the
    first pair, in sorted order, that fails a clause while every pair
    is still related.  Product states with an action set already seen
    to pass every family state are skipped.  Only called when the
    check fails, so some pair fails."""
    family_states = sorted(family.states)
    passing = set()
    for p in sorted(product.states):
        p_moves = p_out.get(p, {})
        actions = frozenset(p_moves)
        if actions in passing:
            continue
        for q in family_states:
            q_must = f_must.get(q, {})
            q_may = f_may.get(q, {})
            if _actions_match(p_moves, q_must, q_may):
                continue
            missing = [(a, q2) for a, targets in q_must.items()
                       if a not in p_moves for q2 in targets]
            if missing:
                return ClauseFailure("must-unmatched", p, q, *min(missing))
            stray = [(a, p2) for a, targets in p_moves.items()
                     if a not in q_may for p2 in targets]
            return ClauseFailure("may-unmatched", p, q, *min(stray))
        passing.add(actions)


def state_names(n: int) -> list:
    """The states of a derived product with ``n`` states, in visit order."""
    return [f"s{i}" for i in range(n)]


def product_rows(family: Mts) -> tuple:
    """All products obtained by toggling each may-only transition, as
    ``(rows, triples)``.  A row ``(n, trans)`` is the product with
    states ``state_names(n)``, init s0 and the transitions whose codes
    are the sorted tuple ``trans``; ``triples`` maps each code in the
    rows to its ``(src, action, dst)`` triple.  With the R states of
    ``family`` ranked by the string order of the names ``s0``..
    ``s{R-1}`` (``s10`` before ``s2``) and its A actions by string
    order, a transition's code is ``(rank(src)·A + rank(action))·R +
    rank(dst)``, so codes sort as their triples do.  The rows are
    sorted by ``(n, len(trans), trans)``.

    A depth-first search over the breadth-first visit of a candidate:
    a reached source takes its must moves and decides each optional one
    (skip, then take) in (action, target) order; a state is named s<i>
    when first reached.  A leaf is one candidate, restricted to its
    reachable part and renamed.  Leaves collapse on the sorted codes,
    since two candidates can give one product visited in different
    orders.  Every row is a product of ``family`` (the renaming
    witnesses it).  ``MAX_OPTIONAL_TRANSITIONS`` bounds the may-only
    transitions whose source is reachable under may.
    """
    r = len(family.states)
    actions = sorted(family.actions)
    offset = {a: k * r for k, a in enumerate(actions)}
    span = len(actions) * r     # the code distance of adjacent source ranks
    moves = {}          # src -> (action's part of the code, dst, optional)
    for (src, action, dst) in sorted(family.may):
        moves.setdefault(src, []).append(
            (offset[action], dst, (src, action, dst) not in family.must))
    reachable, stack = {family.init}, [family.init]
    while stack:
        new = {dst for (_, dst, _) in moves.get(stack.pop(), ())} - reachable
        reachable |= new
        stack += new
    count = sum(opt for src in reachable for (*_, opt) in moves.get(src, ()))
    if count > MAX_OPTIONAL_TRANSITIONS:
        raise BoundExceeded(
            f"{count} optional transitions reachable from "
            f"{family.init} under may, derivation bound is "
            f"{MAX_OPTIONAL_TRANSITIONS}")
    ranked = sorted(range(r), key=str)      # visit indices by name order
    rank = [0] * r
    for k, i in enumerate(ranked):
        rank[i] = k
    order = {family.init: 0}    # reached state -> its rank, in visit order
    # The reached states with moves, in visit order: the others are
    # only named.
    queue = [family.init] if family.init in moves else []
    kept = []                   # codes of the moves taken, in visit order
    seen = {}                   # sorted codes -> state count

    def search(qi, mi):
        """The leaves from move ``mi`` of ``queue[qi]`` on: each that
        skips one of these optional moves by a call that undoes its own
        moves, then the one that takes them all."""
        n_order, n_queue, n_kept = len(order), len(queue), len(kept)
        while qi < len(queue):
            src = queue[qi]
            out = moves[src]
            base = order[src] * span
            for mi in range(mi, len(out)):
                part, dst, optional = out[mi]
                if optional:
                    search(qi, mi + 1)
                if dst not in order:
                    order[dst] = rank[len(order)]
                    if dst in moves:
                        queue.append(dst)
                kept.append(base + part + order[dst])
            qi, mi = qi + 1, 0
        seen.setdefault(tuple(sorted(kept)), len(order))
        while len(order) > n_order:
            order.popitem()       # the last state named
        del queue[n_queue:], kept[n_kept:]

    search(0, 0)
    names = [f"s{i}" for i in ranked]
    triples = {}
    for code in set().union(*seen):
        rest, dst = divmod(code, r)
        src, action = divmod(rest, len(actions))
        triples[code] = (names[src], actions[action], names[dst])
    rows = sorted((n, len(trans), trans) for trans, n in seen.items())
    return [(n, trans) for n, _, trans in rows], triples


def derive_products(family: Mts) -> list:
    """``product_rows(family)`` as ``Lts`` values."""
    rows, triples = product_rows(family)
    return [Lts(state_names(n), (), "s0", map(triples.__getitem__, trans))
            for n, trans in rows]


def _gvquote(s: str) -> str:
    return '"' + str(s).replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(system, name: str = "lts") -> str:
    """GraphViz text for an Lts or Mts.

    Must-transitions (and all LTS transitions) are solid; may-only
    transitions are dashed.  An unlabeled point marks the initial
    state.
    """
    if isinstance(system, Mts):
        solid, dashed = system.must, system.may - system.must
    else:
        solid, dashed = system.trans, frozenset()
    lines = [f"digraph {name} {{", "  rankdir=LR;",
             "  __init [shape=point, label=\"\"];"]
    for s in sorted(system.states):
        lines.append(f"  {_gvquote(s)} [shape=circle];")
    lines.append(f"  __init -> {_gvquote(system.init)};")
    lines += [f"  {_gvquote(src)} -> {_gvquote(dst)} "
              f"[label={_gvquote(action)}{style}];"
              for style, trans in (("", solid), (", style=dashed", dashed))
              for (src, action, dst) in sorted(trans)]
    lines.append("}")
    return "\n".join(lines) + "\n"
