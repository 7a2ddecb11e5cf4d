"""Small-step semantics for Orc: single runs and exhaustive exploration.

Execution proceeds over an ``ExecState`` (expression + virtual clock
+ counters).  Each outstanding site call is a ``Pending`` node of the
expression, so a call vanishes with the branch that made it.  Four
observable event kinds mirror the calculus — ``Publish`` (!v),
``Internal`` (tau), ``Call`` (M_k(v)) and ``Return`` (k?v) — plus
``Tick``, the virtual-time extension that gives Rtimer meaning: the
clock advances only when nothing else can move, and then exactly to
the earliest due response (maximal progress).

The stepping rules:

* a SiteCall whose arguments are all values becomes ``Pending`` with a
  fresh handle k and its response (due tick and value) fixed; calls
  with an unbound variable argument cannot move;
* a due responsive ``Pending`` returns, leaving ``Emit(v)`` which then
  offers ``Publish(v)``;
* ``|`` interleaves its branches, any number of them, and lets
  publications through;
* ``A >x> B`` hides a publication of A as Internal and spawns
  ``[v/x]B`` in parallel;
* ``A <x< B`` hides the first publication of B, terminates B and
  substitutes into A;
* ``A ; B`` fires Internal to B once A is halted, provided A never
  published (a publication of A permanently discards B);
* a DefCall expands its body (call by value), bounded per definition
  name by ``Bounds.max_depth`` — a blocked expansion is reported as
  truncation, never silently dropped.

A term is *halted* when no step is enabled and nothing in it waits: no
response is due later, no call waits for an unbound variable, and no
definition call waits at the depth bound.  One walk, ``_expr_steps``,
finds both the steps and the waits.  A step names the node it rewrites
by its path from the root, one index per node passed: the branch
number under ``|``, 0 or 1 under the binary combinators.  ``_apply``
builds its successor by rebuilding that one path.  Paths order steps
of one rule left to right, so the order is the same as when ``|`` was
a binary node.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import BoundExceeded
from .mts import Lts
from .orc_ast import (
    BUILTIN_SITES, SIGNAL, STOP, Asymmetric, DefCall, Emit, Expr, Otherwise,
    Parallel, Pending, Program, Sequential, Signal, SiteCall, SiteSpec, Stop,
    Value, Var, render_expr, render_value, substitute, value_sort_key,
)

# ---------------------------------------------------------------------------
# Events

@dataclass(frozen=True)
class Publish:
    value: Value


@dataclass(frozen=True)
class Internal:
    pass


INTERNAL = Internal()


@dataclass(frozen=True)
class Call:
    site: str
    handle: int
    args: tuple


@dataclass(frozen=True)
class Return:
    site: str
    handle: int
    value: Value


@dataclass(frozen=True)
class Tick:
    clock: int  # the clock value being advanced to


def event_label(event) -> str:
    """A short, whitespace-free label for transition-system exports."""
    if isinstance(event, Publish):
        text = f"!{render_value(event.value)}"
    elif isinstance(event, Internal):
        text = "tau"
    elif isinstance(event, Call):
        args = ",".join(render_value(a) for a in event.args)
        text = f"{event.site}_{event.handle}({args})"
    elif isinstance(event, Return):
        text = f"{event.handle}?{render_value(event.value)}"
    elif isinstance(event, Tick):
        text = f"tick({event.clock})"
    else:
        raise TypeError(f"not an event: {event!r}")
    # Spaces and "--" can only come from string values.  Keep tokens
    # free of whitespace and of the comment marker of the line-oriented
    # .mts/.lts formats; both escapes survive a JSON reparse.
    return text.replace(" ", "\\u0020").replace("--", "-\\u002d")


def value_to_json(value: Value):
    if isinstance(value, Signal):
        return {"t": "signal", "v": None}
    if isinstance(value, bool):
        return {"t": "bool", "v": value}
    if isinstance(value, int):
        return {"t": "int", "v": value}
    if isinstance(value, str):
        return {"t": "str", "v": value}
    if isinstance(value, tuple):
        return {"t": "tuple", "v": [value_to_json(v) for v in value]}
    raise TypeError(f"not a value: {value!r}")


def event_to_json(clock: int, event) -> dict:
    if isinstance(event, Publish):
        return {"clock": clock, "kind": "publish",
                "value": value_to_json(event.value)}
    if isinstance(event, Internal):
        return {"clock": clock, "kind": "internal"}
    if isinstance(event, Call):
        return {"clock": clock, "kind": "call", "site": event.site,
                "handle": event.handle,
                "args": [value_to_json(a) for a in event.args]}
    if isinstance(event, Return):
        return {"clock": clock, "kind": "return", "site": event.site,
                "handle": event.handle, "value": value_to_json(event.value)}
    if isinstance(event, Tick):
        return {"clock": clock, "kind": "tick", "to": event.clock}
    raise TypeError(f"not an event: {event!r}")


# ---------------------------------------------------------------------------
# Execution state

@dataclass(frozen=True)
class ExecState:
    expr: Expr
    clock: int = 0
    next_handle: int = 0
    def_depth: dict = field(default_factory=dict)   # name -> expansions
    cycles: dict = field(default_factory=dict)      # site -> calls so far


@dataclass(frozen=True)
class Bounds:
    max_steps: int = 10000
    max_states: int = 100000
    max_depth: int = 16


@dataclass(frozen=True)
class SeededRandom:
    seed: int


@dataclass(frozen=True)
class Transition:
    event: object
    state: ExecState
    priority: int      # rule number, for the deterministic policy
    position: tuple    # path of the node that produced the event


@dataclass
class Trace:
    events: list          # (clock, Event) pairs
    publications: list    # Publish values in order
    halted: bool          # quiescent, not at max_depth; see is_halted
    truncated: bool       # quiescent but a definition hit max_depth


def initial_state(program: Program) -> ExecState:
    return ExecState(program.goal)


# Rule numbers; the deterministic policy picks the smallest.
_PRIO_CALL = 1
_PRIO_RETURN = 2
_PRIO_PUBLISH = 3
_PRIO_SEQ_SPAWN = 4
_PRIO_BIND = 5
_PRIO_FALLBACK = 6
_PRIO_EXPAND = 7
_PRIO_TICK = 8


def _seq(left: Expr, binder, right: Expr) -> Expr:
    # Nothing on the left will ever publish, so B is unreachable.
    if type(left) is Stop:
        return STOP
    return Sequential(left, binder, right)


def _resolve_call(site: str, args: tuple, clock: int, program: Program,
                  cycles: dict):
    """(due, value, cycled_site) for a call made now.

    A due of None means the call never responds — the halt site, a
    false guard, an ill-typed builtin call, or a silent external site.
    """
    if site == "0":
        return None, None, None
    if site == "Signal":
        if not args:
            return clock, SIGNAL, None
        return None, None, None
    if site == "let":
        if not args:
            return clock, SIGNAL, None
        if len(args) == 1:
            return clock, args[0], None
        return clock, tuple(args), None
    if site == "if":
        if len(args) == 1 and isinstance(args[0], bool) and args[0]:
            return clock, SIGNAL, None
        return None, None, None
    if site == "Rtimer":
        if (len(args) == 1 and isinstance(args[0], int)
                and not isinstance(args[0], bool) and args[0] >= 0):
            return clock + args[0], SIGNAL, None
        return None, None, None
    spec = program.site_env.get(site, SiteSpec())
    if not spec.responses:
        return None, None, None
    value = spec.responses[cycles.get(site, 0) % len(spec.responses)]
    cycled = site if len(spec.responses) > 1 else None
    return clock + spec.delay, value, cycled


def _cycle_site(site: str, program: Program):
    """The cycled site of ``_resolve_call`` without resolving the call:
    ``site`` if it is an external site with more than one response,
    else None."""
    if site in BUILTIN_SITES:
        return None
    spec = program.site_env.get(site)
    if spec is None or len(spec.responses) < 2:
        return None
    return site


# Why a stuck node cannot move yet, besides a Pending's due tick.
_UNBOUND = "unbound"   # a call with a variable argument
_DEPTH = "depth"       # a definition call at the depth bound


def _expr_steps(e: Expr, path: tuple, state: ExecState, program: Program,
                bounds: Bounds, waits: list, steps: list) -> None:
    """Append the enabled steps of subterm ``e`` at ``path`` to
    ``steps``, unsorted.

    A step is a plain tuple ``(priority, position, event, leaf_path,
    leaf_expr, def_name, cycle_site)``.  ``leaf_path`` is the path of
    the node that the local rule rewrites, and ``leaf_expr`` replaces
    it: an Emit for a Return, Stop for a Publish, the expanded body for
    an Expand, the right operand for a fallback.  A Call's
    ``leaf_expr`` is the program instead, against whose sites
    ``_apply`` resolves the call it takes into a Pending.  ``def_name``
    is the definition expanded and ``cycle_site`` the multi-response
    site called, or None.  The walk builds no term and resolves no
    call: ``_apply`` does both for the one step taken.  A ``>x>``
    that spawns, or a ``<x<`` that binds, on a publication of its
    operand rewrites only the first three fields (its rule, its own
    position, INTERNAL) and leaves the substitution to ``_apply``.

    Each active node that cannot move yet appends to ``waits`` why: a
    Pending its due tick, a call with a variable argument ``_UNBOUND``
    (an enclosing binder may still deliver the value), a definition
    call at the depth bound ``_DEPTH``.  A subterm that yields neither
    a step nor a wait is halted.
    """
    kind = type(e)
    if kind is SiteCall:
        if any(isinstance(a, Var) for a in e.args):
            waits.append(_UNBOUND)
            return
        steps.append((_PRIO_CALL, path,
                      Call(e.site, state.next_handle, e.args), path,
                      program, None, _cycle_site(e.site, program)))

    elif kind is Pending:
        if e.due is None:
            return  # never responds
        if e.due <= state.clock:
            steps.append((_PRIO_RETURN, path,
                          Return(e.site, e.handle, e.value), path,
                          Emit(e.value), None, None))
        else:
            waits.append(e.due)

    elif kind is Emit:
        steps.append((_PRIO_PUBLISH, path, Publish(e.value), path, STOP,
                      None, None))

    elif kind is DefCall:
        if any(isinstance(a, Var) for a in e.args):
            waits.append(_UNBOUND)
            return
        d = program.definitions[e.name]
        if state.def_depth.get(e.name, 0) >= bounds.max_depth:
            waits.append(_DEPTH)  # surfaces as truncation, not as halting
            return
        body = d.body
        for p, a in zip(d.params, e.args):
            body = substitute(body, p, a)
        steps.append((_PRIO_EXPAND, path, INTERNAL, path, body, e.name,
                      None))

    elif kind is Parallel:
        for k, branch in enumerate(e.branches):
            _expr_steps(branch, path + (k,), state, program, bounds, waits,
                        steps)

    elif kind is Sequential:
        start = len(steps)
        _expr_steps(e.left, path + (0,), state, program, bounds, waits,
                    steps)
        if len(steps) > start:
            _hide_publications(steps, start, _PRIO_SEQ_SPAWN, path)

    elif kind is Asymmetric:
        _expr_steps(e.left, path + (0,), state, program, bounds, waits,
                    steps)
        start = len(steps)
        _expr_steps(e.right, path + (1,), state, program, bounds, waits,
                    steps)
        if len(steps) > start:
            _hide_publications(steps, start, _PRIO_BIND, path)

    elif kind is Otherwise:
        # A publication of A passes up and settles the choice (_apply
        # discards B); A halted falls back to B.
        waiting, start = len(waits), len(steps)
        _expr_steps(e.left, path + (0,), state, program, bounds, waits,
                    steps)
        if len(steps) == start and len(waits) == waiting:  # A is halted
            steps.append((_PRIO_FALLBACK, path, INTERNAL, path, e.right,
                          None, None))


def _hide_publications(steps: list, start: int, priority: int,
                       path: tuple) -> None:
    """Make each publication among ``steps[start:]`` an INTERNAL step
    of rule ``priority`` at ``path``, the spawn of ``>x>`` or the bind
    of ``<x<``; its leaf fields stay, for ``_apply``."""
    for i in range(start, len(steps)):
        s = steps[i]
        if type(s[2]) is Publish:
            steps[i] = (priority, path, INTERNAL) + s[3:]


def _enabled(state: ExecState, program: Program, bounds: Bounds) -> tuple:
    """``(steps, waits)``: the state's steps sorted by (rule, position),
    stably, and why its stuck nodes wait (see ``_expr_steps``).  In a
    quiescent state the steps are the one Tick step to the earliest due
    tick in ``waits``, if a response is still due.  Only calls still in
    the term wait: a terminated branch took its calls along."""
    steps: list = []
    waits: list = []
    _expr_steps(state.expr, (), state, program, bounds, waits, steps)
    if steps:
        steps.sort(key=itemgetter(0, 1))
    else:
        target = min((w for w in waits if type(w) is int), default=None)
        if target is not None:
            steps = [(_PRIO_TICK, (), Tick(target), (), state.expr, None,
                      None)]
    return steps, waits


def _replace_branch(node: Parallel, k: int, x: Expr) -> Expr:
    """``node`` with branch ``k`` replaced by ``x``.  A finished branch
    (Stop) drops out and a lone branch left stands for itself; a
    Parallel that lands in first position is spliced in by the
    constructor, so the result is the term the binary spine gave."""
    branches = node.branches
    if type(x) is not Stop:
        return Parallel(*branches[:k], x, *branches[k + 1:])
    rest = branches[:k] + branches[k + 1:]
    return Parallel(*rest) if len(rest) > 1 else rest[0]


def _rebuild(expr: Expr, leaf_path: tuple, leaf_expr: Expr) -> Expr:
    """``expr`` with the node at ``leaf_path`` replaced by ``leaf_expr``
    and every node above it rebuilt, bottom up, by the rule the step
    passes through.  ``|`` drops a Stop branch and ``stop >x> B``
    becomes Stop (``_replace_branch``, ``_seq``).  When the node at
    ``leaf_path`` is an Emit, the step publishes its value v.  The
    publication passes up through ``|``, the left of ``<x<`` and the
    left of ``;``, which it discards B of, until the first ``A >x> B``
    with A on the path spawns ``[v/x]B`` in parallel or the first ``A
    <x< B`` with B on the path becomes ``[v/x]A``; above that node the
    step is INTERNAL.  Costs one node per level of ``leaf_path``, plus
    a copy of the branch tuple at each ``|``."""
    spine = []
    node = expr
    for i in leaf_path:
        spine.append(node)
        if type(node) is Parallel:
            node = node.branches[i]
        else:
            node = node.right if i else node.left
    publishing = type(node) is Emit
    value = node.value if publishing else None
    x = leaf_expr
    for node, i in zip(reversed(spine), reversed(leaf_path)):
        kind = type(node)
        if kind is Parallel:
            x = _replace_branch(node, i, x)
        elif kind is Sequential:
            x = _seq(x, node.binder, node.right)
            if publishing:
                publishing = False
                spawned = node.right
                if node.binder is not None:
                    spawned = substitute(spawned, node.binder, value)
                if type(spawned) is not Stop:
                    x = spawned if type(x) is Stop else Parallel(x, spawned)
        elif kind is Asymmetric:
            if not i:
                x = Asymmetric(x, node.binder, node.right)
            elif publishing:
                publishing = False
                x = node.left
                if node.binder is not None:
                    x = substitute(x, node.binder, value)
            else:
                x = Asymmetric(node.left, node.binder, x)
        elif not publishing:   # Otherwise, with A on the path
            x = Otherwise(x, node.right)
    return x


def _apply(state: ExecState, s: tuple) -> ExecState:
    """The successor state that step ``s`` leads to.  Its term is
    rebuilt once, along the step's leaf path (``_rebuild``); a Tick
    keeps the term.  A Call is resolved here, so that only the call
    taken is."""
    priority, _, event, leaf_path, leaf_expr, def_name, cycle_site = s
    clock, next_handle = state.clock, state.next_handle
    if priority == _PRIO_CALL:
        next_handle += 1
        due, value, _ = _resolve_call(event.site, event.args, clock,
                                      leaf_expr, state.cycles)
        leaf_expr = Pending(event.handle, event.site, due, value)
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
    return ExecState(_rebuild(state.expr, leaf_path, leaf_expr), clock,
                     next_handle, def_depth, cycles)


def step(state: ExecState, program: Program,
         bounds: Bounds = Bounds()) -> list:
    """All enabled transitions, sorted by (rule, position).

    An empty result means the state is quiescent.  The Tick transition
    appears only when nothing else is enabled and some Pending response
    lies in the future; it advances the clock exactly to the earliest
    due tick.
    """
    return [Transition(s[2], _apply(state, s), s[0], s[1])
            for s in _enabled(state, program, bounds)[0]]


def is_halted(state: ExecState, program: Program) -> bool:
    """True iff no step is enabled and nothing waits: no response due
    later, no call waiting for a variable, no definition call at the
    depth bound (so no bound changes the answer).  ``;`` asks this of
    its left side.  ``let(x)`` waits for ``x`` forever, so it is not
    halted here, while ``run`` and ``explore`` call every quiescent
    state halted that no definition waits in at the depth bound."""
    steps, waits = _enabled(state, program, Bounds())
    return not steps and not waits


def run(program: Program, policy=None, bounds: Bounds = Bounds()) -> Trace:
    """Execute one interleaving to quiescence.

    Without a policy it always takes the lowest-numbered rule at the
    leftmost position; SeededRandom draws uniformly from the enabled
    set.  Each event costs one step walk and one rebuilt path:
    only the chosen step's successor state is built.
    Raises BoundExceeded (with the partial trace attached) when
    max_steps runs out.
    """
    rng = None
    if isinstance(policy, SeededRandom):
        rng = random.Random(policy.seed)
    state = initial_state(program)
    events: list = []
    publications: list = []
    taken = 0
    while True:
        steps, waits = _enabled(state, program, bounds)
        if not steps:
            blocked = _DEPTH in waits
            return Trace(events, publications, halted=not blocked,
                         truncated=blocked)
        if taken >= bounds.max_steps:
            raise BoundExceeded(
                f"--max-steps {bounds.max_steps} reached after "
                f"{len(events)} events, {len(publications)} publications",
                partial=Trace(events, publications, halted=False,
                              truncated=True))
        chosen = steps[0] if rng is None else \
            steps[rng.randrange(len(steps))]
        event = chosen[2]
        events.append((state.clock, event))
        if isinstance(event, Publish):
            publications.append(event.value)
        state = _apply(state, chosen)
        taken += 1


# ---------------------------------------------------------------------------
# Exhaustive exploration

def canonical_key(state: ExecState) -> str:
    """Stable state identity: the printed term, which writes each
    outstanding call's site, due tick and response at its node, plus
    clock and counters.  Handles are left out: each occurs once in the
    term, so numbering them in walk order would give the k-th Pending k.

    The term prints site and definition calls alike, so the key assumes
    that no program calls one name both as a site and as a definition;
    the parser makes every call to a definition's name a DefCall.
    """
    parts = [render_expr(state.expr), f"@{state.clock}"]
    for name in sorted(state.def_depth):
        parts.append(f"d{name}={state.def_depth[name]}")
    for site in sorted(state.cycles):
        parts.append(f"c{site}={state.cycles[site]}")
    return "\x1f".join(parts)


@dataclass
class ExploredLts:
    """Every reachable canonical state and transition of a program.

    ``outcomes`` holds, per maximal path that genuinely ends (halts),
    the multiset of published values as a sorted tuple;
    ``truncated_outcomes`` collects the publication prefixes of paths
    cut off by the depth bound or the state bound.
    """

    states: list                  # ExecState per id; 0 is initial
    edges: list                   # (src id, Event, dst id)
    halted_states: frozenset      # as Trace.halted, not is_halted
    truncated_states: frozenset
    outcomes: frozenset           # sorted tuples of Values
    truncated_outcomes: frozenset
    truncated: bool               # state bound was hit


def _successors(explored: ExploredLts) -> list:
    """Per state id, its outgoing (event, target id) pairs in edge order."""
    succ: list = [[] for _ in explored.states]
    for (i, ev, j) in explored.edges:
        succ[i].append((ev, j))
    return succ


_OPEN = object()


def _fold_paths(explored: ExploredLts, extract, add, empty) -> tuple:
    """Fold every maximal path from state 0, last event first.

    ``add(extract(event), acc)`` puts each event's item in front of the
    accumulator, which starts as ``empty``; an event whose item is None
    adds nothing.  Returns two frozensets: the accumulators of paths
    that halt and of paths that end truncated.

    One post-order pass suffices because the graph is acyclic.  Every
    rule strictly raises (clock, sum of def_depth, -mu(expr)): Tick
    raises the clock, Expand raises def_depth, and every other rule
    keeps both and lowers mu.  mu weighs SiteCall 3, Pending 2, Emit 1,
    Stop and DefCall 0; ``<x<`` and ``;`` cost 1 plus their parts, a
    ``|`` of n branches n - 1 plus its parts (1 per binary ``|``), and
    mu(A >x> B) = 1 + mu(A) + pi(A) * (mu(B) + 1), where pi(A)
    bounds A's remaining publications: 1 for SiteCall, Pending and
    Emit, 0 for Stop and DefCall, additive over ``|`` and ``;``, with
    pi(A <x< B) = pi(A) and pi(A >x> B) = pi(A) * pi(B).  Only Expand
    raises pi, so the spawn rule, which turns an Emit of A into Stop
    and adds a copy of B, still lowers mu.  canonical_key encodes the
    clock, def_depth and the term's shape, so no canonical state recurs.
    """
    succ = _successors(explored)
    memo: list = [None] * len(succ)
    memo[0] = _OPEN
    stack = [(0, 0)]
    while stack:
        node, idx = stack[-1]
        if idx < len(succ[node]):
            stack[-1] = (node, idx + 1)
            nxt = succ[node][idx][1]
            if memo[nxt] is None:
                memo[nxt] = _OPEN
                stack.append((nxt, 0))
            elif memo[nxt] is _OPEN:
                raise RuntimeError(f"state {nxt} is reachable from itself")
            continue
        stack.pop()
        entries = set()
        if node in explored.halted_states:
            entries.add((empty, False))
        if node in explored.truncated_states:
            entries.add((empty, True))
        for (ev, nxt) in succ[node]:
            item = extract(ev)
            if item is None:
                entries.update(memo[nxt])
            else:
                entries.update((add(item, acc), cut)
                               for (acc, cut) in memo[nxt])
        memo[node] = frozenset(entries)
    return (frozenset(acc for (acc, cut) in memo[0] if not cut),
            frozenset(acc for (acc, cut) in memo[0] if cut))


def _publish_value(event):
    return event.value if isinstance(event, Publish) else None


def _insert_sorted(value, multiset: tuple) -> tuple:
    i = bisect_left(multiset, value_sort_key(value), key=value_sort_key)
    return multiset[:i] + (value,) + multiset[i:]


def _safe(s: tuple) -> bool:
    """Is step ``s`` safe: a Return, or a Call with no cycle site, i.e.
    to a site with at most one response (every builtin, a
    single-response or silent site)?"""
    kind = type(s[2])
    return kind is Return or (kind is Call and s[6] is None)


def explore(program: Program, bounds: Bounds = Bounds(),
            reduce: bool = False) -> ExploredLts:
    """Breadth-first exploration with canonical deduplication: one
    step walk per state, and a successor only for each step followed.

    Raises BoundExceeded (with the partial ExploredLts attached) when
    max_states is hit; paths cut off that way are flagged, not lost.

    With ``reduce``, a state whose transitions include a *safe* one
    follows only the first safe one in (rule, position) order, and
    otherwise all of them (a partial-order reduction with singleton
    ample sets; Godefroid, LNCS 1032, 1996).  A safe step is a Return
    or a Call to a site with at most one response.  A multi-response
    call is not safe, since it reads and advances the shared ``cycles``
    counter, nor is an Expand, which shares ``def_depth``.  The result
    keeps ``outcomes``, the halted states, and the truncated outcomes
    and states of the depth bound exact:

    * a safe step reads only its own node, the clock, which is fixed
      until Tick (and Tick waits for quiescence), and ``next_handle``,
      which only names its fresh handle;
    * it writes only its node and ``next_handle``, and canonical_key
      ignores handles and ``next_handle``, so it commutes with every
      other step up to canonical equality, and no other step disables
      it;
    * only the right operand of ``<x<`` can be discarded while it can
      still step.  If a publication discards the safe step's branch,
      taking the safe step first and then that publication reaches the
      same canonical state; calls and returns publish nothing;
    * so, by induction along the acyclicity order of ``_fold_paths``,
      every maximal path of the full graph has a path in the reduced
      graph that ends in the same terminal state with the same
      publication multiset.

    The reduced graph is a subgraph of the full one, so it never hits
    ``max_states`` when the full one does not.  It drops interleavings,
    so publication_sequences, path_call_site_sets and lts_view need
    the full graph, the default.
    """
    init = initial_state(program)
    ids = {canonical_key(init): 0}
    states = [init]
    edges: list = []
    halted: set = set()
    truncated: set = set()
    hit_state_bound = False
    queue: deque = deque([0])
    while queue:
        i = queue.popleft()
        state = states[i]
        steps, waits = _enabled(state, program, bounds)
        if reduce:
            steps = next(([s] for s in steps if _safe(s)), steps)
        if not steps:
            if _DEPTH in waits:
                truncated.add(i)
            else:
                halted.add(i)
            continue
        for s in steps:
            succ = _apply(state, s)
            key = canonical_key(succ)
            j = ids.get(key)
            if j is None:
                if len(states) >= bounds.max_states:
                    hit_state_bound = True
                    truncated.add(i)
                    continue
                j = len(states)
                ids[key] = j
                states.append(succ)
                queue.append(j)
            edges.append((i, s[2], j))

    result = ExploredLts(states, edges, frozenset(halted),
                         frozenset(truncated), frozenset(), frozenset(),
                         hit_state_bound)
    result.outcomes, result.truncated_outcomes = _fold_paths(
        result, _publish_value, _insert_sorted, ())
    if hit_state_bound:
        raise BoundExceeded(
            f"--max-states {bounds.max_states} reached after "
            f"{len(states)} states, {len(edges)} edges",
            partial=result)
    return result


def publication_sequences(explored: ExploredLts) -> frozenset:
    """Ordered publication tuples of every completed maximal path."""
    return _fold_paths(explored, _publish_value,
                       lambda value, seq: (value,) + seq, ())[0]


def path_call_site_sets(explored: ExploredLts) -> frozenset:
    """Per completed maximal path, the set of site names called."""
    return _fold_paths(explored,
                       lambda ev: ev.site if isinstance(ev, Call) else None,
                       lambda site, sites: sites | {site}, frozenset())[0]


def lts_view(explored: ExploredLts) -> Lts:
    """The explored graph as an Lts with states s0, s1, ..."""
    trans = frozenset((f"s{i}", event_label(ev), f"s{j}")
                      for (i, ev, j) in explored.edges)
    states = frozenset(f"s{i}" for i in range(len(explored.states)))
    return Lts(states, frozenset(), "s0", trans)
