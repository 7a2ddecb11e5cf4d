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
number under ``|``, 0 or 1 under the binary combinators.  The walk
builds nothing; ``_apply`` builds the event and the successor of the
step taken, rebuilding that one path.  Paths order steps
of one rule left to right, so the order is the same as when ``|`` was
a binary node.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .errors import BoundExceeded
from .mts import Lts
from .orc_ast import (
    BUILTIN_SITES, SIGNAL, STOP, TRUE, Asymmetric, Bool, DefCall, Emit, Expr,
    Otherwise, Parallel, Pending, Program, Sequential, Signal, SiteCall,
    SiteSpec, Stop, Value, Var, render_value, substitute, value_sort_key,
)

# ---------------------------------------------------------------------------
# Events
#
# Events, states and transitions are built for every step taken, so,
# like the term nodes (see orc_ast), they are not frozen: nothing
# stores into them after __init__.

@dataclass(unsafe_hash=True, slots=True)
class Publish:
    value: Value


@dataclass(unsafe_hash=True, slots=True)
class Internal:
    pass


INTERNAL = Internal()


@dataclass(unsafe_hash=True, slots=True)
class Call:
    site: str
    handle: int
    args: tuple


@dataclass(unsafe_hash=True, slots=True)
class Return:
    site: str
    handle: int
    value: Value


@dataclass(unsafe_hash=True, slots=True)
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
    if type(value) is Bool:
        return {"t": "bool", "v": value.value}
    if type(value) is int:
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

@dataclass(unsafe_hash=True, slots=True)
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


@dataclass(unsafe_hash=True, slots=True)
class Transition:
    event: object
    state: ExecState


@dataclass
class Trace:
    events: list          # (clock, Event) pairs
    truncated: bool       # cut by max_steps, or quiescent at max_depth

    @property
    def publications(self) -> list:
        """Publish values in order."""
        return [e.value for (_, e) in self.events if isinstance(e, Publish)]

    @property
    def halted(self) -> bool:
        """Quiescent, not at max_depth; see is_halted."""
        return not self.truncated


# Rule numbers; an unseeded run picks the smallest.
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

    A builtin site (``BUILTIN_SITES``) answers by its own rule, and any
    other site by its declaration in ``program.site_env``.  A due of
    None means the call never responds — the halt site ``0``, a false
    guard, an ill-typed builtin call, or a silent external site.
    """
    if site not in BUILTIN_SITES:
        spec = program.site_env.get(site, SiteSpec())
        if not spec.responses:
            return None, None, None
        value = spec.responses[cycles.get(site, 0) % len(spec.responses)]
        cycled = site if len(spec.responses) > 1 else None
        return clock + spec.delay, value, cycled
    if site == "let":
        value = args[0] if len(args) == 1 else tuple(args) or SIGNAL
        return clock, value, None
    if (site == "Signal" and not args
            or site == "if" and len(args) == 1 and args[0] == TRUE):
        return clock, SIGNAL, None
    if (site == "Rtimer" and len(args) == 1 and type(args[0]) is int
            and args[0] >= 0):
        return clock + args[0], SIGNAL, None
    return None, None, None


# Why a stuck node cannot move yet, besides a Pending's due tick.
_UNBOUND = "unbound"   # a call with a variable argument
_DEPTH = "depth"       # a definition call at the depth bound


def _expr_steps(e: Expr, path: tuple, state: ExecState, bounds: Bounds,
                waits: list, steps: list, capture=None) -> None:
    """Append the enabled steps of subterm ``e`` at ``path`` to
    ``steps``, unsorted.

    A step is a plain tuple ``(priority, position, leaf_path, node)``:
    ``node`` is the active node at ``position`` that the rule rewrites,
    and ``leaf_path`` leads to the active leaf (a SiteCall, Pending,
    Emit or DefCall, or the Otherwise that falls back).  The walk only
    finds steps: it builds no term and no event, reads no program and
    resolves no call; ``_apply`` does all of that for the one step
    taken.

    ``capture`` is ``(rule, position, node)`` of the nearest ``A >x>
    B`` above with ``e`` in A, or ``A <x< B`` with ``e`` in B, and None
    when a publication of ``e`` reaches the root.  So a spawn or bind
    step names its ``>x>`` or ``<x<`` and a publication the root ``()``
    and its Emit; each names its Emit by ``leaf_path``, and every other
    step names its leaf twice.  Publications tie at ``(rule, ())``, so
    the stable sort keeps their walk order, which is leaf-path order.

    Each active node that cannot move yet appends to ``waits`` why: a
    Pending its due tick, a call with a variable argument ``_UNBOUND``
    (an enclosing binder may still deliver the value), a definition
    call at the depth bound ``_DEPTH``.  A subterm that yields neither
    a step nor a wait is halted.
    """
    kind = type(e)
    if kind is SiteCall or kind is DefCall:
        if any(isinstance(a, Var) for a in e.args):
            waits.append(_UNBOUND)
        elif kind is SiteCall:
            steps.append((_PRIO_CALL, path, path, e))
        elif state.def_depth.get(e.name, 0) >= bounds.max_depth:
            waits.append(_DEPTH)  # surfaces as truncation, not as halting
        else:
            steps.append((_PRIO_EXPAND, path, path, e))

    elif kind is Pending and e.due is not None:  # None never responds
        if e.due <= state.clock:
            steps.append((_PRIO_RETURN, path, path, e))
        else:
            waits.append(e.due)

    elif kind is Emit:
        rule, position, node = capture or (_PRIO_PUBLISH, (), e)
        steps.append((rule, position, path, node))

    elif kind is Parallel:
        for k, branch in enumerate(e.branches):
            _expr_steps(branch, path + (k,), state, bounds, waits, steps,
                        capture)

    elif kind is Sequential:
        _expr_steps(e.left, path + (0,), state, bounds, waits, steps,
                    (_PRIO_SEQ_SPAWN, path, e))

    elif kind is Asymmetric:
        _expr_steps(e.left, path + (0,), state, bounds, waits, steps,
                    capture)
        _expr_steps(e.right, path + (1,), state, bounds, waits, steps,
                    (_PRIO_BIND, path, e))

    elif kind is Otherwise:
        # A publication of A passes up and settles the choice (_apply
        # discards B); A halted falls back to B.
        waiting, start = len(waits), len(steps)
        _expr_steps(e.left, path + (0,), state, bounds, waits, steps,
                    capture)
        if len(steps) == start and len(waits) == waiting:  # A is halted
            steps.append((_PRIO_FALLBACK, path, path, e))


def _enabled(state: ExecState, bounds: Bounds) -> tuple:
    """``(steps, waits)``: the state's steps sorted by (rule, position),
    stably, and why its stuck nodes wait (see ``_expr_steps``).  In a
    quiescent state the steps are the one Tick step, to the earliest due
    tick in ``waits`` (its node), if a response is still due.  Only calls
    still in the term wait: a terminated branch took its calls along."""
    steps: list = []
    waits: list = []
    _expr_steps(state.expr, (), state, bounds, waits, steps)
    if steps:
        steps.sort(key=itemgetter(0, 1))
    else:
        target = min((w for w in waits if type(w) is int), default=None)
        if target is not None:
            steps = [(_PRIO_TICK, (), (), target)]
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


def _rebuild(expr: Expr, s: tuple, leaf: Expr) -> Expr:
    """``expr`` after step ``s``: the node at its leaf path replaced by
    ``leaf`` and every node above it rebuilt, bottom up.  ``|`` drops a
    Stop branch and ``stop >x> B`` becomes Stop (``_replace_branch``,
    ``_seq``).  The value v of a publication, spawn or bind step's Emit
    passes up through ``|``, the left of ``<x<`` and the left of ``;``,
    whose B it discards, to the step's position: the root, the ``A >x>
    B`` that spawns ``[v/x]B`` in parallel, or the ``A <x< B`` that
    becomes ``[v/x]A``.  Costs one node per level of the leaf path,
    plus a copy of the branch tuple at each ``|``."""
    rule, position, leaf_path, node = s
    spine = []
    e = expr
    for i in leaf_path:
        spine.append(e)
        e = e.branches[i] if type(e) is Parallel else e.right if i else e.left
    x = leaf
    top = len(position)
    if _PRIO_PUBLISH <= rule <= _PRIO_BIND:
        # v passes up to the spawn or the bind, or out through the root.
        for i in reversed(leaf_path[top + (rule != _PRIO_PUBLISH):]):
            level = spine.pop()
            kind = type(level)
            if kind is Parallel:
                x = _replace_branch(level, i, x)
            elif kind is Asymmetric:
                x = Asymmetric(x, level.binder, level.right)
            # else the left of a ``;``: the publication discards B
        if rule == _PRIO_SEQ_SPAWN:
            x = _seq(x, node.binder, node.right)
            spawned = node.right
            if node.binder is not None:
                spawned = substitute(spawned, node.binder, e.value)
            if type(spawned) is not Stop:
                x = spawned if type(x) is Stop else Parallel(x, spawned)
        elif rule == _PRIO_BIND:
            x = node.left
            if node.binder is not None:
                x = substitute(x, node.binder, e.value)
        del spine[top:]
    for level, i in zip(reversed(spine), reversed(position)):
        kind = type(level)
        if kind is Parallel:
            x = _replace_branch(level, i, x)
        elif kind is Sequential:
            x = _seq(x, level.binder, level.right)
        elif kind is Asymmetric:
            x = (Asymmetric(level.left, level.binder, x) if i
                 else Asymmetric(x, level.binder, level.right))
        else:
            x = Otherwise(x, level.right)
    return x


def _apply(state: ExecState, s: tuple, program: Program) -> tuple:
    """``(event, successor)`` of step ``s``.  The only place that builds
    an event, resolves a call against the program's sites, substitutes
    a definition body or counts ``def_depth`` and ``cycles``.  It picks
    the new leaf; ``_rebuild`` puts it in once, along the step's leaf
    path, and takes a publication where the step's position says.  A
    Tick keeps the term."""
    priority, _, _, node = s
    clock, next_handle = state.clock, state.next_handle
    def_depth, cycles = state.def_depth, state.cycles
    if priority == _PRIO_CALL:
        due, value, cycled = _resolve_call(node.site, node.args, clock,
                                           program, cycles)
        event = Call(node.site, next_handle, node.args)
        leaf = Pending(next_handle, node.site, due, value)
        next_handle += 1
        if cycled is not None:
            cycles = dict(cycles)
            cycles[cycled] = cycles.get(cycled, 0) + 1
    elif priority == _PRIO_RETURN:
        event = Return(node.site, node.handle, node.value)
        leaf = Emit(node.value)
    elif priority == _PRIO_EXPAND:
        d = program.definitions[node.name]
        leaf = d.body
        for p, a in zip(d.params, node.args):
            leaf = substitute(leaf, p, a)
        def_depth = dict(def_depth)
        def_depth[node.name] = def_depth.get(node.name, 0) + 1
        event = INTERNAL
    elif priority == _PRIO_FALLBACK:
        event, leaf = INTERNAL, node.right
    elif priority == _PRIO_TICK:
        event, leaf, clock = Tick(node), state.expr, node
    else:   # a publication, or the spawn or bind that hides it
        event = Publish(node.value) if priority == _PRIO_PUBLISH else INTERNAL
        leaf = STOP
    return event, ExecState(_rebuild(state.expr, s, leaf), clock,
                            next_handle, def_depth, cycles)


def step(state: ExecState, program: Program,
         bounds: Bounds = Bounds()) -> list:
    """All enabled transitions, sorted by (rule, position).

    An empty result means the state is quiescent.  The Tick transition
    appears only when nothing else is enabled and some Pending response
    lies in the future; it advances the clock exactly to the earliest
    due tick.
    """
    return [Transition(*_apply(state, s, program))
            for s in _enabled(state, bounds)[0]]


def is_halted(state: ExecState) -> bool:
    """True iff no step is enabled and nothing waits: no response due
    later, no call waiting for a variable, no definition call at the
    depth bound (so no bound changes the answer).  ``;`` asks this of
    its left side.  ``let(x)`` waits for ``x`` forever, so it is not
    halted here, while ``run`` and ``explore`` call every quiescent
    state halted that no definition waits in at the depth bound."""
    steps, waits = _enabled(state, Bounds())
    return not steps and not waits


def run(program: Program, seed: int | None = None,
        bounds: Bounds = Bounds()) -> Trace:
    """Execute one interleaving to quiescence.

    Without a seed it always takes the lowest-numbered rule at the
    leftmost position; with one it draws uniformly from the enabled
    set, by ``random.Random(seed)``.  Each event costs one step walk
    and one rebuilt path: only the chosen step's successor state is
    built.  Raises BoundExceeded (with the partial trace attached) when
    max_steps runs out.
    """
    rng = None if seed is None else random.Random(seed)
    state = ExecState(program.goal)
    events: list = []
    while True:
        steps, waits = _enabled(state, bounds)
        if not steps:
            return Trace(events, truncated=_DEPTH in waits)
        if len(events) >= bounds.max_steps:
            partial = Trace(events, truncated=True)
            raise BoundExceeded(
                f"--max-steps {bounds.max_steps} reached after "
                f"{len(events)} events, "
                f"{len(partial.publications)} publications", partial=partial)
        chosen = steps[0] if rng is None else \
            steps[rng.randrange(len(steps))]
        clock = state.clock
        event, state = _apply(state, chosen, program)
        events.append((clock, event))


# ---------------------------------------------------------------------------
# Exhaustive exploration

def canonical_key(state: ExecState) -> tuple:
    """Stable state identity: the term itself, in which each
    outstanding call compares by its site, due tick and response, plus
    clock and counters.  Handles and ``next_handle`` are left out: each
    handle occurs once in the term, so numbering them in walk order
    would give the k-th Pending k.
    """
    return (state.expr, state.clock, tuple(sorted(state.def_depth.items())),
            tuple(sorted(state.cycles.items())))


@dataclass
class ExploredLts:
    """Every reachable canonical state and transition of a program.

    ``outcomes`` holds, per maximal path that genuinely ends (halts),
    the multiset of published values as a sorted tuple;
    ``truncated_outcomes`` collects the publication prefixes of paths
    cut off by the depth bound or the state bound.  Both come from one
    path fold, made on the first read of either, so a caller that only
    reads the graph pays for no fold.
    """

    states: list                  # ExecState per id; 0 is initial
    edges: list                   # (src id, Event, dst id)
    halted_states: frozenset      # as Trace.halted, not is_halted
    truncated_states: frozenset
    truncated: bool               # state bound was hit

    @cached_property
    def _outcome_sets(self) -> tuple:
        return _fold_paths(self, _publish_value, _insert_sorted, ())

    @property
    def outcomes(self) -> frozenset:
        """Sorted tuples of Values."""
        return self._outcome_sets[0]

    @property
    def truncated_outcomes(self) -> frozenset:
        return self._outcome_sets[1]


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
    This pi holds only until an Expand, so it is not the upper bound on
    publications that ``_safe`` uses (``_publication_bound``, where a
    DefCall is unbounded and ``;`` takes the max).
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


def _publication_bound(e: Expr) -> int:
    """How many more times ``e`` can publish, where 2 stands for two or
    more: 1 for a SiteCall, Pending or Emit, 0 for Stop and 2 for a
    DefCall, which an expansion makes unbounded; the sum over ``|``, the
    max over ``;``, the left operand's for ``<x<`` and the product for
    ``>x>``, each capped at 2."""
    kind = type(e)
    if kind is Parallel:
        return min(2, sum(map(_publication_bound, e.branches)))
    if kind is Sequential:
        left = _publication_bound(e.left)
        return left and min(2, left * _publication_bound(e.right))
    if kind is Otherwise:
        return max(_publication_bound(e.left), _publication_bound(e.right))
    if kind is Asymmetric:
        return _publication_bound(e.left)
    if kind is Stop:
        return 0
    return 2 if kind is DefCall else 1


def _safe(s: tuple, program: Program) -> bool:
    """Is step ``s`` safe (see ``explore``): a Return, a publication, a
    fallback, a Call that resolves with no cycled site, i.e. to a site
    with at most one response (every builtin, a single-response or
    silent site), or the spawn of an ``A >x> B`` whose A can publish at
    most once more?  It reads only the step: a spawn's node is its
    ``>x>``."""
    rule, node = s[0], s[3]
    if rule == _PRIO_CALL:
        return _resolve_call(node.site, node.args, 0, program, {})[2] is None
    if rule == _PRIO_SEQ_SPAWN:
        return _publication_bound(node.left) <= 1
    return rule in (_PRIO_RETURN, _PRIO_PUBLISH, _PRIO_FALLBACK)


def explore(program: Program, bounds: Bounds = Bounds(),
            reduce: bool = False) -> ExploredLts:
    """Breadth-first exploration with canonical deduplication: one
    step walk per state, and a successor only for each step followed.

    Raises BoundExceeded (with the partial ExploredLts attached) when
    max_states is hit; paths cut off that way are flagged, not lost.

    With ``reduce``, a state whose transitions include a *safe* one
    follows only the first safe one in step order, and otherwise all of
    them (a partial-order reduction with singleton ample sets;
    Godefroid, LNCS 1032, 1996).  A safe step is a Return, a Call to a
    site with at most one response, a publication (the rule of an Emit
    that no ``>x>`` or ``<x<`` takes, so its position is the root), a
    fallback of ``;``, or the spawn of an ``A >x> B`` whose A can
    publish at most once more (``_publication_bound``).  A
    multi-response call is not safe, since it reads and advances the
    shared ``cycles`` counter, nor is an Expand, which shares
    ``def_depth``, nor a bind, which discards its right operand.  The
    result keeps ``outcomes``, the halted states, and the truncated
    outcomes and states of the depth bound exact.  The clock is fixed
    until Tick, and Tick waits for quiescence, so no Tick comes before
    an enabled safe step; canonical_key ignores handles and
    ``next_handle``.  Per kind of safe step:

    * Return and Call: a step reads only its own node, the clock and
      ``next_handle``, which only names its fresh handle.  It writes
      only its node and ``next_handle``, so it commutes with every
      other step up to canonical equality, and no other step disables
      it, except that the right operand of ``<x<`` can be discarded
      while it can still step.  If a bind discards the safe step's
      branch, taking the safe step first and then that bind reaches the
      same canonical state.  Calls and returns publish nothing;
    * Publish: the step writes only its Emit, which becomes Stop, and
      the B of each ``A ; B`` it passes, which it discards; B is not
      active, and the fallback cannot fire while A holds the Emit.  It
      reads only its value, which no other step writes: a bind's
      substitution leaves a value alone.  No ``<x<`` right operand and
      no ``>x>`` left operand lies on its path, so nothing hides it or
      discards it, and no other step disables it.  It changes the order
      of publications, but not their multiset;
    * Fallback of ``A ; B``: the step writes only its own node, which
      becomes B.  It reads only A's halting, and no step restarts a
      halted A: it has no active node, no response due and no call
      waiting for a variable.  Only a bind whose right operand holds
      the ``;`` can disable it, and that bind discards the ``;`` or B
      alike, so it reaches the same canonical state before or after the
      step.  It publishes nothing;
    * Spawn of ``A >x> B``: the step writes only its Emit, which becomes
      Stop, and its ``>x>``, which it wraps in a ``|`` that holds the
      new copy ``[v/x]B``.  It reads its value and B, which only a
      bind above can write, and a bind substitutes into B and its
      copies alike (``x`` shadows its own name), so the two commute.
      Only a bind that discards the ``>x>``'s whole subtree can disable
      it, and that bind reaches the same canonical state before or
      after the step.  It publishes nothing.  Two spawns of one ``>x>``
      do not commute, because their copies' branch order differs; the
      guard, at most one more publication of A, leaves the step's own
      Emit as A's last, so no second spawn can follow.  The bound
      counts a DefCall as unbounded, since an expansion can raise it;
    * so, by induction along the acyclicity order of ``_fold_paths``,
      every maximal path of the full graph has a path in the reduced
      graph that ends in the same terminal state with the same
      publication multiset.

    The reduced graph is a subgraph of the full one, so it never hits
    ``max_states`` when the full one does not.  It drops interleavings,
    so publication_sequences, path_call_site_sets and lts_view need
    the full graph, the default.
    """
    init = ExecState(program.goal)
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
        steps, waits = _enabled(state, bounds)
        if reduce:
            steps = next(([s] for s in steps if _safe(s, program)), steps)
        if not steps:
            if _DEPTH in waits:
                truncated.add(i)
            else:
                halted.add(i)
            continue
        for s in steps:
            event, succ = _apply(state, s, program)
            # One lookup, so one hash of the key, which walks the whole
            # term.  Past the state bound a new key stays in ``ids`` at
            # len(states), which no longer grows, so it stays new.
            j = ids.setdefault(canonical_key(succ), len(states))
            if j == len(states):
                if j >= bounds.max_states:
                    hit_state_bound = True
                    truncated.add(i)
                    continue
                states.append(succ)
                queue.append(j)
            edges.append((i, event, j))

    result = ExploredLts(states, edges, frozenset(halted),
                         frozenset(truncated), hit_state_bound)
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
    """The explored graph as an Lts with states s0, s1, ..., each
    distinct event labelled once."""
    names = [f"s{i}" for i in range(len(explored.states))]
    labels = {ev: event_label(ev)
              for ev in {ev for _, ev, _ in explored.edges}}
    trans = frozenset((names[i], labels[ev], names[j])
                      for (i, ev, j) in explored.edges)
    return Lts(frozenset(names), frozenset(), "s0", trans)
