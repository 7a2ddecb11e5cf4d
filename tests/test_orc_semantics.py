import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from orcline import (
    Bounds, BoundExceeded, Call, ExecState, Internal, Publish, Return, Tick,
    corpus, explore, is_halted, lts_view, orc_semantics, parse_program,
    publication_sequences, run, step,
)
from orcline.orc_ast import (
    BUILTIN_SITES, FALSE, SIGNAL, TRUE, Asymmetric, DefCall, Definition,
    Emit, Otherwise, Parallel, Pending, Program, Sequential, SiteCall,
    SiteSpec, Stop, value_sort_key,
)
from orcline.orc_parser import parse_lts, render_lts
from orcline.orc_semantics import (
    _fold_paths, canonical_key, event_label, event_to_json,
    path_call_site_sets,
)

import oracles
from generators import ended_paths, random_expr


def program(src: str) -> Program:
    return parse_program(src)


def drive(p: Program):
    """(events, final state) of the unseeded run."""
    state = ExecState(p.goal)
    events = []
    while True:
        transitions = step(state, p)
        if not transitions:
            return events, state
        events.append(transitions[0].event)
        state = transitions[0].state


# ---------------------------------------------------------------------------
# the individual rules

def test_site_call_registers_a_pending_entry():
    p = program("Signal()")
    [t] = step(ExecState(p.goal), p)
    assert isinstance(t.event, Call)
    assert t.event.site == "Signal" and t.event.handle == 0
    assert t.state.expr == Pending(0, "Signal", 0, SIGNAL)


def test_signal_call_return_publish():
    p = program("Signal()")
    events, state = drive(p)
    kinds = [type(e) for e in events]
    assert kinds == [Call, Return, Publish]
    assert events[2].value == SIGNAL
    assert is_halted(state)


def test_zero_site_blocks_forever():
    p = program("0()")
    events, state = drive(p)
    assert [type(e) for e in events] == [Call]
    assert state.expr == Pending(0, "0", None, None)
    assert is_halted(state)


def test_call_with_unbound_variable_has_no_transition():
    p = program("let(x)")
    assert step(ExecState(p.goal), p) == []


def test_parallel_steps_both_sides():
    p = program("let(1) | let(2)")
    state = ExecState(p.goal)
    first = step(state, p)
    assert len(first) == 2
    assert {t.event.args for t in first} == {(1,), (2,)}
    # after both return, both publishes are enabled at once
    while True:
        transitions = step(state, p)
        if all(isinstance(t.event, Publish) for t in transitions):
            assert len(transitions) == 2
            break
        state = transitions[0].state


def test_sequential_hides_publication_and_spawns_instance():
    p = program("let(1) >x> let(x)")
    events, state = drive(p)
    assert [type(e) for e in events] == [Call, Return, Internal, Call,
                                         Return, Publish]
    assert events[5].value == 1


def test_sequential_spawns_one_instance_per_publication():
    p = program("(let(1) | let(2)) >x> let(x)")
    trace = run(p)
    assert sorted(trace.publications) == [1, 2]


def test_asymmetric_takes_first_value_and_terminates_donor():
    p = program("let(x, x) <x< (let(5) | let(6))")
    ex = explore(p)
    assert ex.outcomes == {((5, 5),), ((6, 6),)}
    # exactly one publication per path: the loser is terminated
    assert all(len(seq) == 1 for seq in ex.outcomes)


def test_asymmetric_left_runs_while_waiting():
    p = program("Signal() | let(x) <x< let(3)")
    trace = run(p)
    assert SIGNAL in trace.publications and 3 in trace.publications


def test_otherwise_fires_only_on_silent_halt():
    assert explore(program("if(false) ; Signal()"), reduce=True).outcomes \
        == {(SIGNAL,)}
    assert explore(program("Signal() ; let(9)"), reduce=True).outcomes \
        == {(SIGNAL,)}


def test_otherwise_does_not_fire_after_publication():
    ex = explore(program("Signal() ; let(9)"))
    assert all("let" not in sites for sites in path_call_site_sets(ex))


def test_definition_expansion_is_internal_and_bounded():
    p = program("def Twice(x) = let(x) | let(x)\nTwice(4)\n")
    events, _ = drive(p)
    assert type(events[0]) is Internal
    loop = program("def Loop() = Signal() >> Loop()\nLoop()\n")
    with pytest.raises(BoundExceeded):
        run(loop, bounds=Bounds(max_steps=20, max_depth=1000))
    # With a small depth bound the program goes quiescent instead, and
    # the quiescence is reported as truncation, not as a proper halt.
    trace = run(loop, bounds=Bounds(max_steps=10000, max_depth=4))
    assert trace.truncated and not trace.halted


def test_definition_call_by_value_blocks_on_variables():
    p = program("def Id(x) = let(x)\nId(y) <y< let(8)\n")
    assert run(p).publications == [8]


def test_tick_advances_to_earliest_due_only_when_quiescent():
    p = program("Rtimer(3)")
    state = ExecState(p.goal)
    [call] = step(state, p)
    [tick] = step(call.state, p)
    assert isinstance(tick.event, Tick)
    assert tick.event.clock == 3 and tick.state.clock == 3
    p2 = program("Rtimer(3) | Signal()")
    s = ExecState(p2.goal)
    while True:
        transitions = step(s, p2)
        if isinstance(transitions[0].event, Tick):
            # nothing else runnable once Signal's side finished
            assert len(transitions) == 1
            break
        assert not any(isinstance(t.event, Tick) for t in transitions)
        s = transitions[0].state


def test_terminated_donor_timer_never_ticks():
    # let(1) wins the race; the Rtimer call dies with the right side of
    # <x<, so its due tick must never become a Tick target.
    ex = explore(program("let(x) <x< (Rtimer(5) | let(1))"))
    assert not any(isinstance(ev, Tick) for (_, ev, _) in ex.edges)
    assert ex.outcomes == {(1,)}


def test_timer_race_orders_publications():
    ex = explore(program("Rtimer(2) >x> let(1) | Rtimer(1) >y> let(2)"))
    assert publication_sequences(ex) == {(2, 1)}


def test_site_declarations_control_responses():
    p = program('site probe delay 2 responds "pong"\nprobe()\n')
    trace = run(p)
    assert trace.publications == ["pong"]
    assert any(isinstance(e, Tick) for (_, e) in trace.events)
    p2 = program("site mute silent\nmute()\n")
    trace2 = run(p2)
    assert trace2.publications == [] and trace2.halted


def test_multi_response_sites_cycle_in_call_order():
    p = program("site toggle responds 1, 2\ntoggle() | toggle()\n")
    assert sorted(run(p).publications) == [1, 2]


# Calls of each builtin site, well and ill typed.
BUILTIN_CALLS = {
    "0": "0() | let(1)",
    "Signal": "Signal() | Signal(1)",
    "let": "let() | let(5) | let(1, true)",
    "if": "if(true) | if(false) | if(1)",
    "Rtimer": 'Rtimer(2) >> let(3) | Rtimer(true) | Rtimer("1")',
}


def test_a_builtin_site_ignores_a_site_env_entry():
    # The parser refuses to declare a builtin site, so build the
    # Program directly: an entry for a builtin changes nothing, while
    # any other name answers as its entry says.
    assert set(BUILTIN_CALLS) == BUILTIN_SITES
    declared = SiteSpec((99,), 7)
    for name, src in BUILTIN_CALLS.items():
        p = program(src)
        p_declared = Program(p.goal, p.definitions, {name: declared})
        for seed in (None, 1, 4):
            assert run(p_declared, seed) == run(p, seed)
        assert explore(p_declared).outcomes == explore(p).outcomes
    trace = run(Program(SiteCall("S", ()), site_env={"S": declared}))
    assert trace.publications == [99]
    assert trace.events[-1] == (7, Publish(99))


# ---------------------------------------------------------------------------
# halted-ness

def test_halted_examples():
    p = program("if(false)")
    [t] = step(ExecState(p.goal), p)
    assert is_halted(t.state)

    p = program("Rtimer(5)")
    [t] = step(ExecState(p.goal), p)
    assert not is_halted(t.state)

    p = program("if(false) | if(false)")
    _, state = drive(p)
    assert is_halted(state)


def test_blocked_variable_is_not_considered_halted():
    # let(x) can still move once x arrives, so `;` must not fire.
    p = program("(let(x) <x< Signal()) ; let(99)")
    assert explore(p, reduce=True).outcomes == {(SIGNAL,)}
    # Nor for a definition call waiting for its argument.
    p = program("def F(x) = let(x)\n"
                "(F(y) ; let(9)) <y< (Rtimer(1) >> let(2))")
    assert explore(p, reduce=True).outcomes == {(2,)}


def test_let_of_an_unbound_variable_halts_for_run_and_explore_only():
    # run and explore call a quiescent state halted unless a definition
    # waits at the depth bound; is_halted also counts the call that
    # waits for x, which nothing will ever bind.
    p = program("let(x)")
    trace = run(p)
    assert (trace.events, trace.halted, trace.truncated) == ([], True, False)
    ex = explore(p)
    assert ex.halted_states == {0} and not ex.truncated_states
    assert ex.outcomes == {()}
    assert not is_halted(ExecState(p.goal))


def test_the_step_walk_agrees_with_the_oracle_walks(monkeypatch):
    # Halting, the Tick target and truncation each had a walk of their
    # own (kept in oracles.py); now the step walk's waits decide them.
    fixtures = [program(corpus.fixture_text(name))
                for name in corpus.fixture_names() if name.endswith(".orc")]
    cases = list(fold_inputs()) + list(reduction_inputs())
    cases += [(p, Bounds(max_depth=d)) for p in fixtures for d in (1, 3, 16)]
    walked = []   # (state, step events) in the order explore walks them
    enabled = orc_semantics._enabled

    def recording_enabled(state, bounds):
        steps, waits = enabled(state, bounds)
        walked.append((state, [orc_semantics._apply(state, s, p)[0]
                               for s in steps]))
        return steps, waits

    seen = {"halted": 0, "tick": 0, "truncated": 0}
    for p, bounds in cases:
        walked.clear()
        with monkeypatch.context() as patched:
            patched.setattr(orc_semantics, "_enabled", recording_enabled)
            ex = explore_partial(p, bounds)
        assert [s for (s, _) in walked] == ex.states   # BFS order
        for i, (state, events) in enumerate(walked):
            halted = oracles._halted(state.expr)
            assert is_halted(state) == halted
            if events and type(events[0]) is not Tick:
                continue
            due = oracles._next_due(state.expr, state.clock)
            assert events == ([] if due is None else [Tick(due)])
            if not events:
                cut = oracles._depth_blocked(state.expr, state, bounds)
                assert (i in ex.truncated_states) == cut
                assert (i in ex.halted_states) == (not cut)
                seen["truncated"] += cut
            seen["halted"] += halted
            seen["tick"] += bool(events)
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------------------------
# run / policies

def test_run_deterministic_is_reproducible():
    p = program("(let(1) | let(2)) >x> let(x)")
    t1, t2 = run(p), run(p)
    assert [e for (_, e) in t1.events] == [e for (_, e) in t2.events]


def test_run_seeded_is_reproducible_and_seed_sensitive():
    src = "let(1) | let(2) | let(3) | let(4)"
    p = program(src)
    a = run(p, 7).publications
    b = run(p, 7).publications
    assert a == b
    orders = {tuple(run(p, s).publications) for s in range(40)}
    assert len(orders) > 1
    assert all(sorted(o) == [1, 2, 3, 4] for o in orders)


def test_run_raises_bound_exceeded_with_partial_trace():
    p = program("def Loop() = Signal() >> Loop()\nLoop()\n")
    with pytest.raises(BoundExceeded) as info:
        run(p, bounds=Bounds(max_steps=25))
    partial = info.value.partial
    assert len(partial.events) == 25
    assert partial.truncated and not partial.halted


def test_trace_publications_match_publish_events():
    rng = random.Random(31)
    for _ in range(120):
        p = Program(random_expr(rng), {}, {})
        try:
            trace = run(p, rng.randrange(1000), Bounds(max_steps=400))
        except BoundExceeded as exc:
            trace = exc.partial
        assert trace.publications == [e.value for (_, e) in trace.events
                                      if isinstance(e, Publish)]


def test_handles_are_fresh_and_returns_follow_calls():
    rng = random.Random(32)
    for _ in range(120):
        p = Program(random_expr(rng), {}, {})
        try:
            trace = run(p, rng.randrange(1000), Bounds(max_steps=400))
        except BoundExceeded as exc:
            trace = exc.partial
        called = set()
        for (_, event) in trace.events:
            if isinstance(event, Call):
                assert event.handle not in called
                called.add(event.handle)
            elif isinstance(event, Return):
                assert event.handle in called


def test_clock_is_monotone():
    p = program("Rtimer(1) >> Rtimer(2) >> Signal() | Rtimer(3)")
    trace = run(p)
    clocks = [c for (c, _) in trace.events]
    assert clocks == sorted(clocks)


# ---------------------------------------------------------------------------
# exploration

def test_explore_finds_all_interleavings_of_independent_publishes():
    ex = explore(program("let(1) | let(2)"))
    assert ex.outcomes == {(1, 2)}
    assert publication_sequences(ex) == {(1, 2), (2, 1)}


def test_explore_outcome_of_silence_is_empty():
    ex = explore(program("0()"))
    assert ex.outcomes == {()}
    assert len(ex.states) == 2


SITE_ENV = {"A": SiteSpec((1, 2, 3)), "B": SiteSpec((TRUE, 0), 2),
            "C": SiteSpec(())}


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.randoms(use_true_random=False))
def test_seeded_runs_publish_an_explored_outcome(rng):
    goal = random_expr(rng, rng.randrange(2, 5))
    definitions = {}
    if rng.random() < 0.5:
        # A recursion that the depth bound cuts off.
        body = Sequential(random_expr(rng, 1), None, DefCall("L"))
        definitions["L"] = Definition((), body)
        goal = Parallel(goal, DefCall("L"))
    p = Program(goal, definitions, SITE_ENV if rng.random() < 0.5 else {})
    bounds = Bounds(max_steps=2000, max_states=2000,
                    max_depth=rng.randrange(1, 3))
    try:
        ex = explore(p, bounds)
    except BoundExceeded:
        return
    # The unseeded run, then three seeded ones.
    for seed in [None] + rng.sample(range(1000), 3):
        try:
            trace = run(p, seed, bounds)
        except BoundExceeded:
            continue
        outcome = tuple(sorted(trace.publications, key=value_sort_key))
        assert outcome in (ex.truncated_outcomes if trace.truncated
                           else ex.outcomes)


def test_explore_respects_state_bound_with_partial_result():
    p = program("def Loop() = Signal() >> Loop()\nLoop()\n")
    with pytest.raises(BoundExceeded) as info:
        explore(p, Bounds(max_states=20, max_depth=1000))
    partial = info.value.partial
    assert partial.truncated
    assert len(partial.states) <= 20
    assert partial.truncated_outcomes


def test_explore_marks_cycles_as_truncated_outcomes():
    # With a finite depth bound the loop unrolls; the canonical states
    # repeat per depth, and the bound shows up as truncation.
    p = program("def Loop() = Signal() >> Loop()\nLoop()\n")
    ex = explore(p, Bounds(max_depth=3, max_states=5000))
    assert ex.outcomes == frozenset()
    assert ex.truncated_outcomes


def test_canonical_key_renames_handles():
    p = program("Signal() | Signal()")
    s0 = ExecState(p.goal)
    [a, b] = step(s0, p)
    # Left-then-right and right-then-left assign opposite handle
    # numbers to the two sides; the canonical key ignores that.
    [a2] = [t for t in step(a.state, p) if isinstance(t.event, Call)]
    [b2] = [t for t in step(b.state, p) if isinstance(t.event, Call)]
    assert a.state.expr != b.state.expr
    assert canonical_key(a2.state) == canonical_key(b2.state)


def test_lts_view_and_labels():
    ex = explore(program("let(1)"))
    view = lts_view(ex)
    assert view.init == "s0"
    labels = {label for (_, label, _) in view.trans}
    assert labels == {"let_0(1)", "0?1", "!1"}


def test_labels_with_a_space_or_a_comment_marker_round_trip():
    # A space ends a token and "--" starts a comment in the .lts format.
    view = lts_view(explore(program('let("a -- b")')))
    assert parse_lts(render_lts(view)) == view
    [label] = [label for (_, label, _) in view.trans if label[0] == "!"]
    assert label == '!"a\\u0020-\\u002d\\u0020b"'
    assert json.loads(label[1:]) == "a -- b"


def test_event_labels_and_json():
    assert event_label(Publish(SIGNAL)) == "!signal"
    assert event_label(Internal()) == "tau"
    assert event_label(Call("M", 3, (1, TRUE))) == "M_3(1,true)"
    assert event_label(Return("M", 3, "x")) == '3?"x"'
    assert event_label(Tick(4)) == "tick(4)"
    js = event_to_json(2, Return("M", 3, (1, SIGNAL)))
    assert js == {"clock": 2, "kind": "return", "site": "M", "handle": 3,
                  "value": {"t": "tuple",
                            "v": [{"t": "int", "v": 1},
                                  {"t": "signal", "v": None}]}}
    assert event_to_json(0, Call("M", 0, (FALSE,)))["args"] \
        == [{"t": "bool", "v": False}]


# ---------------------------------------------------------------------------
# The path fold against brute-force path enumeration

RECURSIVE = [
    "def Loop() = Signal() >> Loop()\nLoop()\n",
    "def Beat(n) = let(n) | Rtimer(1) >> Beat(n)\nBeat(1)\n",
    "def Retry(x) = if(false) ; Retry(x)\nRetry(2) | Rtimer(2) >> let(3)\n",
    "def Race() = (Rtimer(1) >> let(1)) <x< Race()\nRace()\n",
    "site toggle responds 1, 2, 3\n"
    "def Poll() = toggle() >x> (let(x) | Poll())\nPoll()\n",
]


def fold_inputs():
    """Random terms (a quarter under a tight state bound, half with
    multi-response, delayed and silent sites), then recursive
    definitions at several depth bounds."""
    rng = random.Random(34)
    for k in range(300):
        p = Program(random_expr(rng, 2 + k % 3), {},
                    SITE_ENV if k % 2 else {})
        yield p, Bounds(max_states=25 if k % 4 == 0 else 100)
    for src in RECURSIVE:
        for depth in (1, 3, 6):
            yield program(src), Bounds(max_states=100, max_depth=depth)


def explore_partial(p, bounds, reduce=False):
    try:
        return explore(p, bounds, reduce)
    except BoundExceeded as exc:
        return exc.partial


def test_fold_matches_brute_force_paths():
    cut_off = 0
    for p, bounds in fold_inputs():
        ex = explore_partial(p, bounds)
        outcomes, cut, sequences, site_sets = set(), set(), set(), set()
        for path, is_cut in ended_paths(ex):
            values = [e.value for e in path if isinstance(e, Publish)]
            multiset = tuple(sorted(values, key=value_sort_key))
            if is_cut:
                cut.add(multiset)
                continue
            outcomes.add(multiset)
            sequences.add(tuple(values))
            site_sets.add(frozenset(e.site for e in path
                                    if isinstance(e, Call)))
        assert ex.outcomes == outcomes
        assert ex.truncated_outcomes == cut
        assert publication_sequences(ex) == sequences
        assert path_call_site_sets(ex) == site_sets
        cut_off += ex.truncated
    assert cut_off >= 50   # the state bound really cut many graphs


def _publication_bound(e) -> int:
    if isinstance(e, (SiteCall, Pending, Emit)):
        return 1
    if isinstance(e, Parallel):
        return sum(map(_publication_bound, e.branches))
    if isinstance(e, Otherwise):
        return _publication_bound(e.left) + _publication_bound(e.right)
    if isinstance(e, Asymmetric):
        return _publication_bound(e.left)
    if isinstance(e, Sequential):
        return _publication_bound(e.left) * _publication_bound(e.right)
    return 0   # Stop, DefCall


def _measure(e) -> int:
    if isinstance(e, SiteCall):
        return 3
    if isinstance(e, Pending):
        return 2
    if isinstance(e, Emit):
        return 1
    if isinstance(e, Sequential):
        return (1 + _measure(e.left) + _publication_bound(e.left)
                * (_measure(e.right) + 1))
    if isinstance(e, Parallel):
        return len(e.branches) - 1 + sum(map(_measure, e.branches))
    if isinstance(e, (Asymmetric, Otherwise)):
        return 1 + _measure(e.left) + _measure(e.right)
    assert isinstance(e, (Stop, DefCall))
    return 0


def test_every_edge_climbs_the_acyclicity_order():
    # The argument in _fold_paths' docstring: every transition strictly
    # raises (clock, total def_depth, -measure), so no state recurs.
    fixtures = [program(corpus.fixture_text(name))
                for name in corpus.fixture_names() if name.endswith(".orc")]
    cases = list(fold_inputs())
    cases += [(p, Bounds(max_depth=d)) for p in fixtures for d in (1, 3, 16)]

    def order(state):
        return (state.clock, sum(state.def_depth.values()),
                -_measure(state.expr))

    for p, bounds in cases:
        ex = explore_partial(p, bounds)
        for (i, _, j) in ex.edges:
            assert order(ex.states[i]) < order(ex.states[j])


def _handles(e) -> list:
    if isinstance(e, Pending):
        return [e.handle]
    if isinstance(e, Parallel):
        return [h for b in e.branches for h in _handles(b)]
    if isinstance(e, (Sequential, Asymmetric, Otherwise)):
        return _handles(e.left) + _handles(e.right)
    return []


def test_each_handle_occurs_once_and_below_next_handle():
    # Each outstanding call lives only in its Pending node: >x> copies
    # only its unstarted right side and substitute leaves Pending alone.
    fixtures = [(program(corpus.fixture_text(name)), Bounds())
                for name in corpus.fixture_names() if name.endswith(".orc")]
    for p, bounds in list(fold_inputs()) + fixtures:
        for state in explore_partial(p, bounds).states:
            handles = _handles(state.expr)
            assert len(handles) == len(set(handles))
            assert all(h < state.next_handle for h in handles)


def test_fold_rejects_a_state_reached_from_itself():
    looped = explore(program("let(1)"))
    looped.edges.append((len(looped.states) - 1, Internal(), 0))
    with pytest.raises(RuntimeError, match="reachable from itself"):
        _fold_paths(looped, lambda ev: None, lambda item, acc: acc, ())


# ---------------------------------------------------------------------------
# Safe-step reduction against full exploration

# In each, the left operand of >x> publishes twice (in the second, once
# F() expands), so no spawn there is safe: the copies' branch order
# tells the two spawn orders apart, and following one alone loses a
# halted state.
SPAWN_PROBES = [
    "site C silent\n(let(1) | let(2)) >x> (C() >> let(x))\n",
    "def F() = let(2)\nsite C silent\n(let(1) | F()) >x> (C() >> let(x))\n",
]


def reduction_inputs():
    """Random terms with and without a site env (multi-response,
    delayed, silent and single-response delayed sites), random terms
    mixing in the builtins, the recursive definitions at several depth
    bounds, the spawn probes, and every fixture."""
    rng = random.Random(35)
    env = {"A": SiteSpec((1, 2, 3)), "B": SiteSpec((TRUE, 0), 2),
           "C": SiteSpec(()), "D": SiteSpec((5,), 1)}
    mixed = ("A", "D", "Rtimer", "if", "let", "0", "Signal")
    bounds = Bounds(max_states=600)
    for k in range(300):
        depth = 2 + k % 3
        yield Program(random_expr(rng, depth), {}, env if k % 2 else {}), \
            bounds
        yield Program(random_expr(rng, depth, sites=mixed), {}, env), bounds
    for src in RECURSIVE:
        for depth in (1, 3, 6):
            yield program(src), Bounds(max_states=600, max_depth=depth)
    # The two expansions compete for the one allowed by the depth bound.
    yield program("def Pick(x) = let(x)\nPick(1) | Pick(2)\n"), \
        Bounds(max_depth=1)
    for src in SPAWN_PROBES:
        yield program(src), Bounds()
    for name in corpus.fixture_names():
        if name.endswith(".orc"):
            yield program(corpus.fixture_text(name)), Bounds()


def _keys(explored, ids) -> set:
    return {canonical_key(explored.states[i]) for i in ids}


def test_reduced_exploration_keeps_outcomes_and_end_states():
    compared = smaller = 0
    for p, bounds in reduction_inputs():
        try:
            full = explore(p, bounds)
        except BoundExceeded:
            continue
        reduced = explore(p, bounds, reduce=True)
        assert not reduced.truncated
        assert reduced.outcomes == full.outcomes
        assert reduced.truncated_outcomes == full.truncated_outcomes
        assert _keys(reduced, range(len(reduced.states))) \
            <= _keys(full, range(len(full.states)))
        assert _keys(reduced, reduced.halted_states) \
            == _keys(full, full.halted_states)
        assert _keys(reduced, reduced.truncated_states) \
            == _keys(full, full.truncated_states)
        compared += 1
        smaller += len(reduced.states) < len(full.states)
    assert compared >= 500 and smaller >= 250


def test_reduction_keeps_the_order_of_multi_response_calls():
    # Both calls read and advance toggle's one response counter, so
    # which goes first decides which branch gets 1.
    p = program("site toggle responds 1, 2\n"
                "toggle() | toggle() >x> let(x, 0)\n")
    want = {tuple(sorted(o, key=value_sort_key))
            for o in [(1, (2, 0)), (2, (1, 0))]}
    assert explore(p).outcomes == want
    assert explore(p, reduce=True).outcomes == want


def test_reduction_follows_one_safe_step_per_state():
    full = explore(program("let(1) | let(2)"))
    reduced = explore(program("let(1) | let(2)"), reduce=True)
    assert (len(full.states), len(full.edges)) == (16, 24)
    assert (len(reduced.states), len(reduced.edges)) == (7, 6)
    # calls, returns and publications are all safe: one path
    assert reduced.edges == [
        (0, Call("let", 0, (1,)), 1), (1, Call("let", 1, (2,)), 2),
        (2, Return("let", 0, 1), 3), (3, Return("let", 1, 2), 4),
        (4, Publish(1), 5), (5, Publish(2), 6)]
    assert reduced.halted_states == {6}


def test_explore_walks_each_state_once(monkeypatch):
    # One step walk per state, and a successor only for each step
    # followed: one per edge, plus each step whose new target the state
    # bound cut off.
    counts = {"walks": 0, "applies": 0}
    expr_steps, apply = orc_semantics._expr_steps, orc_semantics._apply

    def counting_expr_steps(e, path, *rest):
        counts["walks"] += path == ()
        return expr_steps(e, path, *rest)

    def counting_apply(state, s, program):
        counts["applies"] += 1
        return apply(state, s, program)

    def followed(state, p, bounds, reduce):
        steps = oracles._enabled(state, p, bounds)[0]
        safe = [s for s in steps if oracles.safe(state, s)]
        return len(safe[:1] if reduce and safe else steps)

    dr_alt = program(corpus.fixture_text("dr_alt.orc"))
    cases = [(dr_alt, Bounds()), (dr_alt, Bounds(max_states=60)),
             (program("let(1) | let(2)"), Bounds())]
    cases += [(program(src), Bounds()) for src in SPAWN_PROBES]
    cut_off = 0
    for p, bounds in cases:
        for reduce in (False, True):
            counts.update(walks=0, applies=0)
            with monkeypatch.context() as patched:
                patched.setattr(orc_semantics, "_expr_steps",
                                counting_expr_steps)
                patched.setattr(orc_semantics, "_apply", counting_apply)
                ex = explore_partial(p, bounds, reduce)
            assert counts["walks"] == len(ex.states)
            assert counts["applies"] == sum(
                followed(state, p, bounds, reduce) for state in ex.states)
            cut_off += counts["applies"] > len(ex.edges)
            if not ex.truncated:
                assert counts["applies"] == len(ex.edges)
    assert cut_off == 2


def _summary(explored) -> tuple:
    return (explored.states, explored.edges, explored.halted_states,
            explored.truncated_states, explored.outcomes,
            explored.truncated_outcomes, explored.truncated)


# States that differ only in one part of the key: a due tick, or an
# int, a bool and a string that print alike in Python.
KEY_PROBES = [
    "Rtimer(x) <x< (let(1) | let(2))",
    'let(x) <x< (let(1) | let(true) | let("1"))',
    'site S responds 1, true, "1"\nS() | S() | S()',
]


def test_printed_key_partitions_states_as_the_oracle_key(monkeypatch):
    # The state key is the term itself; the oracle is the explorer's
    # original private key syntax.  Same partition and same BFS order
    # means the same numbered states and edges, full and reduced.
    fixtures = [program(corpus.fixture_text(name))
                for name in corpus.fixture_names() if name.endswith(".orc")]
    cases = list(fold_inputs()) + list(reduction_inputs())
    cases += [(p, Bounds(max_depth=d)) for p in fixtures for d in (1, 3)]
    cases += [(program(src), Bounds()) for src in KEY_PROBES]
    for p, bounds in cases:
        for reduce in (False, True):
            printed = explore_partial(p, bounds, reduce)
            with monkeypatch.context() as patched:
                patched.setattr(orc_semantics, "canonical_key",
                                oracles.canonical_key)
                oracle = explore_partial(p, bounds, reduce)
            assert _summary(printed) == _summary(oracle)


def test_outcomes_keep_int_and_bool_apart():
    # Python's 1 == True; Orc's true is a value of its own.
    for reduce in (False, True):
        ex = explore(program("let(v) <v< (let(1) | let(true))"),
                     reduce=reduce)
        assert ex.outcomes == {(1,), (TRUE,)} and len(ex.outcomes) == 2


def fanout(n: int, mixed: bool = False) -> str:
    """n parallel branches on sites S_i that answer i after i mod 3
    ticks: ``S_i() >x> let(x)`` each, or, when ``mixed``, that in turn
    with ``let(x, i) <x< (S_i() ; let(0))`` and ``(if(false) ; S_i())
    >x> let(x)``."""
    kinds = ["S{i}() >x> let(x)", "(let(x, {i}) <x< (S{i}() ; let(0)))",
             "(if(false) ; S{i}()) >x> let(x)"]
    sites = "".join(f"site S{i} delay {i % 3} responds {i}\n"
                    for i in range(n))
    return sites + " | ".join(kinds[i % 3 if mixed else 0].format(i=i)
                              for i in range(n)) + "\n"


# The node a publication, spawn or bind step names: its Emit, or the
# >x> or <x< that hides it.
NAMED_NODE = {orc_semantics._PRIO_PUBLISH: Emit,
              orc_semantics._PRIO_SEQ_SPAWN: Sequential,
              orc_semantics._PRIO_BIND: Asymmetric}


def test_steps_and_successors_agree_with_the_rebuilding_walk():
    # The step walk used to build every step's successor term (kept in
    # oracles.py, on binary | nodes); now a step names the node it
    # rewrites and _apply rebuilds the term along that path.  Same
    # rules and events in the same order, the same waits, the same
    # successor and safety for every step, and the same runs,
    # deterministic and seeded.  Positions differ: a branch of an n-ary
    # | is one index where the binary spine took one index per level.
    fixtures = [program(corpus.fixture_text(name))
                for name in corpus.fixture_names() if name.endswith(".orc")]
    cases = list(fold_inputs()) + list(reduction_inputs())
    cases += [(p, Bounds(max_depth=d)) for p in fixtures for d in (1, 3, 16)]
    cases += [(program(fanout(n, mixed)), Bounds(max_states=1500))
              for n in range(2, 9) for mixed in (False, True)]
    seeds = (None, 1, 4, 7)
    compared = {"steps": 0, "runs": 0}
    for p, bounds in cases:
        for state in explore_partial(p, bounds).states:
            steps, waits = orc_semantics._enabled(state, bounds)
            old_steps, old_waits = oracles._enabled(state, p, bounds)
            applied = [orc_semantics._apply(state, s, p) for s in steps]
            assert [(s[0], event) for s, (event, _) in zip(steps, applied)] \
                == [(s[0], s[2]) for s in old_steps]
            assert waits == old_waits
            for s, (_, successor), old in zip(steps, applied, old_steps):
                assert successor == oracles._apply(state, old)
                assert orc_semantics._safe(s, p) == oracles.safe(state, old)
                if s[0] in NAMED_NODE:
                    assert type(s[3]) is NAMED_NODE[s[0]]
            compared["steps"] += len(steps)
        for seed in seeds:
            try:
                got = run(p, seed, bounds), False
            except BoundExceeded as exc:
                got = exc.partial, True
            assert got == oracles.run(p, seed, bounds)
            compared["runs"] += bool(got[0].events)
    assert compared["steps"] > 100000 and compared["runs"] > 2000, compared


def _depth(e) -> int:
    """Nodes above the deepest leaf of ``e``."""
    if isinstance(e, Parallel):
        return 1 + max(map(_depth, e.branches))
    if isinstance(e, (Sequential, Asymmetric, Otherwise)):
        return 1 + max(_depth(e.left), _depth(e.right))
    return 0


def test_run_rebuilds_one_path_per_event(monkeypatch):
    # The bench's 32-branch fan-out.  A step names the node it
    # rewrites, so an event rebuilds the nodes on one path, no more
    # than the term is deep; the fan-out is one | node, at most three
    # nodes deep, where its binary spine was 33 deep.
    rng = random.Random(32)
    order = list(range(32))
    rng.shuffle(order)
    text = "".join(f"site S{i} delay {i % 3} responds {i}\n" for i in order)
    rng.shuffle(order)
    text += " | ".join(f"S{i}() >x> let(x)" for i in order) + "\n"
    rebuilt = []
    rebuild = orc_semantics._rebuild

    def counting_rebuild(expr, s, leaf_expr):
        leaf_path = s[2]
        assert len(leaf_path) <= _depth(expr)
        rebuilt.append(len(leaf_path))
        return rebuild(expr, s, leaf_expr)

    monkeypatch.setattr(orc_semantics, "_rebuild", counting_rebuild)
    trace = run(program(text), 1)
    assert sorted(trace.publications) == list(range(32))
    assert len(rebuilt) == len(trace.events)
    assert max(rebuilt) <= 3


def test_run_resolves_only_the_calls_it_takes(monkeypatch):
    # The step walk offers every enabled call; only the one step taken
    # resolves its site's response.
    resolved = []
    resolve = orc_semantics._resolve_call

    def counting_resolve(site, *rest):
        resolved.append(site)
        return resolve(site, *rest)

    monkeypatch.setattr(orc_semantics, "_resolve_call", counting_resolve)
    for mixed in (False, True):
        for seed in (1, 2):
            resolved.clear()
            trace = run(program(fanout(32, mixed)), seed)
            calls = [ev.site for (_, ev) in trace.events
                     if isinstance(ev, Call)]
            assert len(calls) >= 64
            assert resolved == calls


def test_run_substitutes_only_the_expansions_it_takes(monkeypatch):
    # Eight parallel calls of one two-parameter recursive definition
    # share its depth counter.  The step walk offers every enabled
    # expansion; only the one step taken substitutes its arguments into
    # the body, one substitution per parameter, and each spawn
    # substitutes the value it publishes, once.
    p = program("def R(a, b) = let(a) >x> R(b, x)\n"
                + " | ".join(f"R({i}, {i + 1})" for i in range(8)) + "\n")
    substituted = []
    substitute = orc_semantics.substitute

    def counting_substitute(e, name, value):
        substituted.append(name)
        return substitute(e, name, value)

    monkeypatch.setattr(orc_semantics, "substitute", counting_substitute)
    for seed in (1, 4, 7):
        substituted.clear()
        trace = run(p, seed, Bounds(max_depth=64))
        assert trace.truncated
        internal = sum(isinstance(ev, Internal) for (_, ev) in trace.events)
        assert internal == 64 + 64   # 64 expansions, 64 spawns
        assert len(substituted) == 2 * 64 + 64
        assert sorted(set(substituted)) == ["a", "b", "x"]


def _oracle_explore(p: Program, bounds: Bounds):
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(orc_semantics, "_enabled",
                        lambda state, b: oracles._enabled(state, p, b))
        patched.setattr(orc_semantics, "_apply",
                        lambda state, s, _: (s[2], oracles._apply(state, s)))
        return explore_partial(p, bounds)


def _printed(explored) -> tuple:
    return ([canonical_key(state) for state in explored.states],
            explored.edges, explored.halted_states,
            explored.truncated_states, explored.truncated)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 64), st.booleans(),
       st.booleans())
@example(0, 64, False, True)
@example(0, 64, True, True)
def test_flat_parallel_explores_and_runs_as_the_binary_walk(
        seed, n, mixed, use_fanout):
    # explore and run on n-ary | nodes against the binary oracle walk:
    # the same numbered states and edges, and the same traces.  A run
    # of a wide fan-out is cut after 60 events.
    if use_fanout:
        p = program(fanout(n, mixed))
        bounds = Bounds(max_states=10, max_steps=60)
    else:
        rng = random.Random(seed)
        env = {"A": SiteSpec((1, 2, 3)), "B": SiteSpec((TRUE, 0), 2)}
        p = Program(random_expr(rng, 2 + seed % 4), {}, env if mixed else {})
        bounds = Bounds(max_states=400)
    assert _printed(explore_partial(p, bounds)) \
        == _printed(_oracle_explore(p, bounds))
    for seed in (None, 1, 4, 7):
        try:
            got = run(p, seed, bounds), False
        except BoundExceeded as exc:
            got = exc.partial, True
        assert got == oracles.run(p, seed, bounds)
