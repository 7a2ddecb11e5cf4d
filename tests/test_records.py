"""The per-step records of the Orc layers: term nodes, execution
states, events, transitions and lexer tokens.

They are plain (not frozen) dataclasses, since a frozen one pays for
each field of every construction.  What keeps them immutable is that
nothing stores into them after ``__init__``; the guard below enforces
that across the parser, the semantics and the CLI.  Their equality
and hashing are those of the frozen records they replaced.
"""

import contextlib
import dataclasses
import hashlib
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from orcline import cli, corpus, orc_ast, orc_parser, orc_semantics
from orcline.errors import BoundExceeded
from orcline.orc_ast import (
    STOP, TRUE, Asymmetric, DefCall, Emit, Otherwise, Parallel, Pending,
    Program, Sequential, SiteCall, SiteSpec, Stop, Var, substitute,
)
from orcline.orc_parser import parse_program, render_lts, render_program
from orcline.orc_semantics import (
    Bounds, ExecState, explore, lts_view, run, step,
)

from generators import random_expr

ENV = {"A": SiteSpec((1, 2, 3)), "B": SiteSpec((TRUE, 0), 2),
       "C": SiteSpec(()), "D": SiteSpec((5,), 1)}


def _unfrozen_records() -> list:
    return [obj for module in (orc_ast, orc_semantics, orc_parser)
            for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and dataclasses.is_dataclass(obj)
            and obj.__dataclass_params__.unsafe_hash]


UNFROZEN = _unfrozen_records()


def test_the_guard_covers_every_per_step_record():
    assert {cls.__name__ for cls in UNFROZEN} == {
        "Bool", "Var", "SiteCall", "DefCall", "Parallel", "Sequential",
        "Asymmetric", "Otherwise", "Pending", "Emit", "Stop", "Publish",
        "Internal", "Call", "Return", "Tick", "ExecState", "Transition",
        "_Token"}
    assert not any(cls.__dataclass_params__.frozen for cls in UNFROZEN)


def _store_guard(cls):
    init = cls.__init__.__code__

    def __setattr__(self, name, value):
        if sys._getframe(1).f_code is not init:
            raise AssertionError(
                f"{cls.__name__}.{name} stored outside __init__")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AssertionError(f"{cls.__name__}.{name} deleted")

    return __setattr__, __delattr__


@contextlib.contextmanager
def stores_only_in_init():
    """Every record in UNFROZEN refuses a store, unless its own
    ``__init__`` makes it, and every deletion."""
    with pytest.MonkeyPatch.context() as patch:
        for cls in UNFROZEN:
            setter, deleter = _store_guard(cls)
            patch.setattr(cls, "__setattr__", setter)
            patch.setattr(cls, "__delattr__", deleter)
        yield


def test_the_guard_refuses_a_store_after_construction():
    with stores_only_in_init():
        call = SiteCall("A", (1,))
        par = Parallel(Parallel(call, STOP), call)
        state = ExecState(par)
        with pytest.raises(AssertionError, match="SiteCall.site"):
            call.site = "B"
        with pytest.raises(AssertionError, match="Parallel.branches"):
            par.branches = (call, call)
        with pytest.raises(AssertionError, match="ExecState.clock"):
            state.clock = 3
        with pytest.raises(AssertionError, match="deleted"):
            del state.clock
    call.site = "B"     # the guard is gone again


def _exercise(program: Program, seed: int, bounds: Bounds):
    """Parse, explore both ways, run seeded, view and substitute."""
    again = parse_program(render_program(program))
    for reduce in (False, True):
        try:
            explored = explore(again, bounds, reduce)
        except BoundExceeded as exc:
            explored = exc.partial
        lts_view(explored)
    try:
        run(again, seed, bounds)
    except BoundExceeded:
        pass
    step(ExecState(again.goal), again, bounds)
    substitute(again.goal, "v0", TRUE)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_nothing_stores_into_a_record_after_construction(seed, with_env):
    rng = random.Random(seed)
    program = Program(random_expr(rng, 2 + seed % 3), {},
                      ENV if with_env else {})
    with stores_only_in_init():
        _exercise(program, seed, Bounds(max_states=200, max_steps=200))


@pytest.mark.parametrize("name", [name for name in corpus.fixture_names()
                                  if name.endswith(".orc")])
def test_nothing_stores_into_a_record_on_a_fixture(name, capsys, tmp_path):
    text = corpus.fixture_text(name)
    path = tmp_path / name
    path.write_text(text)
    with stores_only_in_init():
        _exercise(parse_program(text), 7, Bounds(max_states=2000))
        for argv in (["orc", "run", str(path), "--seed", "7"],
                     ["orc", "explore", str(path), "--format", "lts"]):
            assert cli.main(argv) in (0, 2)
    assert capsys.readouterr().out


# ---------------------------------------------------------------------------
# equality and hashing

def test_equality_and_hash_are_those_of_the_fields():
    call = SiteCall("A", (1, Var("x")))
    assert hash(call) == hash(("A", (1, Var("x"))))
    assert hash(Sequential(call, "x", STOP)) == hash((call, "x", STOP))
    assert hash(STOP) == hash(Stop()) == hash(())
    assert call != DefCall("A", (1, Var("x")))
    assert Otherwise(call, STOP) != Asymmetric(call, None, STOP)
    with pytest.raises(TypeError, match="unhashable"):
        hash(ExecState(call))
    assert ExecState(call) == ExecState(call, 0, 0, {}, {})


def test_a_pending_call_compares_without_its_handle():
    a, b = Pending(1, "A", 3, 5), Pending(2, "A", 3, 5)
    assert a == b and hash(a) == hash(b)
    assert a != Pending(1, "A", 4, 5) and a != Pending(1, "A", 3, 6)
    assert len({Emit(a), Emit(b)}) == 1


def test_a_parallel_in_first_position_flattens():
    a, b, c = SiteCall("A"), SiteCall("B"), SiteCall("C")
    assert Parallel(Parallel(a, b), c) == Parallel(a, b, c)
    assert hash(Parallel(Parallel(a, b), c)) == hash(Parallel(a, b, c))
    assert Parallel(a, Parallel(b, c)) != Parallel(a, b, c)


# SHA-256 over render_lts(lts_view(explore(p))) of the 200 programs
# below, as the frozen records gave it.
LTS_FINGERPRINT = \
    "fc870c5fa9652348f866cb7427c305a60994a84a6d6578e25fc2bbd2f5aa3687"


def test_explored_graphs_keep_their_fingerprint():
    digest = hashlib.sha256()
    for seed in range(200):
        rng = random.Random(seed)
        p = Program(random_expr(rng, 2 + seed % 3), {},
                    ENV if seed % 2 else {})
        try:
            explored = explore(p, Bounds(max_states=300))
        except BoundExceeded as exc:
            explored = exc.partial
        digest.update(render_lts(lts_view(explored)).encode())
    assert digest.hexdigest() == LTS_FINGERPRINT
