import os
import pathlib
import random
import subprocess
import sys

import pytest

import orcline
from orcline.orc_ast import (
    FALSE, SIGNAL, STOP, TRUE, Asymmetric, Bool, Otherwise, Parallel, Program,
    Sequential, Signal, SiteCall, SiteSpec, Stop, Var, free_vars,
    render_expr, render_value, substitute,
)
from orcline.orc_semantics import value_to_json

from generators import random_expr


def test_signal_is_a_singleton_value():
    assert SIGNAL == Signal()
    assert hash(SIGNAL) == hash(Signal())
    assert repr(SIGNAL) == "signal"
    assert SIGNAL != 0 and SIGNAL != "signal"


def test_render_value_forms():
    assert render_value(SIGNAL) == "signal"
    assert render_value(TRUE) == "true"
    assert render_value(FALSE) == "false"
    assert render_value(-3) == "-3"
    assert render_value("a\"b") == '"a\\"b"'
    assert render_value((1, "x")) == '(1,"x")'


def test_bool_is_a_value_of_its_own():
    # Python's True == 1; an Orc boolean equals neither 1 nor True.
    assert TRUE != 1 and FALSE != 0 and TRUE != True  # noqa: E712
    assert len({TRUE, 1, FALSE, 0}) == 4
    keys = {TRUE: "orc", 1: "python"}
    assert keys[Bool(True)] == "orc" and keys[True] == "python"
    assert SiteCall("let", (TRUE,)) != SiteCall("let", (1,))


def test_a_python_bool_is_not_a_value():
    # Printed as ``True`` it would re-parse as a variable.
    with pytest.raises(TypeError, match="not a value"):
        render_value(True)
    with pytest.raises(TypeError, match="not a value"):
        render_expr(SiteCall("let", (False,)))
    with pytest.raises(TypeError, match="not a value"):
        value_to_json(True)


def test_substitute_replaces_free_variable_in_args():
    e = SiteCall("M", (Var("x"), 1, Var("y")))
    assert substitute(e, "x", 5) == SiteCall("M", (5, 1, Var("y")))


def test_substitute_respects_sequential_shadowing():
    # x is rebound on the right of >x>, so only the left occurrence goes.
    e = Sequential(SiteCall("M", (Var("x"),)), "x",
                   SiteCall("N", (Var("x"),)))
    got = substitute(e, "x", 9)
    assert got.left == SiteCall("M", (9,))
    assert got.right == SiteCall("N", (Var("x"),))


def test_substitute_respects_asymmetric_shadowing():
    # x is bound on the LEFT of <x<; the right side keeps its own x.
    e = Asymmetric(SiteCall("M", (Var("x"),)), "x",
                   SiteCall("N", (Var("x"),)))
    got = substitute(e, "x", 9)
    assert got.left == SiteCall("M", (Var("x"),))
    assert got.right == SiteCall("N", (9,))


def test_substitute_binderless_forms_do_not_shadow():
    e = Sequential(SiteCall("M", (Var("x"),)), None,
                   SiteCall("N", (Var("x"),)))
    got = substitute(e, "x", 2)
    assert got == Sequential(SiteCall("M", (2,)), None, SiteCall("N", (2,)))


def test_free_vars():
    e = Parallel(
        Sequential(SiteCall("M", (Var("a"),)), "b",
                   SiteCall("N", (Var("b"), Var("c")))),
        Otherwise(SiteCall("P", (Var("a"),)), SiteCall("Q", ())))
    assert free_vars(e) == {"a", "c"}


def test_substitute_closes_generated_expressions():
    rng = random.Random(11)
    for _ in range(200):
        e = random_expr(rng, scope=("z",))
        closed = substitute(e, "z", 1)
        assert "z" not in free_vars(closed)


def test_substituting_an_unused_name_is_identity():
    rng = random.Random(12)
    for _ in range(200):
        e = random_expr(rng)
        assert substitute(e, "nosuch", 1) == e


def test_generated_expressions_do_not_depend_on_the_hash_seed():
    program = ("import random\n"
               "from generators import random_expr\n"
               "from orcline import render_expr\n"
               "for seed in range(200):\n"
               "    print(render_expr(random_expr(random.Random(seed))))\n")
    path = os.pathsep.join([str(pathlib.Path(__file__).parent),
                            str(pathlib.Path(orcline.__file__).parents[1])])
    outputs = {subprocess.run([sys.executable, "-c", program],
                              capture_output=True, text=True, check=True,
                              env=dict(os.environ, PYTHONPATH=path,
                                       PYTHONHASHSEED=seed)).stdout
               for seed in ("0", "1")}
    assert len(outputs) == 1


def test_program_copies_its_environments():
    defs = {}
    sites = {"M": SiteSpec()}
    p = Program(SiteCall("M", ()), defs, sites)
    sites["N"] = SiteSpec()
    assert "N" not in p.site_env


def test_stop_is_shared():
    assert STOP == Stop()
    assert isinstance(STOP, Stop)
