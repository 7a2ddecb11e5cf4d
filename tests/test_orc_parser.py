import random
import time
from collections import Counter

import pytest

from orcline import (
    Lts, Mts, ParseError, parse_expr, parse_feature_model, parse_lts,
    parse_mts, parse_program, render_expr, render_feature_model,
    render_lts, render_mts, render_program,
)
from orcline.feature_model import enumerate_products
from orcline.orc_ast import (
    FALSE, SIGNAL, TRUE, Asymmetric, DefCall, Otherwise, Parallel, Program,
    Sequential, SiteCall, SiteSpec, Var, free_vars, substitute,
)
from orcline.orc_parser import (
    _parse_transition_file, format_diagnostic,
    parse_program_with_diagnostics,
)
from orcline.orc_semantics import explore, lts_view

import oracles
from diagnostic_cases import CASES
from generators import (
    random_expr, random_feature_model, random_mts, transition_file,
)


def errors_of(src):
    _, diags = parse_program_with_diagnostics(src)
    return [d for d in diags if d.severity == "error"]


# ---------------------------------------------------------------------------
# precedence and shape

def test_sequential_binds_tighter_than_parallel():
    got = parse_expr("F(1) >x> G(x) | H(2)")
    want = Parallel(
        Sequential(SiteCall("F", (1,)), "x", SiteCall("G", (Var("x"),))),
        SiteCall("H", (2,)))
    assert got == want


def test_otherwise_has_lowest_precedence():
    got = parse_expr("F(1) | G(2) ; H(3)")
    want = Otherwise(Parallel(SiteCall("F", (1,)), SiteCall("G", (2,))),
                     SiteCall("H", (3,)))
    assert got == want


def test_parentheses_override_precedence():
    got = parse_expr("(A() ; B()) <x< C()")
    want = Asymmetric(Otherwise(SiteCall("A", ()), SiteCall("B", ())),
                      "x", SiteCall("C", ()))
    assert got == want


def test_asymmetric_is_below_parallel():
    got = parse_expr("A() <x< B() | C()")
    assert got == Asymmetric(SiteCall("A", ()), "x",
                             Parallel(SiteCall("B", ()), SiteCall("C", ())))


def test_sequential_groups_right():
    got = parse_expr("A() >x> B() >y> C()")
    assert got == Sequential(SiteCall("A", ()), "x",
                             Sequential(SiteCall("B", ()), "y",
                                        SiteCall("C", ())))


def test_parallel_and_otherwise_group_left():
    assert parse_expr("A() | B() | C()") == Parallel(
        Parallel(SiteCall("A", ()), SiteCall("B", ())), SiteCall("C", ()))
    assert parse_expr("A() ; B() ; C()") == Otherwise(
        Otherwise(SiteCall("A", ()), SiteCall("B", ())), SiteCall("C", ()))


def test_binderless_operators():
    assert parse_expr("A() >> B()") == Sequential(SiteCall("A", ()), None,
                                                  SiteCall("B", ()))
    assert parse_expr("A() << B()") == Asymmetric(SiteCall("A", ()), None,
                                                  SiteCall("B", ()))


def test_bare_name_is_a_zero_argument_call():
    assert parse_expr("real_time") == SiteCall("real_time", ())


def test_zero_site_forms():
    assert parse_expr("0") == SiteCall("0", ())
    assert parse_expr("0()") == SiteCall("0", ())


def test_argument_kinds():
    got = parse_expr('M(1, -2, true, false, signal, "s", x)')
    assert got == SiteCall("M", (1, -2, TRUE, FALSE, SIGNAL, "s",
                                 Var("x")))


def test_comments_and_blank_lines_are_ignored():
    src = "-- a comment\nlet(1) -- trailing\n\n"
    assert parse_program(src).goal == SiteCall("let", (1,))


# ---------------------------------------------------------------------------
# rendering

def test_render_examples():
    assert render_expr(Parallel(SiteCall("let", (1,)),
                                SiteCall("let", (2,)))) == "let(1) | let(2)"
    assert render_expr(
        Sequential(SiteCall("A", ()), "x",
                   Sequential(SiteCall("B", ()), "y", SiteCall("C", ())))
    ) == "A() >x> B() >y> C()"
    assert render_expr(
        Otherwise(Otherwise(SiteCall("A", ()), SiteCall("B", ())),
                  SiteCall("C", ()))) == "A() ; B() ; C()"


def test_render_parenthesizes_only_when_needed():
    left_nested = Sequential(
        Sequential(SiteCall("A", ()), "x", SiteCall("B", ())), "y",
        SiteCall("C", ()))
    text = render_expr(left_nested)
    assert text == "(A() >x> B()) >y> C()"
    assert parse_expr(text) == left_nested


def test_random_round_trip_expressions():
    rng = random.Random(7)
    for _ in range(300):
        e = random_expr(rng)
        assert parse_expr(render_expr(e)) == e


def test_program_round_trip_with_declarations():
    src = (
        'site slow delay 3 responds 1, 2\n'
        'site mute silent\n'
        'def Twice(x) = let(x) | let(x)\n'
        'Twice(4) >y> slow(y)\n')
    p = parse_program(src)
    assert p.site_env["slow"] == SiteSpec((1, 2), 3)
    assert p.site_env["mute"] == SiteSpec((), 0)
    assert p.definitions["Twice"].params == ("x",)
    again = parse_program(render_program(p))
    assert again == p


def test_calls_to_definitions_declared_later_are_definition_calls():
    p = parse_program("def A() = B()\ndef B() = let(1)\nA()\n")
    assert p.definitions["A"].body == DefCall("B", ())
    assert p.definitions["B"].body == SiteCall("let", (1,))
    assert p.goal == DefCall("A", ())


# ---------------------------------------------------------------------------
# diagnostics

def test_unbound_variable_is_a_warning_not_error():
    program, diags = parse_program_with_diagnostics("let(x)")
    assert program is not None
    assert [d.severity for d in diags] == ["warning"]
    assert "'x'" in diags[0].message


def test_binder_bound_variables_are_not_warned():
    _, diags = parse_program_with_diagnostics("let(1) >x> let(x)")
    assert diags == []


def _scoped_term(rng, depth: int) -> str:
    """Source of a term over the variables x, y and z, the binders x
    and y and calls of a two-parameter F."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.8:
            return f"let({rng.choice('xyz1')})"
        return f"F({rng.choice('xyz')}, 1)"
    op = rng.choice(["|", ";", ">x>", ">y>", "<x<", "<y<", ">>"])
    return (f"({_scoped_term(rng, depth - 1)} {op} "
            f"{_scoped_term(rng, depth - 1)})")


def _free_occurrences(program: Program, name: str) -> int:
    """The occurrences of ``name`` that no binder of it encloses."""
    terms = [program.goal] + [d.body for d in program.definitions.values()
                              if name not in d.params]
    return sum(render_expr(substitute(e, name, "?")).count('"?"')
               for e in terms)


def test_unbound_warnings_point_at_a_free_occurrence():
    # free_vars is the oracle for the names warned.  Each warning points
    # at an occurrence that no binder of its name encloses: a literal
    # written there leaves one free occurrence fewer.
    rng = random.Random(17)
    warned = 0
    for _ in range(500):
        src = f"def F(x, w) = {_scoped_term(rng, 3)}\n" \
              f"{_scoped_term(rng, 4)}\n"
        program, diags = parse_program_with_diagnostics(src)
        free = set(free_vars(program.goal))
        free |= set(free_vars(program.definitions["F"].body)) - {"x", "w"}
        names = [d.message.split("'")[1] for d in diags]
        assert sorted(names) == sorted(free)
        for d, name in zip(diags, names):
            lines = src.split("\n")
            line, col = lines[d.span.line - 1], d.span.column - 1
            assert line[col] == name
            lines[d.span.line - 1] = line[:col] + "7" + line[col + 1:]
            edited = parse_program("\n".join(lines))
            assert _free_occurrences(edited, name) \
                == _free_occurrences(program, name) - 1
            warned += 1
    assert warned > 300, warned


def test_unknown_definition_arity_is_an_error():
    errs = errors_of("def F(x) = let(x)\nF(1, 2)\n")
    assert errs and "F" in errs[0].message


def test_error_positions_point_at_the_offender():
    errs = errors_of("M(1, )\n")
    assert errs
    assert (errs[0].span.line, errs[0].span.column) == (1, 6)


def test_reserved_words_are_rejected_as_names():
    assert errors_of("def def() = let(1)\ndef()\n")
    assert errors_of("site site silent\nlet(1)\n")
    assert errors_of("let(1) >def> let(2)\n")


def test_duplicate_declarations_are_errors():
    assert errors_of("site M silent\nsite M silent\nlet(1)\n")
    assert errors_of("def F() = let(1)\ndef F() = let(2)\nF()\n")


def test_name_cannot_be_both_site_and_definition():
    assert errors_of("site F silent\ndef F() = let(1)\nF()\n")


def test_missing_goal_is_an_error():
    assert errors_of("def F() = let(1)\n")


def test_literals_are_not_expressions():
    assert errors_of("true\n")
    assert errors_of("5 | let(1)\n")
    assert errors_of('"text"\n')


def test_nested_calls_in_arguments_are_rejected_with_hint():
    errs = errors_of("M(N())\n")
    assert errs and ">x>" in errs[0].message


READERS = {"fm": parse_feature_model, "mts": parse_mts, "lts": parse_lts}


@pytest.mark.parametrize("fmt, src, lines", CASES,
                         ids=[f"{fmt}-{i}" for i, (fmt, _, _) in
                              enumerate(CASES)])
def test_every_diagnostic_is_pinned(fmt, src, lines):
    if fmt == "orc":
        program, diags = parse_program_with_diagnostics(src)
        assert (program is None) == any(d.severity == "error"
                                        for d in diags)
    else:
        with pytest.raises(ParseError) as info:
            READERS[fmt](src)
        diags = info.value.diagnostics
    assert [format_diagnostic(d) for d in diags] == lines


def test_parse_error_collects_several_diagnostics():
    with pytest.raises(ParseError) as info:
        parse_program("M(N()) | 5\n")
    assert len([d for d in info.value.diagnostics
                if d.severity == "error"]) >= 2


# ---------------------------------------------------------------------------
# feature-model format

def test_feature_model_basic_tree():
    m = parse_feature_model("family F { mandatory A optional B }")
    assert m.root == "F"
    assert m.features["A"].kind == "mandatory"
    assert m.features["B"].kind == "optional"


def test_feature_model_groups_and_constraints():
    src = ("family F {\n"
           "  alternative { X, Y }\n"
           "  optional B { mandatory C }\n"
           "  requires X B\n"
           "  excludes Y C\n"
           "}\n")
    m = parse_feature_model(src)
    assert [g.members for g in m.groups] == [("X", "Y")]
    assert len(m.constraints) == 2


def test_alternative_members_can_carry_subtrees():
    src = ("family F {\n"
           "  alternative {\n"
           "    X {\n"
           "      mandatory Deep\n"
           "    },\n"
           "    Y\n"
           "  }\n"
           "}\n")
    m = parse_feature_model(src)
    assert m.features["Deep"].parent == "X"
    # A member's block is read in place, so features keep source order.
    assert list(m.features) == ["F", "X", "Deep", "Y"]
    assert parse_feature_model(render_feature_model(m)).features \
        == m.features


def test_alternative_needs_two_members():
    with pytest.raises(ParseError):
        parse_feature_model("family F { alternative { X } }")


def test_duplicate_feature_name_rejected():
    with pytest.raises(ParseError):
        parse_feature_model("family F { mandatory A optional A }")


def test_unknown_constraint_endpoint_rejected():
    with pytest.raises(ParseError):
        parse_feature_model("family F { mandatory A requires A Ghost }")


def test_keyword_feature_names_rejected():
    with pytest.raises(ParseError):
        parse_feature_model("family F { mandatory optional }")


def test_feature_model_round_trip():
    rng = random.Random(21)
    for _ in range(100):
        m = random_feature_model(rng, max_features=10)
        again = parse_feature_model(render_feature_model(m))
        assert again.root == m.root
        assert again.features == m.features
        assert [g.members for g in again.groups] \
            == [g.members for g in m.groups]
        assert again.constraints == m.constraints
        assert enumerate_products(again) == enumerate_products(m)


# ---------------------------------------------------------------------------
# transition-system formats

def test_mts_must_implies_may():
    m = parse_mts("mts M\nstates s0 s1\ninit s0\nmust s0 a s1\n")
    assert m.must == {("s0", "a", "s1")}
    assert m.may == {("s0", "a", "s1")}


def test_mts_may_only():
    m = parse_mts("mts M\nstates s0 s1\ninit s0\nmay s0 a s1\n")
    assert m.must == frozenset()
    assert m.may == {("s0", "a", "s1")}


def test_mts_undeclared_state_is_an_error():
    with pytest.raises(ParseError):
        parse_mts("mts M\nstates s0\ninit s0\nmust s0 a s9\n")


def test_mts_missing_init_is_an_error():
    with pytest.raises(ParseError):
        parse_mts("mts M\nstates s0 s1\nmust s0 a s1\n")


def test_mts_duplicate_state_is_an_error():
    with pytest.raises(ParseError):
        parse_mts("mts M\nstates s0 s0\ninit s0\n")


def test_lts_rejects_modal_directives():
    with pytest.raises(ParseError):
        parse_lts("lts L\nstates s0\ninit s0\nmust s0 a s0\n")


def test_transition_system_round_trips():
    rng = random.Random(22)
    for _ in range(100):
        m = random_mts(rng)
        # The text formats carry no standalone action alphabet; compare
        # against the same system with inferred actions.
        assert parse_mts(render_mts(m)) == Mts(m.states, frozenset(),
                                               m.init, m.must, m.may)
        l = Lts(m.states, frozenset(), m.init, m.may)
        assert parse_lts(render_lts(l)) == l


def _read(reader, src, kind):
    """What ``reader`` makes of ``src``: its result, or the lines of
    the diagnostics it raises."""
    try:
        return reader(src, kind)
    except ParseError as exc:
        return [format_diagnostic(d) for d in exc.diagnostics]


def test_reader_matches_the_list_reader_on_generated_files():
    # The set reader splits with str.split and works out a column only
    # for a diagnostic; the list reader found every word with a regular
    # expression.  Both must read every file alike, odd whitespace and
    # faults included.
    rng = random.Random(30)
    seen = Counter()
    for i in range(800):
        kind = ("mts", "lts")[i % 2]
        src = transition_file(rng, kind)
        got = _read(_parse_transition_file, src, kind)
        assert got == _read(oracles.parse_transition_file, src, kind), src
        seen["error" if isinstance(got, list) else "read"] += 1
        seen.update(c for c in ("\t", "\f", "\xa0", "--") if c in src)
        if isinstance(got, list):
            seen.update(line.split(": error: ")[1].split(" ")[0]
                        for line in got)
    assert seen["read"] >= 200 and seen["error"] >= 200
    for mark in ("\t", "\f", "\xa0", "--"):
        assert seen[mark] >= 100
    # Every diagnostic of the reader: the header, a state declared
    # twice or not at all ("state"), an init missing ("missing"),
    # undeclared or twice ("init"), a word too many or too few
    # ("expected") and a directive of the other format ("unknown").
    for word in ("expected", "state", "init", "missing", "unknown"):
        assert seen[word] >= 20


def test_a_state_declared_on_two_states_lines():
    # A form feed ends a line, as str.splitlines has it.
    src = "mts M\nstates a\tb  -- first\n\fstates\xa0c a\ninit a\n"
    lines = ["<input>:4:10: error: state 'a' declared twice"]
    for reader in (_parse_transition_file, oracles.parse_transition_file):
        assert _read(reader, src, "mts") == lines


def test_a_large_lts_reads_in_linear_time():
    # orc explore --format lts of a 6-let ladder: 4^6 states and
    # 3·6·4^5 transitions.  The list reader took over a second.
    program = parse_program(" | ".join(f"let({i})" for i in range(6)))
    text = render_lts(lts_view(explore(program, reduce=False)),
                      name="explored")
    times = []
    for _ in range(3):
        start = time.perf_counter()
        lts = parse_lts(text)
        times.append(time.perf_counter() - start)
    assert (len(lts.states), len(lts.trans)) == (4096, 18432)
    assert min(times) < 0.5
