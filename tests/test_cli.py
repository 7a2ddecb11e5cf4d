"""End-to-end checks of the command-line interface.

Every test drives ``cli.main`` with an argv list and inspects the
captured stdout, stderr and exit code.  Machine-readable output goes to
stdout, notes and summaries to stderr.
"""

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import orcline
from orcline import cli, corpus, mts, orc_parser, orc_semantics
from orcline import feature_model as fm_mod
from orcline.orc_ast import (
    BUILTIN_SITES, free_vars, render_expr, substitute,
)

import oracles
from diagnostic_cases import NOT_UTF8
from generators import (
    nested_mts, random_feature_model, random_mts, wide_feature_model,
)


def fx(name):
    return str(corpus.fixture_path(name))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# orc run

def test_run_emits_one_json_object_per_event(capsys):
    code, out, err = run_cli(capsys, "orc", "run", fx("par.orc"))
    assert code == 0
    events = [json.loads(line) for line in out.splitlines()]
    assert events
    assert all(isinstance(e["clock"], int) for e in events)
    published = [e["value"]["v"] for e in events if e["kind"] == "publish"]
    assert sorted(published) == [1, 2]
    assert "quiescent" in err
    assert "published" in err


def test_a_builtin_site_cannot_be_declared(tmp_path, capsys):
    path = tmp_path / "builtin.orc"
    for site in sorted(BUILTIN_SITES):
        path.write_text(f"site {site} responds 7\n{site}()\n")
        code, out, err = run_cli(capsys, "orc", "run", str(path))
        assert (code, out) == (1, "")
        if site != "0":   # the halt site lexes as a number, not a name
            assert (f"1:6: error: '{site}' is a builtin site and cannot "
                    "be declared") in err


def test_run_reports_a_clock_advance_as_a_tick_event(tmp_path, capsys):
    path = tmp_path / "timer.orc"
    path.write_text("Rtimer(2) >> let(1)\n")
    code, out, err = run_cli(capsys, "orc", "run", str(path))
    assert code == 0
    events = [json.loads(line) for line in out.splitlines()]
    assert {"clock": 0, "kind": "tick", "to": 2} in events
    assert events[-1] == {"clock": 2, "kind": "publish",
                          "value": {"t": "int", "v": 1}}


def test_run_seeded_output_is_byte_identical(capsys):
    first = run_cli(capsys, "orc", "run", fx("mutex.orc"), "--seed", "7")
    second = run_cli(capsys, "orc", "run", fx("mutex.orc"), "--seed", "7")
    assert first == second
    assert first[0] == 0


def test_run_depth_bound_exits_two(capsys):
    code, out, err = run_cli(capsys, "orc", "run", fx("loop.orc"),
                             "--max-depth", "3")
    assert code == 2
    assert "truncated" in err
    # the prefix that did run is still reported
    assert out.splitlines()


def test_run_step_bound_exits_two(capsys):
    code, out, err = run_cli(capsys, "orc", "run", fx("loop.orc"),
                             "--max-steps", "5", "--max-depth", "1000")
    assert code == 2
    assert "truncated" in err


def test_run_step_bound_names_the_flag_and_the_progress(capsys):
    code, out, err = run_cli(capsys, "orc", "run", fx("loop.orc"),
                             "--max-steps", "5", "--max-depth", "1000")
    assert (code, len(out.splitlines())) == (2, 5)
    assert err == ("truncated: --max-steps 5 reached after 5 events, "
                   "0 publications\n")


# ---------------------------------------------------------------------------
# orc explore

def test_explore_text_lists_outcomes(capsys):
    code, out, err = run_cli(capsys, "orc", "explore", fx("par.orc"))
    assert code == 0
    lines = out.splitlines()
    # text and json count the reduced graph; lts keeps all 16 states
    assert lines[0] == "states 7"
    assert lines[1] == "edges 6"
    assert lines[2] == "outcomes 1"
    assert lines[3] == "  {1, 2}"


def test_explore_json_has_sorted_outcomes(capsys):
    code, out, err = run_cli(capsys, "orc", "explore", fx("par.orc"),
                             "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcomes"] == [[1, 2]]
    assert payload["truncated"] is False
    assert payload["states"] == 7
    assert payload["edges"] == 6


def test_explore_folds_paths_only_for_outcomes(capsys, monkeypatch):
    # lts and dot print the graph and read no outcomes; text and json
    # fold once, for outcomes and truncated outcomes together.
    folds = []
    fold = orc_semantics._fold_paths

    def counting_fold(*args):
        folds.append(args[0])
        return fold(*args)

    monkeypatch.setattr(orc_semantics, "_fold_paths", counting_fold)
    for fmt, want in (("lts", 0), ("dot", 0), ("json", 1), ("text", 1)):
        folds.clear()
        code, out, err = run_cli(capsys, "orc", "explore", fx("par.orc"),
                                 "--format", fmt)
        assert (code, len(folds)) == (0, want)
    folds.clear()
    explored = orcline.explore(orcline.parse_program("let(1) | let(2)"))
    assert not folds
    assert explored.outcomes == {(1, 2)} and not explored.truncated_outcomes
    assert explored.outcomes == {(1, 2)}
    assert folds == [explored]


@pytest.mark.parametrize("name", [n for n in corpus.fixture_names()
                                  if n.endswith(".orc")])
def test_explore_json_has_the_outcomes_of_full_exploration(capsys, name):
    full = orcline.explore(orcline.parse_program(corpus.fixture_text(name)))
    code, out, err = run_cli(capsys, "orc", "explore", fx(name),
                             "--format", "json")
    assert code == (2 if full.truncated_states else 0)
    got, want = json.loads(out), json.loads(cli._explore_json(full))
    assert got.pop("states") <= want.pop("states")
    assert got.pop("edges") <= want.pop("edges")
    assert got == want


def test_explore_json_writes_the_signal_value_as_plain_text(tmp_path,
                                                            capsys):
    path = tmp_path / "signal.orc"
    path.write_text("let(signal) | Signal\n")
    code, out, err = run_cli(capsys, "orc", "explore", str(path),
                             "--format", "json")
    assert code == 0
    assert json.loads(out)["outcomes"] == [["signal", "signal"]]


def test_explore_lts_round_trips(capsys):
    code, out, err = run_cli(capsys, "orc", "explore", fx("par.orc"),
                             "--format", "lts")
    assert code == 0
    view = orc_parser.parse_lts(out)
    assert view.init == "s0"
    assert len(view.states) == 16


def test_explore_dot_is_a_digraph(capsys):
    code, out, err = run_cli(capsys, "orc", "explore", fx("par.orc"),
                             "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_explore_state_bound_exits_two(capsys):
    code, out, err = run_cli(capsys, "orc", "explore", fx("mutex.orc"),
                             "--max-states", "10")
    assert code == 2
    assert "truncated" in err


def test_explore_state_bound_names_the_flag_and_the_progress(capsys):
    code, out, err = run_cli(capsys, "orc", "explore", fx("mutex.orc"),
                             "--max-states", "10", "--format", "json")
    payload = json.loads(out)
    assert (code, payload["states"], payload["edges"]) == (2, 10, 9)
    assert err == ("truncated: --max-states 10 reached after 10 states, "
                   "9 edges\n")


def test_explore_depth_bound_exits_two(capsys):
    code, out, err = run_cli(capsys, "orc", "explore", fx("loop.orc"),
                             "--max-depth", "3")
    assert code == 2
    assert "truncated outcomes 1" in out
    assert err == ("truncated: a definition reached the expansion depth "
                   "bound (--max-depth 3)\n")


def test_missing_file_exits_one(capsys):
    code, out, err = run_cli(capsys, "orc", "run", "/no/such/file.orc")
    assert code == 1
    assert "error:" in err


NOT_UTF8_READERS = {"orc": ["orc", "explore"], "fm": ["fm", "count"],
                    "mts": ["mts", "products"], "lts": ["mts", "dot"],
                    "json": ["encode", fx("smartgrid.fm"), "--plan"]}


@pytest.mark.parametrize("fmt, data", NOT_UTF8,
                         ids=[fmt for fmt, _ in NOT_UTF8])
def test_input_that_is_not_utf8_exits_one(tmp_path, capsys, fmt, data):
    path = tmp_path / f"bad.{fmt}"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, *NOT_UTF8_READERS[fmt], str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.orc"
    bad.write_text("M(1, )\n")
    code, out, err = run_cli(capsys, "orc", "run", str(bad))
    assert code == 1
    assert "bad.orc" in err


@pytest.mark.parametrize("argv, name, text, diagnostic", [
    (["fm", "count", "BAD"], "bad.fm", "family F { optional }",
     "1:21: error: expected a feature name, found '}'"),
    (["mts", "check", "BAD", fx("drh_product.lts")], "bad.mts",
     "mts M\nstates s0\ninit s1\n",
     "3:6: error: init state 's1' is not declared"),
    (["mts", "check", fx("drh_family.mts"), "BAD"], "bad.lts",
     "lts L\nstates s0\ninit s0\ntrans s0 a\n",
     "4:1: error: expected 'trans SRC ACTION DST'"),
    (["mts", "dot", "BAD"], "bad.lts", "lts L\nstates s0\ninit s0\nfoo s0\n",
     "4:1: error: unknown directive 'foo'"),
], ids=["fm-count", "mts-check-family", "mts-check-product", "mts-dot"])
def test_a_malformed_input_file_prints_its_diagnostics_and_exits_one(
        tmp_path, capsys, argv, name, text, diagnostic):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run_cli(capsys, *[str(path) if a == "BAD" else a
                                       for a in argv])
    assert (code, out) == (1, "")
    assert err == (f"{path}:{diagnostic}\n"
                   f"error: {path}: parsing failed\n")


@pytest.mark.parametrize("command", ["run", "explore"])
@pytest.mark.parametrize("source", [
    "(" * 3000 + "let(1)" + ")" * 3000,
    "let(1) >x> " * 3000 + "let(1)",
], ids=["deep", "chain"])
def test_input_beyond_the_recursion_limit_exits_one(tmp_path, capsys,
                                                    command, source):
    path = tmp_path / "big.orc"
    path.write_text(source + "\n")
    code, out, err = run_cli(capsys, "orc", command, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "explore"])
def test_parentheses_nested_to_the_limit_run_and_explore(tmp_path, capsys,
                                                        command):
    # 99 spawns, each in its own parentheses, around let(0): the call's
    # '(' is the 100th level, and every walker still fits the stack.
    depth = orc_parser.MAX_NESTING - 1
    source = "".join(f"(let({i}) >x{i}> " for i in range(depth)) + \
        "let(0)" + ")" * depth
    path = tmp_path / "nested.orc"
    path.write_text(source + "\n")
    code, out, err = run_cli(capsys, "orc", command, str(path))
    assert code == 0, err
    assert out
    path.write_text("(" + source + ")\n")
    code, out, err = run_cli(capsys, "orc", command, str(path))
    assert (code, out) == (1, "")
    assert "parentheses nested deeper than 100 levels" in err


def nested_family(levels: int) -> str:
    """A family of one chain of optional features, one to a line, each
    in the block of the one before: ``levels`` '{' blocks deep."""
    return ("family F {\n"
            + "".join(f"optional F{i} {{\n" for i in range(1, levels))
            + "}\n" * levels)


def test_blocks_nested_to_the_limit_count_and_deeper_exit_one(tmp_path,
                                                              capsys):
    path = tmp_path / "nested.fm"
    path.write_text(nested_family(orc_parser.MAX_NESTING))
    assert run_cli(capsys, "fm", "count", str(path)) == (0, "100\n", "")
    path.write_text(nested_family(3000))
    assert run_cli(capsys, "fm", "count", str(path)) == (
        1, "", f"error: {path}:101:15: blocks nested deeper than 100 "
        "levels\n")


WIDE = " | ".join(["let(1)"] * 2000)


@pytest.mark.parametrize("argv, bound_line", [
    (["run", "--max-steps", "200"],
     "truncated: --max-steps 200 reached after 200 events, "
     "0 publications\n"),
    (["explore", "--max-states", "200"],
     "truncated: --max-states 200 reached after 200 states, 199 edges\n"),
], ids=["run", "explore"])
def test_a_wide_fan_out_runs_into_the_bound_not_the_recursion_limit(
        tmp_path, capsys, argv, bound_line):
    # One | node holds all 2,000 branches, so no walk recurses through
    # the width of the term.
    path = tmp_path / "wide.orc"
    path.write_text(WIDE + "\n")
    code, out, err = run_cli(capsys, "orc", *argv, str(path))
    assert code == 2
    assert out
    assert err == bound_line


def test_tree_functions_take_a_wide_fan_out():
    goal = orc_parser.parse_expr(WIDE.replace("let(1)", "let(x)"))
    assert len(goal.branches) == 2000
    assert render_expr(goal) == WIDE.replace("let(1)", "let(x)")
    assert render_expr(substitute(goal, "x", 1)) == WIDE
    assert free_vars(goal) == {"x"}


def test_running_out_of_memory_exits_two(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError
    monkeypatch.setattr(cli, "_cmd_orc_explore", exhausted)
    code, out, err = run_cli(capsys, "orc", "explore", fx("par.orc"))
    assert code == 2
    assert out == ""
    assert err == "error: out of memory before the computation finished\n"


def test_fm_and_mts_bound_hits_exit_two_before_any_output(tmp_path,
                                                          capsys):
    model = tmp_path / "wide.fm"
    # 13 excludes pairs touch all 26 optional features: over both the
    # streaming and the conditioning bound of fm count.
    model.write_text("family Wide {\n"
                     + "".join(f"  optional F{i}\n" for i in range(26))
                     + "".join(f"  excludes F{i} F{i + 1}\n"
                               for i in range(0, 26, 2)) + "}\n")
    family = tmp_path / "wide.mts"
    family.write_text("mts Wide\nstates s0 s1\ninit s0\n"
                      + "".join(f"may s0 A{i} s1\n" for i in range(21)))
    for argv, err in [(["fm", "products", str(model)],
                       "truncated: model has 27 features, enumeration bound "
                       "is 24\n"),
                      (["fm", "count", str(model)],
                       "truncated: model has 27 features, 26 of them in "
                       "constraints, counting bound is 24 features or 2^24 "
                       "node visits (27 x 2^26)\n"),
                      (["mts", "products", str(family)],
                       "truncated: 21 optional transitions reachable from "
                       "s0 under may, derivation bound is 20\n")]:
        assert run_cli(capsys, *argv) == (2, "", err)


# ---------------------------------------------------------------------------
# fm

def test_fm_products_text(capsys):
    code, out, err = run_cli(capsys, "fm", "products", fx("smartgrid.fm"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "products 4"
    assert len(lines) == 5
    assert all(line.startswith("  ") for line in lines[1:])


def test_fm_products_json(capsys):
    code, out, err = run_cli(capsys, "fm", "products", fx("smartgrid.fm"),
                             "--format", "json")
    assert code == 0
    products = json.loads(out)
    assert len(products) == 4
    assert all(names == sorted(names) for names in products)
    assert all("SmartGrid" in names for names in products)


def test_fm_products_json_is_what_json_dumps_writes(tmp_path, capsys):
    # The writer quotes each feature name once; the text must be
    # json.dumps(products, indent=2), also with no products at all.
    rng = random.Random(11)
    models = [random_feature_model(rng, 12) for _ in range(60)]
    models.append(orc_parser.parse_feature_model(
        "family Dead {\n  mandatory A\n  mandatory B\n  excludes A B\n}\n"))
    empty = 0
    for model in models:
        path = tmp_path / "model.fm"
        path.write_text(orc_parser.render_feature_model(model))
        code, out, err = run_cli(capsys, "fm", "products", str(path),
                                 "--format", "json")
        products = fm_mod.sorted_products(model)
        assert (code, err) == (0, "")
        assert out == json.dumps(products, indent=2) + "\n"
        empty += not products
    assert empty >= 1 and out == "[]\n"


def _mask_decoder_output(model, fmt: str) -> str:
    """``fm products`` stdout as the mask decoder wrote it, one string a
    product (``oracles.joined_products``)."""
    if fmt == "json":
        rows = oracles.joined_products(model, ",\n    ", json.dumps)
        return ("[\n  [\n    " + "\n  ],\n  [\n    ".join(rows) + "\n  ]\n]"
                if rows else "[]") + "\n"
    rows = oracles.joined_products(model, ", ")
    return "\n  ".join([f"products {len(rows)}"] + rows) + "\n"


def test_fm_products_match_the_mask_decoder_byte_for_byte(tmp_path, capsys):
    rng = random.Random(29)
    models = [random_feature_model(rng, 9) for _ in range(40)]
    models += [random_feature_model(rng, 22) for _ in range(40)]
    models += [random_feature_model(rng, 25, 3, root, 22, optional=0.1)
               for root in ("Aaa", "Zzz") for _ in range(15)]
    models += [wide_feature_model(rng) for _ in range(150)]
    models.append(orc_parser.parse_feature_model(
        "family Dead {\n  mandatory A\n  mandatory B\n  excludes A B\n}\n"))
    seen = dict.fromkeys(("at most 8 features", "22 to 24 features",
                          "root in the low half", "filtered",
                          "conditioned", "no products"), 0)
    path = tmp_path / "model.fm"
    for model in models:
        path.write_text(orc_parser.render_feature_model(model))
        for fmt in ("text", "json"):
            assert run_cli(capsys, "fm", "products", str(path), "--format",
                           fmt) == (0, _mask_decoder_output(model, fmt), "")
        names = sorted(model.features)
        filtered = bool(fm_mod._condition(model)[1])
        seen["at most 8 features"] += len(names) <= 8
        seen["22 to 24 features"] += len(names) >= 22
        seen["root in the low half"] += \
            names.index(model.root) >= len(names) // 2
        seen["filtered"] += filtered
        seen["conditioned"] += not filtered
        seen["no products"] += not fm_mod.sorted_products(model)
    assert min(seen.values()) >= 15, seen


def test_fm_count(capsys):
    assert run_cli(capsys, "fm", "count", fx("smartgrid.fm"))[1] == "4\n"
    assert run_cli(capsys, "fm", "count",
                   fx("no_renewables.fm"))[1] == "1\n"


def test_fm_count_needs_no_enumeration_bound_without_constraints(
        capsys, tmp_path):
    model = tmp_path / "wide.fm"
    model.write_text("family R {\n"
                     + "".join(f"  optional O{i}\n" for i in range(30))
                     + "}\n")
    assert run_cli(capsys, "fm", "count", str(model)) == \
        (0, "1073741824\n", "")


def test_fm_validate_valid(capsys):
    selection = ("NoRenewables,DemandResponse,FlexibleTariffs,"
                 "TwoWayPricing,ExceptionPricing,GridMonitoring")
    code, out, err = run_cli(capsys, "fm", "validate",
                             fx("no_renewables.fm"), "--select", selection)
    assert code == 0
    assert out == "VALID\n"


def test_fm_validate_invalid_exits_three(capsys):
    code, out, err = run_cli(capsys, "fm", "validate", fx("smartgrid.fm"),
                             "--select", "SmartGrid")
    assert code == 3
    assert out.splitlines()[0] == "INVALID"
    assert len(out.splitlines()) > 1


def test_fm_validate_json(capsys):
    code, out, err = run_cli(capsys, "fm", "validate", fx("smartgrid.fm"),
                             "--select", "SmartGrid", "--format", "json")
    assert code == 3
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["violations"]
    assert {"rule", "features", "message"} <= set(payload["violations"][0])


def test_fm_validate_unknown_feature_exits_one(capsys):
    code, out, err = run_cli(capsys, "fm", "validate", fx("smartgrid.fm"),
                             "--select", "Bogus")
    assert code == 1
    assert "unknown feature" in err


def test_fm_validate_names_the_first_unknown_feature_under_any_hash_seed():
    argv = [sys.executable, "-m", "orcline", "fm", "validate",
            fx("smartgrid.fm"), "--select", "SmartGrid,Zed,Alpha,Mid"]
    # The orcline under test, installed or not: -m searches the cwd first.
    package_root = pathlib.Path(orcline.__file__).parents[1]
    for seed in ("0", "1", "2", "3", "17"):
        done = subprocess.run(argv, capture_output=True, text=True,
                              cwd=package_root,
                              env=dict(os.environ, PYTHONHASHSEED=seed))
        assert done.returncode == 1
        assert done.stderr == "error: unknown feature: Zed\n"


# ---------------------------------------------------------------------------
# mts

def test_mts_check_product_text(capsys):
    code, out, err = run_cli(capsys, "mts", "check", fx("drh_family.mts"),
                             fx("drh_product.lts"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PRODUCT"
    assert lines[1].startswith("witness")
    assert "  (s0, s0)" in lines


def test_mts_check_missing_must_exits_three(tmp_path, capsys):
    broken = tmp_path / "broken.lts"
    broken.write_text("lts Broken\n"
                      "states s0 s1\n"
                      "init s0\n"
                      "trans s0 High_Supply s1\n")
    code, out, err = run_cli(capsys, "mts", "check", fx("drh_family.mts"),
                             str(broken), "--format", "json")
    assert code == 3
    payload = json.loads(out)
    assert payload["product"] is False
    assert payload["witness"] is None
    assert payload["failure"]["clause"] == "must-unmatched"


def test_mts_check_extra_transition_exits_three(tmp_path, capsys):
    extra = tmp_path / "extra.lts"
    extra.write_text(corpus.fixture_text("drh_product.lts")
                     + "trans s0 Sell s4\n")
    code, out, err = run_cli(capsys, "mts", "check", fx("drh_family.mts"),
                             str(extra))
    assert code == 3
    assert out.splitlines()[0] == "NOT-A-PRODUCT"
    assert "may-unmatched" in out


def test_mts_check_foreign_action_is_an_alphabet_failure(tmp_path, capsys):
    foreign = tmp_path / "foreign.lts"
    foreign.write_text(corpus.fixture_text("drh_product.lts")
                       + "trans s4 Meltdown s4\n")
    code, out, err = run_cli(capsys, "mts", "check", fx("drh_family.mts"),
                             str(foreign))
    assert code == 3
    assert "alphabet" in out


def test_mts_check_json_reports_a_foreign_action_as_the_alphabet_clause(
        tmp_path, capsys):
    foreign = tmp_path / "foreign.lts"
    foreign.write_text(corpus.fixture_text("drh_product.lts")
                       + "trans s4 Meltdown s4\n")
    code, out, err = run_cli(capsys, "mts", "check", fx("drh_family.mts"),
                             str(foreign), "--format", "json")
    assert code == 3
    assert json.loads(out) == {
        "product": False, "witness": None,
        "failure": {"clause": "alphabet",
                    "message": "product actions not in the family "
                               "alphabet: ['Meltdown']"}}


def _products_families():
    """The fixture family, seeded random and nested ones, one whose
    actions JSON escapes and whose first product has no transitions,
    one whose actions sort around the state names and whose largest
    product has 15 states, and a chain of 12 states whose products list
    ``s10`` and ``s11`` before ``s2``."""
    named = nested_mts(random.Random(18), 10, 12,
                       ("A", "a", "a1", "b_2", "s10", "s2"))
    rng = random.Random(58)
    chain = [(f"q{i}", "a", f"q{i + 1}") for i in range(11)]
    optional = [("q0", "b", "q5"), ("q3", "b", "q0"), ("q7", "c", "q2"),
                ("q10", "b", "q10"), ("q11", "a", "q1")]
    quoted = [("p0", "\u00e9", "p1"), ("p1", 'say"hi', "p0"),
              ("p0", "back\\slash", "p0")]
    return ([orc_parser.parse_mts(corpus.fixture_text("drh_family.mts"))]
            + [random_mts(rng) for _ in range(20)]
            + [nested_mts(rng, 3, 8) for _ in range(4)]
            + [mts.Mts(frozenset({"p0", "p1"}), frozenset(), "p0",
                       frozenset(), frozenset(quoted)), named]
            + [mts.Mts(frozenset(f"q{i}" for i in range(12)), frozenset(),
                       "q0", frozenset(chain), frozenset(chain + optional))])


def _products_output(capsys, monkeypatch, tmp_path, fmt, expected):
    """Run ``mts products --format fmt`` on each family, against
    ``expected(products)`` of the full toggling's products, building no
    ``Lts``; returns the chain's stdout."""
    monkeypatch.setattr(mts, "Lts", None)
    for i, family in enumerate(_products_families()):
        path = tmp_path / f"family{i}.mts"
        path.write_text(orc_parser.render_mts(family), encoding="utf-8")
        products = oracles.derive_products(family)
        result = run_cli(capsys, "mts", "products", str(path),
                         "--format", fmt)
        assert result == \
            (0, expected(products), f"{len(products)} product(s)\n")
    assert len(products[-1].states) == 12
    return result[1]


def test_mts_products_text(capsys, monkeypatch, tmp_path):
    def expected(products):
        return "\n".join(orc_parser.render_lts(p, f"product{i}")
                         for i, p in enumerate(products))

    out = _products_output(capsys, monkeypatch, tmp_path, "text", expected)
    assert "\nstates s0 s1 s10 s11 s2 s3 s4 s5 s6 s7 s8 s9\n" in out
    assert "\ntrans s1 a s2\ntrans s10 a s11\ntrans s11 a s1\n" in out


def test_mts_products_json(capsys, monkeypatch, tmp_path):
    def expected(products):
        return json.dumps([{"states": sorted(p.states), "init": p.init,
                            "trans": sorted(list(t) for t in p.trans)}
                           for p in products], indent=2) + "\n"

    _products_output(capsys, monkeypatch, tmp_path, "json", expected)


def test_mts_dot_styles_may_edges(capsys):
    code, out, err = run_cli(capsys, "mts", "dot", fx("drh_family.mts"))
    assert code == 0
    assert out.count("dashed") == 1
    code, out, err = run_cli(capsys, "mts", "dot", fx("drh_product.lts"))
    assert code == 0
    assert "dashed" not in out


def test_mts_dot_reads_the_header_before_the_suffix(capsys, tmp_path):
    # A header word lts or mts names the format, whatever the suffix;
    # a file without one is read by its suffix.
    for name, kind in (("drh_product.lts", "lts"),
                       ("drh_family.mts", "mts")):
        path = tmp_path / f"{kind}.txt"
        path.write_text(corpus.fixture_text(name))
        result = run_cli(capsys, "mts", "dot", str(path))
        assert result == run_cli(capsys, "mts", "dot", fx(name))
        assert result[1].startswith(f"digraph {kind} {{")
    headless = corpus.fixture_text("drh_product.lts").replace(
        "lts DRHighSupplyBasic\n", "")
    for suffix in ("lts", "txt"):
        path = tmp_path / f"headless.{suffix}"
        path.write_text(headless)
        kind = "lts" if suffix == "lts" else "mts"
        code, out, err = run_cli(capsys, "mts", "dot", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"{path}:3:1: error: expected header "
                              f"'{kind} NAME' on the first line\n")


# ---------------------------------------------------------------------------
# encode

def test_encode_smartgrid_parses_back(capsys):
    code, out, err = run_cli(capsys, "encode", fx("smartgrid.fm"))
    assert code == 0
    program = orc_parser.parse_program(out)
    assert program.goal is not None


def test_encode_with_plan_file(tmp_path, capsys):
    model = tmp_path / "pair.fm"
    model.write_text("family Root {\n  alternative { A, B }\n}\n")
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "feature_to_site": {"Root": "root_svc", "A": "alpha", "B": "beta"},
        "trigger_sites": {"0": ["pick_a", "pick_b"]},
    }))
    code, out, err = run_cli(capsys, "encode", str(model),
                             "--plan", str(plan))
    assert code == 0
    assert "alpha()" in out and "beta()" in out
    assert "pick_a()" in out and "pick_b()" in out
    orc_parser.parse_program(out)


def test_encode_reports_notes_on_stderr(tmp_path, capsys):
    model = tmp_path / "pair.fm"
    model.write_text("family Root {\n  alternative { A, B }\n}\n")
    code, out, err = run_cli(capsys, "encode", str(model))
    assert code == 0
    assert "alternative" in err


def test_encode_unencodable_model_exits_three(tmp_path, capsys):
    model = tmp_path / "stuck.fm"
    model.write_text("family Root {\n"
                     "  alternative { A, B }\n"
                     "  requires A B\n"
                     "}\n")
    code, out, err = run_cli(capsys, "encode", str(model))
    assert code == 3
    assert "no encoding" in err
    assert out == ""


def test_encode_bad_plan_file_exits_one(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text("{not json")
    code, out, err = run_cli(capsys, "encode", fx("smartgrid.fm"),
                             "--plan", str(plan))
    assert code == 1
    assert "bad plan file" in err


PAIR_PLAN = {"feature_to_site": {"Root": "r", "A": "a", "B": "b"},
             "trigger_sites": {"0": ["p", "q"]}}
SHAPE = ('bad plan file: expected {"feature_to_site": {feature: site}, '
         '"trigger_sites": {gid: [site, site]}}')


@pytest.mark.parametrize("feature, plan, code, line", [
    ("true", None, 3, "no encoding: site 'true' is reserved or built into "
                      "Orc, so the encoding cannot call it"),
    ("if", None, 3, "no encoding: site 'if' is reserved or built into Orc, "
                    "so the encoding cannot call it"),
    ("Rtimer", None, 3, "no encoding: site 'Rtimer' is reserved or built "
                        "into Orc, so the encoding cannot call it"),
    ("A", [], 1, SHAPE),
    ("A", {"trigger_sites": []}, 1, SHAPE),
    ("A", {"feature_to_site": {"Root": "r", "A": 5}}, 1, SHAPE),
    ("A", {"feature_to_site": {"Root": "r", "A": ["x"]}}, 1, SHAPE),
    ("A", {"feature_to_site": {"Root": "r", "A": "a b"}}, 3,
     "no encoding: site 'a b' is not an Orc name"),
    ("pair", dict(PAIR_PLAN, trigger_sites={"0": ["p"]}), 1, SHAPE),
    ("pair", dict(PAIR_PLAN, trigger_sites={"0": ["p", "let"]}), 3,
     "no encoding: site 'let' is reserved or built into Orc, so the "
     "encoding cannot call it"),
    ("pair", dict(PAIR_PLAN, trigger_sites={"x": ["p", "q"]}), 1, SHAPE),
    ("pair", dict(PAIR_PLAN, trigger_sites={"0_0": ["p", "q"]}), 1, SHAPE),
    ("pair", dict(PAIR_PLAN, trigger_sites={" 0 ": ["p", "q"]}), 1, SHAPE),
    ("pair", dict(PAIR_PLAN, trigger_sites={"+0": ["p", "q"]}), 1, SHAPE),
    ("pair", dict(PAIR_PLAN, trigger_sites={"0": ["p", "q"],
                                            "00": ["r", "s"]}), 1, SHAPE),
    ("pair", dict(PAIR_PLAN, trigger_sites={"9" * 5000: ["p", "q"]}), 1,
     SHAPE),
    # A JSON object that repeats a key, which a dict cannot hold.
    ("pair", '{"feature_to_site": {"Root": "r", "A": "a", "B": "b"}, '
             '"trigger_sites": {"0": ["p", "q"], "0": ["a", "b"]}}', 1,
     SHAPE),
    ("A", '{"feature_to_site": {"Root": "r", "A": "x", "A": "y"}}', 1,
     SHAPE),
], ids=["true", "if", "Rtimer", "list", "trigger-list", "int-site",
        "list-site", "spaced-site", "one-trigger", "let-trigger",
        "word-gid", "underscore-gid", "spaced-gid", "signed-gid",
        "gid-twice", "long-gid", "repeated-gid", "repeated-feature"])
def test_encode_refuses_sites_its_output_cannot_call(tmp_path, capsys,
                                                     feature, plan, code,
                                                     line):
    model = tmp_path / "m.fm"
    body = "alternative { A, B }" if feature == "pair" \
        else f"optional {feature}"
    model.write_text(f"family Root {{\n  {body}\n}}\n")
    argv = ["encode", str(model)]
    if plan is not None:
        (tmp_path / "plan.json").write_text(
            plan if isinstance(plan, str) else json.dumps(plan))
        argv += ["--plan", str(tmp_path / "plan.json")]
        if code == 1:
            line = f"error: {tmp_path / 'plan.json'}: {line}"
    assert run_cli(capsys, *argv) == (code, "", line + "\n")


# ---------------------------------------------------------------------------
# fixtures / output redirection

def test_fixtures_list_names_everything(capsys):
    code, out, err = run_cli(capsys, "fixtures", "list")
    assert code == 0
    assert out.splitlines() == list(corpus.fixture_names())


def test_fixtures_show_prints_the_file(capsys):
    code, out, err = run_cli(capsys, "fixtures", "show", "par.orc")
    assert code == 0
    assert out == corpus.fixture_text("par.orc")


def test_fixtures_show_requires_a_known_name(capsys):
    assert run_cli(capsys, "fixtures", "show")[0] == 1
    assert run_cli(capsys, "fixtures", "show", "nope.orc")[0] == 1


def test_fixtures_export_writes_files(tmp_path, capsys):
    dest = tmp_path / "bundle"
    code, out, err = run_cli(capsys, "fixtures", "export", str(dest))
    assert code == 0
    written = out.splitlines()
    assert len(written) == len(corpus.fixture_names())
    assert all((dest / name).exists() for name in corpus.fixture_names())


def test_fixtures_export_needs_a_directory(capsys):
    assert run_cli(capsys, "fixtures", "export") == (
        1, "", "error: fixtures export needs a destination directory\n")


def test_fixtures_export_into_an_uncreatable_directory_exits_one(
        tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run_cli(capsys, "fixtures", "export",
                             str(blocker / "bundle"))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {blocker / 'bundle'}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("fm", "count", fx("smartgrid.fm")),
    ("orc", "explore", fx("par.orc"), "--format", "lts"),
    ("fixtures", "list"),
])
def test_out_into_a_missing_directory_exits_one(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("orc", "frobnicate"),
    ("orc", "run"),
    ("orc", "run", "x.orc", "--max-steps", "abc"),
    ("orc", "run", fx("par.orc"), "--max-steps", "-1"),
    ("orc", "explore", fx("par.orc"), "--max-states", "-1"),
    ("orc", "explore", fx("loop.orc"), "--max-depth", "-1"),
    ("orc", "run", fx("par.orc"), "--max-states", "5"),
    ("orc", "explore", fx("par.orc"), "--max-steps", "5"),
], ids=["unknown-command", "missing-file", "not-a-number",
        "negative-steps", "negative-states", "negative-depth",
        "run-states", "explore-steps"])
def test_usage_errors_exit_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_help_exits_zero(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: orcline")


@pytest.mark.parametrize("path, operands", [
    ("orc run", ["x.orc"]),
    ("orc explore", ["x.orc"]),
    ("fm validate", ["x.fm", "--select", "A"]),
    ("fm products", ["x.fm"]),
    ("fm count", ["x.fm"]),
    ("mts check", ["f.mts", "p.lts"]),
    ("mts products", ["f.mts"]),
    ("mts dot", ["f.mts"]),
    ("encode", ["x.fm"]),
    ("fixtures", ["list"]),
])
def test_every_command_has_help_and_a_command_function(capsys, path,
                                                        operands):
    code, out, err = run_cli(capsys, *path.split(), "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: orcline {path} [-h]")
    args = cli.build_parser().parse_args(path.split() + operands)
    assert callable(getattr(cli, f"_cmd_{args.handler}"))


def test_out_flag_redirects_stdout(tmp_path, capsys):
    target = tmp_path / "count.txt"
    code, out, err = run_cli(capsys, "fm", "count", fx("smartgrid.fm"),
                             "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "4\n"


# ---------------------------------------------------------------------------
# one parser per process

def test_main_builds_its_parser_once(monkeypatch, capsys, tmp_path):
    built = []
    build = cli.build_parser

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    monkeypatch.setattr(cli, "_parser", None)
    mixed = [("orc", "run", fx("par.orc"), "--seed", "3"),
             ("orc", "explore", fx("mutex.orc"), "--format", "json"),
             ("orc", "run"),
             ("fm", "count", fx("smartgrid.fm")),
             ("fm", "products", fx("smartgrid.fm"), "--format", "json"),
             ("mts", "dot", fx("drh_family.mts")),
             ("fixtures", "list"),
             ("--help",),
             ("encode", fx("smartgrid.fm"), "--out", str(tmp_path / "e"))]
    codes = [run_cli(capsys, *mixed[i % len(mixed)])[0] for i in range(50)]
    assert len(built) == 1
    assert codes[:len(mixed)] == [0, 0, 1, 0, 0, 0, 0, 0, 0]
    assert codes == codes[:len(mixed)] * 5 + codes[:5]


def test_calls_after_a_usage_error_and_help_run_as_in_a_fresh_process(
        monkeypatch, capsys):
    # Help text wraps at the terminal width, which both sides read from
    # COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "_parser", None)
    package_root = pathlib.Path(orcline.__file__).parents[1]
    sequence = [("orc", "run"),
                ("--help",),
                ("orc", "run", fx("mutex.orc"), "--seed", "7"),
                ("orc", "explore", "--help"),
                ("orc", "run", "x.orc", "--max-steps", "abc"),
                ("orc", "explore", fx("par.orc"), "--format", "json"),
                ("fm", "products", fx("smartgrid.fm")),
                ("fm", "validate", fx("smartgrid.fm")),
                ("fm", "count", fx("smartgrid.fm"))]
    for argv in sequence:
        fresh = subprocess.run([sys.executable, "-m", "orcline", *argv],
                               capture_output=True, text=True,
                               cwd=package_root)
        assert run_cli(capsys, *argv) \
            == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert cli._parser is not None


def test_a_command_patched_after_the_first_call_is_the_one_that_runs(
        monkeypatch, capsys):
    assert run_cli(capsys, "fm", "count", fx("smartgrid.fm")) \
        == (0, "4\n", "")
    seen = []

    def patched(args):
        seen.append(args.file)
        return 3

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_cmd_fm_count", patched)
        assert run_cli(capsys, "fm", "count", fx("smartgrid.fm")) \
            == (3, "", "")
    assert seen == [fx("smartgrid.fm")]
    assert run_cli(capsys, "fm", "count", fx("smartgrid.fm")) \
        == (0, "4\n", "")


# ---------------------------------------------------------------------------
# the exit-code contract on mutated inputs

# Tokens of the four input grammars that a mutant may gain.
GRAMMAR_TOKENS = ["(", ")", "{", "}", ",", ";", "|", ">x>", "<x<", ">>",
                  "<<", "=", '"', "\n", "--", "0", "x", "true", "def",
                  "site", "responds", "delay", "silent", "family",
                  "mandatory", "optional", "alternative", "requires",
                  "excludes", "mts", "lts", "states", "init", "must", "may",
                  "trans"]

# A selection that the unmutated feature model accepts.
SELECTIONS = {
    "smartgrid.fm": "SmartGrid,IntegrationOfRenewables,Storage,"
                    "VehicleToGrid,ElectricVehicles,DemandResponse,"
                    "GridMonitoring",
    "no_renewables.fm": "NoRenewables,DemandResponse,FlexibleTariffs,"
                        "TwoWayPricing,ExceptionPricing,GridMonitoring",
}


def _mutate(text: str, rng: random.Random) -> str:
    """``text`` after one to three edits, each deleting a character,
    inserting a grammar token, swapping two characters or duplicating a
    span of up to eight."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text))
        edit = rng.randrange(4)
        if edit == 0:
            text = text[:i] + text[i + 1:]
        elif edit == 1:
            text = text[:i] + rng.choice(GRAMMAR_TOKENS) + text[i:]
        elif edit == 2:
            chars = list(text)
            j = rng.randrange(len(text))
            chars[i], chars[j] = chars[j], chars[i]
            text = "".join(chars)
        else:
            j = i + rng.randint(1, 8)
            text = text[:j] + text[i:j] + text[j:]
    return text


def _mutant_commands(name: str, path: str) -> list:
    """Every command line that reads the format of fixture ``name``,
    applied to ``path``."""
    if name.endswith(".orc"):
        run = ["orc", "run", path, "--max-steps", "60", "--max-depth", "3"]
        explore = ["orc", "explore", path, "--max-states", "60",
                   "--max-depth", "3", "--format"]
        return [run, run + ["--seed", "7"]] + [
            explore + [fmt] for fmt in ("text", "json", "lts", "dot")]
    if name.endswith(".fm"):
        return [["fm", "validate", path, "--select", SELECTIONS[name]],
                ["fm", "products", path], ["fm", "count", path],
                ["encode", path]]
    if name.endswith(".mts"):
        return [["mts", "check", path, fx("drh_product.lts")],
                ["mts", "products", path], ["mts", "dot", path]]
    return [["mts", "check", fx("drh_family.mts"), path],
            ["mts", "dot", path]]


def test_mutated_fixtures_keep_the_exit_code_contract(tmp_path, capsys):
    # Seeded mutants of every bundled fixture through every command
    # that reads its format: no exception escapes main, the exit code
    # is one of 0 ok, 1 bad input, 2 bound hit, 3 negative verdict, and
    # a second call gives the same code, output file and stderr.
    rng = random.Random(20)
    out = tmp_path / "out"
    codes: dict = {}

    def call(argv):
        if out.exists():
            out.unlink()
        code = cli.main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        written = out.read_text() if out.exists() else None
        return code, written, captured.out, captured.err

    for name in corpus.fixture_names():
        text = corpus.fixture_text(name)
        path = tmp_path / f"mutant.{name.rsplit('.', 1)[1]}"
        for _ in range(24):
            path.write_text(_mutate(text, rng))
            for argv in _mutant_commands(name, str(path)):
                first = call(argv)
                assert first[0] in (0, 1, 2, 3), (argv, path.read_text())
                assert call(argv) == first, (argv, path.read_text())
                command = " ".join(argv).replace(str(path), "MUTANT")
                codes.setdefault(command, set()).add(first[0])
    # 6 orc command lines, 5 fm (one fm validate per model) and 4 mts
    # (mts check with the mutant on either side); each ends in at least
    # two ways, and all four codes occur.
    assert len(codes) == 15
    assert all(len(seen) >= 2 for seen in codes.values()), codes
    assert set().union(*codes.values()) == {0, 1, 2, 3}
