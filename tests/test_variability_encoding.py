import json
import random

import pytest

from orcline import (
    Bounds, ModelBuilder, corpus, explore, parse_program, render_expr,
    render_program,
)
from orcline.orc_ast import (
    Asymmetric, Otherwise, Parallel, Program, Sequential, SiteCall,
)
from orcline.orc_semantics import Call, Publish, Return, path_call_site_sets
from orcline.variability_encoding import (
    EncodingPlan, MissingTrigger, PlanMismatch, UnsupportedGroupSize,
    default_plan, encode, encode_alternative, plan_from_json,
)

from generators import maximal_paths, random_feature_model, reachable_without


def explored(program: Program):
    return explore(program, Bounds(max_states=20000))


def sites_per_path(program: Program):
    return path_call_site_sets(explored(program))


# ---------------------------------------------------------------------------
# relation-by-relation shapes

def test_mandatory_features_compose_in_parallel():
    b = ModelBuilder("Root")
    b.mandatory("Root", "P")
    b.mandatory("Root", "Q")
    program = encode(b.build())
    assert program.goal == Parallel(SiteCall("P", ()), SiteCall("Q", ()))
    # every complete run calls both mandatory sites
    assert sites_per_path(program) == {frozenset({"P", "Q"})}


def test_optional_feature_hangs_off_an_ignored_binder():
    b = ModelBuilder("R")
    b.optional("R", "O")
    program = encode(b.build())
    goal = program.goal
    assert isinstance(goal, Asymmetric)
    assert goal.left == SiteCall("R", ())
    assert goal.right == SiteCall("O", ())
    from orcline import free_vars
    assert goal.binder not in free_vars(goal.left)  # value is ignored
    assert render_expr(goal) == "R() <x0< O()"


def test_excludes_composes_with_otherwise():
    b = ModelBuilder("Root")
    b.mandatory("Root", "P")
    b.mandatory("Root", "Q")
    b.excludes("P", "Q")
    program = encode(b.build())
    assert program.goal == Otherwise(SiteCall("P", ()), SiteCall("Q", ()))
    # P answers, so Q is never reached
    assert sites_per_path(program) == {frozenset({"P"})}


def test_requires_sequences_the_target_after_the_source():
    b = ModelBuilder("Root")
    b.mandatory("Root", "P")
    b.mandatory("Root", "Q")
    b.requires("P", "Q")
    program = encode(b.build())
    assert isinstance(program.goal, Sequential)
    assert program.goal.left == SiteCall("P", ())
    assert program.goal.right == SiteCall("Q", ())
    # on every path, P's return precedes Q's call
    for path in maximal_paths(explored(program)):
        q_call = next(i for (i, e) in enumerate(path)
                      if isinstance(e, Call) and e.site == "Q")
        p_return = next(i for (i, e) in enumerate(path)
                        if isinstance(e, Return) and e.site == "P")
        assert p_return < q_call


def test_requires_fuses_at_the_lowest_shared_node():
    b = ModelBuilder("Root")
    b.mandatory("Root", "Mid")
    b.mandatory("Mid", "A")
    b.mandatory("Root", "B")
    b.requires("A", "B")
    program = encode(b.build())
    # A lives inside Mid's unit; the fusion happens at Root where both
    # units meet, gating B behind the whole Mid unit.
    assert isinstance(program.goal, Sequential)
    assert program.goal.right == SiteCall("B", ())


def test_parent_child_requires_fuses_inside_the_subtree():
    b = ModelBuilder("Root")
    b.mandatory("Root", "P")
    b.mandatory("P", "C")
    b.requires("C", "P")
    program = encode(b.build())
    # C's unit and P's own site are separate units at P's node, so the
    # rewrite lands there.
    assert program.goal == Sequential(SiteCall("C", ()), "x0",
                                      SiteCall("P", ()))


def test_constraint_inside_one_unit_has_no_encoding():
    # Both endpoints live inside the single unit produced for the
    # group, so there is nothing left to rewrite.
    b = ModelBuilder("Root")
    b.alternative("Root", "X", "Y")
    b.requires("X", "Y")
    with pytest.raises(PlanMismatch):
        encode(b.build())


def test_constraint_on_optional_subtree_has_no_encoding():
    b = ModelBuilder("Root")
    b.optional("Root", "O")
    b.mandatory("Root", "P")
    b.requires("O", "P")
    with pytest.raises(PlanMismatch):
        encode(b.build())


def test_larger_groups_are_rejected():
    b = ModelBuilder("Root")
    b.alternative("Root", "X", "Y", "Z")
    with pytest.raises(UnsupportedGroupSize):
        encode(b.build())


def test_missing_plan_entries_are_reported():
    b = ModelBuilder("Root")
    b.mandatory("Root", "P")
    model = b.build()
    with pytest.raises(PlanMismatch):
        encode(model, EncodingPlan({"Root": "Root"}))
    b2 = ModelBuilder("Root")
    b2.alternative("Root", "X", "Y")
    model2 = b2.build()
    plan = default_plan(model2)
    plan.trigger_sites = {}
    with pytest.raises(MissingTrigger):
        encode(model2, plan)


def test_encoding_parses_back_to_itself():
    rng = random.Random(1401)
    encoded = 0
    for _ in range(300):
        model = random_feature_model(rng)
        try:
            program = encode(model)
        except PlanMismatch:   # a constraint with no combinator encoding
            continue
        assert parse_program(render_program(program)) == program
        encoded += 1
    assert encoded >= 50


def test_encoding_notes_name_each_rule():
    b = ModelBuilder("Root")
    b.mandatory("Root", "P")
    b.optional("Root", "O")
    b.alternative("Root", "X", "Y")
    model = b.build()
    plan = default_plan(model)
    encode(model, plan)
    text = "\n".join(plan.notes)
    assert "parallel" in text and "asymmetric" in text and "flag" in text
    # A reused plan's notes describe the latest call only.
    notes = list(plan.notes)
    encode(model, plan)
    assert plan.notes == notes


def test_plan_json_round_trip():
    b = ModelBuilder("Root")
    b.alternative("Root", "X", "Y")
    plan = default_plan(b.build())
    again = plan_from_json(json.dumps(
        {"feature_to_site": plan.feature_to_site,
         "trigger_sites": {str(gid): list(pair)
                           for gid, pair in plan.trigger_sites.items()}}))
    assert again.feature_to_site == plan.feature_to_site
    assert again.trigger_sites == plan.trigger_sites


# ---------------------------------------------------------------------------
# the mutual-exclusion pattern

def pattern_program(silent=None) -> Program:
    from orcline.orc_ast import SiteSpec
    goal = encode_alternative(SiteCall("M", ()), SiteCall("N", ()),
                              SiteCall("A", ()), SiteCall("B", ()))
    env = {name: SiteSpec((name,), 0) for name in "MNAB"}
    if silent:
        env[silent] = SiteSpec((), 0)
    return Program(goal, {}, env)


def test_flag_pattern_runs_exactly_one_branch():
    sets = sites_per_path(pattern_program())
    for sites in sets:
        assert len(sites & {"M", "N"}) == 1
    chosen = {tuple(sorted(s & {"M", "N"})) for s in sets}
    assert chosen == {("M",), ("N",)}  # and both branches occur


def test_flag_pattern_forces_survivor_when_a_trigger_is_silent():
    for silent, survivor in (("A", "N"), ("B", "M")):
        sets = sites_per_path(pattern_program(silent=silent))
        assert {tuple(sorted(s & {"M", "N"})) for s in sets} \
            == {(survivor,)}


def test_flag_pattern_shape_is_the_documented_one():
    goal = encode_alternative(SiteCall("M", ()), SiteCall("N", ()),
                              SiteCall("A", ()), SiteCall("B", ()))
    text = render_expr(goal)
    assert text == ("if(flag) >> M() | (if(flag) >> let(false) ; "
                    "let(true)) >nflag> if(nflag) >> N() <flag< "
                    "A() >> let(true) | B() >> let(false)")
    assert parse_program(text).goal == goal


def test_alternative_group_encoding_is_exclusive_end_to_end():
    b = ModelBuilder("Root")
    b.alternative("Root", "X", "Y")
    program = encode(b.build())
    chosen = {tuple(sorted(s & {"X", "Y"}))
              for s in sites_per_path(program)}
    assert chosen == {("X",), ("Y",)}


# ---------------------------------------------------------------------------
# demand-response programs

def test_demand_response_publishes_one_pair():
    ex = explored(parse_program(corpus.fixture_text("dr.orc")))
    assert all(len(seq) == 1 for seq in ex.outcomes)
    values = {seq[0] for seq in ex.outcomes}
    assert values == {("real_time", "sell"), ("real_time", "buy"),
                      ("day_ahead", "sell"), ("day_ahead", "buy")}


def test_demand_response_pair_waits_for_both_sides():
    # The pair can only publish after a response from the pricing race
    # *and* one from the trading race.  Path enumeration blows up here,
    # but the property is equivalent to: no state reachable without a
    # pricing (resp. trading) response has an outgoing publication.
    ex = explored(parse_program(corpus.fixture_text("dr.orc")))
    publishing = {i for (i, ev, j) in ex.edges if isinstance(ev, Publish)}
    for side in ({"real_time", "day_ahead"}, {"sell", "buy"}):
        early = reachable_without(
            ex, lambda ev: isinstance(ev, Return) and ev.site in side)
        assert not (publishing & early)


def test_demand_response_choice_commits_to_one_side():
    ex = explored(parse_program(corpus.fixture_text("dr_alt.orc")))
    assert ex.outcomes == {("Load_shift",), ("Agreement",)}
    for sites in path_call_site_sets(ex):
        assert len(sites & {"Load_shift", "Agreement"}) == 1
