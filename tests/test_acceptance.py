"""The ten acceptance checks, one per test.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict
line per criterion::

    [acceptance] criterion 01 smart-grid-product-count: PASS

Each criterion pins a wall-clock budget alongside its functional
assertions; blowing the budget fails the test even when the answers
are right.
"""

import contextlib
import pathlib
import random
import subprocess
import sys
import time

import orcline
from orcline import (
    Bounds, cli, corpus, derive_products, enumerate_products, explore,
    is_product, modality, parse_expr, parse_lts, parse_mts,
    parse_program, render_expr,
)
from orcline.orc_ast import (
    SIGNAL, Otherwise, Parallel, Program, Sequential, SiteCall, SiteSpec,
    Var,
)
from orcline.orc_semantics import Call, Publish, Return, path_call_site_sets
from orcline.variability_encoding import encode_alternative

from generators import (
    brute_force_products, maximal_paths, random_expr, random_feature_model,
    random_mts, reachable_without,
)


@contextlib.contextmanager
def criterion(num: int, label: str, budget: float):
    """Print one verdict line, then re-raise any failure."""
    start = time.monotonic()
    failure = None
    try:
        yield
    except Exception as exc:
        failure = exc
    elapsed = time.monotonic() - start
    ok = failure is None and elapsed < budget
    print(f"[acceptance] criterion {num:02d} {label}: "
          f"{'PASS' if ok else 'FAIL'}")
    if failure is not None:
        raise failure
    assert elapsed < budget, (f"{label} took {elapsed:.2f}s, "
                              f"budget {budget:g}s")


def publish_values(path):
    return [e.value for e in path if isinstance(e, Publish)]


def test_criterion_01_smart_grid_product_count(capsys):
    with criterion(1, "smart-grid-product-count", 1.0):
        code = cli.main(["fm", "products",
                         str(corpus.fixture_path("smartgrid.fm"))])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "products 4"


def test_criterion_02_enumeration_matches_brute_force():
    with criterion(2, "product-enumeration-matches-brute-force", 30.0):
        rng = random.Random(20260814)
        for _ in range(200):
            model = random_feature_model(rng, max_features=16,
                                         max_constraints=6)
            assert enumerate_products(model) == brute_force_products(model)


def test_criterion_03_precedence_and_round_trip():
    with criterion(3, "combinator-precedence-and-round-trip", 5.0):
        assert parse_expr("F(1) >x> G(x) | H(2)") == Parallel(
            Sequential(SiteCall("F", (1,)), "x", SiteCall("G", (Var("x"),))),
            SiteCall("H", (2,)))
        assert parse_expr("F(1) | G(2) ; H(3)") == Otherwise(
            Parallel(SiteCall("F", (1,)), SiteCall("G", (2,))),
            SiteCall("H", (3,)))
        rng = random.Random(3)
        for _ in range(500):
            expr = random_expr(rng)
            assert parse_expr(render_expr(expr)) == expr


def test_criterion_04_interleaving_outcomes():
    with criterion(4, "interleaving-outcomes", 3.0):
        start = time.monotonic()
        ex = explore(parse_program("let(1) | let(2)"), Bounds())
        assert time.monotonic() - start < 1.0
        assert ex.outcomes == {(1, 2)}
        orders = {tuple(publish_values(p)) for p in maximal_paths(ex)}
        assert {(1, 2), (2, 1)} <= orders

        start = time.monotonic()
        ex = explore(parse_program("if(false) ; Signal()"), Bounds())
        assert time.monotonic() - start < 1.0
        assert ex.outcomes == {(SIGNAL,)}

        start = time.monotonic()
        ex = explore(parse_program("Signal() ; X()"), Bounds())
        assert time.monotonic() - start < 1.0
        assert not any(isinstance(e, Call) and e.site == "X"
                       for (_, e, _) in ex.edges)


def _flag_pattern(silent=None) -> Program:
    goal = encode_alternative(SiteCall("M", ()), SiteCall("N", ()),
                              SiteCall("A", ()), SiteCall("B", ()))
    env = {name: SiteSpec((name,), True, 0) for name in "MNAB"}
    if silent:
        env[silent] = SiteSpec((), False, 0)
    return Program(goal, {}, env)


def test_criterion_05_flag_pattern_mutual_exclusion():
    with criterion(5, "flag-pattern-mutual-exclusion", 10.0):
        ex = explore(_flag_pattern(), Bounds(max_states=10 ** 4))
        assert len(ex.states) <= 10 ** 4
        branch_calls = [s & {"M", "N"} for s in path_call_site_sets(ex)]
        assert all(len(calls) == 1 for calls in branch_calls)
        assert {frozenset("M"), frozenset("N")} <= set(branch_calls)
        # one trigger silent: the other branch is forced
        for silent, survivor in (("A", "N"), ("B", "M")):
            ex = explore(_flag_pattern(silent), Bounds(max_states=10 ** 4))
            branches = {tuple(sorted(s & {"M", "N"}))
                        for s in path_call_site_sets(ex)}
            assert branches == {(survivor,)}


def test_criterion_06_demand_response_pair():
    with criterion(6, "demand-response-pair-publication", 5.0):
        ex = explore(parse_program(corpus.fixture_text("dr.orc")), Bounds())
        assert ex.outcomes and not ex.truncated_outcomes
        for seq in ex.outcomes:
            assert len(seq) == 1
            assert isinstance(seq[0], tuple) and len(seq[0]) == 2
        # no path publishes before hearing from both inner races
        publishing = {i for (i, ev, j) in ex.edges
                      if isinstance(ev, Publish)}
        for side in ({"real_time", "day_ahead"}, {"sell", "buy"}):
            early = reachable_without(
                ex, lambda ev: isinstance(ev, Return) and ev.site in side)
            assert not (publishing & early)


def test_criterion_07_derived_products_satisfy_the_relation():
    with criterion(7, "derived-products-satisfy-the-relation", 60.0):
        family = parse_mts(corpus.fixture_text("drh_family.mts"))
        derived = derive_products(family)
        assert derived
        assert all(is_product(p, family).holds for p in derived)

        chain = corpus.fixture_text("drh_product.lts")
        missing_must = parse_lts(chain.replace("trans s2 Sell s3\n", ""))
        check = is_product(missing_must, family)
        assert not check.holds
        assert check.failure.clause == "must-unmatched"

        extra = parse_lts(chain + "trans s0 Sell s4\n")
        check = is_product(extra, family)
        assert not check.holds
        assert check.failure.clause == "may-unmatched"

        rng = random.Random(7)
        for _ in range(100):
            fam = random_mts(rng, max_states=6, max_may_only=10)
            for product in derive_products(fam):
                assert is_product(product, fam).holds


def test_criterion_08_modal_invariant_and_classification():
    with criterion(8, "modal-invariant-and-classification", 5.0):
        loaded = parse_mts("mts T\nstates s0 s1\ninit s0\nmust s0 a s1\n")
        assert loaded.must <= loaded.may
        rng = random.Random(8)
        for _ in range(100):
            m = random_mts(rng)
            assert m.must <= m.may
            kinds = {"must": 0, "may-only": 0, "absent": 0}
            for src in m.states:
                for action in m.actions:
                    for dst in m.states:
                        kinds[modality(m, src, action, dst)] += 1
            assert kinds["must"] == len(m.must)
            assert kinds["may-only"] == len(m.may - m.must)
            total = len(m.states) ** 2 * len(m.actions)
            assert sum(kinds.values()) == total


def test_criterion_09_virtual_time_ordering():
    with criterion(9, "virtual-time-ordering", 1.0):
        program = parse_program(
            "Rtimer(2) >x> let(1) | Rtimer(1) >y> let(2)")
        ex = explore(program, Bounds())
        assert ex.outcomes == {(1, 2)}
        for path in maximal_paths(ex):
            assert publish_values(path) == [2, 1]


def test_criterion_10_seeded_replay_determinism():
    with criterion(10, "seeded-replay-determinism", 1.0):
        argv = [sys.executable, "-m", "orcline", "orc", "run",
                str(corpus.fixture_path("mutex.orc")), "--seed", "7"]
        # Run the orcline under test, installed or not: ``-m`` searches
        # the working directory first.
        package_root = pathlib.Path(orcline.__file__).parents[1]
        first = subprocess.run(argv, capture_output=True, cwd=package_root)
        second = subprocess.run(argv, capture_output=True, cwd=package_root)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout and first.stdout == second.stdout
