import random

import pytest

from orcline import (
    ActionMismatch, BoundExceeded, ClauseFailure, Lts, Mts, derive_products,
    export_dot, is_product, modality, parse_lts, parse_mts,
)
from orcline import mts
from orcline.corpus import fixture_text

import oracles
from generators import nested_mts, random_lts, random_mts


def chain_family() -> Mts:
    return parse_mts(fixture_text("drh_family.mts"))


def chain_product() -> Lts:
    return parse_lts(fixture_text("drh_product.lts"))


# ---------------------------------------------------------------------------
# construction invariants

def test_must_transitions_are_always_possible():
    m = Mts(frozenset({"a", "b"}), frozenset(), "a",
            frozenset({("a", "go", "b")}), frozenset())
    assert ("a", "go", "b") in m.may


def test_actions_include_every_used_label():
    m = Mts(frozenset({"a"}), frozenset(), "a", frozenset(),
            frozenset({("a", "loop", "a")}))
    assert "loop" in m.actions


def test_unknown_states_are_rejected():
    with pytest.raises(ValueError):
        Lts(frozenset({"a"}), frozenset(), "a",
            frozenset({("a", "go", "ghost")}))
    with pytest.raises(ValueError):
        Mts(frozenset({"a"}), frozenset(), "ghost", frozenset(),
            frozenset())


def test_modality_partitions_triples():
    rng = random.Random(51)
    for _ in range(100):
        m = random_mts(rng)
        for s in sorted(m.states):
            for a in sorted(m.actions):
                for d in sorted(m.states):
                    kind = modality(m, s, a, d)
                    triple = (s, a, d)
                    if kind == "must":
                        assert triple in m.must and triple in m.may
                    elif kind == "may-only":
                        assert triple in m.may and triple not in m.must
                    else:
                        assert kind == "absent"
                        assert triple not in m.may


# ---------------------------------------------------------------------------
# the product relation

def test_chain_product_is_a_product_with_identity_witness():
    check = is_product(chain_product(), chain_family())
    assert check.holds
    assert check.witness == {(f"s{i}", f"s{i}") for i in range(5)}


def test_optional_transition_may_be_taken():
    full = Lts(chain_product().states, frozenset(), "s0",
               chain_product().trans | {("s1", "Load_shift", "s2")})
    assert is_product(full, chain_family()).holds


def test_missing_must_transition_fails_first_clause():
    broken = Lts(chain_product().states, frozenset(), "s0",
                 frozenset(t for t in chain_product().trans
                           if t[1] != "Sell"))
    check = is_product(broken, chain_family())
    assert not check.holds
    assert check.failure.clause == "must-unmatched"
    assert "required transition" in str(check.failure)


def test_transition_outside_may_fails_second_clause():
    rogue = Lts(chain_product().states, frozenset(), "s0",
                chain_product().trans | {("s0", "Sell", "s1")})
    check = is_product(rogue, chain_family())
    assert not check.holds
    assert check.failure.clause == "may-unmatched"


def test_foreign_action_is_a_modelling_error():
    alien = Lts(frozenset({"s0", "s1"}), frozenset(), "s0",
                frozenset({("s0", "Dance", "s1")}))
    with pytest.raises(ActionMismatch):
        is_product(alien, chain_family())


def test_witness_pairs_really_satisfy_both_clauses():
    rng = random.Random(52)
    checked = 0
    for _ in range(300):
        family = random_mts(rng)
        product = random_lts(rng)
        if not product.actions <= family.actions:
            continue
        check = is_product(product, family)
        if not check.holds:
            continue
        checked += 1
        relation = check.witness
        assert (product.init, family.init) in relation
        for (p, q) in relation:
            for (src, a, dst) in family.must:
                if src != q:
                    continue
                assert any(ps == p and a == pa and (pd, dst) in relation
                           for (ps, pa, pd) in product.trans), \
                    "unmatched family must-transition"
            for (src, a, dst) in product.trans:
                if src != p:
                    continue
                assert any(qs == q and a == qa and (dst, qd) in relation
                           for (qs, qa, qd) in family.may), \
                    "product transition not allowed by may"
    assert checked > 10


# ---------------------------------------------------------------------------
# product derivation

def test_chain_family_has_two_products():
    products = derive_products(chain_family())
    assert len(products) == 2
    sizes = sorted(len(p.trans) for p in products)
    assert sizes == [4, 5]
    for p in products:
        assert is_product(p, chain_family()).holds


def test_derived_products_are_canonical_and_deduplicated():
    # Two may-only self-alternatives that yield identical shapes after
    # renaming collapse to one canonical product.
    family = Mts(frozenset({"q0", "q1", "q2"}), frozenset(), "q0",
                 frozenset(),
                 frozenset({("q0", "a", "q1"), ("q0", "a", "q2")}))
    products = derive_products(family)
    shapes = {(tuple(sorted(p.states)), tuple(sorted(p.trans)))
              for p in products}
    assert len(shapes) == len(products)
    for p in products:
        assert p.init == "s0"
        assert all(s.startswith("s") for s in p.states)


def test_every_derived_product_passes_the_check():
    rng = random.Random(53)
    for _ in range(60):
        family = random_mts(rng)
        for p in derive_products(family):
            assert is_product(p, family).holds


def test_unreachable_parts_are_dropped():
    family = Mts(frozenset({"q0", "q1", "q2"}), frozenset(), "q0",
                 frozenset({("q1", "a", "q2")}),
                 frozenset({("q0", "b", "q1")}))
    products = derive_products(family)
    # Without the may-transition, q1/q2 are unreachable and vanish.
    assert any(len(p.states) == 1 and not p.trans for p in products)
    assert any(len(p.states) == 3 for p in products)


def test_derivation_bound():
    states = frozenset({f"q{i}" for i in range(8)})
    may = frozenset({(f"q{i}", "a", f"q{j}")
                     for i in range(8) for j in range(8)})
    family = Mts(states, frozenset(), "q0", frozenset(), may)
    with pytest.raises(BoundExceeded):
        derive_products(family)


def test_derivation_bound_counts_only_reachable_optional_transitions(
        monkeypatch):
    # 12 optional transitions among states nothing reaches, 2 reachable.
    unreachable = {(f"u{i}", "a", f"u{(i + 1) % 12}") for i in range(12)}
    family = Mts(frozenset({"q0", "q1"} | {f"u{i}" for i in range(12)}),
                 frozenset(), "q0", frozenset({("q0", "a", "q1")}),
                 frozenset({("q0", "b", "q0"), ("q1", "b", "q0")})
                 | unreachable)
    assert len(derive_products(family)) == 4
    monkeypatch.setattr(mts, "MAX_OPTIONAL_TRANSITIONS", 1)
    with pytest.raises(BoundExceeded, match="2 optional transitions "
                                            "reachable from q0 under may"):
        derive_products(family)


# ---------------------------------------------------------------------------
# against the deletion fixpoint and the full toggling (tests/oracles.py)

def _same_check(product, family):
    new, old = is_product(product, family), oracles.is_product(product,
                                                               family)
    assert (new.holds, new.witness, new.failure) == \
        (old.holds, old.witness, old.failure)
    assert new.rounds == oracles.product_rounds(product, family)
    return new


def _variant(rng, product):
    """``product`` with one transition dropped or one random one added."""
    trans = sorted(product.trans)
    states = sorted(product.states)
    if trans and rng.random() < 0.5:
        trans.pop(rng.randrange(len(trans)))
    else:
        trans.append((rng.choice(states), rng.choice("abc"),
                      rng.choice(states)))
    return Lts(product.states, frozenset(), product.init, frozenset(trans))


def test_product_check_matches_the_deletion_fixpoint():
    # Random products mostly fail; derived products and their one-edge
    # variants give holding checks and failures deep inside the graph.
    rng = random.Random(54)
    verdicts, rounds = {}, set()
    for i in range(2400):
        family = random_mts(rng, max_states=rng.choice((3, 6, 9)))
        if i % 3:
            product = random_lts(rng, max_states=rng.choice((3, 5, 8)))
        else:
            product = rng.choice(oracles.derive_products(family))
            if i % 2:
                product = _variant(rng, product)
        check = _same_check(product, family)
        kind = check.failure.clause if check.failure else "product"
        verdicts[kind] = verdicts.get(kind, 0) + 1
        rounds.add(check.rounds)
    assert min(verdicts.values()) > 400, verdicts
    assert {1, 2, 3, 4, 5} <= rounds, rounds


def test_product_check_matches_the_deletion_fixpoint_on_fixtures():
    family = chain_family()
    product = chain_product()
    candidates = [product] + oracles.derive_products(family)
    for t in sorted(product.trans):
        candidates.append(Lts(product.states, frozenset(), product.init,
                              product.trans - {t}))
        for action in sorted(family.actions):
            candidates.append(Lts(product.states, frozenset(), product.init,
                                  product.trans | {(t[0], action, t[2])}))
    rounds = {_same_check(candidate, family).rounds
              for candidate in candidates}
    assert {1, 2, 3} <= rounds, rounds
    alien = Lts(frozenset({"s0"}), frozenset(), "s0",
                frozenset({("s0", "Dance", "s0")}))
    for check in (is_product, oracles.is_product):
        with pytest.raises(ActionMismatch):
            check(alien, family)


def test_derived_products_match_full_toggling():
    rng = random.Random(55)
    for _ in range(300):
        family = random_mts(rng)
        assert derive_products(family) == oracles.derive_products(family)
    assert derive_products(chain_family()) == \
        oracles.derive_products(chain_family())


def test_derived_products_are_checked_lts_values():
    # Each product must equal the Lts built from its parts, and the
    # oracle's, with the actions its transitions carry.
    rng = random.Random(57)
    families = [random_mts(rng) for _ in range(150)]
    families += [nested_mts(rng, 3, 8) for _ in range(30)]
    for family in families:
        products = derive_products(family)
        assert products == oracles.derive_products(family)
        for p in products:
            assert p.actions == {a for (_, a, _) in p.trans}
            assert p == Lts(p.states, frozenset(), p.init, p.trans)


def test_products_collapse_on_the_renamed_set_not_the_visit():
    # Taking m -a-> x or m -a-> y gives one product, s0 -a-> s1 with s1
    # -a-> s0 and s1 -a-> s2, but the visits differ: x's moves sort as
    # (a, b) before (a, m), so s1 -a-> s2 is taken first, while y's
    # sort as (a, m) before (a, z).  A dedupe on the visit would keep
    # both.
    family = Mts(frozenset({"m", "x", "y", "b", "z"}), frozenset(), "m",
                 frozenset({("x", "a", "m"), ("x", "a", "b"),
                            ("y", "a", "m"), ("y", "a", "z")}),
                 frozenset({("m", "a", "x"), ("m", "a", "y")}))
    products = derive_products(family)
    assert products == oracles.derive_products(family)
    assert [sorted(p.trans) for p in products] == [
        [],
        [("s0", "a", "s1"), ("s1", "a", "s0"), ("s1", "a", "s2")],
        [("s0", "a", "s1"), ("s0", "a", "s2"), ("s1", "a", "s0"),
         ("s1", "a", "s3"), ("s2", "a", "s0"), ("s2", "a", "s4")]]


def test_nested_families_match_full_toggling(monkeypatch):
    # Optional transitions behind optional transitions: the search
    # decides only those a candidate reaches, and builds one Lts per
    # distinct product.
    built = []
    lts = mts.Lts

    def counting_lts(*args):
        built.append(args)
        return lts(*args)

    monkeypatch.setattr(mts, "Lts", counting_lts)
    rng = random.Random(56)
    candidates = distinct = 0
    for _ in range(12):
        family = nested_mts(rng)
        optional = family.may - family.must
        assert 8 <= len(optional) <= 14
        del built[:]
        products = derive_products(family)
        assert products == oracles.derive_products(family)
        assert len(built) == len(products)
        for p in products:
            assert is_product(p, family).holds
        candidates += 2 ** len(optional)
        distinct += len(products)
    assert distinct < candidates // 10


# Actions that sort around each other and around the product state
# names: "A" < "a" < "a1" < "b_2" < "s10" < "s2".
NAMED_ACTIONS = ("A", "a", "a1", "b_2", "s10", "s2")


def _named_families(rng, want, make):
    """The first ``want`` families of ``make(rng)`` with a product of 11
    or more states, whose names s10, s11, ... sort before s2."""
    out = []
    while len(out) < want:
        family = make(rng)
        if max(n for n, _ in mts.product_rows(family)[0]) >= 11:
            out.append(family)
    return out


def test_codes_sort_as_the_triples_they_name():
    # A code ranks a state by its name's string order, not its visit
    # index, so sorted codes are sorted triples: the rows decode to the
    # full toggling's products, in its order.
    rng = random.Random(30)
    families = _named_families(
        rng, 12, lambda rng: nested_mts(rng, 10, 12, NAMED_ACTIONS))
    families += _named_families(
        rng, 40, lambda rng: random_mts(rng, 16, 8, NAMED_ACTIONS))
    large = 0
    for family in families:
        expected = oracles.derive_products(family)
        assert derive_products(family) == expected
        rows, triples = mts.product_rows(family)
        assert [(n, len(trans)) for n, trans in rows] == \
            [(len(p.states), len(p.trans)) for p in expected]
        for (n, trans), product in zip(rows, expected):
            decoded = [triples[code] for code in trans]
            assert decoded == sorted(product.trans)
        large += sum(n >= 11 for n, _ in rows)
    assert large >= 500


def _chain(n):
    """A family requiring n ``go`` steps (q0 -> ... -> qn) that allows
    ``go`` back to q0 and an ``up`` loop at qn, and three candidates:
    the chain of n steps, the chain without its last edge, and the
    chain with an ``up`` loop at its start."""
    family = Mts(frozenset(f"q{i}" for i in range(n + 1)), frozenset(), "q0",
                 frozenset((f"q{i}", "go", f"q{i + 1}") for i in range(n)),
                 frozenset({(f"q{n}", "go", "q0"), (f"q{n}", "up", f"q{n}")}))
    chain = frozenset((f"p{i}", "go", f"p{i + 1}") for i in range(n))
    states = frozenset(f"p{i}" for i in range(n + 1))
    products = {
        "full": chain,
        "short": chain - {(f"p{n - 1}", "go", f"p{n}")},
        "stray": chain | {("p0", "up", "p0")},
    }
    return family, {name: Lts(states, frozenset(), "p0", trans)
                    for name, trans in products.items()}


@pytest.mark.parametrize("n", [12, 1000])
def test_chain_verdicts(n):
    family, products = _chain(n)
    full = is_product(products["full"], family)
    assert full.holds and full.failure is None
    assert full.witness == {(f"p{i}", f"q{i}") for i in range(n + 1)}
    # The first failing pairs of sorted P × Q: the first of the two
    # edgeless states p{n-1}, p{n} has no ``go`` for q0's required one,
    # and p0's ``up`` has no counterpart at q0.
    short = is_product(products["short"], family)
    assert not short.holds and short.witness is None
    assert short.failure == ClauseFailure(
        "must-unmatched", min(f"p{n - 1}", f"p{n}"), "q0", "go", "q1")
    stray = is_product(products["stray"], family)
    assert not stray.holds
    assert stray.failure == ClauseFailure("may-unmatched", "p0", "q0", "up",
                                          "p0")
    if n <= 12:
        for product in products.values():
            _same_check(product, family)


# ---------------------------------------------------------------------------
# export

def test_dot_export_styles_modalities():
    dot = export_dot(chain_family(), name="family")
    assert "digraph family" in dot
    assert 'style=dashed' in dot          # the may-only Load_shift
    assert dot.count("style=dashed") == 1
    assert "__init" in dot
    plain = export_dot(chain_product())
    assert "style=dashed" not in plain
