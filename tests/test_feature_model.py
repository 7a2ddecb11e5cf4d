import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from orcline import BoundExceeded, ModelBuilder, UnknownFeature
from orcline.feature_model import (
    _condition, enumerate_products, is_valid, joined_products,
    product_count, sorted_products, validate,
)

import oracles
from generators import (
    brute_force_products, random_feature_model, wide_feature_model,
)


def smartgrid_like():
    b = ModelBuilder("Grid")
    b.mandatory("Grid", "Renewables")
    b.mandatory("Renewables", "Storage")
    b.mandatory("Grid", "Response")
    b.optional("Grid", "Choice")
    b.optional("Grid", "Forecast")
    return b.build()


# ---------------------------------------------------------------------------
# builder

def test_builder_rejects_duplicates_and_unknown_parents():
    b = ModelBuilder("R")
    b.mandatory("R", "A")
    with pytest.raises(ValueError):
        b.mandatory("R", "A")
    with pytest.raises(UnknownFeature):
        b.optional("Ghost", "B")


def test_builder_rejects_small_groups_and_bad_constraints():
    b = ModelBuilder("R")
    with pytest.raises(ValueError):
        b.alternative("R", "OnlyOne")
    b.alternative("R", "X", "Y")
    b.requires("X", "Ghost")
    with pytest.raises(UnknownFeature):
        b.build()


# ---------------------------------------------------------------------------
# validation rules

def test_root_must_be_selected():
    m = smartgrid_like()
    violations = validate(m, {"Renewables"})
    assert any(v.rule == "root" for v in violations)


def test_parent_of_selected_feature_must_be_selected():
    m = smartgrid_like()
    violations = validate(m, {"Grid", "Storage"})
    assert any(v.rule == "orphan" for v in violations)


def test_mandatory_children_of_selected_parents_are_required():
    m = smartgrid_like()
    violations = validate(
        m, {"Grid", "Renewables", "Response"})  # Storage missing
    assert any(v.rule == "mandatory" for v in violations)


def test_optional_features_may_be_left_out():
    m = smartgrid_like()
    assert is_valid(m, {"Grid", "Renewables", "Storage", "Response"})
    assert is_valid(m, {"Grid", "Renewables", "Storage", "Response",
                        "Choice"})


def test_alternative_needs_exactly_one_member():
    b = ModelBuilder("R")
    b.alternative("R", "X", "Y")
    m = b.build()
    assert any(v.rule == "alternative" for v in validate(m, {"R"}))
    assert is_valid(m, {"R", "X"})
    assert is_valid(m, {"R", "Y"})
    assert any(v.rule == "alternative"
               for v in validate(m, {"R", "X", "Y"}))


def test_requires_and_excludes():
    b = ModelBuilder("R")
    b.optional("R", "A")
    b.optional("R", "B")
    b.requires("A", "B")
    m = b.build()
    assert any(v.rule == "requires" for v in validate(m, {"R", "A"}))
    assert is_valid(m, {"R", "A", "B"})
    assert is_valid(m, {"R", "B"})

    b2 = ModelBuilder("R")
    b2.optional("R", "A")
    b2.optional("R", "B")
    b2.excludes("A", "B")
    m2 = b2.build()
    assert any(v.rule == "excludes" for v in validate(m2, {"R", "A", "B"}))
    assert is_valid(m2, {"R", "A"})


def test_unknown_selection_name_raises():
    with pytest.raises(UnknownFeature):
        validate(smartgrid_like(), {"Grid", "Nonsense"})


# ---------------------------------------------------------------------------
# enumeration

def test_enumerates_optional_combinations():
    m = smartgrid_like()
    products = enumerate_products(m)
    assert len(products) == 4
    base = frozenset({"Grid", "Renewables", "Storage", "Response"})
    assert base in products
    assert base | {"Choice", "Forecast"} in products


def test_alternative_with_requires_between_members_kills_one_branch():
    b = ModelBuilder("F")
    b.alternative("F", "X", "Y")
    b.requires("X", "Y")
    m = b.build()
    products = enumerate_products(m)
    assert products == {frozenset({"F", "Y"})}


def test_product_count_matches_enumeration():
    rng = random.Random(41)
    for _ in range(80):
        m = random_feature_model(rng, max_features=10)
        assert product_count(m) == len(enumerate_products(m))


def test_count_uses_multiplication_without_constraints():
    b = ModelBuilder("R")
    for i in range(30):
        b.optional("R", f"O{i}")
    m = b.build()
    # far beyond the enumeration bound, but countable in closed form
    assert product_count(m) == 2 ** 30


def test_enumeration_bound_is_enforced():
    b = ModelBuilder("R")
    for i in range(30):
        b.optional("R", f"O{i}")
    for enumerate_ in (enumerate_products, sorted_products,
                       lambda m: joined_products(m, ", ", "\n  ")):
        with pytest.raises(BoundExceeded):
            enumerate_(b.build())
    # Counting conditions on the two features that one constraint
    # touches; 15 excludes pairs touch all 30, which is over both the
    # streaming and the conditioning bound.
    b.requires("O0", "O1")
    assert product_count(b.build()) == 3 * 2 ** 28
    for i in range(2, 30, 2):
        b.excludes(f"O{i}", f"O{i + 1}")
    with pytest.raises(BoundExceeded, match="30 of them in constraints"):
        product_count(b.build())


def test_every_enumerated_product_is_valid():
    rng = random.Random(42)
    for _ in range(60):
        m = random_feature_model(rng, max_features=12)
        for product in enumerate_products(m):
            assert is_valid(m, product)


def test_enumeration_matches_brute_force_oracle():
    rng = random.Random(43)
    for _ in range(60):
        m = random_feature_model(rng, max_features=12)
        assert enumerate_products(m) == brute_force_products(m)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.randoms(use_true_random=False))
def test_mask_enumeration_matches_the_frozenset_oracle(rng):
    # Up to 20 features, so masks take one, two or three bytes to decode.
    m = random_feature_model(rng, max_features=21)
    expected = set(oracles._iter_products(m))
    assert sorted_products(m) == oracles._sorted_products(expected)
    assert enumerate_products(m) == expected
    assert product_count(m) == len(expected)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.randoms(use_true_random=False))
def test_conditioning_matches_the_streamed_and_frozenset_oracles(rng):
    m = wide_feature_model(rng)
    expected = set(oracles._iter_products(m))
    assert product_count(m) == oracles.streamed_count(m) == len(expected)
    assert enumerate_products(m) == expected
    assert sorted_products(m) == oracles._sorted_products(expected)


def test_wide_models_take_both_counting_routes():
    # _condition leaves the constraints to filter when it streams and
    # none when it conditions; each route must be tested many times.
    routes = {True: 0, False: 0}
    for seed in range(300):
        m = wide_feature_model(random.Random(seed))
        routes[bool(_condition(m)[1])] += 1
        assert product_count(m) == oracles.streamed_count(m)
    assert min(routes.values()) >= 50, routes


def test_joined_products_are_the_joined_sorted_name_lists():
    # Random models have the root F0 first, in the high half of the key;
    # Root below sorts last, so its bit is in the low half and the
    # separator goes on the high half's entries.  Dead has no products.
    rng = random.Random(12)
    models = [random_feature_model(rng, max_features=21) for _ in range(80)]
    b = ModelBuilder("Root")
    for i in range(12):
        b.optional("Root", f"A{i:02d}")
    b.excludes("A00", "A01")
    models.append(b.build())
    b = ModelBuilder("Dead")
    b.mandatory("Dead", "A")
    b.mandatory("Dead", "B")
    b.excludes("A", "B")
    models.append(b.build())
    for m in models:
        products = sorted_products(m)
        for sep, lead, form in ((", ", "\n  ", str),
                                (",\n    ", "\n  ],\n  [\n    ", json.dumps)):
            pieces = joined_products(m, sep, lead, form)
            assert pieces[::3] == [lead] * len(products)
            assert "".join(pieces) == "".join(
                lead + sep.join(map(form, names)) for names in products)
            assert list(map(str.__add__, pieces[1::3], pieces[2::3])) \
                == oracles.joined_products(m, sep, form)
    assert max(len(m.features) for m in models) > 16
    assert products == []


def test_models_of_22_to_24_features_match_the_mask_oracle():
    # Mostly mandatory features and alternatives, so few products; the
    # root Aaa sorts first (the high half of the key holds it) and Zzz
    # last (the low half does).
    sizes = set()
    for seed in range(40):
        for root in ("Aaa", "Zzz"):
            m = random_feature_model(random.Random(seed), 25, 3, root, 22,
                                     optional=0.1)
            sizes.add(len(m.features))
            expected = set(oracles._iter_products(m))
            assert sorted_products(m) == oracles._sorted_products(expected)
            assert enumerate_products(m) == expected
            pieces = joined_products(m, ", ", "\n  ")
            assert list(map(str.__add__, pieces[1::3], pieces[2::3])) \
                == oracles.joined_products(m, ", ")
    assert sizes == {22, 23, 24}


def _twenty_optional_features(parent: str, kind: str = "mandatory") -> tuple:
    """(count, tracemalloc peak) of counting a model with 20 optional
    features under ``parent``, which is the root R or its child A of
    ``kind``, and one ``requires``."""
    b = ModelBuilder("R")
    if parent != "R":
        getattr(b, kind)("R", parent)
    for i in range(20):
        b.optional(parent, f"O{i:02d}")
    b.requires("O03", "O11")
    m = b.build()
    tracemalloc.start()
    try:
        count = product_count(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return count, peak


def test_counting_with_constraints_streams_the_root_product():
    count, peak = _twenty_optional_features("R")
    assert count == 3 * 2 ** 18
    # A materialised root product of 2^20 masks would take tens of MB.
    assert peak < 2 * 1024 * 1024


def test_counting_streams_features_under_a_mandatory_child():
    # A's 20 optional features join the root's slots, so the root split
    # balances them too; A's subtree as one list would hold 2^20 masks.
    count, peak = _twenty_optional_features("A")
    assert count == 3 * 2 ** 18
    assert peak < 2 * 1024 * 1024


def test_counting_conditions_under_an_optional_child():
    # Conditioning on O03 and O11 counts A's subtree without building
    # it: 2^18 products for each of the three assignments, plus the one
    # without A.
    count, peak = _twenty_optional_features("A", "optional")
    assert count == 3 * 2 ** 18 + 1
    assert peak < 2 * 1024 * 1024


def test_counting_streams_when_constraints_touch_most_features():
    # 8 excludes pairs touch all 16 optional features: 2^16 walks of
    # 17 features outnumber the 2^16 candidates, so the candidates are
    # streamed through the filter, a row at a time.
    b = ModelBuilder("R")
    for i in range(16):
        b.optional("R", f"O{i:02d}")
    for i in range(0, 16, 2):
        b.excludes(f"O{i:02d}", f"O{i + 1:02d}")
    m = b.build()
    assert _condition(m)[1] == m.constraints
    tracemalloc.start()
    try:
        count = product_count(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 3 ** 8
    # All 2^16 candidates as one list would take over 2 MB.
    assert peak < 1024 * 1024
