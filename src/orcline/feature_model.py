"""Feature models: trees of features plus cross-tree constraints.

A feature model has a root feature, child features that are either
*mandatory* (present whenever the parent is), *optional* (freely
chosen when the parent is present) or members of an *alternative*
group (exactly one member chosen when the parent is present), and two
kinds of cross-tree constraints: ``requires`` (one-directional) and
``excludes`` (symmetric).

A *configuration* is a set of feature names; it is a *product* of the
model when it satisfies all tree and constraint rules.  ``validate``
explains every way a configuration fails; ``enumerate_products`` and
``sorted_products`` list the products and ``product_count`` counts
them, each by conditioning on the features that constraints touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import prod
from operator import mul

from .errors import BoundExceeded

#: Cap on model size for exhaustive product enumeration.
MAX_ENUMERATION_FEATURES = 24


class UnknownFeature(Exception):
    """A referenced feature name is not part of the model."""


@dataclass(frozen=True)
class Feature:
    name: str
    kind: str                # "root" | "mandatory" | "optional" | "member"
    parent: "str | None"
    children: tuple          # all child names, in declaration order
    group: "int | None" = None   # alternative-group id for kind "member"


@dataclass(frozen=True)
class AltGroup:
    gid: int
    parent: str
    members: tuple


@dataclass(frozen=True)
class Requires:
    a: str
    b: str


@dataclass(frozen=True)
class Excludes:
    a: str
    b: str


@dataclass(frozen=True)
class Violation:
    """One broken rule, naming the features involved."""

    rule: str                # "root" | "orphan" | "mandatory" |
                             # "alternative" | "requires" | "excludes"
    features: tuple
    message: str

    def __str__(self):
        return f"{self.rule}: {self.message}"


@dataclass(frozen=True)
class FeatureModel:
    root: str
    features: dict           # name -> Feature
    groups: tuple            # AltGroup, ...
    constraints: tuple       # Requires | Excludes, ...

    @cached_property
    def child_table(self) -> dict:
        """name -> (optional children, mandatory children, groups), each
        in declaration order."""
        table = {name: ([], [], []) for name in self.features}
        for name, f in self.features.items():
            if f.kind in ("optional", "mandatory"):
                table[f.parent][f.kind == "mandatory"].append(name)
        for g in self.groups:
            table[g.parent][2].append(g)
        return table


class ModelBuilder:
    """Incremental construction with structural checking at build time."""

    def __init__(self, root: str):
        self._root = root
        self._features = {root: [None, "root", None]}  # parent, kind, gid
        self._order = {root: []}                       # children order
        self._groups = []
        self._constraints = []

    def _add(self, parent: str, name: str, kind: str, gid=None):
        if parent not in self._features:
            raise UnknownFeature(parent)
        if name in self._features:
            raise ValueError(f"duplicate feature {name!r}")
        self._features[name] = [parent, kind, gid]
        self._order[name] = []
        self._order[parent].append(name)

    def mandatory(self, parent: str, name: str) -> str:
        self._add(parent, name, "mandatory")
        return name

    def optional(self, parent: str, name: str) -> str:
        self._add(parent, name, "optional")
        return name

    def group(self, parent: str) -> int:
        """Open an empty alternative group under ``parent`` and return
        its id.  ``member`` adds the members one at a time, so each can
        get its children before the next is added; the caller checks
        that a group gets at least two, as ``alternative`` does."""
        if parent not in self._features:
            raise UnknownFeature(parent)
        self._groups.append(AltGroup(len(self._groups), parent, ()))
        return len(self._groups) - 1

    def member(self, gid: int, name: str) -> str:
        """Add ``name`` as the next member of group ``gid``; raises
        ValueError if the name is taken."""
        g = self._groups[gid]
        self._add(g.parent, name, "member", gid)
        self._groups[gid] = AltGroup(gid, g.parent, g.members + (name,))
        return name

    def alternative(self, parent: str, *members: str) -> int:
        if len(members) < 2:
            raise ValueError("an alternative group needs at least two members")
        gid = self.group(parent)
        for m in members:
            self.member(gid, m)
        return gid

    def requires(self, a: str, b: str):
        self._constraints.append(Requires(a, b))

    def excludes(self, a: str, b: str):
        self._constraints.append(Excludes(a, b))

    def build(self) -> FeatureModel:
        for c in self._constraints:
            for end in (c.a, c.b):
                if end not in self._features:
                    raise UnknownFeature(end)
        features = {
            name: Feature(name, kind, parent, tuple(self._order[name]), gid)
            for name, (parent, kind, gid) in self._features.items()
        }
        return FeatureModel(self._root, features, tuple(self._groups),
                            tuple(self._constraints))


def _violations(fm: FeatureModel, selection):
    """Yield the rule violations of ``selection`` one at a time, so a
    caller that only needs the first stops the walk there."""
    for name in selection:   # in input order: the first unknown name
        if name not in fm.features:
            raise UnknownFeature(name)
    selected = frozenset(selection)

    if fm.root not in selected:
        yield Violation("root", (fm.root,),
                        f"root feature {fm.root!r} must be selected")
    for name in sorted(selected):
        f = fm.features[name]
        if f.parent is not None and f.parent not in selected:
            yield Violation(
                "orphan", (name, f.parent),
                f"{name!r} is selected but its parent {f.parent!r} is not")
    for name in sorted(selected):
        for child in fm.child_table[name][1]:
            if child not in selected:
                yield Violation(
                    "mandatory", (name, child),
                    f"{child!r} is mandatory under selected {name!r}")
    for g in fm.groups:
        if g.parent not in selected:
            continue
        chosen = [m for m in g.members if m in selected]
        if len(chosen) != 1:
            what = "none" if not chosen else ", ".join(repr(m) for m in chosen)
            yield Violation(
                "alternative", (g.parent,) + g.members,
                f"exactly one of {g.members} required under "
                f"{g.parent!r}, got {what}")
    for c in fm.constraints:
        if isinstance(c, Requires):
            if c.a in selected and c.b not in selected:
                yield Violation("requires", (c.a, c.b),
                                f"{c.a!r} requires {c.b!r}")
        else:
            if c.a in selected and c.b in selected:
                yield Violation("excludes", (c.a, c.b),
                                f"{c.a!r} excludes {c.b!r}")


def validate(fm: FeatureModel, selection) -> list:
    """All rule violations of ``selection``, empty when it is a product.

    Raises UnknownFeature for the first name of the selection, in its
    iteration order, that is outside the model (that is an input error,
    not a configuration defect).
    """
    return list(_violations(fm, selection))


def is_valid(fm: FeatureModel, selection) -> bool:
    return next(_violations(fm, selection), None) is None


def _walk(fm: FeatureModel, must, off, leaf, absent, times, total):
    """The root's slots with ``must`` selected and ``off`` left out,
    folded into counts (1, 1, ``*``, ``sum``) or mask lists (``[bit]``,
    ``[0]``, cross-sum, concatenation).  A slot is an optional child (or
    ``absent``, unless in ``must``), a group (its ``must`` member, else
    those not off) or a mandatory child's leaf and slots; a subtree is
    its leaf times its slots."""
    table = fm.child_table

    def slots(name):
        optional, mandatory, groups = table[name]
        out = []
        for child in mandatory:
            if child in off:
                return [total(())]
            out.append(leaf(child))
            out += slots(child)
        for child in optional:
            if child not in off:
                sub = configurations(child)
                out.append(sub if child in must else total((absent, sub)))
        for g in groups:
            chosen = [m for m in g.members if m in must]
            if not chosen:
                chosen = [m for m in g.members if m not in off]
            elif chosen[1:]:
                chosen = []
            out.append(total(map(configurations, chosen)))
        return out

    def configurations(name):
        return reduce(times, slots(name), leaf(name))

    return slots(fm.root)


#: The counting fold of a ``_walk``.
_COUNTS = (lambda name: 1, 1, mul, sum)


def _filter(constraints, bit):
    """A function keeping the masks of a list that satisfy every
    constraint, ``bit`` giving each feature's bit."""
    requires = [(bit[c.a], bit[c.b]) for c in constraints
                if isinstance(c, Requires)]
    excludes = [bit[c.a] | bit[c.b] for c in constraints
                if isinstance(c, Excludes)]

    def keep(masks):
        for a, b in requires:
            masks = [m for m in masks if not m & a or m & b]
        for ab in excludes:
            masks = [m for m in masks if m & ab != ab]
        return masks
    return keep


def _condition(fm: FeatureModel) -> tuple:
    """``(assignments, constraints)``: the ``(must, off)`` name sets
    whose walks hold each product once, and the constraints left to
    filter them by.

    Each assignment of the k features that constraints touch which
    satisfies them all selects its features and their ancestors and
    leaves the others out.  When 2^k walks of every feature outnumber
    the unconstrained products, the one empty assignment is walked and
    filtered instead, at most ``MAX_ENUMERATION_FEATURES`` features;
    conditioning makes at most 2^``MAX_ENUMERATION_FEATURES`` visits."""
    touched = sorted({end for c in fm.constraints for end in (c.a, c.b)})
    n, k = len(fm.features), len(touched)
    if n << k > prod(_walk(fm, (), (), *_COUNTS)) \
            and n <= MAX_ENUMERATION_FEATURES:
        return [((), ())], fm.constraints
    if n << k > 1 << MAX_ENUMERATION_FEATURES:
        raise BoundExceeded(
            f"model has {n} features, {k} of them in constraints, counting "
            f"bound is {MAX_ENUMERATION_FEATURES} features or "
            f"2^{MAX_ENUMERATION_FEATURES} node visits ({n} x 2^{k})")
    assignments = []
    keep = _filter(fm.constraints, {t: 1 << i for i, t in enumerate(touched)})
    for v in keep(range(1 << k)):
        must, off = {fm.root}, set()
        for i, name in enumerate(touched):
            if v >> i & 1:
                while name not in must:
                    must.add(name)
                    name = fm.features[name].parent
            else:
                off.add(name)
        if must.isdisjoint(off):
            assignments.append((must, off))
    return assignments, ()


def _product_masks(fm: FeatureModel, plan=None) -> tuple:
    """``(names, rows)``: the model's feature names in sorted order and
    a stream of its products as int lists, one row at a time.

    The feature of sorted rank ``r`` has the bit ``1 << (n-1-r)``.  Per
    assignment of ``plan`` (``_condition``), the root's slots go to two
    lists of balanced size (each slot, largest first, joins the smaller
    side); a row is one left mask plus every right mask (``+`` is ``|``
    on disjoint bits), filtered by the constraints left."""
    names = sorted(fm.features)
    bit = {name: 1 << i for i, name in enumerate(reversed(names))}
    assignments, constraints = plan or _condition(fm)
    keep = _filter(constraints, bit)

    def cross(acc, sub):
        return [x + y for x in acc for y in sub]
    masks = (lambda name: [bit[name]], [0], cross,
             lambda subs: [m for sub in subs for m in sub])

    def rows():
        for must, off in assignments:
            left, right = [bit[fm.root]], [0]
            for sub in sorted(_walk(fm, must, off, *masks), key=len,
                              reverse=True):
                if len(left) <= len(right):
                    left = cross(left, sub)
                else:
                    right = cross(right, sub)
            for x in left:
                yield keep([x + y for y in right])

    return names, rows()


def _decode(pieces: list, masks: list, join, sep=None) -> list:
    """Each mask as ``join`` of its features' pieces in sorted order
    (``list``, or ``sep.join``): the low byte through a table, the bits
    above it by decoding their distinct values the same way.  With
    ``sep``, a byte after the leading one reads entries that start with
    ``sep``.  Masks are distinct, so no two results share a list."""
    n = len(pieces)
    width = min(8, n)
    first = [join([pieces[n - 1 - j] for j in reversed(range(width))
                   if v >> j & 1])
             for v in range(1 << width)]
    if n <= 8:
        return [first[m] for m in masks]
    highs = list({m >> 8 for m in masks})
    head = dict(zip(highs, _decode(pieces[:n - 8], highs, join, sep)))
    if sep is None:
        return [head[m >> 8] + first[m & 255] for m in masks]
    rest = [sep + text if text else text for text in first]
    return [head[h] + rest[m & 255] if (h := m >> 8) else first[m]
            for m in masks]


def _check_size(fm: FeatureModel):
    if len(fm.features) > MAX_ENUMERATION_FEATURES:
        raise BoundExceeded(
            f"model has {len(fm.features)} features, enumeration bound "
            f"is {MAX_ENUMERATION_FEATURES}")


def enumerate_products(fm: FeatureModel) -> set:
    """The set of all products, each a frozenset of feature names."""
    _check_size(fm)
    names, rows = _product_masks(fm)
    return set(map(frozenset, _decode(
        names, [m for row in rows for m in row], list)))


def sorted_products(fm: FeatureModel) -> list:
    """Every product as its sorted list of feature names, ordered by
    size, then by the name lists.

    Among masks of one size, the first name where two sorted lists
    differ is the lowest rank in their XOR, which is its highest bit,
    so name order is descending mask order; a stable sort by size
    keeps it."""
    return _decode(*_sorted_masks(fm), list)


def joined_products(fm: FeatureModel, sep: str, form=str) -> list:
    """``sorted_products``, each product as the one string
    ``sep.join(map(form, names))``, decoded straight from its mask."""
    names, masks = _sorted_masks(fm)
    return _decode(list(map(form, names)), masks, sep.join, sep)


def _sorted_masks(fm: FeatureModel) -> tuple:
    """``(names, masks)``: the masks in ``sorted_products`` order."""
    _check_size(fm)
    names, rows = _product_masks(fm)
    masks = sorted((m for row in rows for m in row), reverse=True)
    masks.sort(key=int.bit_count)
    return names, masks


def product_count(fm: FeatureModel) -> int:
    """Number of products: the sum of ``_condition``'s walks counted,
    or the streamed enumeration's length when constraints are left.
    Raises BoundExceeded when neither fits its bound."""
    assignments, constraints = plan = _condition(fm)
    if constraints:
        return sum(map(len, _product_masks(fm, plan)[1]))
    return sum(prod(_walk(fm, must, off, *_COUNTS))
               for must, off in assignments)
