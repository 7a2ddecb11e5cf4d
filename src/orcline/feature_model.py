"""Feature models: trees of features plus cross-tree constraints.

A feature model has a root feature, child features that are either
*mandatory* (present whenever the parent is), *optional* (freely
chosen when the parent is present) or members of an *alternative*
group (exactly one member chosen when the parent is present), and two
kinds of cross-tree constraints: ``requires`` (one-directional) and
``excludes`` (symmetric).

A *configuration* is a set of feature names; it is a *product* of the
model when it satisfies all tree and constraint rules.  ``validate``
explains every way a configuration fails; ``enumerate_products``,
``sorted_products`` and ``product_count`` enumerate the valid ones.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def plain_children(self, name: str) -> list:
        """Mandatory and optional children, skipping group members."""
        return [c for c in self.features[name].children
                if self.features[c].kind in ("mandatory", "optional")]

    def groups_of(self, name: str) -> list:
        return [g for g in self.groups if g.parent == name]


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

    def alternative(self, parent: str, *members: str) -> int:
        if len(members) < 2:
            raise ValueError("an alternative group needs at least two members")
        gid = len(self._groups)
        for m in members:
            self._add(parent, m, "member", gid)
        self._groups.append(AltGroup(gid, parent, tuple(members)))
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
        for child in fm.features[name].children:
            if fm.features[child].kind == "mandatory" and child not in selected:
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


def _product_masks(fm: FeatureModel) -> tuple:
    """``(names, rows)``: the model's feature names in sorted order and
    a stream of its products as int lists, one row at a time.

    The feature of sorted rank ``r`` has the bit ``1 << (n-1-r)``.  Each
    subtree's configurations are an int list; its slots (each optional
    child, also left out, each alternative group, and a mandatory
    child's bit and slots in place of the child) combine by ``+``, which
    is ``|`` on disjoint bits.  The root's slots, with those of the
    mandatory features under it, go to two lists of balanced size, and
    a row is one left mask plus every right mask, filtered by the
    cross-tree constraints, so the root's product is never
    materialised."""
    names = sorted(fm.features)
    bit = {name: 1 << i for i, name in enumerate(reversed(names))}

    def slots(name):
        out = []
        for child in fm.plain_children(name):
            if fm.features[child].kind == "optional":
                out.append([0] + configurations(child))
            else:
                out.append([bit[child]])
                out += slots(child)
        for g in fm.groups_of(name):
            out.append([m for member in g.members
                        for m in configurations(member)])
        return out

    def configurations(name):
        acc = [bit[name]]
        for sub in slots(name):
            acc = [x + y for x in acc for y in sub]
        return acc

    left, right = [bit[fm.root]], [0]
    for sub in sorted(slots(fm.root), key=len, reverse=True):
        if len(left) <= len(right):
            left = [x + y for x in left for y in sub]
        else:
            right = [x + y for x in right for y in sub]

    requires = [(bit[c.a], bit[c.b]) for c in fm.constraints
                if isinstance(c, Requires)]
    excludes = [bit[c.a] | bit[c.b] for c in fm.constraints
                if isinstance(c, Excludes)]

    def rows():
        for x in left:
            row = [x + y for y in right]
            for a, b in requires:
                row = [m for m in row if not m & a or m & b]
            for ab in excludes:
                row = [m for m in row if m & ab != ab]
            yield row

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
    """Number of products.  Counts multiplicatively when there are no
    cross-tree constraints, otherwise streams the enumeration, which
    ``MAX_ENUMERATION_FEATURES`` bounds."""
    if not fm.constraints:
        def count(name):
            n = 1
            for child in fm.plain_children(name):
                c = count(child)
                n *= c + 1 if fm.features[child].kind == "optional" else c
            for g in fm.groups_of(name):
                n *= sum(count(m) for m in g.members)
            return n
        return count(fm.root)
    _check_size(fm)
    return sum(map(len, _product_masks(fm)[1]))
