"""Reference implementations that optimised library code is compared with.

``is_product`` and ``derive_products`` are the original MTS algorithms,
kept unchanged: the product check deletes failing pairs from the full
product × family relation until fixpoint (O(n³) on a chain), and the
derivation toggles every may-only transition, reachable or not.
"""

from __future__ import annotations

import itertools

from orcline.errors import BoundExceeded
from orcline.mts import ActionMismatch, ClauseFailure, Lts, ProductCheck


def _outgoing(trans):
    out = {}
    for (src, action, dst) in trans:
        out.setdefault(src, []).append((action, dst))
    return out


def is_product(product, family) -> ProductCheck:
    extra = product.actions - family.actions
    if extra:
        raise ActionMismatch(
            f"product actions not in the family alphabet: {sorted(extra)}")

    p_out = _outgoing(product.trans)
    f_must = _outgoing(family.must)
    f_may = _outgoing(family.may)

    relation = set(itertools.product(sorted(product.states),
                                     sorted(family.states)))
    first_failure = None
    rounds = 0
    while True:
        rounds += 1
        doomed = []
        for (p, q) in sorted(relation):
            fail = None
            for (action, q2) in sorted(f_must.get(q, [])):
                if not any((action2 == action and (p2, q2) in relation)
                           for (action2, p2) in p_out.get(p, [])):
                    fail = ClauseFailure("must-unmatched", p, q, action, q2)
                    break
            if fail is None:
                for (action, p2) in sorted(p_out.get(p, [])):
                    if not any((action2 == action and (p2, q2) in relation)
                               for (action2, q2) in f_may.get(q, [])):
                        fail = ClauseFailure("may-unmatched", p, q, action, p2)
                        break
            if fail is not None:
                doomed.append((p, q))
                if first_failure is None:
                    first_failure = fail
        if not doomed:
            break
        relation.difference_update(doomed)

    initial = (product.init, family.init)
    if initial not in relation:
        return ProductCheck(False, None, first_failure, rounds)

    seen = {initial}
    frontier = [initial]
    while frontier:
        (p, q) = frontier.pop()
        for (action, p2) in p_out.get(p, []):
            for (action2, q2) in f_may.get(q, []):
                if action2 == action and (p2, q2) in relation \
                        and (p2, q2) not in seen:
                    seen.add((p2, q2))
                    frontier.append((p2, q2))
    return ProductCheck(True, frozenset(seen), None, rounds)


def _canonical_reachable(init, trans) -> Lts:
    out = _outgoing(trans)
    rename = {init: "s0"}
    queue = [init]
    while queue:
        src = queue.pop(0)
        for (_, dst) in sorted(out.get(src, [])):
            if dst not in rename:
                rename[dst] = f"s{len(rename)}"
                queue.append(dst)
    kept = frozenset((rename[src], action, rename[dst])
                     for (src, action, dst) in trans if src in rename)
    actions = frozenset(a for (_, a, _) in kept)
    return Lts(frozenset(rename.values()), actions, "s0", kept)


def derive_products(family, max_optional: int = 20) -> list:
    optional = sorted(family.may - family.must)
    if len(optional) > max_optional:
        raise BoundExceeded(
            f"{len(optional)} optional transitions, derivation bound "
            f"is {max_optional}")

    seen = {}
    for mask in range(1 << len(optional)):
        chosen = frozenset(t for i, t in enumerate(optional)
                           if mask & (1 << i))
        product = _canonical_reachable(family.init, family.must | chosen)
        key = (product.states, product.trans)
        if key not in seen:
            seen[key] = product

    def sort_key(lts):
        return (len(lts.states), len(lts.trans), sorted(lts.trans))

    return sorted(seen.values(), key=sort_key)
