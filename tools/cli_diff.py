"""Byte-compare orcline's command line between two checkouts.

Usage, from the root of a checkout::

    python3 tools/cli_diff.py OTHER_CHECKOUT [--seeds 1 2 3]
        [--ignore-key rounds]

Runs the same command lines once with this checkout's ``src/`` and once
with OTHER_CHECKOUT's ``src/`` on ``PYTHONPATH``, and lists every
command whose exit code, stdout or stderr differs.  The commands are
the jobs of the benchmark's product-line and orc workloads for each
seed (chain ``mts check`` in three verdicts, ``mts products``, ``fm
products``, ``fm count``, ``fm validate``, ``encode``; ``orc explore``
on let ladders, a timer race, the fixtures and the encoded pipeline,
seeded ``orc run`` on fan-outs), every ``mts check`` and ``fm
validate`` again with ``--format json``, ``mts check``/``products``/
``dot`` and the ``fm`` commands on the bundled fixtures and on broken
variants of the fixture product, ``mts check`` and ``mts dot`` on the
fixture product saved as ``.txt``, ``mts dot`` on the fixture product,
on transition systems written with tabs, no-break spaces, form feeds
and ``--`` comments and on one that declares a state on two ``states``
lines, ``mts dot`` on the full graph of a 6-let ladder (4,096 states)
and ``mts check`` of that graph against itself as an all-must family,
``fixtures list`` and ``fixtures show``, ``mts products`` (text and
json) on a family with optional transitions behind optional ones, on
one where two choices give the same product, on one over the
derivation bound, on a 12-state chain and on a 13-state chain whose
actions sort around the state names, ``fm products`` (text and json), ``fm count`` and
``encode`` on the bundled and on generated feature models (the
benchmark's 14- and 15-feature families, one of 19 features, an
alternative group under an optional feature,
``requires`` into group members, a lone root, ``excludes`` and
``requires`` between two mandatory features, a feature named
``true``, an ``excludes`` into a member of a group under an optional
feature, a ``requires`` into a feature under two optional ones, 26
optional features in 13 ``excludes`` pairs, 22 features mostly
mandatory or in alternatives, and roots that sort first and last among
their features' names), ``encode --plan``
with a good plan and with malformed ones (group ids that are not
integers, or that are but not in plain digits, or that spell one id
twice, or that repeat a key in one object), the ``--help`` screen of the top level, of ``orc``,
``fm`` and ``mts`` and of every command, and ``orc explore`` in
all four formats and ``orc run`` with and without ``--seed`` on every
``.orc`` fixture and on probes of quiescence (a call waiting for a
variable, a definition at the depth bound, a pending timer, a call on a
variable that nothing binds), of a label holding ``--``, of ``|``
nested on either side of another ``|``, of eight parallel calls of
one two-parameter recursive definition (``--max-depth 64``, explored
up to ``--max-states 2000``), of each place a publication can be
taken (at the root through a ``;``, by a ``>x>`` through one and
through two ``;``, by a ``<x<`` through ``;`` and ``|``, by a ``<x<``
inside a spawn's left operand, by a ``>x>`` inside a bind's right
operand, by a ``<x<`` over a spawn whose left operand becomes
``stop``, and by a ``>x>`` that sits under a ``;``) and of an int
and a bool that Python holds equal (bound by a ``<x<``, spawned by a
``>x>`` and tested by ``if``) and of a site with two responses that
three calls take turns at, ``orc run`` with and without
``--seed`` on two 64-branch fan-outs (the benchmark's ``S_i() >x>
let(x)`` and one mixing ``>x>``, ``<x<`` and
``;``) and ``orc explore --format json|lts`` on their 3-branch
versions, every source of the parser's diagnostic table
(``tests/diagnostic_cases.py``: Orc through ``orc explore``, feature
models through ``fm count``, ``.mts`` through ``mts products`` and
``.lts`` through ``mts dot``), ``fixtures export``, and the error
paths: ``orc explore`` cut by ``--max-depth`` (text and json) and by
``--max-states``, ``orc run`` cut by ``--max-steps``, a negative bound,
a bound flag that the command does not take, an unknown subcommand,
``--out`` into a missing directory, ``fm validate`` selecting an
unknown feature, and a file of each format (and a plan) that is not
UTF-8.  A job that writes a file another job reads
(``encode`` for the orc workload) writes it once, with this checkout,
before the comparison.
``--ignore-key K`` drops top-level key K from JSON stdout and every
line ``K <number>`` from other stdout, and masks the number of each
``<number> K`` on stderr (as in the ``truncated: --max-states`` line),
before comparing.  Exits 1 when anything differs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "src", "orcline", "fixtures")
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import diagnostic_cases  # noqa: E402
import workloads  # noqa: E402

# (file name, program, extra flags) of the quiescence, label, nesting
# and recursion probes, one probe per shape of a publication's
# capture, three that race an int against a bool, and one whose calls
# take turns at a site's responses.
PROBES = [
    ("var_blocked.orc",
     "def F(x) = let(x)\n(F(y) ; let(9)) <y< (Rtimer(1) >> let(2))\n", []),
    ("depth_blocked.orc", "def L() = L()\nL() ; let(9)\n",
     ["--max-depth", "2"]),
    ("waiting.orc", "let(x) | Rtimer(2) >> let(1)\n", []),
    ("dashes.orc", 'let("a -- b")\n', []),
    ("unbound.orc", "let(x)\n", []),
    ("never_bound.orc", "let(y) <y< if(false)\n", []),
    ("nested_par.orc",
     "(let(1) | let(2) >x> (let(x) | let(3)))"
     " | (let(4) | let(y) <y< (let(5) | Rtimer(1) >> let(6)))\n", []),
    ("recursive.orc",
     "def R(a, b) = let(a) >x> R(b, x)\n"
     + " | ".join(f"R({i}, {i + 1})" for i in range(8)) + "\n",
     ["--max-depth", "64"]),
    ("root_through_fallback.orc", "(let(1) ; let(2)) | let(3)\n", []),
    ("spawn_through_fallback.orc", "(let(1) ; let(2)) >x> let(x)\n", []),
    ("spawn_through_fallbacks.orc",
     "((let(1) ; let(2)) ; let(3)) >x> let(x)\n", []),
    ("bind_through_fallback.orc",
     "let(x) <x< ((let(1) ; let(9)) | Rtimer(1) >> let(2))\n", []),
    ("bind_in_spawn.orc", "(let(x) <x< let(1)) >y> let(y)\n", []),
    ("spawn_in_bind.orc", "let(y) <y< (let(1) >x> let(x))\n", []),
    ("bind_into_stop.orc", "let(1) <x< (Rtimer(1) >> let(2))\n", []),
    ("spawn_under_fallback.orc", "(let(1) >x> let(x)) ; let(9)\n", []),
    ("bind_int_or_bool.orc", "let(v) <v< (let(1) | let(true))\n", []),
    ("spawn_int_or_bool.orc", "(let(0) | let(false)) >x> let(x)\n", []),
    ("guard_int_or_bool.orc", "if(v) <v< (let(1) | let(true))\n", []),
    ("cycled.orc", "site A responds 1, 2\nA() | A() >x> let(x, x) | A()\n",
     []),
]
# Further flags of a probe that only orc explore takes.
EXPLORE_FLAGS = {"recursive.orc": ["--max-states", "2000"]}


def mixed_fanout(n: int) -> str:
    """n parallel branches on sites S_i that answer i after i mod 3
    ticks, taking turns at ``>x>`` spawning, ``<x<`` binding through a
    ``;`` and a ``;`` falling back before a spawn."""
    kinds = ["S{i}() >x> let(x)", "(let(x, {i}) <x< (S{i}() ; let(0)))",
             "(if(false) ; S{i}()) >x> let(x)"]
    sites = "".join(f"site S{i} delay {i % 3} responds {i}\n"
                    for i in range(n))
    return sites + " | ".join(kinds[i % 3].format(i=i)
                              for i in range(n)) + "\n"


# (file name, model) of the feature-model probes: the benchmark's 14-
# and 15-feature families, 19 features with mixed-case names (three
# bytes of product mask), an alternative group under an optional
# feature, ``requires`` into group members, a lone root,
# ``excludes`` (no products) and ``requires`` between two mandatory
# features, an ``excludes`` into a member of a group under an optional
# feature and a ``requires`` into a feature under two optional ones
# (five more optional features each, so counting conditions on the
# constrained ones), 26 optional features in 13 ``excludes`` pairs,
# over the counting bound, 22 features that are mostly mandatory or in
# alternatives, and roots that sort first (``Aaa``) and last (``Zzz``)
# among their features' names.
FM_PROBES = [
    ("fm14.fm", workloads.feature_model_text(14, random.Random(14))[0]),
    ("fm15.fm", workloads.feature_model_text(15, random.Random(15))[0]),
    ("plant.fm",
     "family Plant {\n"
     + "".join(f"  mandatory M{i}\n" for i in range(5))
     + "  optional solar {\n    optional Panel\n    optional panel\n  }\n"
     + "".join(f"  optional O{i}\n" for i in (3, 10, 2, 1, 20, 7))
     + "  alternative {\n    Zeta {\n      mandatory a\n      optional b\n"
       "    },\n    alpha\n  }\n  requires O10 b\n  excludes panel O3\n}\n"),
    ("home.fm",
     "family Home {\n  optional Heating {\n    alternative { Gas, Heat_pump {"
     "\n      optional Boost\n    }, Wood }\n  }\n  optional Cooling\n}\n"),
    ("car.fm",
     "family Car {\n  alternative { Petrol, Diesel, Electric }\n"
     "  optional Tow\n  optional Charger\n  requires Charger Electric\n"
     "  requires Tow Diesel\n}\n"),
    ("alone.fm", "family Alone {\n}\n"),
    ("dead.fm",
     "family Dead {\n  mandatory A\n  mandatory B\n  excludes A B\n}\n"),
    ("true.fm", "family Root {\n  optional true\n}\n"),
    ("requires.fm",
     "family Root {\n  mandatory A\n  mandatory B\n  requires A B\n}\n"),
    ("member.fm",
     "family Shop {\n  optional Pay {\n    alternative { Card, Cash, Coupon }"
     "\n  }\n  optional Express\n"
     + "".join(f"  optional Extra{i}\n" for i in range(5))
     + "  excludes Express Cash\n}\n"),
    ("deep.fm",
     "family Deep {\n  optional A {\n    optional B {\n      optional C\n"
     "    }\n    mandatory D\n  }\n  optional E\n"
     + "".join(f"  optional Extra{i}\n" for i in range(5))
     + "  requires E C\n}\n"),
    ("pairs.fm",
     "family Pairs {\n" + "".join(f"  optional F{i}\n" for i in range(26))
     + "".join(f"  excludes F{i} F{i + 1}\n" for i in range(0, 26, 2))
     + "}\n"),
    ("wide22.fm",
     "family Grid22 {\n" + "".join(f"  mandatory M{i}\n" for i in range(10))
     + "  alternative { A0, A1 }\n  alternative { B0, B1, B2 }\n"
       "  optional O0 {\n    mandatory P\n    optional O1\n  }\n"
       "  optional O2\n  optional O3\n  optional O4\n"
       "  requires O2 B1\n  excludes A0 O3\n}\n"),
    ("first.fm",
     "family Aaa {\n" + "".join(f"  optional X{i}\n" for i in range(9))
     + "  alternative { Y0, Y1 }\n  excludes X0 Y1\n}\n"),
    ("last.fm",
     "family Zzz {\n" + "".join(f"  optional X{i}\n" for i in range(9))
     + "  mandatory Y {\n    optional Y0\n  }\n  requires X1 Y0\n}\n"),
]

# Actions that sort around each other and around the product state
# names.
NAMED_ACTIONS = ("A", "a", "a1", "b_2", "s10", "s2")

# (file name, family) of the ``mts products`` probes: optional
# transitions behind optional ones (and a must behind one), two choices
# that give one product visited in two orders, 21 reachable optional
# transitions, one over the derivation bound, a required chain of 12
# states with optional edges, whose products list ``s10`` and ``s11``
# before ``s2``, and a chain of 13 states labelled by NAMED_ACTIONS.
MTS_PROBES = [
    ("nested.mts",
     "mts Nested\nstates r a b c d e\ninit r\nmust c go r\n"
     "may r opt a\nmay r opt b\nmay a x c\nmay a x d\nmay b x c\n"
     "may c y e\nmay d y a\nmay e z r\nmay e z d\n"),
    ("same_shape.mts",
     "mts Same\nstates m x y b z\ninit m\nmust x a m\nmust x a b\n"
     "must y a m\nmust y a z\nmay m a x\nmay m a y\n"),
    ("over_bound.mts",
     "mts Wide\nstates r " + " ".join(f"t{i}" for i in range(21))
     + "\ninit r\n" + "".join(f"may r a t{i}\n" for i in range(21))),
    ("chain12.mts",
     "mts Chain12\nstates " + " ".join(f"q{i}" for i in range(12))
     + "\ninit q0\n" + "".join(f"must q{i} a q{i + 1}\n" for i in range(11))
     + "may q0 b q5\nmay q3 b q0\nmay q7 c q2\nmay q10 b q10\n"
       "may q11 a q1\n"),
    ("named.mts",
     "mts Named\nstates " + " ".join(f"q{i}" for i in range(13))
     + "\ninit q0\n"
     + "".join(f"must q{i} {NAMED_ACTIONS[i % 6]} q{i + 1}\n"
               for i in range(12))
     + "may q0 s2 q9\nmay q2 A q11\nmay q4 a1 q0\nmay q9 b_2 q3\n"
       "may q12 s10 q1\nmay q6 a q6\n"),
]

# (file name, text) of the transition-system reader probes: words apart
# by tabs and no-break spaces, lines ended by form feeds, ``--``
# comments, and a state declared on two ``states`` lines.
ODD_WHITESPACE = [
    ("odd.mts",
     "-- a family\fmts\tOdd  -- named\nstates\ts0 s1\xa0s2\f\n"
     "\tinit s0\t\nmust s0\ta\ts1 -- --\r\nmay\xa0s1 b s2\fmay s2 a s0\n"),
    ("odd.lts",
     "\n\tlts Odd\nstates s0\t\ts1 -- two\finit\xa0s0\ntrans s0 a s1\v"
     "trans\ts1 b s1\n"),
    ("twice.mts", "mts Twice\nstates s0 s1\nstates\ts2\fstates s1\n"
                  "init s0\n"),
]

# (file name, JSON or text) of the plans ``encode --plan`` reads for
# PAIR_FM: a good one, then malformed ones (not JSON, not an object, a
# field that is not an object, sites that are not strings or not Orc
# names, a trigger entry that is not a pair, a builtin trigger, a group
# id that is not an integer, one with an underscore, one padded with
# spaces, "0" next to "00", and, as raw JSON text, a group id and a
# feature each given twice in one object).
PAIR_FM = "family Root {\n  mandatory A\n  alternative { B, C }\n}\n"
_SITES = {"Root": "r", "A": "a", "B": "b", "C": "c"}
PLANS = [
    ("good.json", {"feature_to_site": _SITES,
                   "trigger_sites": {"0": ["p", "q"]}}),
    ("not_json.json", "{not json"),
    ("list.json", []),
    ("trigger_list.json", {"trigger_sites": []}),
    ("int_site.json", {"feature_to_site": dict(_SITES, A=5)}),
    ("list_site.json", {"feature_to_site": dict(_SITES, A=["x"])}),
    ("spaced_site.json", {"feature_to_site": dict(_SITES, A="a b"),
                          "trigger_sites": {"0": ["p", "q"]}}),
    ("one_trigger.json", {"feature_to_site": _SITES,
                          "trigger_sites": {"0": ["p"]}}),
    ("builtin_trigger.json", {"feature_to_site": _SITES,
                              "trigger_sites": {"0": ["p", "let"]}}),
    ("word_gid.json", {"feature_to_site": _SITES,
                       "trigger_sites": {"x": ["p", "q"]}}),
    ("underscore_gid.json", {"feature_to_site": _SITES,
                             "trigger_sites": {"0_0": ["p", "q"]}}),
    ("spaced_gid.json", {"feature_to_site": _SITES,
                         "trigger_sites": {" 0 ": ["p", "q"]}}),
    ("gid_twice.json", {"feature_to_site": _SITES,
                        "trigger_sites": {"0": ["p", "q"],
                                          "00": ["r", "s"]}}),
    ("repeated_gid.json",
     '{"feature_to_site": {"Root": "r", "A": "a", "B": "b", "C": "c"}, '
     '"trigger_sites": {"0": ["p", "q"], "0": ["a", "b"]}}'),
    ("repeated_site.json",
     '{"feature_to_site": {"Root": "r", "A": "a", "A": "x", "B": "b", '
     '"C": "c"}, "trigger_sites": {"0": ["p", "q"]}}'),
]

# The command paths whose ``--help`` screens are compared: the top
# level, each command group and every command.
HELP_PATHS = ["", "orc", "fm", "mts", "orc run", "orc explore",
              "fm validate", "fm products", "fm count", "mts check",
              "mts products", "mts dot", "encode", "fixtures"]

# Fan-outs as (name, program of n branches): orc run takes them at
# width 64, orc explore at width 3.
FANOUTS = [("fanout", lambda n: workloads.fanout_program(n, random.Random(n))),
           ("mixed", mixed_fanout)]

# The command that reads a diagnostic-table source of each format.
DIAGNOSTIC_COMMANDS = {"orc": ["orc", "explore"], "fm": ["fm", "count"],
                       "mts": ["mts", "products"], "lts": ["mts", "dot"]}


def fixture_commands(workdir: str) -> list:
    def fx(name):
        return os.path.join(FIXTURES, name)

    with open(fx("drh_product.lts")) as handle:
        chain = handle.read()
    variants = {"missing_must": chain.replace("trans s2 Sell s3\n", ""),
                "extra": chain + "trans s0 Sell s4\n",
                "alien": chain + "trans s0 Dance s1\n"}
    products = [fx("drh_product.lts")]
    for name, text in variants.items():
        products.append(os.path.join(workdir, f"{name}.lts"))
        with open(products[-1], "w") as handle:
            handle.write(text)
    # The fixture product saved as .txt, read by its header.
    products.append(os.path.join(workdir, "product.txt"))
    with open(products[-1], "w") as handle:
        handle.write(chain)
    commands = [["mts", "check", fx("drh_family.mts"), p] for p in products]
    commands += [["mts", "products", fx("drh_family.mts")],
                 ["mts", "dot", fx("drh_family.mts")],
                 ["mts", "dot", fx("drh_product.lts")],
                 ["mts", "dot", products[-1]],
                 ["fixtures", "list"], ["fixtures", "show", "dr.orc"]]
    for name, text in ODD_WHITESPACE:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        commands.append(["mts", "dot", path])
    commands += [["mts", "products", os.path.join(workdir, "odd.mts")],
                 ["mts", "check", os.path.join(workdir, "odd.mts"),
                  os.path.join(workdir, "odd.lts")]]
    # The full graph of a 6-let ladder (4,096 states), written once
    # with this checkout, and the same graph as an all-must family.
    ladder = os.path.join(workdir, "ladder6.orc")
    with open(ladder, "w") as handle:
        handle.write(" | ".join(f"let({i})" for i in range(6)) + "\n")
    graph = os.path.join(workdir, "ladder6.lts")
    run(ROOT, ["orc", "explore", ladder, "--format", "lts", "--out", graph],
        workdir, [])
    with open(graph) as handle:
        text = handle.read()
    with open(os.path.join(workdir, "ladder6.mts"), "w") as handle:
        handle.write("mts" + text[3:].replace("\ntrans ", "\nmust "))
    commands += [["mts", "dot", graph],
                 ["mts", "check", os.path.join(workdir, "ladder6.mts"),
                  graph]]
    fms = [fx("smartgrid.fm"), fx("no_renewables.fm")]
    commands.append(["fm", "validate", fx("smartgrid.fm"), "--select",
                     "SmartGrid,DemandResponse"])
    for name, text in (FM_PROBES + PLANS + MTS_PROBES
                       + [("pair.fm", PAIR_FM)]):
        path = os.path.join(workdir, name)
        with open(path, "w") as handle:
            handle.write(text if isinstance(text, str) else json.dumps(text))
        if name.endswith(".fm"):
            fms.append(path)
        elif name.endswith(".mts"):
            commands.append(["mts", "products", path])
    for path in fms:
        commands += [["fm", "products", path], ["fm", "count", path],
                     ["encode", path]]
    commands += [["encode", os.path.join(workdir, "pair.fm"), "--plan",
                  os.path.join(workdir, name)] for name, _ in PLANS]
    programs = [(fx(name), []) for name in sorted(os.listdir(FIXTURES))
                if name.endswith(".orc")]
    for name, text, flags in PROBES:
        programs.append((os.path.join(workdir, name), flags))
        with open(programs[-1][0], "w") as handle:
            handle.write(text)
    for path, flags in programs:
        explore_flags = flags + EXPLORE_FLAGS.get(os.path.basename(path), [])
        commands += [["orc", "explore", path, "--format", fmt] + explore_flags
                     for fmt in ("text", "json", "lts", "dot")]
        commands.append(["orc", "run", path] + flags)
        commands += [["orc", "run", path, "--seed", str(seed)] + flags
                     for seed in (1, 4, 7)]
    for name, make in FANOUTS:
        wide, narrow = (os.path.join(workdir, f"{name}{n}.orc")
                        for n in (64, 3))
        for path, n in ((wide, 64), (narrow, 3)):
            with open(path, "w") as handle:
                handle.write(make(n))
        commands.append(["orc", "run", wide])
        commands += [["orc", "run", wide, "--seed", str(seed)]
                     for seed in (1, 4, 7)]
        commands += [["orc", "explore", narrow, "--format", fmt]
                     for fmt in ("json", "lts")]
    commands += [["orc", "explore", fx("loop.orc"), "--max-depth", "3",
                  "--format", fmt] for fmt in ("text", "json")]
    commands += [["orc", "explore", fx("mutex.orc"), "--max-states", "10"],
                 ["orc", "run", fx("loop.orc"), "--max-steps", "5",
                  "--max-depth", "1000"],
                 ["orc", "explore", fx("par.orc"), "--max-states", "-1"],
                 ["orc", "run", fx("par.orc"), "--max-states", "5"],
                 ["orc", "explore", fx("par.orc"), "--max-steps", "5"],
                 ["orc", "frobnicate"],
                 ["fm", "count", fx("smartgrid.fm"), "--out",
                  os.path.join(workdir, "missing", "x")],
                 ["fm", "validate", fx("smartgrid.fm"), "--select",
                  "SmartGrid,Nope"],
                 ["fixtures", "export", os.path.join(workdir, "exported")]]
    readers = dict(DIAGNOSTIC_COMMANDS,
                   json=["encode", fx("smartgrid.fm"), "--plan"])
    for fmt, data in diagnostic_cases.NOT_UTF8:
        path = os.path.join(workdir, f"not_utf8.{fmt}")
        with open(path, "wb") as handle:
            handle.write(data)
        commands.append(readers[fmt] + [path])
    for i, (fmt, src, _) in enumerate(diagnostic_cases.CASES):
        path = os.path.join(workdir, f"diagnostic{i}.{fmt}")
        with open(path, "w") as handle:
            handle.write(src)
        commands.append(DIAGNOSTIC_COMMANDS[fmt] + [path])
    return commands


def with_json(commands: list) -> list:
    out = []
    for argv in commands:
        out.append(argv)
        if argv[:2] in (["mts", "check"], ["mts", "products"],
                        ["fm", "products"], ["fm", "validate"]):
            out.append(argv + ["--format", "json"])
    return out


def run(checkout: str, argv: list, workdir: str, ignore: list) -> tuple:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    done = subprocess.run([sys.executable, "-m", "orcline"] + argv,
                          capture_output=True, text=True, cwd=workdir,
                          env=env)
    out, err = done.stdout, done.stderr
    if ignore:
        keys = "|".join(map(re.escape, ignore))
        err = re.sub(rf"\d+ (?=({keys})\b)", "N ", err)
        try:
            data = json.loads(out)
        except json.JSONDecodeError:   # text, or one JSON object per line
            data = None
        if isinstance(data, dict):
            for key in ignore:
                data.pop(key, None)
            out = json.dumps(data, sort_keys=True, indent=2) + "\n"
        else:
            counts = re.compile(rf"({keys}) \d+\n")
            out = "".join(line for line in out.splitlines(keepends=True)
                          if not counts.fullmatch(line))
    return done.returncode, out, err


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--ignore-key", action="append", default=[])
    args = parser.parse_args()
    other = os.path.abspath(args.other)
    with tempfile.TemporaryDirectory() as workdir:
        commands = fixture_commands(workdir)
        for seed in args.seeds:
            for name in ("product-line", "orc"):
                seed_dir = os.path.join(workdir, f"{name}{seed}")
                os.mkdir(seed_dir)
                for job in workloads.build(name, seed, seed_dir).jobs:
                    if job.out is not None:
                        run(ROOT, job.argv + ["--out", job.out], workdir,
                            [])
                    if job.argv not in commands:
                        commands.append(job.argv)
        commands = with_json(commands) + [path.split() + ["--help"]
                                          for path in HELP_PATHS]
        differ = 0
        for argv in commands:
            if run(ROOT, argv, workdir, args.ignore_key) != \
                    run(other, argv, workdir, args.ignore_key):
                differ += 1
                print("DIFFERS:", " ".join(argv))
    print(f"{len(commands)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
