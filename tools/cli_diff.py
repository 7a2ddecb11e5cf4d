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
variants of the fixture product, ``mts dot`` on the fixture product,
``fixtures list`` and ``fixtures show``, ``fm products`` (text and
json), ``fm count`` and ``encode`` on the bundled and on generated
feature models (the benchmark's 14- and 15-feature families, one of 19
features, an alternative group under an optional feature,
``requires`` into group members, a lone root, ``excludes`` between two
mandatory features and a feature named ``true``), ``encode --plan``
with a good plan and with malformed ones, and ``orc explore`` in
all four formats and ``orc run`` with and without ``--seed`` on every
``.orc`` fixture and on probes of quiescence (a call waiting for a
variable, a definition at the depth bound, a pending timer, a call on a
variable that nothing binds), of a label holding ``--`` and of ``|``
nested on either side of another ``|``, ``orc run`` with and without
``--seed`` on two 64-branch fan-outs (the benchmark's ``S_i() >x>
let(x)`` and one mixing ``>x>``, ``<x<`` and
``;``) and ``orc explore --format json|lts`` on their 3-branch
versions, every source of the parser's diagnostic table
(``tests/diagnostic_cases.py``: Orc through ``orc explore``, feature
models through ``fm count``, ``.mts`` through ``mts products`` and
``.lts`` through ``mts dot``), and the error paths: ``orc explore`` cut
by ``--max-depth``
(text and json) and by ``--max-states``, ``orc run`` cut by
``--max-steps``, a negative bound, an unknown subcommand and ``--out``
into a missing directory.  A job that writes a file another job reads
(``encode`` for the orc workload) writes it once, with this checkout,
before the comparison.
``--ignore-key K`` drops top-level key K from JSON stdout, and every
line ``K <number>`` from other stdout, before comparing.  Exits 1 when
anything differs.
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

# (file name, program, extra flags) of the quiescence, label and nesting
# probes.
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
]


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
# feature, ``requires`` into group members, a lone root, and
# ``excludes`` between two mandatory features (no products).
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
]

# (file name, JSON or text) of the plans ``encode --plan`` reads for
# PAIR_FM: a good one, then malformed ones (not JSON, not an object, a
# field that is not an object, sites that are not strings or not Orc
# names, a trigger entry that is not a pair, a builtin trigger).
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
]

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
    commands = [["mts", "check", fx("drh_family.mts"), p] for p in products]
    commands += [["mts", "products", fx("drh_family.mts")],
                 ["mts", "dot", fx("drh_family.mts")],
                 ["mts", "dot", fx("drh_product.lts")],
                 ["fixtures", "list"], ["fixtures", "show", "dr.orc"]]
    fms = [fx("smartgrid.fm"), fx("no_renewables.fm")]
    commands.append(["fm", "validate", fx("smartgrid.fm"), "--select",
                     "SmartGrid,DemandResponse"])
    for name, text in FM_PROBES + PLANS + [("pair.fm", PAIR_FM)]:
        path = os.path.join(workdir, name)
        with open(path, "w") as handle:
            handle.write(text if isinstance(text, str) else json.dumps(text))
        if name.endswith(".fm"):
            fms.append(path)
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
        commands += [["orc", "explore", path, "--format", fmt] + flags
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
                 ["orc", "frobnicate"],
                 ["fm", "count", fx("smartgrid.fm"), "--out",
                  os.path.join(workdir, "missing", "x")]]
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
    out = done.stdout
    if ignore:
        try:
            data = json.loads(out)
        except json.JSONDecodeError:   # text, or one JSON object per line
            data = None
        if isinstance(data, dict):
            for key in ignore:
                data.pop(key, None)
            out = json.dumps(data, sort_keys=True, indent=2) + "\n"
        else:
            counts = re.compile(f"({'|'.join(map(re.escape, ignore))}) "
                                r"\d+\n")
            out = "".join(line for line in out.splitlines(keepends=True)
                          if not counts.fullmatch(line))
    return done.returncode, out, done.stderr


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
        commands = with_json(commands)
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
