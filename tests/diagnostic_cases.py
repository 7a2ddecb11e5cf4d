"""Every parser diagnostic, pinned: rows of (format, source, lines).

``format`` names the reader: ``orc`` (``parse_program_with_diagnostics``),
``fm``, ``mts`` or ``lts`` (``parse_feature_model``, ``parse_mts``,
``parse_lts``, which raise ``ParseError``).  ``lines`` are the exact
``format_diagnostic`` lines, in order, for the default file name
``<input>``; an empty list means the source is accepted without a
diagnostic.  ``tests/test_orc_parser.py`` checks the library against
the table and ``tools/cli_diff.py`` feeds every row to the command line.
"""

CASES = [
    # Orc: the lexer
    ("orc", "let(1) $\n",
     ["<input>:1:8: error: unexpected character '$'"]),
    ("orc", 'let("\\q")\n',
     ["<input>:1:5: error: invalid string escape"]),
    # Orc: expressions
    ("orc", "let(1) )\n",
     ["<input>:1:8: error: unexpected ')' after expression"]),
    ("orc", "0(1, 2) | let(1)\n",
     ["<input>:1:3: error: the halt site 0 takes no arguments"]),
    ("orc", "delay\n",
     ["<input>:1:1: error: 'delay' is a reserved word"]),
    ("orc", "let(silent)\n",
     ["<input>:1:5: error: 'silent' is reserved and cannot be an argument"]),
    ("orc", "let(1) |\n",
     ["<input>:2:1: error: expected an expression, found 'end of input'"]),
    ("orc", "| let(1)\n",
     ["<input>:1:1: error: expected an expression, found '|'"]),
    ("orc", "let(1) >def> let(2)\n",
     ["<input>:1:9: error: 'def' is reserved and cannot be a binder name"]),
    ("orc", "let(1) <x let(2)\n",
     ["<input>:1:11: error: expected '<' closing the binder, found 'let'"]),
    ("orc", "(let(1)\n",
     ["<input>:2:1: error: expected ')', found 'end of input'"]),
    ("orc", "true\n",
     ["<input>:1:1: error: the literal 'true' is not an expression; "
      "write let(true)"]),
    ("orc", "5 | let(1)\n",
     ["<input>:1:1: error: a bare number is not an expression; "
      "write let(5) to publish it"]),
    ("orc", '"text"\n',
     ["<input>:1:1: error: a bare string is not an expression; "
      "write let(...) to publish it"]),
    ("orc", "M(N())\n",
     ["<input>:1:3: error: site calls cannot be nested in argument "
      "position; bind the inner call with >x> or <x<"]),
    ("orc", "M(1, )\n",
     ["<input>:1:6: error: expected an argument, found ')'"]),
    ("orc", "let(x)\n",
     ["<input>:1:5: warning: variable 'x' is never bound; calls using it "
      "will block forever"]),
    # Orc: site declarations
    ("orc", "site S delay -1\nS()\n",
     ["<input>:1:14: error: delay cannot be negative"]),
    ("orc", "site S silent now\nS()\n",
     ["<input>:1:15: error: unexpected 'now' in site declaration"]),
    ("orc", "site site silent\nlet(1)\n",
     ["<input>:1:6: error: 'site' is reserved and cannot name a site"]),
    ("orc", "site M silent\nsite M silent\nlet(1)\n",
     ["<input>:2:6: error: site 'M' is declared twice"]),
    ("orc", "site S delay\nS()\n",
     ["<input>:1:13: error: expected a delay in ticks, "
      "found 'end of input'"]),
    ("orc", "site S responds\nS()\n",
     ["<input>:1:16: error: expected a literal value, found 'end of input'"]),
    ("orc", "site\nlet(1)\n",
     ["<input>:1:5: error: expected a site name, found 'end of input'"]),
    # Orc: definitions
    ("orc", "def F(site) = let(1)\nF(1)\n",
     ["<input>:1:7: error: 'site' is reserved and cannot be a parameter"]),
    ("orc", "def F(x, x) = let(x)\nF(1, 2)\n",
     ["<input>:1:10: error: duplicate parameter 'x'"]),
    ("orc", "def def() = let(1)\ndef()\n",
     ["<input>:1:5: error: 'def' is reserved and cannot name a definition",
      "<input>:2:4: error: expected a definition name, found '('",
      "<input>:3:1: error: a program needs a goal expression"]),
    ("orc", "def F() = let(1)\ndef F() = let(2)\nF()\n",
     ["<input>:2:5: error: definition 'F' is declared twice"]),
    ("orc", "def F = let(1)\nF()\n",
     ["<input>:1:7: error: expected '(' starting the parameter list, "
      "found '='"]),
    ("orc", "def F() let(1)\nF()\n",
     ["<input>:1:9: error: expected '=' before the definition body, "
      "found 'let'"]),
    ("orc", "def F(x) =\nF(1)\n",
     ["<input>:1:11: error: expected an expression, found 'end of input'"]),
    # Orc: the program
    ("orc", "site F silent\ndef F() = let(1)\nF()\n",
     ["<input>:1:1: error: 'F' is both a declared site and a definition"]),
    ("orc", "def F(x) = let(x)\nF(1, 2)\n",
     ["<input>:2:1: error: definition 'F' takes 1 argument(s), "
      "called with 2"]),
    ("orc", "def F() = let(1)\n",
     ["<input>:2:1: error: a program needs a goal expression"]),
    ("orc", "site S silent\n",
     ["<input>:2:1: error: a program needs a goal expression"]),
    # Orc: a newline inside parentheses continues a declaration, and a
    # declaration that fails is skipped to its end
    ("orc", "def F(x,\n      y) = let(x) | let(y)\nF(1,\n  2)\n", []),
    ("orc", "def F( = let(1)\nsite S silent\nS()\n",
     ["<input>:1:8: error: expected a parameter name, found '='",
      "<input>:4:1: error: a program needs a goal expression"]),
    ("orc", "def F() = let(1))\nsite S delay 2\nF() | S()\n",
     ["<input>:1:17: error: unexpected ')' after expression"]),
    ("orc", "def F() = let(1) let(2)\nsite S delay x\n"
            "site T responds 1, def\nF()\n",
     ["<input>:1:18: error: unexpected 'let' after expression",
      "<input>:2:14: error: expected a delay in ticks, found 'x'",
      "<input>:3:20: error: expected a literal value, found 'def'"]),
    # feature models
    ("fm", "fam F { }",
     ["<input>:1:1: error: expected 'family', found 'fam'"]),
    ("fm", "{ }",
     ["<input>:1:1: error: expected 'family', found '{'"]),
    ("fm", "family F { family G { } }",
     ["<input>:1:12: error: unexpected 'family' here"]),
    ("fm", "family F { } x",
     ["<input>:1:14: error: unexpected 'x' after the family block"]),
    ("fm", "family F { mandatory optional }",
     ["<input>:1:22: error: 'optional' is a keyword and cannot be a "
      "feature name"]),
    ("fm", "family F { optional }",
     ["<input>:1:21: error: expected a feature name, found '}'"]),
    ("fm", "family F { mandatory A optional A }",
     ["<input>:1:33: error: duplicate feature 'A'"]),
    ("fm", "family F { mandatory A requires A Ghost }",
     ["<input>:1:1: error: constraint references unknown feature Ghost"]),
    ("fm", "family F { mandatory A { optional B }",
     ["<input>:1:38: error: expected '}' closing the family block, "
      "found 'end of input'"]),
    # feature models: alternative groups
    ("fm", "family F { alternative { X } }",
     ["<input>:1:12: error: an alternative group needs at least two "
      "members"]),
    ("fm", "family F { alternative { X { mandatory A }, Y",
     ["<input>:1:46: error: expected '}' closing the alternative group, "
      "found 'end of input'"]),
    # A member's block is read in place, so the first error in a group
    # ends the parse where it occurs.
    ("fm", "family F { alternative { X { mandatory A }, X } }",
     ["<input>:1:45: error: duplicate feature 'X'"]),
    ("fm", "family F { alternative { X { optional Y }, Y } }",
     ["<input>:1:44: error: duplicate feature 'Y'"]),
    ("fm", "family F { alternative { X { mandatory A junk }, Y } }",
     ["<input>:1:42: error: expected '}' closing the block of member 'X', "
      "found 'junk'"]),
    ("fm", "family F { alternative { X { mandatory A , Y } }",
     ["<input>:1:42: error: expected '}' closing the block of member 'X', "
      "found ','"]),
    ("fm", "family F { alternative { X { mandatory A",
     ["<input>:1:41: error: expected '}' closing the block of member 'X', "
      "found 'end of input'"]),
    # transition systems
    ("mts", "states s0\ninit s0\n",
     ["<input>:1:1: error: expected header 'mts NAME' on the first line"]),
    ("mts", "mts M\nstates s0 s0\ninit s0\n",
     ["<input>:2:11: error: state 's0' declared twice"]),
    ("mts", "mts M\nstates s0\ninit s0\ninit s0\n",
     ["<input>:4:1: error: init state declared twice"]),
    ("mts", "mts M\nstates s0\ninit s1\n",
     ["<input>:3:6: error: init state 's1' is not declared"]),
    ("mts", "mts M\nstates s0\ninit\n",
     ["<input>:3:1: error: expected 'init STATE'",
      "<input>:1:1: error: missing init state"]),
    ("mts", "mts M\nstates s0 s1\nmust s0 a s1\n",
     ["<input>:1:1: error: missing init state"]),
    ("mts", "mts M\nstates s0\ninit s0\nmust s0 a s9\n",
     ["<input>:4:11: error: state 's9' is not declared"]),
    ("mts", "mts M\nstates s0\ninit s0\nfoo s0\n",
     ["<input>:4:1: error: unknown directive 'foo'"]),
    ("lts", "lts L\nstates s0\ninit s0\ntrans s0 a\n",
     ["<input>:4:1: error: expected 'trans SRC ACTION DST'"]),
    ("lts", "lts L\nstates s0\ninit s0\nmust s0 a s0\n",
     ["<input>:4:1: error: unknown directive 'must'"]),
]
