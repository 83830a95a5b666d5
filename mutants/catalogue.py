"""The seeded mutants of src/punctual and the tests expected to kill them.

Each entry of MUTANTS names a mutant and gives the src file it edits, an
exact snippet of that file (occurring once), the snippet that replaces it,
and the pytest node ids of the tests that must fail with it in place.
`python3 mutants/run.py` applies one entry at a time to a temporary copy of
the repository and runs only its tests.  tests/test_mutant_catalogue.py
reads this file with ast, never importing it, and fails when an old snippet
no longer occurs in src: whoever moves that code updates the entry.

A mutant that its tests do not kill stays listed, with the reason in its
"why"; an entry is never deleted to make the table green.
"""

MUTANTS = [
    {
        "name": "linear-keeps-zero-sums",
        "why": "_linear is the one place that drops a coefficient summing "
               "to 0; without it x - x and 0 * x store zero terms (22 "
               "tests kill it, three listed)",
        "file": "src/punctual/hopf.py",
        "old": "    fracs = {c: Fraction(c, den) for c in set(acc.values()) "
               "if c}\n"
               "    return {k: fracs[c] for k, c in acc.items() if c}\n",
        "new": "    fracs = {c: Fraction(c, den) for c in set(acc.values())}\n"
               "    return {k: fracs[c] for k, c in acc.items()}\n",
        "tests": [
            "tests/test_hopf.py::"
            "test_zero_sums_and_zero_scalars_store_no_term",
            "tests/test_hopf.py::"
            "test_constructors_cancel_one_monomial_in_two_factor_orders",
            "tests/test_hopf_properties.py::test_every_operation_stores_"
            "nonzero_fractions_under_canonical_keys",
        ],
    },
    {
        "name": "layer-first-row-cap-8",
        "why": "rows of multiplicity 9 and more drop out of every "
               "composition layer; the enumerating oracles stop at n = 8, "
               "so only these three point evaluations at n = 10 see it",
        "file": "src/punctual/hopf.py",
        "old": "        for n1 in range(1, n - k + 2):\n",
        "new": "        for n1 in range(1, min(n - k + 2, 9)):\n",
        "tests": [
            "tests/test_point_eval.py::"
            "test_structure_maps_at_a_point[to_p-q10,44]",
            "tests/test_point_eval.py::"
            "test_structure_maps_at_a_point[to_q-q10,44]",
            "tests/test_point_eval.py::"
            "test_structure_maps_at_a_point[antipode-q10,44]",
        ],
    },
    {
        "name": "vertical-classes-stop-at-order-9",
        "why": "no child is built past V_9, so [Z_n] for n >= 10 loses "
               "every monomial; only these two point evaluations at order "
               "12 see it",
        "file": "src/punctual/hopf.py",
        "old": "enumerate(range(n + j, n_max + 1, j), 1)]\n",
        "new": "enumerate(range(n + j, min(n_max, 9) + 1, j), 1)]\n",
        "tests": [
            "tests/test_point_eval.py::test_vertical_classes_at_a_point[sep]",
            "tests/test_point_eval.py::"
            "test_vertical_classes_at_a_point[nonsep]",
        ],
    },
    {
        "name": "generator-coproduct-without-class-count",
        "why": "each canonical splitting class counts once instead of w "
               "times; six tests kill it",
        "file": "src/punctual/hopf.py",
        "old": "                out.append((left, right, w))\n",
        "new": "                out.append((left, right, 1))\n",
        "tests": [
            "tests/test_hopf.py::"
            "test_monomial_coproducts_match_the_splitting_oracle",
            "tests/test_point_eval.py::test_coproduct_at_two_points[q10,44]",
            "tests/test_point_eval.py::test_coproduct_at_two_points[q8,332]",
            "tests/test_acceptance.py::test_criterion_1_hopf_axioms",
            "tests/test_acceptance.py::test_criterion_10_nonsep_pushforward",
            "tests/test_cli_golden.py::test_cli_outputs_match_golden_digests",
        ],
    },
    {
        "name": "parse-keeps-first-repeated-flag",
        "why": "a repeated flag keeps its first value that is not the "
               "default, where argparse keeps the last; the golden corpus "
               "and the golden-argv gate do not see it, only one "
               "hand-picked argv and the drawn argv do",
        "file": "src/punctual/cli.py",
        "old": "            args[dest[flag]] = value\n",
        "new": "            if args[dest[flag]] == kw.get(\"default\"):\n"
               "                args[dest[flag]] = value\n",
        "tests": [
            "tests/test_cli.py::test_parse_agrees_with_argparse",
            "tests/test_cli.py::test_parse_agrees_with_argparse_on_drawn_argv",
        ],
    },
]
