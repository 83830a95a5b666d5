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
        "why": "_reduced is the one place that drops a numerator summing "
               "to 0; without it x - x and 0 * x store zero terms (26 "
               "tests kill it, three listed)",
        "file": "src/punctual/hopf.py",
        "old": "    nums = acc if all(acc.values()) else {k: c for k, c in "
               "acc.items() if c}\n",
        "new": "    nums = acc\n",
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
        "name": "reduced-skips-gcd",
        "why": "_reduced keeps den and the numerators unreduced, so the "
               "stored form is not canonical and equal elements built by "
               "different routes compare unequal (19 tests kill it, four "
               "listed)",
        "file": "src/punctual/hopf.py",
        "old": "    g = gcd(den, *nums.values())\n",
        "new": "    g = 1\n",
        "tests": [
            "tests/test_hopf_properties.py::test_equal_elements_built_by_"
            "different_routes_compare_equal",
            "tests/test_hopf_properties.py::test_every_operation_stores_"
            "nonzero_fractions_under_canonical_keys",
            "tests/test_hopf.py::"
            "test_terms_is_a_read_only_view_of_the_integer_form",
            "tests/test_hopf.py::test_element_serialization_roundtrip",
        ],
    },
    {
        "name": "pretty-skips-gcd",
        "why": "the printers write each numerator over the element's one "
               "denominator without reducing it, so 1/2 + 1/3 prints as "
               "3/6 and 2/6, in text and JSON; only the four printer "
               "tests see it",
        "file": "src/punctual/hopf.py",
        "old": "        g = gcd(c, den)\n",
        "new": "        g = 1\n",
        "tests": [
            "tests/test_hopf.py::test_pretty",
            "tests/test_hopf_properties.py::"
            "test_printers_match_the_reference_printers",
            "tests/test_hopf_properties.py::"
            "test_printers_match_the_reference_printers_on_large_outputs",
            "tests/test_cli_golden.py::test_cli_outputs_match_golden_digests",
        ],
    },
    {
        "name": "layer-first-row-cap-8",
        "why": "rows of multiplicity 9 and more drop out of every "
               "composition layer (each distribution of n over a column "
               "tuple whose largest multiplicity exceeds 8); the "
               "enumerating oracles stop at n = 8, so only these three "
               "point evaluations at n = 10 see it",
        "file": "src/punctual/hopf.py",
        "old": "                                              "
               "dict.fromkeys(cols))))}\n",
        "new": "                                              "
               "dict.fromkeys(cols)))) if max(ns) <= 8}\n",
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
        "name": "columns-drops-class-weight",
        "why": "each canonical splitting class of the column table counts "
               "once instead of w times, so every layer and sep image with "
               "two or more columns is miscounted; 32 test cases in 12 "
               "test functions kill it, one case of each listed",
        "file": "src/punctual/hopf.py",
        "old": "            acc[cols] = acc.get(cols, 0) + w * c\n",
        "new": "            acc[cols] = acc.get(cols, 0) + c\n",
        "tests": [
            "tests/test_acceptance.py::test_criterion_1_hopf_axioms",
            "tests/test_acceptance.py::test_criterion_10_nonsep_pushforward",
            "tests/test_cli_golden.py::test_cli_outputs_match_golden_digests",
            "tests/test_hopf.py::test_p2_11_in_q_basis_d2",
            "tests/test_hopf.py::test_generator_expansions_match_the_"
            "composition_oracle[q_in_p]",
            "tests/test_hopf.py::"
            "test_column_tables_match_the_splitting_oracle",
            "tests/test_hopf.py::"
            "test_structure_maps_leave_the_cached_tables_as_computed",
            "tests/test_hopf.py::test_sep_generator_images_match_the_oracle",
            "tests/test_hopf_properties.py::"
            "test_structure_maps_match_the_fraction_oracles[to_q]",
            "tests/test_point_eval.py::"
            "test_structure_maps_at_a_point[to_p-q8,332]",
            "tests/test_point_eval.py::test_sep_to_nonsep_at_a_point[q8,332]",
            "tests/test_sympy_oracles.py::"
            "test_hopf_structure_maps_match_sympy[3-2-2-sep_gen_image]",
        ],
    },
    {
        "name": "intern-shares-an-id",
        "why": "every second generator met is given its predecessor's id, "
               "so two generators share one and decode to the first of "
               "them; nearly every Hopf test kills it, four listed",
        "file": "src/punctual/hopf.py",
        "old": "        i = self[g] = len(_GENS)\n",
        "new": "        i = self[g] = len(_GENS) // 2 * 2\n",
        "tests": [
            "tests/test_hopf.py::"
            "test_each_generator_keeps_one_id_that_decodes_back_to_it",
            "tests/test_hopf.py::test_generator_expansions_match_the_"
            "composition_oracle[q_in_p]",
            "tests/test_hopf_properties.py::test_maps_of_drawn_products_"
            "match_the_nested_references[sep-q]",
            "tests/test_cli_golden.py::test_cli_outputs_match_golden_digests",
        ],
    },
    {
        "name": "decode-keeps-id-order",
        "why": "a decoded monomial keeps its factors in id order, so terms, "
               "grade and the JSON writers show them in the order they "
               "were first met wherever that is not nested order; the "
               "printed text, sorted per id, does not see it",
        "file": "src/punctual/hopf.py",
        "old": "    return tuple(sorted(map(_GENS.__getitem__, mon)))\n",
        "new": "    return tuple(map(_GENS.__getitem__, mon))\n",
        "tests": [
            "tests/test_hopf.py::"
            "test_terms_decode_to_nested_order_against_the_id_order",
            "tests/test_hopf_properties.py::test_maps_of_drawn_products_"
            "match_the_nested_references[sep-q]",
            "tests/test_cli_golden.py::test_cli_outputs_match_golden_digests",
        ],
    },
    {
        "name": "nonsep-interned-bare",
        "why": "the constructor interns a nonsep q_lam as lam, not as its "
               "row (1, lam), so it no longer shares the sep q_{1,lam}'s "
               "id, its ids differ from those sep_to_nonsep and "
               "vertical_element intern, and every reader of a row "
               "misreads it",
        "file": "src/punctual/hopf.py",
        "old": "        return _ids(self._rows(mon))\n",
        "new": "        return _ids(r if self.variant == \"sep\" else r[1] "
               "for r in self._rows(mon))\n",
        "tests": [
            "tests/test_hopf.py::"
            "test_a_sep_q_1_lam_and_a_nonsep_q_lam_share_one_id",
            "tests/test_hopf_properties.py::test_maps_of_drawn_products_"
            "match_the_nested_references[nonsep-q]",
            "tests/test_hopf.py::test_vertical_element_nonsep",
        ],
    },
    {
        "name": "nonsep-decoded-as-rows",
        "why": "_decoded hands nonsep rows (1, lam) back as they are "
               "stored, so nonsep terms and tensor terms are keyed by rows "
               "instead of lam; the writers read ids, so only the tests "
               "that read terms see it (20 tests, three listed)",
        "file": "src/punctual/hopf.py",
        "old": "        return rows if self.variant == \"sep\" else "
               "tuple(m for _, m in rows)\n",
        "new": "        return rows\n",
        "tests": [
            "tests/test_hopf.py::"
            "test_a_sep_q_1_lam_and_a_nonsep_q_lam_share_one_id",
            "tests/test_hopf.py::"
            "test_sep_generator_images_match_the_oracle",
            "tests/test_hopf_properties.py::test_maps_of_drawn_products_"
            "match_the_nested_references[nonsep-q]",
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
               "times in the generator's coproduct map; eight tests kill "
               "it, six listed",
        "file": "src/punctual/hopf.py",
        "old": "                out[_ids(left), _ids(right)] = w\n",
        "new": "                out[_ids(left), _ids(right)] = 1\n",
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
    {
        "name": "m-to-e-conjugate-over-length",
        "why": "the conjugate of lam is counted over len(lam) instead of "
               "lam[0] positions, so e_lam' is the wrong elementary product "
               "(29 tests kill it, five listed)",
        "file": "src/punctual/symfunc.py",
        "old": "        conj = tuple(sum(part > i for part in lam) "
               "for i in range(lam[0]))\n",
        "new": "        conj = tuple(sum(part > i for part in lam) "
               "for i in range(len(lam)))\n",
        "tests": [
            "tests/test_symfunc.py::test_frozen_tables_d3",
            "tests/test_symfunc.py::test_transition_by_random_evaluation",
            "tests/test_symfunc.py::test_class_numbers_round_trip",
            "tests/test_sympy_oracles.py::"
            "test_monomial_to_elementary_matches_sympy",
            "tests/test_cli_golden.py::test_cli_outputs_match_golden_digests",
        ],
    },
    {
        "name": "m-to-e-adds-lower-rows",
        "why": "the back-substitution adds the rows of the m_nu below lam "
               "instead of subtracting them (26 tests kill it, five listed)",
        "file": "src/punctual/symfunc.py",
        "old": "                row[mu] = row.get(mu, 0) - c * x\n",
        "new": "                row[mu] = row.get(mu, 0) + c * x\n",
        "tests": [
            "tests/test_symfunc.py::test_frozen_tables_d3",
            "tests/test_symfunc.py::test_transition_by_random_evaluation",
            "tests/test_symfunc.py::test_class_numbers_round_trip",
            "tests/test_sympy_oracles.py::"
            "test_monomial_to_elementary_matches_sympy",
            "tests/test_cli_golden.py::test_cli_outputs_match_golden_digests",
        ],
    },
    {
        "name": "m-to-e-walks-forward",
        "why": "walking partitions_of forwards, no m_nu below lam is known "
               "yet, so every row is e_lam' alone (26 tests kill it, five "
               "listed)",
        "file": "src/punctual/symfunc.py",
        "old": "    for lam in reversed(lams):\n",
        "new": "    for lam in lams:\n",
        "tests": [
            "tests/test_symfunc.py::test_frozen_tables_d3",
            "tests/test_symfunc.py::test_transition_by_random_evaluation",
            "tests/test_symfunc.py::test_class_numbers_round_trip",
            "tests/test_sympy_oracles.py::"
            "test_monomial_to_elementary_matches_sympy",
            "tests/test_cli_golden.py::test_cli_outputs_match_golden_digests",
        ],
    },
    {
        "name": "gamma-without-cap-filter",
        "why": "the shifted logarithm keeps terms with some m_i past "
               "n_max - 1 + d; the paired series never reads them, so only "
               "the report's terms_checked moves, and only the coarse case "
               "of the table-route property and the inertial theory at "
               "m_cap 8, whose 48 terms with n <= 3 hold only 41 within "
               "the cap, see it",
        "file": "src/punctual/genfun.py",
        "old": "                   if 1 <= exps[0] <= n_max and max(exps[1:]) "
               "<= cap}\n",
        "new": "                   if 1 <= exps[0] <= n_max}\n",
        "tests": [
            "tests/test_gamma_properties.py::"
            "test_gamma_matches_the_table_route[coarse]",
            "tests/test_genfun.py::"
            "test_gamma_checks_only_the_terms_within_its_cap[8]",
        ],
    },
    {
        "name": "gamma-without-cap-check",
        "why": "a request past the theory's caps is not refused up "
               "front; only the table-route properties see it (11 cases)",
        "file": "src/punctual/genfun.py",
        "old": "        if first <= cap:\n"
               "            e._exponent(1, (first,) + (0,) * (d - 1))\n"
               "        if e.n_cap < n_max:\n"
               "            e._exponent(e.n_cap + 1, (0,) * d)\n",
        "new": "        pass\n",
        "tests": [
            "tests/test_gamma_properties.py::"
            "test_gamma_matches_the_table_route",
            "tests/test_gamma_properties.py::"
            "test_a_negative_m_cap_matches_the_table_route",
        ],
    },
    {
        "name": "main-builds-both-formats",
        "why": "the JSON object and the text are both built and one is "
               "thrown away; the output bytes do not change, so only the "
               "test that watches the builders sees it",
        "file": "src/punctual/cli.py",
        "old": "        payload = (json.dumps(obj(), indent=2) if args.format "
               "== \"json\"\n"
               "                   else text()) + \"\\n\"\n",
        "new": "        both = json.dumps(obj(), indent=2), text()\n"
               "        payload = both[args.format != \"json\"] + "
               "\"\\n\"\n",
        "tests": [
            "tests/test_cli.py::test_only_the_requested_format_is_built",
        ],
    },
    {
        "name": "main-drops-the-flush",
        "why": "stdout is not flushed inside the handler, so a full or "
               "closed stdout fails after main returns; one case of one "
               "test sees it",
        "file": "src/punctual/cli.py",
        "old": "            sys.stdout.flush()\n",
        "new": "            pass\n",
        "tests": [
            "tests/test_cli.py::test_unwritable_stdout_exits_2[flush]",
        ],
    },
    {
        "name": "theory-frame-checks-variables-only",
        "why": "a side with the right variables but other caps or a total "
               "cap is stored; one test sees it",
        "file": "src/punctual/theories.py",
        "old": "        if got != want:\n",
        "new": "        if got[0] != want[0]:\n",
        "tests": [
            "tests/test_theories.py::"
            "test_theory_refuses_a_side_outside_its_frame",
        ],
    },
    {
        "name": "class-side-without-first-denominator",
        "why": "the closed-form class side is put over p_den^d alone, so "
               "the inertial side, whose first T^n (U1...Ud)^(n-1) / n is "
               "over lcm(1..n_cap), is that lcm times too large; a side "
               "with first = T is unchanged (10 tests kill it, five "
               "listed)",
        "file": "src/punctual/theories.py",
        "old": "    den = f_den * p_den ** d",
        "new": "    den = p_den ** d",
        "tests": [
            "tests/test_theory_properties.py::"
            "test_class_sides_match_the_series_products",
            "tests/test_theory_properties.py::test_inertial_theory_lookups",
            "tests/test_theories.py::test_inertial_primitives",
            "tests/test_acceptance.py::test_criterion_5_inertial_power",
            "tests/test_cli_golden.py::test_cli_outputs_match_golden_digests",
        ],
    },
    {
        "name": "chern-sum-without-lcm-denominator",
        "why": "each <m_lam> is the integer sum over the class numbers' "
               "common denominator, never divided by it, so fractional "
               "class numbers give numbers den times too large; integral "
               "ones are unchanged (4 tests kill it, all listed)",
        "file": "src/punctual/symfunc.py",
        "old": "for mu, c in row.items()), den)\n",
        "new": "for mu, c in row.items()))\n",
        "tests": [
            "tests/test_symfunc.py::"
            "test_parse_chern_c_keys_match_the_fraction_loop",
            "tests/test_symfunc.py::"
            "test_classes_to_monomials_match_the_fraction_loop",
            "tests/test_symfunc.py::test_class_numbers_round_trip",
            "tests/test_cli.py::test_vertical_dt_rational_chern_numbers",
        ],
    },
    {
        "name": "dt-vertex-side-past-caps",
        "why": "the vertex side keeps its cells past m_cap, which _built "
               "stores unchecked; the side's own lookups refuse them, but "
               "the generator side derived by exp packs them into fields "
               "too narrow for them and reads wrong values at small caps "
               "(2 tests kill it, both listed)",
        "file": "src/punctual/theories.py",
        "old": "    for (n,), a in _macmahon_log(min(caps[:2]), -1).terms."
               "items():\n"
               "        neg = -a\n"
               "        cells[n, n, n, n] = 2 * neg\n"
               "        if n < caps[1]:\n",
        "new": "    for (n,), a in _macmahon_log(caps[0], -1).terms.items():\n"
               "        neg = -a\n"
               "        cells[n, n, n, n] = 2 * neg\n"
               "        if True:\n",
        "tests": [
            "tests/test_unchecked_series.py::"
            "test_closed_form_sides_are_built_as_validated",
            "tests/test_theories.py::"
            "test_dt_vertex_at_small_caps_reads_the_values_at_ample_caps",
        ],
    },
    {
        "name": "vertical-pair-keeps-zero-terms",
        "why": "the pair route stores each b_n = 0 as a zero term (every "
               "n >= 1 for the vertex when c3 = c1c2), so its series no "
               "longer equals the exp route's and the \"both\" path "
               "raises (13 tests kill it, four listed)",
        "file": "src/punctual/genfun.py",
        "old": "            for n, b in enumerate(bs) if b})\n",
        "new": "            for n, b in enumerate(bs)})\n",
        "tests": [
            "tests/test_unchecked_series.py::"
            "test_vertex_series_at_c3_equal_to_c1c2_is_one",
            "tests/test_unchecked_series.py::"
            "test_vertical_series_is_built_as_validated",
            "tests/test_genfun.py::test_dt_formula_three_inputs",
            "tests/test_cli_golden.py::test_cli_outputs_match_golden_digests",
        ],
    },
    {
        "name": "chern-duplicate-keys-last-wins",
        "why": "ChernData keeps the last of two keys that name one "
               "partition, (2, 1) and (1, 2) say; single-kill: every other "
               "caller hands it canonical keys",
        "file": "src/punctual/symfunc.py",
        "old": "            values[_partition_of(lam, d)] += Fraction(v)\n",
        "new": "            values[_partition_of(lam, d)] = Fraction(v)\n",
        "tests": [
            "tests/test_symfunc.py::"
            "test_constructors_sum_two_spellings_of_one_partition",
        ],
    },
    {
        "name": "class-ints-without-denominator",
        "why": "parse_chern_arg reads each c-key's value as its own "
               "numerator, not put over the values' common denominator, "
               "so fractional class numbers give wrong <m_lam>; integral "
               "ones are unchanged (2 tests kill it, both listed)",
        "file": "src/punctual/symfunc.py",
        "old": "    den, numbers = _numerators(entries)\n",
        "new": "    den, numbers = 1, {mu: v.numerator for mu, v in "
               "entries.items()}\n",
        "tests": [
            "tests/test_symfunc.py::"
            "test_parse_chern_c_keys_match_the_fraction_loop",
            "tests/test_cli.py::test_vertical_dt_rational_chern_numbers",
        ],
    },
    {
        "name": "printer-hom-degree-from-n",
        "why": "_degrees reads a monomial's homological degree from its "
               "multiplicities n, so the printers and the JSON writers "
               "sort by it and grade buckets by it; the printer property, "
               "its two large fixed cases and the golden corpus see it",
        "file": "src/punctual/hopf.py",
        "old": "    return sum(n for n, _ in rows), 2 * sum(sum(m) for _, m "
               "in rows)\n",
        "new": "    return sum(n for n, _ in rows), sum(n for n, _ in rows)\n",
        "tests": [
            "tests/test_hopf_properties.py::"
            "test_printers_match_the_reference_printers",
            "tests/test_hopf_properties.py::"
            "test_printers_match_the_reference_printers_on_large_outputs",
            "tests/test_cli_golden.py::test_cli_outputs_match_golden_digests",
        ],
    },
    {
        "name": "parse-takes-a-dash-value",
        "why": "a separate value that starts with - is read as the value, "
               "where argparse may read it as a flag; only the differential "
               "gate sees it, not the golden corpus",
        "file": "src/punctual/cli.py",
        "old": "            if value.startswith(\"-\"):\n",
        "new": "            if value.startswith(\"-\") and eq:\n",
        "tests": [
            "tests/test_cli.py::test_parse_agrees_with_argparse",
            "tests/test_cli.py::test_parse_agrees_with_argparse_on_drawn_argv",
        ],
    },
    {
        "name": "parse-matches-a-flag-by-prefix",
        "why": "a flag is read as the first table flag it is a prefix of, "
               "where argparse refuses an ambiguous abbreviation; the "
               "differential gate and one help test see it, not the golden "
               "corpus",
        "file": "src/punctual/cli.py",
        "old": "            flag, eq, value = token.partition(\"=\")\n",
        "new": "            flag, eq, value = token.partition(\"=\")\n"
               "            flag = next((f for f in table if f.startswith("
               "flag)), flag)\n",
        "tests": [
            "tests/test_cli.py::test_parse_agrees_with_argparse",
            "tests/test_cli.py::test_parse_agrees_with_argparse_on_drawn_argv",
            "tests/test_cli.py::"
            "test_help_and_usage_errors_build_the_full_parser_once",
        ],
    },
    {
        "name": "series-without-total-cap",
        "why": "the constructor keeps terms past the total-degree cap, "
               "though every operation still truncates by it; four tests "
               "kill it",
        "file": "src/punctual/series.py",
        "old": "                if not all(map(le, e, caps)) or (\n"
               "                        total_cap is not None and sum(e) > "
               "total_cap):\n",
        "new": "                if not all(map(le, e, caps)):\n",
        "tests": [
            "tests/test_series_properties.py::"
            "test_constructor_matches_the_reference",
            "tests/test_series.py::test_total_cap",
            "tests/test_series_properties.py::"
            "test_product_matches_naive_oracle",
        ],
    },
    {
        "name": "series-without-repeat-sum",
        "why": "a repeated exponent replaces the earlier coefficient "
               "instead of adding to it; only a term map that spells one "
               "exponent twice sees it (two tests)",
        "file": "src/punctual/series.py",
        "old": "                if e in kept:\n"
               "                    c += kept[e]\n"
               "                    if not c:\n"
               "                        del kept[e]\n",
        "new": "",
        "tests": [
            "tests/test_series_properties.py::"
            "test_constructor_matches_the_reference",
            "tests/test_series.py::"
            "test_constructor_cancels_two_spellings_of_one_exponent",
        ],
    },
    {
        "name": "chern-paired-without-rescale",
        "why": "each value's numerator is summed without being put over "
               "the lcm of the order's denominators; 22 tests kill it, "
               "the golden corpus among them",
        "file": "src/punctual/genfun.py",
        "old": "        total = sum(w * v.numerator * (big // v.denominator)\n",
        "new": "        total = sum(w * v.numerator\n",
        "tests": [
            "tests/test_series_properties.py::"
            "test_chern_paired_is_the_plain_double_sum",
            "tests/test_genfun.py::test_gamma_matches_log_vertical",
            "tests/test_cli_golden.py::test_cli_outputs_match_golden_digests",
        ],
    },
    {
        "name": "class-generators-one-power-short",
        "why": "the weight of a generator of T-degree j takes D^(j-1), "
               "not D^j; with integer Chern numbers D = 1 and nothing "
               "moves, so only Chern data with a denominator sees it "
               "(12 tests)",
        "file": "src/punctual/hopf.py",
        "old": "(j, c * den ** (j - 1))\n",
        "new": "(j, c * den ** (j - 1) // den)\n",
        "tests": [
            "tests/test_cli.py::test_vertical_dt_rational_chern_numbers",
            "tests/test_hopf_properties.py::"
            "test_vertical_classes_match_the_naive_recursion",
            "tests/test_hopf_properties.py::"
            "test_paired_vertical_series_matches_the_naive_pairing",
        ],
    },
    {
        "name": "check-antipode-always-true",
        "why": "single-kill: every other test only asserts that checks "
               "pass, so only the two gates that hand check_antipode a "
               "wrong coproduct or a sign-flipped antipode see it",
        "file": "src/punctual/axioms.py",
        "old": "    return acc == HopfElement.unit(x.d, x.variant, "
               "x.basis).scaled(x.counit())\n",
        "new": "    return True\n",
        "tests": [
            "tests/test_axioms.py::"
            "test_checks_fail_on_a_wrong_coproduct[antipode]",
            "tests/test_axioms.py::"
            "test_antipode_check_fails_on_a_wrong_antipode",
        ],
    },
    {
        "name": "suite-hands-y-coproduct-as-x",
        "why": "the suite checks x against the coproduct of y, so every "
               "check that takes it fails on the first element (seven "
               "tests kill it, four listed)",
        "file": "src/punctual/axioms.py",
        "old": "                dx = x.coproduct()\n",
        "new": "                dx = y.coproduct()\n",
        "tests": [
            "tests/test_axioms.py::test_suite_counts",
            "tests/test_acceptance.py::test_criterion_1_hopf_axioms",
            "tests/test_cli.py::test_axioms",
            "tests/test_cli_golden.py::test_cli_outputs_match_golden_digests",
        ],
    },
    {
        "name": "monomial-coproduct-left-factor-right",
        "why": "_tensor_mul puts b's left factor on the right side too, "
               "so each coproduct step and tensor product does (31 tests "
               "kill it, four listed)",
        "file": "src/punctual/hopf.py",
        "old": "                   tuple(sorted(r1 + r2)) if r2 else r1)\n",
        "new": "                   tuple(sorted(r1 + l2)) if r2 else r1)\n",
        "tests": [
            "tests/test_hopf.py::"
            "test_monomial_coproducts_match_the_splitting_oracle",
            "tests/test_hopf_properties.py::"
            "test_structure_maps_match_the_fraction_oracles[coproduct]",
            "tests/test_point_eval.py::test_coproduct_at_two_points",
            "tests/test_axioms.py::test_suite_counts",
        ],
    },
    {
        "name": "antipode-images-keyed-by-right",
        "why": "check_antipode multiplies S(right) into the right monomial; "
               "a coproduct has the same monomials on both sides, so no "
               "lookup fails and only the value is wrong (nine tests kill "
               "it, four listed)",
        "file": "src/punctual/axioms.py",
        "old": "        den, s = images[pair[0]]\n",
        "new": "        den, s = images[pair[1]]\n",
        "tests": [
            "tests/test_axioms.py::test_individual_checks",
            "tests/test_axioms.py::test_suite_counts",
            "tests/test_axioms.py::"
            "test_checks_fail_on_a_wrong_coproduct[antipode]",
            "tests/test_acceptance.py::test_criterion_1_hopf_axioms",
        ],
    },
    {
        "name": "nonneg-int-admits-minus-one",
        "why": "the one check of d, k, cap, total cap and n_max lets -1 "
               "through; the exact-message refusals at -1 see it (a k of "
               "-2 is still refused, so the coarse Euler refusal does not)",
        "file": "src/punctual/rational.py",
        "old": "    if x < 0:\n",
        "new": "    if x < -1:\n",
        "tests": [
            "tests/test_hopf.py::test_refusals",
            "tests/test_series.py::test_constructor_refusals",
            "tests/test_series.py::test_refusals",
            "tests/test_theories.py::test_ek_values",
            "tests/test_theories.py::test_coarse_chern_values",
            "tests/test_genfun.py::test_refusals",
            "tests/test_genfun.py::"
            "test_every_entry_point_reads_n_max_as_a_count",
        ],
    },
    {
        "name": "nonneg-int-truncates",
        "why": "the one check of d, k, cap, total cap and n_max truncates "
               "2.5 to 2 instead of refusing it; single-kill: only the "
               "non-integer refusals pass such a value",
        "file": "src/punctual/rational.py",
        "old": "    x = index(x)\n",
        "new": "    x = int(x)\n",
        "tests": [
            "tests/test_theories.py::"
            "test_a_non_integer_count_is_refused_not_truncated",
            "tests/test_genfun.py::"
            "test_every_entry_point_reads_n_max_as_a_count",
        ],
    },
    {
        "name": "factor-entries-any-number",
        "why": "a sep factor's exponent entries are only compared with 0, "
               "so a float entry is stored and breaks the coproduct later; "
               "single-kill: every other key is built from ints",
        "file": "src/punctual/hopf.py",
        "old": "any(type(x) is not int or x < 0 for x in m)",
        "new": "any(x < 0 for x in m)",
        "tests": [
            "tests/test_hopf.py::"
            "test_constructor_refuses_non_integer_factor_entries",
        ],
    },
    {
        "name": "verify-without-name-check",
        "why": "verify_identity runs an unknown name as gamma-vertical, "
               "its last branch, and fails on the missing theory with a "
               "KeyError instead of naming the identity; the CLI's choices "
               "refuse such a name first, so only the library refusals see "
               "it",
        "file": "src/punctual/genfun.py",
        "old": "    if name not in IDENTITY_NAMES:\n"
               "        raise ValueError(\"unknown identity %r\" % name)\n",
        "new": "    pass\n",
        "tests": [
            "tests/test_genfun.py::test_refusals",
            "tests/test_genfun.py::test_verify_identity_reports",
        ],
    },
    {
        "name": "genfun-n-max-unchecked",
        "why": "_require_mult hands n_max back unchecked, so n_max = -1 "
               "returns a series with a negative cap from the gamma "
               "integral and the paired primitive series (the pair route "
               "still refuses it in _class_generators); single-kill: only "
               "the n_max refusals pass a negative order",
        "file": "src/punctual/genfun.py",
        "old": "    return _nonneg_int(n_max, \"n_max\")\n",
        "new": "    return n_max\n",
        "tests": [
            "tests/test_genfun.py::"
            "test_every_entry_point_reads_n_max_as_a_count",
        ],
    },
    {
        "name": "class-integral-reads-t0",
        "why": "chern_class_integral reads the T^0 coefficient of the "
               "Chern pairing, which is always 0, instead of its T^1 "
               "coefficient",
        "file": "src/punctual/genfun.py",
        "old": "        P.coefficient((part,)) for part in lam))"
               ".coefficient((1,))\n",
        "new": "        P.coefficient((part,)) for part in lam))"
               ".coefficient((0,))\n",
        "tests": [
            "tests/test_genfun.py::test_chern_class_integral_values",
            "tests/test_genfun.py::test_inertial_power_identity_grid",
            "tests/test_series_properties.py::"
            "test_chern_class_integral_matches_the_fraction_loop",
            "tests/test_acceptance.py::test_criterion_5_inertial_power",
        ],
    },
    {
        "name": "theory-option-unstripped",
        "why": "parse_theory_string keeps the blanks around a non-integer "
               "option value, so \"k= x \" is refused as ' x '; no golden "
               "argv spaces a bad value, so only the option refusals see it",
        "file": "src/punctual/cli.py",
        "old": "                v = v.strip()\n",
        "new": "                pass\n",
        "tests": [
            "tests/test_cli.py::test_builtin_option_refusals",
        ],
    },
    {
        "name": "tensor-mul-empty-side-swapped",
        "why": "when b's right side is the unit, _tensor_mul keeps a's left "
               "side on the right, so 1 ox g and g ox 1 steps mix the two "
               "slots in coproducts and tensor products (26 tests kill it, "
               "four listed)",
        "file": "src/punctual/hopf.py",
        "old": "if r2 else r1)\n",
        "new": "if r2 else l1)\n",
        "tests": [
            "tests/test_hopf.py::"
            "test_monomial_coproducts_match_the_splitting_oracle",
            "tests/test_hopf.py::test_counit_axiom_via_tensor",
            "tests/test_hopf_properties.py::test_maps_of_drawn_products_"
            "match_the_nested_references[nonsep-q]",
            "tests/test_axioms.py::test_suite_counts",
        ],
    },
    {
        "name": "frame-without-dimension-check",
        "why": "_frame reads d without refusing a negative one, so the "
               "theory builders fail later in words that do not name the "
               "dimension (ck: a float power of the class denominator), or "
               "build a theory of dimension -1; only the refusal test sees "
               "it, since the CLI checks --d itself",
        "file": "src/punctual/theories.py",
        "old": "    d = _nonneg_int(d, \"dimension\")\n",
        "new": "    d = index(d)\n",
        "tests": [
            "tests/test_theories.py::"
            "test_a_negative_dimension_is_refused_in_its_own_words",
        ],
    },
    {
        "name": "m-to-e-count-lets-a-column-go-negative",
        "why": "the 0-1 matrix count picks a row's columns without checking "
               "that each has a sum left; its base case returns 1 without "
               "looking at the column sums, so [x^nu]e_mu becomes "
               "binom(d, mu_1) binom(d, mu_2) ... for every nu (30 tests "
               "kill it, four listed)",
        "file": "src/punctual/symfunc.py",
        "old": "                if all(nu[i] for i in cols))\n",
        "new": "                )\n",
        "tests": [
            "tests/test_symfunc.py::test_transition_by_random_evaluation",
            "tests/test_symfunc.py::test_frozen_tables_d3",
            "tests/test_sympy_oracles.py::"
            "test_monomial_to_elementary_matches_sympy",
            "tests/test_genfun.py::test_dt_formula_three_inputs",
        ],
    },
]
