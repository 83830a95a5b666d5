"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import hashlib
import json
from fractions import Fraction

import run
import spans
import workloads


def _series_text(coeffs):
    terms = []
    for k, c in enumerate(coeffs):
        if c:
            var = "" if k == 0 else "*T" if k == 1 else "*T^%d" % k
            terms.append("%d/%d%s" % (c.numerator, c.denominator, var))
    return " + ".join(terms) + "\n"


def test_same_seed_same_jobs():
    for name in workloads.WORKLOADS:
        assert workloads.make_jobs(name, 5) == workloads.make_jobs(name, 5)
        other = workloads.make_jobs(name, 6)
        assert [j["argv"] for j in other] != \
            [j["argv"] for j in workloads.make_jobs(name, 5)]
        assert [j["argv"][0] for j in other] == \
            [j["argv"][0] for j in workloads.make_jobs(name, 5)]


def test_macmahon_oracle_matches_p3():
    # the DT vertical series of P^3 is M(-T)^-20 (README example)
    assert workloads.macmahon_power(-20, 6) == [
        1, 20, 150, 400, -855, -6996, -4670]


def test_linear_oracle():
    basis_a = ["x", "a"]
    basis_b = ["x", "b"]
    basis = {"x a": "1/1*T + 1/2*T^2\nfooter\n",
             "x b": "-1/1*T + 1/3*T^3\nfooter\n"}
    job = {"argv": ["x"], "oracle": ["linear", [["2/1", basis_a],
                                                ["2/1", basis_b]]]}
    assert workloads.check_output(job, "1/1*T^2 + 2/3*T^3\nfooter\n", basis)
    assert not workloads.check_output(job, "1/1*T^2 + 2/3*T^3\nother\n",
                                      basis)
    assert not workloads.check_output(job, "1/1*T^2\nfooter\n", basis)


def _vertical_case():
    jobs = workloads.make_jobs("vertical-p3", workloads.DEFAULT_SEED)
    outputs = [_series_text(workloads.macmahon_power(*job["oracle"][1:]))
               for job in jobs]
    digests = [{"argv": job["argv"], "status": 0,
                "sha256": hashlib.sha256(out.encode()).hexdigest()}
               for job, out in zip(jobs, outputs)]
    return jobs, outputs, digests


def test_checker_accepts_right_outputs():
    jobs, outputs, digests = _vertical_case()
    checker = run.Checker(jobs, {"basis": {}}, digests)
    for _ in range(2):
        for index, out in enumerate(outputs):
            checker.check(index, 0, out, "cold")
    assert (checker.attempted, checker.failed) == (6, 0)


def test_corrupted_digest_counts_as_failed_job():
    jobs, outputs, digests = _vertical_case()
    digests[1]["sha256"] = "0" * 64
    checker = run.Checker(jobs, {"basis": {}}, digests)
    for index, out in enumerate(outputs):
        checker.check(index, 0, out, "cold")
    assert (checker.attempted, checker.failed) == (3, 1)
    assert checker.failures[0]["job"] == 1


def test_wrong_status_and_changed_output_fail():
    jobs, outputs, _ = _vertical_case()
    checker = run.Checker(jobs, {"basis": {}}, None)
    checker.check(0, 0, outputs[0], "cold")
    checker.check(0, 1, outputs[0], "session")
    checker.check(1, 0, outputs[1], "cold")
    checker.check(1, 0, outputs[1].replace("1/1", "2/1"), "session")
    assert (checker.attempted, checker.failed) == (4, 2)


def test_self_times_on_nested_spans():
    # pair [0, 10] > primitive_value [1, 6] > log [2, 5]; pair > value [7, 9]
    tree = [["theories.pair", 0.0, 10.0, -1, 0],
            ["theories.primitive_value", 1.0, 6.0, 0, 0],
            ["series.log", 2.0, 5.0, 1, 0],
            ["theories.value", 7.0, 9.0, 0, 0],
            ["theories.value", 11.0, 12.5, -1, 1]]
    got = spans.self_times(tree)
    assert got == {"theories.pair": [3.0, 1],
                   "theories.primitive_value": [2.0, 1],
                   "series.log": [3.0, 1],
                   "theories.value": [3.5, 2]}
    # a factor per job scales the self times of that job's spans
    scaled = spans.self_times(tree, [2.0, 0.5])
    assert scaled["theories.pair"] == [6.0, 1]
    assert scaled["theories.value"] == [4.75, 2]


def test_traced_child_binds_imported_names():
    run.OUT.mkdir(exist_ok=True)
    job = {"argv": ["gamma-integral", "--theory", "builtin:ck,k=1", "--d",
                    "2", "--chern", "c2=3,c1^2=9", "--order", "3"]}
    results, final, _ = run.session_pass([job], "traced")
    assert results[0]["status"] == 0
    names = {span[0] for span in final["spans"]}
    # theory_from_spec and gamma_integral_series are called through names
    # that cli imported with "from .x import y"
    assert {"cli.main", "theories.construct", "genfun.gamma_integral_series",
            "theories.value", "series.log"} <= names
    assert final["counters"]["genfun.gamma.terms_checked"] > 0


def test_benchmark_json_matches_run():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert bench["run_seconds"] == run.RUN_SECONDS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        run.PER_LAYER
    assert all(w["why"] == workloads.WHY[w["name"]]
               for w in bench["workloads"])


def test_expected_table_covers_default_jobs():
    expected = json.loads(run.EXPECTED.read_text())
    for name in workloads.WORKLOADS:
        jobs = workloads.make_jobs(name, workloads.DEFAULT_SEED)
        assert [d["argv"] for d in expected["digests"][name]] == \
            [job["argv"] for job in jobs]
        for argv in workloads.basis_argvs(jobs):
            assert workloads.basis_key(argv) in expected["basis"]


def test_fraction_parsing_of_printed_sums():
    assert workloads.parse_terms("0") == {}
    assert workloads.parse_terms("1/1 + -3/2*q_{1,(0)}^2*q_{2,(1)}") == {
        "": Fraction(1), "q_{1,(0)}^2*q_{2,(1)}": Fraction(-3, 2)}
