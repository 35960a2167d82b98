"""Analyzer: the paper's figures from the bundled tables, the fee, scaling
and comparison arithmetic on hand-computed records, and table cells that do
not parse, which are a ParameterError naming the file and the line."""

import re

import pytest

from crossdock import costmodel
from crossdock.costmodel import InstanceSpec, RunRecord
from crossdock.errors import ComparisonError, ParameterError

CATALOG_HEADER = "name\tcpu_model\tcores\tdp_peak_gflops\tgpus\tram_gb\trdma\tprice_usd_per_hour"
RUNS_HEADER = "instance\tn_instances\twall_time_s\tn_pairs"


@pytest.mark.parametrize("load, header, good, bad", [
    (costmodel.load_catalog, CATALOG_HEADER,
     "H16\tXeon\t16\t691.2\t0\t112\tno\t1.75", "NC24\tXeon\tx\t883.2\t4\t1440\tno\t4.32"),
    (costmodel.load_runs, RUNS_HEADER, "H16\t50\t600.0\t3481", "H16\tx\t300.0\t3481"),
])
def test_unparsable_cell_names_the_file_and_the_line(tmp_path, load, header, good, bad):
    path = tmp_path / "table.tsv"
    path.write_text(f"# comment\n{header}\n{good}\n\n{bad}\n", encoding="utf-8")
    with pytest.raises(ParameterError,
                       match=rf"^{re.escape(str(path))} line 5: bad (catalog|run) row .*'x'"):
        load(path)
    path.write_text(f"{header}\n{good}\n", encoding="utf-8")
    assert len(load(path)) == 1


def spec(name: str, price: float) -> InstanceSpec:
    return InstanceSpec(name, "cpu", 16, 100.0, 0, 64.0, False, price)


def test_bundled_tables_give_the_paper_figures():
    catalog = costmodel.load_catalog()
    report = costmodel.build_report(catalog, costmodel.load_runs())
    assert round(report.scaling_for("NC24", 5, 40).speedup, 2) == 5.91
    assert round(report.scaling_for("NC24", 5, 20).strong_scaling, 3) == 0.890
    assert round(report.scaling_for("H16", 50, 100).strong_scaling, 3) == 0.931
    # H16 wins every comparison, at 50 (fee 37.1 USD) and at 100 instances
    assert sorted((c.recommended, c.other, round(c.fee_recommended, 1)) for c in report.comparisons) == [
        ("H16", other, fee) for other in ("A9", "DS14", "H16r") for fee in (37.1, 39.9)
    ]
    assert round(costmodel.total_fee(catalog["H16"], 1527.0, 50), 1) == 37.1


def test_total_fee_is_price_times_hours_times_instances():
    assert costmodel.total_fee(spec("X", 2.0), 5400.0, 3) == 9.0
    for wall, count in ((0.0, 3), (5400.0, 0)):
        with pytest.raises(ParameterError):
            costmodel.total_fee(spec("X", 2.0), wall, count)


def test_strong_scaling_is_speedup_over_the_instance_ratio():
    base, scaled = RunRecord("X", 4, 1000.0, 100), RunRecord("X", 16, 400.0, 100)
    assert costmodel.speedup(base, scaled) == 2.5
    assert costmodel.strong_scaling(base, scaled) == 0.625
    for other in (RunRecord("Y", 16, 400.0, 100), RunRecord("X", 16, 400.0, 99),
                  RunRecord("X", 4, 400.0, 100)):
        with pytest.raises(ComparisonError):
            costmodel.strong_scaling(base, other)


def test_compare_instances_weighs_speed_against_price_and_ties_go_cheaper():
    fast, cheap = spec("fast", 3.0), spec("cheap", 1.0)
    # 4x faster at 3x the price: the speed wins
    rec = costmodel.compare_instances((fast, RunRecord("fast", 2, 1800.0, 10)),
                                      (cheap, RunRecord("cheap", 2, 7200.0, 10)))
    assert (rec.recommended, rec.other, rec.tie) == ("fast", "cheap", False)
    assert (rec.speed_ratio, rec.price_ratio, rec.fee_recommended, rec.fee_other) == (4.0, 3.0, 3.0, 4.0)
    # 2x faster at exactly 2x the price: a tie, which the cheaper side wins
    pricey = spec("pricey", 2.0)
    a = (pricey, RunRecord("pricey", 2, 1800.0, 10))
    b = (cheap, RunRecord("cheap", 2, 3600.0, 10))
    for first, second in ((a, b), (b, a)):
        rec = costmodel.compare_instances(first, second)
        assert (rec.recommended, rec.other, rec.tie) == ("cheap", "pricey", True)
        assert rec.speed_ratio == rec.price_ratio
    with pytest.raises(ComparisonError):
        costmodel.compare_instances(a, (cheap, RunRecord("cheap", 3, 3600.0, 10)))


def test_fees_follow_the_recommendation_when_the_cheaper_instance_wins():
    """1.5x faster at 10x the price: the slower, cheaper instance wins, and
    the first fee in the table and the JSON is its own."""
    catalog = {"FAST": spec("FAST", 10.0), "CHEAP": spec("CHEAP", 1.0)}
    runs = [RunRecord("FAST", 10, 100.0, 50), RunRecord("CHEAP", 10, 150.0, 50)]
    report = costmodel.build_report(catalog, runs)
    (rec,) = report.comparisons
    assert (rec.recommended, rec.other, rec.tie) == ("CHEAP", "FAST", False)
    assert rec.fee_recommended == costmodel.total_fee(catalog["CHEAP"], 150.0, 10)
    assert rec.fee_other == costmodel.total_fee(catalog["FAST"], 100.0, 10)
    assert "recommend CHEAP over FAST" in costmodel.render_report(report)
    assert "(fees 0.4 vs 2.8 USD)" in costmodel.render_report(report)
    (entry,) = report.to_json_dict()["comparisons"]
    assert (entry["fee_recommended_usd"], entry["fee_other_usd"]) == (rec.fee_recommended,
                                                                      rec.fee_other)


def test_a_repeated_run_at_the_smallest_count_is_no_scaling_step():
    runs = [RunRecord("H16", 50, 1527.0, 3481), RunRecord("H16", 50, 1530.0, 3481),
            RunRecord("H16", 100, 820.0, 3481)]
    report = costmodel.build_report(costmodel.load_catalog(), runs)
    assert [(s.base.n_instances, s.scaled.n_instances) for s in report.scalings] == [(50, 100)]
    assert report.scaling_for("H16", 50, 100).speedup == 1527.0 / 820.0


def test_repeated_runs_of_one_instance_are_compared_by_their_fastest_run():
    catalog = costmodel.load_catalog()
    one_instance = [RunRecord("H16", 50, 1527.0, 3481), RunRecord("H16", 50, 1530.0, 3481),
                    RunRecord("H16", 100, 820.0, 3481)]
    report = costmodel.build_report(catalog, one_instance)
    assert report.comparisons == ()
    assert "Instance comparisons" not in costmodel.render_report(report)
    runs = [RunRecord("A9", 50, 2300.0, 3481), RunRecord("H16", 50, 1530.0, 3481),
            RunRecord("A9", 50, 2369.0, 3481), RunRecord("H16", 50, 1527.0, 3481)]
    report = costmodel.build_report(catalog, runs)
    (rec,) = report.comparisons
    assert (rec.recommended, rec.other, rec.speed_ratio) == ("H16", "A9", 2300.0 / 1527.0)
    assert rec.fee_other == costmodel.total_fee(catalog["A9"], 2300.0, 50)
    assert costmodel.render_report(report).endswith("Instance comparisons (speed ratio vs price ratio)\n"
                          "recommend H16 over A9: speed ratio 1.51 vs price ratio 0.91 "
                          "(fees 37.1 vs 61.7 USD)\n")
