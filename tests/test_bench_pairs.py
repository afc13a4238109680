"""The verdicts and failure shares tools/bench_pairs.py states per
workload."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def verdict(parent, change, lower, bound):
    return bench_pairs.verdict(parent, change, lower, bound)[0]


# ten parent runs around 1.0, quartiles 0.98 and 1.02 (spread 0.04)
PARENT = [0.96, 0.97, 0.98, 0.98, 0.99, 1.01, 1.02, 1.02, 1.03, 1.04]


def shifted(values, delta):
    return [x + delta for x in values]


class TestVerdict:
    def test_gain(self):
        # 10/10 pairs, medians 0.10 apart against a spread of 0.04
        assert bench_pairs.verdict(PARENT, shifted(PARENT, -0.10), True,
                                   0.25) == ("gain", 10)

    def test_gain_needs_nine_pairs_in_ten(self):
        change = shifted(PARENT, -0.10)
        change[:2] = [2.0, 2.0]
        assert bench_pairs.verdict(PARENT, change, True, 0.25) \
            == ("no change", 8)

    def test_gain_needs_medians_apart_by_the_spread(self):
        # every pair won, by less than the parent's quartile spread
        assert verdict(PARENT, shifted(PARENT, -0.03), True, 0.25) \
            == "no change"

    def test_regression(self):
        # median 0.30 worse, beyond a bound of 0.25 of 1.0
        assert verdict(PARENT, shifted(PARENT, 0.30), True, 0.25) \
            == "regression"

    def test_within_the_bound_is_no_change(self):
        assert verdict(PARENT, shifted(PARENT, 0.20), True, 0.25) \
            == "no change"

    def test_unresolved(self):
        # the parent's spread (0.04) is wider than a bound of 0.02 of 1.0,
        # and the change's runs overlap the parent's
        assert verdict(PARENT, shifted(PARENT, 0.01), True, 0.02) \
            == "unresolved"

    def test_wide_spread_resolved_when_every_run_is_better(self):
        # a parent skewed high: spread about 0.16 against a bound of 0.05,
        # every change run below its fastest run, by less than the spread
        parent = [0.99, 0.99, 0.99, 1.0, 1.0, 1.0, 1.0, 1.2, 1.2, 1.2]
        assert verdict(parent, [0.98] * 10, True, 0.05) == "no change"
        assert verdict(parent, [0.98] * 9 + [1.1], True, 0.05) \
            == "unresolved"

    def test_higher_is_better(self):
        # wins count pairs where the change is higher
        assert bench_pairs.verdict(PARENT, shifted(PARENT, 0.10), False,
                                   0.25)[1] == 10
        assert verdict(PARENT, shifted(PARENT, 0.10), False, 0.25) == "gain"
        assert verdict(PARENT, shifted(PARENT, -0.30), False, 0.25) \
            == "regression"

    @pytest.mark.parametrize("name", ["setup_s", "wall_s", "p50_s",
                                      "peak_rss_mb"])
    def test_reads_the_benchmark_bounds(self, name):
        lower, bound = bench_pairs._end_to_end()[name]
        assert lower and 0 < bound < 1


def runs(failed, attempted=3):
    return [{"failed": f, "attempted": attempted, "correct": True}
            for f in failed]


class TestFailedShares:
    def test_equal_shares(self):
        # 2 of 3 commands failing in every run, as the oracle workload does
        assert bench_pairs.failed_shares(
            {"parent": runs([2] * 10), "change": runs([2] * 10)}) \
            == {"parent": 2 / 3, "change": 2 / 3, "more_failures": False}

    def test_one_more_failure_is_flagged(self):
        shares = bench_pairs.failed_shares(
            {"parent": runs([2] * 10), "change": runs([2] * 9 + [3])})
        assert shares["change"] == pytest.approx(21 / 30)
        assert shares["more_failures"]

    def test_summed_over_the_runs(self):
        # one run's larger batch weighs more than an even split would
        change = runs([0]) + runs([4], attempted=6)
        shares = bench_pairs.failed_shares(
            {"parent": runs([1, 1]), "change": change})
        assert shares["parent"] == pytest.approx(2 / 6)
        assert shares["change"] == pytest.approx(4 / 9)
        assert shares["more_failures"]

    def test_fewer_failures_are_not_flagged(self):
        assert not bench_pairs.failed_shares(
            {"parent": runs([2, 2]), "change": runs([1, 2])})["more_failures"]
