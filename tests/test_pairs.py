"""tools/pairs.py's summary of alternating benchmark pairs, on canned results."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", os.path.join(ROOT, "tools", "pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(events_per_s, peak_rss_mb, attempted=10, failed=0):
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {"events_per_s": {"value": events_per_s, "unit": "events/s"},
                        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}}


_METRICS = [{"name": "events_per_s", "better": "higher"},
            {"name": "peak_rss_mb", "better": "lower"}]


def test_summary_of_ten_pairs(pairs):
    """Parent events/s 100..109, change 110..119 but for one pair where it
    reads 90: medians, inclusive quartiles, wins, the worst change run and
    the claim rule (9 of 10 wins, and a median gap of 10 against a parent
    quartile distance of 4.5).  Peak RSS is equal in every pair: no win, and
    no claim."""
    parent = [_result(100.0 + i, 20.0) for i in range(10)]
    change = [_result(110.0 + i, 20.0, attempted=12) for i in range(10)]
    change[3] = _result(90.0, 20.0, attempted=12, failed=1)
    summary = pairs.summarize(list(zip(parent, change)), _METRICS)
    assert summary["pairs"] == 10
    assert summary["attempted"] == {"parent": 100, "change": 120}
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["events_per_s"] == {
        "parent_median": 104.5, "change_median": 114.5, "change_vs_parent": "+9.6%",
        "change_better_pairs": "9/10", "parent_quartiles": [102.25, 106.75],
        "change_quartiles": [111.25, 116.75], "worst_change_vs_parent_median": "-13.9%",
        "claim_rule_holds": True}
    assert summary["peak_rss_mb"]["change_better_pairs"] == "0/10"
    assert summary["peak_rss_mb"]["claim_rule_holds"] is False


@pytest.mark.parametrize("losses, shift, holds", [(1, 20.0, True), (2, 20.0, False),
                                                   (0, 1.0, False)])
def test_the_claim_rule_needs_nine_wins_in_ten_and_a_gap_above_the_quartile_distance(
        pairs, losses, shift, holds):
    """Parent events/s 100..109 (quartile distance 4.5).  The change reads
    shift above the parent but one below it in the first `losses` pairs:
    one loss with a gap of 20 holds, two losses do not, and ten wins with a
    gap of 1 do not either."""
    parent = list(range(100, 110))
    change = [p - 1 if i < losses else p + shift for i, p in enumerate(parent)]
    summary = pairs.summarize([(_result(p, 20.0), _result(c, 20.0))
                               for p, c in zip(parent, change)], _METRICS)
    assert summary["events_per_s"]["parent_quartiles"] == [102.25, 106.75]
    assert summary["events_per_s"]["change_better_pairs"] == "%d/10" % (10 - losses)
    assert summary["events_per_s"]["claim_rule_holds"] is holds
