import compare


def _document(workload, seed, value, digest="d", failed=0):
    return {
        "results": [
            {
                "workload": workload,
                "seed": seed,
                "ops": 100,
                "ops_failed": failed,
                "digest": digest,
                "summary": {"p50_ms": {"value": value, "unit": "ms"}},
            }
        ]
    }


BOUNDS = {"p50_ms": ("lower", 0.1)}


def _verdict(parent, change):
    return compare.verdict(parent, change, "lower", 0.1)["verdict"]


def test_verdicts_follow_the_win_and_bound_rules():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    assert _verdict(steady, [value * 0.8 for value in steady]) == "improved"
    assert _verdict(steady, [value * 1.02 for value in steady]) == "no-regression"
    assert _verdict(steady, [value * 1.3 for value in steady]) == "regression"
    noisy = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
    assert _verdict(noisy, noisy[1:] + noisy[:1]) == "unresolved"
    assert compare.verdict(steady, steady, "lower", None)["verdict"] == "info"


def test_improvement_needs_nine_of_ten_wins():
    parent = [10.0] * 10
    change = [9.0] * 8 + [11.0] * 2
    assert compare.verdict(parent, change, "lower", 0.1)["win_share"] == 0.8
    assert _verdict(parent, change) != "improved"


def test_flags_digest_changes_and_more_failures():
    parent = [_document("design", seed, 10.0) for seed in (1, 2)]
    change = [_document("design", 1, 10.0), _document("design", 2, 10.0, digest="x", failed=5)]
    report = compare.compare(parent, change, BOUNDS)
    assert any("seed 2" in flag for flag in report["flags"])
    assert any("failed-operation share" in flag for flag in report["flags"])
    same = compare.compare(parent, parent, BOUNDS)
    assert same["flags"] == []
    assert [row["verdict"] for row in same["rows"]] == ["no-regression"]
