"""Exact trigraded tables against tests/data/golden_dims.json."""

import pytest

from golden_dims import CASES, FRONTIER, FRONTIER_PATH, case_id, compute, load

GOLDEN = load()


def test_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(case_id(c) for c in CASES)


def test_frontier_table_covers_every_case():
    # the frontier tables are recomputed by `golden_dims.py --frontier
    # --check` in CI, not here
    assert sorted(load(FRONTIER_PATH)) == sorted(case_id(c) for c in FRONTIER)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_golden_dims(case):
    assert compute(case) == GOLDEN[case_id(case)]


def test_bumped_dim_is_caught():
    case = next(c for c in CASES if c["braid"] == "1 1 1 1 1" and c["reduced"])
    dims = dict(compute(case))
    assert dims == GOLDEN[case_id(case)]
    key = min(dims)
    dims[key] += 1
    assert dims != GOLDEN[case_id(case)]
