"""Property: the planner's responder estimates bound the executor.

The cost-based admission in the serving layer is only honest if the
planner never *under*-counts: for any spatial region, the responders it
plans for must be a superset of the nodes the executor actually asks to
report (tree membership, value predicates and model misses can only
shrink the set).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.query.ast import Aggregate, Query
from repro.query.planner import QueryPlanner
from repro.query.spatial import Rect
from tests.conftest import make_runtime
from tests.query.responder_oracle import regular_responders, snapshot_responders

coords = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def rects(draw):
    x0, x1 = sorted((draw(coords), draw(coords)))
    y0, y1 = sorted((draw(coords), draw(coords)))
    return Rect(x0, y0, x1, y1)


@pytest.fixture(scope="module")
def planner() -> QueryPlanner:
    runtime = make_runtime(n_nodes=20, n_classes=2, seed=13)
    runtime.train(duration=10)
    runtime.run_election()
    return QueryPlanner(runtime)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    region=rects(),
    aggregate=st.sampled_from([None, Aggregate.AVG, Aggregate.COUNT]),
)
def test_planned_snapshot_responders_cover_actual(planner, region, aggregate):
    query = Query(region=region, aggregate=aggregate, use_snapshot=True)
    planned = snapshot_responders(planner.runtime, query)
    result = planner.executor.execute(query, sink=0, charge_energy=False)
    assert result.responders <= planned


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(region=rects())
def test_planned_regular_responders_cover_actual(planner, region):
    query = Query(region=region, use_snapshot=False)
    planned = regular_responders(planner.runtime, query)
    result = planner.executor.execute(query, sink=0, charge_energy=False)
    assert result.responders <= planned


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(region=rects())
def test_selectivity_consistent_with_responders(planner, region):
    query = Query(region=region)
    alive = len(planner.runtime.alive_ids())
    assert planner.estimate_cost(query).selectivity == pytest.approx(
        len(regular_responders(planner.runtime, query)) / alive
    )
