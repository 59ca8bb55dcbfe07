"""Query engine: the paper's SQL dialect, TAG trees, and snapshot execution.

Parses SELECT-FROM-WHERE queries with acquisition clauses and the
``USE SNAPSHOT`` directive (§3.1), builds TAG-style aggregation trees
by simulated flooding (§6.2), and executes queries in regular or
snapshot mode with the paper's participation and energy accounting.
"""

from repro.query.aggregation_tree import AggregationTree
from repro.query.ast import Aggregate, Comparison, Query, ValuePredicate
from repro.query.coverage import CoverageSeries
from repro.query.executor import QueryExecutor, QueryResult
from repro.query.formatting import format_query, format_region
from repro.query.parser import QuerySyntaxError, parse_query
from repro.query.planner import QueryPlan, QueryPlanner
from repro.query.spatial import (
    NAMED_REGIONS,
    Circle,
    Everywhere,
    Rect,
    Region,
    named_region,
    random_square,
)

__all__ = [
    "Aggregate",
    "AggregationTree",
    "Circle",
    "Comparison",
    "CoverageSeries",
    "Everywhere",
    "NAMED_REGIONS",
    "Query",
    "QueryExecutor",
    "QueryPlan",
    "QueryPlanner",
    "QueryResult",
    "QuerySyntaxError",
    "Rect",
    "Region",
    "ValuePredicate",
    "format_query",
    "format_region",
    "named_region",
    "parse_query",
    "random_square",
]
