"""Classical query layer: tables, sampling, predicate evaluation, and the
bootstrap error report for approximate COUNT/SUM/AVG answers.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Callable, Sequence

from .bootstrap import (
    AGGREGATES,
    ReplicationSet,
    SampleResults,
    replicate,
)
from .errors import PipelineError, QbsError
from .rng import derive_seed, fresh_seed, make_rng

Value = int | float | str

_OPERATOR_ALIASES = {
    "=": "=",
    "==": "=",
    "!=": "!=",
    "≠": "!=",
    "<": "<",
    "<=": "<=",
    "≤": "<=",
    ">": ">",
    ">=": ">=",
    "≥": ">=",
}

_OPERATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

# a condition resolved against the columns: (index, operator, value, value is numeric)
_Check = tuple[int, Callable[[Value, Value], bool], Value, bool]


@dataclass(frozen=True)
class Condition:
    """Atomic comparison against one column."""

    column: str
    op: str
    value: Value

    def __post_init__(self):
        canonical = _OPERATOR_ALIASES.get(self.op)
        if canonical is None:
            raise ValueError(f"unknown operator {self.op!r}")
        object.__setattr__(self, "op", canonical)
        if isinstance(self.value, bool) or not isinstance(self.value, (int, float, str)):
            raise ValueError(
                f"condition on {self.column!r} has unsupported value {self.value!r};"
                " expected a number or a string"
            )


@dataclass(frozen=True)
class QuerySpec:
    """Aggregate plus a conjunction of atomic predicates."""

    aggregate: str
    conditions: tuple[Condition, ...] = ()
    target_column: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "conditions", tuple(self.conditions))
        if self.aggregate not in AGGREGATES:
            raise ValueError(f"aggregate must be one of {AGGREGATES}")
        if self.aggregate == "COUNT":
            if self.target_column is not None:
                raise ValueError("COUNT takes no target column")
        elif self.target_column is None:
            raise ValueError(f"{self.aggregate} requires a target column")


def parse_query(payload: dict) -> QuerySpec:
    """Build a QuerySpec from its JSON form."""
    if not isinstance(payload, dict):
        raise ValueError("query must be a JSON object")
    raw_conditions = payload.get("conditions", [])
    if not isinstance(raw_conditions, list) or not all(isinstance(c, dict) for c in raw_conditions):
        raise ValueError("query field 'conditions' must be a list of objects")
    for i, c in enumerate(raw_conditions):
        for field in ("column", "op", "value"):
            if field not in c:
                raise ValueError(f"query condition {i} lacks field {field!r}")
    conditions = tuple(
        Condition(str(c["column"]), str(c["op"]), c["value"]) for c in raw_conditions
    )
    return QuerySpec(
        aggregate=str(payload.get("aggregate", "")).upper(),
        conditions=conditions,
        target_column=payload.get("target_column"),
    )


def load_query(path: str | Path) -> QuerySpec:
    with open(path, encoding="utf-8") as fh:
        return parse_query(json.load(fh))


@dataclass(frozen=True)
class TableData:
    """Typed in-memory relation."""

    columns: tuple[str, ...]
    rows: tuple[tuple[Value, ...], ...]

    def __post_init__(self):
        if not self.columns:
            raise ValueError("table needs at least one column")
        if len(set(self.columns)) != len(self.columns):
            duplicate = next(c for i, c in enumerate(self.columns) if c in self.columns[:i])
            raise ValueError(f"duplicate column {duplicate!r}")
        if not self.rows:
            raise ValueError("table is empty")

    @property
    def N(self) -> int:
        return len(self.rows)


def _coerce_column(raw: list[str]) -> list[Value]:
    try:
        return [int(v) for v in raw]
    except ValueError:
        pass
    try:
        return [float(v) for v in raw]
    except ValueError:
        return list(raw)


# rows read before each column's memo is checked; a memo holding more distinct
# texts than half of them saves too little to keep
_MEMO_CHECK_ROWS = 1024


def _load_csv(path: Path) -> TableData:
    """Read a CSV table into one list per column, then type each column.

    Each stripped field passes through its column's memo dict, so a text that
    repeats in a column is stored once. After ``_MEMO_CHECK_ROWS`` rows, a
    column whose memo holds more than half of them keeps its texts as read
    and its memo is dropped. Each raw column is typed by ``_coerce_column``
    and dropped before the row tuples are built.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        columns = tuple(name.strip() for name in header)
        raw: list[list[str]] = [[] for _ in columns]
        # keep(text, text) returns the column's stored copy of the text
        keeps = [{}.setdefault for _ in columns]
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns):
                raise ValueError(
                    f"{path}:{line_no}: expected {len(columns)} fields, got {len(row)}"
                )
            for field, column, keep in zip(row, raw, keeps):
                field = field.strip()
                column.append(keep(field, field))
            if len(raw[0]) == _MEMO_CHECK_ROWS:
                # an empty dict's get stores nothing and returns the text as read
                keeps = [
                    keep if 2 * len(keep.__self__) <= _MEMO_CHECK_ROWS else {}.get
                    for keep in keeps
                ]
    del keeps
    # a blank header line gives no columns, and then no row can be read
    if not raw or not raw[0]:
        raise ValueError(f"{path}: no data rows")
    raw.reverse()
    typed = [_coerce_column(raw.pop()) for _ in columns]
    return TableData(columns, tuple(zip(*typed)))


def _load_json_table(path: Path) -> TableData:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "columns" not in payload or "rows" not in payload:
        raise ValueError(f"{path}: expected an object with 'columns' and 'rows'")
    for field in ("columns", "rows"):
        if not isinstance(payload[field], list):
            raise ValueError(f"{path}: field {field!r} must be a list")
    columns = tuple(str(c) for c in payload["columns"])
    rows = []
    for i, row in enumerate(payload["rows"]):
        if not isinstance(row, list):
            raise ValueError(f"{path}: field 'rows' entry {i} must be a list, got {row!r}")
        if len(row) != len(columns):
            raise ValueError(f"{path}: row {i} has {len(row)} fields, expected {len(columns)}")
        for v in row:
            if isinstance(v, bool) or not isinstance(v, (int, float, str)):
                raise ValueError(f"{path}: row {i} holds unsupported value {v!r}")
        rows.append(tuple(row))
    return TableData(columns, tuple(rows))


def load_table(path: str | Path) -> TableData:
    """Load a relation from JSON ({"columns", "rows"}) or CSV (header row).

    A ``.json`` suffix, in any case, selects JSON; any other path is CSV.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        return _load_json_table(path)
    return _load_csv(path)


@dataclass(frozen=True)
class DrawnSample:
    """Rows sampled without replacement from a table."""

    columns: tuple[str, ...]
    rows: tuple[tuple[Value, ...], ...]
    population_size: int
    seed: int

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def f(self) -> float:
        return self.n / self.population_size


def draw_sample(table: TableData, n: int, seed: int | None = None) -> DrawnSample:
    """Uniform sample of n distinct rows; the sampling fraction is n/N."""
    if not 1 <= n <= table.N:
        raise ValueError(f"sample size {n} outside 1..{table.N}")
    if seed is None:
        seed = fresh_seed()
    rng = make_rng(seed)
    picked = rng.choice(table.N, size=n, replace=False)
    rows = tuple(map(table.rows.__getitem__, picked.tolist()))
    return DrawnSample(table.columns, rows, table.N, seed)


def _column_index(columns: Sequence[str], name: str) -> int:
    try:
        return list(columns).index(name)
    except ValueError:
        raise ValueError(f"unknown column {name!r}") from None


def _checks(columns: Sequence[str], conditions: Sequence[Condition]) -> list[_Check]:
    """Each condition as a ``_Check``; an unknown column raises."""
    return [
        (_column_index(columns, c.column), _OPERATORS[c.op], c.value,
         isinstance(c.value, (int, float)))
        for c in conditions
    ]


def _meets(row: Sequence[Value], checks: Sequence[_Check]) -> bool:
    """Conjunction of the ``_checks`` on ``row``; vacuously true when empty."""
    for idx, compare, value, numeric in checks:
        left = row[idx]
        if isinstance(left, (int, float)) != numeric:
            raise ValueError(f"type mismatch: cannot compare {left!r} with {value!r}")
        if not compare(left, value):
            return False
    return True


def row_matches(
    columns: Sequence[str], row: Sequence[Value], conditions: Sequence[Condition]
) -> bool:
    """Conjunction of the atomic predicates; vacuously true when empty.

    Every condition's column is looked up before the row is read, so an
    unknown one raises whatever the row holds.
    """
    return _meets(row, _checks(columns, conditions))


def tuple_results(sample: DrawnSample, query: QuerySpec) -> SampleResults:
    """Per-row query results y_i for the drawn sample.

    COUNT yields a bit per row. SUM/AVG yield the target value for matching
    rows and 0 otherwise; target values must be non-negative integers so
    they fit the fixed-width circuit encoding. Every column the query names
    is looked up before any row is read, so an unknown one always raises.
    """
    target_idx = None
    if query.target_column is not None:
        target_idx = _column_index(sample.columns, query.target_column)
    checks = _checks(sample.columns, query.conditions)
    values: list[int] = []
    matches = 0
    for row in sample.rows:
        hit = _meets(row, checks)
        matches += hit
        if query.aggregate == "COUNT":
            values.append(int(hit))
        elif hit:
            v = row[target_idx]
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(
                    f"{query.aggregate} target values must be non-negative "
                    f"integers, got {v!r}"
                )
            values.append(v)
        else:
            values.append(0)
    return SampleResults(
        tuple(values),
        population_size=sample.population_size,
        aggregate=query.aggregate,
        match_count=matches,
    )


def estimate(sample_results: SampleResults) -> float:
    """Point estimate of the population answer.

    COUNT and SUM scale the sample total by 1/f. AVG uses the ratio form,
    total over matching rows, where the fraction cancels; it is undefined
    when nothing matches.
    """
    total = sum(sample_results.values)
    if sample_results.aggregate == "AVG":
        matches = sample_results.match_count
        if matches is None:
            raise ValueError("AVG needs match_count on the sample results")
        if matches == 0:
            raise ValueError("AVG is undefined: no rows match the predicate")
        return total / matches
    return total / sample_results.f


def bootstrap_se(replications: ReplicationSet) -> float:
    """Sample standard deviation of the replication estimates (B-1 divisor)."""
    if replications.B < 2:
        raise ValueError("standard error needs at least two replications")
    # np.std(ddof=1)'s own steps, so the result is the same to the bit
    estimates = replications.estimates()
    deviations = estimates - estimates.sum() / replications.B
    deviations *= deviations
    return math.sqrt(deviations.sum() / (replications.B - 1))


def z_percentile(alpha: float) -> float:
    """Standard-normal percentile z such that P(Z <= z) = 1 - alpha.

    Computed by the rational approximation behind
    ``statistics.NormalDist.inv_cdf`` (accurate well below 1e-6).
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 0.5), got {alpha}")
    return NormalDist().inv_cdf(1.0 - alpha)


def confidence_interval(
    point_estimate: float, se: float, alpha: float
) -> tuple[float, float]:
    """Symmetric normal interval around the point estimate."""
    if se < 0:
        raise ValueError(f"standard error must be >= 0, got {se}")
    z = z_percentile(alpha)
    return point_estimate - z * se, point_estimate + z * se


@dataclass(frozen=True)
class BootstrapReport:
    """Full error assessment for one query on one drawn sample."""

    point_estimate: float
    se_b: float
    alpha: float
    z: float
    ci_lower: float
    ci_upper: float
    B: int
    f: float
    n: int
    N: int
    seed: int
    mode: str

    def to_dict(self) -> dict:
        return {
            "point_estimate": self.point_estimate,
            "se_b": self.se_b,
            "alpha": self.alpha,
            "z": self.z,
            "ci": [self.ci_lower, self.ci_upper],
            "B": self.B,
            "f": self.f,
            "n": self.n,
            "N": self.N,
            "seed": self.seed,
            "mode": self.mode,
        }


class _stage:
    """Tag a ``QbsError``, ``ValueError`` or ``KeyError`` raised in the block as a
    ``PipelineError`` of stage ``name``; a ``PipelineError`` passes unchanged."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        if kind is not None and not issubclass(kind, PipelineError) and issubclass(
            kind, (QbsError, ValueError, KeyError)
        ):
            raise PipelineError(self.name, str(exc)) from exc


def assess_with_replications(
    table: TableData,
    query: QuerySpec,
    n: int,
    B: int,
    alpha: float = 0.05,
    mode: str = "quantum_sequential",
    seed: int | None = None,
) -> tuple[BootstrapReport, ReplicationSet]:
    """End-to-end error assessment, reproducible from the master seed.

    Draws the sample, evaluates the predicate, estimates the answer, runs
    B bootstrap replications in the requested mode, and wraps the standard
    error in a normal confidence interval. Failures carry their stage name.
    Returns the replication set alongside the report for callers that want
    to inspect or serialize the replications themselves.
    """
    if seed is None:
        seed = fresh_seed()
    with _stage("confidence_interval"):
        z = z_percentile(alpha)
    with _stage("draw_sample"):
        sample = draw_sample(table, n, derive_seed(seed, 0))
    with _stage("tuple_results"):
        results = tuple_results(sample, query)
    with _stage("estimate"):
        point = estimate(results)
    with _stage("replicate"):
        replications = replicate(results, B, mode, derive_seed(seed, 1))
    with _stage("bootstrap_se"):
        se = bootstrap_se(replications)
    with _stage("confidence_interval"):
        lower, upper = confidence_interval(point, se, alpha)
    report = BootstrapReport(
        point_estimate=point,
        se_b=se,
        alpha=alpha,
        z=z,
        ci_lower=lower,
        ci_upper=upper,
        B=B,
        f=results.f,
        n=results.n,
        N=table.N,
        seed=seed,
        mode=mode,
    )
    return report, replications


def assess(
    table: TableData,
    query: QuerySpec,
    n: int,
    B: int,
    alpha: float = 0.05,
    mode: str = "quantum_sequential",
    seed: int | None = None,
) -> BootstrapReport:
    """As ``assess_with_replications``, returning only the report."""
    report, _ = assess_with_replications(table, query, n, B, alpha, mode, seed)
    return report
