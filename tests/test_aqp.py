import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qbs.aqp import (
    _MEMO_CHECK_ROWS,
    Condition,
    QuerySpec,
    TableData,
    assess,
    assess_with_replications,
    bootstrap_se,
    confidence_interval,
    draw_sample,
    estimate,
    load_table,
    parse_query,
    row_matches,
    tuple_results,
    z_percentile,
)
from qbs.bootstrap import MODE_ORACLE, ReplicationSet, SampleResults
from qbs.errors import PipelineError

from helpers import interpret_row, stdev_by_hand


csv_fields = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.text("abxyz", min_size=1, max_size=4),
)


@st.composite
def csv_texts(draw):
    """CSV text with padded fields, blank lines and few distinct values per column."""
    width = draw(st.integers(1, 4))
    pools = [draw(st.lists(csv_fields, min_size=1, max_size=4)) for _ in range(width)]
    pad = st.text(" ", max_size=2)
    lines = [",".join(f"{draw(pad)}c{j}{draw(pad)}" for j in range(width))]
    for _ in range(draw(st.integers(1, 20))):
        if draw(st.booleans()):
            lines.append("")
        fields = (draw(pad) + draw(st.sampled_from(pool)) + draw(pad) for pool in pools)
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def parse_rowwise(text):
    """Reference parse: rows of stripped fields, each column int, else float, else str."""
    header, *lines = text.split("\n")
    rows = [[field.strip() for field in line.split(",")] for line in lines if line]
    typed = []
    for column in zip(*rows):
        for kind in (int, float, str):
            try:
                typed.append([kind(v) for v in column])
                break
            except ValueError:
                pass
    return tuple(name.strip() for name in header.split(",")), tuple(zip(*typed))


class TestLoadTable:
    @given(csv_texts())
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    def test_csv_matches_rowwise_parse(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        table = load_table(path)
        columns, rows = parse_rowwise(text)
        assert table.columns == columns
        assert table.rows == rows
        assert [tuple(map(type, r)) for r in table.rows] == [tuple(map(type, r)) for r in rows]

    def test_repeated_text_stored_once(self, tmp_path):
        path = tmp_path / "t.csv"
        regions = ("north", "south", "east")
        path.write_text("id,region\n" + "".join(f"{i}, {regions[i % 3]}\n" for i in range(300)))
        loaded = [region for _, region in load_table(path).rows]
        assert len({id(r) for r in loaded}) == 3

    def test_unique_and_repeated_columns_match_rowwise_parse(self, tmp_path):
        # "unique" never repeats, so its memo is dropped at the check; "late"
        # is unique up to the check and repeats after it; "rep" repeats
        rows = 3 * _MEMO_CHECK_ROWS
        text = "unique,rep,late\n" + "".join(
            f"u{i}, r{i % 5} ,{i if i < 2 * _MEMO_CHECK_ROWS else i % 7}\n" for i in range(rows)
        )
        path = tmp_path / "t.csv"
        path.write_text(text)
        table = load_table(path)
        assert (table.columns, table.rows) == parse_rowwise(text)
        assert len({id(row[1]) for row in table.rows}) == 5

    def test_load_peak_memory(self, tmp_path):
        # tracemalloc peak of this load on Python 3.11: 19.05 MiB when the
        # CSV was held row by row, 7.17 MiB column by column
        regions = ("north", "south", "east", "west")
        path = tmp_path / "t.csv"
        path.write_text("id,flag,region,val\n" + "".join(
            f"{i},{i % 2},{regions[i * 7 // 3 % 4]},{16 + i * 5 % 16}\n" for i in range(50_000)
        ))
        tracemalloc.start()
        try:
            table = load_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.N == 50_000
        assert peak < 12 * 2**20

    def test_small_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,age\n1,25\n2,40\n3,31\n")
        table = load_table(path)
        assert table.N == 3
        assert table.rows[1] == (2, 40)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,age\n1,25\n2\n")
        with pytest.raises(ValueError, match=":3"):
            load_table(path)

    def test_large_generated_table(self, tmp_path, make_flag_table):
        table = make_flag_table(10000, 5000, shuffle_seed=1)
        path = tmp_path / "big.csv"
        path.write_text(
            "id,flag\n" + "\n".join(f"{i},{f}" for i, f in table.rows) + "\n"
        )
        assert load_table(path).N == 10000

    def test_type_inference_fallbacks(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,1.5,x\n2,2,y\n")
        table = load_table(path)
        assert table.rows[0] == (1, 1.5, "x")
        assert isinstance(table.rows[1][1], float)

    def test_empty_table_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_table(path)

    def test_blank_line_file_has_no_data_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_table(path)

    def test_short_row_line_counts_blank_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n\n3\n")
        with pytest.raises(ValueError, match=r":4: expected 2 fields, got 1"):
            load_table(path)

    def test_duplicate_csv_column_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a, a\n1,2\n")
        with pytest.raises(ValueError, match="duplicate column 'a'"):
            load_table(path)

    def test_duplicate_json_column_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"columns": ["b", "a", "b"], "rows": [[1, 2, 3]]}))
        with pytest.raises(ValueError, match="duplicate column 'b'"):
            load_table(path)

    def test_json_boolean_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"columns": ["flag"], "rows": [[1], [True]]}))
        with pytest.raises(ValueError, match="row 1 holds unsupported value True"):
            load_table(path)

    def test_json_table(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"columns": ["a"], "rows": [[1], [2]]}))
        table = load_table(path)
        assert table.N == 2

    def test_json_row_width_checked(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"columns": ["a", "b"], "rows": [[1]]}))
        with pytest.raises(ValueError, match="row 0"):
            load_table(path)


class TestDrawSample:
    def test_full_sample_is_permutation(self, make_flag_table):
        table = make_flag_table(20, 7, shuffle_seed=3)
        sample = draw_sample(table, 20, seed=1)
        assert sample.f == 1.0
        assert sorted(sample.rows) == sorted(table.rows)

    def test_fraction_is_exact_quotient(self, make_flag_table):
        table = make_flag_table(10000, 1, shuffle_seed=None)
        assert draw_sample(table, 8, seed=2).f == 0.0008

    def test_oversized_sample_rejected(self, make_flag_table):
        table = make_flag_table(4, 1)
        with pytest.raises(ValueError):
            draw_sample(table, 5, seed=0)

    def test_single_row_draws_are_uniform(self, make_flag_table):
        table = make_flag_table(4, 2)
        hits = np.zeros(4)
        for seed in range(10000):
            (row,) = draw_sample(table, 1, seed=seed).rows
            hits[row[0]] += 1
        assert all(0.23 <= h / 10000 <= 0.27 for h in hits)


conditions_strategy = st.lists(
    st.builds(
        Condition,
        column=st.sampled_from(["a", "b"]),
        op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        value=st.integers(-3, 3),
    ),
    max_size=3,
).map(tuple)


class TestTupleResults:
    def _sample(self, rows, columns=("age",)):
        return draw_sample(TableData(columns, tuple(rows)), len(rows), seed=0)

    def test_simple_comparison(self):
        sample = self._sample([(25,), (40,), (31,)])
        query = QuerySpec("COUNT", (Condition("age", ">", 30),))
        results = tuple_results(sample, query)
        assert sorted(results.values) == [0, 1, 1]
        assert results.match_count == 2

    def test_empty_conjunction_selects_everything(self):
        sample = self._sample([(1,), (2,)])
        results = tuple_results(sample, QuerySpec("COUNT"))
        assert results.values == (1, 1)

    def test_unknown_column(self):
        sample = self._sample([(1,)])
        with pytest.raises(ValueError, match="unknown column"):
            tuple_results(sample, QuerySpec("COUNT", (Condition("nope", "=", 1),)))

    def test_unknown_column_after_a_condition_no_row_meets(self):
        sample = self._sample([(0,), (0,)], columns=("a",))
        for query in (
            QuerySpec("COUNT", (Condition("a", "=", 1), Condition("zzz", "=", 1))),
            QuerySpec("SUM", (Condition("a", "=", 1),), target_column="zzz"),
        ):
            with pytest.raises(ValueError, match="unknown column 'zzz'"):
                tuple_results(sample, query)

    def test_type_mismatch(self):
        sample = self._sample([("x",)])
        with pytest.raises(ValueError, match="type mismatch"):
            tuple_results(sample, QuerySpec("COUNT", (Condition("age", "<", 3),)))

    def test_sum_keeps_values_of_matching_rows(self):
        sample = self._sample([(2, 10), (5, 20)], columns=("k", "v"))
        query = QuerySpec("SUM", (Condition("k", ">", 3),), target_column="v")
        results = tuple_results(sample, query)
        assert sorted(results.values) == [0, 20]
        assert results.aggregate == "SUM"

    def test_sum_rejects_non_integer_targets(self):
        sample = self._sample([(1.5,)], columns=("v",))
        query = QuerySpec("SUM", (), target_column="v")
        with pytest.raises(ValueError, match="non-negative"):
            tuple_results(sample, query)

    def test_row_matches_rejects_an_unknown_column_whatever_the_row(self):
        conditions = [Condition("a", "=", 2), Condition("zz", "=", 1)]
        for row in ((1,), (2,)):
            with pytest.raises(ValueError, match="unknown column 'zz'"):
                row_matches(("a",), row, conditions)

    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=12
        ),
        conditions_strategy,
    )
    def test_matches_row_interpreter_oracle(self, rows, conditions):
        columns = ("a", "b")
        for row in rows:
            assert row_matches(columns, row, conditions) == interpret_row(
                columns, row, conditions
            )


class TestEstimate:
    def test_count_scaling(self):
        results = SampleResults((1, 0, 1, 1), population_size=10)
        assert estimate(results) == pytest.approx(7.5)

    def test_all_zero(self):
        results = SampleResults((0, 0), population_size=10)
        assert estimate(results) == 0.0

    def test_avg_uses_matching_rows(self):
        results = SampleResults(
            (4, 0, 2), population_size=9, aggregate="AVG", match_count=2
        )
        assert estimate(results) == 3.0

    def test_avg_zero_matches_is_an_error(self):
        results = SampleResults(
            (0, 0), population_size=4, aggregate="AVG", match_count=0
        )
        with pytest.raises(ValueError, match="no rows match"):
            estimate(results)

    def test_spread_over_repeated_draws(self, make_flag_table):
        # 3000 of 10000 rows match; estimates concentrate near 3000
        table = make_flag_table(10000, 3000, shuffle_seed=5)
        query = QuerySpec("COUNT", (Condition("flag", "=", 1),))
        inside = 0
        for seed in range(200):
            results = tuple_results(draw_sample(table, 100, seed=seed), query)
            inside += 2000 <= estimate(results) <= 4000
        assert inside / 200 >= 0.95

    def test_empirically_unbiased(self, make_flag_table):
        table = make_flag_table(2000, 700, shuffle_seed=7)
        query = QuerySpec("COUNT", (Condition("flag", "=", 1),))
        n, runs = 64, 1000
        estimates = np.array(
            [
                estimate(tuple_results(draw_sample(table, n, seed=s), query))
                for s in range(runs)
            ]
        )
        # hypergeometric sd of one estimate, shrunk by sqrt(runs)
        p = 700 / 2000
        sd_one = math.sqrt(n * p * (1 - p) * (2000 - n) / (2000 - 1)) / (n / 2000)
        assert abs(estimates.mean() - 700) <= 3 * sd_one / math.sqrt(runs)


class TestBootstrapSe:
    def _set(self, estimates):
        raws = np.array(estimates, dtype=np.int64)
        return ReplicationSet(raws, raws / 1.0, MODE_ORACLE, 0)

    def test_two_replications_by_hand(self):
        assert bootstrap_se(self._set([2, 4])) == pytest.approx(math.sqrt(2))
        assert stdev_by_hand([2, 4]) == pytest.approx(math.sqrt(2))

    def test_identical_replications(self):
        assert bootstrap_se(self._set([3, 3, 3])) == 0.0

    def test_single_replication_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_se(self._set([1]))

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=40))
    def test_matches_direct_formula_and_permutation_invariant(self, values):
        direct = stdev_by_hand(values)
        assert bootstrap_se(self._set(values)) == pytest.approx(direct, abs=1e-12)
        assert bootstrap_se(self._set(list(reversed(values)))) == pytest.approx(
            direct, abs=1e-12
        )

    def test_equals_numpy_std_to_the_bit(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            B = int(rng.integers(2, 300))
            scale = 10.0 ** rng.integers(-3, 12)
            estimates = rng.standard_normal(B) * scale + rng.integers(-5, 6) * scale
            if rng.random() < 0.1:
                estimates = np.full(B, estimates[0])
            replications = ReplicationSet(np.zeros(B, np.int64), estimates, MODE_ORACLE, 0)
            assert bootstrap_se(replications) == float(np.std(estimates, ddof=1))

    def test_binomial_plug_in_target(self, alternating_sample):
        from qbs.bootstrap import classical_bootstrap_oracle

        se = bootstrap_se(classical_bootstrap_oracle(alternating_sample, 5000, seed=40))
        target = math.sqrt(8 * 0.5 * 0.5) / 0.5
        assert abs(se - target) / target <= 0.15


class TestConfidenceInterval:
    def test_z_constants(self):
        assert abs(z_percentile(0.05) - 1.645) <= 0.001
        assert abs(z_percentile(0.025) - 1.960) <= 0.001

    def test_interval_fixture(self):
        lower, upper = confidence_interval(100.0, 10.0, 0.05)
        assert lower == pytest.approx(83.55, abs=0.01)
        assert upper == pytest.approx(116.45, abs=0.01)

    def test_alpha_range(self):
        for alpha in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ValueError):
                confidence_interval(1.0, 1.0, alpha)

    def test_negative_se_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval(1.0, -0.5, 0.05)

    def test_endpoints_follow_definition_exactly(self):
        point, se, alpha = 100.0, 10.0, 0.05
        z = z_percentile(alpha)
        lower, upper = confidence_interval(point, se, alpha)
        assert lower == point - z * se
        assert upper == point + z * se

    @given(
        st.floats(0.001, 0.499),
        st.floats(0.001, 0.499),
        st.floats(0, 1e6),
    )
    def test_alpha_monotonicity(self, alpha_a, alpha_b, se):
        smaller, larger = sorted((alpha_a, alpha_b))
        lo_s, hi_s = confidence_interval(0.0, se, smaller)
        lo_l, hi_l = confidence_interval(0.0, se, larger)
        assert hi_s - lo_s >= hi_l - lo_l


class TestQueryParsing:
    def test_operator_aliases(self):
        for alias, canonical in (("==", "="), ("≠", "!="), ("≤", "<="), ("≥", ">=")):
            assert Condition("c", alias, 1).op == canonical

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            Condition("c", "~", 1)

    def test_count_takes_no_target(self):
        with pytest.raises(ValueError):
            QuerySpec("COUNT", (), target_column="v")

    def test_sum_needs_target(self):
        with pytest.raises(ValueError):
            QuerySpec("SUM", ())

    def test_parse_round_trip(self):
        query = parse_query(
            {
                "aggregate": "count",
                "conditions": [{"column": "age", "op": ">=", "value": 21}],
            }
        )
        assert query.aggregate == "COUNT"
        assert query.conditions == (Condition("age", ">=", 21),)


class TestAssess:
    def test_degenerate_certainty(self, make_flag_table):
        table = make_flag_table(16, 16)
        query = QuerySpec("COUNT", (Condition("flag", "=", 1),))
        report = assess(table, query, n=16, B=50, mode=MODE_ORACLE, seed=3)
        assert report.point_estimate == 16.0
        assert report.se_b == 0.0
        assert report.ci_lower == report.ci_upper == 16.0

    def test_byte_identical_reports(self, make_flag_table):
        table = make_flag_table(64, 32, shuffle_seed=9)
        query = QuerySpec("COUNT", (Condition("flag", "=", 1),))
        first = assess(table, query, n=8, B=60, mode=MODE_ORACLE, seed=77)
        second = assess(table, query, n=8, B=60, mode=MODE_ORACLE, seed=77)
        assert first.to_dict() == second.to_dict()

    def test_ci_coverage_over_master_seeds(self, make_flag_table):
        table = make_flag_table(10000, 5000, shuffle_seed=6)
        query = QuerySpec("COUNT", (Condition("flag", "=", 1),))
        hits = 0
        for seed in range(100):
            report = assess(
                table, query, n=8, B=1000, alpha=0.05, mode=MODE_ORACLE, seed=seed
            )
            hits += report.ci_lower <= 5000 <= report.ci_upper
        assert hits >= 80

    def test_unknown_column_tagged_with_stage(self, make_flag_table):
        table = make_flag_table(8, 4)
        query = QuerySpec("COUNT", (Condition("ghost", "=", 1),))
        with pytest.raises(PipelineError, match="tuple_results") as exc_info:
            assess(table, query, n=4, B=10, mode=MODE_ORACLE, seed=0)
        assert exc_info.value.stage == "tuple_results"

    @pytest.mark.parametrize("mode", ["quantum_sequential", MODE_ORACLE])
    def test_unknown_column_behind_a_false_condition(self, make_flag_table, mode):
        # no row has flag = 1, so only the up-front lookup can catch "zzz"
        table = make_flag_table(8, 0)
        query = QuerySpec("COUNT", (Condition("flag", "=", 1), Condition("zzz", "=", 1)))
        with pytest.raises(PipelineError, match="zzz") as exc_info:
            assess(table, query, n=4, B=10, mode=mode, seed=0)
        assert exc_info.value.stage == "tuple_results"

    def test_bad_alpha_tagged_with_stage(self, make_flag_table):
        table = make_flag_table(8, 4)
        with pytest.raises(PipelineError, match="confidence_interval"):
            assess(table, QuerySpec("COUNT"), n=4, B=10, alpha=0.9, mode=MODE_ORACLE, seed=0)

    def test_quantum_and_oracle_se_agree(self, make_flag_table):
        table = make_flag_table(16, 8, shuffle_seed=4)
        query = QuerySpec("COUNT", (Condition("flag", "=", 1),))
        quantum, _ = assess_with_replications(
            table, query, n=8, B=2000, mode="quantum_sequential", seed=13
        )
        classical, _ = assess_with_replications(
            table, query, n=8, B=2000, mode=MODE_ORACLE, seed=13
        )
        assert quantum.point_estimate == classical.point_estimate
        ratio = quantum.se_b / classical.se_b
        assert 0.85 <= ratio <= 1.15


class TestCoverage:
    """Fixed-seed interval coverage: 300 master seeds, n=64 of N=4096, B=200.

    Nominal coverage at alpha 0.05 is 0.90; 0.85..0.95 is its 3-sigma
    binomial band over 300 seeds. AVG stays out until its bootstrap
    resamples the ratio estimator it reports (ROADMAP item 2).
    """

    # 30 % of the rows flagged, values 0..31
    ROWS = tuple((i, int(i % 10 < 3), 7 * i % 32) for i in range(4096))
    TRUTH = {
        "COUNT": sum(flag for _, flag, _ in ROWS),
        "SUM": sum(val for _, flag, val in ROWS if flag),
    }

    @pytest.mark.parametrize("aggregate", ["COUNT", "SUM"])
    @pytest.mark.parametrize("mode", [MODE_ORACLE, "quantum_sequential"])
    def test_coverage_near_nominal(self, mode, aggregate):
        table = TableData(("id", "flag", "val"), self.ROWS)
        target = "val" if aggregate == "SUM" else None
        query = QuerySpec(aggregate, (Condition("flag", "=", 1),), target_column=target)
        truth = self.TRUTH[aggregate]
        hits = 0
        for seed in range(300):
            report = assess(table, query, n=64, B=200, alpha=0.05, mode=mode, seed=seed)
            hits += report.ci_lower <= truth <= report.ci_upper
        assert 0.85 <= hits / 300 <= 0.95
