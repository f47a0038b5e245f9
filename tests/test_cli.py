import json

import pytest

from qbs.circuit import Circuit, controlled_x
from qbs.cli import main
from qbs.counter import CounterSpec

# `assess -n 4 -B 8 --seed 3 --format csv` on the alternating flag table;
# every line ends in \n
CSV_COMMENTS = """\
# command=assess
# version=0.1.0
# point_estimate=500.0
# se_b={se_b}
# alpha=0.05
# z=1.6448536269514715
# ci={ci}
# B=8
# f=0.002
# n=4
# N=2000
# seed=3
# mode={mode}
"""


def _pinned_csv(se_b: str, ci: str, mode: str, rows: str) -> str:
    table = ["replication,raw,estimate", *rows.split()]
    return CSV_COMMENTS.format(se_b=se_b, ci=ci, mode=mode) + "".join(
        line + "\n" for line in table
    )


CSV_REPLICATIONS = {
    "sequential": _pinned_csv(
        "377.9644730092272",
        "-121.6962342880289..1121.6962342880288",
        "quantum_sequential",
        "0,1,500.0 1,1,500.0 2,2,1000.0 3,0,0.0 4,2,1000.0 5,1,500.0 6,1,500.0 7,0,0.0",
    ),
    # the parallel engine's replications equal the sequential engine's
    "parallel": _pinned_csv(
        "377.9644730092272",
        "-121.6962342880289..1121.6962342880288",
        "quantum_parallel",
        "0,1,500.0 1,1,500.0 2,2,1000.0 3,0,0.0 4,2,1000.0 5,1,500.0 6,1,500.0 7,0,0.0",
    ),
    "oracle": _pinned_csv(
        "258.77458475338284",
        "74.35368570553726..925.6463142944627",
        "classical_oracle",
        "0,0,0.0 1,1,500.0 2,0,0.0 3,0,0.0 4,0,0.0 5,0,0.0 6,1,500.0 7,1,500.0",
    ),
}


@pytest.fixture
def alternating_bits_file(tmp_path):
    path = tmp_path / "alt.json"
    path.write_text(json.dumps({"bits": [0, 1, 0, 1, 0, 1, 0, 1]}))
    return str(path)


@pytest.fixture
def flag_table_file(tmp_path):
    path = tmp_path / "table.csv"
    lines = ["id,flag"] + [f"{i},{1 if i % 2 else 0}" for i in range(2000)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def count_query_file(tmp_path):
    path = tmp_path / "query.json"
    path.write_text(
        json.dumps(
            {
                "aggregate": "COUNT",
                "conditions": [{"column": "flag", "op": "=", "value": 1}],
            }
        )
    )
    return str(path)


class TestQramTest:
    def test_alternating_array_text(self, alternating_bits_file, capsys):
        code = main(
            ["qram-test", alternating_bits_file, "--shots", "1024", "--seed", "7"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "seed=7" in out
        # eight joint states, odd addresses carry data bit 1
        for address in range(8):
            assert f"{address:03b}" in out

    def test_counts_within_three_sigma(self, alternating_bits_file, capsys):
        code = main(
            ["qram-test", alternating_bits_file, "--seed", "7", "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["verified"] is True
        assert len(payload["states"]) == 8
        for state in payload["states"]:
            assert 96 <= state["count"] <= 160
            assert state["data_bit"] == state["address_decimal"] % 2

    def test_all_zero_array(self, tmp_path, capsys):
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps({"bits": [0, 0]}))
        code = main(["qram-test", str(path), "--seed", "1", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert all(s["data_bit"] == 0 for s in payload["states"])

    def test_deterministic_output(self, alternating_bits_file, capsys):
        main(["qram-test", alternating_bits_file, "--seed", "5"])
        first = capsys.readouterr().out
        main(["qram-test", alternating_bits_file, "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_csv_format(self, alternating_bits_file, capsys):
        code = main(
            ["qram-test", alternating_bits_file, "--seed", "5", "--format", "csv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "address_binary,address_decimal,data_bit,count" in out
        assert "# seed=5" in out
        assert "\r" not in out

    def test_missing_file(self, capsys):
        assert main(["qram-test", "/nope/missing.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_value_array_rejected(self, tmp_path, capsys):
        path = tmp_path / "values.json"
        path.write_text(json.dumps({"values": [1, 2], "width": 2}))
        assert main(["qram-test", str(path)]) == 2

    def test_non_list_bits_rejected(self, tmp_path, capsys):
        path = tmp_path / "bits.json"
        path.write_text(json.dumps({"bits": 5}))
        assert main(["qram-test", str(path)]) == 2
        assert "'bits' must be a list" in capsys.readouterr().err

    def test_non_integer_width_rejected(self, tmp_path, capsys):
        path = tmp_path / "values.json"
        path.write_text(json.dumps({"values": [1, 2], "width": [2]}))
        assert main(["qram-test", str(path)]) == 2
        assert "'width' must be an integer" in capsys.readouterr().err

    def test_out_file(self, alternating_bits_file, tmp_path):
        target = tmp_path / "report.json"
        code = main(
            [
                "qram-test",
                alternating_bits_file,
                "--seed",
                "3",
                "--format",
                "json",
                "--out",
                str(target),
            ]
        )
        assert code == 0
        assert json.loads(target.read_text())["seed"] == 3

    def test_entropy_seed_is_echoed(self, alternating_bits_file, capsys):
        code = main(["qram-test", alternating_bits_file, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert isinstance(payload["seed"], int)
        assert payload["seed"] >= 0


class TestCounterTest:
    def test_five_ones(self, capsys):
        code = main(["counter-test", "00011111", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "010100011111" in out
        assert "0101" in out
        assert "value 5" in out

    def test_all_zeros(self, capsys):
        code = main(["counter-test", "00000000", "--format", "json", "--seed", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["decoded_value"] == 0

    def test_json_fields(self, capsys):
        main(["counter-test", "00011111", "--format", "json", "--seed", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["full_bitstring"] == "010100011111"
        assert payload["full_bitstring_little_endian"] == "111110001010"
        assert payload["control_bits"] == "00011111"
        assert payload["counter_bits"] == "0101"
        assert payload["verified"] is True

    def test_exhaustive_eight_controls(self, capsys):
        code = main(["counter-test", "--exhaustive", "-p", "8", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "256/256 correct" in out

    def test_csv_format(self, capsys):
        code = main(["counter-test", "00011111", "--format", "csv", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "010100011111" in out
        assert "\r" not in out

    def test_invalid_bitstring(self, capsys):
        assert main(["counter-test", "01a1"]) == 2

    def test_no_input_is_usage_error(self, capsys):
        assert main(["counter-test"]) == 2

    def test_exhaustive_p_capped(self, capsys):
        assert main(["counter-test", "--exhaustive", "-p", "11"]) == 2


class TestAssess:
    def test_json_report_shape(self, flag_table_file, count_query_file, capsys):
        code = main(
            [
                "assess",
                flag_table_file,
                count_query_file,
                "-n",
                "8",
                "-B",
                "500",
                "--mode",
                "oracle",
                "--seed",
                "11",
            ]
            + ["--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["mode"] == "classical_oracle"
        assert payload["seed"] == 11
        # definitional width identity at float precision
        width = payload["ci"][1] - payload["ci"][0]
        assert width == pytest.approx(2 * payload["z"] * payload["se_b"], rel=1e-12)

    def test_json_round_trips(self, flag_table_file, count_query_file, capsys):
        main(
            [
                "assess",
                flag_table_file,
                count_query_file,
                "-n",
                "4",
                "-B",
                "100",
                "--mode",
                "oracle",
                "--seed",
                "4",
                "--format",
                "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert json.loads(json.dumps(payload)) == payload

    def test_alpha_usage_error(self, flag_table_file, count_query_file, capsys):
        code = main(
            [
                "assess",
                flag_table_file,
                count_query_file,
                "-n",
                "4",
                "-B",
                "100",
                "--alpha",
                "0.7",
                "--seed",
                "1",
            ]
        )
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_sequential_vs_oracle_se_ratio(
        self, flag_table_file, count_query_file, capsys
    ):
        reports = {}
        for mode in ("sequential", "oracle"):
            main(
                [
                    "assess",
                    flag_table_file,
                    count_query_file,
                    "-n",
                    "8",
                    "-B",
                    "5000",
                    "--mode",
                    mode,
                    "--seed",
                    "19",
                    "--format",
                    "json",
                ]
            )
            reports[mode] = json.loads(capsys.readouterr().out)
        ratio = reports["sequential"]["se_b"] / reports["oracle"]["se_b"]
        assert 0.85 <= ratio <= 1.15

    def test_text_histogram(self, flag_table_file, count_query_file, capsys):
        code = main(
            [
                "assess",
                flag_table_file,
                count_query_file,
                "-n",
                "8",
                "-B",
                "300",
                "--mode",
                "oracle",
                "--seed",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "point estimate" in out
        assert "█" in out

    @pytest.mark.parametrize("n", ["8", "16", "64"])
    def test_parallel_mode_matches_sequential(
        self, flag_table_file, count_query_file, n, capsys
    ):
        rows = {}
        for mode in ("parallel", "sequential"):
            args = ["assess", flag_table_file, count_query_file, "-n", n, "-B", "10"]
            code = main(args + ["--mode", mode, "--seed", "1", "--format", "csv"])
            assert code == 0
            lines = capsys.readouterr().out.splitlines()
            rows[mode] = lines[lines.index("replication,raw,estimate"):]
        assert len(rows["parallel"]) == 11
        assert rows["parallel"] == rows["sequential"]

    def test_parallel_mode_rejects_sum(self, flag_table_file, tmp_path, capsys):
        query = tmp_path / "sum.json"
        query.write_text(json.dumps({"aggregate": "SUM", "target_column": "id"}))
        args = ["assess", flag_table_file, str(query), "-n", "4", "-B", "10"]
        assert main(args + ["--mode", "parallel", "--seed", "1"]) == 2
        assert "COUNT" in capsys.readouterr().err

    @pytest.mark.parametrize("conditions", [["flag"], 5], ids=["string-entry", "number"])
    def test_malformed_conditions_rejected(self, flag_table_file, tmp_path, capsys, conditions):
        query = tmp_path / "query.json"
        query.write_text(json.dumps({"aggregate": "COUNT", "conditions": conditions}))
        assert main(["assess", flag_table_file, str(query), "-n", "4", "-B", "8"]) == 2
        assert "query field 'conditions" in capsys.readouterr().err

    def test_non_list_table_row_rejected(self, count_query_file, tmp_path, capsys):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"columns": ["a"], "rows": [1, 2]}))
        assert main(["assess", str(table), count_query_file, "-n", "1", "-B", "2"]) == 2
        assert "field 'rows' entry 0 must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["sequential", "parallel", "oracle"])
    def test_csv_replications(self, flag_table_file, count_query_file, mode, capsys):
        code = main(
            [
                "assess",
                flag_table_file,
                count_query_file,
                "-n",
                "4",
                "-B",
                "8",
                "--mode",
                mode,
                "--seed",
                "3",
                "--format",
                "csv",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out == CSV_REPLICATIONS[mode]
        assert "\r" not in out


class TestSelfcheck:
    def test_passes_and_is_stable(self, capsys):
        import time

        started = time.perf_counter()
        assert main(["selfcheck"]) == 0
        assert time.perf_counter() - started < 60
        first = capsys.readouterr().out
        assert "all checks passed" in first
        assert "version=" in first
        assert main(["selfcheck"]) == 0
        assert capsys.readouterr().out == first

    def test_corrupted_counter_is_caught(self, monkeypatch, capsys):
        # ascending inner loop breaks carry propagation; the popcount check
        # must notice (negative control for the whole suite)
        def corrupted(spec: CounterSpec) -> Circuit:
            circuit = Circuit(spec.num_qubits)
            for i in range(spec.p - 1, -1, -1):
                for j in range(spec.q):
                    controls = (i,) + tuple(spec.p + k for k in range(j))
                    circuit.append(controlled_x(controls, spec.p + j))
            return circuit

        monkeypatch.setattr("qbs.counter.build_counter", corrupted)
        assert main(["selfcheck"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
