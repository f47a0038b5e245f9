"""Command-line interface.

Subcommands: ``qram-test`` (resampler circuit demo over a stored bit
array), ``counter-test`` (popcount circuit on a control pattern, or an
exhaustive sweep), ``assess`` (end-to-end query error assessment), and
``selfcheck`` (embedded invariant suite).

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Every output records the seed so runs can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import __version__
from .aqp import assess_with_replications, load_query, load_table
from .bootstrap import (
    MODE_ORACLE,
    MODE_PARALLEL,
    MODE_SEQUENTIAL,
    ReplicationSet,
)
from .circuit import register_value
from .counter import CounterSpec, measure_counter
from .errors import QbsError
from .qram import ValueDataArray, build_qsa, load_data_array
from .rng import fresh_seed
from .selfcheck import run_selfcheck
from .sim import sample

_CLI_MODES = {
    "sequential": MODE_SEQUENTIAL,
    "parallel": MODE_PARALLEL,
    "oracle": MODE_ORACLE,
}


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _bars(rows: list[tuple[str, int]], width: int = 40) -> list[str]:
    peak = max((count for _, count in rows), default=0) or 1
    label_width = max((len(label) for label, _ in rows), default=0)
    return [
        f"{label:>{label_width}}  {'█' * max(0, round(count / peak * width)):<{width}}  {count}"
        for label, count in rows
    ]


def _csv_text(header: list[str], rows: list[list], comments: dict) -> str:
    buffer = io.StringIO()
    for key, value in comments.items():
        buffer.write(f"# {key}={value}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def cmd_qram_test(args: argparse.Namespace) -> int:
    data = load_data_array(args.data)
    if isinstance(data, ValueDataArray):
        raise ValueError("qram-test needs a bit array file ({\"bits\": [...]})")
    seed = args.seed if args.seed is not None else fresh_seed()
    qsa = build_qsa(data)
    counts = sample(qsa, args.shots, seed)
    a = data.address_width
    address_range = range(0, a)
    data_range = qsa.register("data")
    states = []
    verified = True
    for bits, count in counts.entries.items():
        index = int(bits, 2)
        address = register_value(index, address_range)
        data_bit = register_value(index, data_range)
        if data_bit != data.bits[address]:
            verified = False
        states.append(
            {
                "address_binary": format(address, f"0{a}b"),
                "address_decimal": address,
                "data_bit": data_bit,
                "count": count,
            }
        )
    states.sort(key=lambda s: (s["address_decimal"], s["data_bit"]))

    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "command": "qram-test",
                    "version": __version__,
                    "seed": seed,
                    "shots": args.shots,
                    "address_width": a,
                    "states": states,
                    "verified": verified,
                }
            ),
            args.out,
        )
    elif args.format == "csv":
        _emit(
            _csv_text(
                ["address_binary", "address_decimal", "data_bit", "count"],
                [[s["address_binary"], s["address_decimal"], s["data_bit"], s["count"]] for s in states],
                {"command": "qram-test", "version": __version__, "seed": seed, "shots": args.shots},
            ),
            args.out,
        )
    else:
        lines = [
            f"qram-test  version={__version__}  seed={seed}  shots={args.shots}",
            f"{'address':>8}  {'decimal':>7}  {'data':>4}  {'count':>5}",
        ]
        for s in states:
            lines.append(
                f"{s['address_binary']:>8}  {s['address_decimal']:>7}  "
                f"{s['data_bit']:>4}  {s['count']:>5}"
            )
        lines.append("")
        lines.extend(
            _bars([(f"{s['address_binary']} d={s['data_bit']}", s["count"]) for s in states])
        )
        lines.append("")
        lines.append(
            "data bits match the stored array" if verified else "MISMATCH against the stored array"
        )
        _emit("\n".join(lines), args.out)
    return 0 if verified else 1


def cmd_counter_test(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else fresh_seed()
    if args.exhaustive:
        p = args.p
        spec = CounterSpec.for_controls(p)
        if p > 10:
            raise ValueError("exhaustive mode supports p <= 10")
        correct = 0
        failures = []
        for pattern in range(1 << p):
            _, value = measure_counter(spec, pattern, seed)
            if value == bin(pattern).count("1"):
                correct += 1
            elif len(failures) < 5:
                failures.append(format(pattern, f"0{p}b"))
        total = 1 << p
        verified = correct == total
        if args.format == "json":
            _emit(
                json.dumps(
                    {
                        "command": "counter-test",
                        "version": __version__,
                        "seed": seed,
                        "exhaustive": True,
                        "p": p,
                        "q": spec.q,
                        "total": total,
                        "correct": correct,
                        "verified": verified,
                    }
                ),
                args.out,
            )
        elif args.format == "csv":
            _emit(
                _csv_text(
                    ["p", "q", "total", "correct", "verified"],
                    [[p, spec.q, total, correct, verified]],
                    {"command": "counter-test", "version": __version__, "seed": seed},
                ),
                args.out,
            )
        else:
            lines = [
                f"counter-test  version={__version__}  seed={seed}  p={p}  q={spec.q}",
                f"{correct}/{total} correct",
            ]
            if failures:
                lines.append("first failures: " + ", ".join(failures))
            _emit("\n".join(lines), args.out)
        return 0 if verified else 1

    if args.controls is None:
        raise ValueError("pass a control bitstring or --exhaustive")
    bits = args.controls
    if set(bits) - {"0", "1"}:
        raise ValueError(f"control bitstring must be 0/1, got {bits!r}")
    p = len(bits)
    spec = CounterSpec.for_controls(p)
    pattern = int(bits, 2)
    full, value = measure_counter(spec, pattern, seed)
    expected = bin(pattern).count("1")
    verified = value == expected
    control_bits = format(register_value(int(full, 2), range(0, p)), f"0{p}b")
    counter_bits = format(value, f"0{spec.q}b")
    payload = {
        "command": "counter-test",
        "version": __version__,
        "seed": seed,
        "p": p,
        "q": spec.q,
        "full_bitstring": full,
        "full_bitstring_little_endian": full[::-1],
        "control_bits": control_bits,
        "counter_bits": counter_bits,
        "decoded_value": value,
        "expected_popcount": expected,
        "verified": verified,
    }
    if args.format == "json":
        _emit(json.dumps(payload), args.out)
    elif args.format == "csv":
        _emit(
            _csv_text(
                ["field", "value"],
                [[k, v] for k, v in payload.items() if k not in ("command", "version")],
                {"command": "counter-test", "version": __version__},
            ),
            args.out,
        )
    else:
        lines = [
            f"counter-test  version={__version__}  seed={seed}  p={p}  q={spec.q}",
            f"full bitstring measured   {full}  (raw little-endian {full[::-1]})",
            f"control bits measured     {control_bits}  ({expected} ones)",
            f"counter bits measured     {counter_bits}  (binary of value {value})",
            "decoded value matches the popcount" if verified else "MISMATCH against the popcount",
        ]
        _emit("\n".join(lines), args.out)
    return 0 if verified else 1


def _estimate_histogram(replications: ReplicationSet, max_bars: int = 24) -> list[tuple[str, int]]:
    estimates = replications.estimates()
    distinct = sorted(set(float(e) for e in estimates))
    if len(distinct) <= max_bars:
        return [
            (f"{value:g}", int((estimates == value).sum())) for value in distinct
        ]
    lo, hi = min(distinct), max(distinct)
    edges = [lo + (hi - lo) * k / max_bars for k in range(max_bars + 1)]
    rows = []
    for k in range(max_bars):
        upper = edges[k + 1]
        in_bin = (estimates >= edges[k]) & ((estimates < upper) | (k == max_bars - 1))
        rows.append((f"[{edges[k]:g}, {upper:g})", int(in_bin.sum())))
    return rows


def cmd_assess(args: argparse.Namespace) -> int:
    table = load_table(args.table, args.table_format)
    query = load_query(args.query)
    seed = args.seed if args.seed is not None else fresh_seed()
    mode = _CLI_MODES[args.mode]
    report, replications = assess_with_replications(
        table, query, n=args.n, B=args.reps, alpha=args.alpha, mode=mode, seed=seed
    )
    if args.format == "json":
        payload = {"command": "assess", "version": __version__}
        payload.update(report.to_dict())
        _emit(json.dumps(payload), args.out)
    elif args.format == "csv":
        comments = {"command": "assess", "version": __version__}
        comments.update(report.to_dict())
        comments["ci"] = f"{report.ci_lower}..{report.ci_upper}"
        # .tolist() keeps Python's int/float formatting, not numpy scalar reprs
        pairs = zip(replications.raw_counts().tolist(), replications.estimates().tolist())
        _emit(
            _csv_text(
                ["replication", "raw", "estimate"],
                [[j, raw, estimate] for j, (raw, estimate) in enumerate(pairs)],
                comments,
            ),
            args.out,
        )
    else:
        lines = [
            f"assess  version={__version__}  seed={seed}  mode={mode}",
            f"sample: n={report.n} of N={report.N}  (f={report.f:g})  B={report.B}",
            f"point estimate  {report.point_estimate:g}",
            f"bootstrap se    {report.se_b:g}",
            f"{100 * (1 - 2 * report.alpha):g}% CI        "
            f"({report.ci_lower:g}, {report.ci_upper:g})   [z={report.z:.4f}]",
            "",
            "replication estimates:",
        ]
        lines.extend(_bars(_estimate_histogram(replications)))
        _emit("\n".join(lines), args.out)
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    lines = [f"selfcheck  version={__version__}  (fixed embedded seeds)"]
    ok = run_selfcheck(lines.append)
    _emit("\n".join(lines), args.out)
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbs",
        description="Bootstrap resampling on simulated quantum circuits, "
        "with error assessment for approximate queries.",
    )
    parser.add_argument("--version", action="version", version=f"qbs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, help="64-bit master seed (default: entropy)")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    p_qram = sub.add_parser("qram-test", help="run the resampler over a stored bit array")
    p_qram.add_argument("data", help="JSON file: {\"bits\": [0, 1, ...]}")
    p_qram.add_argument("--shots", type=int, default=1024)
    common(p_qram)
    p_qram.set_defaults(func=cmd_qram_test)

    p_counter = sub.add_parser("counter-test", help="run the popcount counter circuit")
    p_counter.add_argument(
        "controls", nargs="?", default=None, help="control bits, most significant first"
    )
    p_counter.add_argument("--exhaustive", action="store_true", help="sweep all 2^p patterns")
    p_counter.add_argument("-p", type=int, default=8, help="control qubits for --exhaustive")
    common(p_counter)
    p_counter.set_defaults(func=cmd_counter_test)

    p_assess = sub.add_parser("assess", help="bootstrap error assessment for a query")
    p_assess.add_argument("table", help="CSV (header row) or JSON table file")
    p_assess.add_argument("query", help="JSON query file")
    p_assess.add_argument("-n", type=int, required=True, help="sample size")
    p_assess.add_argument("-B", "--reps", type=int, default=1000, help="bootstrap replications")
    p_assess.add_argument("--alpha", type=float, default=0.05)
    p_assess.add_argument("--mode", choices=sorted(_CLI_MODES), default="sequential")
    p_assess.add_argument("--table-format", choices=("csv", "json"), default=None)
    common(p_assess)
    p_assess.set_defaults(func=cmd_assess)

    p_check = sub.add_parser("selfcheck", help="run the embedded invariant suite")
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QbsError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
