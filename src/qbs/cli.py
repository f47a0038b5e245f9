"""Command-line interface.

Subcommands: ``qram-test`` (resampler circuit demo over a stored bit
array), ``counter-test`` (popcount circuit on a control pattern, or an
exhaustive sweep), ``assess`` (end-to-end query error assessment), and
``selfcheck`` (embedded invariant suite).

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
The outputs of ``qram-test`` and ``assess`` record the seed so runs can be
reproduced exactly; ``counter-test`` measures basis inputs, which needs no
seed, and ``selfcheck`` uses fixed embedded seeds.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from typing import Callable

from . import __version__
from .aqp import assess_with_replications, load_query, load_table
from .bootstrap import (
    MODE_ORACLE,
    MODE_PARALLEL,
    MODE_SEQUENTIAL,
    ReplicationSet,
)
from .circuit import register_value
from .counter import CounterSpec, measure_counter, popcount_failures
from .errors import QbsError
from .qram import build_qsa, load_data_array
from .rng import fresh_seed
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


def _report(
    args: argparse.Namespace,
    ok: bool,
    payload: dict,
    csv_table: Callable[[], tuple[list[str], list[list], dict]],
    text_lines: Callable[[], list[str]],
) -> int:
    """Write one command's result in the requested format; return its exit code.

    JSON is ``payload`` as is. ``csv_table`` returns ``(header, rows, comments)``
    and ``text_lines`` the text lines; only the requested one is called, so a
    JSON run never builds B CSV rows or a histogram.
    """
    if args.format == "json":
        text = json.dumps(payload)
    elif args.format == "csv":
        text = _csv_text(*csv_table())
    else:
        text = "\n".join(text_lines())
    _emit(text, args.out)
    return 0 if ok else 1


def cmd_qram_test(args: argparse.Namespace) -> int:
    data = load_data_array(args.data)
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
    payload = {
        "command": "qram-test",
        "version": __version__,
        "seed": seed,
        "shots": args.shots,
        "address_width": a,
        "states": states,
        "verified": verified,
    }

    def csv_table():
        return (
            ["address_binary", "address_decimal", "data_bit", "count"],
            [[s["address_binary"], s["address_decimal"], s["data_bit"], s["count"]] for s in states],
            {k: payload[k] for k in ("command", "version", "seed", "shots", "verified")},
        )

    def text_lines():
        return [
            f"qram-test  version={__version__}  seed={seed}  shots={args.shots}",
            f"{'address':>8}  {'decimal':>7}  {'data':>4}  {'count':>5}",
            *(
                f"{s['address_binary']:>8}  {s['address_decimal']:>7}  "
                f"{s['data_bit']:>4}  {s['count']:>5}"
                for s in states
            ),
            "",
            *_bars([(f"{s['address_binary']} d={s['data_bit']}", s["count"]) for s in states]),
            "",
            "data bits match the stored array" if verified else "MISMATCH against the stored array",
        ]

    return _report(args, verified, payload, csv_table, text_lines)


def cmd_counter_test(args: argparse.Namespace) -> int:
    if args.exhaustive is not None:
        p = args.exhaustive
        spec = CounterSpec.for_controls(p)
        if p > 10:
            raise ValueError("exhaustive mode supports p <= 10")
        failures = popcount_failures(spec)
        total = 1 << p
        correct = total - len(failures)
        verified = not failures
        payload = {
            "command": "counter-test",
            "version": __version__,
            "exhaustive": True,
            "p": p,
            "q": spec.q,
            "total": total,
            "correct": correct,
            "verified": verified,
        }

        def csv_table():
            return (
                ["p", "q", "total", "correct", "verified"],
                [[p, spec.q, total, correct, verified]],
                {"command": "counter-test", "version": __version__},
            )

        def text_lines():
            lines = [
                f"counter-test  version={__version__}  p={p}  q={spec.q}",
                f"{correct}/{total} correct",
            ]
            if failures:
                lines.append(
                    "first failures: " + ", ".join(format(f, f"0{p}b") for f in failures[:5])
                )
            return lines

        return _report(args, verified, payload, csv_table, text_lines)

    bits = args.controls
    if set(bits) - {"0", "1"}:
        raise ValueError(f"control bitstring must be 0/1, got {bits!r}")
    p = len(bits)
    spec = CounterSpec.for_controls(p)
    pattern = int(bits, 2)
    full, value = measure_counter(spec, pattern)
    expected = bin(pattern).count("1")
    verified = value == expected
    control_bits = format(register_value(int(full, 2), range(0, p)), f"0{p}b")
    counter_bits = format(value, f"0{spec.q}b")
    payload = {
        "command": "counter-test",
        "version": __version__,
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

    def csv_table():
        return (
            ["field", "value"],
            [[k, v] for k, v in payload.items() if k not in ("command", "version")],
            {"command": "counter-test", "version": __version__},
        )

    def text_lines():
        return [
            f"counter-test  version={__version__}  p={p}  q={spec.q}",
            f"full bitstring measured   {full}  (raw little-endian {full[::-1]})",
            f"control bits measured     {control_bits}  ({expected} ones)",
            f"counter bits measured     {counter_bits}  (binary of value {value})",
            "decoded value matches the popcount" if verified else "MISMATCH against the popcount",
        ]

    return _report(args, verified, payload, csv_table, text_lines)


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
    table = load_table(args.table)
    query = load_query(args.query)
    seed = args.seed if args.seed is not None else fresh_seed()
    mode = _CLI_MODES[args.mode]
    report, replications = assess_with_replications(
        table, query, n=args.n, B=args.reps, alpha=args.alpha, mode=mode, seed=seed
    )
    payload = {"command": "assess", "version": __version__}
    payload.update(report.to_dict())

    def csv_table():
        comments = {**payload, "ci": f"{report.ci_lower}..{report.ci_upper}"}
        # .tolist() keeps Python's int/float formatting, not numpy scalar reprs
        pairs = zip(replications.raw_counts().tolist(), replications.estimates().tolist())
        rows = [[j, raw, estimate] for j, (raw, estimate) in enumerate(pairs)]
        return ["replication", "raw", "estimate"], rows, comments

    def text_lines():
        return [
            f"assess  version={__version__}  seed={seed}  mode={mode}",
            f"sample: n={report.n} of N={report.N}  (f={report.f:g})  B={report.B}",
            f"point estimate  {report.point_estimate:g}",
            f"bootstrap se    {report.se_b:g}",
            f"{100 * (1 - 2 * report.alpha):g}% CI        "
            f"({report.ci_lower:g}, {report.ci_upper:g})   [z={report.z:.4f}]",
            "",
            "replication estimates:",
            *_bars(_estimate_histogram(replications)),
        ]

    return _report(args, True, payload, csv_table, text_lines)


def cmd_selfcheck(args: argparse.Namespace) -> int:
    from .selfcheck import run_selfcheck  # here, as only selfcheck needs scipy

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

    def output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    def seeded(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, help="64-bit master seed (default: entropy)")
        output(p)

    p_qram = sub.add_parser("qram-test", help="run the resampler over a stored bit array")
    p_qram.add_argument("data", help="JSON file: {\"bits\": [0, 1, ...]}")
    p_qram.add_argument("--shots", type=int, default=1024)
    seeded(p_qram)
    p_qram.set_defaults(func=cmd_qram_test)

    p_counter = sub.add_parser("counter-test", help="run the popcount counter circuit")
    controls = p_counter.add_mutually_exclusive_group(required=True)
    controls.add_argument("controls", nargs="?", help="control bits, most significant first")
    controls.add_argument(
        "--exhaustive", type=int, metavar="P", help="sweep all 2^P patterns of P control qubits"
    )
    output(p_counter)
    p_counter.set_defaults(func=cmd_counter_test)

    p_assess = sub.add_parser("assess", help="bootstrap error assessment for a query")
    p_assess.add_argument("table", help="table file: JSON if it ends in .json, else CSV")
    p_assess.add_argument("query", help="JSON query file")
    p_assess.add_argument("-n", type=int, required=True, help="sample size")
    p_assess.add_argument("-B", "--reps", type=int, default=1000, help="bootstrap replications")
    p_assess.add_argument("--alpha", type=float, default=0.05)
    p_assess.add_argument("--mode", choices=sorted(_CLI_MODES), default="sequential")
    seeded(p_assess)
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
