#!/usr/bin/env python3
"""Merge one run's observability artifacts into a single markdown report.

Usage:
    scripts/report.py [--stats=FILE] [--metrics=FILE] [--summary=FILE]
                      [--title=STR] [--out=FILE] [--max-rounds=N]

Inputs (each optional, at least one required; a missing or unparsable
file is reported as an absent section, not an error):
  --stats=FILE    chase_cli --stats-json output (rounds, rules, memory)
  --metrics=FILE  --metrics-json snapshot (counters, gauges, latency
                  histograms, per-phase perf section)
  --summary=FILE  the .summary.json flame sidecar written next to a
                  --trace file (per-span totals, dropped-event count)

Output: markdown on stdout or --out=FILE. CI uploads it as the run
report artifact; humans read it directly.

Exit status: 0 when a report was produced, 1 on usage errors (no inputs
at all, unwritable --out).
"""

import argparse
import json
import sys


def load_json(path, label, notes):
    """Parse one input; on failure record a note and return None."""
    if not path:
        return None
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        notes.append(f"{label} ({path}) could not be read: {error}")
        return None


def fmt_ns(ns):
    """Human duration from nanoseconds: 412 ns, 3.1 us, 18.4 ms, 2.50 s."""
    ns = float(ns)
    if ns < 1e3:
        return f"{ns:.0f} ns"
    if ns < 1e6:
        return f"{ns / 1e3:.1f} us"
    if ns < 1e9:
        return f"{ns / 1e6:.2f} ms"
    return f"{ns / 1e9:.2f} s"


def fmt_bytes(n):
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.0f} {unit}" if unit == "B" else f"{n:.1f} {unit}"
        n /= 1024
    return f"{n:.1f} GiB"


def fmt_count(n):
    return f"{int(n):,}"


def table(header, rows):
    """Markdown table lines from a header tuple and row tuples."""
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join("---" for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return lines


def stats_section(stats, max_rounds):
    out = ["## Run summary", ""]
    rounds = stats.get("rounds", [])
    memory = stats.get("memory", {})
    peak = stats.get("peak", {})
    facts = [
        ("Rounds", fmt_count(len(rounds))),
        ("EDB atoms", fmt_count(stats.get("edb_atoms", 0))),
        ("Peak atoms", fmt_count(peak.get("atoms", 0))),
        ("Load time", f"{stats.get('load_ms', 0.0):.3f} ms"),
        ("Discovery threads", fmt_count(stats.get("discovery_threads", 0))),
        ("Parallel rounds", fmt_count(stats.get("parallel_rounds", 0))),
        ("Peak memory", fmt_bytes(memory.get("peak_bytes", 0))),
    ]
    budget = memory.get("budget_bytes", 0)
    if budget:
        facts.append(("Memory budget", fmt_bytes(budget)))
        facts.append(("Budget denials", fmt_count(memory.get("denials", 0))))
    out += table(("Metric", "Value"), facts)

    rules = stats.get("rules", [])
    if rules:
        out += ["", "### Per-rule work", ""]
        out += table(
            ("Rule", "Discovered", "Applied", "Skipped satisfied"),
            [
                (
                    i,
                    fmt_count(rule.get("discovered", 0)),
                    fmt_count(rule.get("applied", 0)),
                    fmt_count(rule.get("skipped_satisfied", 0)),
                )
                for i, rule in enumerate(rules)
            ],
        )

    if rounds:
        shown = rounds[:max_rounds]
        out += ["", f"### Rounds ({len(shown)} of {len(rounds)} shown)", ""]
        out += table(
            ("Round", "Delta atoms", "Applied", "Discovery", "Apply", "Total"),
            [
                (
                    i,
                    fmt_count(r.get("delta_atoms", 0)),
                    fmt_count(r.get("applied", 0)),
                    fmt_ns(r.get("discovery_ms", 0.0) * 1e6),
                    fmt_ns(r.get("apply_ms", 0.0) * 1e6),
                    fmt_ns(r.get("round_ms", 0.0) * 1e6),
                )
                for i, r in enumerate(shown)
            ],
        )
    return out


def histogram_section(histograms):
    out = ["## Latency histograms", ""]
    if not histograms:
        out.append(
            "_No histogram data — run with `--metrics-json` to enable "
            "the profiling layer._"
        )
        return out
    rows = []
    for name in sorted(histograms):
        h = histograms[name]
        if not h.get("count"):
            continue
        rows.append(
            (
                f"`{name}`",
                fmt_count(h.get("count", 0)),
                fmt_ns(h.get("p50", 0)),
                fmt_ns(h.get("p90", 0)),
                fmt_ns(h.get("p99", 0)),
                fmt_ns(h.get("max", 0)),
                fmt_ns(h.get("mean", 0)),
            )
        )
    if not rows:
        out.append("_All histograms are empty._")
        return out
    out += table(("Histogram", "Count", "p50", "p90", "p99", "Max", "Mean"), rows)
    return out


def perf_section(perf):
    out = ["## Hardware counters by phase", ""]
    if not perf:
        out.append("_No perf section in the metrics snapshot._")
        return out
    if not perf.get("available"):
        reason = perf.get("reason", "unknown")
        out.append(f"_Perf counters unavailable: {reason}._")
        return out
    if not perf.get("hardware_events", True):
        reason = perf.get("hardware_reason", "unknown")
        out.append(
            f"_Hardware events unavailable ({reason}); software "
            "task-clock only — ipc and cache-miss rate read as 0._"
        )
        out.append("")
    rows = []
    for name, phase in perf.get("phases", {}).items():
        if not phase.get("scopes"):
            continue
        rows.append(
            (
                name,
                fmt_count(phase.get("scopes", 0)),
                fmt_count(phase.get("cycles", 0)),
                fmt_count(phase.get("instructions", 0)),
                f"{phase.get('ipc', 0.0):.2f}",
                f"{100.0 * phase.get('cache_miss_rate', 0.0):.1f}%",
                fmt_ns(phase.get("task_clock_ns", 0)),
            )
        )
    if not rows:
        out.append("_No phase scopes completed._")
        return out
    out += table(
        ("Phase", "Scopes", "Cycles", "Instructions", "IPC",
         "Cache-miss rate", "Task clock"),
        rows,
    )
    return out


def counters_section(metrics):
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    out = ["## Counters and gauges", ""]
    rows = [(f"`{name}`", fmt_count(counters[name]), "counter")
            for name in sorted(counters) if counters[name]]
    rows += [(f"`{name}`", fmt_count(gauges[name]), "gauge")
             for name in sorted(gauges)]
    if not rows:
        out.append("_No non-zero counters._")
        return out
    out += table(("Name", "Value", "Kind"), rows)
    return out


def flame_section(summary, top):
    out = ["## Trace flame summary", ""]
    if not summary:
        out.append(
            "_No trace summary — run with `--trace=FILE` to produce "
            "`FILE.summary.json`._"
        )
        return out
    dropped = summary.get("dropped_events", 0)
    threads = summary.get("threads", 0)
    spans = summary.get("spans", [])
    out.append(
        f"{threads} thread(s), {len(spans)} distinct span(s), "
        f"{fmt_count(dropped)} dropped event(s)."
    )
    if dropped:
        out.append(
            "**Warning: events were dropped — totals undercount; raise "
            "the trace buffer size.**"
        )
    out.append("")
    shown = spans[:top]
    if shown:
        out += table(
            ("Span", "Count", "Total", "Max"),
            [
                (
                    f"`{span.get('name', '?')}`",
                    fmt_count(span.get("count", 0)),
                    fmt_ns(span.get("total_ns", 0)),
                    fmt_ns(span.get("max_ns", 0)),
                )
                for span in shown
            ],
        )
        if len(spans) > top:
            out.append("")
            out.append(f"_{len(spans) - top} further span(s) omitted._")
    return out


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--stats", default="", help="chase stats JSON")
    parser.add_argument("--metrics", default="", help="metrics snapshot JSON")
    parser.add_argument("--summary", default="", help="trace flame sidecar")
    parser.add_argument("--title", default="Chase run report")
    parser.add_argument("--out", default="", help="write here (default stdout)")
    parser.add_argument(
        "--max-rounds", type=int, default=20,
        help="rounds-table row cap (default 20)",
    )
    parser.add_argument(
        "--top-spans", type=int, default=15,
        help="flame-table row cap (default 15)",
    )
    args = parser.parse_args()

    if not (args.stats or args.metrics or args.summary):
        print(
            "report.py: need at least one of --stats/--metrics/--summary",
            file=sys.stderr,
        )
        return 1

    notes = []
    stats = load_json(args.stats, "stats", notes)
    metrics = load_json(args.metrics, "metrics", notes)
    summary = load_json(args.summary, "trace summary", notes)

    lines = [f"# {args.title}", ""]
    inputs = [
        path for path in (args.stats, args.metrics, args.summary) if path
    ]
    lines.append("Inputs: " + ", ".join(f"`{p}`" for p in inputs))
    lines.append("")
    for note in notes:
        lines.append(f"> **Note:** {note}")
        lines.append("")

    if stats is not None:
        lines += stats_section(stats, args.max_rounds)
        lines.append("")
    if metrics is not None:
        lines += histogram_section(metrics.get("histograms", {}))
        lines.append("")
        lines += perf_section(metrics.get("perf"))
        lines.append("")
        lines += counters_section(metrics)
        lines.append("")
    if summary is not None:
        lines += flame_section(summary, args.top_spans)
        lines.append("")

    text = "\n".join(lines).rstrip() + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as error:
            print(f"report.py: cannot write {args.out}: {error}",
                  file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
