"""Markdown rendering of experiment results (EXPERIMENTS.md tables)."""
from __future__ import annotations

import pandas as pd


def _fmt_lat(p: dict) -> str:
    if pd.isna(p["latency_ms"]):
        return "DNF"
    suffix = f" ({p['dnf_frac']:.0%} DNF)" if p["dnf_frac"] else ""
    return f"{p['latency_ms']:,.2f}{suffix}"


def _fmt_mem(p: dict) -> str:
    b = p["peak_state_bytes"]
    for unit, div in (("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if b >= div:
            return f"{b / div:,.1f} {unit}"
    return f"{b} B"


def _fmt_tp(p: dict) -> str:
    if pd.isna(p["throughput_eps"]):
        return "-"
    return f"{p['throughput_eps']:,.0f}"


def to_markdown(table: pd.DataFrame, title: str, x_name: str) -> str:
    """One markdown table per experiment, from ``run_sweep``'s rows:
    rows = the values of column ``x_name``, columns = approach metrics
    (latency ms / peak state / throughput ev/s)."""
    if table.empty:
        return f"### {title}\n\n(no data)\n"
    approaches = list(dict.fromkeys(table.approach))
    by = {(p[x_name], p["approach"]): p for p in table.to_dict("records")}
    lines = [f"### {title}", ""]
    header = [x_name] + [
        f"{a} lat(ms) | {a} mem | {a} ev/s" for a in approaches
    ]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * (1 + 3 * len(approaches)))
    for x in dict.fromkeys(table[x_name].tolist()):
        cells = [str(x)]
        for a in approaches:
            p = by.get((x, a))
            if p is None:
                cells += ["n/a", "n/a", "n/a"]
            else:
                cells += [_fmt_lat(p), _fmt_mem(p), _fmt_tp(p)]
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    return "\n".join(lines)
