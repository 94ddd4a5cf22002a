"""Verified-inequality records and their CSV serialization.

A BoundReport is one checked instance: lhs, rhs, tolerance, pass flag and a
provenance tag.  CSV bodies are byte-deterministic for a fixed input; the
only non-deterministic content is the leading '#' timestamp header, which
consumers skip.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone

CSV_COLUMNS = [
    "suite", "id", "instance", "n", "seed", "schedule", "lhs", "rhs",
    "margin", "tolerance", "passed", "provenance", "status", "extra",
]

PROVENANCE_TAGS = ("PAPER", "TRIVIAL", "DERIVED")


@dataclass
class BoundReport:
    """One verified inequality instance, direction-normalized to lhs <= rhs."""

    suite: str
    inequality_id: str
    instance: str
    lhs: float
    rhs: float
    tolerance: float
    provenance: str
    n: int = 0
    seed: int | None = None
    schedule_hash: str = ""
    status: str = "ok"
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.provenance not in PROVENANCE_TAGS:
            raise ValueError(f"provenance must be one of {PROVENANCE_TAGS}")
        self.lhs = float(self.lhs)
        self.rhs = float(self.rhs)
        self.tolerance = float(self.tolerance)
        self.n = int(self.n)
        self.extra = {k: _plain(v) for k, v in self.extra.items()}

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + self.tolerance

    def row(self) -> list[str]:
        return [
            self.suite, self.inequality_id, self.instance, str(self.n),
            "" if self.seed is None else str(self.seed), self.schedule_hash,
            repr(self.lhs), repr(self.rhs), repr(self.margin), repr(self.tolerance),
            "1" if self.passed else "0", self.provenance, self.status,
            json.dumps(self.extra, sort_keys=True) if self.extra else "",
        ]


def _plain(v):
    """JSON-safe native value (numpy scalars and sequences included)."""
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, (bool,)) or v is None or isinstance(v, str):
        return v
    if isinstance(v, float):
        return float(v)
    if isinstance(v, int):
        return int(v)
    if hasattr(v, "item"):
        return _plain(v.item())
    return v


def default_out_dir() -> str:
    return os.environ.get("DYNWALKS_OUTDIR", "reports")


def write_report_csv(path, reports, config_doc=None) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        writer.writerow(r.row())
    with open(path, "w") as fh:
        fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        if config_doc is not None:
            fh.write(f"# config {json.dumps(config_doc, sort_keys=True)}\n")
        fh.write(buf.getvalue())


def csv_body(path) -> bytes:
    """Bytes of the CSV minus '#' header lines, for determinism comparisons."""
    with open(path, "rb") as fh:
        return b"".join(ln for ln in fh if not ln.startswith(b"#"))


def loglog_slope(sizes, values) -> tuple[float, float] | None:
    """Least-squares slope of log(value) vs log(size); None below 3 points."""
    pts = [(s, v) for s, v in zip(sizes, values) if s > 0 and v > 0]
    if len(pts) < 3:
        return None
    x = [math.log(s) for s, _ in pts]
    y = [math.log(v) for _, v in pts]
    k = len(x)
    xbar, ybar = sum(x) / k, sum(y) / k
    sxx = sum((xi - xbar) ** 2 for xi in x)
    slope = sum((xi - xbar) * (yi - ybar) for xi, yi in zip(x, y)) / sxx
    resid = [yi - ybar - slope * (xi - xbar) for xi, yi in zip(x, y)]
    se = math.sqrt(sum(r * r for r in resid) / (k - 2) / sxx)
    return slope, se


def summarize(reports) -> tuple[str, bool]:
    """Human-readable digest of report rows, by suite in name order; False if
    anything failed."""
    lines = []
    all_ok = True
    by_suite: dict[str, list[BoundReport]] = {}
    for r in reports:
        by_suite.setdefault(r.suite, []).append(r)
    for suite, items in sorted(by_suite.items()):
        failed = [r for r in items if not r.passed]
        all_ok = all_ok and not failed
        worst = min(r.margin for r in items)
        lines.append(f"{suite}: {len(items) - len(failed)}/{len(items)} passed, "
                     f"worst margin {worst:.3e}")
        lines += [f"  FAIL {r.inequality_id} {r.instance}: "
                  f"lhs={r.lhs!r} rhs={r.rhs!r} tol={r.tolerance!r}" for r in failed]
        groups: dict[str, list[BoundReport]] = {}
        for r in items:
            if r.inequality_id.endswith("scaling") and r.n != 0:
                groups.setdefault(r.inequality_id, []).append(r)
        for gid, grp in sorted(groups.items()):
            fit = loglog_slope([r.n for r in grp], [r.lhs for r in grp])
            if fit is not None:
                lines.append(f"  {gid}: log-log slope {fit[0]:.3f} +/- {fit[1]:.3f}")
    return "\n".join(lines), all_ok
