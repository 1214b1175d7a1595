"""End-to-end figures read from a grid's ``report.json`` document."""

from __future__ import annotations

import json
import math


def cells_bytes(doc: dict) -> bytes:
    """Canonical bytes of the report cells, the unit of the byte checks."""
    return json.dumps(doc["cells"], sort_keys=True).encode()


def cell_counts(doc: dict) -> tuple[int, int]:
    """(attempted, failed) cells of one grid.

    Attempted = datasets x patterns x replicates x methods. A dropped group
    leaves no cells in the report, so each one counts as one failed cell
    per method, next to the cells that carry an error.
    """
    cfg = doc["config"]
    n_methods = len(cfg["methods"])
    attempted = len(cfg["datasets"]) * len(cfg["patterns"]) * cfg["n_seeds"] * n_methods
    errored = sum(c["error"] is not None for c in doc["cells"])
    return attempted, errored + len(doc["dropped_groups"]) * n_methods


def rmse_vs_col_mean(doc: dict) -> float:
    """Geometric mean, over the scored cells of every method but col-mean,
    of the cell's RMSE divided by col-mean's RMSE on the same group.

    The standardized RMSE of a group scales with how the mask left its
    columns observed (a panel mask can multiply every method's RMSE by ten),
    so each cell is read against the baseline that shares its scale.
    """
    def group(c):
        return c["dataset"], c["pattern"], c["seed"]

    base = {group(c): c["rmse"] for c in doc["cells"]
            if c["method"] == "col-mean" and c["rmse"]}
    logs = [math.log(c["rmse"] / base[group(c)]) for c in doc["cells"]
            if c["method"] != "col-mean" and c["rmse"] and group(c) in base]
    if not logs:
        raise ValueError("no cell scored against a col-mean cell of its group")
    return math.exp(sum(logs) / len(logs))


def rmse_by_method(doc: dict) -> dict[str, float]:
    """Mean missing-entry RMSE per method over the cells that scored,
    in the report's method order."""
    out = {}
    for method in (m["name"] for m in doc["config"]["methods"]):
        values = [c["rmse"] for c in doc["cells"]
                  if c["method"] == method and c["rmse"] is not None]
        if values:
            out[method] = sum(values) / len(values)
    return out
