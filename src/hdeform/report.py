"""Verification reports: failure records, suite selection and the JSON
report of a run, one record per suite."""

from __future__ import annotations

import json


def failure(identity, indices, lhs, rhs="0"):
    """One failure record; coefficients and elements print serialized."""
    return {"identity": identity, "indices": list(indices),
            "lhs": str(lhs), "rhs": str(rhs)}


def expect(failures, identity, indices, lhs, rhs=None):
    """Decide one identity, appending its failure record to failures.

    With no rhs, lhs is a residual (a summed coefficient, or an element
    already normal-ordered) and the identity holds when it is zero; a
    failure records it with "0" as rhs.  With rhs, the identity holds
    when lhs == rhs, and a failure records both sides."""
    if rhs is None:
        if not lhs.is_zero:
            failures.append(failure(identity, indices, lhs))
    elif lhs != rhs:
        failures.append(failure(identity, indices, lhs, rhs))


def select_units(kind, table, suite):
    """The units of one named suite of an ordered suite table, or of every
    suite that applies for suite="all".

    table maps each suite name to its list of units, or to a message
    saying why it does not apply under the given options.  An unknown
    suite, or a named one that does not apply, raises ValueError; "all"
    skips the latter.
    """
    if suite == "all":
        return [unit for units in table.values() if not isinstance(units, str)
                for unit in units]
    if suite not in table:
        raise ValueError(f"unknown {kind} suite {suite!r}")
    units = table[suite]
    if isinstance(units, str):
        raise ValueError(units)
    return units


def render_reports(records, wall_time_s):
    """Deterministic JSON for a run's (suite, config, failures, seconds)
    records and its total wall time; the wall times are the only fields
    that vary between runs."""
    suites = [{"suite": suite, "config": config,
               "status": "fail" if failures else "pass",
               "failures": failures, "wall_time_s": round(seconds, 6)}
              for suite, config, failures, seconds in records]
    payload = {
        "status": "fail" if any(s["failures"] for s in suites) else "pass",
        "suites": suites,
        "wall_time_s": round(wall_time_s, 6),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
