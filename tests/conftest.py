"""The tests import hdeform from src/ (pyproject.toml's pytest
``pythonpath``); the CLI subprocesses they start find it there too."""

import json
import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


def strip_timing(text):
    """The JSON report text parsed, with every "wall_time_s" key dropped
    at any depth: the wall times are the only fields that vary between
    runs, and a short one prints in exponent form (7.7e-05)."""
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items()
                    if k != "wall_time_s"}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value
    return strip(json.loads(text))
