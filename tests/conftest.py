"""The tests import hdeform from src/ (pyproject.toml's pytest
``pythonpath``); the CLI subprocesses they start find it there too."""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
