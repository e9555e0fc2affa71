"""Print CI's study matrix: one cell per registered study, as JSON.

Each cell names a study and the flags its smoke run adds to
``python -m repro <study> --invocations 4 --no-cache``:
``--export-dir out`` where the study has CSV tables,
``--trace out/trace.json`` where it honours ``--trace`` and
``--shards 2`` where it honours ``--shards``.  ``traced`` tells the
cell to validate the trace afterwards.

Run:  python tools/study_matrix.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.experiments.study import registry  # noqa: E402


def cells() -> list:
    matrix = []
    for name, study in registry().items():
        flags = []
        if study.tables is not None:
            flags += ["--export-dir", "out"]
        if study.honours("trace_path"):
            flags += ["--trace", "out/trace.json"]
        if study.honours("shards"):
            flags += ["--shards", "2"]
        matrix.append(
            {
                "study": name,
                "flags": " ".join(flags),
                "traced": study.honours("trace_path"),
            }
        )
    return matrix


if __name__ == "__main__":
    print(json.dumps(cells()))
