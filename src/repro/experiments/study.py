"""The study registry: one record per artifact drives the CLI, CSV export and CI.

Every experiment module declares ``STUDIES``, a tuple of :class:`Study`
records, one per artifact it serves.  A record names the study, sizes
it (``size(n, **options)`` maps ``--invocations n`` onto the module's
``run``), renders it, and lays its result out as CSV :class:`Table` s.
:func:`registry` collects the records from every module in the
package, so adding a study is one record in its module — the CLI
(``python -m repro``), :func:`export_all` and CI's study matrix all
iterate the registry.

Which run options a study honours is read from its sizing callable's
parameters: a study that takes ``trace_path`` accepts ``--trace``, one
that takes ``shards`` accepts ``--shards``, and so on.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import os
import pkgutil
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The run options a sizing callable may take after ``n``.
OPTIONS = ("jobs", "cache", "trace_path", "shards", "streaming")


@dataclass(frozen=True)
class Table:
    """One CSV file of a study's data: its name, header row and rows."""

    filename: str
    headers: Sequence[str]
    rows: Sequence[Sequence]

    def write(self, directory: str) -> str:
        path = os.path.join(directory, self.filename)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.headers)
            writer.writerows(self.rows)
        return path


@dataclass(frozen=True)
class Study:
    """One artifact: how to size, run, render and tabulate it."""

    name: str
    description: str
    #: ``size(n, **options)`` -> result; takes only the :data:`OPTIONS`
    #: the study honours, each defaulting to its ``run`` default.
    size: Callable[..., Any]
    render: Callable[[Any], str]
    #: ``tables(result)`` -> the study's CSV files (None: no CSV data).
    tables: Optional[Callable[[Any], List[Table]]] = None
    #: False leaves the study out of :func:`export_all` (its cost is
    #: its own deliberate act).
    exported: bool = True
    #: True makes :func:`export_all` also write ``<name>_trace.json``.
    export_trace: bool = False

    def __post_init__(self) -> None:
        unknown = set(self.options) - set(OPTIONS)
        if unknown:
            raise TypeError(
                f"study {self.name!r} sizes unknown options {sorted(unknown)}"
            )

    @property
    def options(self) -> Tuple[str, ...]:
        """The run options this study honours, read from ``size``."""
        return tuple(inspect.signature(self.size).parameters)[1:]

    def honours(self, option: str) -> bool:
        return option in self.options

    def run(self, n: int, **options: Any) -> Any:
        """Run at size ``n``, passing only the options it honours."""
        return self.size(
            n, **{k: v for k, v in options.items() if k in self.options}
        )


def registry() -> Dict[str, Study]:
    """Every module's ``STUDIES``, keyed and sorted by study name."""
    import repro.experiments as package

    studies: Dict[str, Study] = {}
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        for study in getattr(module, "STUDIES", ()):
            if study.name in studies:
                raise ValueError(f"study {study.name!r} registered twice")
            studies[study.name] = study
    return dict(sorted(studies.items()))


def export_all(
    directory: str, invocations_per_function: int = 12
) -> List[str]:
    """Write every exported study's CSVs into ``directory`` (created if
    needed), each sized exactly as ``python -m repro <study>
    --invocations invocations_per_function`` sizes it."""
    os.makedirs(directory, exist_ok=True)
    paths: List[str] = []
    for study in registry().values():
        if study.tables is None or not study.exported:
            continue
        trace = None
        if study.export_trace:
            trace = os.path.join(
                directory, f"{study.name.replace('-', '_')}_trace.json"
            )
        result = study.run(invocations_per_function, trace_path=trace)
        paths.extend(table.write(directory) for table in study.tables(result))
        if trace is not None:
            paths.append(trace)
    return paths
