"""Experiment harness: regenerate every table and figure.

One module per paper artifact:

- :mod:`repro.experiments.fig1_boot` — worker-OS boot-time trajectory.
- :mod:`repro.experiments.fig2_testbed` — the prototype test cluster's
  composition.
- :mod:`repro.experiments.table1_workloads` — the 17-function suite,
  executed live.
- :mod:`repro.experiments.fig3_runtime` — per-function Working/Overhead
  on both clusters.
- :mod:`repro.experiments.fig4_vmsweep` — energy efficiency and
  throughput vs. VM count.
- :mod:`repro.experiments.fig5_power` — power vs. active workers.
- :mod:`repro.experiments.table2_tco` — the 5-year cost comparison.
- :mod:`repro.experiments.headline` — the throughput match and the
  5.6x energy headline.

and one per extension study: ``fault_study``, ``hybrid_study``,
``federation_study``, ``sdk_study``, ``energy_study``,
``hardware_selection``, ``scale_study`` (the ``scale`` and
``scale-frontier`` sweeps) and ``megatrace``.

Every module exposes ``run(...)`` returning structured results,
``render(...)`` producing the text the CLI prints, and ``STUDIES``:
the :class:`repro.experiments.study.Study` records that size, render
and tabulate it.  :func:`repro.experiments.study.registry` collects
them; the CLI (``python -m repro <study>``), CSV export
(:func:`repro.experiments.study.export_all`) and CI's study matrix
iterate that one registry, so a new study is one record in its
module.

:mod:`repro.experiments.runner` is the shared execution layer: the
sweep-shaped experiments fan their independent points across worker
processes via :func:`repro.experiments.runner.run_map`, backed by a
content-addressed on-disk result cache.
"""
