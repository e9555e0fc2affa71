"""Tests for the CLI harness and the study registry it iterates."""

import csv
import importlib
import pkgutil
import pstats

import pytest

import repro.experiments
from repro import cli
from repro.cli import build_parser, main
from repro.experiments.study import OPTIONS, Study, registry

STUDIES = registry()

#: A value for each checked flag that differs from its default.
FLAG_VALUES = {
    "--jobs": "2",
    "--trace": "trace.json",
    "--shards": "2",
    "--streaming": "on",
    "--export-dir": "out",
}

#: Whether a study acts on each checked flag: the run options by its
#: sizing parameters, ``--export-dir`` by having CSV tables.
HONOURS = {
    flag: (lambda study, option=option: study.honours(option))
    for option, flag in cli.FLAGS.items()
}
HONOURS["--export-dir"] = lambda study: study.tables is not None


def test_every_artifact_has_description_and_runner():
    assert set(STUDIES) == {
        "fig1", "fig2", "fig3", "fig4", "fig5", "table1", "table2",
        "headline", "scale", "scale-frontier", "megatrace", "hardware",
        "fault-study", "hybrid-study", "federation-study", "sdk-study",
        "energy-study",
    }
    for study in STUDIES.values():
        assert study.description
        assert callable(study.size)
        assert callable(study.render)
        assert set(study.options) <= set(OPTIONS)


def test_every_experiment_module_is_registered():
    """A module with both ``run`` and ``render`` declares a study."""
    registered = {study.size.__module__ for study in STUDIES.values()}
    for info in pkgutil.iter_modules(repro.experiments.__path__):
        module = importlib.import_module(f"repro.experiments.{info.name}")
        if hasattr(module, "run") and hasattr(module, "render"):
            assert module.__name__ in registered, module.__name__


def test_unknown_sizing_option_is_rejected():
    with pytest.raises(TypeError, match="unknown options"):
        Study("x", "x", size=lambda n, trace=None: n, render=str)


def test_study_run_passes_only_honoured_options():
    seen = {}

    def size(n, jobs=1, shards=1):
        seen.update(n=n, jobs=jobs, shards=shards)

    study = Study("x", "x", size=size, render=str)
    assert study.options == ("jobs", "shards")
    study.run(3, jobs=4, cache=False, trace_path="t.json", shards=2)
    assert seen == {"n": 3, "jobs": 4, "shards": 2}


def test_list_command(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(STUDIES)
    for line, study in zip(lines, STUDIES.values()):
        assert line.endswith(study.description)


@pytest.fixture
def runs(monkeypatch):
    """Record the studies ``main`` would run instead of running them."""
    calls = []
    monkeypatch.setattr(
        cli, "_run_study",
        lambda study, args, options: calls.append((study.name, options)),
    )
    return calls


@pytest.mark.parametrize("name", sorted(STUDIES))
@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
def test_flag_acceptance_matches_sizing_parameters(name, flag, runs, capsys):
    code = main([name, flag, FLAG_VALUES[flag]])
    if HONOURS[flag](STUDIES[name]):
        assert code == 0
        assert [call[0] for call in runs] == [name]
    else:
        assert code == 2
        assert runs == []
        err = capsys.readouterr().err
        assert f"error: {flag} applies to " in err
        honouring = [n for n, s in STUDIES.items() if HONOURS[flag](s)]
        assert err.strip().endswith(", ".join(honouring) + " only")


def test_profile_makes_export_dir_apply_to_every_study(runs):
    # --profile writes its pstats into --export-dir, tables or not.
    assert main(["fig2", "--profile", "--export-dir", "out"]) == 0
    assert [name for name, _ in runs] == ["fig2"]


@pytest.mark.parametrize(
    "flag", ["--jobs", "--shards", "--streaming", "--export-dir"]
)
def test_all_runs_every_study_when_any_honours_the_flag(flag, runs):
    assert main(["all", flag, FLAG_VALUES[flag]]) == 0
    assert [name for name, _ in runs] == list(STUDIES)


def test_all_with_jobs_zero_fans_out(runs):
    assert main(["all", "--jobs", "0"]) == 0
    assert [name for name, _ in runs] == list(STUDIES)
    assert all(options["jobs"] is None for _, options in runs)


def test_all_rejects_a_flag_no_study_honours(runs, monkeypatch, capsys):
    without_megatrace = {
        name: study for name, study in STUDIES.items() if name != "megatrace"
    }
    monkeypatch.setattr(cli, "registry", lambda: without_megatrace)
    assert main(["all", "--streaming", "on"]) == 2
    assert runs == []
    assert "error: --streaming applies to" in capsys.readouterr().err


def test_all_rejects_one_trace_path_for_many_studies(runs, capsys):
    assert main(["all", "--trace", "trace.json"]) == 2
    assert runs == []
    assert "give one study" in capsys.readouterr().err


def test_default_flags_run_every_study(runs):
    assert main(["all", "--no-cache", "--jobs", "1"]) == 0
    assert [name for name, _ in runs] == list(STUDIES)
    assert all(options["cache"] is False for _, options in runs)


def test_help_names_exactly_the_honouring_studies():
    parser = build_parser()
    for flag, honours in HONOURS.items():
        action = next(a for a in parser._actions if flag in a.option_strings)
        listed = action.help.rsplit(" — ", 1)[1]
        assert listed.endswith(" only")
        named = listed[: -len(" only")].removeprefix("CSVs from ").split(", ")
        assert named == [n for n, s in STUDIES.items() if honours(s)]


def test_fig1_command(capsys):
    assert main(["fig1"]) == 0
    out = capsys.readouterr().out
    assert "1.51" in out


def test_fig2_command(capsys):
    assert main(["fig2"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 2" in out
    assert "10x BeagleBone Black workers" in out


def test_table2_command(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "$124,701" in out


def test_headline_command_with_invocations(capsys):
    assert main(["headline", "--invocations", "8"]) == 0
    out = capsys.readouterr().out
    assert "energy-efficiency ratio" in out


def test_export_dir_writes_the_study_tables(tmp_path, capsys):
    assert main(["table2", "--export-dir", str(tmp_path)]) == 0
    assert "$124,701" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table2_tco.csv"]
    with open(tmp_path / "table2_tco.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][0] == "scenario"
    assert len(rows) == 5


def test_no_export_dir_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["table2"]) == 0
    assert list(tmp_path.iterdir()) == []


def test_profile_flag_writes_pstats(tmp_path, capsys):
    assert main(["fig1", "--profile", "--export-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1.51" in out  # the artifact still renders under the profiler
    stats_path = tmp_path / "profile_fig1.pstats"
    assert stats_path.exists()
    stats = pstats.Stats(str(stats_path))
    assert stats.total_calls > 0
    assert (tmp_path / "fig1_boot.csv").exists()


def test_profile_without_export_dir_writes_to_artifacts(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert main(["fig1", "--profile"]) == 0
    written = sorted(p.name for p in (tmp_path / "artifacts").iterdir())
    assert written == ["profile_fig1.pstats"]  # pstats only, no CSVs


def test_invalid_invocations_rejected(capsys):
    assert main(["fig1", "--invocations", "0"]) == 2


def test_unknown_artifact_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig99"])
