"""CLI input validation and the commands only smoke jobs used to run.

Out-of-range flag values must be argparse usage errors (exit 2, the
flag named, no traceback), never an exception from deep in the
library.
"""

import json

import pytest

from repro.cli import main

#: Argument prefixes of the nine commands that run a simulation.
RUN_COMMANDS = {
    "simulate": ["simulate", "social_network"],
    "report-qos": ["report", "qos", "social_network"],
    "report-degradation": ["report", "degradation", "social_network"],
    "report-critical-path": ["report", "critical-path", "social_network"],
    "profile": ["profile", "social_network"],
    "chaos": ["chaos", "social_network"],
    "region": ["region", "social_network"],
    "synth-clone": ["synth", "clone", "traces.json"],
    "synth-matrix": ["synth", "matrix"],
}

OUT_OF_RANGE = [
    pytest.param(prefix + [flag, "0"], flag, id=f"{name}{flag}")
    for name, prefix in RUN_COMMANDS.items()
    for flag in ("--qps", "--duration", "--machines")
] + [
    pytest.param(["report", "qos", "banking", "--percentile", "99"],
                 "--percentile", id="report-qos--percentile"),
    pytest.param(["provision", "banking", "--util", "0"], "--util",
                 id="provision--util"),
    pytest.param(["sweep", "banking", "--qps", "0"], "--qps",
                 id="sweep--qps"),
    pytest.param(["region", "banking", "--primary-share", "1.5"],
                 "--primary-share", id="region--primary-share"),
]


@pytest.mark.parametrize("argv,flag", OUT_OF_RANGE)
def test_out_of_range_flag_is_a_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: must be" in err
    assert "Traceback" not in err


def test_malformed_number_keeps_argparse_wording(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "banking", "--machines", "two"])
    assert excinfo.value.code == 2
    assert "argument --machines: invalid int value: 'two'" \
        in capsys.readouterr().err


def test_synth_matrix_rejects_an_invalid_size(capsys):
    assert main(["synth", "matrix", "--patterns", "chain", "--sizes", "0",
                 "--seeds", "1", "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "SYN001" in captured.err


def test_report_degradation_command(capsys):
    assert main(["report", "degradation", "social_network", "--qps", "60",
                 "--duration", "3", "--slow", "postsStorage:4"]) == 0
    out = capsys.readouterr().out
    assert "social_network degradation report (post-warmup)" in out
    assert "final brownout level" in out


def test_report_degradation_rejects_unknown_service(capsys):
    assert main(["report", "degradation", "banking",
                 "--slow", "nosuch:2"]) == 2
    assert capsys.readouterr().err == \
        "error: banking has no service 'nosuch'\n"


def test_report_critical_path_json(capsys):
    assert main(["report", "critical-path", "banking", "--qps", "30",
                 "--duration", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["app"] == "banking"
    assert doc["qps"] == 30.0
    assert doc["traces_analyzed"] > 0
    assert doc["sampling"] == {"mode": "unsampled", "rate": 1.0}
    for row in doc["services"].values():
        assert 0.0 <= row["presence"] <= 1.0


def test_region_command_writes_scorecards(tmp_path, capsys):
    out_file = tmp_path / "region.json"
    assert main(["region", "banking", "--qps", "30", "--duration", "8",
                 "--machines", "2", "--outage-at", "3",
                 "--outage-duration", "2", "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "banking region suite @ 30 QPS (outage of us-east)" in out
    assert f"scorecards written to {out_file}" in out
    doc = json.loads(out_file.read_text())
    assert set(doc["runs"]) == {"region-baseline",
                                "region-outage-failover"}
    assert doc["runs"]["region-outage-failover"]["fault_count"] == 1
    assert doc["mode"] == "failover"


def test_profile_command_writes_json(tmp_path, capsys):
    out_file = tmp_path / "profile.json"
    assert main(["profile", "banking", "--qps", "30", "--duration", "2",
                 "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "simulator flight recorder" in out
    assert f"profile written to {out_file}" in out
    doc = json.loads(out_file.read_text())
    assert doc["scenario"] == {"app": "banking", "qps": 30.0,
                               "duration": 2.0, "machines": 6,
                               "seed": 11}
    assert doc["sampling"]["mode"] == "unsampled"
    assert doc["profile"]["events_observed"] > 0
