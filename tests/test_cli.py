"""CLI entry point."""

import pytest

from repro.cli import (
    build_parser,
    main,
    make_config,
    run_parser,
    scale_args_parent,
    serve_parser,
)


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig6"])
        assert args.experiment == "fig6"
        assert args.reads is None

    def test_overrides(self):
        args = build_parser().parse_args(
            ["fig6", "--reads", "500", "--benchmarks", "mcf,lbm",
             "--cache", "off"])
        config = make_config(args)
        assert config.target_dram_reads == 500
        assert config.benchmarks == ("mcf", "lbm")
        assert config.cache_dir is None


def option_strings(parser):
    return {opt for action in parser._actions
            for opt in action.option_strings}


class TestSharedScaleArgs:
    """--reads/--benchmarks/--cache/--jobs are declared once, in
    scale_args_parent(), and every command that takes them inherits
    the same actions."""

    SHARED = {"--reads", "--benchmarks", "--cache", "--jobs"}
    RESILIENCE = {"--retries", "--timeout", "--keep-going", "--fail-fast",
                  "--degrade-serial"}
    # Each command's full option set: sharing the flags adds and drops
    # none.
    EXPECTED = {
        "repro-experiment": SHARED | RESILIENCE | {
            "-h", "--help", "--version", "--output", "--json",
            "--timings-json", "--stats-json", "--stats-csv", "--trace-out"},
        "repro run": SHARED | RESILIENCE | {
            "-h", "--help", "--memory", "--workload", "--check", "--json",
            "--checkpoint-dir", "--checkpoint-every"},
        "repro serve": SHARED | {
            "-h", "--help", "--host", "--port", "--cache-budget",
            "--manifest-budget", "--state-dir", "--queue-limit", "--retries",
            "--timeout", "--checkpoint-dir", "--checkpoint-every",
            "--no-recover", "--verbose"},
    }

    @pytest.mark.parametrize("make", [build_parser, run_parser, serve_parser])
    def test_subcommand_inherits_parent_flags(self, make):
        parser = make()
        parent = scale_args_parent()
        assert option_strings(parent) == self.SHARED
        assert option_strings(parser) == self.EXPECTED[parser.prog]
        ours = {a.dest: a for a in parser._actions}
        for action in parent._actions:
            mine = ours[action.dest]
            assert (mine.option_strings, mine.type, mine.default,
                    mine.help) == (action.option_strings, action.type,
                                   action.default, action.help)


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "tab2" in out

    def test_unknown_experiment(self, capsys):
        assert main(["nonsense"]) == 2

    def test_runs_table2(self, capsys):
        assert main(["tab2", "--cache", "off"]) == 0
        out = capsys.readouterr().out
        assert "tRC" in out

    def test_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        assert main(["tab1", "--cache", "off",
                     "--output", str(out_file)]) == 0
        assert "Re-Order-Buffer" in out_file.read_text()

    def test_small_simulation_experiment(self, capsys, tmp_path):
        assert main(["fig8", "--reads", "150", "--benchmarks", "mcf",
                     "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fast_fraction" in out


class TestListBackendsSubcommand:
    def test_lists_all_backends(self, capsys):
        assert main(["list-backends"]) == 0
        out = capsys.readouterr().out
        for name in ("ddr3", "rl", "page_placement", "hmc_cwf"):
            assert name in out
        assert "hetero" in out and "needs-profile" in out

    def test_json_shape(self, capsys):
        import json

        assert main(["list-backends", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        by_name = {e["name"]: e for e in entries}
        assert by_name["hmc_cwf"]["is_heterogeneous"] is True
        assert "hmc" in by_name["hmc_cwf"]["aliases"]
        assert by_name["rl_adaptive"]["needs_profile"] is True


class TestRunSubcommand:
    def test_run_table(self, capsys, tmp_path):
        assert main(["run", "--memory", "ddr3,hmc_cwf",
                     "--benchmarks", "mcf", "--reads", "120",
                     "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "hmc_cwf" in out and "critical_latency" in out

    def test_alias_canonicalised_and_deduped(self, capsys, tmp_path):
        assert main(["run", "--memory", "baseline,ddr3",
                     "--benchmarks", "mcf", "--reads", "120",
                     "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("ddr3") == 2  # title + single table row
        assert "baseline" not in out

    def test_unknown_memory_exits_2_with_suggestion(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--memory", "hmc_cfw", "--benchmarks", "mcf",
                  "--reads", "120", "--cache", "off"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "hmc_cwf" in err
        assert "registered memory backends" in err


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_short_flag(self, capsys):
        assert main(["-V"]) == 0
        assert "repro " in capsys.readouterr().out
