"""Unit tests for the command-line interface."""

import pytest

from repro.cli import (
    build_batch_query_parser,
    build_parser,
    build_query_parser,
    build_serve_parser,
    main,
)


class TestParser:
    def test_requires_at_least_one_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_profile_and_output(self):
        args = build_parser().parse_args(["fig7", "--profile", "full", "--output", "x.txt"])
        assert args.experiments == ["fig7"]
        assert args.profile == "full"
        assert args.output == "x.txt"


class TestMain:
    def test_unknown_experiment_returns_error_code(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_table1_runs_and_prints(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "p1, p5, p6, p9, p10" in out

    def test_markdown_output(self, capsys):
        assert main(["table1", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.lstrip().startswith("|")

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert main(["table1", "--output", str(target)]) == 0
        assert "Table I" in target.read_text()

    def test_module_entry_point_importable(self):
        import repro.__main__  # noqa: F401

    @pytest.mark.parametrize(
        "argv, prog",
        [
            (["--help"], "repro"),
            (["batch-query", "--help"], "repro batch-query"),
            (["serve", "--help"], "repro serve"),
            (["query", "--help"], "repro query"),
            (["mutate", "--help"], "repro mutate"),
            (["pack", "--help"], "repro pack"),
            (["kernels", "--help"], "repro kernels"),
        ],
    )
    def test_every_usage_line_names_the_console_script(self, capsys, argv, prog):
        with pytest.raises(SystemExit):
            main(argv)
        assert capsys.readouterr().out.startswith(f"usage: {prog} ")


class TestBatchQueryCommand:
    def test_parses_runtime_options(self):
        args = build_batch_query_parser().parse_args(
            ["--cache-size", "16", "--compact-threshold", "5", "--store", "x.rpro"]
        )
        assert args.cache_size == 16
        assert args.compact_threshold == 5
        assert args.store == "x.rpro"

    def test_batch_query_ignores_repro_workers(self, capsys, monkeypatch):
        # A valid REPRO_WORKERS is still accepted; the engine answers
        # in-process whatever it says.
        monkeypatch.setenv("REPRO_WORKERS", "2")
        code = main(["batch-query", "--cardinality", "300", "--queries", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "base" in out and "cached topologies" in out
        assert "workers" not in out

    def test_profile_prints_sane_phase_timings(self, capsys):
        import re

        code = main(
            ["batch-query", "--cardinality", "300", "--queries", "2", "--profile"]
        )
        assert code == 0
        out = capsys.readouterr().out
        match = re.search(
            r"phases: encode (\S+) ms \| build (\S+) ms "
            r"\| query (\S+) ms \| total (\S+) ms",
            out,
        )
        assert match, out
        encode, build, query, total = (float(g) for g in match.groups())
        assert all(value >= 0.0 for value in (encode, build, query))
        # The phases sum to the printed total (each of the four numbers
        # carries up to 0.05 ms of :.1f print rounding).
        assert abs((encode + build + query) - total) <= 0.25

    @pytest.mark.parametrize(
        "flag",
        [
            ["--frame", "off"],
            ["--merge-strategy", "sort-merge"],
            ["--index", "flat"],
            ["--mmap", "off"],
            ["--crc", "lazy"],
            ["--no-prefilter"],
            ["--workers", "2"],
            ["--shards", "4"],
            ["--partitioner", "po-group"],
        ],
    )
    def test_removed_data_path_flags_are_rejected(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            build_batch_query_parser().parse_args(flag)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["lots", "-2", "1.5"])
    def test_bad_workers_env_var_named_in_error(self, capsys, monkeypatch, bad):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        code = main(["batch-query", "--cardinality", "100"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "REPRO_WORKERS" in err
        assert "Traceback" not in err

    def test_bad_cache_size_is_reported(self, capsys):
        code = main(["batch-query", "--cardinality", "100", "--cache-size", "0"])
        assert code == 2
        assert "capacity" in capsys.readouterr().err


class TestPackAndStore:
    def test_pack_requires_out(self):
        from repro.cli import build_pack_parser

        with pytest.raises(SystemExit):
            build_pack_parser().parse_args([])

    def test_pack_no_longer_takes_a_tree_fanout(self, capsys):
        from repro.cli import build_pack_parser

        with pytest.raises(SystemExit) as excinfo:
            build_pack_parser().parse_args(["--out", "x.rpro", "--max-entries", "8"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_pack_then_query_matches_workload_run(self, tmp_path, capsys):
        store = tmp_path / "cli.rpro"
        common = ["--cardinality", "300", "--seed", "9"]
        assert main(["pack", *common, "--out", str(store)]) == 0
        assert "packed 300 tuples" in capsys.readouterr().out
        assert main(["batch-query", *common, "--queries", "2"]) == 0
        direct = capsys.readouterr().out
        # --seed keeps seeding the random queries; the workload knobs are
        # superseded by the packed store.
        assert main(
            ["batch-query", "--store", str(store), "--seed", "9", "--queries", "2"]
        ) == 0
        via_store = capsys.readouterr().out
        # Identical per-query skyline sizes, ingest path notwithstanding.
        pick = lambda text: [line.split("|skyline|=")[1].split()[0]
                             for line in text.splitlines() if "|skyline|" in line]
        assert pick(via_store) == pick(direct)

    def test_store_flag_parses(self):
        args = build_batch_query_parser().parse_args(["--store", "x.rpro"])
        assert args.store == "x.rpro"

    def test_missing_store_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "gone.rpro"
        assert main(["batch-query", "--store", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(missing) in err
        assert "format version 1" in err

    def test_stale_store_names_path_and_version(self, tmp_path, capsys):
        stale = tmp_path / "stale.rpro"
        stale.write_bytes(b"not a store at all")
        assert main(["batch-query", "--store", str(stale)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(stale) in err and "format version 1" in err


class TestServeAndQueryParsers:
    def test_serve_parser_defaults(self):
        args = build_serve_parser().parse_args([])
        assert args.host is None and args.port is None
        assert args.store is None and args.compact_threshold is None

    @pytest.mark.parametrize(
        "flag", [["--workers", "2"], ["--shards", "4"], ["--partitioner", "po-group"]]
    )
    def test_serve_rejects_removed_parallel_flags(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            build_serve_parser().parse_args(flag)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_query_parser_modes_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_query_parser().parse_args(["--seed", "3", "--stats"])
        args = build_query_parser().parse_args(["--seed", "3", "--repeat", "2"])
        assert args.seed == 3 and args.repeat == 2

    def test_query_against_no_server_fails_cleanly(self, capsys):
        # Port 1 is never listening; the client must fail with exit code 2.
        assert main(["query", "--port", "1", "--ping"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_overrides_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["query", "--overrides-json", str(tmp_path / "nope.json")]) == 2
        assert "overrides file" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["query", "--overrides-json", str(bad)]) == 2
        assert "overrides file" in capsys.readouterr().err
