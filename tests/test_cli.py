"""CLI: parsing, overrides, end-to-end runs."""

import pytest

from repro.cli import build_parser, main, parse_override
from repro.core.config import GossipTrustConfig


class TestParseOverride:
    def test_int(self):
        assert parse_override("n=500") == ("n", 500)

    def test_float(self):
        assert parse_override("delta=1e-3") == ("delta", 1e-3)

    def test_tuple(self):
        assert parse_override("gammas=0.0,0.2") == ("gammas", (0.0, 0.2))

    def test_mixed_tuple(self):
        assert parse_override("sizes=100,200") == ("sizes", (100, 200))

    def test_trailing_comma_makes_one_tuple(self):
        assert parse_override("bracket_bits=4,") == ("bracket_bits", (4,))

    def test_string_fallback(self):
        assert parse_override("engine_mode=probe") == ("engine_mode", "probe")

    def test_missing_equals_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_override("n500")


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        args = parser.parse_args(["list"])
        assert args.command == "list"
        args = parser.parse_args(["run", "fig3", "--quick"])
        assert args.experiment == "fig3"
        assert args.quick

    def test_set_collects_overrides(self):
        args = build_parser().parse_args(
            ["run", "table3", "--set", "n=100", "--set", "repeats=1"]
        )
        assert dict(args.overrides) == {"n": 100, "repeats": 1}

    def test_kernel_and_dtype_flags(self):
        args = build_parser().parse_args(["run", "fig3", "--dtype", "float32"])
        assert args.dtype == "float32"
        assert not hasattr(args, "kernel")  # one kernel: no selector flag

    def test_kernel_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig3", "--kernel", "sparse"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig3", "--dtype", "float16"])


class TestMain:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "table1" in out

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "0.2" in out

    def test_run_with_overrides(self, capsys):
        code = main(
            ["run", "storage", "--quick", "--set", "bracket_bits=4,", "--set", "n=120"]
        )
        assert code == 0
        assert "Bloom" in capsys.readouterr().out

    def test_run_fig3_sparse_kernel(self, capsys):
        """--dtype forwards into the experiment as an override."""
        code = main(["run", "fig3", "--quick", "--dtype", "float32"])
        assert code == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize(
        "field", ["shards", "shard_workers", "workspace_backend"]
    )
    def test_removed_engine_options_rejected(self, field, capsys):
        """The shard count is derived and buffers are always private:
        config and CLI name a removed option in their error instead of
        silently ignoring it."""
        with pytest.raises(TypeError, match=field):
            GossipTrustConfig(**{field: 2})
        with pytest.raises(TypeError, match=field):
            main(["run", "fig3", "--quick", "--set", f"{field}=2"])
        flag = "--" + field.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main(["run", "fig3", "--quick", flag, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
