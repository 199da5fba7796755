import importlib
import inspect
import json
import math
import pkgutil

import pytest

import blockspin
from blockspin.cli import DOMAIN_ERRORS, main


def run(argv):
    return main(argv)


class TestExitCodes:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert run(["no-such-command"]) == 1

    def test_unknown_flag_usage_error(self):
        assert run(["code", "--bogus"]) == 1

    def test_domain_error_exit_two(self, tmp_path, capsys):
        rc = run(["logistic", "--r", "1", "--K", "1", "--dt", "0"])
        assert rc == 2
        assert "positive" in capsys.readouterr().err

    def test_success_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "code.json"
        assert run(["code", "--code", "five-qubit", "--out", str(out)]) == 0
        assert "n=5" in capsys.readouterr().err

    def test_stdout_is_the_artifact(self, capsys):
        assert run(["code", "--code", "five-qubit", "--out", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["code"]["n"] == 5

    def test_dfs_above_dimension_cap_refused(self):
        assert run(["dfs", "--qubits", "7"]) == 2

    def test_dfs_negative_qubit_count_refused(self, capsys):
        assert run(["dfs", "--qubits", "-1"]) == 2
        assert "qubit count" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["inf", "nan", "2.5"])
    def test_logistic_scan_count_must_be_whole(self, count, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        argv = ["logistic", "--r", "1", "--K", "1", "--dt", "1", "--scan-mu", "3", "3.5", count]
        assert run([*argv, "--out", str(out)]) == 2
        assert "COUNT" in capsys.readouterr().err
        assert not out.exists()

    def test_logistic_scan_count_capped(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        argv = ["logistic", "--r", "1", "--K", "1", "--dt", "1", "--scan-mu", "3", "3.5", "1e7"]
        assert run([*argv, "--out", str(out)]) == 2
        assert "COUNT" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("width", ["0", "-1", "nan", "1e-20"])
    def test_threshold_bad_width_refused(self, width, tmp_path, capsys):
        out = tmp_path / "threshold.json"
        assert run(["threshold", "--width", width, "--out", str(out)]) == 2
        assert "width" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, match",
        [
            (["channel-flow", "--depolarizing", "nan"], "non-finite"),
            (["channel-flow", "--channel", "inf,0,0,0"], "non-finite"),
            (["memory-support", "--depolarizing", "nan", "--epsilon", "0.5"], "non-finite"),
            (["channel-flow", "--depolarizing", "0.1", "--max-levels", "-1"], "max_levels"),
            (["channel-flow", "--depolarizing", "0.1", "--tol", "0"], "tol"),
            (["threshold", "--max-levels", "-1"], "max_levels"),
            (["memory-support", "--depolarizing", "0.3", "--epsilon", "0.5",
              "--lattice-L", "-2"], "lattice spacing"),
            (["memory-support", "--depolarizing", "0.3", "--epsilon", "0.5",
              "--lattice-L", "inf"], "lattice spacing"),
            (["memory-support", "--depolarizing", "0.3", "--epsilon", "0.5",
              "--dimension", "0"], "dimension"),
        ],
        ids=["flow-nan", "flow-inf", "support-nan", "max-levels", "tol", "threshold-levels",
             "negative-L", "infinite-L", "dimension"],
    )
    def test_meaningless_channel_input_refused(self, argv, match, tmp_path, capsys):
        out = tmp_path / "artifact"
        assert run([*argv, "--out", str(out)]) == 2
        assert match in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("L", ["0", "-5"])
    def test_tiling_non_positive_extent_refused(self, L, capsys):
        assert run(["tiling", "--L", L, "--out", "-"]) == 2
        assert "extent" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["channel-flow", "--depolarizing", "0.05"],
            ["threshold", "--lo", "0.01", "--hi", "0.3"],
            ["memory-support", "--depolarizing", "0.2", "--epsilon", "0.5"],
            ["classify", "--levels", "1", "--error", "XIIIIIIII"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_shor_channel_subcommands(self, argv, tmp_path):
        out = tmp_path / "out"
        assert run([*argv, "--code", "shor", "--out", str(out)]) == 0

    def test_indeterminate_flow_exit_two(self, tmp_path, capsys):
        out = tmp_path / "threshold.json"
        assert run(["threshold", "--max-levels", "1", "--out", str(out)]) == 2
        assert "unresolved" in capsys.readouterr().err
        assert not out.exists()

    def test_every_package_error_is_a_domain_error(self):
        errors = [
            obj
            for info in pkgutil.iter_modules(blockspin.__path__)
            for name, obj in vars(importlib.import_module(f"blockspin.{info.name}")).items()
            if name.endswith("Error")
            and inspect.isclass(obj)
            and obj.__module__.startswith("blockspin.")
        ]
        assert len({e.__name__ for e in errors}) >= 9
        for err in errors:
            assert issubclass(err, DOMAIN_ERRORS), err


class TestArtifacts:
    def test_code_json_metadata(self, tmp_path):
        out = tmp_path / "code.json"
        run(["code", "--code", "five-qubit", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["meta"]["schema_version"] == 1
        assert "tool_version" in doc["meta"]
        assert doc["meta"]["config"]["code"] == "five-qubit"
        assert doc["code"]["n"] == 5

    def test_decode_output(self, tmp_path):
        out = tmp_path / "dec.json"
        run(["decode", "--error", "XIIII", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["logical_class"] == "I"
        assert len(doc["syndrome"]) == 4

    def test_channel_flow_csv_verdict(self, tmp_path, capsys):
        out = tmp_path / "flow.csv"
        rc = run(
            ["channel-flow", "--code", "five-qubit", "--depolarizing", "0.01",
             "--out", str(out)]
        )
        assert rc == 0
        text = out.read_text()
        assert "# verdict=converged-to-identity" in text
        assert "r,p_I,p_X,p_Y,p_Z,q_r" in text
        assert text.startswith("# schema_version=")

    def test_tiling_svg_metadata(self, tmp_path):
        svg = tmp_path / "tiles.svg"
        out = tmp_path / "t.json"
        rc = run(
            ["tiling", "--plus", "--L", "5", "--hand", "right",
             "--svg", str(svg), "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["tiles"] == 5
        assert doc["rescale"] == pytest.approx(math.sqrt(5), abs=1e-12)
        assert doc["rotation"] == pytest.approx(math.atan2(1, 2), abs=1e-12)
        body = svg.read_text()
        assert f"rescale={math.sqrt(5):.12f}" in body

    def test_memory_support_infinite(self, tmp_path):
        out = tmp_path / "ms.json"
        run(
            ["memory-support", "--depolarizing", "0.01", "--epsilon", "0.5",
             "--out", str(out)]
        )
        doc = json.loads(out.read_text())
        assert doc["size"] == "INFINITE"

    def test_dfs_blocks(self, tmp_path):
        out = tmp_path / "dfs.json"
        run(["dfs", "--qubits", "3", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert sorted((b["d"], b["m"]) for b in doc["blocks"]) == [
            (2, 2),
            (4, 1),
        ]
        assert doc["meta"]["seed"] == 2024


class TestDeterminism:
    GOLDEN = [
        ["code", "--code", "five-qubit"],
        ["channel-flow", "--code", "five-qubit", "--depolarizing", "0.01"],
        ["dfs", "--qubits", "3"],
    ]

    @pytest.mark.parametrize("argv", GOLDEN, ids=["code", "flow", "dfs"])
    def test_byte_identical_reruns(self, argv, tmp_path):
        a = tmp_path / "a.out"
        b = tmp_path / "b.out"
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_tiling_svg_deterministic(self, tmp_path):
        svgs = []
        for name in ("a.svg", "b.svg"):
            path = tmp_path / name
            run(["tiling", "--plus", "--L", "5", "--svg", str(path),
                 "--out", str(tmp_path / "t.json")])
            svgs.append(path.read_bytes())
        assert svgs[0] == svgs[1]
