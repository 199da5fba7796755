import hashlib
import importlib
import inspect
import json
import math
import os
import pkgutil
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import blockspin
from blockspin import cli
from blockspin._numpy import BLAS_THREAD_VARS
from blockspin.cli import DOMAIN_ERRORS, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv):
    return main(argv)


def _seeded_error(n, seed, rate):
    """A fixed n-qubit error: each qubit is hit with probability rate, by X,
    Y or Z alike; random.Random.random gives the same stream on every
    platform."""
    rng = random.Random(seed)
    return "".join("XYZ"[int(3 * rng.random())] if rng.random() < rate else "I"
                   for _ in range(n))


class TestExitCodes:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert run(["no-such-command"]) == 1

    def test_unknown_flag_usage_error(self):
        assert run(["code", "--bogus"]) == 1

    def test_domain_error_exit_two(self, tmp_path, capsys):
        rc = run(["logistic", "--r", "1", "--K", "1", "--dt", "0"])
        assert rc == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "code, n", [(["five-qubit"], 5), (["toric", "--L", "3"], 18)], ids=["five-qubit", "toric"]
    )
    def test_decode_wrong_length_error_refused(self, code, n, capsys):
        assert run(["decode", "--code", *code, "--error", "XX"]) == 2
        assert capsys.readouterr().err == f"error: error must act on {n} qubits\n"

    def test_negative_levels_refused(self, tmp_path, capsys):
        out = tmp_path / "classify.json"
        argv = ["classify", "--levels", "-1", "--error", "X", "--out", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: levels must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("levels", ["2", "2000", "1000000", "10000000"])
    def test_short_error_refused_without_the_power(self, levels, tmp_path, capsys):
        out = tmp_path / "classify.json"
        argv = ["classify", "--levels", levels, "--error", "X", "--out", str(out)]
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == f"error: error must act on 5^{levels} qubits, got 1\n"
        assert not out.exists()

    def test_long_error_names_the_qubit_count(self, tmp_path, capsys):
        out = tmp_path / "classify.json"
        argv = ["classify", "--levels", "2", "--error", "X" * 30, "--out", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: error must act on 25 qubits\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [(["--lattice-L", "1e308"], "5^6 * 1e+308^1"),
         (["--lattice-L", "2", "--dimension", "2000"], "5^6 * 2.0^2000")],
        ids=["size-overflows", "power-overflows"],
    )
    def test_memory_support_overflow_refused(self, flags, message, tmp_path, capsys):
        out = tmp_path / "ms.json"
        argv = ["memory-support", "--depolarizing", "0.14", "--epsilon", "0.01", *flags,
                "--out", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"error: memory support {message} overflows a float\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("L", ["1e-200", "1e-160"], ids=["size-zero", "size-subnormal"])
    def test_memory_support_underflow_refused(self, L, tmp_path, capsys):
        out = tmp_path / "ms.json"
        argv = ["memory-support", "--depolarizing", "0.14", "--epsilon", "0.01",
                "--lattice-L", L, "--dimension", "2", "--out", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"error: memory support 5^6 * {float(L)}^2 underflows a float\n"
        )
        assert not out.exists()

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

    def test_dfs_negative_seed_refused(self, capsys):
        assert run(["dfs", "--qubits", "4", "--seed", "-1"]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["toric"], ["code", "--code", "toric"]], ids=["toric", "code"]
    )
    def test_oversized_toric_lattice_refused_at_once(self, argv, monkeypatch, capsys):
        def no_generator(*args):
            raise AssertionError("a toric generator was built")

        # toric_rescale binds the builders from codes when it loads, so it is
        # patched (and loaded) first: loading it under the patch would keep
        # the stand-ins bound after the test
        for layer in ("toric_rescale", "codes"):
            module = importlib.import_module(f"blockspin.{layer}")
            monkeypatch.setattr(module, "toric_site_generator", no_generator)
            monkeypatch.setattr(module, "toric_plaquette_generator", no_generator)
        assert run([*argv, "--L", str(10**6), "--out", "-"]) == 2
        assert "exceeds cap" in capsys.readouterr().err

    def test_small_toric_lattice_refused(self, tmp_path, capsys):
        out = tmp_path / "toric.csv"
        assert run(["toric", "--L", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: rescaled generators need L >= 3\n"
        assert not out.exists()

    def test_untabulated_toric_syndrome_names_its_defects(self, tmp_path, capsys):
        # X on edge 0 of the L = 41 torus flips plaquettes (0, 0) and (0, 40),
        # checks 1680 and 3320 of the 3360 independent ones
        out = tmp_path / "decode.json"
        error = "X" + "I" * (2 * 41 * 41 - 1)
        argv = ["decode", "--code", "toric", "--L", "41", "--error", error, "--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: no recovery entry for syndrome with defects at checks"
            " [1680, 3320] (of 3360)\n"
        )
        assert len(err) < 200
        assert not out.exists()

    @pytest.mark.parametrize("count", ["inf", "nan", "2.5"])
    def test_logistic_scan_count_must_be_whole(self, count, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        argv = ["logistic", "--r", "1", "--K", "1", "--dt", "1", "--scan-mu", "3", "3.5", count]
        assert run([*argv, "--out", str(out)]) == 2
        assert "COUNT" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--N0", "nan"], "n0 must be finite, got nan"),
            (["--N0", "inf"], "n0 must be finite, got inf"),
            (["--r", "nan"], "r must be positive and finite, got nan"),
            (["--K", "inf"], "K must be positive and finite, got inf"),
            (["--dt", "inf"], "dt must be positive and finite, got inf"),
            (["--scan-mu", "1", "nan", "3"], "mu must be finite, got nan"),
        ],
        ids=["N0-nan", "N0-inf", "r-nan", "K-inf", "dt-inf", "scan-mu-nan"],
    )
    def test_logistic_non_finite_input_refused(self, flag, message, tmp_path, capsys):
        out = tmp_path / "orbit.csv"
        argv = ["logistic", "--r", "1", "--K", "1", "--dt", "0.1", "--steps", "3", *flag]
        assert run([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_logistic_scan_count_capped(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        argv = ["logistic", "--r", "1", "--K", "1", "--dt", "1", "--scan-mu", "3", "3.5", "1e7"]
        assert run([*argv, "--out", str(out)]) == 2
        assert "COUNT" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("width", ["0", "-1", "nan", "inf", "1e-20"])
    def test_threshold_bad_width_refused(self, width, tmp_path, capsys):
        out = tmp_path / "threshold.json"
        assert run(["threshold", "--width", width, "--out", str(out)]) == 2
        assert "width" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, match",
        [
            (["channel-flow", "--depolarizing", "nan"], "non-finite"),
            (["channel-flow", "--channel", "inf,0,0,0"], "non-finite"),
            (["memory-support", "--depolarizing", "nan", "--epsilon", "0.5"], "non-finite"),
            (["channel-flow", "--depolarizing", "0.1", "--max-levels", "-1"], "max_levels"),
            (["channel-flow", "--depolarizing", "0.1", "--tol", "0"], "tol"),
            (["channel-flow", "--depolarizing", "0.7", "--tol", "inf"], "tol"),
            (["channel-flow", "--depolarizing", "0.7", "--tol", "1"], "tol"),
            (["threshold", "--max-levels", "-1"], "max_levels"),
            (["memory-support", "--depolarizing", "0.3", "--epsilon", "0.5",
              "--lattice-L", "-2"], "lattice spacing"),
            (["memory-support", "--depolarizing", "0.3", "--epsilon", "0.5",
              "--lattice-L", "inf"], "lattice spacing"),
            (["memory-support", "--depolarizing", "0.3", "--epsilon", "0.5",
              "--dimension", "0"], "dimension"),
        ],
        ids=["flow-nan", "flow-inf", "support-nan", "max-levels", "tol", "tol-inf", "tol-one",
             "threshold-levels",
             "negative-L", "infinite-L", "dimension"],
    )
    def test_meaningless_channel_input_refused(self, argv, match, tmp_path, capsys):
        out = tmp_path / "artifact"
        assert run([*argv, "--out", str(out)]) == 2
        assert match in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["channel-flow", "memory-support"])
    @pytest.mark.parametrize(
        "flags",
        [["--depolarizing", "0.01", "--bit-flip", "0.3"],
         ["--channel", "0.7,0.3,0,0", "--depolarizing", "0.01"]],
        ids=["depolarizing-bit-flip", "channel-depolarizing"],
    )
    def test_two_channel_flags_are_a_usage_error(self, command, flags, tmp_path, capsys):
        out = tmp_path / "artifact"
        extra = ["--epsilon", "0.5"] if command == "memory-support" else []
        assert run([command, *flags, *extra, "--out", str(out)]) == 1
        assert f"argument {flags[2]}: not allowed with argument {flags[0]}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, tail",
        [("channel-flow", ["--max-levels", "--tol"]),
         ("memory-support", ["--epsilon", "--lattice-L", "--dimension"])],
    )
    def test_help_lists_the_same_options(self, command, tail, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "--help"])
        options = capsys.readouterr().out.split("options:")[1]
        assert re.findall(r"^  (-[-\w]+)", options, re.M) == [
            "-h", "--out", "--code", "--L", "--depolarizing", "--bit-flip", "--channel", *tail
        ]

    @pytest.mark.parametrize(
        "hand, rotation", [("right", math.atan2(1, 2)), ("left", -math.atan2(1, 2))]
    )
    def test_brick_tiling_honours_hand(self, hand, rotation, tmp_path):
        out = tmp_path / "tiling.json"
        assert run(["tiling", "--brick", "--hand", hand, "--L", "25", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        name = {"right": "brick", "left": "brick-left"}[hand]
        assert doc["tiling"] == name and doc["exact_cover"]
        assert doc["rotation"] == pytest.approx(rotation, abs=1e-12)

    def test_trivial_tiling_has_no_left_hand(self, tmp_path, capsys):
        out = tmp_path / "tiling.json"
        assert run(["tiling", "--trivial", "--hand", "left", "--L", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: trivial tiling has no handedness: --hand left\n"
        )
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

    @pytest.mark.parametrize(
        "argv, name",
        [(["code", "--out"], "x.json"), (["tiling", "--L", "25", "--svg"], "t.svg"),
         (["toric", "--L", "41", "--out"], "x.csv")],
        ids=["code-out", "tiling-svg", "toric-out"],
    )
    def test_unwritable_path_refused_before_the_work(self, argv, name, tmp_path, capsys):
        path = tmp_path / "missing" / name
        start = time.perf_counter()
        assert run([*argv, str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot write {path}: no such writable directory\n"
        assert not path.parent.exists()

    def test_write_failure_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "t.svg"
        path.mkdir()
        out = tmp_path / "tiling.json"
        assert run(["tiling", "--L", "25", "--svg", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {path}: Is a directory\n"
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

    @pytest.mark.parametrize(
        "argv",
        [["decode"], ["classify", "--levels", "1"]],
        ids=["decode", "classify"],
    )
    def test_signed_error_needs_the_equals_form(self, argv, tmp_path, capsys):
        # argparse reads a separate "-iXXYZI" as an option: a usage error
        out = tmp_path / "artifact.json"
        assert run([*argv, "--error", "-iXXYZI", "--out", str(out)]) == 1
        assert "expected one argument" in capsys.readouterr().err
        assert not out.exists()
        assert run([*argv, "--error=-iXXYZI", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["config"]["error"] == "-iXXYZI"

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

    @pytest.mark.parametrize("probs", ["0,1,0,0", "0,0,1,0", "0,0,0,1"])
    def test_memory_support_of_a_fixed_logical_pauli_refused(self, probs, tmp_path, capsys):
        out = tmp_path / "ms.json"
        argv = ["memory-support", "--channel", probs, "--epsilon", "0.5", "--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "fixed channel" in err and "unresolved" not in err
        assert not out.exists()

    def test_scan_streams_the_lines_it_used_to_join(self, tmp_path, capsys):
        from blockspin.cli import _csv_header, _linspace, build_parser
        from blockspin.logistic import LogisticParams, bifurcation_scan

        argv = ["logistic", "--r", "1", "--K", "1", "--dt", "1", "--scan-mu", "2.8", "3.6", "7"]
        out = tmp_path / "scan.csv"
        assert run([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(argv) == 0
        stdout = capsys.readouterr().out
        lines = [_csv_header(build_parser().parse_args(argv)).rstrip("\n"), "mu,tail_value"]
        kappa = LogisticParams(r=1.0, K=1.0, dt=1.0).kappa
        for mu, tail in bifurcation_scan(_linspace(2.8, 3.6, 7), kappa=kappa, n0=0.5):
            lines.extend(f"{mu:.17g},{v:.17g}" for v in tail)
        assert stdout == "\n".join(lines) + "\n"
        # the file's header differs from stdout's only in the --out it records
        assert out.read_text().splitlines()[4:] == stdout.splitlines()[4:]

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


class TestGoldenArtifacts:
    """SHA-256 of artifacts whose bytes must not change: the toric scan and
    structure lines with the support SVG, and a tiling picture."""

    TORIC = {
        3: (
            "0717a35cafc0df710812571298b11d02814db841a53f80b28bac5f9408ce16b2",
            "f96002e7f66fad645929909b46ba29c1a2acb2245f29fcde6aac625bc7ff587d",
        ),
        5: (
            "284a2c6ada91766f6fc85708c0891afbf68735974b5d90717ad5023ef4c408a1",
            "d28e7fa552b44874d4a03cbfa4338a15d621fac7cb3faba584530d973048131d",
        ),
        9: (
            "8367682d9b770c4f0bb11f416314a2292b62b48d5b0f936843862078bf938ab4",
            "7a109e64b6c3e07254e3dc5dd3cfd2639375371a7c0f6325b471991076947ccf",
        ),
    }
    TILING_25_SVG = "33b41b0754ac88aef068e1dd4053849a8b2223d67de16d20e3acbef31c75da7c"

    @pytest.mark.parametrize("side", sorted(TORIC))
    def test_toric(self, side, tmp_path, capsys):
        svg = tmp_path / "toric.svg"
        assert run(["toric", "--L", str(side), "--svg", str(svg)]) == 0
        out = capsys.readouterr().out.encode()
        digests = tuple(hashlib.sha256(b).hexdigest() for b in (out, svg.read_bytes()))
        assert digests == self.TORIC[side]

    def test_tiling_svg(self, tmp_path):
        svg, out = tmp_path / "tiling.svg", tmp_path / "t.json"
        assert run(["tiling", "--L", "25", "--svg", str(svg), "--out", str(out)]) == 0
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == self.TILING_25_SVG

    # one invocation per subcommand, deeper Shor and Steane classifications,
    # the scan, a refusal (exit 2) and a usage error (exit 1): (argv, exit
    # code, SHA-256 of stdout, of stderr and of the --svg file, which is asked
    # for when its digest is given)
    INVOCATIONS = {
        "code": (
            ["code", "--code", "steane"], 0,
            "9a2ba522c2cf8226f497843a7a7e5f70009feda606fdad90a30bc4db7025dfce",
            "7e27cedf4326603650d092bcbac011083e884c056992f9c15346c03b1c31c00a",
            None,
        ),
        "decode": (
            ["decode", "--code", "shor", "--error", "IIIIYIIII"], 0,
            "0ac2f049d90f6f906feba7c6a8a1f11cc99ed2a3dac7deca35b5aa5773691928",
            "7e52ade89714346bc936eded2978d184e537c6876825bafd739ddf7c68e4be3a",
            None,
        ),
        "channel-flow": (
            ["channel-flow", "--code", "five-qubit", "--depolarizing", "0.05"], 0,
            "17a4d22e669b552b8ea5656f0a49dc684b7655df63025b4a1bf27ec836f31561",
            "b8cf00f186090c9c5e7bc756e30b4443776470ca735b9fd1e9d4e7dbae4b9de0",
            None,
        ),
        "threshold": (
            ["threshold", "--code", "five-qubit", "--width", "1e-4"], 0,
            "227b920bd3cbc8389b93df9fa8d617459b0d4d9814b3e1687c48601b94f0f0e8",
            "297dc96889fa3ce037c449921136a30c113dfd4530807d695e5895f4ea3236fb",
            None,
        ),
        "memory-support": (
            ["memory-support", "--code", "steane", "--depolarizing", "0.2",
             "--epsilon", "0.5"], 0,
            "44ee5bce63e2a1ce96be70b82b4b1380c0d7a72780be3a368cb02fca0de4ddcb",
            "cbca1c16f2a96bcefe1892bed46eda52084b081635a3f2ae56a8da86f21a7b03",
            None,
        ),
        "classify": (
            ["classify", "--code", "five-qubit", "--levels", "2", "--error", "XZ" + "I" * 23], 0,
            "ca5709788322d39fd2283a4f518ef4779876c51e34392e24d7f4cae24d3c60c7",
            "fd01e6726717b8d213090ca522794e70bcc729e2fd80d9e854a2c15216023ccd",
            None,
        ),
        "classify-shor": (
            ["classify", "--code", "shor", "--levels", "2",
             "--error", _seeded_error(9**2, 3, 0.08)], 0,
            "92477754e3788d816aaa413ad85384e65b0c5b051f2edc96cf512a8803b4a227",
            "fd01e6726717b8d213090ca522794e70bcc729e2fd80d9e854a2c15216023ccd",
            None,
        ),
        "classify-steane": (
            ["classify", "--code", "steane", "--levels", "3",
             "--error", _seeded_error(7**3, 2, 0.04)], 0,
            "b8ef1132c15aa2977c9444b34c406d5afa9d4da1f9f80a796d7585edfbb20b3f",
            "fd01e6726717b8d213090ca522794e70bcc729e2fd80d9e854a2c15216023ccd",
            None,
        ),
        "tiling": (
            ["tiling", "--brick", "--L", "10"], 0,
            "866537ba2aac3bbe7d02516f1dd881c204d1ca5321e2490778661be1f617a10e",
            "c17b1aa2212f2dea0394e495b4562bfb229bf2502a9a0082e45bc31ef9534af3",
            "29c1888b89904529102575d17d03f31e34748ebff2550793a39cf20b7f0a9967",
        ),
        "toric": (
            ["toric", "--L", "4"], 0,
            "b4744481f87d3ed1db2df0c2d312a363da6ec4126058b5dfd26401f9702bd3a4",
            "17e32fdfae469481072e338b9cb9d6bf75e91e90825a2bba1b307aa75d1b24a1",
            "18758dee98806b2a83734e340affe856a551101ca4371a92f5348734661637e3",
        ),
        "dfs": (
            ["dfs", "--qubits", "3", "--seed", "7"], 0,
            "6c0073651a185053012bac2c459b9040d272cea704107d1778e3e2198940e54a",
            "543cfeea340989933006ab2e3160b5b4c463841419c048a70c6e05394b7a6fe2",
            None,
        ),
        "dfs-4": (
            ["dfs", "--qubits", "4", "--seed", "7"], 0,
            "bb9eec4daff7d278f6586a1005e333986e0a715af0a17ccd85e319ba6c8918b9",
            "954cdf0a00022fc68a7389fb80ff8a7bd74c3d80c6e176ca45323dbdc98e67cd",
            None,
        ),
        "logistic": (
            ["logistic", "--r", "1", "--K", "1", "--dt", "2.3", "--steps", "1400"], 0,
            "44917204c402d6b6e941fa35b1e7ffbc93391dda3e2df0158a5db8b780825873",
            "0361a7ae5f0c530daa39bd9cf7e587a1a08f1baf517212827edc34d5ea9a2f2a",
            None,
        ),
        "logistic-scan": (
            ["logistic", "--r", "1", "--K", "1", "--dt", "1", "--scan-mu", "2.8", "3.6", "9"], 0,
            "08bf01df1f8a66c3db54935827a2b531fb6b8c672143c5f5d33b0f10215b2b07",
            "084663478d1111734c4621166e851e5c9c3aa088f44bdad9cac36b4592f66613",
            None,
        ),
        "refused": (
            ["channel-flow", "--code", "steane"], 2,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "ba9d7908a643ff80a0969490cd0497f0ddc205a66a8f54c5e034d84e3f1547ff",
            None,
        ),
        "usage": (
            ["code", "--bogus"], 1,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "3b873f84aaa8744bb45119772ff1f43084daf669e21855894b730bcf4719fff9",
            None,
        ),
    }
    # `code --code toric --L side` on stdout
    TORIC_CODE = {
        2: "689d9fa123402599c5ced1a5d59b8ea38503144c7a1355eba4f94f05c6d9ef9a",
        3: "f4d8906bb596ef4ec4dd07e9905170a41858ee27f3f6f45b9fef2486f1ec4b8d",
        9: "2e73a6f120efadcfb9dc68600f80d367d0de1fe19457b1ec5c6915c42594c227",
        25: "03bce144690065e231ea835b24e1b49d1ae4859bdc21925465a920b4e0ddee43",
        41: "4f110a3736224ecbd3b1a51ee40b740c800b5821d1b3879395602cacec27a6d0",
    }

    @staticmethod
    def _invoke(argv, svg_digest, tmp_path, capsys):
        svg = tmp_path / "side.svg"
        rc = run([*argv, "--svg", str(svg)] if svg_digest else argv)
        std = capsys.readouterr()
        side = hashlib.sha256(svg.read_bytes()).hexdigest() if svg_digest else None
        return rc, std.out.encode(), std.err.encode(), side

    @pytest.mark.parametrize("name", list(INVOCATIONS))
    def test_invocation(self, name, tmp_path, capsys):
        argv, rc, out, err, svg = self.INVOCATIONS[name]
        got_rc, got_out, got_err, got_svg = self._invoke(argv, svg, tmp_path, capsys)
        sha = lambda b: hashlib.sha256(b).hexdigest()  # noqa: E731
        assert (got_rc, sha(got_out), sha(got_err), got_svg) == (rc, out, err, svg)

    @pytest.mark.parametrize("name", list(INVOCATIONS))
    def test_out_file_holds_the_stdout_bytes(self, name, tmp_path, capsys):
        argv, rc, out, err, svg = self.INVOCATIONS[name]
        path = tmp_path / "artifact"
        got = self._invoke([*argv, "--out", str(path)], svg, tmp_path, capsys)
        assert got[:2] == (rc, b"")
        assert hashlib.sha256(got[2]).hexdigest() == err
        if rc == 0:
            assert hashlib.sha256(path.read_bytes()).hexdigest() == out
        else:
            assert not path.exists()

    @pytest.mark.parametrize("name", ["dfs", "dfs-4"])
    def test_dfs_in_a_fresh_process(self, name):
        # in-process, numpy has loaded before `main` can set its thread
        # count; a fresh `python -m blockspin.cli` runs under the CLI default
        argv, rc, out, err, _ = self.INVOCATIONS[name]
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "blockspin.cli", *argv], env=env,
                              capture_output=True, timeout=120)
        sha = lambda b: hashlib.sha256(b).hexdigest()  # noqa: E731
        assert (proc.returncode, sha(proc.stdout), sha(proc.stderr)) == (rc, out, err)

    @pytest.mark.parametrize("side", sorted(TORIC_CODE))
    def test_toric_code_document(self, side, capsys):
        assert run(["code", "--code", "toric", "--L", str(side)]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == self.TORIC_CODE[side]


class TestChoiceTables:
    """--code, --family and tiling --kind offer exactly the names that their
    tables dispatch on, and each entry names a builder in its layer."""

    def test_every_entry_names_a_builder(self):
        from blockspin import channel, codes, tiling

        tables = ((cli.CODES, codes), (cli.FAMILIES, channel.PauliChannel), (cli.TILINGS, tiling))
        for table, owner in tables:
            for builder in table.values():
                assert callable(getattr(owner, builder)), builder

    @pytest.mark.parametrize(
        "argv, option, table",
        [(["code"], "--code", cli.CODES), (["threshold"], "--family", cli.FAMILIES),
         (["tiling", "--L", "5"], "--kind", cli.TILINGS)],
        ids=["code", "family", "kind"],
    )
    def test_parser_offers_the_table(self, argv, option, table, capsys):
        parser = cli.build_parser()
        for choice in table:
            assert getattr(parser.parse_args([*argv, option, choice]), option[2:]) == choice
        with pytest.raises(SystemExit):
            parser.parse_args([*argv, option, "no-such-choice"])
