"""numpy is imported on first use: start-up, tiling, codes and channel work
never load it.

Each check runs in a fresh interpreter, since the test process has usually
imported numpy already.  A module-level numpy call anywhere in the package
loads numpy at `import blockspin` and fails these tests.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _layers() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


def fresh(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a new interpreter that imports blockspin from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


# subcommands whose work is packed-int Pauli algebra and the float level map
CHANNEL_JOBS = {
    "code": ["code", "--code", "steane"],
    "decode": ["decode", "--code", "shor", "--error", "IIIIYIIII"],
    "classify": ["classify", "--code", "five-qubit", "--levels", "2", "--error", "X" + "I" * 24],
    "channel-flow": ["channel-flow", "--code", "steane", "--bit-flip", "0.05"],
    "threshold": ["threshold", "--code", "five-qubit", "--width", "1e-6"],
    "memory-support": ["memory-support", "--depolarizing", "0.2", "--epsilon", "0.5"],
    "toric": ["toric", "--L", "3"],
}

NO_NUMPY = (
    "import sys\n"
    "{setup}\n"
    "loaded = sorted(m for m in sys.modules if m.startswith('numpy.'))\n"
    "assert not loaded, loaded[:5]\n"
)


@pytest.mark.parametrize(
    "setup",
    [
        "import blockspin",
        "import blockspin.cli",
        "from blockspin import cli\n"
        "assert cli.main(['tiling', '--L', '25', '--out', {out!r}]) == 0",
        "from blockspin.tiling import concatenate_tiling, plus_tiling\n"
        "assert len(concatenate_tiling(plus_tiling(25), 2).addresses) == 625",
        *(
            f"from blockspin import cli\nassert cli.main({argv!r} + ['--out', {{out!r}}]) == 0"
            for argv in CHANNEL_JOBS.values()
        ),
    ],
    ids=["import", "import-cli", "tiling-subcommand", "concatenate", *CHANNEL_JOBS],
)
def test_numpy_not_loaded(setup, tmp_path):
    setup = setup.format(out=str(tmp_path / "artifact"))
    proc = fresh(NO_NUMPY.format(setup=setup))
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_every_layer():
    code = (
        "import sys, blockspin.cli\n"
        f"missing = [m for m in {_layers()!r} if 'blockspin.' + m not in sys.modules]\n"
        "assert not missing, missing\n"
    )
    proc = fresh(code)
    assert proc.returncode == 0, proc.stderr


def test_numpy_work_runs_in_a_fresh_interpreter():
    code = (
        "import sys\n"
        "from blockspin import cli\n"
        "assert cli.main(['dfs', '--qubits', '3']) == 0\n"
        "assert 'numpy.linalg' in sys.modules\n"
    )
    proc = fresh(code)
    assert proc.returncode == 0, proc.stderr
    assert '"qubits": 3' in proc.stdout


def test_missing_numpy_fails_at_import():
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None  # as if numpy were not installed\n"
        "try:\n"
        "    import blockspin\n"
        "except ModuleNotFoundError as exc:\n"
        "    assert exc.name == 'numpy', exc\n"
        "else:\n"
        "    raise AssertionError('import succeeded without numpy')\n"
    )
    proc = fresh(code)
    assert proc.returncode == 0, proc.stderr


def test_loaded_numpy_is_the_real_module():
    import numpy

    from blockspin._numpy import np

    assert np is numpy
    assert np.zeros(2).tolist() == [0.0, 0.0]
