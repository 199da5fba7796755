"""numpy and the package's layers are imported on first use: a subcommand
loads only the layers it calls, only `dfs` loads numpy, and no other job
loads `dataclasses` or `inspect`.

Each check runs in a fresh interpreter, since the test process has usually
imported numpy and every layer already.  A module-level numpy call anywhere
in the package loads numpy at `import blockspin` and fails these tests.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from blockspin._numpy import BLAS_THREAD_VARS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _layers() -> tuple[str, ...]:
    return _tracing().LAYERS


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _env_without_blas_threads(**extra: str) -> dict[str, str]:
    """`_env()` with no BLAS thread count, so that the defaults apply, plus `extra`."""
    env = {k: v for k, v in _env().items() if k not in BLAS_THREAD_VARS}
    return {**env, **extra}


def fresh(code: str, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """Run `code` in a new interpreter that imports blockspin from src/."""
    return subprocess.run(
        [sys.executable, "-c", code], env=env or _env(), capture_output=True, text=True,
        timeout=120,
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
# plain-float map iteration, cycle detection and scan grid
LOGISTIC_JOBS = {
    "logistic-orbit": ["logistic", "--r", "1", "--K", "1", "--dt", "2.3", "--steps", "1400"],
    "logistic-scan": ["logistic", "--r", "1", "--K", "1", "--dt", "1", "--scan-mu", "2.8", "3.6", "9"],
}

NO_NUMPY = (
    "import sys\n"
    "{setup}\n"
    "loaded = sorted(m for m in sys.modules if m.startswith('numpy.'))\n"
    "assert not loaded, loaded[:5]\n"
)


# every setup but `dfs`, whose numpy loads `inspect` itself
NUMPY_FREE_SETUPS = {
    "import": "import blockspin",
    "import-cli": "import blockspin.cli",
    "tiling-subcommand": "from blockspin import cli\n"
    "assert cli.main(['tiling', '--L', '25', '--out', {out!r}]) == 0",
    "concatenate": "from blockspin.tiling import concatenate_tiling, plus_tiling\n"
    "assert len(concatenate_tiling(plus_tiling(25), 2).addresses) == 625",
    **{
        job: f"from blockspin import cli\nassert cli.main({argv!r} + ['--out', {{out!r}}]) == 0"
        for job, argv in {**CHANNEL_JOBS, **LOGISTIC_JOBS}.items()
    },
}


@pytest.mark.parametrize("setup", NUMPY_FREE_SETUPS.values(), ids=NUMPY_FREE_SETUPS)
def test_numpy_not_loaded(setup, tmp_path):
    setup = setup.format(out=str(tmp_path / "artifact"))
    proc = fresh(NO_NUMPY.format(setup=setup))
    assert proc.returncode == 0, proc.stderr


# `dataclasses` loads `inspect`, `ast`, `dis` and `tokenize`; the package's
# value types (`blockspin._value.frozen`) need neither module
NO_DATACLASSES = (
    "import sys\n"
    "{setup}\n"
    "loaded = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
    "assert not loaded, loaded\n"
)


@pytest.mark.parametrize("setup", NUMPY_FREE_SETUPS.values(), ids=NUMPY_FREE_SETUPS)
def test_dataclasses_and_inspect_not_loaded(setup, tmp_path):
    setup = setup.format(out=str(tmp_path / "artifact"))
    proc = fresh(NO_DATACLASSES.format(setup=setup))
    assert proc.returncode == 0, proc.stderr


CODE_LAYERS = ["codes", "pauli"]
CHANNEL_LAYERS = ["channel", "codes", "pauli"]

# the layers each setup runs, besides cli; a layer counts as loaded once its
# module is no longer the lazy stand-in, which `type()` does not load
LAYERS_LOADED = {
    "import-cli": ("import blockspin.cli", []),
    "tiling": (["tiling", "--L", "25"], ["tiling"]),
    "concatenate": ("from blockspin.tiling import concatenate_tiling", ["tiling"]),
    "code": (CHANNEL_JOBS["code"], CODE_LAYERS),
    "decode": (CHANNEL_JOBS["decode"], CODE_LAYERS),
    "classify": (CHANNEL_JOBS["classify"], CHANNEL_LAYERS),
    "channel-flow": (CHANNEL_JOBS["channel-flow"], CHANNEL_LAYERS),
    "threshold": (CHANNEL_JOBS["threshold"], CHANNEL_LAYERS),
    "memory-support": (CHANNEL_JOBS["memory-support"], CHANNEL_LAYERS),
    "toric": (CHANNEL_JOBS["toric"], ["codes", "pauli", "toric_rescale"]),
    "dfs": (["dfs", "--qubits", "3"], ["dfs"]),
    "logistic-orbit": (LOGISTIC_JOBS["logistic-orbit"], ["logistic"]),
    "logistic-scan": (LOGISTIC_JOBS["logistic-scan"], ["logistic"]),
}


@pytest.mark.parametrize("setup, expected", LAYERS_LOADED.values(), ids=LAYERS_LOADED)
def test_subcommand_loads_only_its_layers(setup, expected, tmp_path):
    if isinstance(setup, list):
        out = str(tmp_path / "artifact")
        setup = f"from blockspin import cli\nassert cli.main({setup!r} + ['--out', {out!r}]) == 0"
    layers = [m for m in _layers() if m != "cli"]
    code = (
        "import importlib.util, sys\n"
        f"{setup}\n"
        "lazy = importlib.util._LazyModule\n"
        f"loaded = [m for m in {layers!r} if 'blockspin.' + m in sys.modules\n"
        "          and type(sys.modules['blockspin.' + m]) is not lazy]\n"
        "print(' '.join(sorted(loaded)))\n"
    )
    proc = fresh(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == expected


def test_package_surface():
    code = (
        "import sys\n"
        "import blockspin.cli\n"
        + "".join(
            f"import blockspin.{m}\nassert blockspin.{m} is sys.modules['blockspin.{m}']\n"
            for m in _layers()
        )
        + "exports = {'Pauli': 'pauli', 'StabilizerGroup': 'pauli', 'StabilizerCode': 'codes',\n"
        "           'five_qubit_code': 'codes', 'PauliChannel': 'channel'}\n"
        "for name, layer in exports.items():\n"
        "    obj = getattr(blockspin, name)\n"
        "    assert obj.__module__ == 'blockspin.' + layer, name\n"
        "    assert obj is getattr(sys.modules['blockspin.' + layer], name), name\n"
        "for mod in (blockspin, blockspin.cli):\n"
        "    try:\n"
        "        mod.no_such_name\n"
        "    except AttributeError:\n"
        "        pass\n"
        "    else:\n"
        "        raise AssertionError(mod.__name__)\n"
        "assert blockspin.cli.DOMAIN_ERRORS == (ValueError,)\n"
        "from blockspin.channel import ChannelError, IndeterminateFlowError\n"
        "assert issubclass(IndeterminateFlowError, ChannelError)\n"
    )
    proc = fresh(code)
    assert proc.returncode == 0, proc.stderr
    # a re-export loads its module when nothing else has
    proc = fresh(
        "from blockspin import PauliChannel, five_qubit_code\n"
        "assert five_qubit_code().n == 5 and PauliChannel.__module__ == 'blockspin.channel'\n"
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv, spans, counters",
    [
        (
            ["threshold", "--code", "five-qubit", "--width", "1e-3"],
            ["channel.threshold", "channel.effective_channel", "channel.LogicalActionTable.build"],
            {"channel.table_entries": 1024},
        ),
        (["tiling", "--L", "25"], ["tiling.plus_tiling", "tiling.validate_tiling"], {}),
    ],
    ids=["threshold", "tiling"],
)
def test_tracing_wraps_lazily_loaded_layers(argv, spans, counters, tmp_path):
    # perfbench/job.py installs its wrappers after `import blockspin.cli`,
    # when the layers are still lazy; reading each module's namespace loads it
    dump = tmp_path / "spans"
    job = [sys.executable, str(ROOT / "perfbench" / "job.py"), "job", str(dump), "cli"]
    proc = subprocess.run(
        job + argv + ["--out", str(tmp_path / "artifact")],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, recorded = _tracing().load(str(dump))
    names = {name for name, *_ in recorded}
    assert set(spans) <= names, sorted(names)
    for counter, value in counters.items():
        assert header["counters"][counter] == value


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
        # numpy.random pulls in secrets, hmac and OpenSSL: most of a dfs
        # job's peak RSS, for a few dozen draws that `random` makes
        "assert 'numpy.random' not in sys.modules\n"
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


# the CLI runs numpy's BLAS on one thread unless the caller sets a count;
# the library leaves the environment alone
REPORT_BLAS_THREADS = (
    "import os\n"
    "{setup}\n"
    f"print(*[os.environ.get(v) for v in {BLAS_THREAD_VARS!r}])\n"
    "tasks = '/proc/self/task'\n"
    "print(len(os.listdir(tasks)) if os.path.isdir(tasks) else None)\n"
)
CLI_DFS = "from blockspin import cli\nassert cli.main(['dfs', '--qubits', '3', '--out', {out!r}]) == 0"


def test_cli_defaults_to_one_blas_thread(tmp_path):
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count the threads in")
    setup = CLI_DFS.format(out=str(tmp_path / "artifact"))
    proc = fresh(REPORT_BLAS_THREADS.format(setup=setup), _env_without_blas_threads())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["1 1 1", "1"]


def test_caller_set_blas_threads_win(tmp_path):
    setup = CLI_DFS.format(out=str(tmp_path / "artifact"))
    env = _env_without_blas_threads(OPENBLAS_NUM_THREADS="2")
    proc = fresh(REPORT_BLAS_THREADS.format(setup=setup), env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "2 None None"


def test_library_leaves_the_environment_alone():
    code = (
        "import os\n"
        "before = dict(os.environ)\n"
        "import blockspin\n"
        "from blockspin import dfs\n"
        "assert dfs.decompose(dfs.collective_noise_generators(3)).algebra_dim == 20\n"
        "assert dict(os.environ) == before\n"
    )
    proc = fresh(code, _env_without_blas_threads())
    assert proc.returncode == 0, proc.stderr
