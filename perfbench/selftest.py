"""Tests of the benchmark itself: span self times, artifact checkers, tracing.

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py``, so the package's own test run does not
collect it.  Artifacts are produced by calling ``blockspin.cli.main`` on the
same kind of jobs the workloads run; each checker must accept the real
artifact and reject a deliberately wrong copy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from blockspin import cli  # noqa: E402


# --- self time on a synthetic span tree ------------------------------------

SPANS = [
    ("job", 0.0, 10.0, -1),        # 0
    ("import", 0.5, 2.0, 0),       # 1
    ("cli.main", 2.0, 9.0, 0),     # 2
    ("a.f", 2.5, 4.0, 2),          # 3
    ("a.g", 3.0, 3.5, 3),          # 4
    ("b.h", 5.0, 7.0, 2),          # 5
    ("b.h", 6.0, 8.0, 2),          # 6 overlaps 5: the union counts once
    ("c.k", 8.5, 9.5, 2),          # 7 runs past its parent: clipped at 9.0
]


def test_self_times_subtract_the_union_of_children():
    got = tracing.self_times(SPANS)
    want = [10 - 1.5 - 7, 1.5, 7 - 1.5 - 3 - 0.5, 1.5 - 0.5, 0.5, 2.0, 2.0, 1.0]
    assert got == pytest.approx(want)


def test_covered_clips_and_merges():
    assert tracing.covered(0, 10, []) == 0
    assert tracing.covered(0, 10, [(2, 4), (3, 6), (8, 12)]) == pytest.approx(6)
    assert tracing.covered(5, 6, [(0, 10)]) == pytest.approx(1)


def test_profile_metrics_from_a_job():
    child = [(name, s, e, p - 1) for name, s, e, p in SPANS[1:]]
    spans = tracing.job_spans(0.0, 10.0, child)
    assert spans == SPANS
    prof = tracing.Profile()
    prof.add_job(spans, {"channel.flow.levels": 12})
    prof.add_job(spans, {"channel.flow.levels": 8})
    m = prof.metrics()
    assert m["job.self_s"] == pytest.approx(3.0)
    assert m["cli.import_s"] == pytest.approx(3.0)
    assert m["b.h.calls"] == 4 and m["b.h.self_s"] == pytest.approx(8.0)
    assert m["a.self_s"] == pytest.approx(2 * (1.0 + 0.5))
    assert m["channel.flow.levels"] == 20
    assert m["channel.levels_per_flow"] == 0.0  # no channel.flow span
    assert prof.job_s == pytest.approx(20.0)


# --- tracing a real job ----------------------------------------------------


def _traced(tmp_path: Path, argv: list[str]) -> tuple[int, dict, list]:
    spans = tmp_path / "job.spans"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(HERE / "job.py"), "t-1", str(spans), "cli", *argv],
                          env=env, capture_output=True, timeout=120)
    header, span_list = tracing.load(str(spans))
    return proc.returncode, header, span_list


def test_traced_job_wraps_defining_and_importing_modules(tmp_path):
    out = tmp_path / "flow.csv"
    rc, header, spans = _traced(tmp_path, ["channel-flow", "--code", "steane", "--depolarizing",
                                           "0.02", "--out", str(out)])
    assert rc == 0 and header["job"] == "t-1"
    names = [s[0] for s in spans]
    assert names[0] == "import" and "cli.main" in names
    # cli binds flow by name; the class carries classmethods and methods
    assert names.count("channel.flow") == 1
    assert "channel.PauliChannel.depolarizing" in names
    assert "channel.LogicalActionTable.build" in names
    assert header["counters"]["channel.table_entries"] == 4**7
    levels = sum(1 for line in out.read_text().splitlines() if line[:1].isdigit()) - 1
    assert header["counters"]["channel.flow.levels"] == levels
    assert names.count("channel.effective_channel") == levels
    by_index = {i: s for i, s in enumerate(spans)}
    for name, start, end, parent in spans:
        assert start <= end
        if parent >= 0:
            p = by_index[parent]
            assert p[1] <= start and end <= p[2]


def test_every_declared_layer_metric_names_a_span_or_counter():
    code = (
        "import sys, json; sys.path[:0] = [%r, %r]\n"
        "import blockspin.cli, tracing\n"
        "rec = tracing.Recorder('x')\n"
        "mods = {n: sys.modules['blockspin.' + n] for n in tracing.LAYERS}\n"
        "tracing.install(rec, mods)\n"
        "print(json.dumps(rec.names))\n"
    ) % (str(ROOT / "src"), str(HERE))
    names = set(json.loads(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                          text=True, check=True, timeout=60).stdout))
    counters = {c for c, _ in tracing.COUNTERS.values()}
    special = {"cli.import_s", "channel.levels_per_flow", "trace.overhead", "job.self_s"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in counters or name in special:
            continue
        base, _, suffix = name.rpartition(".")
        assert suffix in ("calls", "self_s"), name
        assert base in names or base in tracing.LAYERS, name


# --- workloads -------------------------------------------------------------


def test_workloads_are_seeded_and_fixed_in_mix():
    for name, size in (("flow", 14), ("structure", 4), ("quick", 25)):
        a, b = workloads.generate(name, 7), workloads.generate(name, 7)
        assert a == b and len(a) == size
        c = workloads.generate(name, 8)
        assert a != c
        mix = sorted(j["argv"][0] + j["check"]["type"] for j in a)
        assert mix == sorted(j["argv"][0] + j["check"]["type"] for j in c)


# --- artifact checkers -----------------------------------------------------


def _artifacts(tmp_path: Path, job: dict) -> dict[str, str]:
    argv = [a.replace("{out}", str(tmp_path)) for a in job["argv"]]
    if job["kind"] == "cli":
        assert cli.main(argv) == 0
    else:
        import concat
        assert concat.main(argv) == 0
    return {f.name: f.read_text() for f in tmp_path.iterdir()}


def _job(workload: str, type_: str, **match) -> dict:
    for seed in range(50):
        for job in workloads.generate(workload, seed):
            if job["check"]["type"] == type_ and all(job["check"].get(k) == v for k, v in match.items()):
                return job
    raise LookupError(type_)


def _rewrite_json(texts: dict[str, str], name: str, edit) -> dict[str, str]:
    doc = json.loads(texts[name])
    edit(doc)
    return {**texts, name: json.dumps(doc)}


def _reject(job: dict, texts: dict[str, str]) -> None:
    with pytest.raises(checks.CheckError):
        checks.check(job["check"], texts)


def test_threshold_check_rejects_p_star_off_by_1e_3(tmp_path):
    job = _job("quick", "threshold")
    texts = _artifacts(tmp_path, job)
    checks.check(job["check"], texts)

    def shift(doc):
        doc["p_star"] = workloads.REFERENCE_P_STAR["five-qubit", "depolarizing"] + 2e-3

    _reject(job, _rewrite_json(texts, "threshold.json", shift))
    fine = {"type": "threshold", "code": "steane", "family": "bit-flip", "width": 1e-9}
    ref = workloads.REFERENCE_P_STAR["steane", "bit-flip"]
    doc = {"family": "bit-flip", "p_star": ref + 1e-3}
    with pytest.raises(checks.CheckError):
        checks.check(fine, {"threshold.json": json.dumps(doc)})
    doc["p_star"] = ref + 2.4e-9
    checks.check(fine, {"threshold.json": json.dumps(doc)})
    doc["p_star"] = ref - 2.6e-9
    with pytest.raises(checks.CheckError):
        checks.check(fine, {"threshold.json": json.dumps(doc)})


@pytest.mark.parametrize("edit", [
    lambda d: d["blocks"].reverse(),                                     # reordered
    lambda d: d.update(blocks=[{"d": 5, "m": 1}, {"d": 3, "m": 4}]),     # merged
    lambda d: d.update(residual=1e-6),
])
def test_dfs_check_rejects_wrong_blocks(tmp_path, edit):
    job = _job("quick", "dfs", qubits=4)
    texts = _artifacts(tmp_path, job)
    checks.check(job["check"], texts)
    _reject(job, _rewrite_json(texts, "dfs.json", edit))


def test_channel_flow_check_rejects_wrong_basin(tmp_path):
    job = _job("quick", "channel_flow", verdict="converged-to-identity")
    texts = _artifacts(tmp_path, job)
    checks.check(job["check"], texts)
    text = texts["flow.csv"].replace("converged-to-identity", "converged-to-noise")
    _reject(job, {"flow.csv": text})


def test_decode_and_classify_checks_reject_logical_errors(tmp_path):
    job = _job("quick", "decode")
    (tmp_path / "decode").mkdir()
    texts = _artifacts(tmp_path / "decode", job)
    checks.check(job["check"], texts)
    _reject(job, _rewrite_json(texts, "decode.json", lambda d: d.update(logical_class="X")))
    job = _job("quick", "classify", levels=3)
    (tmp_path / "classify").mkdir()
    texts = _artifacts(tmp_path / "classify", job)
    checks.check(job["check"], texts)
    _reject(job, _rewrite_json(texts, "classify.json", lambda d: d.update(verdict="fatal")))


def test_code_check_rejects_wrong_parameters(tmp_path):
    job = _job("quick", "code", n=7)
    texts = _artifacts(tmp_path, job)
    checks.check(job["check"], texts)
    _reject(job, _rewrite_json(texts, "code.json", lambda d: d["code"]["generators"].pop()))


def test_toric_check_rejects_wrong_weights(tmp_path):
    spec = {"type": "toric", "L": 5}
    argv = ["toric", "--L", "5", "--out", str(tmp_path / "toric.csv")]
    assert cli.main(argv) == 0
    texts = {"toric.csv": (tmp_path / "toric.csv").read_text()}
    checks.check(spec, texts)
    bad = texts["toric.csv"].replace("rescaled_plaquette_weight=12", "rescaled_plaquette_weight=11")
    with pytest.raises(checks.CheckError):
        checks.check(spec, {"toric.csv": bad})
    bad = texts["toric.csv"].replace("rescaling_structure_ok=True", "rescaling_structure_ok=False")
    with pytest.raises(checks.CheckError):
        checks.check(spec, {"toric.csv": bad})


def test_tiling_check_rejects_wrong_geometry(tmp_path):
    job = _job("quick", "tiling", kind="plus-left")
    texts = _artifacts(tmp_path, job)
    checks.check(job["check"], texts)
    _reject(job, _rewrite_json(texts, "tiling.json", lambda d: d.update(rotation=-d["rotation"])))
    _reject(job, _rewrite_json(texts, "tiling.json", lambda d: d.update(rescale=2.0)))
    _reject(job, {**texts, "tiling.svg": "<html></html>"})


def test_concat_check_rejects_a_site_addressed_twice(tmp_path):
    argv = ["--kind", "brick", "--L", "25", "--levels", "2", "--out", str(tmp_path / "concat.json")]
    import concat
    assert concat.main(argv) == 0
    spec = {"type": "concat", "kind": "brick", "L": 25, "levels": 2}
    texts = {"concat.json": (tmp_path / "concat.json").read_text()}
    checks.check(spec, texts)

    def duplicate(doc):
        doc["addresses"][1][2:] = doc["addresses"][0][2:]

    with pytest.raises(checks.CheckError):
        checks.check(spec, _rewrite_json(texts, "concat.json", duplicate))
    with pytest.raises(checks.CheckError):
        checks.check(spec, _rewrite_json(texts, "concat.json",
                                         lambda d: d.update(top_tile_count=d["top_tile_count"] + 1)))


def test_memory_support_check_rejects_wrong_level(tmp_path):
    job = _job("flow", "memory_support")
    texts = _artifacts(tmp_path, job)
    checks.check(job["check"], texts)
    _reject(job, _rewrite_json(texts, "memory.json",
                               lambda d: d.update(r_star=d["r_star"] + 1)))


def test_logistic_checks_reject_a_perturbed_value(tmp_path):
    for type_ in ("logistic_orbit", "logistic_scan"):
        job = _job("quick", type_)
        (tmp_path / type_).mkdir()
        texts = _artifacts(tmp_path / type_, job)
        checks.check(job["check"], texts)
        name = next(iter(texts))
        lines = texts[name].splitlines()
        last = max(i for i, line in enumerate(lines) if not line.startswith("#"))
        row = lines[last].split(",")
        row[1] = repr(float(row[1]) * (1 + 1e-6) + 1e-6)
        lines[last] = ",".join(row)
        _reject(job, {name: "\n".join(lines) + "\n"})
