"""Seeded job lists for the three benchmark workloads.

A job is one `blockspin` invocation (or one public-API script run) as a user
would type it.  The seed draws only the inputs; the mix of subcommands, codes
and sizes is fixed per workload, so every seed asks for the same kind and
amount of work and run-to-run spread measures the machine, not the draw.

* `flow`: thresholds at 1e-9 width, channel flows near p* and memory
  support above it.  Effective-channel evaluation takes most of the time;
  the action table is built once per process; GF(2), tiling and dfs are
  bypassed.
* `structure`: toric entropy scan, a large tiling, a 2-level concatenation
  and `dfs --qubits 4`: GF(2) rank, lattice bookkeeping and dense algebra
  closure.  No channel work.  Each job takes 0.3-0.6 s, so that a run
  holds a dozen passes for the per-job medians.
* `quick`: 25 short subcommands over every layer.  Interpreter start,
  import and per-process table builds dominate, so a change that buys
  faster evaluation with a costlier build or import shows here.

Argument values containing ``{out}`` are replaced by the job's output
directory at launch; everything else is passed to the program verbatim.

Left out on purpose:

* Shor-code channel jobs (`channel-flow`, `threshold`, `memory-support`,
  `classify` with ``--code shor``) exit 2 today because `shor_code()` ships an
  incomplete recovery table.  Including them would make the fix read as a
  `wall_s` regression on `flow`; adding them is its own benchmark change.
* `dfs --qubits 6` runs for more than 100 s and then raises in `decompose`.
* Deterministic boundary channels such as (0, 1, 0, 0) end in
  ``max-iterations``; they belong in the package's tests, not here.
* The larger `structure` sizes (`toric --L 7` and `--L 9`, a 3-level
  concatenation of L = 125, `dfs --qubits 5`) take 3-12 s each.  A run
  then holds two passes, and their times spread by 25% from run to run on
  a shared host.  The smaller sizes run the same code paths.
* Brick concatenation costs about 7% less than plus concatenation, so the
  concatenation job draws only the plus handedness: the seed must not
  change the amount of work.  Brick tilings are built in the tiling jobs.
* `logistic` orbits with r * dt * steps above about 709 exit 1: the
  closed-form ODE column overflows `math.exp`.  The orbit job keeps the
  product below 630.
"""

from __future__ import annotations

import random

# Thresholds p* of the four (code, family) pairs, to 1e-10.
REFERENCE_P_STAR = {
    ("five-qubit", "depolarizing"): 0.1376275643,
    ("five-qubit", "bit-flip"): 0.1350370110,
    ("steane", "depolarizing"): 0.0810818963,
    ("steane", "bit-flip"): 0.0645962394,
}

CODE_N = {"five-qubit": 5, "steane": 7, "shor": 9}


def _job(kind: str, argv: list[str], check: dict) -> dict:
    return {"kind": kind, "argv": argv, "check": check}


def _channel_flag(family: str) -> str:
    return "--depolarizing" if family == "depolarizing" else "--bit-flip"


def _low_weight_error(rng: random.Random, n: int, blocks: int) -> str:
    """A Pauli string with at most one non-identity in each n-qubit block."""
    out = []
    for _ in range(blocks):
        block = ["I"] * n
        if rng.random() < 0.75:
            block[rng.randrange(n)] = rng.choice("XYZ")
        out.extend(block)
    return "".join(out)


def _flow_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    # three quarters Steane, both families for both codes
    cases = [("steane", "depolarizing")] * 3 + [("steane", "bit-flip")] * 3
    cases += [("five-qubit", "depolarizing"), ("five-qubit", "bit-flip")]
    for code, family in cases:
        lo = round(rng.uniform(0.005, 0.03), 6)
        hi = round(rng.uniform(0.2, 0.3), 6)
        argv = ["threshold", "--code", code, "--family", family,
                "--lo", str(lo), "--hi", str(hi), "--width", "1e-9",
                "--out", "{out}/threshold.json"]
        jobs.append(_job("cli", argv, {"type": "threshold", "code": code,
                                       "family": family, "width": 1e-9}))
    for code, family in [("steane", "depolarizing"), ("steane", "bit-flip"),
                         ("five-qubit", "depolarizing"), ("five-qubit", "bit-flip")]:
        side = rng.choice((-1, 1))
        p = round(REFERENCE_P_STAR[code, family] + side * rng.uniform(0.005, 0.03), 6)
        argv = ["channel-flow", "--code", code, _channel_flag(family), str(p),
                "--max-levels", "200", "--out", "{out}/flow.csv"]
        verdict = "converged-to-identity" if side < 0 else "converged-to-noise"
        jobs.append(_job("cli", argv, {"type": "channel_flow", "verdict": verdict}))
    for code, family in [("steane", "depolarizing"), ("five-qubit", "bit-flip")]:
        p = round(REFERENCE_P_STAR[code, family] + rng.uniform(0.01, 0.05), 6)
        eps = round(rng.uniform(0.05, 0.5), 6)
        argv = ["memory-support", "--code", code, _channel_flag(family), str(p),
                "--epsilon", str(eps), "--out", "{out}/memory.json"]
        jobs.append(_job("cli", argv, {"type": "memory_support", "n": CODE_N[code],
                                       "family": family, "p": p, "epsilon": eps}))
    return jobs


def _structure_jobs(rng: random.Random) -> list[dict]:
    tiling_kind = rng.choice(("plus-right", "plus-left", "brick"))
    concat_kind = rng.choice(("plus-right", "plus-left"))
    return [
        _job("cli", ["toric", "--L", "5", "--out", "{out}/toric.csv"],
             {"type": "toric", "L": 5}),
        _job("cli", ["tiling", *_tiling_args(tiling_kind), "--L", "250",
                     "--out", "{out}/tiling.json"],
             {"type": "tiling", "kind": tiling_kind, "L": 250}),
        _job("script", ["--kind", concat_kind, "--L", "75", "--levels", "2",
                        "--out", "{out}/concat.json"],
             {"type": "concat", "kind": concat_kind, "L": 75, "levels": 2}),
        _job("cli", ["dfs", "--qubits", "4", "--seed", str(rng.randrange(1, 2**31)),
                     "--out", "{out}/dfs.json"],
             {"type": "dfs", "qubits": 4}),
    ]


def _tiling_args(kind: str) -> list[str]:
    if kind == "brick":
        return ["--kind", "brick"]
    return ["--kind", "plus", "--hand", kind.split("-")[1]]


def _quick_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for code in ("five-qubit", "steane", "shor"):
        jobs.append(_job("cli", ["code", "--code", code, "--out", "{out}/code.json"],
                         {"type": "code", "n": CODE_N[code], "k": 1}))
    jobs.append(_job("cli", ["code", "--code", "toric", "--L", "3",
                             "--out", "{out}/code.json"],
                     {"type": "code", "n": 18, "k": 2}))
    for code in ("five-qubit", "steane", "shor") * 2:
        err = _low_weight_error(rng, CODE_N[code], 1)
        jobs.append(_job("cli", ["decode", "--code", code, "--error", err,
                                 "--out", "{out}/decode.json"],
                         {"type": "decode", "error": err}))
    for code, levels in [("five-qubit", 2), ("five-qubit", 3), ("steane", 2),
                         ("steane", 3), ("five-qubit", 2), ("steane", 2)]:
        n = CODE_N[code]
        err = _low_weight_error(rng, n, n ** (levels - 1))
        jobs.append(_job("cli", ["classify", "--code", code, "--levels", str(levels),
                                 "--error", err, "--out", "{out}/classify.json"],
                         {"type": "classify", "levels": levels}))
    p_low = round(rng.uniform(0.01, 0.04), 6)
    jobs.append(_job("cli", ["channel-flow", "--code", "five-qubit", "--depolarizing",
                             str(p_low), "--out", "{out}/flow.csv"],
                     {"type": "channel_flow", "verdict": "converged-to-identity"}))
    p_high = round(rng.uniform(0.2, 0.3), 6)
    jobs.append(_job("cli", ["channel-flow", "--code", "steane", "--bit-flip",
                             str(p_high), "--out", "{out}/flow.csv"],
                     {"type": "channel_flow", "verdict": "converged-to-noise"}))
    lo = round(rng.uniform(0.005, 0.03), 6)
    hi = round(rng.uniform(0.2, 0.3), 6)
    jobs.append(_job("cli", ["threshold", "--code", "five-qubit", "--lo", str(lo),
                             "--hi", str(hi), "--width", "1e-3",
                             "--out", "{out}/threshold.json"],
                     {"type": "threshold", "code": "five-qubit",
                      "family": "depolarizing", "width": 1e-3}))
    kind = rng.choice(("plus-right", "plus-left", "brick"))
    jobs.append(_job("cli", ["tiling", *_tiling_args(kind), "--L", "25",
                             "--svg", "{out}/tiling.svg", "--out", "{out}/tiling.json"],
                     {"type": "tiling", "kind": kind, "L": 25}))
    jobs.append(_job("cli", ["toric", "--L", "3", "--out", "{out}/toric.csv"],
                     {"type": "toric", "L": 3}))
    for qubits in (3, 4):
        jobs.append(_job("cli", ["dfs", "--qubits", str(qubits),
                                 "--seed", str(rng.randrange(1, 2**31)),
                                 "--out", "{out}/dfs.json"],
                         {"type": "dfs", "qubits": qubits}))
    # r * dt * steps stays below 630: the closed-form ODE column overflows
    # math.exp beyond about 709
    r = round(rng.uniform(0.5, 1.5), 6)
    K = round(rng.uniform(1.0, 100.0), 6)
    dt = round(rng.uniform(0.1, 0.45) / r, 6)
    jobs.append(_job("cli", ["logistic", "--r", str(r), "--K", str(K), "--dt", str(dt),
                             "--steps", "1400", "--out", "{out}/orbit.csv"],
                     {"type": "logistic_orbit"}))
    mu_lo = round(rng.uniform(2.5, 3.0), 6)
    mu_hi = round(rng.uniform(3.5, 4.0), 6)
    jobs.append(_job("cli", ["logistic", "--r", "1", "--K", "1", "--dt", "1",
                             "--scan-mu", str(mu_lo), str(mu_hi), str(rng.randrange(8, 13)),
                             "--out", "{out}/scan.csv"],
                     {"type": "logistic_scan"}))
    return jobs


WORKLOADS = {"flow": _flow_jobs, "structure": _structure_jobs, "quick": _quick_jobs}


def generate(workload: str, seed: int) -> list[dict]:
    """The job list of `workload` for `seed`, shuffled by the same seed.

    Each job is ``{"id", "kind", "argv", "check"}``: `kind` is ``cli`` for a
    `blockspin` subcommand and ``script`` for the concatenation script, and
    `check` tells the artifact checker what the output must satisfy.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = f"{workload}-{i:02d}"
    return jobs
