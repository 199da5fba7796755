"""Artifact checks: each job's output file must hold a correct result.

Artifacts are read from the files named by ``--out`` / ``--svg``, never from
stdout.  A checker takes the job's ``check`` spec and the artifact texts
keyed by file name, and raises `CheckError` on the first defect.  The
references are independent of the package: thresholds known to 1e-10,
Schur-Weyl multiplicities, tiling geometry, and the logistic recurrence
recomputed in plain Python.
"""

from __future__ import annotations

import json
import math

from workloads import REFERENCE_P_STAR

# bisection stops with p* inside a bracket narrower than the width and returns
# its midpoint, so the result is within width/2 of p*; the slack covers the
# references' rounding to 1e-10 and the flow tolerance at each probe
THRESHOLD_SLACK = 2e-9
DFS_RESIDUAL_MAX = 1e-8
# (irrep dimension d, multiplicity m) of collective noise on n qubits:
# d = 2j + 1 and m = number of spin-j irreps in (1/2)^{(x) n}, largest j first
SCHUR_WEYL_BLOCKS = {
    3: [(4, 1), (2, 2)],
    4: [(5, 1), (3, 3), (1, 2)],
    5: [(6, 1), (4, 4), (2, 5)],
}
GEOMETRY_TOL = 1e-9
PROB_SUM_TOL = 1e-9


class CheckError(Exception):
    """An artifact that does not hold the expected result."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _json(texts: dict[str, str], name: str) -> dict:
    _require(name in texts, f"missing artifact {name}")
    try:
        return json.loads(texts[name])
    except json.JSONDecodeError as exc:
        raise CheckError(f"{name} is not JSON: {exc}") from None


def _csv(texts: dict[str, str], name: str) -> tuple[list[str], dict[str, str], list[list[str]]]:
    """(header fields, '# key=value' comments, data rows) of a CSV artifact."""
    _require(name in texts, f"missing artifact {name}")
    comments, rows, header = {}, [], None
    for line in texts[name].splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                comments[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    _require(header is not None, f"{name} has no header row")
    return header, comments, rows


def check_code(spec: dict, texts: dict[str, str]) -> None:
    code = _json(texts, "code.json")["code"]
    n, k = spec["n"], spec["k"]
    _require((code["n"], code["k"]) == (n, k), f"(n, k) = {(code['n'], code['k'])}, want {(n, k)}")
    _require(len(code["generators"]) == n - k, "generator count is not n - k")
    _require(len(code["logical_x"]) == k and len(code["logical_z"]) == k, "logical count is not k")
    for g in code["generators"] + code["logical_x"] + code["logical_z"]:
        _require(len(g.lstrip("+-i")) == n, f"operator {g!r} does not act on {n} qubits")


def check_decode(spec: dict, texts: dict[str, str]) -> None:
    doc = _json(texts, "decode.json")
    _require(doc["error"] == spec["error"], "artifact decodes a different error")
    _require(doc["logical_class"] == "I", f"logical class {doc['logical_class']}, want I")


def check_classify(spec: dict, texts: dict[str, str]) -> None:
    doc = _json(texts, "classify.json")
    _require(doc["verdict"] == "correctable", f"verdict {doc['verdict']}, want correctable")
    levels = [rec["level"] for rec in doc["residuals"]]
    _require(levels == list(range(1, spec["levels"] + 1)), f"levels {levels}")
    for rec in doc["residuals"]:
        _require(set(rec["residual"]) == {"I"}, f"level {rec['level']} residual not identity")


def check_threshold(spec: dict, texts: dict[str, str]) -> None:
    doc = _json(texts, "threshold.json")
    ref = REFERENCE_P_STAR[spec["code"], spec["family"]]
    _require(doc["family"] == spec["family"], "artifact is for another family")
    err = abs(doc["p_star"] - ref)
    _require(
        err <= spec["width"] / 2 + THRESHOLD_SLACK,
        f"p* = {doc['p_star']!r} is {err:.3g} from {ref}, allowed {spec['width']:g}/2 + 2e-9",
    )


def check_channel_flow(spec: dict, texts: dict[str, str]) -> None:
    header, comments, rows = _csv(texts, "flow.csv")
    _require(header == ["r", "p_I", "p_X", "p_Y", "p_Z", "q_r"], f"header {header}")
    _require(comments.get("verdict") == spec["verdict"],
             f"verdict {comments.get('verdict')}, want {spec['verdict']}")
    _require(len(rows) >= 1, "no flow levels")
    for i, row in enumerate(rows):
        _require(int(row[0]) == i, f"level {row[0]} at row {i}")
        total = sum(float(x) for x in row[1:5])
        _require(abs(total - 1.0) <= PROB_SUM_TOL, f"level {i} probabilities sum to {total!r}")


def check_memory_support(spec: dict, texts: dict[str, str]) -> None:
    doc = _json(texts, "memory.json")
    _require(doc["verdict"] == "converged-to-noise", f"verdict {doc['verdict']} above threshold")
    r = doc["r_star"]
    # level 0 is the input channel itself: r* = 0 exactly when its quality
    # 1 - H(p_I, p_X, p_Y, p_Z) is already below epsilon
    p = spec["p"]
    probs = [1 - p, p / 3, p / 3, p / 3] if spec["family"] == "depolarizing" else [1 - p, p, 0, 0]
    quality = 1 + sum(q * math.log2(q) for q in probs if q > 0)
    _require(isinstance(r, int) and r >= 0, f"r* = {r!r}")
    _require((r == 0) == (quality < spec["epsilon"]),
             f"r* = {r} but the input quality {quality:.6f} vs epsilon {spec['epsilon']}")
    _require(doc["size"] == float(spec["n"] ** r), f"size {doc['size']} is not n^r* = {spec['n']}^{r}")


def check_dfs(spec: dict, texts: dict[str, str]) -> None:
    doc = _json(texts, "dfs.json")
    blocks = [(b["d"], b["m"]) for b in doc["blocks"]]
    want = SCHUR_WEYL_BLOCKS[spec["qubits"]]
    _require(blocks == want, f"blocks {blocks}, want {want}")
    _require(doc["algebra_dim"] == sum(d * d for d, _ in want), "algebra_dim")
    _require(doc["commutant_dim"] == sum(m * m for _, m in want), "commutant_dim")
    _require(doc["residual"] <= DFS_RESIDUAL_MAX, f"residual {doc['residual']!r}")


def check_toric(spec: dict, texts: dict[str, str]) -> None:
    header, comments, rows = _csv(texts, "toric.csv")
    _require(header == ["region_size", "entropy_bits", "internal_correlation_bits"],
             f"header {header}")
    _require(comments.get("rescaling_structure_ok") == "True", "rescaling structure not ok")
    n = 2 * spec["L"] ** 2
    sizes = [int(r[0]) for r in rows]
    _require(sizes == sorted(sizes) and sizes[0] == 0 and sizes[-1] == n,
             f"regions do not run from 0 to n = {n}")
    # a stabilizer state is pure: the empty and the full region carry no entropy
    _require(rows[0][1] == "0" and rows[-1][1] == "0", "pure-state entropy is not 0")
    if spec["L"] >= 5:
        weights = (comments.get("rescaled_site_weight"), comments.get("rescaled_plaquette_weight"))
        _require(weights == ("12", "12"), f"rescaled generator weights {weights}, want 12/12")


def check_tiling(spec: dict, texts: dict[str, str]) -> None:
    doc = _json(texts, "tiling.json")
    L = spec["L"]
    _require(doc["tiling"] == spec["kind"], f"tiling {doc['tiling']}, want {spec['kind']}")
    _require(doc["exact_cover"] is True, "not an exact cover")
    _require(doc["tiles"] * 5 == L * L, f"{doc['tiles']} tiles cover {L}^2 sites")
    _require(abs(doc["rescale"] - math.sqrt(5)) <= GEOMETRY_TOL, f"rescale {doc['rescale']!r}")
    # plus tilings turn by +-arctan(1/2) with their handedness; brick by either sign
    angle = -math.atan(0.5) if spec["kind"] == "plus-left" else math.atan(0.5)
    rotation = abs(doc["rotation"]) if spec["kind"] == "brick" else doc["rotation"]
    _require(abs(rotation - angle) <= GEOMETRY_TOL, f"rotation {doc['rotation']!r}")
    if "tiling.svg" in texts:
        svg = texts["tiling.svg"]
        _require(svg.lstrip().startswith("<svg") and svg.rstrip().endswith("</svg>"),
                 "tiling.svg is not an SVG document")


def check_concat(spec: dict, texts: dict[str, str]) -> None:
    doc = _json(texts, "concat.json")
    L, levels = spec["L"], spec["levels"]
    per_tile = 5**levels
    _require(doc["tiling"] == spec["kind"], f"tiling {doc['tiling']}, want {spec['kind']}")
    _require(doc["top_tile_count"] == L * L // per_tile,
             f"{doc['top_tile_count']} top tiles, want L^2/5^levels = {L * L // per_tile}")
    sites, addresses, per_top = set(), set(), {}
    for x, y, top, *path in doc["addresses"]:
        sites.add((x, y))
        addresses.add((top, tuple(path)))
        per_top[top] = per_top.get(top, 0) + 1
        _require(len(path) == levels and all(1 <= p <= 5 for p in path),
                 f"bad path {path} at {(x, y)}")
    n_sites = len(doc["addresses"])
    _require(n_sites == L * L and len(sites) == n_sites, "sites not addressed exactly once")
    _require(len(addresses) == n_sites, "two sites share an address")
    _require(set(per_top.values()) == {per_tile} and len(per_top) == doc["top_tile_count"],
             f"top tiles do not each hold 5^levels = {per_tile} sites")


def _logistic_map(mu: float, kappa: float, n0: float, steps: int) -> list[float]:
    orbit = [n0]
    for _ in range(steps):
        n = orbit[-1]
        orbit.append(mu * (1.0 - n / kappa) * n)
    return orbit


def check_logistic_orbit(spec: dict, texts: dict[str, str]) -> None:
    header, comments, rows = _csv(texts, "orbit.csv")
    cfg = json.loads(comments["config"])
    r, K, dt, n0, steps = cfg["r"], cfg["K"], cfg["dt"], cfg["N0"], cfg["steps"]
    mu = 1.0 + r * dt
    kappa = mu * K / (r * dt)
    _require(header == ["n", "N_map", "N_ode"], f"header {header}")
    _require(len(rows) == steps + 1, f"{len(rows)} rows for {steps} steps")
    for (i, n_map, n_ode), want in zip(rows, _logistic_map(mu, kappa, n0, steps)):
        _require(math.isclose(float(n_map), want, rel_tol=1e-12, abs_tol=1e-300),
                 f"N_map[{i}] = {n_map}, recurrence gives {want!r}")
        t = int(i) * dt
        e = math.exp(r * t)
        ode = K * n0 * e / (K + n0 * (e - 1.0))
        _require(math.isclose(float(n_ode), ode, rel_tol=1e-12), f"N_ode[{i}] = {n_ode}")
    _require("cycle" in comments, "no cycle classification")


def check_logistic_scan(spec: dict, texts: dict[str, str]) -> None:
    header, comments, rows = _csv(texts, "scan.csv")
    cfg = json.loads(comments["config"])
    mu_lo, mu_hi, count = cfg["scan_mu"]
    kappa = (1.0 + cfg["r"] * cfg["dt"]) * cfg["K"] / (cfg["r"] * cfg["dt"])
    transient, keep = 512, 64
    _require(header == ["mu", "tail_value"], f"header {header}")
    _require(len(rows) == int(count) * keep, f"{len(rows)} rows for {int(count)} mu values")
    for j in range(int(count)):
        block = rows[j * keep:(j + 1) * keep]
        want_mu = mu_lo + (mu_hi - mu_lo) * j / (int(count) - 1)
        # recompute from the artifact's own mu: the chaotic orbits amplify a
        # last-digit difference in mu into a different tail
        mu = float(block[0][0])
        _require(math.isclose(mu, want_mu, rel_tol=1e-12), f"mu {mu!r}, want {want_mu!r}")
        tail = _logistic_map(mu, kappa, cfg["N0"], transient + keep)[-keep:]
        for row, want in zip(block, tail):
            _require(float(row[0]) == mu, f"mu changes within the block of {mu!r}")
            _require(math.isclose(float(row[1]), want, rel_tol=1e-9, abs_tol=1e-12),
                     f"tail value {row[1]} at mu={mu!r}, recurrence gives {want!r}")


CHECKERS = {
    "code": check_code,
    "decode": check_decode,
    "classify": check_classify,
    "threshold": check_threshold,
    "channel_flow": check_channel_flow,
    "memory_support": check_memory_support,
    "dfs": check_dfs,
    "toric": check_toric,
    "tiling": check_tiling,
    "concat": check_concat,
    "logistic_orbit": check_logistic_orbit,
    "logistic_scan": check_logistic_scan,
}


def check(spec: dict, texts: dict[str, str]) -> None:
    """Raise `CheckError` unless the artifacts satisfy the job's check spec."""
    try:
        CHECKERS[spec["type"]](spec, texts)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckError(f"malformed artifact: {exc!r}") from None
