"""Command-line entry point: one subcommand per subsystem, file-based output.

Every artifact embeds a metadata block (tool version, full config, seed) and
identical invocations produce byte-identical files.  Stdout carries only
artifacts; status lines and errors go to stderr.  Exit codes: 0 success,
1 usage error, 2 domain error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from collections.abc import Iterable, Iterator

from . import __version__
from ._lazy import lazy_import
from ._numpy import default_to_one_blas_thread

# each layer runs its module code on first use, so a subcommand loads only
# the layers it calls
channel = lazy_import("blockspin.channel")
codes = lazy_import("blockspin.codes")
dfs = lazy_import("blockspin.dfs")
logistic = lazy_import("blockspin.logistic")
pauli = lazy_import("blockspin.pauli")
tiling = lazy_import("blockspin.tiling")
toric_rescale = lazy_import("blockspin.toric_rescale")

SCHEMA_VERSION = 1
# every package error is a ValueError
DOMAIN_ERRORS = (ValueError,)

# the choices of --code, --family (and the channel flags) and tiling --kind,
# as the names of what each builds, so that importing the CLI loads no layer
CODES = {
    "five-qubit": "five_qubit_code",
    "steane": "steane_code",
    "shor": "shor_code",
    "toric": "toric_code",
}
FAMILIES = {"depolarizing": "depolarizing", "bit-flip": "bit_flip"}
TILINGS = {"plus": "plus_tiling", "brick": "brick_tiling", "trivial": "trivial_tiling"}
# the handedness argument of each --hand, for the kinds that have one
HANDS = {"right": +1, "left": -1}
# argparse reads a separate argument that starts with "-" as an option
ERROR_HELP = "Pauli string, e.g. XXYZI; give a signed one as --error=-iXXYZI"


def _meta(args: argparse.Namespace) -> dict:
    # output paths are plumbing, not configuration: identical settings must
    # produce byte-identical artifacts regardless of where they are written
    cfg = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "out", "svg")
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": cfg,
        "seed": getattr(args, "seed", None),
    }


def _csv_header(args: argparse.Namespace) -> str:
    meta = _meta(args)
    lines = [
        f"# schema_version={meta['schema_version']}",
        f"# tool_version={meta['tool_version']}",
        f"# seed={meta['seed']}",
        f"# config={json.dumps(meta['config'], sort_keys=True)}",
    ]
    return "\n".join(lines) + "\n"


def _artifact(args: argparse.Namespace, body: dict | Iterable[str]) -> Iterator[str]:
    """The text of an artifact, in chunks: a JSON document holding the
    metadata and the payload dict `body`, or the CSV metadata header and
    the lines `body`."""
    if isinstance(body, dict):
        encoder = json.JSONEncoder(indent=2, sort_keys=True)
        yield from encoder.iterencode({"meta": _meta(args), **body})
        yield "\n"
    else:
        yield _csv_header(args)
        for line in body:
            yield line + "\n"


def _write(path: str, chunks: Iterable[str]) -> None:
    if path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w") as fh:
            fh.writelines(chunks)


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    """`numpy.linspace(lo, hi, count)` by numpy's formula, as plain floats."""
    if count < 0:
        raise ValueError(f"Number of samples, {count}, must be non-negative.")
    if count < 2:
        return [lo] * count
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count - 1)] + [hi]


def _get_code(name: str, L: int) -> codes.StabilizerCode:
    build = getattr(codes, CODES[name])
    return build(L) if name == "toric" else build()


def _get_channel(args) -> channel.PauliChannel:
    if args.channel is not None:
        parts = [float(x) for x in args.channel.split(",")]
        if len(parts) != 4:
            raise channel.ChannelError("--channel needs pI,pX,pY,pZ")
        return channel.PauliChannel(*parts)
    for name, family in FAMILIES.items():
        p = getattr(args, name.replace("-", "_"))
        if p is not None:
            return getattr(channel.PauliChannel, family)(p)
    raise channel.ChannelError("specify --depolarizing, --bit-flip, or --channel")


# --------------------------------------------------------------------------
# subcommands: each returns (artifact, status line), the artifact a JSON
# payload dict or the CSV lines after the metadata header


def cmd_code(args):
    code = _get_code(args.code, args.L)
    return {"code": code.to_dict()}, f"code {args.code}: n={code.n} k={code.k}"


def cmd_decode(args):
    code = _get_code(args.code, args.L)
    err = pauli.Pauli.from_string(args.error)
    if err.n != code.n:
        raise codes.CodeError(f"error must act on {code.n} qubits")
    syndrome = code.syndrome(err)
    residual = code.recover(err)
    cls = code.logical_class(residual) if code.k == 1 else None
    bits = [syndrome >> k & 1 for k in range(code.n - code.k - 1, -1, -1)]
    payload = {
        "error": err.to_string(),
        "syndrome": bits,
        "recovery": code.recovery_table[syndrome].to_string(),
        "logical_class": cls,
    }
    return payload, f"syndrome={''.join(map(str, bits))} logical={cls}"


def cmd_channel_flow(args):
    code = _get_code(args.code, args.L)
    ch = _get_channel(args)
    traj = channel.flow(code, ch, max_levels=args.max_levels, tol=args.tol)
    lines = ["r,p_I,p_X,p_Y,p_Z,q_r"]
    for r, c, q in traj.levels:
        lines.append(
            f"{r},{c.p_i:.17g},{c.p_x:.17g},{c.p_y:.17g},{c.p_z:.17g},{q:.17g}"
        )
    lines.append(f"# verdict={traj.verdict}")
    return lines, f"flow verdict: {traj.verdict} after {len(traj.levels) - 1} levels"


def cmd_threshold(args):
    code = _get_code(args.code, args.L)
    family = getattr(channel.PauliChannel, FAMILIES[args.family])
    p_star = channel.threshold(
        code, family, args.lo, args.hi, width=args.width, max_levels=args.max_levels
    )
    payload = {
        "family": args.family,
        "bracket": [args.lo, args.hi],
        "width": args.width,
        "p_star": p_star,
    }
    return payload, f"threshold p* = {p_star:.6f}"


def cmd_memory_support(args):
    code = _get_code(args.code, args.L)
    ch = _get_channel(args)
    ms = channel.memory_support(
        code, ch, args.epsilon, L=args.lattice_L, d=args.dimension
    )
    payload = {
        "epsilon": args.epsilon,
        "size": "INFINITE" if ms.infinite else ms.size,
        "r_star": ms.r_star,
        "verdict": ms.verdict,
    }
    return payload, f"memory support: {payload['size']} (r*={ms.r_star})"


def cmd_classify(args):
    code = _get_code(args.code, args.L)
    err = pauli.Pauli.from_string(args.error)
    verdict, records = channel.classify_error(code, args.levels, err)
    payload = {
        "levels": args.levels,
        "verdict": verdict,
        "residuals": [
            {"level": rec.level, "residual": rec.residual} for rec in records
        ],
    }
    return payload, f"classification: {verdict}"


def cmd_tiling(args):
    build = getattr(tiling, TILINGS[args.kind])
    if args.kind != "trivial":
        t = build(args.L, HANDS[args.hand])
    elif args.hand == "left":
        raise tiling.TilingError(f"{args.kind} tiling has no handedness: --hand left")
    else:
        t = build(args.L)
    ok, rescale, rotation = tiling.validate_tiling(t)
    if args.svg:
        _write(args.svg, [tiling.render_svg(t)])
    payload = {
        "tiling": t.name,
        "L": t.L,
        "tiles": t.tile_count,
        "exact_cover": ok,
        "rescale": rescale,
        "rotation": rotation,
    }
    return payload, (
        f"tiling {t.name}: {t.tile_count} tiles, rescale={rescale:.6f}, "
        f"rotation={rotation:+.6f}"
    )


def cmd_toric(args):
    state = toric_rescale.ToricState(args.L)
    big_site = toric_rescale.rescaled_site(state, (0, 0))
    big_plaq = toric_rescale.rescaled_plaquette(state, (0, 0))
    scan = toric_rescale.cardinality_scan(state)
    check = toric_rescale.verify_rescaling(state)
    lines = [
        "# note: internal correlation I(A) uses the stabilizer entropy defect",
        scan.to_csv().rstrip("\n"),
        f"# characteristic_cardinality={scan.characteristic_cardinality}",
        f"# rescaled_site_weight={big_site.weight}",
        f"# rescaled_plaquette_weight={big_plaq.weight}",
        f"# rescaling_structure_ok={check.swaps_preserve_group}",
    ]
    if args.svg:
        _write(args.svg, [toric_rescale.generator_support_svg(state)])
    return lines, (
        f"toric L={args.L}: n_T={scan.characteristic_cardinality}, "
        f"big generator weights {big_site.weight}/{big_plaq.weight}"
    )


def cmd_dfs(args):
    ops = dfs.collective_noise_generators(args.qubits)
    dec = dfs.decompose(ops, seed=args.seed)
    residual = dfs.block_diagonal_residual(dec, ops)
    noiseless = dfs.find_noiseless(dec)
    payload = {
        "qubits": args.qubits,
        "blocks": [
            {"d": b.irrep_dim, "m": b.multiplicity} for b in dec.blocks
        ],
        "algebra_dim": dec.algebra_dim,
        "commutant_dim": dec.commutant_dim,
        "residual": residual,
        "noiseless": [
            {
                "block_index": nb.block_index,
                "protected_dim": nb.protected_dim,
                "kind": nb.kind,
            }
            for nb in noiseless
        ],
    }
    return payload, (
        f"dfs: blocks {[(b.irrep_dim, b.multiplicity) for b in dec.blocks]}, "
        f"{len(noiseless)} noiseless"
    )


# Each scan point costs ~0.15-0.26 ms and writes ~2.4 kB of CSV as it is
# computed (2-core Xeon): 10 000 points take ~1.5-2.6 s and write 24 MB, so
# 1e7 would take ~45 min and write 24 GB.
SCAN_COUNT_CAP = 10_000


def cmd_logistic(args):
    params = logistic.LogisticParams(r=args.r, K=args.K, dt=args.dt)
    if args.scan_mu is not None:
        mu_lo, mu_hi, count = args.scan_mu
        if not count.is_integer():
            raise logistic.DynamicsError(
                f"--scan-mu COUNT must be a whole number, got {count}"
            )
        if count > SCAN_COUNT_CAP:
            raise logistic.DynamicsError(
                f"--scan-mu COUNT {count:g} exceeds the cap of {SCAN_COUNT_CAP} points"
            )
        mus = _linspace(mu_lo, mu_hi, int(count))
        # the layer refuses a non-finite point before any line is written
        for mu in mus:
            logistic.map_orbit(mu, params.kappa, args.N0, 0)
        # each point is computed as its lines are written
        rows = (logistic.bifurcation_scan([mu], kappa=params.kappa, n0=args.N0)[0]
                for mu in mus)
        lines = (f"{mu:.17g},{v:.17g}" for mu, tail in rows for v in tail)
        status = f"bifurcation scan over {len(mus)} mu values"
        return itertools.chain(["mu,tail_value"], lines), status
    orbit = logistic.map_orbit(params.mu, params.kappa, args.N0, args.steps)
    # 1300 steps cover CYCLE_TRANSIENT + CYCLE_WINDOW = 1280 orbit points
    report = logistic.detect_cycle(orbit) if args.steps >= 1300 else None
    lines = ["n,N_map,N_ode"]
    for i, v in enumerate(orbit):
        ode = logistic.ode_solution(params, args.N0, i * args.dt)
        lines.append(f"{i},{v:.17g},{ode:.17g}")
    if report:
        lines.append(f"# cycle={report.kind}")
    return lines, (
        f"logistic: mu={params.mu:.6f} kappa={params.kappa:.6f}"
        + (f" cycle={report.kind}" if report else "")
    )


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockspin",
        description="Stabilizer-code block-spin renormalization toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="-")

    def add(name, func, help):
        p = sub.add_parser(name, help=help, parents=[out])
        p.set_defaults(func=func)
        return p

    def add_code_opts(p):
        p.add_argument("--code", default="five-qubit", choices=list(CODES))
        p.add_argument("--L", type=int, default=3, help="torus side for toric")

    def add_channel_opts(p):
        flags = p.add_mutually_exclusive_group()
        for name in FAMILIES:
            flags.add_argument(f"--{name}", type=float, default=None)
        flags.add_argument("--channel", default=None, help="pI,pX,pY,pZ")

    p = add("code", cmd_code, "emit a code as JSON")
    add_code_opts(p)

    p = add("decode", cmd_decode, "syndrome + recovery for one error")
    add_code_opts(p)
    p.add_argument("--error", required=True, help=ERROR_HELP)

    p = add("channel-flow", cmd_channel_flow, "iterate the effective channel")
    add_code_opts(p)
    add_channel_opts(p)
    p.add_argument("--max-levels", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-12)

    p = add("threshold", cmd_threshold, "bisect the memory threshold")
    add_code_opts(p)
    p.add_argument("--family", default="depolarizing", choices=list(FAMILIES))
    p.add_argument("--lo", type=float, default=0.01)
    p.add_argument("--hi", type=float, default=0.3)
    p.add_argument("--width", type=float, default=1e-3)
    p.add_argument("--max-levels", type=int, default=200)

    p = add("memory-support", cmd_memory_support, "epsilon-memory support")
    add_code_opts(p)
    add_channel_opts(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--lattice-L", type=float, default=1.0)
    p.add_argument("--dimension", type=int, default=1)

    p = add("classify", cmd_classify, "classify a concatenated-level error")
    add_code_opts(p)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--error", required=True, help=ERROR_HELP)

    p = add("tiling", cmd_tiling, "build and validate a lattice tiling")
    p.add_argument("--kind", default="plus", choices=list(TILINGS))
    for kind in TILINGS:
        p.add_argument(f"--{kind}", action="store_const", const=kind, dest="kind")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--hand", default="right", choices=["right", "left"])
    p.add_argument("--svg", default=None)

    p = add("toric", cmd_toric, "toric rescaling and entropy scan")
    p.add_argument("--L", type=int, default=5)
    p.add_argument("--svg", default=None)

    p = add("dfs", cmd_dfs, "decompose a collective-noise algebra")
    p.add_argument("--qubits", type=int, default=3)
    p.add_argument("--seed", type=int, default=2024)

    p = add("logistic", cmd_logistic, "logistic ODE vs finite-difference map")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--N0", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument(
        "--scan-mu",
        nargs=3,
        type=float,
        default=None,
        metavar=("LO", "HI", "COUNT"),
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: write its artifact to --out and its status line
    to stderr."""
    # before any layer loads numpy, which reads the counts once
    default_to_one_blas_thread()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented exit 1
        return 0 if exc.code == 0 else 1
    try:
        body, status = args.func(args)
        _write(args.out, _artifact(args, body))
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(status, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
