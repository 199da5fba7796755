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
from collections.abc import Iterable

from . import __version__
from ._lazy import lazy_import

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


def _meta(args: argparse.Namespace, seed: int | None = None) -> dict:
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
        "seed": seed,
    }


def _csv_header(args: argparse.Namespace, seed: int | None = None) -> str:
    meta = _meta(args, seed)
    lines = [
        f"# schema_version={meta['schema_version']}",
        f"# tool_version={meta['tool_version']}",
        f"# seed={meta['seed']}",
        f"# config={json.dumps(meta['config'], sort_keys=True)}",
    ]
    return "\n".join(lines) + "\n"


def _write(path: str | None, text: str | Iterable[str]) -> None:
    chunks = [text] if isinstance(text, str) else text
    if path is None or path == "-":
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


def _status(line: str) -> None:
    print(line, file=sys.stderr)


def _json_doc(args, payload: dict, seed: int | None = None) -> str:
    return (
        json.dumps({"meta": _meta(args, seed), **payload}, indent=2, sort_keys=True)
        + "\n"
    )


def _get_code(name: str, L: int) -> codes.StabilizerCode:
    builders = {
        "five-qubit": codes.five_qubit_code,
        "steane": codes.steane_code,
        "shor": codes.shor_code,
    }
    if name == "toric":
        return codes.toric_code(L)
    if name not in builders:
        raise codes.CodeError(f"unknown code {name!r}")
    return builders[name]()


def _get_channel(args) -> channel.PauliChannel:
    if args.channel is not None:
        parts = [float(x) for x in args.channel.split(",")]
        if len(parts) != 4:
            raise channel.ChannelError("--channel needs pI,pX,pY,pZ")
        return channel.PauliChannel(*parts)
    if args.depolarizing is not None:
        return channel.PauliChannel.depolarizing(args.depolarizing)
    if getattr(args, "bit_flip", None) is not None:
        return channel.PauliChannel.bit_flip(args.bit_flip)
    raise channel.ChannelError("specify --depolarizing, --bit-flip, or --channel")


# --------------------------------------------------------------------------
# subcommands


def cmd_code(args) -> int:
    code = _get_code(args.code, args.L)
    doc = json.loads(code.to_json())
    _write(args.out, _json_doc(args, {"code": doc}))
    _status(f"code {args.code}: n={code.n} k={code.k}")
    return 0


def cmd_decode(args) -> int:
    code = _get_code(args.code, args.L)
    err = pauli.Pauli.from_string(args.error)
    syndrome = code.syndrome(err)
    residual = code.recover(err)
    cls = code.logical_class(residual) if code.k == 1 else None
    payload = {
        "error": err.to_string(),
        "syndrome": list(syndrome),
        "recovery": code.recovery_table[syndrome].to_string(),
        "logical_class": cls,
    }
    _write(args.out, _json_doc(args, payload))
    _status(f"syndrome={''.join(map(str, syndrome))} logical={cls}")
    return 0


def cmd_channel_flow(args) -> int:
    code = _get_code(args.code, args.L)
    ch = _get_channel(args)
    traj = channel.flow(code, ch, max_levels=args.max_levels, tol=args.tol)
    lines = [_csv_header(args).rstrip("\n")]
    lines.append("r,p_I,p_X,p_Y,p_Z,q_r")
    for r, c, q in traj.levels:
        lines.append(
            f"{r},{c.p_i:.17g},{c.p_x:.17g},{c.p_y:.17g},{c.p_z:.17g},{q:.17g}"
        )
    lines.append(f"# verdict={traj.verdict}")
    _write(args.out, "\n".join(lines) + "\n")
    _status(f"flow verdict: {traj.verdict} after {len(traj.levels) - 1} levels")
    return 0


def cmd_threshold(args) -> int:
    code = _get_code(args.code, args.L)
    family = {
        "depolarizing": channel.PauliChannel.depolarizing,
        "bit-flip": channel.PauliChannel.bit_flip,
    }[args.family]
    p_star = channel.threshold(
        code, family, args.lo, args.hi, width=args.width, max_levels=args.max_levels
    )
    payload = {
        "family": args.family,
        "bracket": [args.lo, args.hi],
        "width": args.width,
        "p_star": p_star,
    }
    _write(args.out, _json_doc(args, payload))
    _status(f"threshold p* = {p_star:.6f}")
    return 0


def cmd_memory_support(args) -> int:
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
    _write(args.out, _json_doc(args, payload))
    _status(f"memory support: {payload['size']} (r*={ms.r_star})")
    return 0


def cmd_classify(args) -> int:
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
    _write(args.out, _json_doc(args, payload))
    _status(f"classification: {verdict}")
    return 0


def cmd_tiling(args) -> int:
    if args.kind == "plus":
        t = tiling.plus_tiling(args.L, +1 if args.hand == "right" else -1)
    elif args.kind == "brick":
        t = tiling.brick_tiling(args.L)
    else:
        t = tiling.trivial_tiling(args.L)
    ok, rescale, rotation = tiling.validate_tiling(t)
    if args.svg:
        _write(args.svg, tiling.render_svg(t))
    payload = {
        "tiling": t.name,
        "L": t.L,
        "tiles": t.tile_count,
        "exact_cover": ok,
        "rescale": rescale,
        "rotation": rotation,
    }
    _write(args.out, _json_doc(args, payload))
    _status(
        f"tiling {t.name}: {t.tile_count} tiles, rescale={rescale:.6f}, "
        f"rotation={rotation:+.6f}"
    )
    return 0


def cmd_toric(args) -> int:
    state = toric_rescale.ToricState(args.L)
    big_site = toric_rescale.rescaled_site(state, (0, 0))
    big_plaq = toric_rescale.rescaled_plaquette(state, (0, 0))
    scan = toric_rescale.cardinality_scan(state)
    check = toric_rescale.verify_rescaling(state)
    lines = [_csv_header(args).rstrip("\n")]
    lines.append("# note: internal correlation I(A) uses the stabilizer entropy defect")
    lines.append(scan.to_csv().rstrip("\n"))
    lines.append(f"# characteristic_cardinality={scan.characteristic_cardinality}")
    lines.append(f"# rescaled_site_weight={big_site.weight}")
    lines.append(f"# rescaled_plaquette_weight={big_plaq.weight}")
    lines.append(f"# rescaling_structure_ok={check.swaps_preserve_group}")
    _write(args.out, "\n".join(lines) + "\n")
    if args.svg:
        _write(args.svg, toric_rescale.generator_support_svg(state))
    _status(
        f"toric L={args.L}: n_T={scan.characteristic_cardinality}, "
        f"big generator weights {big_site.weight}/{big_plaq.weight}"
    )
    return 0


def cmd_dfs(args) -> int:
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
    _write(args.out, _json_doc(args, payload, seed=args.seed))
    _status(
        f"dfs: blocks {[(b.irrep_dim, b.multiplicity) for b in dec.blocks]}, "
        f"{len(noiseless)} noiseless"
    )
    return 0


# Each scan point costs ~0.15-0.26 ms and writes ~2.4 kB of CSV as it is
# computed (2-core Xeon): 10 000 points take ~1.5-2.6 s and write 24 MB, so
# 1e7 would take ~45 min and write 24 GB.
SCAN_COUNT_CAP = 10_000


def cmd_logistic(args) -> int:
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
        rows = (logistic.bifurcation_scan([mu], kappa=params.kappa, n0=args.N0)[0]
                for mu in mus)
        lines = ("".join(f"{mu:.17g},{v:.17g}\n" for v in tail) for mu, tail in rows)
        _write(args.out, itertools.chain([_csv_header(args), "mu,tail_value\n"], lines))
        _status(f"bifurcation scan over {len(mus)} mu values")
        return 0
    orbit = logistic.map_orbit(params.mu, params.kappa, args.N0, args.steps)
    report = logistic.detect_cycle(orbit) if args.steps >= 1300 else None
    lines = [_csv_header(args).rstrip("\n"), "n,N_map,N_ode"]
    for i, v in enumerate(orbit):
        ode = logistic.ode_solution(params, args.N0, i * args.dt)
        lines.append(f"{i},{v:.17g},{ode:.17g}")
    if report:
        lines.append(f"# cycle={report.kind}")
    _write(args.out, "\n".join(lines) + "\n")
    _status(
        f"logistic: mu={params.mu:.6f} kappa={params.kappa:.6f}"
        + (f" cycle={report.kind}" if report else "")
    )
    return 0


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockspin",
        description="Stabilizer-code block-spin renormalization toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_code_opts(p):
        p.add_argument(
            "--code",
            default="five-qubit",
            choices=["five-qubit", "steane", "shor", "toric"],
        )
        p.add_argument("--L", type=int, default=3, help="torus side for toric")

    def add_channel_opts(p):
        p.add_argument("--depolarizing", type=float, default=None)
        p.add_argument("--bit-flip", dest="bit_flip", type=float, default=None)
        p.add_argument("--channel", default=None, help="pI,pX,pY,pZ")

    p = sub.add_parser("code", help="emit a code as JSON")
    add_code_opts(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("decode", help="syndrome + recovery for one error")
    add_code_opts(p)
    p.add_argument("--error", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("channel-flow", help="iterate the effective channel")
    add_code_opts(p)
    add_channel_opts(p)
    p.add_argument("--max-levels", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_channel_flow)

    p = sub.add_parser("threshold", help="bisect the memory threshold")
    add_code_opts(p)
    p.add_argument("--family", default="depolarizing", choices=["depolarizing", "bit-flip"])
    p.add_argument("--lo", type=float, default=0.01)
    p.add_argument("--hi", type=float, default=0.3)
    p.add_argument("--width", type=float, default=1e-3)
    p.add_argument("--max-levels", type=int, default=200)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("memory-support", help="epsilon-memory support")
    add_code_opts(p)
    add_channel_opts(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--lattice-L", type=float, default=1.0)
    p.add_argument("--dimension", type=int, default=1)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_memory_support)

    p = sub.add_parser("classify", help="classify a concatenated-level error")
    add_code_opts(p)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--error", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("tiling", help="build and validate a lattice tiling")
    p.add_argument("--kind", default="plus", choices=["plus", "brick", "trivial"])
    p.add_argument("--plus", action="store_const", const="plus", dest="kind")
    p.add_argument("--brick", action="store_const", const="brick", dest="kind")
    p.add_argument("--trivial", action="store_const", const="trivial", dest="kind")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--hand", default="right", choices=["right", "left"])
    p.add_argument("--svg", default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_tiling)

    p = sub.add_parser("toric", help="toric rescaling and entropy scan")
    p.add_argument("--L", type=int, default=5)
    p.add_argument("--svg", default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_toric)

    p = sub.add_parser("dfs", help="decompose a collective-noise algebra")
    p.add_argument("--qubits", type=int, default=3)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_dfs)

    p = sub.add_parser("logistic", help="logistic ODE vs finite-difference map")
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
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_logistic)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented exit 1
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
