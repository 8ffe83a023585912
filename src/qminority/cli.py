"""Command-line front end for the engine.

Each command prints one comma-separated table preceded by a '#' metadata
block recording the package version, the exact invocation, and every
resolved parameter, so identical invocations produce byte-identical output
and any table is reproducible from its own header.  Exit codes: 0 success,
2 usage error, 1 runtime or domain error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, game, states, strategies
from . import equilibrium as eq
from .defaults import GRID, NE_GAIN_TOL, OPT_TOL
from .qcore import apply_local
from .strategies import StrategyParams, strategy_unitary

RNG_ALGORITHM = "pcg64"  # numpy default_rng bit generator used throughout


def _fmt(value) -> str:
    return repr(float(value))


def _range_type(name: str, lo: float, hi: float, lo_text: str, hi_text: str):
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be a number, got {text!r}")
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(
                f"{name} must be in [{lo_text}, {hi_text}], got {text}"
            )
        return value

    return parse


_alpha_type = _range_type("alpha", 0.0, 1.0, "0", "1")
_f_type = _range_type("f", 0.0, 1.0, "0", "1")
_theta_type = _range_type("theta", 0.0, np.pi, "0", "pi")
_beta_type = _range_type("beta", -np.pi, np.pi, "-pi", "pi")


def _tolerance_type(name: str, allow_zero: bool):
    """Finite tolerance, >= 0 when allow_zero else > 0."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be a number, got {text!r}")
        if not np.isfinite(value) or value < 0.0 or (value == 0.0 and not allow_zero):
            bound = ">= 0" if allow_zero else "> 0"
            raise argparse.ArgumentTypeError(f"{name} must be finite and {bound}, got {text}")
        return value

    return parse


_gain_tol_type = _tolerance_type("gain-tol", allow_zero=True)
_refine_tol_type = _tolerance_type("refine-tol", allow_zero=False)
_HEADER_ONLY = "recorded in the header only; does not change the result"


def _positive_int(name: str, minimum: int = 1):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{name} must be >= {minimum}, got {value}")
        return value

    return parse


def _add_strategy_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--strategy", choices=["I", "II"], help="named strategy")
    sp.add_argument("--theta", type=_theta_type, help="custom strategy polar angle in [0, pi]")
    sp.add_argument("--beta1", type=_beta_type, help="custom strategy first phase in [-pi, pi]")
    sp.add_argument("--beta2", type=_beta_type, help="custom strategy second phase in [-pi, pi]")


def _resolve_strategy(args, parser) -> tuple[str, StrategyParams]:
    triple = (args.theta, args.beta1, args.beta2)
    if args.strategy is not None:
        if any(v is not None for v in triple):
            parser.error("give either --strategy or the --theta/--beta1/--beta2 triple, not both")
        return args.strategy, analysis.STRATEGY_BY_NAME[args.strategy]
    if all(v is not None for v in triple):
        return "custom", StrategyParams(*triple)
    parser.error("a strategy is required: --strategy I|II or all of --theta/--beta1/--beta2")


def _strategy_meta(name: str, params: StrategyParams) -> dict:
    meta = {"strategy": name}
    if name == "custom":
        meta.update(theta=_fmt(params.theta), beta1=_fmt(params.beta1), beta2=_fmt(params.beta2))
    return meta


def _meta_lines(args, params: dict) -> list[str]:
    lines = [
        f"# qminority {__version__}",
        "# command: qminority " + " ".join(args.raw_argv),
    ]
    lines.extend(f"# {key}={value}" for key, value in params.items())
    return lines


def _emit(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# command handlers

def _cmd_payoff(args, parser) -> int:
    name, params = _resolve_strategy(args, parser)
    pays = game.expected_payoffs(states.noisy_state(args.alpha, args.f), (params,) * 4, args.basis)
    meta = {"alpha": _fmt(args.alpha), "f": _fmt(args.f), **_strategy_meta(name, params),
            "basis": args.basis}
    lines = _meta_lines(args, meta) + ["quantity,value"]
    lines.extend(f"player{i + 1},{_fmt(p)}" for i, p in enumerate(pays))
    lines.append(f"average,{_fmt(np.mean(pays))}")
    _emit(lines, args.output)
    return 0


def _closed_for(name: str, basis: str, alpha: float, f: float) -> float | None:
    """Closed-form payoff where one is anchored for this strategy and basis.

    Strategy II uses the form that agrees with the engine; strategy I uses
    the form as printed at its source, which is known to disagree with the
    engine except at the endpoints (the discrepancy column quantifies it).
    Basis coverage follows the exact curve identities: strategy I's X-basis
    and strategy II's Y-basis payoffs equal their Z-basis curves.
    """
    if name == "II" and basis in ("Z", "Y"):
        return game.average_payoff_closed_ii(alpha, f)
    if name == "I" and basis in ("Z", "X"):
        return game.average_payoff_closed_i_alt(alpha, f)
    return None


def _cmd_scan_alpha(args, parser) -> int:
    name, params = _resolve_strategy(args, parser)
    if args.alphas is not None:
        try:
            alphas = [_alpha_type(tok) for tok in args.alphas.split(",") if tok.strip()]
        except argparse.ArgumentTypeError as exc:
            parser.error(f"--alphas: {exc}")
        if not alphas:
            parser.error("--alphas needs at least one value")
    else:
        alphas = list(np.linspace(0.0, 1.0, args.npoints))
    meta = {"f": _fmt(args.f), **_strategy_meta(name, params), "basis": args.basis,
            "npoints": len(alphas)}
    lines = _meta_lines(args, meta) + ["alpha,payoff_engine,payoff_closed,discrepancy"]
    for a in alphas:
        engine = game.average_payoff(states.noisy_state(a, args.f), (params,) * 4, args.basis)
        closed = _closed_for(name, args.basis, a, args.f)
        if closed is None:
            lines.append(f"{_fmt(a)},{_fmt(engine)},,")
        else:
            lines.append(f"{_fmt(a)},{_fmt(engine)},{_fmt(closed)},{_fmt(engine - closed)}")
    _emit(lines, args.output)
    return 0


def _cmd_find_ne(args, parser) -> int:
    reports = eq.find_symmetric_ne(
        args.alpha, args.f, grid=args.grid, gain_tol=args.gain_tol, refine_tol=args.refine_tol
    )
    meta = {"alpha": _fmt(args.alpha), "f": _fmt(args.f), "grid": args.grid,
            "gain_tol": _fmt(args.gain_tol), "refine_tol": _fmt(args.refine_tol),
            "certified_points": len(reports)}
    lines = _meta_lines(args, meta) + ["theta,beta,payoff,max_deviation_gain,certified"]
    for r in reports:
        lines.append(
            f"{_fmt(r.point.theta)},{_fmt(r.point.beta)},{_fmt(r.payoff)},"
            f"{_fmt(r.max_deviation_gain)},true"
        )
    _emit(lines, args.output)
    return 0


def _cmd_find_po(args, parser) -> int:
    point, payoff = eq.find_symmetric_po(args.alpha, args.f, grid=args.grid)
    meta = {"alpha": _fmt(args.alpha), "f": _fmt(args.f), "grid": args.grid,
            "refine_tol": _fmt(args.refine_tol)}
    lines = _meta_lines(args, meta) + ["theta,beta,payoff",
                                       f"{_fmt(point.theta)},{_fmt(point.beta)},{_fmt(payoff)}"]
    _emit(lines, args.output)
    return 0


def _cmd_deviation(args, parser) -> int:
    point = eq.SymmetricPoint(args.theta, args.beta)
    gain, best = eq.deviation_gain(args.alpha, args.f, point)
    meta = {"alpha": _fmt(args.alpha), "f": _fmt(args.f), "theta": _fmt(args.theta),
            "beta": _fmt(args.beta), "grid": args.grid, "refine_tol": _fmt(args.refine_tol)}
    lines = _meta_lines(args, meta) + [
        "quantity,value",
        f"gain,{_fmt(gain)}",
        f"best_theta,{_fmt(best.theta)}",
        f"best_beta1,{_fmt(best.beta1)}",
        f"best_beta2,{_fmt(best.beta2)}",
    ]
    _emit(lines, args.output)
    return 0


def _cmd_fit(args, parser) -> int:
    if args.bundled == (args.points is not None):
        parser.error("give exactly one data source: --points PATH or --bundled")
    points = analysis.bundled_fit_points() if args.bundled else analysis.load_fit_points(args.points)
    result = analysis.fit_f(points, model=args.model)
    meta = {"model": args.model, "source": "bundled" if args.bundled else args.points}
    lines = _meta_lines(args, meta)
    for p in points:
        predicted = analysis.model_payoff(p, result.f_hat, args.model)
        lines.append(
            f"# point alpha={_fmt(p.alpha)} strategy={p.strategy} basis={p.basis}"
            f" payoff={_fmt(p.payoff)} error={_fmt(p.error)} model_at_fhat={_fmt(predicted)}"
        )
    lines += [
        "quantity,value",
        f"f_hat,{_fmt(result.f_hat)}",
        f"f_err,{_fmt(result.f_err)}",
        f"chi_square,{_fmt(result.chi_square)}",
        f"n_points,{result.n_points}",
        f"clamped,{str(result.clamped).lower()}",
    ]
    _emit(lines, args.output)
    return 0


def _cmd_simulate_counts(args, parser) -> int:
    name, params = _resolve_strategy(args, parser)
    eff = np.ones((4, 2))
    for item_text in args.efficiency or []:
        detector, _, value_text = item_text.partition("=")
        try:
            mode, bit = analysis._parse_detector(detector.strip())
            value = float(value_text)
        except ValueError as exc:
            parser.error(f"bad --efficiency {item_text!r}: {exc}")
        if not 0 < value < np.inf:
            parser.error(f"bad --efficiency {item_text!r}: value must be finite and positive")
        eff[mode, bit] = value
    table = analysis.simulate_counts(
        args.alpha, args.f, (params,) * 4, args.basis, args.events, args.seed,
        efficiencies=eff, strategy_name=name if name in analysis.STRATEGY_BY_NAME else None,
    )
    comments = (
        f"qminority {__version__}",
        "command: qminority " + " ".join(args.raw_argv),
        f"rng={RNG_ALGORITHM} seed={args.seed} events={args.events}",
    )
    text = analysis.format_counts(table, comments)
    if args.output:
        Path(args.output).write_text(text)
        sys.stdout.write(f"wrote {args.output}\n")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_fidelity(args, parser) -> int:
    rho = states.noisy_state(args.alpha, args.f)
    target = states.ghz_state()
    meta = {"alpha": _fmt(args.alpha), "f": _fmt(args.f), "transform": args.transform}
    lines = _meta_lines(args, meta) + ["quantity,value"]
    if args.transform == "none":
        lines.append(f"direct_overlap,{_fmt(states.ghz_fidelity(rho, target))}")
        lines.append(f"stabilizer_estimate,{_fmt(states.stabilizer_fidelity(rho))}")
        lines.append(f"stabilizer_settings,{len(states.stabilizer_fidelity_settings())}")
    else:
        u = strategy_unitary(analysis.STRATEGY_BY_NAME[args.transform])
        rho = apply_local(rho, [u] * 4)
        target = apply_local(target, [u] * 4)
        lines.append(f"direct_overlap,{_fmt(states.ghz_fidelity(rho, target))}")
    _emit(lines, args.output)
    return 0


def _cmd_waveplates(args, parser) -> int:
    name, params = _resolve_strategy(args, parser)
    u = strategy_unitary(params)
    triple = strategies.solve_waveplate_angles(u, tol=args.tol)
    solved_distance = strategies.phase_distance(u, strategies.compose_waveplates(triple))
    meta = {**_strategy_meta(name, params), "tol": _fmt(args.tol)}
    lines = _meta_lines(args, meta) + [
        "quantity,value",
        f"solved_qwp1,{_fmt(triple.qwp1)}",
        f"solved_hwp,{_fmt(triple.hwp)}",
        f"solved_qwp2,{_fmt(triple.qwp2)}",
        f"solved_phase_distance,{_fmt(solved_distance)}",
    ]
    if name in strategies.BENCH_TRIPLES:
        row = next(r for r in strategies.bench_triple_report() if r["strategy"] == name)
        bench = row["triple"]
        lines += [
            f"bench_qwp1,{_fmt(bench.qwp1)}",
            f"bench_hwp,{_fmt(bench.hwp)}",
            f"bench_qwp2,{_fmt(bench.qwp2)}",
            f"bench_matches,{str(row['matches']).lower()}",
            f"bench_phase_distance,{_fmt(row['phase_distance'])}",
        ]
    _emit(lines, args.output)
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qminority",
        description="Four-player quantum Minority game: payoffs, equilibria, "
                    "fidelities, counts simulation, and fidelity fits.",
    )
    parser.add_argument("--version", action="version", version=f"qminority {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.set_defaults(func=func, subparser=sp)
        sp.add_argument("--output", help="write the table to this path instead of stdout")
        return sp

    sp = add("payoff", _cmd_payoff, "Expected per-player payoffs for one configuration.")
    sp.add_argument("--alpha", type=_alpha_type, required=True)
    sp.add_argument("--f", type=_f_type, default=1.0)
    _add_strategy_args(sp)
    sp.add_argument("--basis", choices=["Z", "X", "Y"], default="Z")

    sp = add("scan-alpha", _cmd_scan_alpha,
             "Average payoff versus alpha with engine and closed-form columns. "
             "The strategy-I closed column uses the form as printed at its source, "
             "which is known to disagree with the engine away from the endpoints.")
    sp.add_argument("--f", type=_f_type, default=1.0)
    _add_strategy_args(sp)
    sp.add_argument("--basis", choices=["Z", "X", "Y"], default="Z")
    sp.add_argument("--npoints", type=_positive_int("npoints", 2), default=21,
                    help="evenly spaced alphas over [0, 1] (default 21)")
    sp.add_argument("--alphas", help="explicit comma-separated alpha list (overrides --npoints)")

    sp = add("find-ne", _cmd_find_ne, "Certified symmetric Nash equilibria at (alpha, f).")
    sp.add_argument("--alpha", type=_alpha_type, required=True)
    sp.add_argument("--f", type=_f_type, default=1.0)
    sp.add_argument("--grid", type=_positive_int("grid", 8), default=GRID)
    sp.add_argument("--gain-tol", type=_gain_tol_type, default=NE_GAIN_TOL)
    sp.add_argument("--refine-tol", type=_refine_tol_type, default=OPT_TOL)

    sp = add("find-po", _cmd_find_po, "Symmetric payoff maximizer at (alpha, f).")
    sp.add_argument("--alpha", type=_alpha_type, required=True)
    sp.add_argument("--f", type=_f_type, default=1.0)
    sp.add_argument("--grid", type=_positive_int("grid", 8), default=GRID)
    sp.add_argument("--refine-tol", type=_refine_tol_type, default=OPT_TOL, help=_HEADER_ONLY)

    sp = add("deviation", _cmd_deviation,
             "Best unilateral deviation gain against a symmetric point.")
    sp.add_argument("--alpha", type=_alpha_type, required=True)
    sp.add_argument("--f", type=_f_type, default=1.0)
    sp.add_argument("--theta", type=_theta_type, required=True)
    sp.add_argument("--beta", type=_beta_type, required=True)
    sp.add_argument("--grid", type=_positive_int("grid", 2), default=GRID, help=_HEADER_ONLY)
    sp.add_argument("--refine-tol", type=_refine_tol_type, default=OPT_TOL, help=_HEADER_ONLY)

    sp = add("fit", _cmd_fit, "Weighted least-squares fit of the noise fidelity f.")
    sp.add_argument("--points", help="fit-points CSV: alpha,strategy,basis,payoff,error")
    sp.add_argument("--bundled", action="store_true",
                    help="use the bundled reference Z-basis dataset")
    sp.add_argument("--model", choices=["engine", "closed"], default="engine")

    sp = add("simulate-counts", _cmd_simulate_counts,
             "Seeded multinomial coincidence counts for one configuration.")
    sp.add_argument("--alpha", type=_alpha_type, required=True)
    sp.add_argument("--f", type=_f_type, default=1.0)
    _add_strategy_args(sp)
    sp.add_argument("--basis", choices=["Z", "X", "Y"], default="Z")
    sp.add_argument("--events", type=_positive_int("events"), required=True)
    sp.add_argument("--seed", type=_positive_int("seed", 0), required=True)
    sp.add_argument("--efficiency", action="append", metavar="ID=VALUE",
                    help="detector efficiency, e.g. --efficiency dV=0.5 (repeatable)")

    sp = add("fidelity", _cmd_fidelity,
             "GHZ fidelity of the noisy state: direct overlap and, for the "
             "untransformed target, the 9-setting stabilizer estimate. "
             "--transform applies the named strategy to state and target alike.")
    sp.add_argument("--alpha", type=_alpha_type, required=True)
    sp.add_argument("--f", type=_f_type, default=1.0)
    sp.add_argument("--transform", choices=["none", "I", "II"], default="none")

    sp = add("waveplates", _cmd_waveplates,
             "Quarter/half/quarter waveplate angles realizing a strategy, with "
             "the bench-triple comparison for named strategies.")
    _add_strategy_args(sp)
    sp.add_argument("--tol", type=_tolerance_type("tol", allow_zero=False), default=OPT_TOL)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.raw_argv = argv
    try:
        return args.func(args, args.subparser)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
