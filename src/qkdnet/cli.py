"""Command-line front end.

Subcommands:

  run    --scenario F [--trials N] [--seed S] [--out DIR]
  bounds --n N --s S --m M --ell L [--eps E]
  paths  --scenario F [--ell L]
  plan   --t T [--u U] --mode one_way|two_way|feedback
  oracle [--max-bits B] [--configs C]

``run`` exits 0 only when the empirical estimate passes the agreement
bound (a vacuous bound prints VACUOUS and exits 1); ``oracle`` exits 0
only when every exhaustive check is exact.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import QkdNetError, ValidationError
from .network import required_paths, vertex_disjoint_paths
from .protocol import SecurityParams
from .sim import (
    check_bounds,
    emit_report,
    exact_oracles,
    load_scenario,
    protocol_impersonation_bound,
    run_monte_carlo,
)


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    run = run_monte_carlo(scenario, trials=args.trials, seed=args.seed)
    st = run.stats
    print(f"scenario: {scenario.name}")
    print(f"trials: {st.trials}  successes: {st.successes}")
    print(f"empirical: {st.empirical:.6f}  "
          f"ci{int(st.confidence * 100)}: [{st.ci_low:.6f}, {st.ci_high:.6f}]")
    print(f"p_im: {st.p_im:.6g}")
    print(f"agreement_bound: {st.agreement_bound:.6f}  "
          f"privacy_bound: {st.privacy_bound:.6f}")
    if st.degenerate:
        print("warning: single-trial interval is degenerate")
    print(f"verdict: {st.verdict}")
    if st.verdict == "VACUOUS":
        print("note: the bound is vacuous "
              "(agreement_bound <= 0 or privacy_bound >= 1)")
    if args.out:
        emit_report(run, args.out)
        print(f"report written to {args.out}")
    return 0 if st.passed else 1


def _cmd_bounds(args) -> int:
    params = SecurityParams(n=args.n, s=args.s, m=args.m, ell=args.ell,
                            epsilon=args.eps)
    p_im = protocol_impersonation_bound(params)
    agreement, privacy = check_bounds(params, p_im)
    print(f"p_im: {p_im:.6g}")
    print(f"agreement_bound: {agreement:.6f}")
    print(f"privacy_bound: {privacy:.6f}")
    return 0


def _cmd_paths(args) -> int:
    scenario = load_scenario(args.scenario)
    paths = scenario.paths if args.ell is None else vertex_disjoint_paths(
        scenario.graph, scenario.a, scenario.b, args.ell)
    for i, path in enumerate(paths.paths):
        print(f"path {i}: {' -> '.join(path)}")
    return 0


def _cmd_plan(args) -> int:
    count = required_paths(args.t, u=args.u, mode=args.mode)
    print(f"required disjoint paths: {count}")
    return 0


def _cmd_oracle(args) -> int:
    if not 3 <= args.max_bits <= 8:
        raise ValidationError(f"--max-bits must be in 3..8, got {args.max_bits}")
    params = SecurityParams(n=args.max_bits + 8, s=4, m=2, ell=2)
    report = exact_oracles(params, dpa_configs=args.configs)
    for line in report.lines():
        print(line)
    print("all exact" if report.all_exact else "MISMATCH FOUND")
    return 0 if report.all_exact else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdnet",
        description="Trusted-repeater network key agreement simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="Monte-Carlo run of a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bounds", help="evaluate the analytic bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("paths", help="show vertex-disjoint paths")
    p.add_argument("--scenario", required=True)
    p.add_argument("--ell", type=int, default=None)
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("plan", help="classical connectivity requirements")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--u", type=int, default=0)
    p.add_argument("--mode", choices=("one_way", "two_way", "feedback"),
                   default="one_way")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("oracle", help="run the exhaustive oracles")
    p.add_argument("--max-bits", type=int, default=8)
    p.add_argument("--configs", type=int, default=25)
    p.set_defaults(func=_cmd_oracle)
    return parser


_shared_parser = functools.cache(make_parser)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except QkdNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
