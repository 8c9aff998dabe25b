"""Command-line front end.

Subcommands:

* ``sweep <config> --out <path> --format csv|json`` — run a declarative
  grid sweep (JSON config, see :mod:`nomagsc.sweep`).
* ``figure <name> --out-dir <dir>`` — regenerate the data file and plot
  script behind one of the five standard figures.
* ``optimize <config>`` — the sweep's search path: a sweep of a
  ``power.search`` config with the one method the search evaluates,
  printed as the optimal split and capacities per grid point.
* ``validate`` — analytic-vs-Monte-Carlo oracle grid with a pass/fail
  table.

Exit codes: 0 success, 1 config or usage error, 2 numerical failure,
3 validation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import figures, sweep, validate
from .montecarlo import SimPlan
from .numerics import IntegrationError
from .optimizer import SearchError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VALIDATION = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nomagsc",
        description="Effective capacity of two-user downlink NOMA with GSC receivers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a grid sweep from a JSON config")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    p_fig = sub.add_parser("figure", help="generate data + plot script for a figure")
    p_fig.add_argument("name", choices=sorted(figures.FIGURE_SPECS))
    p_fig.add_argument("--out-dir", default=".")

    p_opt = sub.add_parser("optimize", help="power-allocation search per grid point")
    p_opt.add_argument("config")

    p_val = sub.add_parser("validate", help="analytic vs Monte Carlo oracle grid")
    p_val.add_argument("--samples", type=int, default=100_000)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--out", help="also write the table as CSV")

    return parser


def _cmd_sweep(args) -> int:
    spec = sweep.load_spec(args.config)
    rows = sweep.run_sweep(spec)
    sweep.emit(rows, args.format, args.out)
    failed = [r for r in rows if r.status != "ok"]
    print(f"wrote {len(rows)} rows to {args.out} ({len(failed)} error rows)")
    return EXIT_OK


def _cmd_figure(args) -> int:
    for path in figures.generate_figure(args.name, args.out_dir):
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    spec = sweep.load_spec(args.config)
    if spec.search is None:
        raise sweep.ConfigError("optimize needs a config with power.search (got a fixed a_s)")
    # the sweep's search path, with the one method whose report the search computes
    method = sweep._SEARCH_METHODS[spec.search.objective]
    rows = sweep.run_sweep(dataclasses.replace(spec, methods=(method,)))
    print("rho_db theta n a_s* e_strong e_weak e_sum")
    for (rho_db, theta, n, *_), row in zip(spec.points(), rows):
        if row.status != "ok":  # the search failed at this point
            raise SearchError(row.status.removeprefix("error: "))
        print(
            f"{rho_db:g} {theta:g} {n} {row.a_s:g} "
            f"{row.e_strong:.6f} {row.e_weak:.6f} {row.e_sum:.6f}"
        )
    return EXIT_OK


def _cmd_validate(args) -> int:
    plan = SimPlan(samples=args.samples, seed=args.seed)
    rows = validate.run_validation(plan)
    failures = 0
    for r in rows:
        status = "pass" if r.passed else "FAIL"
        failures += not r.passed
        print(
            f"{status}  rho={r.rho_db:>3g}dB theta={r.theta:g} n={r.n} "
            f"a_s={r.a_s:g} {r.quantity:<16} analytic={r.analytic:.5f} "
            f"mc={r.estimate:.5f} z={r.z:.2f}"
        )
    print(f"{len(rows) - failures}/{len(rows)} checks passed")
    if rows:
        print(validate.z_summary(rows))
    if args.out:
        validate.write_csv(rows, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error; its exit code 2 means a numerical failure here
        raise SystemExit(EXIT_CONFIG if exc.code == 2 else exc.code) from None
    handlers = {
        "sweep": _cmd_sweep,
        "figure": _cmd_figure,
        "optimize": _cmd_optimize,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except sweep.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, ArithmeticError, SearchError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
