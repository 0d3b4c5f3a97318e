"""Command-line front end over the run harness.

Exit codes: 0 success, 1 solver failure (singular system, stalled linear
solve, aborted study), 2 configuration error, an output path that cannot
be written included.  Each warning goes to stderr as one line.
"""

import argparse
import sys
import warnings

from .harness import (ConfigError, _dump_json, load_config, run_diagnose,
                      run_solve, run_study)
from .linalg import SingularSystemError
from .solvers import stall_message


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mhdfem",
        description="structure-preserving mixed finite elements for "
                    "stationary incompressible MHD")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("solve", "run one nonlinear solve"),
                       ("study", "manufactured-solution refinement study"),
                       ("diagnose", "structural checks and constants")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("config", help="path to a JSON run configuration")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the probe seed from the config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr)
        return _run(args)


def _run(args) -> int:
    try:
        config = load_config(args.config, seed_override=args.seed)
        if args.command == "solve":
            doc = run_solve(config)
            picard = doc["picard"]
            if config.report_path is None:
                sys.stdout.write(_dump_json(doc))
            else:
                print(f"report written to {config.report_path} "
                      f"({picard['termination']} after "
                      f"{picard['n_iterations']} iterations)")
            if picard["termination"] == "linear-stall":
                print("solver error: " + stall_message(
                    picard["formulation"], picard["n_iterations"] + 1),
                    file=sys.stderr)
                return 1
        elif args.command == "study":
            result = run_study(config)
            if config.csv_path is None:
                sys.stdout.write(result["csv"])
            else:
                print(f"study written to {config.csv_path} "
                      f"({len(result['rows'])} levels)")
            if result["aborted"] is not None:
                print(f"study aborted: Picard hit {result['termination']} "
                      f"at level {result['aborted']}", file=sys.stderr)
                return 1
        else:
            doc = run_diagnose(config)
            if config.report_path is None:
                sys.stdout.write(_dump_json(doc))
            else:
                print(f"diagnostics written to {config.report_path} "
                      f"({doc['structure']['termination']})")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SingularSystemError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
