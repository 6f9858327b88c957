"""Command-line front end: run registered experiments from JSON
configs, list the registry, and write reports plus data files.

Exit codes: 0 when every check passes; 1 when at least one check fails
(the report is still written); 2 on a usage error (empty argument
list, unreadable path, malformed JSON) and on every config the registry
refuses (``--seed`` and ``--out`` are applied first), with no report
written.  The logging level comes from the MDIRAC_LOG environment
variable (error, info, debug; default error).

Reports are deterministic: the same config and seed produce a
byte-identical report.json.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .dynamics import Trajectory, write_csv
from .experiments import (
    EXPERIMENTS,
    ConfigError,
    list_experiments,
    parse_config,
    run_experiment,
)

log = logging.getLogger("mdirac")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}


def _setup_logging():
    name = os.environ.get("MDIRAC_LOG", "error").lower()
    logging.basicConfig(level=_LOG_LEVELS.get(name, logging.ERROR),
                        stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    if name and name not in _LOG_LEVELS:
        log.error("unknown MDIRAC_LOG value %r; using 'error'", name)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mdirac",
        description="Dirac-bracket and normal-form experiment runner.")
    sub = ap.add_subparsers(dest="command", required=True)
    rp = sub.add_parser("run", help="run an experiment from a JSON config")
    rp.add_argument("config", help="path to the experiment config")
    rp.add_argument("--out", metavar="DIR", default=None,
                    help="output directory (overrides config output_dir)")
    rp.add_argument("--seed", type=int, default=None, metavar="N",
                    help="probe seed (overrides config seed)")
    rp.set_defaults(func=_cmd_run)
    lp = sub.add_parser("list", help="list registered experiments")
    lp.add_argument("--json", action="store_true",
                    help="machine-readable registry with config schemas")
    lp.set_defaults(func=_cmd_list)
    return ap


def _cmd_list(args) -> int:
    rows = list_experiments()
    if args.json:
        print(json.dumps(
            {"experiments": [dict(EXPERIMENTS[n].schema(), name=n)
                             for n, _ in rows]},
            indent=2, sort_keys=True))
    else:
        width = max(len(n) for n, _ in rows)
        for n, d in rows:
            print("%-*s  %s" % (width, n, d))
    return 0


def _cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        print("config error: %s" % err, file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        print("config error: malformed JSON in %s: %s"
              % (args.config, err), file=sys.stderr)
        return 2
    if isinstance(data, dict):
        if args.seed is not None:
            data["seed"] = args.seed
        if args.out is not None:
            data["output_dir"] = args.out
    try:
        cfg = parse_config(data)
        log.info("running %s (seed %d)", cfg.experiment, cfg.seed)
        report, artifacts = run_experiment(cfg)
    except ConfigError as err:
        print("config error: %s" % err, file=sys.stderr)
        return 2

    out_dir = cfg.output_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, obj in sorted(artifacts.items()):
        path = os.path.join(out_dir, name)
        if isinstance(obj, Trajectory):
            write_csv(obj, path)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh, indent=2, sort_keys=True)
                fh.write("\n")
        log.info("wrote %s", path)

    for name, chk in sorted(report["checks"].items()):
        if chk["kind"] == "flag":
            val = ""
        else:
            rel = "<" if chk["kind"] == "max" else ">"
            val = "  %.3e %s %.0e" % (chk["value"], rel, chk["tol"])
        print("  %-28s %s%s"
              % (name, "pass" if chk["passed"] else "FAIL", val))
    n_pass = sum(1 for c in report["checks"].values() if c["passed"])
    print("%s: %s (%d/%d checks), report %s"
          % (cfg.experiment, "PASS" if report["passed"] else "FAIL",
             n_pass, len(report["checks"]), report_path))
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    _setup_logging()
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
