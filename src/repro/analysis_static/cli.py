"""Entry point: ``python -m repro.analysis_static`` / ``repro lint``.

With no arguments it lints the installed ``repro`` package and
validates every registered application graph.  Pass explicit paths to
lint a subtree or fixture instead.  With ``--app NAME --load RPS`` it
switches to *flow analysis*: the named application's topology is
validated and its deployment plan (``--config plan.json``, or the
``repro simulate`` defaults) is checked for capacity (CAP), deadline
(DLINE), and policy-consistency (CFG) violations at the declared load.
Exit status is 0 when no error-severity findings exist, 1 otherwise —
which is what the CI ``lint`` job keys off.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from .rules import ALL_RULES, Finding

__all__ = ["main", "build_parser", "lint_arguments", "run"]


def lint_arguments() -> argparse.ArgumentParser:
    """The one definition of the lint flags, shared (as an argparse
    parent) by this entry point and the ``repro lint`` subcommand."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the repro package)")
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)")
    parser.add_argument(
        "--json", dest="format", action="store_const", const="json",
        help="alias for --format json")
    parser.add_argument(
        "--select", metavar="CODES", default=None,
        help="comma-separated rule codes to report exclusively")
    parser.add_argument(
        "--ignore", metavar="CODES", default=None,
        help="comma-separated rule codes to drop from the report")
    parser.add_argument(
        "--no-apps", action="store_true",
        help="skip topology validation of the registered applications")
    parser.add_argument(
        "--apps-only", action="store_true",
        help="only validate the registered application graphs")
    parser.add_argument(
        "--no-chaos", action="store_true",
        help="skip fault-schedule validation of the registered chaos "
             "scenarios and the canonical region schedule "
             "(FAULT001-FAULT004)")
    parser.add_argument(
        "--app", metavar="NAME", default=None,
        help="flow-analysis mode: check one application's (or synth: "
             "generator spec's) deployment plan (CAP/DLINE/CFG rules) "
             "instead of linting files")
    parser.add_argument(
        "--load", type=float, default=None, metavar="RPS",
        help="declared offered load for --app (requests/second)")
    parser.add_argument(
        "--config", metavar="FILE", default=None,
        help="JSON deployment plan for --app (replicas, cores, mix, "
             "policies, ...); default: the repro simulate conventions")
    parser.add_argument(
        "--explain", action="store_true",
        help="print the rule table and exit")
    return parser


def build_parser() -> argparse.ArgumentParser:
    return argparse.ArgumentParser(
        prog="repro.analysis_static",
        description="simulation-safety static analysis "
                    "(simlint + topology validation + capacity/"
                    "deadline/policy flow analysis)",
        parents=[lint_arguments()])


def _parse_codes(raw: Optional[str],
                 parser: argparse.ArgumentParser) -> Optional[set]:
    if raw is None:
        return None
    codes = {code.strip().upper() for code in raw.split(",")
             if code.strip()}
    unknown = codes - set(ALL_RULES)
    if unknown:
        parser.error(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    return codes


def _flow_findings(parser: argparse.ArgumentParser,
                   args) -> List[Finding]:
    """Findings for ``--app`` mode: topology + CAP/DLINE/CFG."""
    from ..apps.registry import app_names, build_app
    if args.app not in app_names() and not args.app.startswith("synth:"):
        parser.error(f"unknown application {args.app!r} "
                     f"(choose from: {', '.join(app_names())}, or a "
                     f"generator spec like synth:mesh:n32:seed7)")
    from .flow import DeploymentPlan, analyze_flow, load_plan
    from .topology import validate_app
    app = build_app(args.app)
    if args.config:
        plan = load_plan(args.config, load=args.load)
    else:
        plan = DeploymentPlan(load=args.load)
    return validate_app(app) + analyze_flow(app, plan)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    return run(parser.parse_args(argv), parser)


def run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Lint per ``args`` (parsed by a parser built on
    :func:`lint_arguments`); usage errors go through ``parser.error``."""
    # Imported here, not at module level: every ``repro`` command builds
    # its ``lint`` subparser from this module, and only linting needs
    # the AST linter and the report formatters.
    from .report import (
        exit_code,
        explain_rules,
        format_json,
        format_sarif,
        format_text,
    )
    from .simlint import _iter_python_files, lint_paths
    if args.explain:
        print(explain_rules())
        return 0
    if args.apps_only and args.no_apps:
        parser.error("--apps-only and --no-apps are mutually exclusive")
    if args.apps_only and args.paths:
        parser.error("--apps-only takes no paths")
    if args.app is None:
        for flag in ("load", "config"):
            if getattr(args, flag) is not None:
                parser.error(f"--{flag} requires --app")
    else:
        if args.load is None:
            parser.error("--app requires --load (the declared "
                         "offered load in rps)")
        if args.paths or args.apps_only or args.no_apps:
            parser.error("--app is a flow-analysis mode: it takes no "
                         "paths and ignores --apps-only/--no-apps")

    select = _parse_codes(args.select, parser)
    ignore = _parse_codes(args.ignore, parser)

    findings: List[Finding] = []
    files_checked = 0
    apps_checked = 0

    if args.app is not None:
        try:
            findings = _flow_findings(parser, args)
        except (OSError, ValueError) as exc:
            print(f"simlint: {exc}")
            return 2
        apps_checked = 1
    else:
        if not args.apps_only:
            paths = args.paths or [
                str(Path(__file__).resolve().parents[1])]
            try:
                files_checked = len(_iter_python_files(paths))
                findings.extend(lint_paths(paths))
            except (FileNotFoundError, ValueError) as exc:
                print(f"simlint: {exc}")
                return 2

        if not args.no_apps:
            # Lazy import: validating apps builds them, which pulls in
            # the whole services layer; plain file linting should not.
            from .topology import check_registry
            per_app = check_registry()
            apps_checked = len(per_app)
            for app_findings in per_app.values():
                findings.extend(app_findings)

        if not args.no_apps and not args.no_chaos and not args.apps_only:
            # Registered chaos scenarios must build valid fault
            # schedules against a canonical deployment
            # (FAULT001-FAULT003).
            from .faultcheck import check_region_schedule, check_scenarios
            chaos_findings, _ = check_scenarios()
            findings.extend(chaos_findings)
            region_findings, _ = check_region_schedule()
            findings.extend(region_findings)

    if select is not None:
        findings = [f for f in findings if f.code in select]
    if ignore is not None:
        findings = [f for f in findings if f.code not in ignore]

    if args.format == "json":
        print(format_json(findings, files_checked, apps_checked))
    elif args.format == "sarif":
        print(format_sarif(findings, files_checked, apps_checked))
    else:
        print(format_text(findings, files_checked, apps_checked))
    return exit_code(findings)


if __name__ == "__main__":  # pragma: no cover
    import sys
    sys.exit(main())
