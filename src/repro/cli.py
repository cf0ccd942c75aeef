"""Command-line interface: ``python -m repro <command>``.

Each command is a module under :mod:`repro.commands`; ``python -m repro
<command> --help`` prints its docstring and options.  This module builds
the parser and maps failures to exit codes: a one-line error and exit 1,
a :class:`~repro.resilience.guards.GuardAbort` exit 3 with the guard's
hints, 130 on Ctrl-C.  ``--traceback`` (before the command) re-raises
with the full stack instead.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys

from repro.commands import (
    bench_report,
    certify,
    checkpoint,
    drift,
    info,
    preprocess,
    serve_bench,
    simulate,
    trace,
    train,
)
from repro.resilience import GuardAbort

__all__ = ["main", "build_parser"]

_COMMANDS = (
    info, preprocess, train, simulate, trace, serve_bench, drift, certify, checkpoint, bench_report
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FAE: accelerate recommendation training via hot embeddings",
    )
    parser.add_argument(
        "--traceback",
        action="store_true",
        help="re-raise errors with the full stack trace instead of a one-line message",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for module in _COMMANDS:
        doc = inspect.getdoc(module)
        command = commands.add_parser(
            module.__name__.rpartition(".")[2].replace("_", "-"),
            help=doc.splitlines()[0],
            description=doc,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        module.add_arguments(command)
        command.set_defaults(run=module.run)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Failures exit nonzero with a one-line error on stderr; pass
    ``--traceback`` to re-raise with the full stack instead.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except GuardAbort as exc:
        if args.traceback:
            raise
        print(f"error: GuardAbort[{exc.guard}]: {exc}", file=sys.stderr)
        for hint in exc.hints():
            print(f"  {hint}", file=sys.stderr)
        if exc.guard == "numeric":
            print(
                "  hint: raise the rollback budget (--guards rollbacks=N), "
                "lower --lr, or inspect the quarantine ledger for dirty input",
                file=sys.stderr,
            )
        elif exc.guard == "ingest":
            print(
                "  hint: relax the policy (--validate clamp) or fix the "
                "records listed in the ledger",
                file=sys.stderr,
            )
        return 3
    except BrokenPipeError:
        # Downstream consumer (head, less) closed the pipe: normal for
        # paged output, not an error.  Detach stdout so the interpreter
        # shutdown doesn't print its own BrokenPipeError warning.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except Exception as exc:
        if args.traceback:
            raise
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
