"""Command-line entry point tying the modules into reproducible pipelines.

Exit codes: 0 success, 1 input/parse error, 2 mathematical precondition
failure.  Every command is deterministic given --seed (default 0) and embeds
full provenance in its output document.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys

# compiler, problems, fingerprint and projections are imported by the commands
# that run them.  bounds stays here: perfbench's traced pass wraps it from
# sys.modules after importing only this module and its workloads' modules.
from . import bounds, io
from .embeddings import (
    SignMatrix,
    verify_realization,
    verify_threshold_embedding,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the interchange contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# The size options each builtin reads, in the order its generator takes them.
_BUILTIN_PARAMS = {"eq": ("n",), "ip": ("k",), "ham": ("n", "d")}


def _refuse(args, reason: str, *names: str) -> None:
    """Raise an input error naming each option in ``names`` that was given."""
    given = [n for n in names if getattr(args, n) is not None and getattr(args, n) is not False]
    if given:
        flags = ", ".join("--" + n.replace("_", "-") for n in given)
        raise io.DocumentError(f"{flags} {reason}")


def _builtin_matrix(args) -> SignMatrix:
    from . import problems
    params = _BUILTIN_PARAMS[args.builtin]
    if any(getattr(args, p) is None for p in params):
        raise io.DocumentError(
            f"--builtin {args.builtin} requires " + " and ".join("--" + p for p in params)
        )
    _refuse(args, f"conflicts with --builtin {args.builtin}",
            *(p for p in ("n", "k", "d") if p not in params))
    # looked up at each call, so that perfbench's wrappers of problems.*_matrix see it
    return getattr(problems, f"{args.builtin}_matrix")(*(getattr(args, p) for p in params))


def _load_matrix(args) -> SignMatrix:
    if args.builtin is not None:
        return _builtin_matrix(args)
    if args.matrix is None:
        raise io.DocumentError("either --matrix or --builtin is required")
    _refuse(args, "conflicts with --matrix", "n", "k", "d")
    return io.parse_sign_matrix(io.load(args.matrix))


def _unwritable(exc: OSError) -> int:
    print(f"qfpsim: cannot write output: {exc}", file=sys.stderr)
    return 1


def _emit(kind: str, payload: dict, args, argv: list[str]) -> int:
    """Write the document to ``args.out`` (default: stdout) and return the exit
    status: 1, reported in one line, when writing it raises an OSError."""
    doc = io.document(kind, payload, command=shlex.join(["qfpsim", *argv]),
                      seed=getattr(args, "seed", None))
    try:
        io.dump(doc, args.out)
    except OSError as exc:
        return _unwritable(exc)
    return 0


def cmd_margin(args, argv) -> int:
    m = _load_matrix(args)
    report = bounds.margin_report(m, heuristic=args.heuristic)
    return _emit(
        "report",
        {
            "report": "margin",
            "rows": m.rows,
            "cols": m.cols,
            **report._asdict(),
            "note": "qent/repetition bounds are asymptotic, constant omitted",
        },
        args,
        argv,
    )


def _simulation_inputs(args):
    if args.embedding is not None:
        embedding = io.parse_embedding(io.load(args.embedding))
        m = _load_matrix(args)
        return embedding, m
    if args.builtin == "eq":
        from . import compiler, problems
        m = _builtin_matrix(args)
        system = compiler.compile_one_way(problems.eq_parity_protocol(args.n))
        return compiler.assemble_shared_randomness_states(system, m), m
    raise io.DocumentError("simulate needs --embedding plus a matrix, or --builtin eq")


def cmd_simulate(args, argv) -> int:
    from . import fingerprint
    embedding, m = _simulation_inputs(args)
    protocol = fingerprint.protocol_from_embedding(embedding, args.eps)
    report = fingerprint.run_protocol(protocol, m, args.trials)
    return _emit(
        "report",
        {
            "report": "simulation",
            "delta0": embedding.delta0,
            "delta1": embedding.delta1,
            "theta": protocol.theta,
            "eps": args.eps,
            "trials": args.trials,
            "copies": protocol.repetitions,
            "qubits_per_copy": protocol.qubits_per_copy,
            "total_qubits": protocol.total_qubits,
            "max_error": report.exact_error,  # kept for readers of the former estimate
            "exact_error": report.exact_error,
            "group_error": report.group_error.tolist(),
            "pair_group": io.integer_block(report.pair_group),  # -1 on promise pairs
        },
        args,
        argv,
    )


def cmd_compile(args, argv) -> int:
    from . import compiler
    if args.protocol is not None:
        _refuse(args, "conflicts with --protocol", "model", "num_r")
        protocol = io.parse_protocol(io.load(args.protocol))
        m = _load_matrix(args)
    elif args.builtin == "eq":
        from . import problems
        m = _builtin_matrix(args)
        if args.model == "one-way":
            protocol = problems.eq_parity_one_way_protocol(args.n, args.num_r, args.seed)
        else:
            protocol = problems.eq_parity_protocol(args.n, args.num_r, args.seed)
    else:
        raise io.DocumentError("compile needs --protocol plus a matrix, or --builtin eq")

    system = compiler.compile_one_way(protocol)
    del protocol  # not read again: its tables need not outlive compilation
    embedding = compiler.assemble_shared_randomness_states(system, m)
    # the states as the system they pad
    return _emit("embedding", io.embedding_payload(embedding), args, argv)


def cmd_project(args, argv) -> int:
    from . import projections
    vectors = io.parse_vectors(io.load(args.vectors))
    projected = projections.project_vectors(vectors, args.dim, args.seed)
    report = projections.verify_distortion(vectors, projected, args.eps)
    source_dim = vectors.shape[1]
    del vectors  # not read again: the input need not outlive serializing
    return _emit(
        "report",
        {
            "report": "projection",
            "source_dim": source_dim,
            "target_dim": args.dim,
            "eps": args.eps,
            **report._asdict(),
            "projected": projected,  # io.dump writes it one row at a time
        },
        args,
        argv,
    )


def cmd_verify(args, argv) -> int:
    m = _load_matrix(args)
    # Rows are read as written, as in simulate: a non-unit row is an input error.
    if args.embedding is not None:
        embedding = io.parse_embedding(io.load(args.embedding))
        report = verify_threshold_embedding(embedding, m)
        payload = {
            "report": "verify_embedding",
            **report._asdict(),
            "delta0": embedding.delta0,
            "delta1": embedding.delta1,
        }
    else:
        realization = io.parse_realization(io.load(args.realization))
        report = verify_realization(realization, m)
        payload = {
            "report": "verify_realization",
            **report._asdict(),
            "gamma": realization.gamma,
        }
    return _emit("report", payload, args, argv)


def build_parser(command: str | None = None) -> _Parser:
    """The parser of every command or, when ``command`` names one, of that
    command alone: it parses the same, and the others take time to build."""
    parser = _Parser(prog="qfpsim", description=__doc__)
    names = ("margin", "simulate", "compile", "project", "verify")
    one = command in names
    # with one command built, the usage of an unrecognized argument still names them all
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(names) + "}" if one else None)

    def add(name, help_line, run, builtin=True):
        """The subparser of ``name`` with the options every command takes, or
        None when only another command is built."""
        if one and name != command:
            return None
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(func=run)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if builtin:
            source = p.add_mutually_exclusive_group()
            source.add_argument("--matrix", default=None, help="sign_matrix document")
            source.add_argument("--builtin", choices=_BUILTIN_PARAMS, default=None)
            p.add_argument("--n", type=int, default=None)
            p.add_argument("--k", type=int, default=None)
            p.add_argument("--d", type=int, default=None)
        return p

    if p := add("margin", "margin bounds for a sign matrix", cmd_margin):
        p.add_argument("--heuristic", action="store_true",
                       help="also search for a max-margin witness")
    if p := add("simulate", "exact error law of a fingerprinting protocol", cmd_simulate):
        p.add_argument("--embedding", default=None, help="embedding document")
        p.add_argument("--eps", type=float, default=1.0 / 3.0)
        p.add_argument("--trials", type=int, default=200,
                       help="echoed as 'trials' for compatibility; must be >= 1, and the "
                            "exact law does not depend on it")
    if p := add("compile", "compile a classical protocol into fingerprint states", cmd_compile):
        p.add_argument("--protocol", default=None, help="protocol document")
        p.add_argument("--model", choices=("smp", "one-way"), default=None)
        p.add_argument("--num-r", type=int, default=None,
                       help="sample this many shared random strings instead of enumerating")
    if p := add("project", "random-project a vector list and report distortion", cmd_project,
                builtin=False):
        p.add_argument("--vectors", required=True, help="vectors document")
        p.add_argument("--dim", type=int, required=True)
        p.add_argument("--eps", type=float, default=0.2)
    if p := add("verify", "verify an embedding or realization against a matrix", cmd_verify):
        checked = p.add_mutually_exclusive_group(required=True)
        checked.add_argument("--embedding", default=None)
        checked.add_argument("--realization", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if args.seed < 0:  # numpy's generators refuse it, and provenance would record it
            raise io.DocumentError("--seed must be >= 0")
        return args.func(args, argv)
    except io.DocumentError as exc:
        print(f"qfpsim: input error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"qfpsim: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """The console script: ``main``, then flush stdout and stderr and end by
    ``os._exit``, skipping teardown (GC, module finalization and atexit handlers,
    of which qfpsim and numpy register none): ``io.dump`` and ``io.load`` have
    closed their files.  What escapes ``main`` (SystemExit, a traceback) exits normally.
    A failed flush exits 1, reported unless ``main`` has reported a write error."""
    status = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        status = status or _unwritable(exc)
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    entry()
