"""Command-line front end.

Every subcommand reads JSON matrix files, runs one analysis, and emits a
report either as text or, with --json, as deterministic JSON (sorted
keys).  Exit codes: 0 for success or an affirmative decision, 1 for a
well-posed negative decision (the report carries the witness), 2 for
malformed input, an unwritable output path or a violated precondition,
3 for a failed internal certificate (a bug, never a "no").  Exits 2 and
3 print the same {command, error} diagnostic.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .factor import causal_factor, constant_matrix, static_factor
from .feedback import (PreconditionError, StateSpace, from_state_space,
                       vg_representation, worst_case_precompensator)
from .latency import (KernelNotFinitelyGenerated, compensation_equivalence,
                      latency_kernel)
from .matrixio import (InputFormatError, OutputPathError, check_output_dir,
                       check_output_file, constant_matrix_to_json,
                       dump_matrix, dump_matrix_json, entry_to_json,
                       json_text, load_constant_matrix, load_matrix,
                       make_output_dir, matrix_json_str, matrix_to_json)
from .rational import ORD_INF
from .simulate import DEFAULT_HORIZON, check_horizon, simulate_response
from .transfer import InternalCheckError, SingularMatrixError


def _fmt_order(o):
    return "inf" if o == ORD_INF else o


def _const_json(a):
    return constant_matrix_to_json(a)["entries"]


def _terms_json(coeff, indices):
    return [{"index": t, "coeff": _const_json(coeff(t))} for t in indices]


def cmd_classify(args):
    f = load_matrix(args.matrix)
    report = f.classify().as_dict()
    return {"command": "classify", "input": args.matrix, "report": report}, 0


def cmd_latency(args):
    f = load_matrix(args.matrix)
    k = latency_kernel(f)
    chain = {
        "k_lower": k.chain.k_lower,
        "k_upper": k.chain.k_upper,
        "mu": {str(j): k.chain.mu[j] for j in sorted(k.chain.mu)},
        "subspaces": {str(j): _const_json(k.chain.subspaces[j])
                      for j in sorted(k.chain.subspaces)},
    }
    report = {
        "generator": matrix_to_json(k.generator),
        "poly_generator": (matrix_to_json(k.poly_generator)
                           if k.poly_generator is not None else None),
        "orders": list(k.orders),
        "latency_indices": list(k.indices),
        "order_chain": chain,
        "strictly_causal_input": k.strictly_causal_input,
    }
    return {"command": "latency", "input": args.matrix, "report": report}, 0


def cmd_factor(args):
    f = load_matrix(args.f)
    h = load_matrix(args.h)
    if args.static:
        outcome = static_factor(f, h)
        if outcome.decision:
            return {"command": "factor", "mode": "static", "decision": "yes",
                    "gain": _const_json(constant_matrix(outcome.g))}, 0
        row, terms = outcome.witness
        y = [{"column": j, "index": t, "coeff": str(c)}
             for j, t, c in terms]
        return {"command": "factor", "mode": "static", "decision": "no",
                "witness": {"row": row, "y": y}}, 1
    outcome = causal_factor(f, h)
    if outcome.decision:
        return {"command": "factor", "mode": "causal", "decision": "yes",
                "factor": matrix_to_json(outcome.g)}, 0
    return {"command": "factor", "mode": "causal", "decision": "no",
            "witness": [entry_to_json(e) for e in outcome.witness]}, 1


def cmd_equiv(args):
    f1 = load_matrix(args.f1)
    f2 = load_matrix(args.f2)
    mode = args.mode.replace("-", "_")
    res = compensation_equivalence(f1, f2, mode)
    report = {"command": "equiv", "mode": args.mode,
              "equivalent": res.equivalent}
    if res.equivalent:
        if res.post is not None:
            report["post"] = matrix_to_json(res.post)
        if res.pre is not None:
            report["pre"] = matrix_to_json(res.pre)
        return report, 0
    report["detail"] = res.detail
    if mode == "two_sided":
        report["witness"] = {"indices_first": list(res.witness[0]),
                             "indices_second": list(res.witness[1])}
    else:
        report["witness"] = [entry_to_json(e) for e in res.witness]
    return report, 1


def cmd_realize(args):
    check_output_dir(args.out_dir, ("v.json", "g.json"))
    f = load_matrix(args.f)
    l = load_matrix(args.l)
    rep = vg_representation(f, l)
    make_output_dir(args.out_dir)
    v_path = os.path.join(args.out_dir, "v.json")
    g_path = os.path.join(args.out_dir, "g.json")
    v_json, g_json = matrix_to_json(rep.v), matrix_to_json(rep.g)
    dump_matrix_json(v_json, v_path)
    dump_matrix_json(g_json, g_path)
    report = {
        "command": "realize",
        "sigma": list(rep.sigma),
        "nu": list(rep.nu),
        "v": v_json,
        "g": g_json,
        "files": {"v": v_path, "g": g_path},
    }
    return report, 0


def cmd_worstcase(args):
    if args.out:
        check_output_file(args.out)
    f = load_matrix(args.matrix)
    l = worst_case_precompensator(f)
    if args.out:
        dump_matrix(l, args.out)
    report = {"command": "worstcase", "precompensator": matrix_to_json(l)}
    if args.out:
        report["file"] = args.out
    return report, 0


def cmd_expand(args):
    check_horizon(args.terms, "--terms")
    f = load_matrix(args.matrix)
    order = f.order()
    start = 0 if order == ORD_INF else order
    report = {
        "command": "expand",
        "map_order": _fmt_order(order),
        # Per index: perfbench's peak_rss_mb rises with series throughput.
        "terms": _terms_json(f.markov, range(start, start + args.terms)),
    }
    return report, 0


def cmd_statespace(args):
    if args.out:
        check_output_file(args.out)
    a = load_constant_matrix(args.a)
    b = load_constant_matrix(args.b)
    c = load_constant_matrix(args.c) if args.c else None
    f = from_state_space(StateSpace(a, b, c))
    if args.out:
        dump_matrix(f, args.out)
    report = {"command": "statespace", "transfer": matrix_to_json(f)}
    if args.out:
        report["file"] = args.out
    return report, 0


def cmd_simulate(args):
    horizon = check_horizon(args.horizon, "--horizon")
    f = load_matrix(args.f)
    u_mat = load_matrix(args.u)
    if u_mat.cols != 1:
        raise InputFormatError("input file must be a column vector")
    u = [u_mat.entry(i, 0) for i in range(u_mat.rows)]
    series = simulate_response(f, u, horizon)
    report = {
        "command": "simulate",
        "horizon": horizon,
        "output": _terms_json(series.coeff,
                              range(series.start, series.horizon + 1)),
    }
    return report, 0


def _render_text(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        if set(obj) == {"rows", "cols", "entries"} and isinstance(
                obj.get("entries"), list) and obj["entries"] and isinstance(
                obj["entries"][0], list) and obj["entries"][0] and isinstance(
                obj["entries"][0][0], dict):
            lines.append(pad + matrix_json_str(obj))
            return lines
        for key in obj:
            val = obj[key]
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {val}")
        return lines
    if isinstance(obj, list):
        if all(not isinstance(x, (dict, list)) for x in obj):
            lines.append(pad + "[" + ", ".join(str(x) for x in obj) + "]")
            return lines
        for x in obj:
            lines.extend(_render_text(x, indent))
        return lines
    lines.append(pad + str(obj))
    return lines


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it as
    it was, so every call of main can share it."""
    parser = argparse.ArgumentParser(
        prog="latkern",
        description="Exact causal factorization, latency kernels and "
                    "feedback realization for rational transfer matrices.")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("classify", help="causality classification of a map")
    p.add_argument("matrix")
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("latency", help="latency kernel, indices, order chain")
    p.add_argument("matrix")
    p.set_defaults(run=cmd_latency)

    p = sub.add_parser("factor", help="causal (or static) factorization H = G*F")
    p.add_argument("f")
    p.add_argument("h")
    p.add_argument("--static", action="store_true",
                   help="look for a constant factor instead")
    p.set_defaults(run=cmd_factor)

    p = sub.add_parser("equiv", help="bicausal compensation equivalence")
    p.add_argument("f1")
    p.add_argument("f2")
    p.add_argument("--mode", required=True,
                   choices=["post", "pre", "two-sided", "two_sided"])
    p.set_defaults(run=cmd_equiv)

    p = sub.add_parser("realize",
                       help="feedback realization of a precompensator")
    p.add_argument("f")
    p.add_argument("l")
    p.add_argument("--out-dir", default=".",
                   help="directory for v.json and g.json (default .)")
    p.set_defaults(run=cmd_realize)

    p = sub.add_parser("worstcase",
                       help="precompensator needing the full latency budget")
    p.add_argument("matrix")
    p.add_argument("--out", help="also write the result to this file")
    p.set_defaults(run=cmd_worstcase)

    p = sub.add_parser("expand", help="truncated expansion of a map")
    p.add_argument("matrix")
    p.add_argument("--terms", type=int, required=True)
    p.set_defaults(run=cmd_expand)

    p = sub.add_parser("statespace",
                       help="transfer matrix C(zI-A)^-1 B from constant data")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c", nargs="?", default=None)
    p.add_argument("--out", help="also write the result to this file")
    p.set_defaults(run=cmd_statespace)

    p = sub.add_parser("simulate",
                       help="convolution response to a rational input")
    p.add_argument("f")
    p.add_argument("u")
    p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON,
                   help=f"last series index (default {DEFAULT_HORIZON})")
    p.set_defaults(run=cmd_simulate)
    return parser


def _fail(args, exc, code: int) -> int:
    if args.json:
        print(json_text({"command": args.subcommand, "error": str(exc)}))
    else:
        print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = args.run(args)
    except (InputFormatError, OutputPathError, PreconditionError,
            KernelNotFinitelyGenerated, SingularMatrixError,
            ValueError) as exc:
        return _fail(args, exc, 2)
    except InternalCheckError as exc:
        return _fail(args, exc, 3)
    report["exit_status"] = code
    if args.json:
        print(json_text(report))
    else:
        print("\n".join(_render_text(report)))
    return code


if __name__ == "__main__":
    sys.exit(main())
