"""Command line interface.

Subcommands: gen, solve, oracle, spectrum, diagnose, kv-spectrum.  Reports
are single JSON objects on stdout with an embedded run manifest; logs go to
stderr.  Exit codes: 0 success, 1 usage/contract error, 2 a valid input
the solve gave up on (``AbortError``: a budget, dimension cap or numeric
failure; or running out of memory).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time

import numpy as np

from . import core, generators, linalg, maxlin, oracle, recover
from .core import (
    AbortError,
    UGError,
    UGInstance,
    load_instance,
    save_instance,
    serialize_instance,
    value,
)
from .label_extended import build_label_extended, build_laplacian
from .linalg import dense_symmetric
from .recover import SolveParams


def _git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
        )
        return out.stdout.strip() if out.returncode == 0 else ""
    except Exception:
        return ""


def _file_hash(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def make_manifest(input_path=None, t0=None):
    return {
        "command_line": sys.argv[1:] if sys.argv[0] else list(sys.argv),
        "input_hash": _file_hash(input_path) if input_path else None,
        "seed": None,  # solve, oracle and diagnose draw no random numbers
        "numeric_config": {  # the tolerances and budgets fixed by the code
            "residual_tol": linalg.RESIDUAL_TOL,
            "regularity_rel_tol": core.REGULARITY_REL_TOL,
            "net_cap": recover.NET_CAP,
            "brute_budget": oracle.BRUTE_BUDGET,
        },
        "git_describe": _git_describe(),
        "wall_clock_s": time.perf_counter() - t0 if t0 is not None else None,
    }


def _emit(report: dict):
    json.dump(report, sys.stdout, indent=2, allow_nan=False)
    sys.stdout.write("\n")


def _parse_labels(text):
    try:
        return np.array([int(x) for x in text.replace(",", " ").split()], dtype=np.int64)
    except ValueError as exc:
        raise UGError(f"bad labeling: {exc}") from None


def cmd_gen(args, t0):
    if args.kind == "kv":
        inst = generators.kv_instance(generators.KVSpec(args.kappa, args.eps))
    elif args.kind == "regular":
        edges, lam2 = generators.random_regular_graph(args.n, args.d, seed=args.seed)
        ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
        inst = UGInstance.from_arrays(
            args.n, 1, ends[:, 0], ends[:, 1], np.ones(len(ends)), np.zeros((len(ends), 1))
        )
        print(f"second adjacency eigenvalue: {lam2:.6f}", file=sys.stderr)
    else:  # planted
        inst, planted, lam2 = generators.planted_regular_instance(
            args.n, args.d, args.k, seed=args.seed, constraint_family=args.family
        )
        print(f"second adjacency eigenvalue: {lam2:.6f}", file=sys.stderr)
        inst = generators.perturb(
            inst, planted, args.perturb, seed=args.seed + 17, constraint_family=args.family
        )
        if args.planted_out:
            with open(args.planted_out, "w", encoding="utf-8") as fh:
                fh.write(",".join(str(int(x)) for x in planted) + "\n")
    if args.out:
        save_instance(inst, args.out)
    else:
        sys.stdout.write(serialize_instance(inst))
    return 0


def _params(args, **kwargs):
    """The solve record of the command line: Max-Lin's with --maxlin."""
    cls = maxlin.MaxLinParams if args.maxlin else SolveParams
    return cls(args.epsilon, args.gamma, mode=args.mode, **kwargs)


def cmd_solve(args, t0):
    params = _params(args, theta=args.theta, max_dim=args.max_dim,
                     net_step_override=args.net_step)
    t = time.perf_counter()
    inst = load_instance(args.file)
    if args.maxlin:
        inst = maxlin.MaxLinInstance.from_instance(inst)
    ingest = time.perf_counter() - t
    solve = maxlin.solve_maxlin if args.maxlin else recover.recover_solution
    out = solve(inst, params).to_dict()
    out["stages"] = {"ingest": ingest, **out["stages"]}
    out["manifest"] = make_manifest(input_path=args.file, t0=t0)
    _emit(out)
    return 0


def cmd_oracle(args, t0):
    inst = load_instance(args.file)
    res = oracle.brute_force(inst, budget=args.budget)
    out = res.to_dict()
    out["manifest"] = make_manifest(input_path=args.file, t0=t0)
    _emit(out)
    return 0


def cmd_spectrum(args, t0):
    inst = load_instance(args.file)
    lem = build_laplacian(inst) if args.laplacian else build_label_extended(inst)
    # Eigenvalues only, descending: eigvalsh skips the eigenvectors' cost.
    vals = np.linalg.eigvalsh(dense_symmetric(lem.matrix))[::-1]
    for i, lam in enumerate(vals):
        sys.stdout.write(f"{i} {format(lam, '.17g')}\n")
    return 0


def cmd_diagnose(args, t0):
    params = _params(args)
    params.validate()
    inst = load_instance(args.file)
    if args.maxlin:
        if not args.completion:
            raise UGError("--maxlin diagnosis needs --completion <file>")
        ml = maxlin.MaxLinInstance.from_instance(inst)
        comp = maxlin.MaxLinInstance.from_instance(load_instance(args.completion))
        rep = maxlin.sin_theta_report(ml, comp, None, params.gamma)
        out = rep.to_dict()
    else:
        if args.planted_file:
            planted = _parse_labels(core.read_text(args.planted_file))
        elif args.planted:
            planted = _parse_labels(args.planted)
        else:
            raise UGError("diagnose needs --planted or --planted-file")
        alpha, beta = recover.closeness_diagnostic(inst, planted, params)
        out = {
            "alpha": alpha,
            "beta": beta,
            "beta_bound": float(np.sqrt(2 * args.epsilon / args.gamma)),
            "planted_value": value(inst, planted),
        }
    out["manifest"] = make_manifest(input_path=args.file, t0=t0)
    _emit(out)
    return 0


def cmd_kv_spectrum(args, t0):
    if args.n < 2 or args.n & (args.n - 1):
        raise UGError(f"--n must be a power of two >= 2, got {args.n}")
    spec = generators.KVSpec(args.n.bit_length() - 1, args.eps)
    for lam, mult in generators.kv_spectrum(spec):
        sys.stdout.write(f"{format(lam, '.17g')} {mult}\n")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="ugspectral")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate instances")
    gs = g.add_subparsers(dest="kind", required=True)
    gp = gs.add_parser("planted")
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--d", type=int, required=True)
    gp.add_argument("--k", type=int, required=True)
    gp.add_argument("--family", choices=["general-permutation", "maxlin"],
                    default="general-permutation")
    gp.add_argument("--perturb", type=float, default=0.0)
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--out")
    gp.add_argument("--planted-out")
    gk = gs.add_parser("kv")
    gk.add_argument("--kappa", type=int, required=True)
    gk.add_argument("--eps", type=float, required=True)
    gk.add_argument("--out")
    gr = gs.add_parser("regular")
    gr.add_argument("--n", type=int, required=True)
    gr.add_argument("--d", type=int, required=True)
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("--out")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="run the spectral solver")
    s.add_argument("file")
    s.add_argument("--epsilon", type=float, required=True)
    s.add_argument("--gamma", type=float, required=True)
    s.add_argument("--mode", choices=["adjacency", "laplacian"], default="adjacency")
    s.add_argument("--max-dim", type=int, default=8)
    s.add_argument("--net-step", type=float, default=None)
    s.add_argument("--maxlin", action="store_true")
    s.add_argument("--theta", type=float, default=None,
                   help="search window, 0 < theta <= gamma: W is cut at (1-theta)d "
                        "(theta*d in laplacian mode); default gamma, or the Max-Lin "
                        "default with --maxlin")
    s.set_defaults(func=cmd_solve)

    o = sub.add_parser("oracle", help="exact brute-force optimum")
    o.add_argument("file")
    o.add_argument("--budget", type=int, default=None)
    o.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("spectrum", help="dump the label-extended spectrum")
    sp.add_argument("file")
    sp.add_argument("--laplacian", action="store_true")
    sp.set_defaults(func=cmd_spectrum)

    d = sub.add_parser("diagnose", help="closeness / perturbation diagnostics")
    d.add_argument("file")
    d.add_argument("--epsilon", type=float, default=0.01)
    d.add_argument("--gamma", type=float, default=0.5)
    d.add_argument("--mode", choices=["adjacency", "laplacian"], default="adjacency")
    d.add_argument("--planted")
    d.add_argument("--planted-file")
    d.add_argument("--maxlin", action="store_true")
    d.add_argument("--completion")
    d.set_defaults(func=cmd_diagnose)

    kv = sub.add_parser("kv-spectrum", help="closed-form KV spectrum table")
    kv.add_argument("--n", type=int, required=True)
    kv.add_argument("--eps", type=float, required=True)
    kv.set_defaults(func=cmd_kv_spectrum)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        return args.func(args, t0)
    except AbortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a valid input too large to solve here
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except UGError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
