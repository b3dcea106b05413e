"""Command line: build algebras, run checks, emit deterministic reports.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage or
schema error, 3 an internal consistency theorem was violated.  Reports are
bit-deterministic for identical inputs; --seed only reroutes the randomized
splitting heuristics and never changes results.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .catalog import CATALOG_NAMES, build_algebra
from .corep import conjugate, fusion, peter_weyl
from .errors import (
    CapExceeded,
    FieldOrderMismatch,
    HopfcheckError,
    SchemaError,
    TheoremViolation,
)
from .hopf import _invariance, _pair, check_axioms, compute_haar, ensure_verified
from .linalg import Subspace, basis_vec, sparse_vector, zero_vec
from .serialize import (
    dump_json,
    load_action,
    load_algebra,
    load_group,
    load_ideal,
    save_algebra,
)
from .structure import (
    enumerate_quantum_subgroups,
    property_F_check,
    property_FD_check,
    property_inheritance_suite,
    pullback_check,
    subgroup_lattice,
    third_isomorphism_check,
)
from .subgroup import (
    exact_sequence_check,
    is_normal_coset,
    make_subgroup,
    normality_report,
    phi_map,
    reconstruction_check,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_THEOREM = 3


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


@functools.cache
def _build_parser():  # built on first use, then kept for the process
    # no abbreviated options: main and _echo_command find --json and --seed
    # in argv by their full names
    parser = argparse.ArgumentParser(
        prog="hopfcheck",
        description="exact checks for finite quantum groups given by structure constants",
        allow_abbrev=False,
    )
    parser.add_argument("--json", metavar="PATH", help="write the full report as JSON")
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="gauge for randomized splitting heuristics; results never depend on it",
    )
    # accept the global flags after the subcommand too, without clobbering
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--json", metavar="PATH", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    subs = parser.add_subparsers(dest="cmd", required=True)

    def sp(name, help_text, with_file=True):
        p = subs.add_parser(name, help=help_text, parents=[common], allow_abbrev=False)
        if with_file:
            p.add_argument("file", help="algebra file (.hopf.json)")
        return p

    sp("axioms", "run the Hopf *-algebra axiom report")
    sp("haar", "compute the Haar state exactly")
    sp("irreps", "irreducible corepresentations and fusion")
    sp("subgroups", "enumerate Hopf subalgebras and quantum subgroups")

    p = sp("normal", "full normality report for one quantum subgroup")
    p.add_argument("--ideal", required=True, help="Hopf *-ideal file")

    p = sp("quotient", "build the quotient algebra of an ideal")
    p.add_argument("--ideal", required=True)
    p.add_argument("--out", required=True)

    p = sp("reconstruct", "reconstruction and exactness checks")
    p.add_argument("--ideal", required=True)

    p = sp("third-iso", "third isomorphism theorem on a chain")
    p.add_argument("--n", required=True, help="ideal of the normal subgroup N")
    p.add_argument("--h", required=True, help="ideal of the containing subgroup H")

    sp("props", "properties F and FD with inheritance suite")

    p = sp("build", "construct an algebra and save it", with_file=False)
    p.add_argument(
        "kind", choices=["group-algebra", "function-algebra", "tensor", "crossed"]
    )
    p.add_argument("--group", help="group file for group/function algebras")
    p.add_argument("--left", help="left factor for tensor")
    p.add_argument("--right", help="right factor for tensor")
    p.add_argument("--inner", help="inner algebra for crossed")
    p.add_argument("--action", help="action file for crossed")
    p.add_argument("--out", required=True)

    p = sp("demo", "reproduce a named result", with_file=False)
    p.add_argument("name", choices=["s3-pullback", "equivalence-suite"])
    return parser


def _pw_with_seed(H, seed):
    """Peter-Weyl data; a nonzero seed reruns splitting and must agree."""
    P0 = peter_weyl(H)
    if seed:
        P1 = peter_weyl(H, gauge=seed)
        if P1.dims != P0.dims or P1.blocks() != P0.blocks():
            raise TheoremViolation("seeded splitting changed the result")
    return P0


def _cmd_axioms(args):
    H = load_algebra(args.file)
    rep = check_axioms(H)
    results = {"ok": rep.ok, "checks": {c.name: c.ok for c in rep.checks}}
    return (EXIT_OK if rep.ok else EXIT_FAIL), results


def _cmd_haar(args):
    H = load_algebra(args.file)
    h = compute_haar(H)
    left_ok, right_ok = _invariance(H, h)
    unit_val = _pair(sparse_vector(H.unit), h, H.field.zero)
    ok = left_ok and right_ok and unit_val == H.field.scalar(1)
    results = {
        "haar": [repr(x) for x in h],
        "unit_value": repr(unit_val),
        "left_invariant": left_ok,
        "right_invariant": right_ok,
    }
    return (EXIT_OK if ok else EXIT_FAIL), results


def _cmd_irreps(args):
    H = load_algebra(args.file)
    ensure_verified(H)
    P = _pw_with_seed(H, args.seed)
    N = fusion(P)
    results = {
        "dims": P.dims,
        "triv_index": P.triv_index,
        "conjugates": [conjugate(P, i, N) for i in range(len(P.coreps))],
        "fusion": N,
        "dimension_check": sum(x * x for x in P.dims) == H.dim,
    }
    return (EXIT_OK if results["dimension_check"] else EXIT_FAIL), results


def _cmd_subgroups(args):
    H = load_algebra(args.file)
    lat = subgroup_lattice(H)
    _pw_with_seed(H, args.seed)
    return EXIT_OK, lat.as_dict()


def _cmd_normal(args):
    H = load_algebra(args.file)
    I = load_ideal(args.ideal, H)
    Q = make_subgroup(H, I)
    rep = normality_report(Q, _pw_with_seed(H, args.seed))
    results = rep.as_dict()
    results["quotient_dim"] = Q.quotient.dim
    results["ideal_dim"] = Q.ideal.dim
    return (EXIT_OK if rep.normal else EXIT_FAIL), results


def _cmd_quotient(args):
    H = load_algebra(args.file)
    I = load_ideal(args.ideal, H)
    Q = make_subgroup(H, I)
    save_algebra(Q.quotient, args.out)
    results = {
        "out": args.out,
        "quotient_dim": Q.quotient.dim,
        "ideal_dim": Q.ideal.dim,
    }
    return EXIT_OK, results


def _cmd_reconstruct(args):
    H = load_algebra(args.file)
    I = load_ideal(args.ideal, H)
    Q = make_subgroup(H, I)
    normal = is_normal_coset(Q)
    rec = reconstruction_check(Q)
    seq = exact_sequence_check(Q)
    phi_ok = True
    try:
        phi_map(Q)
    except TheoremViolation:
        phi_ok = False
    results = {
        "normal": normal,
        "reconstruction": rec,
        "exact_sequence": seq,
        "phi_identities": phi_ok,
    }
    ok = rec and phi_ok and (seq or not normal)
    return (EXIT_OK if ok else EXIT_FAIL), results


def _cmd_third_iso(args):
    G = load_algebra(args.file)
    QN = make_subgroup(G, load_ideal(args.n, G))
    QH = make_subgroup(G, load_ideal(args.h, G))
    report = third_isomorphism_check(G, QN, QH)
    return EXIT_OK, report


def _cmd_props(args):
    H = load_algebra(args.file)
    fd_ok, fd_wit = property_FD_check(H)
    _pw_with_seed(H, args.seed)
    f_ok, f_wit = property_F_check(H)
    suite = property_inheritance_suite(H)
    results = {
        "property_F": f_ok,
        "F_witness_dim": None if f_wit is None else f_wit.dim,
        "property_FD": fd_ok,
        "FD_witness_quotient_dim": None if fd_wit is None else fd_wit.quotient.dim,
        "inheritance": suite,
    }
    return EXIT_OK, results


def _cmd_build(args):
    from .constructions import crossed_product, function_algebra, group_algebra, tensor_product

    if args.kind in ("group-algebra", "function-algebra"):
        if not args.group:
            raise SchemaError("build %s requires --group" % args.kind)
        G = load_group(args.group)
        H = group_algebra(G) if args.kind == "group-algebra" else function_algebra(G)
    elif args.kind == "tensor":
        if not (args.left and args.right):
            raise SchemaError("build tensor requires --left and --right")
        H = tensor_product(load_algebra(args.left), load_algebra(args.right))
    else:
        if not (args.inner and args.action):
            raise SchemaError("build crossed requires --inner and --action")
        inner = load_algebra(args.inner)
        H = crossed_product(inner, load_action(args.action, inner))
    save_algebra(H, args.out)
    return EXIT_OK, {"out": args.out, "dim": H.dim, "field_order": H.field.n}


def _demo_s3_pullback():
    CS3 = build_algebra("c_s3")
    field = CS3.field
    labels = list(CS3.labels)
    idx = {lab: i for i, lab in enumerate(labels)}
    omega = field.zeta() * field.zeta()
    third = field.from_rational(Fraction(1, 3))
    e_omega = zero_vec(field, CS3.dim)
    e_omega[idx["e"]] = third
    e_omega[idx["(123)"]] = third * omega * omega
    e_omega[idx["(132)"]] = third * omega
    A0 = Subspace.from_vectors(
        field,
        CS3.dim,
        [basis_vec(field, CS3.dim, idx[l]) for l in ("e", "(123)", "(132)")],
    )
    I0 = Subspace.from_vectors(field, CS3.dim, [e_omega])
    holds, inter = pullback_check(CS3, A0, I0, "plain-ideal")
    reproduced = (not holds) and I0.dim == 1 and inter.dim == 2 and I0 <= inter
    results = {
        "expected_failure": True,
        "pullback_holds": holds,
        "dim_I0": I0.dim,
        "dim_intersection": inter.dim,
        "counterexample_reproduced": reproduced,
    }
    return (EXIT_OK if reproduced else EXIT_FAIL), results


def _demo_equivalence_suite():
    per = {}
    total = 0
    disagreements = 0
    for name in CATALOG_NAMES:
        H = build_algebra(name)
        entries = []
        for Q in enumerate_quantum_subgroups(H):
            rep = normality_report(Q)
            entries.append(
                {
                    "quotient_dim": Q.quotient.dim,
                    "normal": rep.normal,
                    "agree": rep.agree,
                }
            )
            total += 1
            disagreements += 0 if rep.agree else 1
        per[name] = entries
    results = {
        "algebras": per,
        "total_subgroups": total,
        "disagreements": disagreements,
    }
    return (EXIT_OK if disagreements == 0 else EXIT_FAIL), results


def _cmd_demo(args):
    if args.name == "s3-pullback":
        return _demo_s3_pullback()
    return _demo_equivalence_suite()


_HANDLERS = {
    "axioms": _cmd_axioms,
    "haar": _cmd_haar,
    "irreps": _cmd_irreps,
    "subgroups": _cmd_subgroups,
    "normal": _cmd_normal,
    "quotient": _cmd_quotient,
    "reconstruct": _cmd_reconstruct,
    "third-iso": _cmd_third_iso,
    "props": _cmd_props,
    "build": _cmd_build,
    "demo": _cmd_demo,
}


def _echo_command(argv) -> list:
    """The command with report-destination and seed flags removed.

    Reports must be bit-identical for identical mathematical inputs, so the
    echo omits anything that cannot change the results.
    """
    out = []
    skip = False
    for tok in argv:
        if skip:
            skip = False
            continue
        if tok in ("--json", "--seed"):
            skip = True
            continue
        if tok.startswith("--json=") or tok.startswith("--seed="):
            continue
        out.append(tok)
    return out


def _input_hashes(args) -> dict:
    paths = []
    for attr in ("file", "ideal", "n", "h", "group", "left", "right", "inner", "action"):
        value = getattr(args, attr, None)
        if value and os.path.isfile(value):
            paths.append(value)
    return {p: _sha256(p) for p in sorted(set(paths))}


def cli_dispatch(argv) -> tuple:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        code = EXIT_OK if code == 0 else EXIT_USAGE
        return code, {
            "command": _echo_command(argv),
            "results": {"error": "usage"},
            "version": __version__,
            "exit_code": code,
        }
    report = {
        "command": _echo_command(argv),
        "inputs": _input_hashes(args),
        "version": __version__,
    }
    try:
        code, results = _HANDLERS[args.cmd](args)
    except (SchemaError, FieldOrderMismatch, CapExceeded, OSError, json.JSONDecodeError) as exc:
        code, results = EXIT_USAGE, {"error": type(exc).__name__, "detail": str(exc)}
    except TheoremViolation as exc:
        code, results = EXIT_THEOREM, {"error": "TheoremViolation", "detail": str(exc)}
    except HopfcheckError as exc:
        code, results = EXIT_FAIL, {"error": type(exc).__name__, "detail": str(exc)}
    report["results"] = results
    report["exit_code"] = code
    return code, report


def _render(report, stream):
    results = report.get("results", {})
    stream.write("hopfcheck %s: %s\n" % (report.get("version", ""), " ".join(report.get("command", []))))
    for key in sorted(results):
        value = results[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        stream.write("  %s: %s\n" % (key, value))
    stream.write("exit_code: %d\n" % report.get("exit_code", 0))


def _json_path(argv):
    """The report destination given as --json PATH or --json=PATH, or None."""
    for i, tok in enumerate(argv):
        if tok == "--json":
            return argv[i + 1] if i + 1 < len(argv) else None
        if tok.startswith("--json="):
            return tok[len("--json="):]
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    code, report = cli_dispatch(argv)
    json_path = _json_path(argv)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(dump_json(report))
    _render(report, sys.stdout)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
