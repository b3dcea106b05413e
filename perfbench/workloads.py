"""The four workloads: seeded operation lists with known answers.

A workload is a list of chains.  Each chain starts from freshly loaded
inputs, so no cache carries over from one chain to the next; within a
chain, later operations take the results of earlier ones as explicit
arguments (the `PeterWeylData` for `fusion`, the enumerated subgroups for
their normality flags), exactly as a caller of the API would.  Every
operation is timed on its own and checked against an answer from
`oracle`, never against hopfcheck output.

Requires `hopfcheck` on the import path; `build()` is the set-up step.
Operations look functions up on their modules at call time, so that the
tracer's wrappers, installed after set-up, see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import inputs
import oracle

WORKLOADS = ("catalog-cli", "beyond-catalog", "lattice-wide", "reject-mix")

CATALOG = (
    "f_z2", "f_z3", "f_z6", "f_s3", "f_d4", "c_z3", "c_s3", "f_z2_x_f_z3", "f_z3_rtimes_z2",
)
IDEALS = (
    ("f_s3", "s3", "f_s3.a3"),
    ("f_s3", "s3", "f_s3.t12"),
    ("f_s3", "s3", "f_s3.triv"),
    ("f_d4", "d4", "f_d4.center"),
    ("f_d4", "d4", "f_d4.z4"),
)


@dataclass
class Op:
    """One timed call.  `check` returns None when the verdict is the known one."""

    name: str
    run: Callable[[dict], object]
    check: Callable[[object], Optional[str]]


def _imports(sympy):
    """The lazily imported numeric dependencies a workload reaches."""
    import mpmath  # noqa: F401
    import numpy  # noqa: F401

    if sympy:
        from sympy.polys.matrices import DomainMatrix  # noqa: F401
    from hopfcheck import cli

    return cli


def _expect(cond, msg):
    return None if cond else msg


# -- catalog-cli ---------------------------------------------------------------


def _cli_op(cli, argv, check):
    def run(_ctx):
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.cli_dispatch(argv)

    return Op(argv[0] + " " + os.path.basename(argv[1]) if len(argv) > 1 else argv[0], run, check)


def _catalog_checks(answers, name, cmd):
    n_irreps, n_subs, n_normal = answers[name]

    def check(out):
        code, rep = out
        res = rep["results"]
        if code != 0:
            return "exit %d: %s" % (code, res.get("error"))
        if cmd == "axioms":
            return _expect(res["ok"] is True, "axioms not ok")
        if cmd == "haar":
            return _expect(res["left_invariant"] and res["right_invariant"], "Haar not invariant")
        if cmd == "irreps":
            conj = res["conjugates"]
            return _expect(
                len(res["dims"]) == n_irreps
                and res["dimension_check"] is True
                and all(conj[conj[i]] == i for i in range(len(conj))),
                "irreps %r, want %d" % (res["dims"], n_irreps),
            )
        if cmd == "subgroups":
            got = (len(res["subgroup_dims"]), sum(res["normal_flags"]))
            return _expect(got == (n_subs, n_normal), "subgroups %r, want %r" % (got, (n_subs, n_normal)))
        inh = res["inheritance"]
        got = (inh["n_quantum_subgroups"], inh["n_normal"], res["property_FD"])
        want = (n_subs, n_normal, n_subs == n_normal)
        return _expect(got == want, "props %r, want %r" % (got, want))

    return check


def _ideal_checks(T, labels, cmd):
    K = [T.labels.index(lbl) for lbl in labels]
    normal = oracle.is_normal(T, K)

    def check(out):
        code, rep = out
        res = rep["results"]
        if cmd == "normal":
            ok = (
                code == (0 if normal else 1)
                and res.get("normal") is normal
                and res.get("agree") is True
                and res.get("quotient_dim") == len(K)
            )
            return _expect(ok, "normal: exit %d %r, want normal=%s" % (code, res.get("normal"), normal))
        if code != 0:
            return "exit %d: %s" % (code, res.get("error"))
        if cmd == "quotient":
            return _expect(
                (res["quotient_dim"], res["ideal_dim"]) == (len(K), T.order - len(K)),
                "quotient dims %r" % res,
            )
        return _expect(
            res["normal"] is normal and res["reconstruction"] and res["phi_identities"]
            and (res["exact_sequence"] or not normal),
            "reconstruct %r" % res,
        )

    return check


def _catalog_cli(cli, rng, root, work):
    cat = os.path.join(root, "catalog")
    answers = oracle.catalog_answers(cat)
    ops = []
    for cmd in ("axioms", "haar", "irreps", "subgroups", "props"):
        for name in CATALOG:
            path = os.path.join(cat, name + ".hopf.json")
            ops.append(_cli_op(cli, [cmd, path], _catalog_checks(answers, name, cmd)))
    for k, (alg, grp, ideal) in enumerate(IDEALS):
        T = oracle.catalog_group(cat, grp)
        with open(os.path.join(cat, ideal + ".ideal.json"), encoding="utf-8") as fh:
            labels = json.load(fh)["subgroup"]
        a = os.path.join(cat, alg + ".hopf.json")
        i = os.path.join(cat, ideal + ".ideal.json")
        out = os.path.join(work, "quotient%d.hopf.json" % k)
        for cmd, argv in (
            ("normal", ["normal", a, "--ideal", i]),
            ("quotient", ["quotient", a, "--ideal", i, "--out", out]),
            ("reconstruct", ["reconstruct", a, "--ideal", i]),
        ):
            ops.append(_cli_op(cli, argv, _ideal_checks(T, labels, cmd)))

    def third_iso(out):
        code, rep = out
        res = rep["results"]
        d4 = oracle.catalog_group(cat, "d4")
        h_normal = oracle.is_normal(d4, [d4.labels.index(x) for x in ("e", "r", "r2", "r3")])
        ok = code == 0 and res["claim_a_N_normal_in_H"] and res["claim_b_theta_image"] and res[
            "claim_c_double_quotient"
        ] and (res["claim_d_H_over_N_normal"] is True) == h_normal
        return _expect(ok, "third-iso exit %d %r" % (code, res))

    ops.append(_cli_op(cli, ["third-iso", os.path.join(cat, "f_d4.hopf.json"),
                             "--n", os.path.join(cat, "f_d4.center.ideal.json"),
                             "--h", os.path.join(cat, "f_d4.z4.ideal.json")], third_iso))

    def built(dim):
        def check(out):
            code, rep = out
            return _expect(code == 0 and rep["results"]["dim"] == dim, "build exit %d %r" % (code, rep["results"]))

        return check

    s3 = oracle.catalog_group(cat, "s3")
    ops.append(_cli_op(cli, ["build", "function-algebra", "--group", os.path.join(cat, "s3.group.json"),
                             "--out", os.path.join(work, "built_f.hopf.json")], built(s3.order)))
    ops.append(_cli_op(cli, ["build", "tensor", "--left", os.path.join(cat, "f_z2.hopf.json"),
                             "--right", os.path.join(cat, "f_z3.hopf.json"),
                             "--out", os.path.join(work, "built_t.hopf.json")], built(2 * 3)))
    ops.append(_cli_op(cli, ["build", "crossed", "--inner", os.path.join(cat, "f_z3.hopf.json"),
                             "--action", os.path.join(cat, "f_z3.inversion.action.json"),
                             "--out", os.path.join(work, "built_x.hopf.json")], built(3 * 2)))

    def pullback(out):
        code, rep = out
        res = rep["results"]
        # README: the generated ideal meets the subalgebra in dimension 2, not 1
        ok = code == 0 and res["counterexample_reproduced"] and (res["dim_I0"], res["dim_intersection"]) == (1, 2)
        return _expect(ok, "demo s3-pullback %r" % res)

    ops.append(_cli_op(cli, ["demo", "s3-pullback"], pullback))
    rng.shuffle(ops)
    return [[op] for op in ops]


# -- beyond-catalog ------------------------------------------------------------


def _conjugate_class_member(T, K, rng):
    """A seeded member of the conjugacy class of subgroup K."""
    conj = set()
    for g in range(T.order):
        gi = T.inverse(g)
        conj.add(frozenset(T.table[T.table[g][a]][gi] for a in K))
    return rng.choice(sorted(sorted(c) for c in conj))


def _beyond_catalog(cli, rng, root, work):
    from hopfcheck import corep, hopf, serialize, subgroup

    D5 = oracle.dihedral(5)
    S4 = oracle.symmetric(4)
    # F(S4) skips check_axioms, fusion and conjugate, and C(S4) skips the
    # lattice, so that two passes fit in one run; C(S4) and F(D5) still run
    # those calls at phi = 4.
    cases = [
        ("F(D5)", D5, inputs.function_algebra_dict(D5, 10), "F", (2, 5), True),
        ("F(S4)", S4, inputs.function_algebra_dict(S4, 12), "F", (2, 3, 4, 6, 12), False),
        ("C(S4)", S4, inputs.group_algebra_dict(S4, 12), "C", (), True),
    ]
    chains = []
    for label, T, data, kind, orders, full in cases:
        n = T.order
        n_irreps = len(oracle.conjugacy_classes(T)) if kind == "F" else n
        self_conj = oracle.real_classes(T) if kind == "F" else oracle.involutions_and_identity(T)

        def axioms(ctx, data=data):
            return hopf.check_axioms(serialize.algebra_from_dict(data)).ok

        def haar(ctx, data=data):
            return hopf.compute_haar(serialize.algebra_from_dict(data))

        def haar_check(h, kind=kind, T=T):
            want = ["1/%d" % T.order] * T.order if kind == "F" else [
                "1" if g == T.identity else "0" for g in range(T.order)]
            got = [str(x.as_fraction()) if x.is_rational() else repr(x) for x in h]
            return _expect(got == want, "Haar state %r" % got)

        if full:
            chains.append([Op("check_axioms " + label, axioms, lambda ok: _expect(ok is True, "axioms fail"))])
        chains.append([Op("compute_haar " + label, haar, haar_check)])

        def pw(ctx, data=data):
            ctx["H"] = serialize.algebra_from_dict(data)
            ctx["P"] = corep.peter_weyl(ctx["H"])
            return ctx["P"]

        def pw_check(P, n=n, n_irreps=n_irreps):
            dims = P.dims
            return _expect(len(dims) == n_irreps and sum(d * d for d in dims) == n,
                           "irreps %r, want %d" % (dims, n_irreps))

        def fus(ctx):
            ctx["N"] = corep.fusion(ctx["P"])
            return ctx["P"], ctx["N"]

        def fus_check(out):
            P, N = out
            t, dims = P.triv_index, P.dims
            r = len(dims)
            unit = all(N[t][m][k] == (m == k) for m in range(r) for k in range(r))
            counted = all(
                sum(N[a][b][k] * dims[k] for k in range(r)) == dims[a] * dims[b]
                for a in range(r) for b in range(r)
            )
            return _expect(unit and counted, "fusion rules are not those of a fusion ring")

        def conj(ctx):
            P, N = ctx["P"], ctx["N"]
            return [corep.conjugate(P, i, N) for i in range(len(P.coreps))]

        def conj_check(c, self_conj=self_conj):
            ok = all(c[c[i]] == i for i in range(len(c))) and sum(c[i] == i for i in range(len(c))) == self_conj
            return _expect(ok, "conjugation %r, want %d self-conjugate" % (c, self_conj))

        chain = [Op("peter_weyl " + label, pw, pw_check)]
        if full:
            chain += [Op("fusion " + label, fus, fus_check), Op("conjugate " + label, conj, conj_check)]
        subs = oracle.subgroups(T)
        for order in orders:
            K = _conjugate_class_member(T, next(S for S in subs if len(S) == order), rng)
            normal = oracle.is_normal(T, K)
            ideal = inputs.subgroup_ideal_dict(T, K)

            def make(ctx, ideal=ideal, order=order):
                ctx[order] = subgroup.make_subgroup(ctx["H"], serialize.ideal_from_dict(ideal, ctx["H"]))
                return ctx[order]

            def make_check(Q, order=order):
                return _expect(Q.quotient.dim == order, "quotient dim %d, want %d" % (Q.quotient.dim, order))

            def report(ctx, order=order):
                return subgroup.normality_report(ctx[order], ctx["P"])

            def report_check(rep, normal=normal):
                return _expect(rep.normal is normal and rep.agree, "normal=%s agree=%s, want %s"
                               % (rep.normal, rep.agree, normal))

            chain.append(Op("make_subgroup %s order %d" % (label, order), make, make_check))
            chain.append(Op("normality_report %s order %d" % (label, order), report, report_check))
        chains.append(chain)
    return chains


# -- lattice-wide --------------------------------------------------------------


def _lattice_wide(cli, rng, root, work):
    from hopfcheck import serialize, structure, subgroup

    Z2 = oracle.cyclic(2)
    G = Z2
    for _ in range(3):
        G = oracle.direct_product(G, Z2)
    G = oracle.relabel(G, rng)
    n = G.order
    subs = oracle.subgroups(G)
    normal = [K for K in subs if oracle.is_normal(G, K)]
    f_data = inputs.function_algebra_dict(G, 1)
    c_data = inputs.group_algebra_dict(G, 1)
    chains = []
    # Hopf subalgebras: F(G/N) for normal N inside F(G), C(K) inside C(G)
    for label, data, want in (
        ("F(Z2^4)", f_data, sorted(n // len(N) for N in normal)),
        ("C(Z2^4)", c_data, sorted(len(K) for K in subs)),
    ):
        def hopf_subs(ctx, data=data):
            return structure.enumerate_hopf_subalgebras(serialize.algebra_from_dict(data))

        def hopf_subs_check(out, want=want):
            got = sorted(B.dim for B in out)
            return _expect(got == want, "Hopf subalgebras of dims %r" % got)

        chains.append([Op("enumerate_hopf_subalgebras " + label, hopf_subs, hopf_subs_check)])

    # quantum subgroups of F(G), one per subgroup K, then one normality flag
    # each.  C(G) is left out: its quantum subgroups come from the Hopf
    # subalgebras of its dual F(G), which the chain above already enumerates.
    def qsubs(ctx):
        ctx["qs"] = structure.enumerate_quantum_subgroups(serialize.algebra_from_dict(f_data))
        return ctx["qs"]

    def qsubs_check(out, want=sorted(len(K) for K in subs)):
        got = sorted(Q.quotient.dim for Q in out)
        return _expect(got == want, "quantum subgroups of dims %r" % got)

    all_normal = len(normal) == len(subs)
    chain = [Op("enumerate_quantum_subgroups F(Z2^4)", qsubs, qsubs_check)]
    flag_order = list(range(len(subs)))
    rng.shuffle(flag_order)
    for i in flag_order:
        chain.append(Op("is_normal_coset F(Z2^4) #%d" % i,
                        lambda ctx, i=i: subgroup.is_normal_coset(ctx["qs"][i]),
                        lambda flag: _expect(flag is all_normal, "normal flag %r" % flag)))
    chains.append(chain)
    return chains


# -- reject-mix ----------------------------------------------------------------


def _error_check(code_want, error=None, extra=None):
    def check(out):
        code, rep = out
        res = rep["results"]
        if code != code_want:
            return "exit %d, want %d (%s)" % (code, code_want, res.get("error"))
        if error is not None and res.get("error") != error:
            return "error %r, want %r" % (res.get("error"), error)
        if extra is not None:
            return extra(res)
        return None

    return check


def _subgroup_table(T, K):
    idx = sorted(K)
    pos = {g: i for i, g in enumerate(idx)}
    return oracle.Table([[pos[T.table[a][b]] for b in idx] for a in idx], [T.labels[g] for g in idx])


def _reject_mix(cli, rng, root, work):
    ops = []

    def put(name, data):
        path = os.path.join(work, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data if isinstance(data, str) else inputs.dump(data))
        return path

    # non-associative loops: F(T) fails coassociativity, C(T) associativity
    for k in range(4):
        T = oracle.random_loop(6, rng)
        for kind, build, axiom in (("f", inputs.function_algebra_dict, "coassociativity"),
                                   ("c", inputs.group_algebra_dict, "associativity")):
            path = put("loop%d.%s.hopf.json" % (k, kind), build(T, 1))
            ops.append(_cli_op(cli, ["axioms", path], _error_check(
                1, extra=lambda res, axiom=axiom: _expect(res["checks"][axiom] is False, axiom + " passed"))))

    S4 = oracle.symmetric(4)
    A4 = _subgroup_table(S4, next(K for K in oracle.subgroups(S4) if len(K) == 12))
    groups = (("s3", oracle.symmetric(3), 6), ("d4", oracle.dihedral(4), 4), ("a4", A4, 6))
    for gname, T, field in groups:
        alg = put("%s.hopf.json" % gname, inputs.function_algebra_dict(T, field))
        # vanishing ideals of subsets that are not subgroups
        for k in range(2):
            while True:
                subset = rng.sample(range(T.order), T.order // 2)
                if not oracle.is_closed(T, subset):
                    break
            ideal = put("%s.notsub%d.ideal.json" % (gname, k), inputs.vanishing_ideal_dict(T, subset))
            ops.append(_cli_op(cli, ["normal", alg, "--ideal", ideal], _error_check(1, "NotHopfIdeal")))
            ops.append(_cli_op(cli, ["quotient", alg, "--ideal", ideal, "--out",
                                     os.path.join(work, "never.hopf.json")], _error_check(1, "NotHopfIdeal")))
        # non-normal subgroups: all four criteria false, and agreeing
        non_normal = [sorted(K) for K in oracle.subgroups(T) if not oracle.is_normal(T, K)]
        for k, K in enumerate(rng.sample(non_normal, 2)):
            ideal = put("%s.nonnormal%d.ideal.json" % (gname, k), inputs.subgroup_ideal_dict(T, K))
            crit = ("rep_criterion", "left_a_normal", "right_a_normal", "coset_equality")
            ops.append(_cli_op(cli, ["normal", alg, "--ideal", ideal], _error_check(
                1, extra=lambda res: _expect(
                    not any(res[c] for c in crit) and res["agree"] is True, "criteria %r" % res))))

    # F(Z_m) over a field without m-th roots of unity: every numeric tier fails
    for m, field in (3, 1), (5, 2), (7, 1), (8, 4):
        path = put("fz%d.q%d.hopf.json" % (m, field), inputs.function_algebra_dict(oracle.cyclic(m), field))
        ops.append(_cli_op(cli, ["irreps", path], _error_check(1, "SplittingFailed")))

    # malformed and schema-violating files
    for gname, T, field in groups:
        for kind, text in inputs.malformed_variants(inputs.function_algebra_dict(T, field), rng):
            path = put("%s.%s.hopf.json" % (gname, kind), text)
            ops.append(_cli_op(cli, ["axioms", path], _error_check(2)))
    ops.append(_cli_op(cli, ["frobnicate", "x"], _error_check(2)))
    rng.shuffle(ops)
    return [[op] for op in ops]


GENERATORS = {
    "catalog-cli": (_catalog_cli, False),
    "beyond-catalog": (_beyond_catalog, True),
    "lattice-wide": (_lattice_wide, False),
    "reject-mix": (_reject_mix, False),
}


def build(workload, seed, root, work):
    """Set-up: import what the workload reaches and generate its inputs."""
    generate, sympy = GENERATORS[workload]
    cli = _imports(sympy)
    os.makedirs(work, exist_ok=True)
    return generate(cli, random.Random("%s:%d" % (workload, seed)), root, work)
