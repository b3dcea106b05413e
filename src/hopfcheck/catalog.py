"""Golden catalog of small quantum groups, shipped as committed JSON files.

Every algebra here is rebuilt from scratch by the constructors, so the
committed files can be regenerated at any time with

    python3 -m hopfcheck.catalog [outdir]

and diffed byte-for-byte against the repository copies.
"""

from __future__ import annotations

import argparse
import os

from .constructions import (
    FiniteGroup,
    crossed_product,
    function_algebra,
    group_algebra,
    inversion_action,
    tensor_product,
)
from .hopf import HopfStarAlgebra
from .serialize import action_to_dict, algebra_to_dict, dump_json, group_to_dict

CATALOG_NAMES = (
    "f_z2",
    "f_z3",
    "f_z6",
    "f_s3",
    "f_d4",
    "c_z3",
    "c_s3",
    "f_z2_x_f_z3",
    "f_z3_rtimes_z2",
)

GROUP_NAMES = ("z2", "z3", "z6", "s3", "d4")

# label subsets of classical subgroups used by the command-line examples
SUBGROUP_IDEALS = {
    "f_s3.a3": ("f_s3", ("e", "(123)", "(132)")),
    "f_s3.t12": ("f_s3", ("e", "(12)")),
    "f_s3.triv": ("f_s3", ("e",)),
    "f_d4.center": ("f_d4", ("e", "r2")),
    "f_d4.z4": ("f_d4", ("e", "r", "r2", "r3")),
}


def build_group(name: str) -> FiniteGroup:
    if name == "z2":
        return FiniteGroup.cyclic(2)
    if name == "z3":
        return FiniteGroup.cyclic(3)
    if name == "z6":
        return FiniteGroup.cyclic(6)
    if name == "s3":
        return FiniteGroup.symmetric(3)
    if name == "d4":
        return FiniteGroup.dihedral(4)
    raise KeyError(name)


def build_algebra(name: str) -> HopfStarAlgebra:
    """Rebuild one catalog algebra from its constructor, fixed field order."""
    if name == "f_z2":
        return function_algebra(build_group("z2"), field_order=2)
    if name == "f_z3":
        return function_algebra(build_group("z3"), field_order=3)
    if name == "f_z6":
        return function_algebra(build_group("z6"), field_order=6)
    if name == "f_s3":
        return function_algebra(build_group("s3"), field_order=6)
    if name == "f_d4":
        return function_algebra(build_group("d4"), field_order=4)
    if name == "c_z3":
        return group_algebra(build_group("z3"), field_order=3)
    if name == "c_s3":
        return group_algebra(build_group("s3"), field_order=6)
    if name == "f_z2_x_f_z3":
        return tensor_product(build_algebra("f_z2"), build_algebra("f_z3"))
    if name == "f_z3_rtimes_z2":
        inner = build_algebra("f_z3")
        return crossed_product(inner, inversion_action(inner))
    raise KeyError(name)


def repo_catalog_dir() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(os.path.dirname(os.path.dirname(here)), "catalog")


def write_catalog(outdir: str):
    """Write every golden file under outdir; returns the written paths."""
    os.makedirs(outdir, exist_ok=True)
    written = []

    def emit(fname, data):
        path = os.path.join(outdir, fname)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_json(data))
        written.append(path)

    for name in GROUP_NAMES:
        emit(name + ".group.json", group_to_dict(build_group(name)))
    for name in CATALOG_NAMES:
        emit(name + ".hopf.json", algebra_to_dict(build_algebra(name)))
    for key, (_algebra, labels) in sorted(SUBGROUP_IDEALS.items()):
        emit(key + ".ideal.json", {"subgroup": list(labels)})
    inner = build_algebra("f_z3")
    emit("f_z3.inversion.action.json", action_to_dict(inversion_action(inner)))
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m hopfcheck.catalog",
        description="Regenerate every golden catalog file and print the written paths.",
    )
    parser.add_argument(
        "outdir", nargs="?", default=None,
        help="output directory (default: the repository's catalog directory)",
    )
    args = parser.parse_args(argv)
    for path in write_catalog(args.outdir or repo_catalog_dir()):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
