"""Command-line front end.

Subcommands load a JSON payload, re-run every relevant check from
scratch, and print one certificate line per verified statement, each
line naming the proposition or axiom it instantiates.  Output is
deterministic for identical inputs and configuration: payloads are
loaded through canonical constructors, every enumeration is
canonically ordered, and JSON reports are emitted with sorted keys.

Exit codes: 0 all certificates passed, 1 at least one failed,
2 malformed input, 3 a size guard refused the computation, 4 an internal
soundness error (two independent routes disagreed: a bug, not a FAIL).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields

from .bilimits import descent_object, validate_cosimplicial
from .centre import Certificate, compute_centre
from .config import DEFAULT, GuardConfig, InternalSoundnessError, SizeGuardExceeded
from .convolution import (
    cardinality_check,
    check_set_transf,
    convolution_unit,
    day_convolve,
    is_bijection_family,
    left_unit_components,
    right_unit_components,
    yoneda_components,
    yoneda_functor,
)
from .fincat import validate_category, validate_functor
from .hochschild import build_hochschild, verify_prop_3_1
from .jsonio import LoadedSpec, MalformedInput, dump_canonical, load_spec
from .monoidal import group_table_report, validate_monoidal
from .veck import centre_simples, certify_centre_structure, check_cocycle, trivial_cocycle

_DASH = "—"


@dataclass(frozen=True)
class Section:
    """One block of report output: info lines plus certificate lines."""

    command: str
    input: str
    info: tuple
    certificates: tuple


def _cert(name: str, report) -> Certificate:
    return Certificate(name, not report, "; ".join(report[:3]))


def _cert_line(c: Certificate) -> str:
    out = f"{c.name} {_DASH} {'PASS' if c.ok else 'FAIL'}"
    if c.detail and not c.ok:
        out += f" ({c.detail})"
    return out


# -- sections ---------------------------------------------------------------


def _section_validate(spec: LoadedSpec) -> Section:
    certs = []
    if spec.kind == "category":
        cat = spec.payload
        info = (("kind", "category"), ("objects", cat.n_objects),
                ("morphisms", cat.n_morphisms))
        certs.append(_cert("Axiom: category laws (identities, composition, "
                           "associativity)", validate_category(cat)))
    elif spec.kind == "monoidal":
        ms = spec.payload
        info = (("kind", "monoidal"), ("objects", ms.base.n_objects),
                ("morphisms", ms.base.n_morphisms), ("unit", ms.unit))
        certs.append(_cert("Axiom: category laws (identities, composition, "
                           "associativity)", validate_category(ms.base)))
        certs.append(_cert("Axiom: monoidal coherence (pentagon, triangle, "
                           "naturality)", validate_monoidal(ms)))
    elif spec.kind == "group":
        table = spec.payload
        info = (("kind", "group"), ("group order", len(table)))
        certs.append(_cert("Axiom: group table (associativity, identity, "
                           "inverses)", group_table_report(table)))
    else:
        omega = spec.payload
        info = (("kind", "cocycle"), ("group order", len(omega.table)),
                ("scalar order", omega.scalar_order))
        certs.append(_cert("Axiom: normalized 3-cocycle", check_cocycle(omega)))
    return Section("validate", spec.path, info, tuple(certs))


def _section_centre(spec: LoadedSpec, cfg: GuardConfig) -> Section:
    Z = compute_centre(spec.payload, cfg)
    info = (("centre objects", Z.category.n_objects),
            ("centre morphisms", Z.category.n_morphisms))
    certs = tuple(Certificate("Prop 2.1: " + c.name, c.ok, c.detail)
                  for c in Z.certificates)
    return Section("centre", spec.path, info, certs)


def _section_descent(spec: LoadedSpec, cfg: GuardConfig) -> Section:
    H = build_hochschild(spec.payload, cfg)
    D = descent_object(H.diagram, cfg)
    info = (("level-2 route", "full" if H.level2_full else "restricted"),
            ("descent objects", D.category.n_objects),
            ("descent morphisms", D.category.n_morphisms))
    certs = (
        _cert("Prop 3.1: translation diagram cosimplicial identities",
              validate_cosimplicial(H.diagram)),
        _cert("Prop 3.1: descent category laws",
              validate_category(D.category)),
        _cert("Prop 3.1: descent projection functorial",
              validate_functor(D.projection)),
    )
    return Section("descent", spec.path, info, certs)


def _section_equiv(spec: LoadedSpec, cfg: GuardConfig) -> Section:
    rep = verify_prop_3_1(spec.payload, cfg)
    ok = rep.verdict == "equivalence"
    if ok:
        detail = ""
    elif rep.obstructions:
        detail = rep.obstructions[0]
    else:
        detail = rep.equivalence.witnesses[0]
    info = (("centre objects", rep.centre_objects),
            ("centre morphisms", rep.centre_morphisms),
            ("descent objects", rep.descent_objects),
            ("descent morphisms", rep.descent_morphisms),
            ("level-2 route", "full" if rep.level2_full else "restricted"))
    cert = Certificate("Prop 3.1: descent ≃ centre", ok, detail)
    return Section("equiv", spec.path, info, (cert,))


def _section_convolve(spec: LoadedSpec, cfg: GuardConfig) -> Section:
    ms = spec.payload
    cat = ms.base
    ys = {b: yoneda_functor(cat, b) for b in cat.objects}
    unit = convolution_unit(ms)
    discrete = all(cat.is_identity(m) for m in cat.morphisms)

    yoneda_report, card_report = [], []
    pairs = 0
    for b in cat.objects:
        for c in cat.objects:
            day = day_convolve(ms, ys[b], ys[c], cfg)
            target = ys[ms.tensor_obj(b, c)]
            comp = yoneda_components(day, b, c)
            bad = check_set_transf(day.functor, target, comp)
            if bad:
                yoneda_report.append(f"pair ({b}, {c}): {bad[0]}")
            elif not is_bijection_family(day.functor, target, comp):
                yoneda_report.append(
                    f"pair ({b}, {c}): comparison is not a bijection")
            if discrete:
                card_report += [f"pair ({b}, {c}): {w}"
                                for w in cardinality_check(day)]
            pairs += 1

    unit_report = []
    for b in cat.objects:
        day_l = day_convolve(ms, unit, ys[b], cfg)
        comp_l = left_unit_components(day_l)
        bad = check_set_transf(day_l.functor, ys[b], comp_l)
        if bad:
            unit_report.append(f"left unit at {b}: {bad[0]}")
        elif not is_bijection_family(day_l.functor, ys[b], comp_l):
            unit_report.append(f"left unit at {b}: not a bijection")
        day_r = day_convolve(ms, ys[b], unit, cfg)
        comp_r = right_unit_components(day_r)
        bad = check_set_transf(day_r.functor, ys[b], comp_r)
        if bad:
            unit_report.append(f"right unit at {b}: {bad[0]}")
        elif not is_bijection_family(day_r.functor, ys[b], comp_r):
            unit_report.append(f"right unit at {b}: not a bijection")

    info = (("representable pairs checked", pairs),)
    certs = [
        _cert("Day convolution: Yoneda law y_b ⊗ y_c ≅ "
              "y_{b⊗c}", yoneda_report),
        _cert("Day convolution: unit laws on representables", unit_report),
    ]
    if discrete:
        certs.append(_cert("Day convolution: cardinality law (discrete base)",
                           card_report))
    return Section("convolve", spec.path, info, tuple(certs))


def _section_vec_centre(spec: LoadedSpec, omega_spec: LoadedSpec | None,
                        dim_bound: int | None, cfg: GuardConfig) -> Section:
    table = spec.payload
    grp_report = group_table_report(table)
    certs = [_cert("Axiom: group table (associativity, identity, inverses)",
                   grp_report)]
    info = [("group order", len(table)),
            ("cocycle", omega_spec.path if omega_spec else "trivial (default)")]
    if grp_report:
        return Section("vec-centre", spec.path, tuple(info), tuple(certs))

    if omega_spec is not None:
        omega = omega_spec.payload
        if omega.table != tuple(tuple(row) for row in table):
            raise MalformedInput(
                "/table", f"cocycle in {omega_spec.path} is defined over a "
                          f"different group table than {spec.path}")
    else:
        omega = trivial_cocycle(table)
    coc_report = check_cocycle(omega)
    certs.append(_cert("Axiom: normalized 3-cocycle", coc_report))
    if coc_report:
        return Section("vec-centre", spec.path, tuple(info), tuple(certs))

    if dim_bound is not None:
        cfg = cfg.raised(vec_dim_bound=dim_bound)
    result = centre_simples(table, omega, cfg)
    n = len(table)
    info.append(("scalar field", f"Q(zeta_{result.field_order})"))
    info.append(("simples", len(result.simples)))
    for i, s in enumerate(result.simples):
        info.append((f"simple {i}",
                     f"class {s.class_rep}, dims {s.hb.carrier.dims}, "
                     f"total dimension {s.total_dim}"))
    info.append(("sum of squared dimensions",
                 f"{result.sum_of_squares} (target {n * n})"))
    skip = {"group table valid", "normalized 3-cocycle"}
    certs += [Certificate("Enumeration: " + c.name, c.ok, c.detail)
              for c in result.certificates if c.name not in skip]
    certs += [Certificate("Prop 2.1: " + c.name, c.ok, c.detail)
              for c in certify_centre_structure(result)]
    return Section("vec-centre", spec.path, tuple(info), tuple(certs))


_MONOIDAL_SECTIONS = {
    "centre": _section_centre,
    "descent": _section_descent,
    "equiv": _section_equiv,
    "convolve": _section_convolve,
}


def _sections_for_report(spec: LoadedSpec, cfg: GuardConfig) -> list:
    vsec = _section_validate(spec)
    out = [vsec]
    if any(not c.ok for c in vsec.certificates):
        return out
    if spec.kind == "monoidal":
        for name in ("centre", "descent", "equiv", "convolve"):
            out.append(_MONOIDAL_SECTIONS[name](spec, cfg))
    elif spec.kind == "group":
        out.append(_section_vec_centre(spec, None, None, cfg))
    return out


# -- driver -----------------------------------------------------------------


def _dispatch(args, cfg: GuardConfig) -> list:
    if args.command == "report":
        sections = []
        for path in args.files:
            sections += _sections_for_report(load_spec(path), cfg)
        return sections
    spec = load_spec(args.file)
    if args.command == "validate":
        return [_section_validate(spec)]
    if args.command == "vec-centre":
        if spec.kind != "group":
            raise MalformedInput(
                "/kind", f"'vec-centre' needs a group payload, got "
                         f"kind '{spec.kind}'")
        omega_spec = None
        if args.omega:
            omega_spec = load_spec(args.omega)
            if omega_spec.kind != "cocycle":
                raise MalformedInput(
                    "/kind", f"'--omega' needs a cocycle payload, got "
                             f"kind '{omega_spec.kind}'")
        return [_section_vec_centre(spec, omega_spec, args.dim_bound, cfg)]
    if spec.kind != "monoidal":
        raise MalformedInput(
            "/kind", f"'{args.command}' needs a monoidal payload, got "
                     f"kind '{spec.kind}'")
    vsec = _section_validate(spec)
    if any(not c.ok for c in vsec.certificates):
        return [vsec]
    return [_MONOIDAL_SECTIONS[args.command](spec, cfg)]


def _render_text(sections) -> list[str]:
    lines = []
    multi = len(sections) > 1
    for i, s in enumerate(sections):
        if multi:
            if i:
                lines.append("")
            lines.append(f"[{s.command}] {s.input}")
        else:
            lines.append(f"input: {s.input}")
        for key, value in s.info:
            lines.append(f"{key}: {value}")
        for c in s.certificates:
            lines.append(_cert_line(c))
    return lines


def _render_json(command: str, sections, exit_code: int) -> str:
    doc = {
        "schema_version": 1,
        "command": command,
        "exit_code": exit_code,
        "sections": [
            {
                "command": s.command,
                "input": s.input,
                "info": {str(k): v for k, v in s.info},
                "certificates": [
                    {"name": c.name, "ok": c.ok, "detail": c.detail}
                    for c in s.certificates
                ],
            }
            for s in sections
        ],
    }
    return dump_canonical(doc)


def _config_epilog() -> str:
    defaults = ", ".join(f"{f.name}={getattr(DEFAULT, f.name)}"
                         for f in fields(GuardConfig))
    return (
        "exit codes:\n"
        "  0  every requested certificate passed\n"
        "  1  at least one certificate failed\n"
        "  2  malformed input (schema violation, bad reference, bad config)\n"
        "  3  a size guard refused the computation\n"
        "  4  internal soundness error: two independent routes disagreed\n\n"
        "configuration:\n"
        "  --config FILE reads a JSON object of guard overrides; environment\n"
        "  variables MONOCENTRE_<NAME> (e.g. MONOCENTRE_VEC_DIM_BOUND)\n"
        "  override the file.  defaults:\n"
        f"  {defaults}\n"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monocentre",
        description="Exact centres of finite monoidal categories, certified "
                    "proposition by proposition.",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--emit", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    common.add_argument("--config", metavar="FILE", default=None,
                        help="JSON file of size-guard overrides")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="re-check the axioms of one payload file")
    p.add_argument("file")
    p = sub.add_parser("centre", parents=[common],
                       help="enumerate the centre of a monoidal payload and "
                            "certify its braided monoidal structure")
    p.add_argument("file")
    p = sub.add_parser("descent", parents=[common],
                       help="build the translation diagram and its descent "
                            "object")
    p.add_argument("file")
    p = sub.add_parser("equiv", parents=[common],
                       help="compare the centre with the descent object")
    p.add_argument("file")
    p = sub.add_parser("convolve", parents=[common],
                       help="certify Day convolution laws on representables")
    p.add_argument("file")
    p = sub.add_parser("vec-centre", parents=[common],
                       help="simple objects of the centre of the graded "
                            "linear backend over a finite group")
    p.add_argument("file")
    p.add_argument("--omega", metavar="FILE", default=None,
                   help="3-cocycle payload (default: trivial)")
    p.add_argument("--dim-bound", type=int, default=None,
                   help="override the carrier dimension bound")
    p = sub.add_parser("report", parents=[common],
                       help="run every applicable check on each file")
    p.add_argument("files", nargs="+")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = (GuardConfig.from_file(args.config) if args.config
               else DEFAULT).with_env()
        sections = _dispatch(args, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeGuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalSoundnessError as exc:
        print(f"error: internal soundness error: {exc}", file=sys.stderr)
        return 4
    exit_code = 0 if all(c.ok for s in sections
                         for c in s.certificates) else 1
    try:
        if args.emit == "json":
            sys.stdout.write(_render_json(args.command, sections, exit_code))
        else:
            for line in _render_text(sections):
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so that the flush
        # at interpreter exit does not raise again; the verdict stands.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
