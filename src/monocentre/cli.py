"""Command-line front end.

Subcommands load a JSON payload, re-run every relevant check from
scratch, and print one certificate line per verified statement, each
line naming the proposition or axiom it instantiates.  Output is
deterministic for identical inputs and configuration: payloads are
loaded through canonical constructors, every enumeration is
canonically ordered, and JSON reports are emitted with sorted keys.
_COMMANDS declares each subcommand once, with the payload kind it takes
and its help line; _dispatch refuses a payload of another kind, and
builds a command's sections only for a payload whose axioms hold.

Exit codes: 0 all certificates passed, 1 at least one failed,
2 malformed input, 3 a size guard refused the computation, 4 an internal
soundness error (two independent routes disagreed: a bug, not a FAIL).
"""

from __future__ import annotations

import argparse
import os
import sys

from .bilimits import descent_object
from .centre import compute_centre
from .config import (DEFAULT, GUARDS, GuardConfig, InternalSoundnessError,
                     SizeGuardExceeded)
from .convolution import certify_representables
from .fincat import validate_category, validate_functor
from .graded import Cocycle3, trivial_cocycle
from .hochschild import build_hochschild, verify_prop_3_1
from .jsonio import LoadedSpec, MalformedInput, dump_canonical, load_spec
from .record import Certificate, Record
from .veck import centre_simples, certify_centre_structure

_DASH = "—"


class Section(Record):
    """One block of report output: info lines plus certificate lines."""

    __slots__ = ("command", "input", "info", "certificates")


def _prefixed(prefix: str, certs) -> tuple:
    return tuple(Certificate(prefix + c.name, c.ok, c.detail) for c in certs)


def _cert_line(c: Certificate) -> str:
    out = f"{c.name} {_DASH} {'PASS' if c.ok else 'FAIL'}"
    if c.detail and not c.ok:
        out += f" ({c.detail})"
    return out


# -- sections ---------------------------------------------------------------


def _section_validate(spec: LoadedSpec) -> Section:
    value = spec.payload
    if spec.kind in ("category", "monoidal"):
        cat = value.base if spec.kind == "monoidal" else value
        info = (("kind", spec.kind), ("objects", cat.n_objects),
                ("morphisms", cat.n_morphisms))
        certs = [Certificate.of("Axiom: category laws (identities, composition, "
                                "associativity)", validate_category(cat))]
        if spec.kind == "monoidal":
            info += (("unit", value.unit),)
            certs.append(Certificate.of("Axiom: monoidal coherence (pentagon, triangle, "
                                        "naturality)", value.problems))
    elif spec.kind == "group":
        info = (("kind", "group"), ("group order", len(value.table)))
        certs = [Certificate.of("Axiom: group table (associativity, identity, "
                                "inverses)", value.problems)]
    else:
        info = (("kind", "cocycle"), ("group order", len(value.group.table)),
                ("scalar order", value.scalar_order))
        certs = [Certificate.of("Axiom: normalized 3-cocycle", value.problems)]
    return Section("validate", spec.path, info, tuple(certs))


def _section_centre(path: str, Z) -> Section:
    info = (("centre objects", Z.category.n_objects),
            ("centre morphisms", Z.category.n_morphisms))
    return Section("centre", path, info, _prefixed("Prop 2.1: ", Z.certificates))


def _section_descent(path: str, H, D) -> Section:
    info = (("descent objects", D.category.n_objects),
            ("descent morphisms", D.category.n_morphisms))
    certs = (
        Certificate.of("Prop 3.1: translation diagram cosimplicial identities",
                       H.diagram.problems),
        Certificate.of("Prop 3.1: descent category laws",
                       validate_category(D.category)),
        Certificate.of("Prop 3.1: descent projection functorial",
                       validate_functor(D.projection)),
    )
    return Section("descent", path, info, certs)


def _section_equiv(path: str, rep) -> Section:
    ok = rep.verdict == "equivalence"
    if ok:
        detail = ""
    elif rep.obstructions:
        detail = rep.obstructions[0]
    else:
        detail = rep.equivalence.witnesses[0]
    info = (("centre objects", rep.centre.category.n_objects),
            ("centre morphisms", rep.centre.category.n_morphisms),
            ("descent objects", rep.descent.category.n_objects),
            ("descent morphisms", rep.descent.category.n_morphisms))
    cert = Certificate("Prop 3.1: descent ≃ centre", ok, detail)
    return Section("equiv", path, info, (cert,))


def _section_convolve(spec: LoadedSpec, cfg: GuardConfig) -> Section:
    ms = spec.payload
    info = (("representable pairs checked", ms.base.n_objects ** 2),)
    return Section("convolve", spec.path, info,
                   _prefixed("Day convolution: ", certify_representables(ms, cfg)))


def _section_vec_centre(spec: LoadedSpec, omega_spec: LoadedSpec | None,
                        cfg: GuardConfig) -> Section:
    group = spec.payload
    n = len(group.table)
    certs = [Certificate.of("Axiom: group table (associativity, identity, inverses)",
                            group.problems)]
    info = [("group order", n),
            ("cocycle", omega_spec.path if omega_spec else "trivial (default)")]
    if group.problems:
        return Section("vec-centre", spec.path, tuple(info), tuple(certs))

    if omega_spec is not None:
        omega = omega_spec.payload
        if omega.group.table != group.table:
            raise MalformedInput(
                "/table", f"cocycle in {omega_spec.path} is defined over a "
                          f"different group table than {spec.path}")
        # over the group file's value, so that each table is checked once
        omega = Cocycle3(group, omega.scalar_order, omega.exponents)
    else:
        omega = trivial_cocycle(group)
    # refuse an oversized group before the quartic cocycle check; the
    # cocycle's report, kept on it, feeds the axiom line and the battery
    cfg.bound("group order", n, "vec_max_group")
    certs.append(Certificate.of("Axiom: normalized 3-cocycle", omega.problems))
    if omega.problems:
        return Section("vec-centre", spec.path, tuple(info), tuple(certs))

    result = centre_simples(omega, cfg)
    info.append(("scalar field", f"Q(zeta_{omega.field_order})"))
    info.append(("simples", len(result.simples)))
    for i, s in enumerate(result.simples):
        info.append((f"simple {i}",
                     f"class {s.class_rep}, dims {s.hb.carrier.dims}, "
                     f"total dimension {s.total_dim}"))
    info.append(("sum of squared dimensions",
                 f"{result.sum_of_squares} (target {n * n})"))
    certs += _prefixed("Enumeration: ", result.certificates)
    certs += _prefixed("Prop 2.1: ", certify_centre_structure(result))
    return Section("vec-centre", spec.path, tuple(info), tuple(certs))


def _monoidal_sections(command: str, spec: LoadedSpec, cfg: GuardConfig) -> list:
    """The sections of one monoidal subcommand, or of all four for
    "report", building only what they print: one verify_prop_3_1 call
    feeds centre, descent and equiv alike."""
    ms, path = spec.payload, spec.path
    if command == "centre":
        return [_section_centre(path, compute_centre(ms, cfg))]
    if command == "descent":
        H = build_hochschild(ms, cfg)
        return [_section_descent(path, H, descent_object(H.diagram, cfg))]
    if command == "convolve":
        return [_section_convolve(spec, cfg)]
    rep = verify_prop_3_1(ms, cfg)
    if command == "equiv":
        return [_section_equiv(path, rep)]
    return [_section_centre(path, rep.centre),
            _section_descent(path, rep.hochschild, rep.descent),
            _section_equiv(path, rep), _section_convolve(spec, cfg)]


# -- driver -----------------------------------------------------------------

# subcommand -> (payload kind it takes, None for any; help line)
_COMMANDS = {
    "validate": (None, "re-check the axioms of one payload file"),
    "centre": ("monoidal", "enumerate the centre of a monoidal payload and "
                           "certify its braided monoidal structure"),
    "descent": ("monoidal", "build the translation diagram and its descent object"),
    "equiv": ("monoidal", "compare the centre with the descent object"),
    "convolve": ("monoidal", "certify Day convolution laws on representables"),
    "vec-centre": ("group", "simple objects of the centre of the graded "
                            "linear backend over a finite group"),
    "report": (None, "run every applicable check on each file"),
}


def _load(path: str, kind: str | None, needed_by: str) -> LoadedSpec:
    """The payload at path, refused unless it is of `kind` (None takes any)."""
    spec = load_spec(path)
    if kind is not None and spec.kind != kind:
        raise MalformedInput("/kind", f"'{needed_by}' needs a {kind} payload, "
                                      f"got kind '{spec.kind}'")
    return spec


def _dispatch(args, cfg: GuardConfig) -> list:
    """The sections of every input file.  "vec-centre" checks the group
    table in its own section; otherwise a payload whose axioms fail gets
    only its validation section, which "validate" and "report" print
    always."""
    command = args.command
    sections = []
    for path in args.files:
        spec = _load(path, _COMMANDS[command][0], command)
        if command == "vec-centre":
            omega_spec = _load(args.omega, "cocycle", "--omega") if args.omega else None
            sections.append(_section_vec_centre(spec, omega_spec, cfg))
            continue
        vsec = _section_validate(spec)
        passed = all(c.ok for c in vsec.certificates)
        if command in ("validate", "report") or not passed:
            sections.append(vsec)
        if command == "validate" or not passed:
            continue
        if spec.kind == "monoidal":
            sections += _monoidal_sections(command, spec, cfg)
        elif spec.kind == "group":
            sections.append(_section_vec_centre(spec, None, cfg))
    return sections


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
    defaults = ", ".join(f"{name}={getattr(DEFAULT, name)}" for name in GUARDS)
    return (
        "exit codes:\n"
        "  0  every requested certificate passed\n"
        "  1  at least one certificate failed\n"
        "  2  malformed input (schema violation, bad reference, bad config)\n"
        "  3  a size guard refused the computation\n"
        "  4  internal soundness error: two independent routes disagreed\n\n"
        "configuration:\n"
        "  --config FILE reads a JSON object of guard overrides; environment\n"
        "  variables MONOCENTRE_<NAME> (e.g. MONOCENTRE_VEC_MAX_GROUP)\n"
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
    for command, (_, help_line) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_line)
        if command == "report":
            p.add_argument("files", nargs="+")
        else:
            p.add_argument("files", nargs=1, metavar="file")
        if command == "vec-centre":
            p.add_argument("--omega", metavar="FILE", default=None,
                           help="3-cocycle payload (default: trivial)")
    return parser


def _silence(stream) -> None:
    """Point stream's file descriptor at devnull after its reader went
    away, so that the flush at interpreter exit does not raise again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _error(code: int, message) -> int:
    """Print one error line on stderr and return the exit code, which a
    closed stderr does not change."""
    try:
        print(f"error: {message}", file=sys.stderr)
        sys.stderr.flush()
    except BrokenPipeError:
        _silence(sys.stderr)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = (GuardConfig.from_file(args.config) if args.config
               else DEFAULT).with_env()
        sections = _dispatch(args, cfg)
    except ValueError as exc:
        return _error(2, exc)
    except SizeGuardExceeded as exc:
        return _error(3, exc)
    except InternalSoundnessError as exc:
        return _error(4, f"internal soundness error: {exc}")
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
        # The reader went away; the verdict stands.
        _silence(sys.stdout)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
