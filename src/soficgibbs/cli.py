"""Command line interface.

Subcommands map one-to-one onto the library pipelines: `analyze`, `fischer`,
`pressure`, `eqmeasure`, `pushforward`, `gibbs-check`, and
`verify lanford-ruelle|dobrushin|finite-to-one|counterexample`.

Reports are flat `key = value` lines followed by a final `verdict` line;
identical inputs produce byte-identical machine reports.  Exit codes:
0 on pass, 1 when a numeric verdict fails, 2 on input errors.
"""

from __future__ import annotations

import argparse
import sys

from .codes import analyze_code, recode_to_one_block
from .errors import SoficGibbsError, SpecFileError
from .gibbs import (sunny_side_up_counterexample, synchronized_battery,
                    verify_finite_to_one_preservation, verify_sofic_dobrushin,
                    verify_sofic_lanford_ruelle)
from .measures import (HiddenMarkovMeasure, equilibrium_upstairs,
                       sofic_pressure)
from .presentations import image_presentation, minimize_fischer
from .shifts import component_periods, cyclic_structure, format_word
from .specfile import (LoadedSystem, build_code, build_potential, build_system,
                       parse_spec)
from .thermo import (LocallyConstantPotential, entropy, pressure,
                     pullback_potential)


def _fmt(value, machine: bool) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value) if machine else f"{value:.9f}"
    return str(value)


def _emit(lines, passed, machine):
    for key, value in lines:
        print(f"{key} = {_fmt(value, machine)}")
    print(f"verdict = {'pass' if passed else 'fail'}")
    return 0 if passed else 1


def _read_spec(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}")
    return parse_spec(text)


def _load_system(path) -> LoadedSystem:
    return build_system(_read_spec(path))


def _load_potential(arg, presentation):
    if arg is None or arg == "zero":
        return LocallyConstantPotential.zero(presentation)
    return build_potential(_read_spec(arg), presentation)


def cmd_analyze(args):
    system = _load_system(args.file)
    shift = system.edge_shift
    lines = [
        ("kind", system.kind),
        ("vertices", len(shift.vertices)),
        ("edges", len(shift.edges)),
        ("essential", shift.is_essential()),
        ("irreducible", shift.is_irreducible()),
    ]
    if shift.is_irreducible():
        structure = cyclic_structure(shift)
        lines.append(("period", structure.period))
        classes = " ".join(f"{v}:{structure.class_of[v]}" for v in shift.vertices)
        lines.append(("classes", classes))
    else:
        for comp, period in component_periods(shift).items():
            lines.append((f"component_period({','.join(comp)})", period))
    return lines, True


def cmd_fischer(args):
    system = _load_system(args.file)
    fischer, cover = minimize_fischer(system.presentation)
    analysis = analyze_code(cover)
    lines = [
        ("states", len(fischer.vertices)),
        ("edges", len(fischer.edges)),
        ("right_resolving", analysis.right_resolving),
        ("finite_to_one", analysis.finite_to_one),
        ("degree", analysis.degree),
        ("magic_word", format_word(analysis.magic_word.word)),
        ("magic_coordinate", analysis.magic_word.coordinate),
        ("almost_invertible", analysis.almost_invertible),
    ]
    return lines, analysis.almost_invertible


def cmd_pressure(args):
    system = _load_system(args.file)
    potential = _load_potential(args.potential, system.presentation)
    if system.kind == "labeled":
        value = sofic_pressure(system.presentation, potential)
        method = "fischer-cover-transfer-matrix"
    else:
        lifted = pullback_potential(system.labeling, potential)
        value = pressure(system.edge_shift, lifted)
        method = "transfer-matrix"
    return [("pressure", value), ("method", method)], True


def cmd_eqmeasure(args):
    system = _load_system(args.file)
    potential = _load_potential(args.potential, system.presentation)
    mu, _, _, pressure_value = equilibrium_upstairs(system.labeling, potential)
    lines = [("shift_vertices", len(mu.shift.vertices)),
             ("shift_edges", len(mu.shift.edges)),
             ("entropy", entropy(mu)),
             ("pressure", pressure_value)]
    for v in mu.shift.vertices:
        lines.append((f"stationary({v})", mu.stationary[v]))
    for e in mu.shift.edges:
        lines.append((f"transition({e.id})", mu.transitions[e.id]))
    for n in range(1, args.depth + 1):
        for w in mu.shift.words_of_length(n):
            lines.append((f"cylinder({format_word(w)})", mu.cylinder_prob(w)))
    return lines, True


def cmd_pushforward(args):
    system = _load_system(args.file)
    potential = _load_potential(args.potential, system.presentation)
    mu, _, push_code, _ = equilibrium_upstairs(system.labeling, potential)
    nu = HiddenMarkovMeasure(mu, push_code)
    lines = [("image_symbols", " ".join(nu.symbols))]
    for n in range(1, args.depth + 1):
        for w in nu.words_of_length(n):
            lines.append((f"cylinder({format_word(w)})", nu.cylinder_prob(w)))
    return lines, True


def cmd_gibbs_check(args):
    system = _load_system(args.file)
    potential = _load_potential(args.potential, system.presentation)
    mu, _, push_code, _ = equilibrium_upstairs(system.labeling, potential)
    battery = synchronized_battery(HiddenMarkovMeasure(mu, push_code),
                                   potential, analyze_code(push_code),
                                   args.tol, args.cmax)
    lines = [("pairs_tested", len(battery.reports)),
             ("pairs_skipped", len(battery.skipped_pairs)),
             ("max_final_deviation", battery.max_final_deviation)]
    for report in battery.reports:
        key = f"deviation({format_word(report.u)}|{format_word(report.v)})"
        lines.append((key, report.final_deviation))
    return lines, battery.passed


def cmd_verify(args):
    what = args.what
    if what == "counterexample":
        report = sunny_side_up_counterexample()
        lines = [
            ("equilibrium", "yes" if report.equilibrium_ok else "no"),
            ("gibbs", "no" if report.gibbs_ok else "yes"),
            ("irreducible", report.irreducible_language),
            ("word_counts_match", report.word_counts_match),
            ("measure_entropy", report.measure_entropy),
            ("ratio_deviation", report.gibbs_report.final_deviation),
        ]
        return lines, report.passed
    if args.file is None:
        raise SpecFileError(f"verify {what} requires a shift file")
    spec = _read_spec(args.file)
    system = build_system(spec)
    if what == "lanford-ruelle":
        potential = _load_potential(args.potential, system.presentation)
        report = verify_sofic_lanford_ruelle(system.presentation, potential,
                                             tol=args.tol, c_max=args.cmax)
        lines = [
            ("cover_states", len(report.lift.cover.vertices)),
            ("cover_degree", report.cover_analysis.degree),
            ("magic_word", format_word(report.cover_analysis.magic_word.word)),
            ("almost_invertible", report.cover_analysis.almost_invertible),
            ("pairs_tested", len(report.battery.reports)),
            ("pairs_skipped", len(report.battery.skipped_pairs)),
            ("max_final_deviation", report.battery.max_final_deviation),
        ]
        return lines, report.passed
    if what == "dobrushin":
        potential = _load_potential(args.potential, system.presentation)
        report = verify_sofic_dobrushin(system.presentation, potential,
                                        tol=args.tol,
                                        entropy_horizon=args.depth)
        lines = [
            ("pressure", report.pressure_value),
            ("entropy_estimate", report.entropy_sequence[-1]),
            ("integral", report.integral),
            ("deviation", report.deviation),
            ("entropy_trend", " ".join(f"{h:.6f}" for h in report.entropy_sequence)),
        ]
        return lines, report.passed
    if what == "finite-to-one":
        code = build_code(spec, system)
        _, one_block = recode_to_one_block(code)
        image = image_presentation(one_block)
        potential = _load_potential(args.potential, image)
        report = verify_finite_to_one_preservation(one_block, potential,
                                                   tol=args.tol, c_max=args.cmax)
        lines = [
            ("degree", report.analysis.degree),
            ("finite_to_one", report.analysis.finite_to_one),
            ("pairs_tested", len(report.battery.reports)),
            ("max_final_deviation", report.battery.max_final_deviation),
            ("pushforward_max_deviation", report.pushforward_max_deviation),
        ]
        return lines, report.passed
    raise SpecFileError(f"unknown verification {what!r}")


# Each option with its argparse settings; a subcommand takes only those it reads.
_OPTIONS = {
    "--potential": dict(default=None, help="potential file, or 'zero' (default)"),
    "--depth": dict(type=int, default=12, help="cylinder depth / entropy horizon"),
    "--cmax": dict(type=int, default=20, help="largest exchange context length"),
    "--tol": dict(type=float, default=1e-6, help="verdict tolerance"),
}

_SUBCOMMANDS = (
    ("analyze", "irreducibility, period, classes", ()),
    ("fischer", "minimal right-resolving presentation and degree", ()),
    ("pressure", "topological pressure", ("--potential",)),
    ("eqmeasure", "equilibrium measure and cylinder table",
     ("--potential", "--depth")),
    ("pushforward", "image measure cylinder table", ("--potential", "--depth")),
    ("gibbs-check", "cylinder ratio battery", ("--potential", "--cmax", "--tol")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soficgibbs",
        description="Shifts of finite type, sofic shifts, and Gibbs/equilibrium "
                    "measure certification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_options(p, options):
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.add_argument("--format", choices=("human", "machine"),
                       default="human")

    for name, help_text, options in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="shift description file")
        add_options(p, options)
    verify = sub.add_parser("verify", help="end-to-end certification pipelines")
    verify.add_argument("what", choices=("lanford-ruelle", "dobrushin",
                                         "finite-to-one", "counterexample"))
    verify.add_argument("file", nargs="?", default=None)
    add_options(verify, _OPTIONS)
    # 0.01 for dobrushin and 1e-6 otherwise, filled in by main
    verify.set_defaults(tol=None)
    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "fischer": cmd_fischer,
    "pressure": cmd_pressure,
    "eqmeasure": cmd_eqmeasure,
    "pushforward": cmd_pushforward,
    "gibbs-check": cmd_gibbs_check,
    "verify": cmd_verify,
}

# Parsing keeps no state in the parser, so one tree serves every call.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command == "verify" and args.tol is None:
        args.tol = 0.01 if args.what == "dobrushin" else 1e-6
    if args.command == "verify" and args.what == "dobrushin" and args.depth < 2:
        _PARSER.error("--depth: the entropy horizon must be at least 2")
    try:
        lines, passed = _COMMANDS[args.command](args)
    except SoficGibbsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit(lines, passed, args.format == "machine")


if __name__ == "__main__":
    sys.exit(main())
