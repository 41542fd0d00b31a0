"""Command line interface.

Subcommands map one-to-one onto the library pipelines: `analyze`, `fischer`,
`pressure`, `eqmeasure`, `pushforward`, `gibbs-check`, and
`verify lanford-ruelle|dobrushin|finite-to-one|counterexample`.  Each, every
`verify` pipeline included, has its own parser built from one option table
and accepts only the options it reads; `_COMMANDS` dispatches on its name.
The weighted commands read the fields of the one `measures.LiftResult` of
`equilibrium_upstairs`.

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
from .measures import equilibrium_upstairs, sofic_pressure
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
    lift = equilibrium_upstairs(system.labeling, potential)
    mu = lift.downstairs.upstairs
    lines = [("shift_vertices", len(mu.shift.vertices)),
             ("shift_edges", len(mu.shift.edges)),
             ("entropy", entropy(mu)),
             ("pressure", lift.pressure_value)]
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
    nu = equilibrium_upstairs(system.labeling, potential).downstairs
    lines = [("image_symbols", " ".join(nu.symbols))]
    for n in range(1, args.depth + 1):
        for w in nu.words_of_length(n):
            lines.append((f"cylinder({format_word(w)})", nu.cylinder_prob(w)))
    return lines, True


def cmd_gibbs_check(args):
    system = _load_system(args.file)
    potential = _load_potential(args.potential, system.presentation)
    nu = equilibrium_upstairs(system.labeling, potential).downstairs
    _, battery = synchronized_battery(nu, potential, args.tol, args.cmax)
    lines = [("pairs_tested", len(battery.reports)),
             ("pairs_skipped", len(battery.skipped_pairs)),
             ("max_final_deviation", battery.max_final_deviation)]
    for report in battery.reports:
        key = f"deviation({format_word(report.u)}|{format_word(report.v)})"
        lines.append((key, report.final_deviation))
    return lines, battery.passed


def cmd_verify_lanford_ruelle(args):
    system = _load_system(args.file)
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


def cmd_verify_dobrushin(args):
    system = _load_system(args.file)
    potential = _load_potential(args.potential, system.presentation)
    report = verify_sofic_dobrushin(system.presentation, potential,
                                    tol=args.tol, entropy_horizon=args.depth)
    lines = [
        ("pressure", report.pressure_value),
        ("entropy_estimate", report.entropy_sequence[-1]),
        ("integral", report.integral),
        ("deviation", report.deviation),
        ("entropy_trend", " ".join(f"{h:.6f}" for h in report.entropy_sequence)),
    ]
    return lines, report.passed


def cmd_verify_finite_to_one(args):
    spec = _read_spec(args.file)
    code = build_code(spec, build_system(spec))
    _, one_block = recode_to_one_block(code)
    potential = _load_potential(args.potential, image_presentation(one_block))
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


def cmd_verify_counterexample(args):
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


def _entropy_horizon(text: str) -> int:
    """The `--depth` of `verify dobrushin`: an integer of at least 2."""
    if not text.isdecimal() or int(text) < 2:
        raise argparse.ArgumentTypeError(
            f"the entropy horizon must be an integer of at least 2, not {text!r}")
    return int(text)


# Each argument with its argparse settings; a subcommand takes only those it
# reads, with the settings of `_OVERRIDES` where its own differ.
_OPTIONS = {
    "file": dict(help="shift description file"),
    "--potential": dict(default=None, help="potential file, or 'zero' (default)"),
    "--depth": dict(type=int, default=12, help="cylinder depth / entropy horizon"),
    "--cmax": dict(type=int, default=20, help="largest exchange context length"),
    "--tol": dict(type=float, default=1e-6, help="verdict tolerance"),
}

_OVERRIDES = {
    ("verify dobrushin", "--depth"): dict(type=_entropy_horizon),
    ("verify dobrushin", "--tol"): dict(default=0.01),
}

_SUBCOMMANDS = (
    ("analyze", "irreducibility, period, classes", ("file",)),
    ("fischer", "minimal right-resolving presentation and degree", ("file",)),
    ("pressure", "topological pressure", ("file", "--potential")),
    ("eqmeasure", "equilibrium measure and cylinder table",
     ("file", "--potential", "--depth")),
    ("pushforward", "image measure cylinder table",
     ("file", "--potential", "--depth")),
    ("gibbs-check", "cylinder ratio battery",
     ("file", "--potential", "--cmax", "--tol")),
    ("verify lanford-ruelle", "equilibrium measure certified Gibbs",
     ("file", "--potential", "--cmax", "--tol")),
    ("verify dobrushin", "Gibbs measure certified equilibrium",
     ("file", "--potential", "--depth", "--tol")),
    ("verify finite-to-one", "Gibbs property pushed through a code",
     ("file", "--potential", "--cmax", "--tol")),
    ("verify counterexample", "reducible shift: equilibrium but not Gibbs", ()),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soficgibbs",
        description="Shifts of finite type, sofic shifts, and Gibbs/equilibrium "
                    "measure certification.")
    sub = parser.add_subparsers(dest="command", required=True)
    pipelines = None
    for name, help_text, options in _SUBCOMMANDS:
        group, _, leaf = name.rpartition(" ")
        if group and pipelines is None:
            pipelines = sub.add_parser(
                group, help="end-to-end certification pipelines"
            ).add_subparsers(dest="pipeline", required=True)
        p = (pipelines if group else sub).add_parser(leaf, help=help_text)
        for option in options:
            p.add_argument(option, **{**_OPTIONS[option],
                                      **_OVERRIDES.get((name, option), {})})
        p.add_argument("--format", choices=("human", "machine"),
                       default="human")
        p.set_defaults(command=name)
    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "fischer": cmd_fischer,
    "pressure": cmd_pressure,
    "eqmeasure": cmd_eqmeasure,
    "pushforward": cmd_pushforward,
    "gibbs-check": cmd_gibbs_check,
    "verify lanford-ruelle": cmd_verify_lanford_ruelle,
    "verify dobrushin": cmd_verify_dobrushin,
    "verify finite-to-one": cmd_verify_finite_to_one,
    "verify counterexample": cmd_verify_counterexample,
}

# Parsing keeps no state in the parser, so one tree serves every call.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        lines, passed = _COMMANDS[args.command](args)
    except SoficGibbsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit(lines, passed, args.format == "machine")


if __name__ == "__main__":
    sys.exit(main())
