"""Command line interface.

Subcommands map one-to-one onto the library pipelines: `analyze`, `fischer`,
`pressure`, `eqmeasure`, `pushforward`, `gibbs-check`, and
`verify lanford-ruelle|dobrushin|finite-to-one|counterexample`.  Each, every
`verify` pipeline included, has its own parser built from one option table
and accepts only the options it reads; its row of `_SUBCOMMANDS` names
the handler that `main` calls.
The weighted commands other than `pressure` read the fields of the one
`measures.LiftResult` of `equilibrium_upstairs`; `pressure` reads only the
Perron solve of the potential pulled back through the file's code, so it
builds no equilibrium measure.

Reports are flat `key = value` lines followed by a final `verdict` line;
identical inputs produce byte-identical machine reports.  Exit codes:
0 on pass, 1 when a numeric verdict fails, 2 on input errors.
"""

from __future__ import annotations

import argparse
import math
import sys

from .codes import analyze_code, recode_to_one_block
from .errors import SoficGibbsError, SpecFileError
from .gibbs import (sunny_side_up_counterexample, synchronized_battery,
                    verify_finite_to_one_preservation, verify_sofic_dobrushin,
                    verify_sofic_lanford_ruelle)
from .measures import equilibrium_upstairs
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


def _load_potential(arg, presentation, alphabet):
    if arg is None or arg == "zero":
        return LocallyConstantPotential.zero(presentation)
    return build_potential(_read_spec(arg), presentation, alphabet)


def _load_weighted(args):
    """The system of the file and the potential on its presentation, read
    over the codomain of its labeling."""
    system = _load_system(args.file)
    return system, _load_potential(args.potential, system.presentation,
                                   system.labeling.codomain)


def cmd_analyze(args):
    system = _load_system(args.file)
    shift = system.edge_shift
    irreducible = shift.is_irreducible()
    lines = [
        ("kind", system.kind),
        ("vertices", len(shift.vertices)),
        ("edges", len(shift.edges)),
        ("essential", shift.is_essential()),
        ("irreducible", irreducible),
    ]
    if irreducible:
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
    system, potential = _load_weighted(args)
    code, method = system.labeling, "transfer-matrix"
    if system.kind == "labeled":
        code = minimize_fischer(system.presentation)[1]
        method = "fischer-cover-transfer-matrix"
    value = pressure(code.domain, pullback_potential(code, potential))
    return [("pressure", value), ("method", method)], True


def cmd_eqmeasure(args):
    system, potential = _load_weighted(args)
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
    system, potential = _load_weighted(args)
    nu = equilibrium_upstairs(system.labeling, potential).downstairs
    lines = [("image_symbols", " ".join(nu.symbols))]
    for words, probs in nu.word_levels(args.depth):
        lines += [(f"cylinder({format_word(w)})", p) for w, p in zip(words, probs)]
    return lines, True


def cmd_gibbs_check(args):
    system, potential = _load_weighted(args)
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
    system, potential = _load_weighted(args)
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
    system, potential = _load_weighted(args)
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
    potential = _load_potential(args.potential, image_presentation(one_block),
                                one_block.codomain)
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


def _integer_at_least(low: int, what: str):
    """The argparse type of an integer option of at least `low`."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(
                f"{what} must be an integer of at least {low}, not {text!r}")
        return int(text)
    return parse


def _tolerance(text: str) -> float:
    """The argparse type of `--tol`: a finite number greater than 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            f"the tolerance must be a finite number greater than 0, not {text!r}")
    return value


# Each argument with its argparse settings; a subcommand takes only those it
# reads, with the settings of `_OVERRIDES` where its own differ.
_OPTIONS = {
    "file": dict(help="shift description file"),
    "--potential": dict(default=None, help="potential file, or 'zero' (default)"),
    "--depth": dict(type=_integer_at_least(1, "the depth"), default=12,
                    help="cylinder depth / entropy horizon"),
    "--cmax": dict(type=_integer_at_least(1, "the largest context length"),
                   default=20, help="largest exchange context length"),
    "--tol": dict(type=_tolerance, default=1e-6, help="verdict tolerance"),
}

_OVERRIDES = {
    ("verify dobrushin", "--depth"): dict(
        type=_integer_at_least(2, "the entropy horizon")),
    ("verify dobrushin", "--tol"): dict(default=0.01),
}

_SUBCOMMANDS = (
    ("analyze", cmd_analyze, "irreducibility, period, classes", ("file",)),
    ("fischer", cmd_fischer, "minimal right-resolving presentation and degree",
     ("file",)),
    ("pressure", cmd_pressure, "topological pressure", ("file", "--potential")),
    ("eqmeasure", cmd_eqmeasure, "equilibrium measure and cylinder table",
     ("file", "--potential", "--depth")),
    ("pushforward", cmd_pushforward, "image measure cylinder table",
     ("file", "--potential", "--depth")),
    ("gibbs-check", cmd_gibbs_check, "cylinder ratio battery",
     ("file", "--potential", "--cmax", "--tol")),
    ("verify lanford-ruelle", cmd_verify_lanford_ruelle,
     "equilibrium measure certified Gibbs",
     ("file", "--potential", "--cmax", "--tol")),
    ("verify dobrushin", cmd_verify_dobrushin,
     "Gibbs measure certified equilibrium",
     ("file", "--potential", "--depth", "--tol")),
    ("verify finite-to-one", cmd_verify_finite_to_one,
     "Gibbs property pushed through a code",
     ("file", "--potential", "--cmax", "--tol")),
    ("verify counterexample", cmd_verify_counterexample,
     "reducible shift: equilibrium but not Gibbs", ()),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soficgibbs",
        description="Shifts of finite type, sofic shifts, and Gibbs/equilibrium "
                    "measure certification.")
    sub = parser.add_subparsers(dest="command", required=True)
    pipelines = None
    for name, handler, help_text, options in _SUBCOMMANDS:
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
        p.set_defaults(handler=handler)
    return parser


# Parsing keeps no state in the parser, so one tree serves every call.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        lines, passed = args.handler(args)
    except SoficGibbsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit(lines, passed, args.format == "machine")


if __name__ == "__main__":
    sys.exit(main())
