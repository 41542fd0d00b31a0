#!/usr/bin/env python3
"""Run every certification pipeline on the desk-scale examples and print a
summary.  This is the library-API twin of the `soficgibbs verify ...`
subcommands."""

import math
import time

import soficgibbs as sg


def banner(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    start = time.perf_counter()

    even = sg.SoficPresentation(("A", "B"), (
        sg.LabeledEdge("A", "A", "1", "a"),
        sg.LabeledEdge("A", "B", "0", "b"),
        sg.LabeledEdge("B", "A", "0", "c"),
    ))
    potentials = {
        "zero": sg.LocallyConstantPotential.zero(even),
        "height-of-1": sg.LocallyConstantPotential(
            even, 1, {("0",): 0.0, ("1",): 1.0}),
        "window-2": sg.LocallyConstantPotential(
            even, 2, {w: 0.15 * i - 0.3
                      for i, w in enumerate(even.words_of_length(2))}),
    }

    banner("even shift: equilibrium measures are Gibbs (cover degree 1)")
    for name, f in potentials.items():
        rep = sg.verify_sofic_lanford_ruelle(even, f, tol=1e-6, c_max=20)
        print(f"  {name:12s} pass={rep.passed}  pairs={len(rep.battery.reports)}"
              f"  worst deviation at c=20: {rep.battery.max_final_deviation:.2e}")

    banner("even shift: Gibbs measures are equilibrium (variational equality)")
    for name, f in potentials.items():
        rep = sg.verify_sofic_dobrushin(even, f, tol=0.01, entropy_horizon=12)
        print(f"  {name:12s} pass={rep.passed}  pressure={rep.pressure_value:.6f}"
              f"  |h_12 + integral - pressure| = {rep.deviation:.5f}")

    banner("degree-2 parity code: pushforward preserves Gibbsianness")
    full2 = sg.sft_from_forbidden_words(sg.Alphabet(("0", "1")), set(), 2)
    xor = sg.SlidingBlockCode.one_block(
        full2, {e.id: str(int(e.id[0] != e.id[1])) for e in full2.edges})
    image = sg.image_presentation(xor)
    f = sg.LocallyConstantPotential(image, 1,
                                    {("0",): 0.0, ("1",): math.log(2)})
    rep = sg.verify_finite_to_one_preservation(xor, f, tol=1e-6, c_max=20)
    print(f"  degree={rep.analysis.degree}  pass={rep.passed}"
          f"  battery max deviation: {rep.battery.max_final_deviation:.2e}"
          f"  cylinder cross-check: {rep.pushforward_max_deviation:.2e}")

    banner("cyclic decomposition on a period-2 shift")
    graph = sg.EdgeShift(("u", "v"), (
        sg.Edge("u", "v", "p1"), sg.Edge("u", "v", "p2"), sg.Edge("v", "u", "q")))
    g = sg.LocallyConstantPotential(
        graph, 1, {("p1",): 0.3, ("p2",): -0.2, ("q",): 0.5})
    rep = sg.cyclic_pressure_check(graph, g)
    print(f"  period={rep.period}  pass={rep.passed}"
          f"  P = {rep.pressure_full:.6f} = (1/2) * {rep.pressure_class0:.6f}"
          f"  (dev {rep.identity_deviation:.2e})")

    banner("sunny-side-up: equilibrium without Gibbs (reducible)")
    rep = sg.sunny_side_up_counterexample()
    print(f"  equilibrium={rep.equilibrium_ok}  gibbs={not rep.gibbs_ok}"
          f"  irreducible={rep.irreducible_language}  pass={rep.passed}")

    print(f"\ntotal time: {time.perf_counter() - start:.2f}s")


if __name__ == "__main__":
    main()
