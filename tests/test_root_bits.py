"""Cracked roots pinned bit for bit against a committed table.

The sweep goldens print nine digits, so a drift in the last bits of a root
passes them. ``golden/cracked_roots.csv`` holds roots as ``float.hex``, one
row each: ``solve`` rows are five-mode solves of one problem, drawn as the
benchmark's ``cracked`` workload draws them; ``batch`` rows are 18 more
problems at ten modes on a grid of 4000 points, one with a crack of zero
compliance; ``polish``
rows are the re-tightened roots of a few cracked mode shapes. A deliberate
change of the roots rewrites the table with
``python tests/test_root_bits.py`` and records why.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

from arch_resonance import ArchProblem, CrackJoint, SearchConfig, find_frequencies, solver

TABLE = Path(__file__).parent / "golden" / "cracked_roots.csv"
FIELDS = ("case", "beta", "eta", "alpha", "theta_c", "mode", "K")
SOLVE = SearchConfig(max_modes=5)
BATCH = SearchConfig(max_modes=10, grid_points=4000)
BATCH_SIZE = 18


def _armchair_theta(psi):
    from arch_resonance import ChiralityClass, PowerLawCompliance, compliance, resolve_preset
    from arch_resonance.cli import load_presets

    tube = resolve_preset(ChiralityClass.ARMCHAIR, load_presets())
    return compliance(PowerLawCompliance(), psi, (tube.wall_thickness, tube.radius))


def _draw(rng):
    """A cracked problem as the ``cracked`` workload draws one."""
    beta = rng.uniform(0.5, 3.0)
    eta = rng.uniform(0.0, 4.0)
    crack = CrackJoint(beta * rng.uniform(0.1, 0.9), _armchair_theta(rng.uniform(0.1, 0.8)))
    return ArchProblem(beta, eta, crack)


def _rows():
    """Every row of the table, computed by the current solver."""
    rng = random.Random(29)
    rows = []

    def add(case, p, ks):
        for mode, k in ks:
            c = p.crack
            rows.append([case, *(v.hex() for v in (p.beta, p.eta_nd, c.alpha, c.theta_c)),
                         str(mode), k.hex()])

    solved = [_draw(rng) for _ in range(40)]
    for p in solved:
        add("solve", p, enumerate(find_frequencies(p, SOLVE).K_values, 1))
    batch = [_draw(rng) for _ in range(BATCH_SIZE)]
    batch[-1] = ArchProblem(batch[-1].beta, batch[-1].eta_nd, CrackJoint(0.5 * batch[-1].beta, 0.0))
    for p in batch:
        add("batch", p, enumerate(find_frequencies(p, BATCH).K_values, 1))
    for p, mode in zip(solved[:6], (1, 2, 3, 1, 2, 3)):
        k = find_frequencies(p, SOLVE).K_values[mode - 1]
        add("polish", p, [(mode, solver._polish(p, k))])
    return rows


def test_cracked_roots_are_bit_identical_to_the_table():
    with TABLE.open(newline="") as f:
        table = list(csv.DictReader(f))
    assert [r["case"] for r in table].count("batch") == 10 * BATCH_SIZE
    expected = [[r[f] for f in FIELDS] for r in table]
    assert _rows() == expected


if __name__ == "__main__":
    with TABLE.open("w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(FIELDS)
        writer.writerows(_rows())
