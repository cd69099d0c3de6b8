"""Layout-independent names of a pack's constraints.

Used by the acceptance criterion C10 and the pack tests to compare active
sequences between the package's pack, whose one spread output bounds the
cells' temperature differences, and the all-pairs reference layout
(``references.AllPairsPack``), so it is a test of the package rather than
part of it.
"""

from __future__ import annotations

from bangride.models import PackPlant


def constraint_label(plant: PackPlant, i_star: int) -> tuple:
    """Identity of 1-based constraint ``i_star``: the pairwise family is
    collapsed to a single label so active sequences compare across layouts."""
    n = plant.n_cells
    if i_star == 1:
        return ("current",)
    if i_star <= n + 1:
        return ("voltage", i_star - 2)
    if i_star <= 2 * n + 1:
        return ("temp", i_star - 2 - n)
    return ("pair",)
