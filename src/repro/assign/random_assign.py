"""The random baseline of the paper's evaluation.

"The random method denotes that the assignment order conforms the monotonic
rule and other factors are ignored" (section 4).  Such an order is exactly a
random *interleaving* of the bump rows: each row's nets must keep their
left-to-right ball order, but rows may interleave arbitrarily.  Drawing the
next finger from row ``r`` with probability proportional to the number of
nets still waiting in ``r`` samples uniformly over all legal interleavings.
"""

from __future__ import annotations

import random
from typing import Optional

from ..package import Quadrant
from .base import Assigner, Assignment


class RandomAssigner(Assigner):
    """Uniformly random monotonic-legal assignment.

    Seeds are per *call*, like every other assigner: pass them to
    :meth:`assign` or :func:`repro.assign.assign_design`.
    """

    name = "Random"

    def assign(self, quadrant: Quadrant, seed: Optional[int] = None) -> Assignment:
        rng = random.Random(seed)
        # Each row reversed, so its next net pops off the end in O(1).
        stacks = [
            quadrant.row_nets(row)[::-1] for row in range(1, quadrant.row_count + 1)
        ]
        total = sum(len(stack) for stack in stacks)
        order = []
        while total:
            pick = rng.randrange(total)
            for stack in stacks:
                if pick < len(stack):
                    order.append(stack.pop())
                    total -= 1
                    break
                pick -= len(stack)
        return Assignment(quadrant, order)


def best_of_random(
    quadrant: Quadrant,
    trials: int,
    objective,
    seed: Optional[int] = None,
) -> Assignment:
    """The strongest form of the baseline: best of *trials* random orders.

    The paper's abstract calls its baseline the "randomly optimized method";
    this helper lets benchmarks give the baseline multiple attempts and keep
    the one minimizing *objective* (a callable ``Assignment -> float``).
    """
    assigner = RandomAssigner()
    best = None
    best_score = None
    for trial in range(max(1, trials)):
        trial_seed = None if seed is None else seed + trial
        candidate = assigner.assign(quadrant, seed=trial_seed)
        score = objective(candidate)
        if best_score is None or score < best_score:
            best, best_score = candidate, score
    return best


class BestOfRandomAssigner(Assigner):
    """The "randomly optimized" baseline: best of N random legal orders.

    Keeps, per quadrant, the random order with the smallest maximum density
    (the metric Table 2 compares on).  ``trials = 1`` degenerates to
    :class:`RandomAssigner`.
    """

    name = "Random"

    def __init__(self, trials: int = 3) -> None:
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        self.trials = trials

    def assign(self, quadrant: Quadrant, seed: Optional[int] = None) -> Assignment:
        from ..routing.density import max_density

        return best_of_random(quadrant, self.trials, max_density, seed=seed)
