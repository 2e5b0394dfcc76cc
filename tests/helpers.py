"""Small construction helpers shared by the test modules."""

from fractions import Fraction

import pastedlogic as pl


def random_positive_weight(structure, states, rng, blend=Fraction(1, 2)):
    """A random strictly positive admissible rational weight.

    Blends the uniform weight with a random rational mixture of
    two-valued states; the uniform part keeps every atom strictly
    positive, the state part moves the weight around the polytope.
    """
    uniform = pl.path_weight(structure, 1)
    k = int(rng.integers(1, min(4, len(states)) + 1))
    picks = rng.choice(len(states), size=k, replace=False)
    raw = [Fraction(int(rng.integers(1, 30)), 1) for _ in picks]
    total = sum(raw)
    mix = {a: Fraction(0) for a in structure.atoms}
    for coeff, idx in zip(raw, picks):
        for a in states[idx].ones:
            mix[a] += coeff / total
    t = Fraction(int(rng.integers(1, 100)), 100) * blend
    values = {a: (1 - t) * uniform[a] + t * mix[a] for a in structure.atoms}
    return pl.make_weight(structure, values)


def pentagon_pair():
    """Two pentagons pasted along the shared context C1 = {a1, a2, x1}."""
    first = pl.cycle_logic(5)
    second = [
        ("a2", "b3", "y2"), ("b3", "b4", "y3"), ("b4", "b5", "y4"), ("b5", "a1", "y5"),
    ]
    atoms = list(first.atoms) + ["b3", "b4", "b5", "y2", "y3", "y4", "y5"]
    return pl.build_event_structure(
        atoms,
        list(first.contexts) + second,
        list(first.context_names) + ["D2", "D3", "D4", "D5"],
    )
