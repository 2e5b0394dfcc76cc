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


def grid_logic(k):
    """A k x k grid of contexts G{i}_{j}: one atom per grid edge, shared by
    the two contexts it joins, plus a private atom p{i}_{j} per context.
    The context-overlap graph is the grid itself, with (k-1)^2
    independent cycles."""
    edge_atoms = {(i, j): [] for i in range(k) for j in range(k)}
    atoms = []
    for i in range(k):
        for j in range(k):
            for di, dj, tag in ((0, 1, "h"), (1, 0, "v")):
                if i + di < k and j + dj < k:
                    atom = f"{tag}{i}_{j}"
                    atoms.append(atom)
                    edge_atoms[(i, j)].append(atom)
                    edge_atoms[(i + di, j + dj)].append(atom)
    contexts, names = [], []
    for i in range(k):
        for j in range(k):
            atoms.append(f"p{i}_{j}")
            contexts.append(edge_atoms[(i, j)] + [f"p{i}_{j}"])
            names.append(f"G{i}_{j}")
    return pl.build_event_structure(atoms, contexts, names)
