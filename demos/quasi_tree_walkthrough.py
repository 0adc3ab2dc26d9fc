"""A guided tour of one quasi-tree: leaves, relation trees, the relation
matrix and its minors, Betti numbers.

Run with:  python3 demos/quasi_tree_walkthrough.py
"""

from srideals import (
    SimplicialComplex,
    betti_table,
    build_m_delta,
    complement_complex,
    facet_complement_generators,
    facet_ideal,
    leaf_order,
    leaf_report,
    power,
    projdim_and_reg,
    reconstruct_generators,
    relation_trees,
    tree_minor_det,
    verify_minor_certificate,
)
from srideals.serialization import monomial_to_str


def main():
    cx = SimplicialComplex(6, [(1, 2, 3), (2, 3, 4), (3, 4, 5), (3, 4, 6)])
    print(f"complex: {cx}")

    print("\n-- leaves --")
    for f in range(len(cx.facets)):
        rep = leaf_report(cx, f)
        print(
            f"facet {f + 1} {cx.facets[f]}: leaf={rep.is_leaf}, "
            f"branches={[b + 1 for b in rep.branches]}, free={rep.free_vertices}"
        )
    order = leaf_order(cx)
    print(f"leaf order (1-based): {[i + 1 for i in order]}")

    print("\n-- the facet ideal of the complement complex --")
    gens = facet_complement_generators(cx)
    for i, g in enumerate(gens):
        print(f"u_{i + 1} = {monomial_to_str(g)}")

    print("\n-- relation trees --")
    trees = relation_trees(cx)
    print(f"{len(trees)} relation trees")
    for tree in trees:
        edges = [(i + 1, j + 1) for i, j in tree.edges]
        ok = verify_minor_certificate(cx, tree)
        recon = reconstruct_generators(tree) == gens
        print(f"edges {edges}: determinant certificate={ok}, reconstruction={recon}")

    print("\n-- the relation matrix and the signed minors of the first tree --")
    rows = build_m_delta(cx)
    for i, j, m_i, m_j in rows:
        print(
            f"row ({i + 1}, {j + 1}): +{monomial_to_str(m_i)} in column {i + 1}, "
            f"-{monomial_to_str(m_j)} in column {j + 1}"
        )
    tree = trees[0]
    rows = [row for row in rows if row[:2] in tree.edges]
    for j in range(len(gens)):
        sign, mono = tree_minor_det(rows, j)
        print(
            f"det of minor without column {j + 1}: "
            f"{'+' if sign > 0 else '-'}{monomial_to_str(mono)}"
        )

    print("\n-- homological data --")
    ideal = facet_ideal(complement_complex(cx))
    table = betti_table(ideal)
    pd, reg, linear = projdim_and_reg(ideal)
    print(f"total Betti numbers: b0={table.total(0)}, b1={table.total(1)}")
    print(f"projdim={pd}, reg={reg}, linear resolution={linear}")
    from srideals import has_linear_resolution

    for k in (2, 3):
        pk = power(ideal, k)
        lin = has_linear_resolution(pk)
        print(f"I^{k}: {len(pk.generators)} generators, linear resolution={lin}")


if __name__ == "__main__":
    main()
