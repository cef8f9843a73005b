#!/usr/bin/env python3
# Frobenius-style counting: character-sum formulas against exact scans.

from matgroups import chartab, ff, homcount, matgrp

ctx = matgrp.group_build("SL", 2, ff.field_make(3))
table = chartab.character_table(ctx, seed=0)

# |Hom(pi_1(genus-2 surface), G)| three ways: character formula, convolution
# of commutator fibers, and a raw 24^4 tuple scan
pres = homcount.surface_presentation(2)
print("genus-2 relator:", pres.relators[0])
formula = homcount.surface_hom_count(table, 2)
oracle = homcount.oracle_surface_count(ctx, 2)
scan = homcount.hom_count_bruteforce(pres, ctx)
print("formula:", formula, " convolution:", oracle, " scan:", scan)

# commutator fibers per class; the identity fiber is |G| * #classes
counts = homcount.oracle_commutator_counts(ctx)
print("\ncommutator fiber sizes by class:", list(counts))
for c in ctx.classes:
    assert homcount.commutator_count(table, c.index) == counts[c.index]

# products of squares x1^2 ... xm^2 use the Frobenius-Schur indicators
for m in (1, 2, 3):
    at_identity = homcount.fs_squares_count(table, m, 0)
    print(f"#tuples with x1^2..x{m}^2 = 1:", at_identity)

# class-constrained products: #{(a,b,c,d) in C1 x C2 x C3 x C4 : abcd = 1}
quad = (4, 4, 4, 4)
print(
    f"\nquad count over class tuple {quad}:",
    homcount.quad_class_count(table, quad),
    "(oracle:", str(homcount.oracle_quad_count(ctx, quad)) + ")",
)

# presentations parse from compact strings; brute force handles any relator set
tri = homcount.Presentation(2, ("x1 x1 x1", "x2 x2", "[x1,x2]"))
print("\nhoms from <x,y | x^3, y^2, [x,y]> :", homcount.hom_count_bruteforce(tri, ctx))
