"""Coordinate components and splitting along invariant coordinate sets.

The stabilizer of a coordinate (elements whose top fixes it) projects to a
permutation group on Gamma, the component at that coordinate. A subgroup
whose induced coordinate action is intransitive splits into restrictions,
one per invariant block, without losing any structure.
"""

from wreathact import Permutation, WreathContext, WreathElement, WreathSubgroup

s = Permutation([1, 0])
identity = Permutation.identity(2)

# generators: flip both entries; swap the two coordinates
ctx = WreathContext(2, 2)
X = WreathSubgroup(
    ctx,
    (
        WreathElement((s, s), identity),
        WreathElement((identity, identity), s),
    ),
)
print("coordinate orbits:", X.delta_orbits)
for d in range(2):
    component = X.component(d)
    print(
        f"component {d}: generated by",
        [str(g) for g in component.generators],
        "-", component.transitivity_degree(),
    )

# each reachable entry is realized by an element of the component, the
# entry at coordinate 0 of an element of X whose top fixes 0
orbit, witness = X.component(0).orbit_with_transversal(0)
print("entry orbit at coordinate 0:", tuple(orbit))
for gamma, entry in sorted(witness.items()):
    print(f"  0 -> {gamma} realized by", entry)

# a group with two coordinate orbits splits along them
ctx3 = WreathContext(2, 3)
Y = WreathSubgroup(
    ctx3,
    (WreathElement((s, s, identity), Permutation([1, 0, 2])),),
)
print("\ncoordinate orbits of Y:", Y.delta_orbits)
result = Y.split([0, 1])
for line in result.report_lines():
    print(line)
print("restriction to {0,1}:", [str(g) for g in result.first.generators])
print("restriction to {2}:  ", [str(g) for g in result.second.generators])
