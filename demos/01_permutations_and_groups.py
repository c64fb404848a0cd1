"""Permutation arithmetic and small-group machinery.

Permutations act on the right and compose left to right; groups are given
by generators, with orbits, Schreier generators and membership sifting on
top.
"""

from wreathact import GenGroup, Permutation

# images notation: p sends i to p[i]
p = Permutation([1, 0, 2])   # the transposition (0 1)
q = Permutation([0, 2, 1])   # the transposition (1 2)

print("p =", p, " q =", q)
print("p then q =", p * q)
print("q then p =", q * p)
print("p inverse =", p.inverse())

# the symmetric group on three points, generated by the two transpositions
sym3 = GenGroup(3, (p, q))
print("\n|S3| =", sym3.order())
print("S3 is", sym3.transitivity_degree())

# orbits come with witnesses: products of generators realizing each point
orbit, witness = sym3.orbit_with_transversal(0)
print("orbit of 0:", orbit)
for point in orbit:
    print(f"  witness 0 -> {point}:", witness[point])

# Schreier generators present the stabilizer of a point
stabilizer = sym3.schreier_generators(0)
print("stabilizer of 0 generated by:", [str(s) for s in stabilizer])

# membership is a stabilizer-chain sift; enumeration is the brute-force check
cycle = GenGroup(3, (Permutation([1, 2, 0]),))
print("\n(0 1) in <(0 1 2)>?", cycle.contains(p))
print("closure of <(0 1 2)>:", sorted(str(e) for e in cycle.enumerate_elements()))
