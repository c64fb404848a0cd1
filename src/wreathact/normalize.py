"""Conjugation normal form: components constant on coordinate orbits.

Given X <= Sym(Gamma) wr Sym(Delta), there is a base-group element x such
that every component of x^-1 X x depends only on the orbit of its
coordinate under the induced action of X. The construction picks, for each
coordinate d, an element t_d of X carrying the orbit representative r to d,
and sets the entry of x at d to the inverse of the base entry of t_d at r.
Only that entry is needed, so the transversal holds it alone, never t_d.
The certificate is the theorem's one-line proof: if t in X carries r to
d, then Stab(d) = t^-1 Stab(r) t, so the component at d is the component
at r conjugated by t's entry at r. In X^x that entry is the identity
(an element of the component at r when x also fixes a point), so every
component along the orbit equals the one at r, with no stabilizer chain
built per coordinate.
When every component is transitive each entry can be corrected by an
element of the component at r so that x additionally fixes a prescribed
point of Pi.

When the induced coordinate action is transitive this conjugation lands X
inside G wr H, where G is the component at a chosen coordinate and H is
the induced group; ``embed_in_wreath`` returns that embedding along with a
sifting certificate for every conjugated generator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegreeMismatchError, HypothesisViolation
from .perm import GenGroup, Permutation, same_group
from .components import WreathSubgroup
from .wreath import Point, WreathElement


@dataclass
class Transversal:
    """Per-orbit representatives with a base entry for each coordinate.

    ``entries[d]`` is the entry, at the representative r of d's orbit, of
    an element of X whose top maps r to d; the representative itself gets
    the identity.
    """

    orbits: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...]
    entries: dict[int, Permutation]
    rep_of: dict[int, int]

    @property
    def x(self) -> WreathElement:
        """The normal-form element: entry ``entries[d].inverse()`` at each d, identity top."""
        m = len(self.entries)
        return WreathElement([self.entries[d].inverse() for d in range(m)], Permutation.identity(m))


def build_transversal(
    X: WreathSubgroup, preferred_reps: tuple[int, ...] = ()
) -> Transversal:
    """BFS transversal of the coordinate orbits, as entries at the representatives.

    The entries are the representative's ``entry_transversal``.
    Representatives default to the minimum index of each orbit; a preferred
    representative may be supplied instead (at most one per orbit).
    """
    m = X.ctx.delta_size
    for rep in preferred_reps:
        if not 0 <= rep < m:
            raise ValueError(f"representative {rep} out of range")
    reps: list[int] = []
    entries: dict[int, Permutation] = {}
    rep_of: dict[int, int] = {}
    for orbit in X.delta_orbits:
        chosen = [r for r in preferred_reps if r in orbit]
        if len(chosen) > 1:
            raise ValueError(f"two preferred representatives in orbit {orbit}")
        rep = chosen[0] if chosen else orbit[0]
        reps.append(rep)
        u = X.entry_transversal(rep)
        for d in orbit:
            entries[d] = u[d]
            rep_of[d] = rep
    return Transversal(X.delta_orbits, tuple(reps), entries, rep_of)


def adjust_transversal(
    X: WreathSubgroup, transversal: Transversal, phi: Point
) -> Transversal:
    """Premultiply transversal entries by component elements so that they
    fix the prescribed point.

    For each coordinate d with representative r, the returned entry is
    ``w * entries[d]`` with w in the component at r, so it is again the
    entry at r of an element of X carrying r to d, and it fixes phi[d].
    Requires the component at every representative to be transitive (all
    components along an orbit are conjugate, so this is equivalent to all
    components being transitive); w is the BFS-first witness, which keeps
    the result deterministic. Representatives keep the identity.
    """
    phi = X.ctx.check_point(phi)
    new_entries = dict(transversal.entries)
    for orbit, rep in zip(transversal.orbits, transversal.reps):
        component = X.component(rep)
        if not component.is_transitive():
            raise HypothesisViolation(
                f"component at coordinate {rep} is not transitive on its alphabet",
                delta=rep,
            )
        for d in orbit:
            if d == rep:
                continue
            entry = transversal.entries[d]
            p = phi[d]
            if entry[p] == p:
                continue
            corrected = component.witness(p, entry.inverse()[p]) * entry
            if corrected[p] != p:
                raise RuntimeError("internal invariant: corrected entry moves point")
            new_entries[d] = corrected
    return Transversal(
        transversal.orbits, transversal.reps, new_entries, transversal.rep_of
    )


@dataclass
class NormalizationResult:
    """Base element x with the conjugate X^x and its per-orbit certificate.

    ``component_flags[d]`` records that the component of X^x at d equals,
    as a group, the component of X at the representative r of d's orbit.
    It is exact both ways: the component at d is the one at r conjugated
    by the conjugate's entry transversal at r, so an entry inside the
    equal components at r proves it; otherwise ``same_group`` decides at d.
    ``common_components`` maps each representative to that common value,
    presented by the conjugate's component generators at the
    representative.
    """

    x: WreathElement
    conjugated: WreathSubgroup
    transversal: Transversal
    component_flags: dict[int, bool]
    common_components: dict[int, GenGroup]
    fixes_point: bool | None

    @property
    def ok(self) -> bool:
        flags_ok = all(self.component_flags.values())
        return flags_ok and (self.fixes_point is None or self.fixes_point)


def conjugate_subgroup(X: WreathSubgroup, x: WreathElement) -> WreathSubgroup:
    """The subgroup generated by x^-1 g x over the generators g of X."""
    if x.ctx != X.ctx:
        raise DegreeMismatchError("conjugating element lives in a different context")
    x_inv = x.inverse()
    return WreathSubgroup(X.ctx, tuple(x_inv * g * x for g in X.generators))


def normalizing_element(
    X: WreathSubgroup,
    phi: Point | None = None,
    preferred_reps: tuple[int, ...] = (),
) -> NormalizationResult:
    """Base element x making the components of X^x constant on each orbit.

    x is ``Transversal.x`` of ``build_transversal(X, preferred_reps)``,
    passed through ``adjust_transversal`` when ``phi`` is given: then every
    component must be transitive and x fixes ``phi``. The certificate needs
    no enumeration cap and no chain per coordinate: with R the component of
    X at the representative r and u' the conjugate's
    ``entry_transversal(r)``, the component of X^x at d is the one at r
    conjugated by u'[d]. x's entry at r is the identity, so the conjugate's
    component generators at r equal R's and ``same_group`` takes its fast
    path; u'[d] is the identity, or with ``phi`` the inverse of a correcting
    element of R, sifted into R's chain. A u'[d] outside R, which the
    construction never makes, falls back to ``same_group`` at d.
    """
    transversal = build_transversal(X, preferred_reps)
    if phi is not None:
        transversal = adjust_transversal(X, transversal, phi)
    x = transversal.x
    conjugated = conjugate_subgroup(X, x)

    component_flags: dict[int, bool] = {}
    common_components: dict[int, GenGroup] = {}
    for orbit, rep in zip(transversal.orbits, transversal.reps):
        reference = X.component(rep)
        common = common_components[rep] = conjugated.component(rep)
        rep_equal = same_group(common, reference)
        u = conjugated.entry_transversal(rep)
        for d in orbit:
            # the component at d is the one at rep conjugated by u[d]
            carried = rep_equal and (u[d].is_identity() or reference.contains(u[d]))
            component_flags[d] = carried or same_group(conjugated.component(d), reference)
    fixes_point = None if phi is None else (x.apply(phi) == phi)
    return NormalizationResult(
        x=x,
        conjugated=conjugated,
        transversal=transversal,
        component_flags=component_flags,
        common_components=common_components,
        fixes_point=fixes_point,
    )


@dataclass
class EmbedCertificate:
    """Sifting record for the containment of conjugated generators in G wr H.

    Each failure names the generator index, whether a base entry or the top
    fell outside, and the offending coordinate for base entries.
    """

    passed: bool
    failures: tuple[tuple[int, str, int | None], ...]


def sift_embedding(
    generators: tuple[WreathElement, ...], G: GenGroup, H: GenGroup
) -> EmbedCertificate:
    """Check every base entry into G and every top into H.

    Base entries are sifted into G's chain. A top that is the identity or
    one of H's generators is in H by construction, which is how
    ``embed_in_wreath`` and ``canonicalize`` build H; any other top is
    sifted into H's chain, so a tampered top still fails exactly, and an
    untampered one builds no chain for H.
    """
    tops = frozenset(H.generators)
    failures: list[tuple[int, str, int | None]] = []
    for k, w in enumerate(generators):
        for d, p in enumerate(w.base):
            if not G.contains(p):
                failures.append((k, "base", d))
        top = w.top
        if not (top in tops or top.is_identity() or H.contains(top)):
            failures.append((k, "top", None))
    return EmbedCertificate(passed=not failures, failures=tuple(failures))


@dataclass
class EmbedResult:
    """Certified embedding X^x <= G wr H for a coordinate-transitive X."""

    G: GenGroup
    H: GenGroup
    x: WreathElement
    conjugated: WreathSubgroup
    delta1: int
    normalization: NormalizationResult
    certificate: EmbedCertificate

    @property
    def ok(self) -> bool:
        return self.certificate.passed and self.normalization.ok


def embed_in_wreath(
    X: WreathSubgroup,
    delta1: int = 0,
    phi: Point | None = None,
) -> EmbedResult:
    """Conjugate X into G wr H, G the component at ``delta1``, H the induced group.

    Requires the induced coordinate action to be transitive. With ``phi``
    supplied, G must additionally be transitive and the conjugating element
    fixes ``phi``. The certificate sifts every base entry of every
    conjugated generator into G. x is a base element, so conjugation keeps
    each generator's top, and that top is a generator of H: tops are
    members by construction and are sifted into H only as a fallback, so
    the only chain built is G's.
    """
    if not 0 <= delta1 < X.ctx.delta_size:
        raise ValueError(f"coordinate {delta1} out of range")
    if not X.is_delta_transitive:
        raise HypothesisViolation(
            "induced action on the coordinates is not transitive"
        )
    G = X.component(delta1)
    H = X.induced_group
    normalization = normalizing_element(X, phi, preferred_reps=(delta1,))
    certificate = sift_embedding(normalization.conjugated.generators, G, H)
    return EmbedResult(
        G=G,
        H=H,
        x=normalization.x,
        conjugated=normalization.conjugated,
        delta1=delta1,
        normalization=normalization,
        certificate=certificate,
    )
