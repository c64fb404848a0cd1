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
point of Pi. Each correction c_d is a BFS witness of that component, so it
is a member by construction. The conjugate's entry transversal at r is
c_d^-1 at d, so the certificate reads each correction there and checks
it against the component's witness table.

When the induced coordinate action is transitive this conjugation lands X
inside G wr H, where G is the component at a chosen coordinate r and H is
the induced group; ``embed_in_wreath`` returns that embedding along with a
membership certificate for every conjugated generator. The conjugate's
BFS at r visits every pair of a coordinate d and a generator, so each base
entry is u'[d]^-1 * s * u'[d^h], with s the identity or a Schreier entry,
that is, one of G's generators, and u'[d] carried into G as above; every
top is one of H's. So the certificate is read off that BFS, with no
stabilizer chain built on anything the construction made, and sifts only
when the reading fails.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DegreeMismatchError, HypothesisViolation
from .perm import GenGroup, Permutation, _compose, _from_images, _invert, same_group
from .components import WreathSubgroup
from .wreath import Point, WreathElement, _from_parts


class Transversal(NamedTuple):
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
    components being transitive); w is the BFS witness
    ``component.witness(phi[d], ...)``, which keeps the result
    deterministic and makes w a member by construction. Representatives,
    and entries that already fix phi[d], are kept.
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
            if d != rep:
                new_entries[d] = _corrected(component, transversal.entries[d], phi[d])
    return Transversal(transversal.orbits, transversal.reps, new_entries, transversal.rep_of)


def _corrected(R: GenGroup, entry: Permutation, p: int) -> Permutation:
    """``entry`` premultiplied by R's BFS witness from p to ``entry^-1[p]``,
    so that it fixes p; an entry that already fixes p is kept."""
    if entry[p] == p:
        return entry
    corrected = R.witness(p, entry.inverse()[p]) * entry
    if corrected[p] != p:
        raise RuntimeError("internal invariant: corrected entry moves point")
    return corrected


class NormalizationResult(NamedTuple):
    """Base element x with the conjugate X^x and its per-orbit certificate.

    ``component_flags[d]`` records that the component of X^x at d equals,
    as a group, the component of X at the representative r of d's orbit.
    It is exact both ways: the component at d is the one at r conjugated
    by the conjugate's entry transversal at r, so equal components at r and
    an entry that is the identity or, with ``phi``, the inverse of a BFS
    witness of the component at r prove it; otherwise ``same_group``
    decides at d.
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
    """The subgroup generated by x^-1 g x over the generators g of X.

    With x = (a, t) and s = t^-1[d], x^-1 g x has top t^-1 * g.top * t and
    entry ``a[s]^-1 * g.base[s] * a[g.top[s]]`` at d: gathers on image
    tuples, and no intermediate wreath element. For a base element x
    (identity top) s is d and the top is g's.
    """
    if x.ctx != X.ctx:
        raise DegreeMismatchError("conjugating element lives in a different context")
    entries = [p.images for p in x.base]
    inverses = list(map(_invert, entries))
    t = x.top.images
    order = _invert(t)
    conjugates = []
    for g in X.generators:
        base, top = g.base, g.top.images
        conjugates.append(_from_parts(
            tuple(
                _from_images(_compose(_compose(inverses[s], base[s].images), entries[top[s]]))
                for s in order
            ),
            _from_images(_compose(_compose(order, top), t)),
        ))
    return WreathSubgroup(X.ctx, tuple(conjugates))


def _carried(R: GenGroup, entry: Permutation, phi: Point | None, d: int) -> bool:
    """Whether the conjugate's transversal entry at d lies in R by
    construction: it is the identity or, with ``phi``, the inverse of R's
    BFS witness from ``phi[d]``."""
    return entry.is_identity() or (phi is not None and R.is_witness(phi[d], entry.inverse()))


def normalizing_element(
    X: WreathSubgroup,
    phi: Point | None = None,
    preferred_reps: tuple[int, ...] = (),
) -> NormalizationResult:
    """Base element x making the components of X^x constant on each orbit.

    x is ``Transversal.x`` of ``build_transversal(X, preferred_reps)``,
    passed through ``adjust_transversal`` when ``phi`` is given: then every
    component must be transitive and x fixes ``phi``. The certificate needs
    no enumeration cap and no stabilizer chain: with R the component of X
    at the representative r and u' the conjugate's ``entry_transversal(r)``,
    the component of X^x at d is the one at r conjugated by u'[d]. x's
    entry at r is the identity, so the conjugate's component generators at
    r equal R's and ``same_group`` takes its fast path; u'[d] is the
    identity, or with ``phi`` the inverse of the correction c_d, which is
    R's BFS witness from ``phi[d]`` and so a member of R by
    ``GenGroup.is_witness``. Only at a u'[d] that is neither, which the
    construction never makes, is the component at d compared with R by
    ``same_group``, the exact answer.
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
            carried = rep_equal and _carried(reference, u[d], phi, d)
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


class EmbedCertificate(NamedTuple):
    """Membership record for the conjugated generators in G wr H.

    Each failure names the generator index, whether a base entry or the top
    fell outside, and the offending coordinate for base entries. A
    certificate read off the conjugate by construction has no failures.
    """

    passed: bool
    failures: tuple[tuple[int, str, int | None], ...]


def sift_embedding(
    generators: tuple[WreathElement, ...], G: GenGroup, H: GenGroup
) -> EmbedCertificate:
    """Check every base entry into G and every top into H, exactly.

    A base entry that is the identity or one of G's generators is a member
    as it stands, and so is a top that is the identity or one of H's
    generators. Every other entry or top is sifted into G's or H's chain,
    so a tampered one fails exactly.
    """
    known = {g.images for g in G.generators}
    known.add(tuple(range(G.degree)))
    tops = frozenset(H.generators)
    failures: list[tuple[int, str, int | None]] = []
    for k, w in enumerate(generators):
        for d, p in enumerate(w.base):
            if not (p.images in known or G.contains(p)):
                failures.append((k, "base", d))
        top = w.top
        if not (top in tops or top.is_identity() or H.contains(top)):
            failures.append((k, "top", None))
    return EmbedCertificate(passed=not failures, failures=tuple(failures))


class EmbedResult(NamedTuple):
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
    fixes ``phi``. The certificate is read off the conjugate with no
    failures when three checks hold: its induced group has H's generators,
    so every top is one of them; its component at ``delta1`` has G's
    generators; and every entry of its ``entry_transversal(delta1)`` is
    carried into G, as ``normalizing_element``'s flags read it. Then the
    BFS behind that transversal, which visits every coordinate under every
    generator, writes each base entry as ``u[d]^-1 * s * u[top[d]]`` with
    s the identity or one of G's generators. The construction always
    passes these checks, so no stabilizer chain is built, with ``phi`` or
    without. Otherwise every entry and top goes to ``sift_embedding``,
    which is exact.
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
    conjugated = normalization.conjugated
    u = conjugated.entry_transversal(delta1)
    if (
        conjugated.induced_group.generators == H.generators
        and conjugated.component(delta1).generators == G.generators
        and all(_carried(G, e, phi, d) for d, e in u.items())
    ):
        certificate = EmbedCertificate(passed=True, failures=())
    else:
        certificate = sift_embedding(conjugated.generators, G, H)
    return EmbedResult(
        G=G,
        H=H,
        x=normalization.x,
        conjugated=conjugated,
        delta1=delta1,
        normalization=normalization,
        certificate=certificate,
    )
