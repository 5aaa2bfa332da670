"""Galois-descent bookkeeping and the certificate pipeline.

The Galois group of k((t)) over k0((t0)) (t an e-th root of t0, k/k0 a
finite extension of cyclotomic fields) acts on the z-line and on the
local Laurent fields through the twisted substitution

    sum a_ij (z - q^sigma)^j t^i  ->  sum zeta^(n_sigma (i-j)) sigma(a_ij) (z - q)^j t^i

where sigma(t) = zeta^n_sigma t and q^sigma = zeta^(n_(sigma^-1)) sigma^-1(q).
The pipeline picks free orbits of rational points, builds one local
block per orbit representative, transports it along the group, verifies
that the twisted maps commute with both derivations and that the
transported family is equivariant, and assembles a certificate that
separates exactly verified identities from cited external theorems.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .checks import CheckRecord, window_check
from .errors import PpvError, UnsupportedGroup, VerificationFailed
from .groups import (
    FiniteCyclic,
    GaSub,
    GmConst,
    GroupSpec,
    closure_of_additive,
    group_eq,
)
from .local_blocks import LocalBlock, fp_membership, make_block, matrix_identity_check
from .matrices import exp_nilpotent, is_unipotent, mat, mat_map
from .ore import OrePoly
from .rationals import Poly, RatFunc, k_const, t_var
from .scalars import Scalar
from .series import TwoVarLaurent, default_order, random_two_var


# ---------------------------------------------------------------------------
# the Galois datum


@dataclass(frozen=True)
class GammaElement:
    """(field automorphism zeta_N -> zeta_N^aut, twist sigma(t) = zeta_e^n t)."""

    aut: int
    n: int

    def is_identity(self) -> bool:
        return self.aut == 1 and self.n == 0

    def label(self) -> str:
        return "sigma(aut=%d,n=%d)" % (self.aut, self.n)


@dataclass(frozen=True)
class GaloisDatum:
    e: int
    field_order: int  # k = Q(zeta_field_order)
    base_order: int  # k0 = Q(zeta_base_order)
    zeta_e: Scalar
    elements: tuple[GammaElement, ...]

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, e: int, field_order: int | None = None, base_order: int = 1,
              generators=()) -> "GaloisDatum":
        if e < 1:
            raise ValueError("ramification index must be >= 1")
        if field_order is None:
            field_order = 1 if e <= 2 else e
        if field_order % base_order:
            raise ValueError("base field must embed into the upper field")
        zeta_e = _zeta_e(e, field_order)
        gens = [GammaElement(1, 0)]
        for aut, n in generators:
            if math.gcd(aut, field_order) != 1:
                raise ValueError("automorphism exponent %d not coprime to %d" % (aut, field_order))
            if aut % base_order != 1 % base_order:
                raise ValueError("automorphism must fix the base cyclotomic field")
            gens.append(GammaElement(aut % field_order if field_order > 1 else 1, n % e))
        if e > 1:
            gens.append(GammaElement(1, 1))  # inertia: t -> zeta_e * t
        elements = _closure(gens, field_order, e)
        return cls(e, field_order, base_order, zeta_e, elements)

    @classmethod
    def trivial(cls, field_order: int = 1) -> "GaloisDatum":
        return cls.build(1, field_order=field_order)

    @classmethod
    def ramified(cls, e: int, field_order: int | None = None) -> "GaloisDatum":
        """Pure ramification: k = k0, t an e-th root of t0."""
        return cls.build(e, field_order=field_order)

    # -- group structure ---------------------------------------------------

    def compose(self, a: GammaElement, b: GammaElement) -> GammaElement:
        n_new = (_reduce_aut(a.aut, self.e) * b.n + a.n) % self.e
        aut_new = (a.aut * b.aut) % self.field_order if self.field_order > 1 else 1
        return GammaElement(aut_new if aut_new else self.field_order, n_new)

    def identity(self) -> GammaElement:
        return GammaElement(1, 0)

    def inverse(self, g: GammaElement) -> GammaElement:
        for h in self.elements:
            if self.compose(g, h).is_identity():
                return h
        raise PpvError("group table is not closed: no inverse for %r" % (g,))

    def order(self) -> int:
        return len(self.elements)

    def expected_order(self) -> int:
        from .scalars import euler_phi

        return euler_phi(self.field_order) // euler_phi(self.base_order) * self.e

    # -- actions -----------------------------------------------------------

    def act_scalar(self, g: GammaElement, s: Scalar) -> Scalar:
        s = s.promote(self.field_order) if self.field_order % s.order == 0 else s
        if g.aut == 1 or s.order == 1:
            return s
        return s.galois(g.aut)

    def act_k(self, g: GammaElement, f: RatFunc) -> RatFunc:
        """sigma on K = k(t): t -> zeta_e^n t, scalars through the automorphism."""
        if f.var != "t":
            raise ValueError("expected an element of the parameter field")

        def on_poly(p: Poly) -> Poly:
            zp = self.zeta_e ** g.n
            out = []
            power = zp**0
            for i in range(p.degree() + 1):
                out.append(self.act_scalar(g, p.coeff(i)) * power)
                power = power * zp
            return Poly("t", out, p.czero)

        return RatFunc(on_poly(f.num), on_poly(f.den))

    def act_operator(self, g: GammaElement, l: OrePoly) -> OrePoly:
        return OrePoly([self.act_k(g, c) for c in l.coeffs], l.czero, l.e)

    def act_group(self, g: GammaElement, spec: GroupSpec) -> GroupSpec:
        if isinstance(spec, GaSub):
            return GaSub(self.act_operator(g, spec.operator))
        if isinstance(spec, (FiniteCyclic, GmConst)):
            return spec
        raise UnsupportedGroup("no transport rule for %s" % type(spec).__name__)


def _zeta_e(e: int, field_order: int) -> Scalar:
    if e == 1:
        return Scalar.from_rational(1, field_order)
    if e == 2:
        return Scalar.from_rational(-1, field_order)
    if field_order % e == 0:
        return Scalar.zeta(field_order) ** (field_order // e)
    raise ValueError(
        "field order %d does not contain a primitive %d-th root of unity" % (field_order, e)
    )


def _reduce_aut(aut: int, e: int) -> int:
    return aut % e if e > 1 else 0


def _closure(gens, field_order: int, e: int) -> tuple[GammaElement, ...]:
    datum = GaloisDatum(e, field_order, 1, _zeta_e(e, field_order), ())
    seen = {GammaElement(1, 0)}
    frontier = list(seen | set(gens))
    while frontier:
        new = []
        for a in frontier:
            for b in list(seen) + gens:
                c = datum.compose(a, b)
                if c not in seen:
                    seen.add(c)
                    new.append(c)
        frontier = new
    return tuple(sorted(seen, key=lambda g: (g.aut, g.n)))


# ---------------------------------------------------------------------------
# action on points and orbits


@dataclass(frozen=True)
class PointOrbit:
    representative: Scalar
    points: tuple[Scalar, ...]
    stabilizer_trivial: bool


def act_on_point(gd: GaloisDatum, g: GammaElement, q: Scalar) -> Scalar:
    """Image of the point z = q: zeta^(n of the inverse) * sigma^-1(q)."""
    ginv = gd.inverse(g)
    return gd.zeta_e**ginv.n * gd.act_scalar(ginv, q)


def find_free_orbits(gd: GaloisDatum, count: int) -> list[PointOrbit]:
    """Scan q = 1, 2, 3, ... for disjoint orbits of full size |Gamma|.

    All but finitely many rational points work for a genuine datum, so a
    generous scan bound only triggers when the stored action is
    degenerate (e.g. a corrupted root of unity collapsing orbits).
    """
    orbits: list[PointOrbit] = []
    used: set[Scalar] = set()
    candidate = 0
    bound = 100 * count * gd.order() + 100
    while len(orbits) < count:
        candidate += 1
        if candidate > bound:
            raise VerificationFailed(
                "no %d free orbits among the first %d rational points: "
                "the point action is degenerate" % (count, bound)
            )
        q = Scalar.from_rational(candidate, gd.field_order)
        # dict keys keep the first image of each point, in group order
        points = tuple(dict.fromkeys(act_on_point(gd, g, q) for g in gd.elements))
        if len(points) != gd.order() or not used.isdisjoint(points):
            continue
        orbits.append(PointOrbit(q, points, True))
        used.update(points)
    return orbits


# ---------------------------------------------------------------------------
# twisted maps on local series


def twisted_transport(zeta_e: Scalar, e: int, n: int, act_coeff, elem: TwoVarLaurent,
                      q_target: Scalar) -> TwoVarLaurent:
    """The raw twisted substitution, decoupled from the point bookkeeping.

    Sends sum a_ij (z - q_src)^j t^i to sum zeta^(n(i-j)) act(a_ij) (z - q_target)^j t^i.
    Exposed separately so the twist formula itself can be exercised (and
    mutated) against independently chosen source and target points.
    """
    out = {}
    for i, inner in elem.coeffs.items():
        new_inner = {}
        for j, c in inner.coeffs.items():
            tw = zeta_e ** (((n * (i - j)) % e + e) % e) if e > 1 else zeta_e**0
            new_inner[j] = tw * act_coeff(c)
        out[i] = type(inner)("w", new_inner, inner.trunc)
    return TwoVarLaurent(q_target, out, elem.trunc)


def sigma_map(gd: GaloisDatum, g: GammaElement, elem: TwoVarLaurent) -> TwoVarLaurent:
    """Transport a series at the sigma-image point back to the point itself.

    The input lives at act_on_point(g, q) and the output at q; the
    coefficient of (z-q)^j t^i picks up zeta^(n_sigma (i-j)).
    """
    q_target = act_on_point(gd, gd.inverse(g), elem.q)
    return twisted_transport(
        gd.zeta_e, gd.e, g.n, lambda c: gd.act_scalar(g, c), elem, q_target
    )


def sigma_map_matrix(gd: GaloisDatum, g: GammaElement, m: tuple) -> tuple:
    return mat_map(m, lambda entry: sigma_map(gd, g, entry))


@dataclass(frozen=True)
class Transcript:
    name: str
    passed: bool
    samples: int
    coefficients_compared: int
    order: tuple
    failures: tuple = ()


def _sampled_commutation(name: str, gd: GaloisDatum, g: GammaElement, move, derivations,
                         samples: int, order: int | None, seed: int,
                         probe_point: int) -> Transcript:
    """move o d = d o move on random series at the source point of g.

    move(u, q) carries a series from the source point of g to the probe
    point q; derivations are (tag, d) pairs.
    """
    order = default_order() if order is None else order
    rng = random.Random(seed)
    q_target = Scalar.from_rational(probe_point, gd.field_order)
    q_source = act_on_point(gd, g, q_target)
    compared = 0
    failures = []
    for i in range(samples):
        f = random_two_var(rng, q_source, order, order)
        for tag, deriv in derivations:
            rec = window_check(tag, move(deriv(f), q_target), deriv(move(f, q_target)), order)
            compared += rec.coefficients_compared
            if not rec.passed:
                failures.append("sample %d, %s: %s" % (i, tag, rec.note))
    return Transcript(name, not failures, samples, compared, (order, order),
                      tuple(failures[:5]))


def verify_sigma_commutes(gd: GaloisDatum, g: GammaElement, samples: int = 100,
                          order: int | None = None, seed: int = 0,
                          probe_point: int = 1) -> Transcript:
    """sigma o d = d o sigma for both derivations, on random local series."""
    return _sampled_commutation(
        "sigma commutes with both derivations (%s)" % g.label(), gd, g,
        lambda u, _q: sigma_map(gd, g, u),
        (("dx", lambda u: u.dx()), ("dt0", lambda u: u.dt0(gd.e))),
        samples, order, seed, probe_point,
    )


def twist_mutation_detected(gd: GaloisDatum, g: GammaElement, bad_zeta: Scalar,
                            samples: int = 20, order: int | None = None,
                            seed: int = 0, probe_point: int = 1) -> Transcript:
    """Mutation oracle: a wrong twist root must break dt0-commutation.

    Runs the raw transport formula with bad_zeta between the true source
    and target points of g and reports whether at least one sample fails
    to commute with dt0; the transcript passes when the corruption is
    detected.
    """
    tr = _sampled_commutation(
        "corrupted twist root detected by dt0-commutation", gd, g,
        lambda u, q: twisted_transport(bad_zeta, gd.e, g.n, lambda c: gd.act_scalar(g, c), u, q),
        (("dt0", lambda u: u.dt0(gd.e)),),
        samples, order, seed, probe_point,
    )
    if tr.passed:
        return replace(tr, passed=False, failures=("no sample exposed the corrupted twist",))
    return replace(tr, passed=True, failures=())


def verify_equivariance(gd: GaloisDatum, blocks: dict, orbit: PointOrbit,
                        order: int | None = None) -> Transcript:
    """Check sigma(Y at the sigma-image point) equals Y at each point."""
    order = default_order() if order is None else order
    compared = 0
    failures = []
    for g in gd.elements:
        for q in orbit.points:
            src = act_on_point(gd, g, q)
            moved = sigma_map_matrix(gd, g, blocks[src].fundamental_matrix)
            y_tgt = blocks[q].fundamental_matrix
            for i, row in enumerate(moved):
                for j, entry in enumerate(row):
                    rec = window_check("equivariance", entry, y_tgt[i][j], order)
                    compared += rec.coefficients_compared
                    if not rec.passed:
                        failures.append(
                            "%s at point %r, entry (%d,%d): %s" % (g.label(), q, i, j, rec.note)
                        )
    return Transcript("equivariance of the transported family", not failures,
                      len(gd.elements) * len(orbit.points), compared, (order, order),
                      tuple(failures[:5]))


def transport_orbit(gd: GaloisDatum, rep_block: LocalBlock, orbit: PointOrbit) -> dict:
    """point -> block on the orbit: rep_block and its transports; raises
    VerificationFailed unless they cover exactly the orbit's points."""
    blocks = {orbit.representative: rep_block}
    for g in gd.elements:
        if not g.is_identity():
            moved = transport_block(gd, g, rep_block)
            blocks[moved.q] = moved
    if blocks.keys() != set(orbit.points):
        raise VerificationFailed("transport did not cover the orbit")
    return blocks


def transport_block(gd: GaloisDatum, g: GammaElement, block: LocalBlock) -> LocalBlock:
    """The block at act_on_point(g^-1, q), with re-verified identities."""
    y = sigma_map_matrix(gd, g, block.fundamental_matrix)
    a = sigma_map_matrix(gd, g, block.equation_matrix)
    checks = [matrix_identity_check(y, a, block.order)]
    witnesses = tuple(
        (label, sigma_map(gd, g, el), sigma_map(gd, g, cl))
        for label, el, cl in block.witnesses
    )
    checks.extend(
        fp_membership(el, cl, label + " (transported)", block.order)
        for label, el, cl in witnesses
    )
    h_new = gd.act_k(g, block.h) if block.h is not None else None
    group_new = gd.act_group(g, block.claimed_group)
    moved = replace(
        block,
        q=y[0][0].q,
        fundamental_matrix=y,
        equation_matrix=a,
        claimed_group=group_new,
        checks=tuple(checks),
        h=h_new,
        transported_by=g.label(),
        witnesses=witnesses,
    )
    bad = [c for c in moved.checks if not c.passed]
    if bad:
        raise VerificationFailed("transported block fails re-verification: %r" % (bad,))
    return moved


# ---------------------------------------------------------------------------
# decomposition data and the criterion pipeline


@dataclass(frozen=True)
class DecompositionPart:
    """One generating subgroup with the data needed to build its block."""

    group: GroupSpec
    kind: str  # "cyclic" | "ga" | "gm_const"
    h: RatFunc | None = None
    r: int | None = None
    embedding: tuple | None = None
    representation: str = ""


@dataclass(frozen=True)
class Assumption:
    kind: str  # density | patching | adjustment | descent
    statement: str


ASSUMPTIONS = (
    Assumption(
        "density",
        "the listed subgroups generate a Kolchin-dense subgroup of the target "
        "group over the algebraic closure; supplied as input, not verified "
        "computationally",
    ),
    Assumption(
        "patching",
        "a fundamental solution matrix over the open-patch field exists and "
        "glues the verified local blocks (external patching-over-fields theorem)",
    ),
    Assumption(
        "adjustment",
        "some change of basis over the global function field makes the glued "
        "fundamental matrix Galois-invariant (external equivariance theorem)",
    ),
    Assumption(
        "descent",
        "an invariant fundamental matrix generates a Picard-Vessiot ring over "
        "the fixed base field realizing the descended group (Galois descent)",
    ),
)


@dataclass(frozen=True)
class Certificate:
    schema_version: str
    group: GroupSpec
    decomposition: tuple[DecompositionPart, ...]
    galois: GaloisDatum
    orbits: tuple[PointOrbit, ...]
    blocks: tuple  # ((point, LocalBlock), ...) in orbit order
    transcripts: tuple[Transcript, ...]
    completeness: tuple[CheckRecord, ...]
    assumptions: tuple[Assumption, ...]
    order: int

    def all_exact_checks_passed(self) -> bool:
        blocks_ok = all(blk.all_passed() for _, blk in self.blocks)
        return (
            blocks_ok
            and all(t.passed for t in self.transcripts)
            and all(c.passed for c in self.completeness)
        )


def _validate_part(part: DecompositionPart):
    if part.kind == "ga":
        if part.h is None or part.h.is_zero():
            raise UnsupportedGroup("additive part needs a nonzero element h")
        if not isinstance(part.group, GaSub):
            raise UnsupportedGroup("additive part must claim a Ga subgroup")
    elif part.kind == "cyclic":
        if part.r is None or not isinstance(part.group, FiniteCyclic) or part.group.order != part.r:
            raise UnsupportedGroup("cyclic part needs matching r and FiniteCyclic spec")
    elif part.kind == "gm_const":
        if not isinstance(part.group, GmConst):
            raise UnsupportedGroup("constants part must claim GmConst")
    else:
        raise UnsupportedGroup(
            "unsupported part kind %r: the local repertoire is cyclic, ga, gm_const" % part.kind
        )


def run_criterion(group: GroupSpec, decomposition, gd: GaloisDatum,
                  order: int | None = None, samples: int = 100,
                  seed: int = 0) -> Certificate:
    """Run the full local-to-global pipeline and emit a certificate.

    Builds one verified block per decomposition part at an orbit
    representative, transports along the Galois group, verifies the
    twisted maps are differential isomorphisms and the family is
    equivariant, and records the four theorem appeals that bridge the
    exact checks to the realization statement.
    """
    order = default_order() if order is None else order
    parts = tuple(decomposition)
    for part in parts:
        _validate_part(part)
    orbits = find_free_orbits(gd, len(parts))
    all_blocks: list[tuple[Scalar, LocalBlock]] = []
    transcripts: list[Transcript] = []
    completeness: list[CheckRecord] = []

    for g in gd.elements:
        if not g.is_identity():
            tr = verify_sigma_commutes(gd, g, samples=samples, order=order, seed=seed)
            transcripts.append(tr)
            if not tr.passed:
                raise VerificationFailed("twisted map fails to commute: %s" % (tr.failures,))

    for part, orbit in zip(parts, orbits):
        rep_block = make_block(part.kind, orbit.representative, gd.e, order, r=part.r, h=part.h)
        orbit_blocks = transport_orbit(gd, rep_block, orbit)
        tr = verify_equivariance(gd, orbit_blocks, orbit, order=order)
        transcripts.append(tr)
        if not tr.passed:
            raise VerificationFailed("equivariance fails: %s" % (tr.failures,))
        completeness.append(_conjugation_check(gd, part, orbit_blocks, orbit))
        for q in orbit.points:
            all_blocks.append((q, orbit_blocks[q]))

    cert = Certificate(
        schema_version="1",
        group=group,
        decomposition=parts,
        galois=gd,
        orbits=tuple(orbits),
        blocks=tuple(all_blocks),
        transcripts=tuple(transcripts),
        completeness=tuple(completeness),
        assumptions=ASSUMPTIONS,
        order=order,
    )
    if not cert.all_exact_checks_passed():
        raise VerificationFailed("certificate assembled with failing exact checks")
    return cert


def _conjugation_check(gd: GaloisDatum, part: DecompositionPart, blocks: dict,
                       orbit: PointOrbit) -> CheckRecord:
    """Each transported block claims exactly the sigma-image of the part.

    For additive parts the expected group is recomputed independently as
    the closure of the sigma-image of h, so the transported operator and
    the closure-of-transported-element routes must agree.
    """
    ok = True
    notes = []
    for g in gd.elements:
        q = act_on_point(gd, gd.inverse(g), orbit.representative)
        blk = blocks[q]
        if part.kind == "ga" and part.h is not None:
            expected = closure_of_additive(gd.act_k(g, part.h), gd.e)
        else:
            expected = gd.act_group(g, part.group)
        if not group_eq(blk.claimed_group, expected):
            ok = False
            notes.append("mismatch at %r under %s" % (q, g.label()))
    return CheckRecord(
        "claimed groups are the sigma-conjugates of the part",
        ok,
        0,
        0,
        len(gd.elements),
        "; ".join(notes),
    )


# ---------------------------------------------------------------------------
# unipotent generators and root-subgroup recipes


def unipotent_generator_part(g_matrix: tuple, nilpotent: tuple, c: RatFunc,
                             representation: str = "") -> DecompositionPart:
    """Verified reduction of a unipotent generator to an additive part.

    The caller supplies the one-parameter embedding exp(c*E) together
    with the nilpotent E and the coordinate c; the function verifies the
    matrix is unipotent and matches the embedding, then takes the
    closure of c inside the additive coordinate.
    """
    one = c.one_like()
    if not is_unipotent(g_matrix, one):
        raise UnsupportedGroup("supplied generator is not unipotent")
    rebuilt = exp_nilpotent(nilpotent, c, one)
    if rebuilt != mat(g_matrix):
        raise UnsupportedGroup("generator does not match exp(c * E) for the supplied data")
    return DecompositionPart(
        group=closure_of_additive(c),
        kind="ga",
        h=c,
        embedding=mat(nilpotent),
        representation=representation,
    )


def root_subgroup_parts(embeddings, order: int = 1) -> list[DecompositionPart]:
    """Three additive parts per root subgroup, with coordinates 1, t, -1/t."""
    t = t_var(order)
    coords = (k_const(1, order), t, -(t.inv()))
    parts = []
    for idx, nil in enumerate(embeddings):
        one = k_const(1, order)
        for c in coords:
            g = exp_nilpotent(mat(nil), c, one)
            parts.append(
                unipotent_generator_part(g, mat(nil), c, representation="root subgroup %d" % idx)
            )
    return parts


def standard_sl2_decomposition(order: int = 1) -> tuple[GroupSpec, list[DecompositionPart]]:
    """The classical four-part decomposition of SL2 by unipotent subgroups.

    Upper and lower triangular one-parameter subgroups with coordinates
    killed by Dt, t*Dt - 1 and t*Dt + 1; the generated group is the full
    SL2 (a density input, recorded as an assumption in certificates).
    """
    one = k_const(1, order)
    zero = one.zero_like()
    t = t_var(order)
    upper = mat([[zero, one], [zero, zero]])
    lower = mat([[zero, zero], [one, zero]])
    parts = [
        DecompositionPart(closure_of_additive(one), "ga", h=one, embedding=upper,
                          representation="upper triangular"),
        DecompositionPart(closure_of_additive(one), "ga", h=one, embedding=lower,
                          representation="lower triangular"),
        DecompositionPart(closure_of_additive(t), "ga", h=t, embedding=upper,
                          representation="upper triangular"),
        DecompositionPart(closure_of_additive(t.inv()), "ga", h=t.inv(), embedding=lower,
                          representation="lower triangular"),
    ]
    from .groups import Generated, GeneratedPart

    group = Generated(
        tuple(GeneratedPart(p.group, p.embedding, p.representation) for p in parts)
    )
    return group, parts
