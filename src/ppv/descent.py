"""Galois-descent bookkeeping and the certificate pipeline.

The Galois group of k((t)) over k0((t0)) (t an e-th root of t0, k/k0 a
finite extension of cyclotomic fields) acts on the z-line and on the
local Laurent fields through the twisted substitution

    sum a_ij (z - q^sigma)^j t^i  ->  sum zeta^(n_sigma (i-j)) sigma(a_ij) (z - q)^j t^i

where sigma(t) = zeta^n_sigma t and q^sigma = zeta^(n_(sigma^-1)) sigma^-1(q).
The pipeline picks free orbits of points (rational, or c + zeta_N when
Gamma moves k), builds one local block per orbit representative,
transports it along the group, verifies that the twisted maps commute
with both derivations and that the transported family is equivariant,
and assembles a certificate that separates exactly verified identities
from cited external theorems.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import zip_longest

from .checks import CheckRecord, window_check
from .errors import PpvError, UnsupportedGroup, VerificationFailed
from .groups import (
    FiniteCyclic,
    GaSub,
    Generated,
    GeneratedPart,
    GmConst,
    GroupSpec,
    closure_of_additive,
    group_eq,
)
from .local_blocks import LocalBlock, fp_membership, make_block, matrix_identity_check
from .matrices import exp_nilpotent, mat, mat_is_zero, mat_map, mat_pow
from .ore import OrePoly
from .rationals import Poly, RatFunc, k_const, t_var
from .scalars import Scalar
from .series import DEFAULT_ORDER, TwoVarLaurent, random_two_var


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
    """The Galois group Gamma of k((t)) over k0((t0)), t^e = t0.

    k = Q(zeta_N) with N = field_order, k0 = Q(zeta_base_order).  Gamma is
    H x| Z/e: every (aut, n) with aut in the subgroup H of units mod N that
    the generators' automorphisms generate and n in Z/e, listed sorted by
    (aut, n).  The inertia element t -> zeta_e t gives every twist n, and
    sigma_aut scales a twist by aut mod e, so a generator's own twist does
    not change Gamma.  zeta_e must lie in k: e | N, or e <= 2.  Every action
    reads zeta_e^k from twists, derived from zeta_e and not a field.
    """

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
        auts = []
        for aut, _n in generators:
            if math.gcd(aut, field_order) != 1:
                raise ValueError("automorphism exponent %d not coprime to %d" % (aut, field_order))
            if aut % base_order != 1 % base_order:
                raise ValueError("automorphism must fix the base cyclotomic field")
            auts.append(_unit(aut, field_order))
        units = {1}
        while True:
            grown = units | {_unit(u * a, field_order) for u in units for a in auts}
            if grown == units:
                break
            units = grown
        elements = tuple(GammaElement(a, n) for a in sorted(units) for n in range(e))
        return cls(e, field_order, base_order, zeta_e, elements)

    @classmethod
    def trivial(cls) -> "GaloisDatum":
        return cls.build(1)

    @classmethod
    def ramified(cls, e: int) -> "GaloisDatum":
        """Pure ramification: k = k0, t an e-th root of t0."""
        return cls.build(e)

    # -- group structure ---------------------------------------------------

    def compose(self, a: GammaElement, b: GammaElement) -> GammaElement:
        r = _reduce_aut(a.aut, self.e, self.field_order)
        return GammaElement(_unit(a.aut * b.aut, self.field_order), (r * b.n + a.n) % self.e)

    def identity(self) -> GammaElement:
        return GammaElement(1, 0)

    def inverse(self, g: GammaElement) -> GammaElement:
        aut = _unit(pow(g.aut, -1, self.field_order), self.field_order)
        return GammaElement(aut, -_reduce_aut(aut, self.e, self.field_order) * g.n % self.e)

    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def twists(self) -> tuple[Scalar, ...]:
        return twist_table(self.zeta_e, self.e)

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
            return Poly("t", [self.act_scalar(g, c) * self.twists[g.n * i % self.e]
                              for i, c in enumerate(p.coeffs)], p.czero)

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
        "ramification index %d needs e | N or e <= 2 for the field order N = %d"
        % (e, field_order)
    )


def twist_table(zeta_e: Scalar, e: int) -> tuple[Scalar, ...]:
    """(zeta_e^0, ..., zeta_e^(e-1)); a zero root would zero out coefficients."""
    if zeta_e.is_zero():
        raise ValueError("the twist root must be nonzero")
    out = [zeta_e.one_like()]
    for _ in range(1, e):
        out.append(out[-1] * zeta_e)
    return tuple(out)


def _unit(aut: int, field_order: int) -> int:
    """aut as a unit mod N; the one unit mod 1 is written 1."""
    return aut % field_order if field_order > 1 else 1


def _reduce_aut(aut: int, e: int, field_order: int) -> int:
    # m with sigma(zeta_e) = zeta_e^m; if e does not divide N, zeta_e = +-1 is rational
    return aut % e if field_order % e == 0 else 1


# ---------------------------------------------------------------------------
# action on points and orbits


@dataclass(frozen=True)
class PointOrbit:
    representative: Scalar
    points: tuple[Scalar, ...]
    stabilizer_trivial: bool


def act_on_point(gd: GaloisDatum, g: GammaElement, q: Scalar) -> Scalar:
    """Image of the point z = q: zeta^(n of the inverse) * sigma^-1(q)."""
    return _point_under(gd, gd.inverse(g), q)


def _point_under(gd: GaloisDatum, g: GammaElement, q: Scalar) -> Scalar:
    """zeta_e^n * sigma(q): act_on_point at the inverse of g, with no inversion."""
    return gd.twists[g.n % gd.e] * gd.act_scalar(g, q)


def find_free_orbits(gd: GaloisDatum, count: int) -> list[PointOrbit]:
    """Scan points q for disjoint orbits of full size |Gamma|.

    A field automorphism fixes every rational point, so when some element
    of Gamma moves k the scan runs over q = c + zeta_N (N the field
    order), c = 1, 2, 3, ...; otherwise over the rational points q = c.
    All but finitely many of these points work for a genuine datum, so a
    generous scan bound only triggers when the stored action is
    degenerate (e.g. a corrupted root of unity collapsing orbits).
    """
    moves_field = any(g.aut != 1 for g in gd.elements)
    orbits: list[PointOrbit] = []
    used: set[Scalar] = set()
    candidate = 0
    bound = 100 * count * gd.order() + 100
    while len(orbits) < count:
        candidate += 1
        if candidate > bound:
            raise VerificationFailed(
                "no %d free orbits among the points q = %s for c = 1..%d: "
                "the point action is degenerate"
                % (count, "c + zeta_%d" % gd.field_order if moves_field else "c", bound)
            )
        q = Scalar.from_rational(candidate, gd.field_order)
        if moves_field:
            q = q + Scalar.zeta(gd.field_order)
        # dict keys keep the first image of each point, in group order
        points = tuple(dict.fromkeys(act_on_point(gd, g, q) for g in gd.elements))
        if len(points) != gd.order() or not used.isdisjoint(points):
            continue
        orbits.append(PointOrbit(q, points, True))
        used.update(points)
    return orbits


# ---------------------------------------------------------------------------
# twisted maps on local series


def twisted_transport(twists: tuple, n: int, act_coeff, elem: TwoVarLaurent,
                      q_target: Scalar) -> TwoVarLaurent:
    """The raw twisted substitution, decoupled from the point bookkeeping.

    Sends sum a_ij (z - q_src)^j t^i to sum twists[n(i-j) mod e] act(a_ij) (z - q_target)^j t^i,
    e = len(twists).  Exposed separately so the twist formula itself can be
    exercised (and mutated) against independently chosen source and target
    points.  twists is a twist_table, whose root is nonzero, and act_coeff
    a field automorphism, so every stored coefficient maps to a nonzero one.
    """
    e = len(twists)
    out = {}
    for i, inner in elem.coeffs.items():
        out[i] = type(inner).from_nonzero(
            "w", {j: twists[n * (i - j) % e] * act_coeff(c) for j, c in inner.coeffs.items()},
            inner.trunc)
    return TwoVarLaurent(q_target, out, elem.trunc)


def sigma_map(gd: GaloisDatum, g: GammaElement, elem: TwoVarLaurent) -> TwoVarLaurent:
    """Transport a series at the sigma-image point back to the point itself.

    The input lives at act_on_point(g, q) and the output at q; the
    coefficient of (z-q)^j t^i picks up zeta^(n_sigma (i-j)).
    """
    q_target = _point_under(gd, g, elem.q)
    return twisted_transport(gd.twists, g.n, lambda c: gd.act_scalar(g, c), elem, q_target)


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
                         samples: int, order: int, seed: int) -> Transcript:
    """move o d = d o move on random series at the source point of g.

    move(u, q) carries a series from the source point of g to the probe
    point q = 1; derivations are (tag, d) pairs.
    """
    if samples < 1:
        raise PpvError("a sampled commutation check needs at least one sample")
    rng = random.Random(seed)
    q_target = Scalar.from_rational(1, gd.field_order)
    q_source = act_on_point(gd, g, q_target)
    compared = 0
    failures = []
    for i in range(samples):
        f = random_two_var(rng, q_source, order, order)
        moved = move(f, q_target)
        for tag, deriv in derivations:
            rec = window_check(tag, move(deriv(f), q_target), deriv(moved), order)
            compared += rec.coefficients_compared
            if not rec.passed:
                failures.append("sample %d, %s: %s" % (i, tag, rec.note))
    return Transcript(name, not failures, samples, compared, (order, order),
                      tuple(failures[:5]))


def verify_sigma_commutes(gd: GaloisDatum, g: GammaElement, samples: int = 100,
                          order: int = DEFAULT_ORDER, seed: int = 0) -> Transcript:
    """sigma o d = d o sigma for both derivations, on random local series."""
    return _sampled_commutation(
        "sigma commutes with both derivations (%s)" % g.label(), gd, g,
        lambda u, _q: sigma_map(gd, g, u),
        (("dx", lambda u: u.dx()), ("dt0", lambda u: u.dt0(gd.e))),
        samples, order, seed,
    )


def twist_mutation_detected(gd: GaloisDatum, g: GammaElement, bad_zeta: Scalar,
                            samples: int = 20, order: int = DEFAULT_ORDER,
                            seed: int = 0) -> Transcript:
    """Mutation oracle: a wrong twist root must break dt0-commutation.

    Runs the raw transport formula with bad_zeta between the true source
    and target points of g and reports whether at least one sample fails
    to commute with dt0; the transcript passes when the corruption is
    detected.  bad_zeta must be nonzero (see twist_table).
    """
    bad = twist_table(bad_zeta, gd.e)
    tr = _sampled_commutation(
        "corrupted twist root detected by dt0-commutation", gd, g,
        lambda u, q: twisted_transport(bad, g.n, lambda c: gd.act_scalar(g, c), u, q),
        (("dt0", lambda u: u.dt0(gd.e)),),
        samples, order, seed,
    )
    if tr.passed:
        return replace(tr, passed=False, failures=("no sample exposed the corrupted twist",))
    return replace(tr, passed=True, failures=())


def verify_equivariance(gd: GaloisDatum, blocks: dict, orbit: PointOrbit,
                        order: int = DEFAULT_ORDER) -> Transcript:
    """Check sigma(Y at the sigma-image point) equals Y at each point."""
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
                            "%s at point %s, entry (%d,%d): %s" % (g.label(), q, i, j, rec.note)
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
    bad = [c.name for c in checks if not c.passed]
    if bad:
        raise VerificationFailed("transported block at %s fails re-verification: %s"
                                 % (y[0][0].q, "; ".join(bad)))
    return replace(
        block,
        q=y[0][0].q,
        fundamental_matrix=y,
        equation_matrix=a,
        h=gd.act_k(g, block.h) if block.h is not None else None,
        claimed_group=gd.act_group(g, block.claimed_group),
        checks=tuple(checks),
        transported_by=g.label(),
        witnesses=witnesses,
    )


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


def _validate(group: GroupSpec, parts: tuple, gd: GaloisDatum):
    """Each part is one a block builder verifies, and the target names exactly the parts.

    When some element of Gamma moves k = Q(zeta_N), every Scalar of a
    part's h, embedding and additive operator must be written in a field
    Q(zeta_M) with M | N: sigma is an automorphism of k, and its extension
    to a larger field is not part of the datum.
    """
    moves_field = any(g.aut != 1 for g in gd.elements)
    for i, part in enumerate(parts):
        if part.kind == "ga":
            if part.h is None or part.h.is_zero():
                raise UnsupportedGroup("part %d: additive part needs a nonzero element h" % i)
            # the closure of h is Ga^L for the order-one L with L(h) = 0, unique up to a unit
            op = part.group.operator if isinstance(part.group, GaSub) else None
            if op is None or op.order() != 1 or not op.apply(part.h).is_zero():
                raise UnsupportedGroup("part %d: additive part must claim Ga^L with L of order 1 "
                                       "and L(h) = 0" % i)
        elif part.kind == "cyclic":
            if not (isinstance(part.group, FiniteCyclic) and part.group.order == part.r):
                raise UnsupportedGroup("part %d: cyclic part must claim FiniteCyclic(r)" % i)
        elif part.kind == "gm_const":
            if not isinstance(part.group, GmConst):
                raise UnsupportedGroup("part %d: constants part must claim GmConst" % i)
        else:
            raise UnsupportedGroup("part %d: unsupported part kind %r: the local repertoire is "
                                   "cyclic, ga, gm_const" % (i, part.kind))
        if moves_field:
            _require_in_k(i, part, gd.field_order)
    if isinstance(group, Generated):
        pairs = zip_longest([(p.group, p.embedding) for p in group.parts],
                            [(p.group, p.embedding) for p in parts])
        bad = next((i for i, (claimed, given) in enumerate(pairs) if claimed != given), None)
    else:
        bad = None if len(parts) == 1 and group_eq(group, parts[0].group) else 0
    if bad is not None:
        raise UnsupportedGroup("part %d does not match the target group: a generated target lists "
                               "each part's group and embedding in order, any other target is the "
                               "group of its one part" % bad)


def _require_in_k(i: int, part: DecompositionPart, field_order: int):
    op = part.group.operator if isinstance(part.group, GaSub) else None
    for what, funcs in (("h", () if part.h is None else (part.h,)),
                        ("its embedding", [f for row in part.embedding or () for f in row]),
                        ("its operator", () if op is None else op.coeffs)):
        for f in funcs:
            for s in (*f.num.coeffs, *f.den.coeffs):
                if field_order % s.order:
                    raise UnsupportedGroup("part %d: %s has a coefficient written in Q(zeta_%d), "
                                           "not in k = Q(zeta_%d): Gamma moves k and acts only on k"
                                           % (i, what, s.order, field_order))


def run_criterion(group: GroupSpec, decomposition, gd: GaloisDatum,
                  order: int = DEFAULT_ORDER, samples: int = 100,
                  seed: int = 0) -> Certificate:
    """Run the full local-to-global pipeline and emit a certificate.

    Builds one verified block per decomposition part at an orbit
    representative, transports along the Galois group, verifies the
    twisted maps are differential isomorphisms and the family is
    equivariant, and records the four theorem appeals that bridge the
    exact checks to the realization statement.
    """
    parts = tuple(decomposition)
    if not parts:
        raise UnsupportedGroup("an empty decomposition certifies nothing")
    _validate(group, parts, gd)
    orbits = find_free_orbits(gd, len(parts))
    all_blocks: list[tuple[Scalar, LocalBlock]] = []
    transcripts: list[Transcript] = []
    completeness: list[CheckRecord] = []

    for g in gd.elements:
        if not g.is_identity():
            tr = verify_sigma_commutes(gd, g, samples=samples, order=order, seed=seed)
            transcripts.append(tr)
            if not tr.passed:
                raise VerificationFailed("twisted map fails to commute: "
                                         + "; ".join(tr.failures))

    for part, orbit in zip(parts, orbits):
        rep_block = make_block(part.kind, orbit.representative, gd.e, order, r=part.r, h=part.h)
        orbit_blocks = transport_orbit(gd, rep_block, orbit)
        tr = verify_equivariance(gd, orbit_blocks, orbit, order=order)
        transcripts.append(tr)
        if not tr.passed:
            raise VerificationFailed("equivariance fails: %s" % "; ".join(tr.failures))
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
        q = _point_under(gd, g, orbit.representative)
        blk = blocks[q]
        if part.kind == "ga" and part.h is not None:
            expected = closure_of_additive(gd.act_k(g, part.h), gd.e)
        else:
            expected = gd.act_group(g, part.group)
        if not group_eq(blk.claimed_group, expected):
            ok = False
            notes.append("mismatch at %s under %s" % (q, g.label()))
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
    with E and the coordinate c; the function verifies that E^n = 0 for
    the n x n matrix E and that g = exp(c*E), which makes g unipotent, then
    takes the closure of c inside the additive coordinate.
    """
    one = c.one_like()
    nil = mat(nilpotent)
    if not mat_is_zero(mat_pow(nil, len(nil), one)):
        raise UnsupportedGroup("supplied E is not nilpotent")
    if exp_nilpotent(nil, c, one) != mat(g_matrix):
        raise UnsupportedGroup("generator does not match exp(c * E) for the supplied data")
    return DecompositionPart(
        group=closure_of_additive(c),
        kind="ga",
        h=c,
        embedding=nil,
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
        unipotent_generator_part(exp_nilpotent(nil, c, one), nil, c, representation=rep)
        for nil, c, rep in ((upper, one, "upper triangular"), (lower, one, "lower triangular"),
                            (upper, t, "upper triangular"), (lower, t.inv(), "lower triangular"))
    ]
    group = Generated(
        tuple(GeneratedPart(p.group, p.embedding, p.representation) for p in parts)
    )
    return group, parts
