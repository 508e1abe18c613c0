"""Elastic constants, defect configurations and disk-domain geometry.

All types are immutable value objects; every operation is pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


class ValidationError(ValueError):
    """A precondition on user input failed (admissibility, geometry, ...)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or produced garbage."""


def lame_from_young_poisson(E: float, nu: float) -> tuple[float, float]:
    """Lame pair (lambda, mu) from Young modulus and Poisson ratio.

    Admissible range: E > 0 and -1 < nu < 1/2 (open interval; boundary
    values would break positive definiteness of the elasticity tensor).
    """
    if not (0.0 < E < math.inf):
        raise ValidationError(f"Young modulus must be finite with E > 0, got E={E}")
    if not (-1.0 < nu < 0.5):
        raise ValidationError(
            f"Poisson ratio must satisfy -1 < nu < 1/2, got nu={nu}"
        )
    mu = E / (2.0 * (1.0 + nu))
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    return lam, mu


def young_poisson_from_lame(lam: float, mu: float) -> tuple[float, float]:
    """Inverse of :func:`lame_from_young_poisson`.

    Requires mu > 0 and lam + mu > 0, the equivalent admissibility gate.
    """
    if not (mu > 0.0):
        raise ValidationError(f"shear modulus must satisfy mu > 0, got mu={mu}")
    if not (lam + mu > 0.0):
        raise ValidationError(
            f"Lame constants must satisfy lambda + mu > 0, got lambda+mu={lam + mu}"
        )
    E = mu * (3.0 * lam + 2.0 * mu) / (lam + mu)
    nu = lam / (2.0 * (lam + mu))
    return E, nu


@dataclass(frozen=True)
class ElasticConstants:
    """Isotropic plane-strain elastic constants.

    ``lame_lambda`` and ``lame_mu`` are derived from (E, nu) at
    construction and always consistent with them.
    """

    young_E: float
    poisson_nu: float
    lame_lambda: float = field(init=False)
    lame_mu: float = field(init=False)

    def __post_init__(self) -> None:
        lam, mu = lame_from_young_poisson(self.young_E, self.poisson_nu)
        object.__setattr__(self, "lame_lambda", lam)
        object.__setattr__(self, "lame_mu", mu)

    @property
    def plane_prefactor(self) -> float:
        """E / (1 - nu^2), the prefactor of every closed-form potential."""
        return self.young_E / (1.0 - self.poisson_nu**2)


def rotate_burgers(b) -> np.ndarray:
    """Pi(b) = -b_perp = (b2, -b1): rotation of b by pi/2 clockwise."""
    b = np.asarray(b, dtype=float)
    return np.array([b[1], -b[0]])


def _as_point(p) -> tuple[float, float]:
    q = np.asarray(p, dtype=float).reshape(2)
    if not np.all(np.isfinite(q)):
        raise ValidationError(f"point coordinates must be finite, got {tuple(q)}")
    return (float(q[0]), float(q[1]))


@dataclass(frozen=True)
class DiskDomain:
    """Open disk B_R(center)."""

    center: tuple[float, float] = (0.0, 0.0)
    radius_R: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _as_point(self.center))
        # the closed forms take R^2, which must neither overflow nor vanish
        if not (self.radius_R > 0.0 and 0.0 < self.radius_R * self.radius_R < math.inf):
            raise ValidationError(
                f"disk radius must be positive with a finite nonzero square, "
                f"got {self.radius_R}")

    def contains(self, p, margin: float = 0.0) -> bool:
        p = np.asarray(p, dtype=float)
        return float(np.hypot(p[0] - self.center[0], p[1] - self.center[1])) < self.radius_R - margin

    def boundary_distance(self, p) -> float:
        p = np.asarray(p, dtype=float)
        return self.radius_R - float(np.hypot(p[0] - self.center[0], p[1] - self.center[1]))


@dataclass(frozen=True)
class Disclination:
    """Wedge disclination: site and nonzero Frank angle s."""

    site: tuple[float, float]
    frank_angle_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "site", _as_point(self.site))
        if not (self.frank_angle_s != 0.0 and math.isfinite(self.frank_angle_s)):
            raise ValidationError(
                f"Frank angle s must be finite and nonzero, got {self.frank_angle_s}")


@dataclass(frozen=True)
class Dislocation:
    """Edge dislocation: site and nonzero Burgers vector b."""

    site: tuple[float, float]
    burgers_b: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "site", _as_point(self.site))
        object.__setattr__(self, "burgers_b", _as_point(self.burgers_b))
        if math.hypot(*self.burgers_b) == 0.0:
            raise ValidationError("Burgers vector must be nonzero")


@dataclass(frozen=True)
class DisclinationDipole:
    """Disclination dipole targeting the dislocation with Burgers vector b.

    The two poles of charge -+s (s = |b|) sit at
    center +- (h/2) * Pi(b)/|b|.
    """

    center: tuple[float, float]
    burgers_b: tuple[float, float]
    spacing_h: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _as_point(self.center))
        object.__setattr__(self, "burgers_b", _as_point(self.burgers_b))
        if math.hypot(*self.burgers_b) == 0.0:
            raise ValidationError("Burgers vector must be nonzero")
        if not (0.0 < self.spacing_h < math.inf):
            raise ValidationError(
                f"dipole spacing must be finite and positive, got {self.spacing_h}")

    @property
    def charge_s(self) -> float:
        return math.hypot(*self.burgers_b)

    @property
    def axis(self) -> np.ndarray:
        """Unit vector Pi(b)/|b| along which the poles are split."""
        return rotate_burgers(self.burgers_b) / self.charge_s

    def poles(self) -> tuple[np.ndarray, np.ndarray]:
        c = np.asarray(self.center)
        d = 0.5 * self.spacing_h * self.axis
        return c + d, c - d


def min_separation_D(sites, domain: DiskDomain) -> float:
    """D = min over sites of half pairwise distances and distances to the boundary."""
    pts = [np.asarray(_as_point(p)) for p in sites]
    if not pts:
        raise ValidationError("need at least one defect site")
    dists = []
    for p in pts:
        d_bdry = domain.boundary_distance(p)
        if d_bdry <= 0.0:
            raise ValidationError(f"site {tuple(p)} lies outside the domain")
        dists.append(d_bdry)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dists.append(0.5 * float(np.hypot(*(pts[i] - pts[j]))))
    return min(dists)


@dataclass(frozen=True)
class DefectConfiguration:
    """A finite system of defects on a disk, with elastic constants.

    ``core_radius`` is the regularization length eps used by the
    core-constrained problems; it must stay below the minimal
    separation D whenever defects are present.
    """

    elastic: ElasticConstants
    domain: DiskDomain
    disclinations: tuple[Disclination, ...] = ()
    dislocations: tuple[Dislocation, ...] = ()
    dipoles: tuple[DisclinationDipole, ...] = ()
    core_radius: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "disclinations", tuple(self.disclinations))
        object.__setattr__(self, "dislocations", tuple(self.dislocations))
        object.__setattr__(self, "dipoles", tuple(self.dipoles))
        for d in self.disclinations:
            if not self.domain.contains(d.site):
                raise ValidationError(f"disclination site {d.site} outside the domain")
        sites = [d.site for d in self.dislocations] + [d.center for d in self.dipoles]
        for p in sites:
            if not self.domain.contains(p):
                raise ValidationError(f"defect site {p} outside the domain")
        if len(set(sites)) != len(sites):
            raise ValidationError("defect sites must be pairwise distinct")
        for dip in self.dipoles:
            for pole in dip.poles():
                if not self.domain.contains(pole):
                    raise ValidationError(f"dipole pole {tuple(pole)} outside the domain")
        if self.core_radius is not None:
            if not (self.core_radius > 0.0):
                raise ValidationError("core radius must be positive")
            if sites:
                D = min_separation_D(sites, self.domain)
                if not (self.core_radius < D):
                    raise ValidationError(
                        f"core radius eps={self.core_radius} must stay below the "
                        f"minimal separation D={D}"
                    )
            for dip in self.dipoles:
                if not (dip.spacing_h < self.core_radius):
                    raise ValidationError(
                        f"dipole spacing h={dip.spacing_h} must stay below the "
                        f"core radius eps={self.core_radius}"
                    )

    @property
    def sites(self) -> list[tuple[float, float]]:
        return (
            [d.site for d in self.disclinations]
            + [d.site for d in self.dislocations]
            + [d.center for d in self.dipoles]
        )

    def separation_D(self) -> float:
        sites = [d.site for d in self.dislocations] + [d.center for d in self.dipoles]
        if not sites:
            sites = [d.site for d in self.disclinations]
        return min_separation_D(sites, self.domain)

    # ---- JSON round trip ------------------------------------------------

    def to_dict(self) -> dict:
        doc: dict = {
            "E": self.elastic.young_E,
            "nu": self.elastic.poisson_nu,
            "domain": {"center": list(self.domain.center), "R": self.domain.radius_R},
            "disclinations": [
                {"site": list(d.site), "s": d.frank_angle_s} for d in self.disclinations
            ],
            "dislocations": [
                {"site": list(d.site), "b": list(d.burgers_b)} for d in self.dislocations
            ],
            "dipoles": [
                {"center": list(d.center), "b": list(d.burgers_b), "h": d.spacing_h}
                for d in self.dipoles
            ],
        }
        if self.core_radius is not None:
            doc["core_radius"] = self.core_radius
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "DefectConfiguration":
        try:
            elastic = ElasticConstants(float(doc["E"]), float(doc["nu"]))
            dom = doc.get("domain", {})
            domain = DiskDomain(
                tuple(dom.get("center", (0.0, 0.0))), float(dom.get("R", 1.0))
            )
            disclinations = tuple(
                Disclination(tuple(d["site"]), float(d["s"]))
                for d in doc.get("disclinations", [])
            )
            dislocations = tuple(
                Dislocation(tuple(d["site"]), tuple(d["b"]))
                for d in doc.get("dislocations", [])
            )
            dipoles = tuple(
                DisclinationDipole(tuple(d["center"]), tuple(d["b"]), float(d["h"]))
                for d in doc.get("dipoles", [])
            )
            core = doc.get("core_radius")
            core_radius = None if core is None else float(core)
        except ValidationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed configuration document: {exc}") from exc
        return cls(
            elastic=elastic,
            domain=domain,
            disclinations=disclinations,
            dislocations=dislocations,
            dipoles=dipoles,
            core_radius=core_radius,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DefectConfiguration":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(doc)
