"""Mechanical re-verification of the centroid-bound analysis: exact
polynomial arithmetic, certified sign checks on intervals, boxes and
triangles, root isolation, and a claim ledger that records where
re-derivation disagrees with the printed source formulas."""

from .bipoly import BiPoly, UniPoly
from .certify import Region, SignCertificate, certify_sign, critical_points
from .formulas import (
    DomainError,
    cen_G_formula,
    dcenG_dz,
    proof_polynomials,
    verify_reduction_identity,
    w0,
    z_star,
)
from .ledger import VerificationLedger, run_claim, run_full_verification

__all__ = [
    "BiPoly",
    "UniPoly",
    "Region",
    "SignCertificate",
    "certify_sign",
    "critical_points",
    "DomainError",
    "cen_G_formula",
    "dcenG_dz",
    "proof_polynomials",
    "verify_reduction_identity",
    "w0",
    "z_star",
    "VerificationLedger",
    "run_claim",
    "run_full_verification",
]
