"""Differential test: the range search of ``bosonic_ppt_separability``
against the affine resultant.

``_pair_overlap_poly`` through ``_resultant_product_vectors`` below are an
earlier ``mixed.product_vectors_in_range``: it eliminated ``z2`` from the
two kernel quadrics of a rank-4 two-boson state with d = 3 in the affine
chart ``e = (1, z1, z2)`` by a Sylvester resultant, took the quartic's
companion roots and polished them by damped Newton.  It cannot represent a
vector with ``e_0 = 0``, so it is kept here only as the reference on
generic mixtures, where the decomposition that ``bosonic_ppt_separability``
builds from ``witnesses.edge_state_decompose`` must hold the same four
vectors and rebuild the state.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from slaterkit import linalg as la
from slaterkit import mixed as mx
from slaterkit import sectors
from slaterkit import states as st
from slaterkit.errors import NumericalFailureError, UnsupportedSystemError, ValidationError
from slaterkit.linalg import RANK_RTOL
from slaterkit.mixed import SYMMETRIC, DensityMatrix, _symmetric_pair_vector, subnormalized_spectrum


class DegenerateSystemError(NumericalFailureError):
    """A polynomial system is non-generic (deficient or infinite solution set)."""


@dataclass(frozen=True)
class ProductVectorsResult:
    vectors: list
    diagnostics: list = field(default_factory=list)


def _phase_fixed(e: np.ndarray) -> np.ndarray:
    j = int(np.argmax(np.abs(e)))
    return e * np.exp(-1j * np.angle(e[j]))


def _pair_overlap_poly(phi: np.ndarray):
    """Quadratic coefficients of ``<phi|e,e>`` for ``e = (1, z1, z2)``.

    Returns the coefficient dict of a polynomial in (z1, z2), using the
    symmetric-sector tuple basis of d=3.
    """
    idx = sectors.tuple_index(SYMMETRIC, 3, 2)
    c = np.conj(phi)
    s2 = math.sqrt(2.0)
    return {
        (0, 0): c[idx[(0, 0)]],
        (1, 0): s2 * c[idx[(0, 1)]],
        (0, 1): s2 * c[idx[(0, 2)]],
        (2, 0): c[idx[(1, 1)]],
        (1, 1): s2 * c[idx[(1, 2)]],
        (0, 2): c[idx[(2, 2)]],
    }


def _poly_eval(coeffs: dict, z1: complex, z2: complex) -> complex:
    return sum(c * z1 ** i * z2 ** j for (i, j), c in coeffs.items())


def _poly_grad(coeffs: dict, z1: complex, z2: complex) -> tuple[complex, complex]:
    g1 = sum(i * c * z1 ** (i - 1) * z2 ** j for (i, j), c in coeffs.items() if i)
    g2 = sum(j * c * z1 ** i * z2 ** (j - 1) for (i, j), c in coeffs.items() if j)
    return g1, g2


def _resultant_in_z2(p: dict, q: dict) -> np.ndarray:
    """Coefficients (ascending in z1) of the Sylvester resultant in z2."""

    def as_z2_poly(c):
        # entries are polynomials in z1, ascending coefficient arrays
        a0 = np.array([c.get((0, 0), 0.0), c.get((1, 0), 0.0), c.get((2, 0), 0.0)])
        a1 = np.array([c.get((0, 1), 0.0), c.get((1, 1), 0.0)])
        a2 = np.array([c.get((0, 2), 0.0)])
        return [a0, a1, a2]

    pa, qa = as_z2_poly(p), as_z2_poly(q)
    zero = np.zeros(1, dtype=complex)
    rows = [
        [pa[2], pa[1], pa[0], zero],
        [zero, pa[2], pa[1], pa[0]],
        [qa[2], qa[1], qa[0], zero],
        [zero, qa[2], qa[1], qa[0]],
    ]

    def det3(a, b, c, d, e, f, g, h, i):
        # cofactor expansion with polynomial arithmetic
        return npoly.polyadd(
            npoly.polysub(
                npoly.polymul(a, npoly.polysub(npoly.polymul(e, i), npoly.polymul(f, h))),
                npoly.polymul(b, npoly.polysub(npoly.polymul(d, i), npoly.polymul(f, g)))),
            npoly.polymul(c, npoly.polysub(npoly.polymul(d, h), npoly.polymul(e, g))))

    total = np.zeros(1, dtype=complex)
    for col in range(4):
        minor = [row[:col] + row[col + 1:] for r, row in enumerate(rows) if r != 0]
        sub = det3(*minor[0], *minor[1], *minor[2])
        term = npoly.polymul(rows[0][col], sub)
        total = npoly.polyadd(total, term if col % 2 == 0 else npoly.polymul([-1], term))
    return np.asarray(total, dtype=complex)


def _resultant_product_vectors(rho: DensityMatrix, rank_rtol: float = RANK_RTOL,
                               range_tol: float = 1e-6) -> ProductVectorsResult:
    """Solve for the product vectors ``|e, e>`` in the range of a rank-4
    two-boson state with three modes.

    The two kernel vectors impose two quadratic equations on
    ``e = (1, z1, z2)``; eliminating ``z2`` by a resultant leaves a
    quartic solved through its companion matrix, followed by damped
    Newton polishing.  Generically there are exactly four solutions;
    projective roots (leading coefficient near zero) are reported in the
    diagnostics rather than silently dropped.

    Raises
    ------
    DegenerateSystemError
        If the polynomial system is non-generic (deficient or infinite
        solution set).
    """
    if rho.space.kind != SYMMETRIC or rho.space.dims != (3,) or rho.space.particles != 2:
        raise UnsupportedSystemError("product-vector recovery expects a two-boson state with d=3")
    evals, evecs = np.linalg.eigh(rho.matrix)
    top = evals[-1]
    kernel = [evecs[:, i] for i in range(6) if evals[i] <= rank_rtol * top]
    if len(kernel) != 2:
        raise ValidationError(f"expected rank 4 (kernel dimension 2), found kernel {len(kernel)}")
    p, q = (_pair_overlap_poly(phi) for phi in kernel)

    res = _resultant_in_z2(p, q)
    scale = np.max(np.abs(res))
    if scale == 0 or np.all(np.abs(res) <= 1e-12):
        raise DegenerateSystemError("resultant vanishes identically; infinite solution family")
    res = res / scale
    diagnostics = []
    coeffs = res.copy()
    n_at_infinity = 0
    while len(coeffs) > 1 and abs(coeffs[-1]) < 1e-9:
        coeffs = coeffs[:-1]
        n_at_infinity += 1
    if n_at_infinity:
        diagnostics.append(
            f"{n_at_infinity} projective root(s) at infinity (vanishing leading coefficient)")
    if len(coeffs) <= 1:
        raise DegenerateSystemError("resultant degenerates to a constant")
    z1_roots = npoly.polyroots(coeffs)

    solutions = []
    for z1 in z1_roots:
        a2 = p.get((0, 2), 0.0)
        a1 = p.get((0, 1), 0.0) + p.get((1, 1), 0.0) * z1
        a0 = p.get((0, 0), 0.0) + p.get((1, 0), 0.0) * z1 + p.get((2, 0), 0.0) * z1 ** 2
        if abs(a2) > 1e-12:
            disc = np.sqrt(a1 ** 2 - 4 * a2 * a0 + 0j)
            candidates = [(-a1 + disc) / (2 * a2), (-a1 - disc) / (2 * a2)]
        elif abs(a1) > 1e-12:
            candidates = [-a0 / a1]
        else:
            continue
        best = min(candidates, key=lambda z2: abs(_poly_eval(q, z1, z2)))
        z = np.array([z1, best], dtype=complex)
        # damped Newton on both quadrics
        for _ in range(50):
            f = np.array([_poly_eval(p, *z), _poly_eval(q, *z)])
            if max(abs(f)) < 1e-13:
                break
            jac = np.array([_poly_grad(p, *z), _poly_grad(q, *z)])
            try:
                step = np.linalg.solve(jac, f)
            except np.linalg.LinAlgError:
                break
            damp = 1.0
            while damp > 1e-4:
                trial = z - damp * step
                ft = np.array([_poly_eval(p, *trial), _poly_eval(q, *trial)])
                if max(abs(ft)) < max(abs(f)):
                    z = trial
                    break
                damp /= 2
            else:
                break
        if max(abs(_poly_eval(p, *z)), abs(_poly_eval(q, *z))) > 1e-8:
            diagnostics.append(f"discarded spurious root near z1={z1:.4f}")
            continue
        e = np.array([1.0, z[0], z[1]], dtype=complex)
        e = e / np.linalg.norm(e)
        solutions.append(e)

    # dedupe up to phase
    unique = []
    for e in solutions:
        if all(abs(abs(np.vdot(e, u)) - 1.0) > 1e-8 for u in unique):
            unique.append(e)
    if len(unique) < len(solutions):
        raise DegenerateSystemError("repeated product vectors; solution set is deficient")
    if len(unique) + n_at_infinity < 4:
        raise DegenerateSystemError(
            f"found {len(unique)} affine + {n_at_infinity} infinite product vectors, expected 4")

    # verify range membership
    spec = subnormalized_spectrum(rho, rank_rtol)
    basis, _ = np.linalg.qr(spec.vectors)
    checked = []
    for e in unique:
        pair = _symmetric_pair_vector(e)
        resid = np.linalg.norm(pair - basis @ (basis.conj().T @ pair))
        if resid > range_tol:
            raise DegenerateSystemError(f"recovered vector leaves the range (residual {resid:.2e})")
        checked.append(_phase_fixed(e))
    return ProductVectorsResult(checked, diagnostics)


def _generic_mixture(seed):
    gen = np.random.default_rng(seed)
    vectors = [la.haar_vector(3, gen) for _ in range(4)]
    rho = mx.density_from_mixture(
        [(w, st.boson_state(3, 2, _symmetric_pair_vector(e)))
         for w, e in zip(gen.dirichlet(np.ones(4)), vectors)])
    return vectors, rho


@pytest.mark.parametrize("seed", range(20))
def test_range_search_matches_resultant_on_generic_mixtures(seed):
    vectors, rho = _generic_mixture(1000 + seed)
    result = mx.bosonic_ppt_separability(rho)
    old = _resultant_product_vectors(rho)
    assert len(old.vectors) == 4
    assert not any(line.startswith("discarded") for line in old.diagnostics)
    assert result.verdict == "separable" and len(result.decomposition) == 4
    new = [e for _, e in result.decomposition]
    for f in new:
        assert max(abs(np.vdot(f, g)) for g in old.vectors) >= 1 - 1e-10
    for e in vectors:
        assert max(abs(np.vdot(e, f)) for f in new) >= 1 - 1e-10
    recon = sum(w * np.outer(_symmetric_pair_vector(e), _symmetric_pair_vector(e).conj())
                for w, e in result.decomposition)
    assert np.max(np.abs(recon - rho.matrix)) <= 1e-8
