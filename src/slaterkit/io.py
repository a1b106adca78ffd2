"""JSON file formats for states, density matrices and witness operators.

All files are UTF-8 JSON.  Pure states carry occupation amplitudes over
sorted mode tuples (0-based; strictly increasing for fermions,
non-decreasing for bosons) with Euclidean normalization, which is
convention-free and human-checkable.  Density matrices and operators
carry a dense complex matrix (entries as ``[re, im]`` pairs) plus a
space tag.  Floats are written with full shortest-roundtrip precision,
so write-then-read reproduces amplitudes bit-exactly.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from . import mixed, sectors, states, witnesses
from .errors import ValidationError


def _complex_list(values) -> list:
    """Complex numbers as ``[re, im]`` pairs."""
    return [[float(np.real(z)), float(np.imag(z))] for z in values]


def _matrix_to_json(m: np.ndarray) -> list:
    return [_complex_list(row) for row in np.asarray(m, dtype=complex)]


def _matrix_from_json(rows) -> np.ndarray:
    try:
        return np.array([[complex(e[0], e[1]) for e in row] for row in rows])
    except (TypeError, IndexError, ValueError) as exc:
        raise ValidationError(f"malformed matrix entry: {exc}") from exc


def _integers(values, message: str, low: float = -math.inf,
              count: int | None = None) -> tuple[int, ...]:
    """A JSON list of ``count`` (any number if None) integers, each at least
    ``low``: floats and booleans do not count (``0.9`` and ``true`` are no
    index)."""
    if not (isinstance(values, list) and count in (None, len(values)) and all(
            isinstance(v, int) and not isinstance(v, bool) and v >= low for v in values)):
        raise ValidationError(message)
    return tuple(values)


def _space_to_json(space: mixed.StateSpace) -> dict:
    if space.kind == mixed.BIPARTITE:
        return {"kind": "bipartite", "dims": list(space.dims)}
    return {"kind": space.kind, "single_particle_dim": space.dims[0],
            "particles": space.particles}


def _space_from_json(obj) -> mixed.StateSpace:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError("space tag must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "bipartite":
        return mixed.bipartite_space(*_integers(
            obj.get("dims"), "bipartite space needs 'dims': [d_A, d_B], positive integers", 1, 2))
    if kind in (mixed.ANTISYMMETRIC, mixed.SYMMETRIC):
        d, n = _integers([obj.get("single_particle_dim"), obj.get("particles", 2)],
                         "sector space needs 'single_particle_dim' and 'particles' > 0", 1)
        return mixed.StateSpace(kind, (d,), n)
    raise ValidationError(f"unknown space kind {kind!r}")


def pure_state_to_dict(state: states.PureState) -> dict:
    if state.kind == states.BIPARTITE:
        psi = state.matrix()
        amps = [{"indices": [i, j], "re": float(psi[i, j].real), "im": float(psi[i, j].imag)}
                for i in range(psi.shape[0]) for j in range(psi.shape[1]) if psi[i, j] != 0]
        return {"type": "pure", "kind": "bipartite", "dims": list(state.dim),
                "amplitudes": amps}
    tuples = sectors.sector_tuples(state.sector_kind, state.dim, state.particles)
    amps = [{"indices": list(t), "re": float(a.real), "im": float(a.imag)}
            for t, a in zip(tuples, state.amps) if a != 0]
    return {"type": "pure", "kind": state.kind, "particles": state.particles,
            "single_particle_dim": state.dim, "amplitudes": amps}


def pure_state_from_dict(obj: dict) -> states.PureState:
    kind = obj.get("kind")
    raw = obj.get("amplitudes")
    if not isinstance(raw, list):
        raise ValidationError("'amplitudes' must be a list")

    def entries() -> dict:
        amps = {}
        for item in raw:
            try:
                t = _integers(item["indices"], f"'indices' of {item!r} must be integers >= 0", 0)
                a = complex(item["re"], item["im"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(f"malformed amplitude entry {item!r}") from exc
            if t in amps:
                raise ValidationError(f"indices {list(t)} are listed twice")
            amps[t] = a
        return amps

    if kind == "bipartite":
        dims = _integers(obj.get("dims"),
                         "bipartite state needs 'dims': [d_A, d_B], positive integers", 1, 2)
        psi = np.zeros(dims, dtype=complex)
        for t, a in entries().items():
            if len(t) != 2 or not (t[0] < dims[0] and t[1] < dims[1]):
                raise ValidationError(f"indices {list(t)} are not two indices inside 'dims' {list(dims)}")
            psi[t] = a
        return states.bipartite_state(psi)
    if kind in (states.FERMION, states.BOSON):
        d, n = _integers([obj.get("single_particle_dim"), obj.get("particles")],
                         "need 'single_particle_dim' and 'particles', non-negative integers", 0)
        build = states.fermion_state if kind == states.FERMION else states.boson_state
        return build(d, n, entries())
    raise ValidationError(f"unknown pure-state kind {kind!r}")


def density_to_dict(rho: mixed.DensityMatrix) -> dict:
    return {"type": "density", "space": _space_to_json(rho.space),
            "matrix": _matrix_to_json(rho.matrix)}


def density_from_dict(obj: dict) -> mixed.DensityMatrix:
    space = _space_from_json(obj.get("space"))
    return mixed.density_matrix(space, _matrix_from_json(obj.get("matrix")))


def witness_to_dict(w: witnesses.WitnessOperator) -> dict:
    return {"type": "operator", "hermitian": True, "space": _space_to_json(w.space),
            "slater_class": int(w.slater_class), "epsilon": float(w.epsilon),
            "matrix": _matrix_to_json(w.matrix)}


def witness_from_dict(obj: dict) -> witnesses.WitnessOperator:
    space = _space_from_json(obj.get("space"))
    (k,) = _integers([obj.get("slater_class")], "operator file needs an integer 'slater_class'")
    return witnesses.witness_operator(space, _matrix_from_json(obj.get("matrix")), k)


def unitary_from_dict(obj: dict) -> tuple[np.ndarray, mixed.StateSpace]:
    space = _space_from_json(obj.get("space"))
    m = _matrix_from_json(obj.get("matrix"))
    if m.shape != (space.dim, space.dim):
        raise ValidationError(f"matrix shape {m.shape} does not match space dim {space.dim}")
    return m, space


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _within_double(convert):
    """A JSON number parser refusing numbers past a double: ``1e400`` would
    load as inf, and ``10**400`` fails to convert to a complex entry."""
    def parse(text: str):
        value = convert(text)
        if abs(value) > sys.float_info.max:
            raise ValueError(f"{text[:24]}{'...' * (len(text) > 24)} overflows a double")
        return value
    return parse


def load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh, parse_float=_within_double(float),
                            parse_int=_within_double(int), parse_constant=_refuse_constant)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, not JSON, NaN / Infinity, or past a double
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValidationError(f"{path}: expected a JSON object with a 'type' field")
    return obj


def load_any(path: str):
    """Load a pure state, density matrix or operator, dispatching on type."""
    obj = load_document(path)
    t = obj["type"]
    if t == "pure":
        return pure_state_from_dict(obj)
    if t == "density":
        return density_from_dict(obj)
    if t == "operator":
        return witness_from_dict(obj)
    raise ValidationError(f"{path}: unknown document type {t!r}")


def dump(obj: dict, path: str | None, pretty: bool = False) -> str:
    text = json.dumps(obj, indent=2 if pretty else None, sort_keys=False)
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc}") from exc
    return text
