"""The equation the solver solves, held to its analytic solution.

At omega = 1 a loop is one step of a random walk, phi'(x) = sum_a w_hat_a
phi(x - e_a), so the lattice solves the advection-diffusion equation
d phi / dt + m . grad phi = div(chi grad phi) to O(dx**2), with the drift
m = sum_a w_hat_a e_a and the diffusivity chi = (sum_a w_hat_a e_a e_a^T -
m m^T) / 2.  Every field here comes from ``cli.execute`` in quantum-exact
mode, and m and chi from this file's own tables and formula: never from
``drift`` or ``diffusion_coefficient``, which ``report.json`` is held to.
"""
import itertools

import numpy as np
import pytest

import qlbm.cli as cli

# each row's velocities, default weights and c_s^2, written out here
TABLES = {
    "D1Q2": ([(1,), (-1,)], None, None),
    "D1Q3": ([(0,), (1,), (-1,)], [1 / 3, 1 / 3, 1 / 3], 1.0),
    "D2Q5": ([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)], [1 / 3] + [1 / 6] * 4, 1 / 3),
}


def moments(config: dict) -> tuple[np.ndarray, np.ndarray]:
    """(m, chi) of a config: w_hat_a = w_a (1 + e_a . u / c_s^2), or its
    explicit w_hat, then the walk's first and half its centred second moment."""
    e, w, c_s2 = TABLES[config["scheme"]]
    e = np.array(e, dtype=float)
    u = np.array([config.get("u", 0.0), config.get("v", 0.0)][:e.shape[1]])
    w_hat = (np.array(config["w_hat"]) if w is None
             else np.array(w) * (1.0 + e @ u / c_s2))
    m = sum(wa * ea for wa, ea in zip(w_hat, e))
    second = sum(wa * np.outer(ea, ea) for wa, ea in zip(w_hat, e))
    return m, 0.5 * (second - np.outer(m, m))


def run_exact(config: dict) -> tuple[dict, np.ndarray]:
    """``report.json``'s content and the final field of a quantum-exact
    config, as ``cmd_run`` reads it, on its lattice's grid."""
    cfg = cli.RunConfig.from_dict({**config, "mode": "quantum-exact"})
    report, readings = cli.execute(cfg)
    field = cli._read_field(cfg, readings[cfg.loops], cfg.seed)
    return report, field.grid()


def gaussian(m: int, ndim: int, mean: np.ndarray, cov: np.ndarray, mass: float) -> np.ndarray:
    """A Gaussian of ``mass`` on the periodic m**ndim lattice, summed over
    the images within three periods of the cell."""
    grid = np.stack(np.meshgrid(*[np.arange(m, dtype=float)] * ndim, indexing="ij"), axis=-1)
    inverse = np.linalg.inv(cov)
    out = np.zeros((m,) * ndim)
    for image in itertools.product(range(-3, 4), repeat=ndim):
        d = grid - mean + m * np.array(image)
        out += np.exp(-0.5 * np.einsum("...i,ij,...j->...", d, inverse, d))
    return mass * out / np.sqrt((2 * np.pi) ** ndim * np.linalg.det(cov))


def checked_moments(report: dict, config: dict):
    """The report's drift and diffusion are the walk's moments, to 1e-15."""
    m, chi = moments(config)
    assert np.max(np.abs(np.array(report["drift"]) - m)) <= 1e-15
    assert np.max(np.abs(np.array(report["diffusion"]) - chi)) <= 1e-15
    return m, chi


def nominal(config: dict) -> tuple[np.ndarray, np.ndarray]:
    """The BGK coefficients a config names: its velocity and c_s^2 / 2."""
    e, _, c_s2 = TABLES[config["scheme"]]
    ndim = len(e[0])
    return (np.array([config.get("u", 0.0), config.get("v", 0.0)][:ndim]),
            0.5 * c_s2 * np.eye(ndim))


def gaussian_errors(scheme: str, m: int, u: float) -> tuple[float, float]:
    """A periodic Gaussian of sigma0 = M/16 at the centre, run quantum-exact
    for t = M**2/64 loops at velocity u (and v = u/2 in 2-D), against the
    analytic Gaussian of mean x0 + t m and covariance sigma0**2 I + 2 t chi:
    the relative L2 errors with the walk's (m, chi), held to the report, and
    with the nominal ones."""
    ndim = len(TABLES[scheme][0][0])
    sigma0, loops = m / 16, m * m // 64
    centre = np.full(ndim, m / 2)
    phi0 = gaussian(m, ndim, centre, sigma0**2 * np.eye(ndim), 1.0)
    cells = np.ndindex(phi0.shape)
    rows = [[c[0] if ndim == 1 else list(c), v] for c, v in zip(cells, phi0.ravel().tolist())]
    config = {"scheme": scheme, "M": m, "loops": loops, "u": u,
              **({"v": u / 2} if ndim == 2 else {}),
              "initial": {"uniform": 0, "overrides": rows}}
    report, field = run_exact(config)
    errors = []
    for drift, chi in (checked_moments(report, config), nominal(config)):
        exact = gaussian(m, ndim, centre + loops * drift,
                         sigma0**2 * np.eye(ndim) + 2 * loops * chi, phi0.sum())
        errors.append(np.linalg.norm(field - exact) / np.linalg.norm(exact))
    return errors[0], errors[1]


@pytest.mark.parametrize("scheme", ["D1Q3", "D2Q5"])
def test_a_gaussian_spreads_as_the_advection_diffusion_equation_says(scheme):
    """Under diffusive scaling (u = 3.2/M) the relative L2 error against the
    walk's (m, chi) falls as M**-2.  D1Q3 read 6.9e-3, 1.7e-3, 4.3e-4 and
    D2Q5 7.5e-3, 1.9e-3, 4.7e-4 at M = 32, 64, 128."""
    errors = [gaussian_errors(scheme, m, 3.2 / m)[0] for m in (32, 64, 128)]
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 1.9), (errors, orders)
    assert errors[-1] < 6e-4, errors


@pytest.mark.parametrize("scheme", ["D1Q3", "D2Q5"])
def test_at_fixed_velocity_only_the_walks_coefficients_converge(scheme):
    """At u = 0.1 (v = 0.05 in 2-D) the walk's skewness decays like 1/M, not
    1/M**2, so the error against (m, chi) falls at first order: D1Q3 read
    6.9e-3, 2.5e-3, 1.1e-3 and D2Q5 7.5e-3, 3.3e-3, 1.6e-3 at M = 32, 64,
    128.  Against the nominal (u, c_s^2/2) it does not fall: D1Q3, whose
    drift is 2u/3, read 0.165, 0.233, 0.395, and D2Q5, off by m m^T / 2 in
    chi alone, 1.03e-2, 9.5e-3, 9.4e-3."""
    walk, nominal_errors = zip(*(gaussian_errors(scheme, m, 0.1) for m in (32, 64, 128)))
    assert np.log2(walk[1] / walk[2]) >= 0.9, walk
    assert nominal_errors[2] >= 0.9 * nominal_errors[1], nominal_errors


@pytest.mark.parametrize("model", [
    pytest.param({"scheme": "D1Q2", "w_hat": [0.7, 0.3]}, id="D1Q2"),
    pytest.param({"scheme": "D1Q3", "u": 0.2}, id="D1Q3"),
    pytest.param({"scheme": "D2Q5", "u": 0.2, "v": -0.1}, id="D2Q5"),
])
def test_a_delta_moves_by_the_drift_and_spreads_by_the_diffusivity(model):
    """A unit delta at the centre, before it wraps around: after t loops its
    mean has moved by t m and its covariance is 2 t chi, to rounding."""
    m, loops = 64, 20  # the walk moves at most one cell a loop: 20 < 32
    ndim = len(TABLES[model["scheme"]][0][0])
    cell = [m // 2] if ndim == 1 else [[m // 2] * ndim]
    config = {**model, "M": m, "loops": loops,
              "initial": {"uniform": 0, "overrides": [[*cell, 1.0]]}}
    report, field = run_exact(config)
    drift, chi = checked_moments(report, config)
    coords = np.stack(np.meshgrid(*[np.arange(m, dtype=float)] * ndim, indexing="ij"),
                      axis=-1).reshape(-1, ndim)
    p = field.ravel() / field.sum()
    mean = p @ coords
    centred = coords - mean
    cov = (p[:, None] * centred).T @ centred
    assert np.max(np.abs(mean - (m // 2 + loops * drift))) <= 1e-12
    assert np.max(np.abs(cov - 2 * loops * chi)) <= 1e-12
