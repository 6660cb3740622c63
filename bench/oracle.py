"""The paper's link-budget formulas, written out independently of irssim.channel.

The output checks compare the engine against these functions, so they must not
import the engine's channel or SINR code. They accept floats or numpy arrays.
The parameter table mirrors the documented preset defaults (28 GHz, 30 dBm,
path-loss exponent 2, k*T*B noise over 100 MHz, -100 dBm interference, a
100x100 panel of 5 mm elements with A = 0.9 and 10 dBi gains).
"""

from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
BOLTZMANN = 1.380649e-23
EULER_GAMMA = 0.5772156649015329
DB_PER_NEPER = 10.0 / math.log(10.0)
# E[10 log10 X] and sd[10 log10 X] for X ~ Exp(1): -gamma and pi/sqrt(6) nepers
RAYLEIGH_MEAN_DB = -EULER_GAMMA * DB_PER_NEPER
RAYLEIGH_STD_DB = math.pi / math.sqrt(6.0) * DB_PER_NEPER

FREQUENCY_HZ = 28e9
TX_POWER_DBM = 30.0
PATH_LOSS_EXPONENT = 2.0
NOISE_BANDWIDTH_HZ = 100e6
INTERFERENCE_DBM = -100.0
ELEMENT_M = 0.005
ELEMENTS_PER_SIDE = 100
REFLECTION_COEFFICIENT = 0.9
ANTENNA_GAIN_DBI = 10.0
TX = (0.0, 0.0, 10.0)
MID_CELL_IRS = (50.0, 0.0, 10.0)
EDGE_OFFSET_IRS = (150.0, 0.0, 10.0)
SWEEP_START_M = 5.0
SWEEP_STOP_M = 100.0

# preset -> (IRS position, theta_t, theta_r); fig1 has no reflector
PRESET_GEOMETRY = {
    "fig1": None,
    "fig2a": (MID_CELL_IRS, 45.0, 45.0),
    "fig2b": (MID_CELL_IRS, 60.0, 60.0),
    "fig2c": (MID_CELL_IRS, 45.0, 60.0),
    "fig2d": (EDGE_OFFSET_IRS, 60.0, 60.0),
}


def dbm_to_watts(dbm):
    return 10.0 ** (dbm / 10.0) * 1e-3


def watts_to_dbm(watts):
    return 10.0 * np.log10(watts / 1e-3)


def noise_watts() -> float:
    return BOLTZMANN * 290.0 * NOISE_BANDWIDTH_HZ


def conventional_power(r, tx_dbm: float = TX_POWER_DBM):
    """Direct link, paper form: lambda * P_t / (r^alpha * 16 pi^2)."""
    lam = SPEED_OF_LIGHT / FREQUENCY_HZ
    return lam * dbm_to_watts(tx_dbm) / (r ** PATH_LOSS_EXPONENT * 16.0 * math.pi ** 2)


def irs_power(r1, r2, theta_t: float, theta_r: float):
    """Cascaded link through the panel, with the element aperture gain G substituted."""
    lam = SPEED_OF_LIGHT / FREQUENCY_HZ
    area = ELEMENT_M * ELEMENT_M
    g = 4.0 * math.pi * area / lam ** 2
    gain = 10.0 ** (ANTENNA_GAIN_DBI / 10.0)
    m2n2 = float(ELEMENTS_PER_SIDE) ** 4
    numerator = (area * m2n2 * lam ** 2 * gain * gain * g
                 * math.cos(math.radians(theta_t)) * math.cos(math.radians(theta_r))
                 * REFLECTION_COEFFICIENT ** 2)
    return numerator / (64.0 * math.pi ** 3 * (r1 * r2) ** 2) * dbm_to_watts(TX_POWER_DBM)


def sweep_grid(steps: int) -> np.ndarray:
    return np.linspace(SWEEP_START_M, SWEEP_STOP_M, steps)


def preset_rx_power(preset: str, x):
    """Unit-fading received power at swept distance x (receiver on the +x ray)."""
    geometry = PRESET_GEOMETRY[preset]
    if geometry is None:
        return conventional_power(x)
    irs, theta_t, theta_r = geometry
    return irs_power(math.dist(TX, irs), x, theta_t, theta_r)


def preset_sinr_db(preset: str, x):
    return 10.0 * np.log10(preset_rx_power(preset, x)
                           / (dbm_to_watts(INTERFERENCE_DBM) + noise_watts()))


def mean_db_of_weighted_exponentials(a1, a2):
    """E[10 log10(a1 E1 + a2 E2)] for independent unit exponentials E1, E2.

    The sum is hypoexponential; E[ln] = (a1 ln a1 - a2 ln a2) / (a1 - a2) - gamma,
    with the limit ln a + 1 - gamma when the weights are equal.
    """
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    close = np.isclose(a1, a2, rtol=1e-9)
    safe = np.where(close, 1.0, a1 - a2)
    ln_mean = np.where(close, np.log(a1) + 1.0,
                       (a1 * np.log(a1) - a2 * np.log(a2)) / safe)
    return (ln_mean - EULER_GAMMA) * DB_PER_NEPER
