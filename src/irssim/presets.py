"""Built-in experiment presets.

The source figures publish no parameter table, so every preset uses one
documented default parameter set; the assumptions baked into a preset are
carried verbatim in the result metadata. Absolute SINR levels are therefore
illustrative; the curve shapes and relative gaps are the reproducible part.
"""

from __future__ import annotations

from typing import Tuple

from irssim.channel import (
    ChannelParams,
    ConventionalModel,
    FadingMode,
    FadingModel,
    IrsPanel,
    dbm_to_watts,
)
from irssim.errors import InvalidInputError
from irssim.geometry import Point3
from irssim.sinr import InterfererSet, thermal_noise_watts
from irssim.sweep import LinkMode, Scenario, SweepSpec

CELL_RADIUS_M = 100.0
TX_POSITION = Point3(0.0, 0.0, 10.0)
MID_CELL_IRS = Point3(CELL_RADIUS_M / 2.0, 0.0, 10.0)
# "50 m away from the cell edge", read as 50 m beyond the edge along the
# deployment axis (the mid-cell placement already sits 50 m inside it)
EDGE_OFFSET_IRS = Point3(CELL_RADIUS_M + 50.0, 0.0, 10.0)

_DEFAULT_ASSUMPTIONS = (
    "cell radius assumed 100 m",
    "carrier 28 GHz, tx power 30 dBm, path-loss exponent 2",
    "noise floor k*T*B at 290 K over 100 MHz",
    "constant interference -100 dBm",
    "IRS sweeps vary the reflector-to-receiver leg along a fixed ray; "
    "the transmitter-to-reflector leg and both angles stay fixed",
)

PRESET_NAMES = ("fig1", "fig2a", "fig2b", "fig2c", "fig2d")

_ANGLES = {
    "fig2a": (45.0, 45.0),
    "fig2b": (60.0, 60.0),
    "fig2c": (45.0, 60.0),
    "fig2d": (60.0, 60.0),
}


def _default_channel() -> ChannelParams:
    return ChannelParams(
        carrier_frequency=28e9,
        tx_power=dbm_to_watts(30.0),
        path_loss_exponent=2.0,
        noise_power=thermal_noise_watts(100e6),
    )


def _default_panel(theta_t: float, theta_r: float) -> IrsPanel:
    return IrsPanel(
        element_length=0.005,
        element_width=0.005,
        tx_side_elements=100,
        rx_side_elements=100,
        reflection_coefficient=0.9,
        tx_gain=10.0,
        rx_gain=10.0,
        theta_t=theta_t,
        theta_r=theta_r,
    )


def build_preset(
    name: str,
    fading_mode: FadingMode = FadingMode.DETERMINISTIC,
    conventional_model: ConventionalModel = ConventionalModel.PAPER,
) -> Tuple[Scenario, SweepSpec]:
    """Scenario and sweep grid for a named built-in experiment."""
    if name not in PRESET_NAMES:
        raise InvalidInputError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    channel = _default_channel()
    interference = InterfererSet.constant(dbm_to_watts(-100.0))
    fading = FadingModel(mode=fading_mode,
                         seed=0 if fading_mode is FadingMode.RAYLEIGH_EXPONENTIAL else None)
    spec = SweepSpec(start=5.0, stop=CELL_RADIUS_M, steps=96, trials=1, seed=0)
    if name == "fig1":
        scenario = Scenario(
            channel=channel,
            fading=fading,
            interference=interference,
            mode=LinkMode.CONVENTIONAL,
            tx=TX_POSITION,
            conventional_model=conventional_model,
            label="fig1",
            assumptions=_DEFAULT_ASSUMPTIONS,
        )
        return scenario, spec
    theta_t, theta_r = _ANGLES[name]
    irs = EDGE_OFFSET_IRS if name == "fig2d" else MID_CELL_IRS
    assumptions = _DEFAULT_ASSUMPTIONS
    if name == "fig2d":
        assumptions = assumptions + (
            "IRS placed 50 m beyond the cell edge on the deployment axis",)
    scenario = Scenario(
        channel=channel,
        fading=fading,
        interference=interference,
        mode=LinkMode.IRS_ASSISTED,
        tx=TX_POSITION,
        panel=_default_panel(theta_t, theta_r),
        irs=irs,
        conventional_model=conventional_model,
        label=name,
        assumptions=assumptions,
    )
    return scenario, spec
