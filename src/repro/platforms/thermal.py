"""Lumped-RC thermal model with throttling.

The Fig 2 scenario in the paper includes a thermal event: "the temperature of
the SoC exceeds thermal limits.  Therefore, the first DNN is dynamically
compressed further and mapped onto a single core CPU in order to meet system
thermal budgets."  Reproducing that scenario requires a thermal substrate that
turns the power trace into a temperature trace and signals when the throttle
threshold is crossed.

We use the standard first-order lumped RC model used by runtime-management
work on the same boards (e.g. Das et al. [24], Reddy et al. [25])::

    C_th * dT/dt = P - (T - T_ambient) / R_th

integrated with an explicit Euler step.  A hysteresis band keeps the throttle
signal from chattering.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ThermalParams", "ThermalModel"]


@dataclass(frozen=True)
class ThermalParams:
    """Parameters of the lumped thermal model.

    Attributes
    ----------
    thermal_resistance_c_per_w:
        Junction-to-ambient thermal resistance in degrees C per watt.
    thermal_capacitance_j_per_c:
        Lumped heat capacity in joules per degree C.
    ambient_c:
        Ambient temperature.
    throttle_threshold_c:
        Temperature above which the SoC must throttle.
    throttle_release_c:
        Temperature below which throttling is released (hysteresis).
    """

    thermal_resistance_c_per_w: float = 8.0
    thermal_capacitance_j_per_c: float = 3.0
    ambient_c: float = 25.0
    throttle_threshold_c: float = 85.0
    throttle_release_c: float = 78.0

    def __post_init__(self) -> None:
        if self.thermal_resistance_c_per_w <= 0:
            raise ValueError("thermal resistance must be positive")
        if self.thermal_capacitance_j_per_c <= 0:
            raise ValueError("thermal capacitance must be positive")
        if self.throttle_release_c > self.throttle_threshold_c:
            raise ValueError("throttle_release_c must not exceed throttle_threshold_c")


class ThermalModel:
    """First-order RC thermal model of the SoC package.

    The model integrates temperature from the total SoC power and exposes a
    throttling flag with hysteresis, plus the steady-state helpers the RTM
    uses to reason about thermal headroom.
    """

    def __init__(self, params: ThermalParams | None = None, initial_temperature_c: float | None = None) -> None:
        self.params = params or ThermalParams()
        self._temperature_c = (
            initial_temperature_c if initial_temperature_c is not None else self.params.ambient_c
        )
        self._sensor_bias_c = 0.0
        self._sensor_frozen_c: float | None = None
        self.throttling = False
        self.peak_temperature_c = self._temperature_c

    # ---------------------------------------------------------------- sensor

    @property
    def temperature_c(self) -> float:
        """The *sensed* temperature — what the governor and RTM observe.

        Equal to the true junction temperature unless a sensor fault is
        active (frozen reading or constant bias).  The fault-free path
        returns the raw attribute unchanged, keeping fingerprints
        bit-identical to pre-fault-injection builds.
        """
        if self._sensor_frozen_c is not None:
            return self._sensor_frozen_c
        if self._sensor_bias_c:
            return self._temperature_c + self._sensor_bias_c
        return self._temperature_c

    @temperature_c.setter
    def temperature_c(self, value: float) -> None:
        self._temperature_c = value

    @property
    def true_temperature_c(self) -> float:
        """The physical junction temperature the RC model integrates."""
        return self._temperature_c

    def set_sensor_bias(self, bias_c: float) -> None:
        """Offset every sensed reading by ``bias_c`` degrees (0 clears it)."""
        self._sensor_bias_c = bias_c

    def freeze_sensor(self) -> float:
        """Freeze the sensor at its current sensed reading; returns it."""
        self._sensor_frozen_c = self.temperature_c
        return self._sensor_frozen_c

    def restore_sensor(self) -> None:
        """Unfreeze the sensor (any bias stays until cleared separately)."""
        self._sensor_frozen_c = None

    # ----------------------------------------------------------------- state

    def reset(self, temperature_c: float | None = None) -> None:
        """Reset state to ambient (or a given temperature) and clear sensor faults."""
        self._temperature_c = (
            temperature_c if temperature_c is not None else self.params.ambient_c
        )
        self._sensor_bias_c = 0.0
        self._sensor_frozen_c = None
        self.throttling = False
        self.peak_temperature_c = self._temperature_c

    def step(self, power_mw: float, duration_ms: float) -> float:
        """Advance the model by ``duration_ms`` at a constant power.

        Parameters
        ----------
        power_mw:
            Total SoC power over the interval, in milliwatts.
        duration_ms:
            Interval length in milliseconds.

        Returns
        -------
        float
            The temperature at the end of the interval.
        """
        if duration_ms < 0:
            raise ValueError("duration must be non-negative")
        if power_mw < 0:
            raise ValueError("power must be non-negative")
        params = self.params
        power_w = power_mw / 1000.0
        remaining_s = duration_ms / 1000.0
        # Sub-step to keep the explicit Euler integration stable for long
        # intervals: limit each step to a tenth of the RC time constant.
        tau_s = params.thermal_resistance_c_per_w * params.thermal_capacitance_j_per_c
        max_step_s = max(tau_s / 10.0, 1e-6)
        # Integrate the TRUE junction temperature; sensor faults only distort
        # what temperature_c reports, never the physics.
        temperature = self._temperature_c
        while remaining_s > 1e-12:
            step_s = min(remaining_s, max_step_s)
            flow_out_w = (temperature - params.ambient_c) / params.thermal_resistance_c_per_w
            d_temp = (power_w - flow_out_w) / params.thermal_capacitance_j_per_c * step_s
            temperature += d_temp
            remaining_s -= step_s
        self._temperature_c = temperature
        self.peak_temperature_c = max(self.peak_temperature_c, temperature)
        self._update_throttle()
        return self.temperature_c

    def _update_throttle(self) -> None:
        if self.temperature_c >= self.params.throttle_threshold_c:
            self.throttling = True
        elif self.temperature_c <= self.params.throttle_release_c:
            self.throttling = False

    def steady_state_temperature_c(self, power_mw: float) -> float:
        """Temperature the model would settle at under constant power."""
        return self.params.ambient_c + (power_mw / 1000.0) * self.params.thermal_resistance_c_per_w

    def sustainable_power_mw(self, margin_c: float = 0.0) -> float:
        """Largest constant power that keeps steady state below the throttle threshold.

        Parameters
        ----------
        margin_c:
            Extra headroom in degrees to keep below the threshold.
        """
        headroom_c = self.params.throttle_threshold_c - margin_c - self.params.ambient_c
        if headroom_c <= 0:
            return 0.0
        return headroom_c / self.params.thermal_resistance_c_per_w * 1000.0

    def headroom_c(self) -> float:
        """Degrees remaining before the throttle threshold."""
        return self.params.throttle_threshold_c - self.temperature_c
