"""Bad fixture: sums over boolean-mask column selections (RPR019).

``side_powers`` is the body ``SymmetryResolver.side_powers_stack`` once
had: each frame's half-plane sums depended on how many frames shared the
stack.  ``finite_mean`` reduces a predicate-masked selection through the
method form.
"""

import numpy as np


def side_powers(power, angles):
    upper_mask = angles < 180.0
    upper_power = np.sum(power[:, upper_mask], axis=1)
    lower_power = np.sum(power[:, ~upper_mask], axis=1)
    return upper_power, lower_power


def finite_mean(values):
    return values[..., np.isfinite(values[0])].mean(axis=-1)
