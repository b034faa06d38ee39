"""Good fixture: the batch-invariant counterparts of rpr019_bad."""

import numpy as np


def side_powers(power):
    half = power.shape[1] // 2
    upper_power = np.sum(power[:, :half], axis=1)
    lower_power = np.sum(power[:, half:], axis=1)
    return upper_power, lower_power


def finite_mean(values):
    mask = np.isfinite(values[0])
    return np.ascontiguousarray(values[..., mask]).mean(axis=-1)


def peak_of_rows(power, angles):
    # A maximum is exact in any order, and a row mask keeps rows C-ordered.
    upper_mask = angles < 180.0
    return np.max(power[:, upper_mask], axis=1), \
        np.sum(power[upper_mask[:power.shape[0]]], axis=1)


def column_by_index(power, column):
    return np.sum(power[:, column])
