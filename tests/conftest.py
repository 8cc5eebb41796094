import dataclasses

import numpy as np
import pytest

from dlpsim.example_se2 import (TwoBodyConfig, make_full_system,
                                make_reduced_system, make_staged_setup,
                                potential_handle)

START_FULL = (np.array([1.0, 0.0, -1.0, 0.0]),
              np.array([1.04, 0.03, -0.97, 0.02]))


@pytest.fixture(scope="session")
def body_cfg():
    return TwoBodyConfig(h=0.1, potential=potential_handle("linear", 0.5))


@pytest.fixture(scope="session")
def full_system(body_cfg):
    return make_full_system(body_cfg)


@pytest.fixture(scope="session")
def reduced(body_cfg):
    return make_reduced_system(body_cfg, rng=np.random.default_rng(1))


@pytest.fixture(scope="session")
def staged(body_cfg):
    return make_staged_setup(body_cfg, rng=np.random.default_rng(2))


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def full_start():
    return START_FULL


def _with_jacs(model, upsilon, lift, phi):
    bundle = model.reduced_bundle
    return dataclasses.replace(
        model, upsilon=dataclasses.replace(model.upsilon, jac=upsilon),
        lift_section=dataclasses.replace(model.lift_section, jac=lift),
        reduced_bundle=dataclasses.replace(
            bundle, phi=dataclasses.replace(bundle.phi, jac=phi)))


@pytest.fixture(scope="session")
def with_jacs():
    """A function ``(model, upsilon, lift, phi)`` that gives a reduced model
    these ``jac`` on its ``upsilon``, ``lift_section`` and reduced ``phi``."""
    return _with_jacs


@pytest.fixture(scope="session")
def callable_jacs():
    """A function that wraps each constant ``jac`` of a reduced model's
    ``upsilon``, ``lift_section`` and reduced ``phi`` in a callable with
    the same values, so that ``reduce`` takes its generic path."""
    def callable_jacs(model):
        maps = (model.upsilon, model.lift_section, model.reduced_bundle.phi)
        return _with_jacs(model, *(lambda x, J=f.jac: J for f in maps))
    return callable_jacs
