import pytest

from ehaoi import ModelParams, modified_via


@pytest.fixture(scope="session")
def base_params():
    # default operating point used throughout the docs
    return ModelParams(
        lambda_e=0.5,
        p_block=0.2,
        battery_cap=20,
        cost_reliable=2.0,
        weight=10.0,
        delta_max=200,
    )


@pytest.fixture(scope="session")
def base_solution(base_params):
    return modified_via(base_params, eps=1e-9)
