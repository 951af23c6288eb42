import pytest

from tiltcomp import Pipeline


@pytest.fixture
def replay():
    """Replay full IMU and RTS streams through a new pipeline; returns (records, pipeline)."""

    def _replay(imu_samples, rts_observations, config=None):
        pipe = Pipeline(config)
        return pipe.replay(imu_samples, rts_observations), pipe

    return _replay
